"""Each tolerance behind verify's verdict, pinned at its stated value.

Every test here writes its tolerance out as a number instead of importing the
constant, with one case just inside it and one just outside, so that a
changed constant fails a test.  tests/mutants.py changes each one in a copy
of the tree and requires that these tests catch it.
"""

import numpy as np

from zeig.oracle import Eigenpair, _distinct, _finish, verify_inclusion, z_eigs_sweep_n2
from zeig.regions import compare_report, region_K, region_M, region_Omega
from zeig.tensor import DenseTensor


def test_inclusion_tol_is_1e_8_of_s_at_each_region_and_the_bound(example2):
    # example2's entries sum to S = 31.5.  Its suprema, Omega's (the bound,
    # 11.73), M's (14.24) and K's (14.5), lie far more than 2 tol apart.
    # The bound applies, and it is Omega's supremum, so in_omega is its verdict.
    agg = example2.aggregates()
    tol = 1e-8 * 31.5
    x = np.array([1.0, 0.0, 0.0])
    for sign in (1.0, -1.0):
        for factor, inside in ((0.5, True), (2.0, False)):
            values = [sign * (sup + factor * tol) for sup in (region_Omega(agg), region_M(agg), region_K(agg))]
            report = verify_inclusion(example2, [Eigenpair(v, x, 0.0) for v in values])
            assert report.bound_applies and report.omega_max == region_Omega(agg)
            verdicts = [(c.in_omega, c.in_m, c.in_k) for c in report.checks]
            assert verdicts == [
                (inside, True, True),
                (False, inside, True),
                (False, False, inside),
            ], (sign, factor)


def _rotated(x, angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([c * x[0] - s * x[1], s * x[0] + c * x[1]])


def _residual(tensor, x):
    y = tensor.apply(x)
    return float(np.linalg.norm(y - (x @ y) * x))


def test_finish_reports_a_residual_within_1e_12_of_s_and_drops_one_beyond(example1):
    # example1's entries sum to S = 49 / 6.  Its top eigenvector, turned by a
    # small angle, has a residual that grows linearly with the angle.
    gate = 1e-12 * 49 / 6
    x = z_eigs_sweep_n2(example1)[0].x
    slope = _residual(example1, _rotated(x, 1e-6)) / 1e-6
    for factor, count in ((0.1, 1), (10.0, 0)):
        y = _rotated(x, factor * gate / slope)
        assert 0.8 * factor < _residual(example1, y) / gate < 1.25 * factor
        pairs = _finish(example1, y[None], np.zeros(1), np.zeros(1))
        assert len(pairs) == count, factor


def test_weak_symmetry_limit_is_1e_10_of_the_largest_fold_entry(example2):
    # A[2, 0, 0] = 3 is the largest entry of example2's fold, at (2, 0) of
    # the block of index 0, where (0, 2) holds the mean of A[0, 2, 0] and
    # A[0, 0, 2], also 3.  Scaled by 1 + d, it is 3 d from its transpose.
    for d, weak in ((0.5e-10, True), (2e-10, False)):
        data = example2.data.copy()
        data[2, 0, 0] *= 1.0 + d
        assert DenseTensor(data).is_weakly_symmetric() is weak, d


def test_chain_slack_is_1e_12_of_gershgorin(example1):
    # M's tops scaled so that chain_middle lies f * 1e-12 * gershgorin above gershgorin.
    for f, ok in ((0.5, True), (2.0, False)):
        agg = example1.aggregates()
        gershgorin = region_K(agg)
        scale = gershgorin * (1.0 + f * 1e-12) / region_M(agg)
        vars(agg)["m"] = agg.m * scale  # fills the cached tops
        report = compare_report(example1, agg)
        assert 0.9 * f < (report.chain_middle - gershgorin) / (1e-12 * gershgorin) < 1.1 * f
        assert report.chain_ok is ok, f


def test_dedupe_merges_values_within_1e_8_and_keeps_them_apart_beyond():
    # _distinct takes λ / S: two candidates with one vector are one pair when
    # their values are within 1e-8 of each other, and two beyond it.
    X = np.array([[0.6, 0.8], [0.6, 0.8]])
    for gap, count in ((0.5e-8, 1), (2e-8, 2)):
        assert len(_distinct(np.array([0.3, 0.3 + gap]), X, np.arange(2))) == count, gap


def test_dedupe_merges_vectors_within_1e_6_up_to_sign_and_keeps_them_apart_beyond():
    # Two candidates with one value are one pair when their vectors, or one
    # vector and the other's negative, are within 1e-6 of each other, and two
    # beyond it.  Turning a unit vector by a small angle moves it by that angle.
    x = np.array([0.6, 0.8])
    for sign in (1.0, -1.0):
        for gap, count in ((0.5e-6, 1), (2e-6, 2)):
            X = np.array([x, sign * _rotated(x, gap)])
            assert len(_distinct(np.array([0.3, 0.3]), X, np.arange(2))) == count, (sign, gap)
