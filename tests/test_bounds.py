import math

import numpy as np
import pytest

from zeig.regions import (
    bound_omega_max,
    compare_report,
    ordered_pairs,
    region_K,
    region_M,
    region_Omega,
)
from zeig.tensor import DenseTensor

from conftest import load_fixture
from helpers import brute_aggregates, brute_delta, diagonal_tensor, random_tensor

EX1_OMEGA_MAX = 4.3970633623780984
EX2_OMEGA_MAX = 11.726812023536855  # (10 + sqrt(181)) / 2


def band_tops(agg):
    """Omega's band top min(R_i, delta(i, j)) of each ordered pair (i, j), 1-based."""
    i, j = ordered_pairs(agg.dim)
    return dict(zip(zip((i + 1).tolist(), (j + 1).tolist()), agg.omega.tolist()))


def test_band_top_golden_values(example1, example2):
    assert band_tops(example1.aggregates())[2, 1] == pytest.approx(EX1_OMEGA_MAX, rel=1e-14)
    top = band_tops(example2.aggregates())[1, 2]
    assert top == pytest.approx(11.7268, abs=5e-4)  # reported value
    assert top == pytest.approx(EX2_OMEGA_MAX, rel=1e-14)


def test_band_top_matches_literal_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = random_tensor(rng, order=3, dim=4)
        tops = band_tops(t.aggregates())
        R, P, _ = brute_aggregates(t)
        assert len(tops) == 12
        for (i, j), top in tops.items():
            assert top == pytest.approx(min(R[i - 1], brute_delta(R, P, i - 1, j - 1)), rel=1e-12)


def test_band_top_collapses_for_diagonal_tensors():
    # R_i = P_i^j = |d_i|: delta(i, j) is exactly max(|d_i|, |d_j|), clipped to |d_i|
    d = [1, -2, 3]
    for (i, j), top in band_tops(diagonal_tensor(d, order=3).aggregates()).items():
        assert top == min(abs(d[i - 1]), max(abs(d[i - 1]), abs(d[j - 1])))


def test_bound_omega_max_example1(example1):
    agg = example1.aggregates()
    assert bound_omega_max(agg) == pytest.approx(4.3971, abs=1e-4)  # reported value
    report = compare_report(example1, agg)
    assert report.omega_hat_max == 0.5
    assert report.omega_max == pytest.approx(EX1_OMEGA_MAX, rel=1e-14)
    assert report.omega_max == bound_omega_max(agg)
    assert report.attaining_pair == (2, 1)


def test_bound_omega_max_example2(example2):
    agg = example2.aggregates()
    assert bound_omega_max(agg) == pytest.approx(11.7268, abs=5e-4)  # reported value
    assert bound_omega_max(agg) == pytest.approx(EX2_OMEGA_MAX, rel=1e-14)
    report = compare_report(example2, agg)
    assert report.omega_hat_max == 5.5
    assert report.attaining_pair == (1, 2)


def test_bound_omega_max_diagonal_exact():
    assert bound_omega_max(diagonal_tensor([1, 2, 3], order=4).aggregates()) == 3.0


def test_bound_omega_max_tie_breaks_lexicographically():
    # constant tensor: every ordered pair attains the maximum
    t = DenseTensor(np.full((3, 3, 3), 1.0))
    assert compare_report(t, t.aggregates()).attaining_pair == (1, 2)


def test_bound_chain_middle_golden(example1, example2, zero_m2_n2):
    assert compare_report(example1, example1.aggregates()).chain_middle == pytest.approx(31 / 6, rel=1e-13)
    assert compare_report(example2, example2.aggregates()).chain_middle == pytest.approx(
        0.5 * (17 + math.sqrt(132)), rel=1e-13
    )
    assert compare_report(zero_m2_n2, zero_m2_n2.aggregates()).chain_middle == 0.0


def test_chain_middle_reaches_band_centres_when_the_root_rounds_down():
    # with d_ij tiny the larger root of M's band can round one ulp below its
    # centres R_i - d_ij and P_j^i, which the band contains all the same
    rng = np.random.default_rng(3)
    for _ in range(200):
        data = rng.random((2, 2, 2))
        data[0, 1, 1] = data[1, 0, 0] = 1e-30
        t = DenseTensor(data)
        agg = t.aggregates()
        R, P, D = agg.row_sums, agg.partial_sums, agg.diag_abs
        centres = max(R[0] - D[0, 1], R[1] - D[1, 0], P[1, 0], P[0, 1])
        assert compare_report(t, agg).chain_middle >= centres


def test_bound_gershgorin_golden(example1, example2, zero_m2_n2):
    assert compare_report(example1, example1.aggregates()).gershgorin == pytest.approx(5.3333, abs=5e-5)
    assert compare_report(example2, example2.aggregates()).gershgorin == 14.5
    assert compare_report(zero_m2_n2, zero_m2_n2.aggregates()).gershgorin == 0.0


def test_chain_violation_of_a_millionth_of_a_tiny_chain_is_caught():
    # All entries 1e-12: the three bounds are all 9e-12, so M's table shrunk
    # by 1e-6 relative puts chain_middle 9e-18 below omega_max.
    tensor = load_fixture("ones_tiny_m3_n3.json")
    agg = tensor.aggregates()
    vars(agg)["m"] = agg.m * (1.0 - 1e-6)  # fills the cached tops
    report = compare_report(tensor, agg)
    assert report.omega_max > report.chain_middle
    assert report.chain_ok is False


def _random_ensemble(count, seed, signed):
    rng = np.random.default_rng(seed)
    for k in range(count):
        order = int(rng.integers(3, 5))
        dim = int(rng.integers(2, 6))
        yield random_tensor(rng, order, dim, signed=signed)


def test_chain_holds_on_random_nonnegative_tensors():
    for t in _random_ensemble(100, seed=11, signed=False):
        agg = t.aggregates()
        report = compare_report(t, agg)
        mid = report.chain_middle
        top = report.gershgorin
        assert report.omega_max == bound_omega_max(agg)
        assert report.omega_max <= mid + 1e-12
        assert mid <= top + 1e-12


@pytest.mark.parametrize("signed, seed", [(False, 11), (True, 13)])
def test_omega_hat_max_is_the_largest_box_cap_of_the_brute_aggregates(signed, seed):
    for t in _random_ensemble(100, seed=seed, signed=signed):
        _, P, _ = brute_aggregates(t)
        caps = [min(P[i][j], P[j][i]) for i in range(t.dim) for j in range(t.dim) if i != j]
        assert compare_report(t, t.aggregates()).omega_hat_max == pytest.approx(max(caps), rel=1e-12)


def test_bounds_equal_region_suprema():
    for signed in (False, True):
        for t in _random_ensemble(50, seed=13 if signed else 17, signed=signed):
            agg = t.aggregates()
            assert bound_omega_max(agg) == pytest.approx(
                region_Omega(agg), abs=1e-10
            )
            report = compare_report(t, agg)
            assert report.chain_middle == pytest.approx(region_M(agg), abs=1e-10)
            assert report.gershgorin == pytest.approx(region_K(agg), abs=1e-10)


def test_bounds_scale_linearly():
    rng = np.random.default_rng(19)
    t = random_tensor(rng, order=4, dim=3)
    agg = t.aggregates()
    for c in (2.0, 0.3721):
        scaled = DenseTensor(c * t.data)
        scaled_agg = scaled.aggregates()
        assert bound_omega_max(scaled_agg) == pytest.approx(c * bound_omega_max(agg), rel=1e-12)
        scaled_report, report = compare_report(scaled, scaled_agg), compare_report(t, agg)
        assert scaled_report.chain_middle == pytest.approx(c * report.chain_middle, rel=1e-12)
        assert scaled_report.gershgorin == pytest.approx(c * report.gershgorin, rel=1e-12)
        assert scaled_report.attaining_pair == report.attaining_pair


def test_compare_report_example1(example1):
    report = compare_report(example1, example1.aggregates())
    assert report.omega_max == pytest.approx(EX1_OMEGA_MAX, rel=1e-13)
    assert report.chain_middle == pytest.approx(31 / 6, rel=1e-13)
    assert report.gershgorin == pytest.approx(16 / 3, rel=1e-14)
    assert report.nonnegative and report.weakly_symmetric and report.bound_applies and report.chain_ok
    assert report.omega_max <= report.chain_middle <= report.gershgorin


def test_compare_report_example2(example2):
    report = compare_report(example2, example2.aggregates())
    assert report.omega_max == pytest.approx(11.7268, abs=5e-4)
    assert report.omega_max < report.chain_middle < report.gershgorin == 14.5
    assert report.nonnegative and report.weakly_symmetric and report.bound_applies and report.chain_ok


def test_bound_does_not_apply_to_a_symmetric_tensor_with_a_negative_entry():
    # Symmetric, so weakly symmetric: the sign alone fails the hypotheses.
    data = np.full((2, 2, 2), 0.5)
    data[0, 1, 1] = data[1, 0, 1] = data[1, 1, 0] = -0.5
    t = DenseTensor(data)
    report = compare_report(t, t.aggregates())
    assert (report.nonnegative, report.weakly_symmetric) == (False, True)
    assert not report.bound_applies
    assert report.omega_max > 0.0  # still computed
    assert report.chain_ok


def test_bound_does_not_apply_to_a_nonnegative_tensor_that_is_not_weakly_symmetric():
    data = np.zeros((2, 2, 2))
    data[0, 0, 1] = 1.0
    t = DenseTensor(data)
    report = compare_report(t, t.aggregates())
    assert (report.nonnegative, report.weakly_symmetric) == (True, False)
    assert not report.bound_applies

