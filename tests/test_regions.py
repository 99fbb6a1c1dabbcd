import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeig.cli import main
from zeig.oracle import INCLUSION_TOL, Eigenpair, verify_inclusion, z_eigs_sweep_n2
from zeig.regions import (
    _band_top,
    bound_omega_max,
    compare_report,
    ordered_pairs,
    region_K,
    region_M,
    region_Omega,
)
from zeig.tensor import DenseTensor

from conftest import fixture_path, load_fixture
from helpers import (
    brute_aggregates,
    brute_delta,
    brute_in_K,
    brute_in_M,
    brute_in_Omega,
    diagonal_tensor,
    permuted_tensor,
    random_dyadic_tensor,
    random_tensor,
)

# frozen independently: 0.5*(3.5 + sqrt(2.5**2 + 4*(49/9)))
EX1_OMEGA_SUP = 4.3970633623780984


# -- quadratic kernel ---------------------------------------------------------


def test_solve_quadratic_example1_pair():
    c = (17 / 6 - 0.5) * (16 / 3 - 3.0)
    assert _band_top(0.5, 3.0, c) == pytest.approx(EX1_OMEGA_SUP, rel=1e-14)


def test_solve_quadratic_degenerate_cases():
    assert _band_top(0.0, 0.0, 0.0) == 0.0
    assert _band_top(1.0, 3.0, 0.0) == 3.0
    assert _band_top(3.0, 1.0, 0.0) == 3.0


def test_solve_quadratic_rejects_negative_product_bound():
    with pytest.raises(ValueError):
        _band_top(1.0, 1.0, -1e-9)


@given(
    p=st.floats(0.0, 100.0),
    q=st.floats(0.0, 100.0),
    c=st.floats(0.0, 1000.0),
)
@settings(max_examples=300, deadline=None)
def test_solve_quadratic_roots_satisfy_equation(p, q, c):
    top = _band_top(p, q, c)
    scale = max(1.0, p, q, c)
    assert abs((top - p) * (top - q) - c) <= 1e-10 * scale * scale
    assert top >= max(p, q) - 1e-12 * scale


def test_solve_quadratic_arrays_match_scalar_formula_bit_for_bit():
    # bounds and region endpoints are printed to the last bit
    rng = np.random.default_rng(7)
    p, q = 10.0 * rng.random(20_000), 10.0 * rng.random(20_000)
    c = rng.random(20_000) * rng.choice([1e-18, 1e-6, 1.0, 100.0], size=20_000)
    tops = _band_top(p, q, c)
    for k, (pk, qk, ck) in enumerate(zip(p.tolist(), q.tolist(), c.tolist())):
        assert tops[k] == 0.5 * ((pk + qk) + math.sqrt((pk - qk) ** 2 + 4.0 * ck))


def test_band_top_of_equal_centres_is_sqrt_c_above_them():
    # p = q with tiny c: the top is p + sqrt(c), not lost to rounding
    assert _band_top(1.0, 1.0, 1e-16) == pytest.approx(1.0 + 1e-8, rel=1e-9)


# -- CSV export ----------------------------------------------------------------


def test_csv_export_format(tmp_path, capsys):
    def csv(name, region):
        path = tmp_path / f"{name}.{region}.csv"
        assert main(["regions", str(fixture_path(f"{name}.json")), "--set", region, "--csv", str(path)]) == 0
        return path.read_text(encoding="utf-8")

    assert csv("example2", "K") == "supremum\n14.5\n"
    assert csv("example1", "Omega") == "supremum\n4.3970633623780984\n"


# -- membership ------------------------------------------------------------------


def test_contains_is_the_closed_disk_widened_by_tol():
    # verify's membership test is |λ| <= sup + tol with tol = INCLUSION_TOL * S;
    # the diagonal tensor's sets are all [0, 3] and S = 6.
    t = diagonal_tensor([1, 2, 3], order=3)
    tol = INCLUSION_TOL * 6.0
    x = np.array([1.0, 0.0, 0.0])
    values = [0.0, 3.0, -3.0, 3.0 + tol / 2, -3.0 - tol / 2, 3.0 + 2 * tol, -3.0 - 2 * tol, 3.1]
    report = verify_inclusion(t, [Eigenpair(v, x, 0.0) for v in values])
    assert report.bound_applies and report.omega_max == 3.0
    for check in report.checks:
        inside = abs(check.value) <= 3.0 + tol
        assert (check.in_omega, check.in_m, check.in_k) == (inside,) * 3, check.value
    assert [c.in_k for c in report.checks] == [True] * 5 + [False] * 3


# -- region constructors -----------------------------------------------------------


def test_region_K_golden(example1, example2, zero_m2_n2):
    agg1 = example1.aggregates()
    assert region_K(agg1) == agg1.row_sums[1]
    assert region_K(example2.aggregates()) == 14.5
    assert region_K(zero_m2_n2.aggregates()) == 0.0


def test_region_M_golden(example1, zero_m2_n2):
    sup = region_M(example1.aggregates())
    assert sup == pytest.approx(31 / 6, rel=1e-13)
    assert region_M(zero_m2_n2.aggregates()) == 0.0


def test_region_M_diagonal_contains_top_eigenvalue():
    t = diagonal_tensor([1, 2, 3], order=3)
    sup = region_M(t.aggregates())
    R, P, D = brute_aggregates(t)
    for r in np.linspace(0.0, 3.5, 113):
        assert (float(r) <= sup) == brute_in_M(R, P, D, float(r))
    assert 3.0 <= sup


def test_region_Omega_golden(example1, example2):
    sup1 = region_Omega(example1.aggregates())
    assert sup1 == pytest.approx(EX1_OMEGA_SUP, rel=1e-13)
    sup2 = region_Omega(example2.aggregates())
    assert sup2 == pytest.approx(11.7268, abs=5e-4)  # reported bound
    assert sup2 == pytest.approx(11.726812023536855, rel=1e-13)


def test_region_Omega_diagonal_structure():
    t = diagonal_tensor([1, 2, 3], order=4)
    assert region_Omega(t.aggregates()) == 3.0


def test_region_Omega_contains_sweep_eigenvalues(example1):
    sup = region_Omega(example1.aggregates())
    for pair in z_eigs_sweep_n2(example1):
        assert abs(pair.value) <= sup + 1e-8


# -- cross-cutting properties ---------------------------------------------------


def _random_mixed_tensors(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        order = int(rng.integers(3, 5))
        dim = int(rng.integers(2, 6))
        out.append(random_tensor(rng, order, dim, signed=bool(k % 2)))
    return out


def test_region_nesting_on_random_tensors():
    rng = np.random.default_rng(101)
    for t in _random_mixed_tensors(30, seed=303):
        agg = t.aggregates()
        omega, m_sup, k_sup = region_Omega(agg), region_M(agg), region_K(agg)
        top = 1.1 * max(agg.row_sums.max(), 1e-6)
        for r in rng.uniform(0.0, top, size=100):
            r = float(r)
            if r <= omega:
                assert r <= m_sup
            if r <= m_sup:
                assert r <= k_sup
        assert omega <= m_sup + 1e-12
        assert m_sup <= k_sup + 1e-12


def test_region_membership_matches_defining_inequalities():
    rng = np.random.default_rng(59)
    for t in _random_mixed_tensors(12, seed=61):
        agg = t.aggregates()
        regions = {
            "K": (region_K(agg), brute_in_K),
            "M": (region_M(agg), brute_in_M),
            "Omega": (region_Omega(agg), brute_in_Omega),
        }
        R, P, D = brute_aggregates(t)
        sups = [sup for sup, _ in regions.values()]
        top = 1.2 * max(float(agg.row_sums.max()), 1e-6)
        for r in rng.uniform(0.0, top, size=1000):
            r = float(r)
            if any(abs(r - e) <= 1e-12 * max(1.0, e) for e in sups):
                continue  # brute check uses independently-summed aggregates
            for name, (sup, brute) in regions.items():
                assert (r <= sup) == brute(R, P, D, r), (name, r)


def test_regions_scale_exactly_with_power_of_two():
    for t in _random_mixed_tensors(6, seed=71):
        for c in (2.0, 0.5):
            scaled = DenseTensor(c * t.data)
            for build in (region_K, region_M, region_Omega):
                assert build(scaled.aggregates()) == c * build(t.aggregates())


def test_region_intervals_hold_python_scalars(example1):
    # render_json prints only Python floats and bools; it rejects numpy's
    agg = example1.aggregates()
    assert [type(sup) for sup in (region_K(agg), region_M(agg), region_Omega(agg))] == [float] * 3


def test_pair_tops_are_kept_and_read_only(example2):
    agg = example2.aggregates()
    assert agg.omega is agg.omega and agg.m is agg.m
    for tops in (agg.omega, agg.m):
        with pytest.raises(ValueError, match="read-only"):
            tops[0] = 0.0


def _family_tensors(count, seed):
    """Random tensors of orders 2-5 and dims 2-6, in turn signed, nonnegative,
    sparse, spread over magnitudes 1e-20..1e20, and integer."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 7))
        a = rng.standard_normal((n,) * m)
        family = k % 5
        if family == 1:
            a = np.abs(a)
        elif family == 2:
            a = a * (rng.random(a.shape) < 0.3)
        elif family == 3:
            a = a * 10.0 ** rng.uniform(-20, 20, a.shape)
        elif family == 4:
            a = np.round(a)
        yield DenseTensor(a, copy=False)


def _pair_bands(agg):
    """Each pairwise set's centres p, q and product bound c per ordered pair,
    from the aggregates: the band (r - p)(r - q) <= c and the box below min(p, q)."""
    i, j = ordered_pairs(agg.dim)
    R, P, D = agg.row_sums, agg.partial_sums, agg.diag_abs
    return {
        "omega": (P[i, j], P[j, i], np.maximum(0.0, R[i] - P[i, j]) * np.maximum(0.0, R[j] - P[j, i])),
        "m": (np.maximum(0.0, R[i] - D[i, j]), P[j, i], D[i, j] * np.maximum(0.0, R[j] - P[j, i])),
    }


def test_each_pair_band_joins_its_box_into_one_interval():
    # c >= 0 puts cap = min(p, q) inside the band (r - p)(r - q) <= c, checked
    # exactly on the aggregates' floats, and each pair top is at least cap on
    # the floats too (for M at least max(p, q)), so box and band form
    # [0, top]: the regions are disks.
    for t in _family_tensors(500, seed=7):
        agg = t.aggregates()
        bands = _pair_bands(agg)
        for name, (p, q, c) in bands.items():
            cap = np.minimum(p, q)
            for pk, qk, capk, ck in zip(*(map(Fraction, v.tolist()) for v in (p, q, cap, c))):
                assert (capk - pk) * (capk - qk) <= ck, (name, t.data.tolist())
            assert np.all(getattr(agg, name) >= cap), (name, t.data.tolist())
        p, q, _ = bands["m"]
        assert np.all(agg.m >= np.maximum(p, q)), t.data.tolist()


def test_built_regions_are_one_closed_interval_from_zero():
    for t in _family_tensors(200, seed=11):
        for build in (region_K, region_M, region_Omega):
            sup = build(t.aggregates())
            assert type(sup) is float and sup >= 0.0, (build.__name__, t.data.tolist())


def test_region_suprema_are_the_largest_row_sum_and_pair_table_maxima():
    for t in _family_tensors(200, seed=13):
        agg = t.aggregates()
        assert region_K(agg) == float(agg.row_sums.max())
        p, q, _ = _pair_bands(agg)["m"]
        assert region_M(agg) == float(max(np.minimum(p, q).max(), agg.m.max()))
        # the same float, not merely a close one: verify and bounds print both
        assert region_Omega(agg) == bound_omega_max(agg)


def test_chain_middle_is_M_supremum_bit_for_bit():
    # In the fixture M's largest band top rounds one ulp below its centre;
    # both numbers are the largest of M's pair tops, which is at least the centre.
    for t in [*_family_tensors(500, seed=7), load_fixture("m_sup_ulp_m3_n2.json")]:
        agg = t.aggregates()
        assert compare_report(t, agg).chain_middle == region_M(agg), t.data.tolist()


def test_bound_chain_holds_at_every_scale():
    # The three bounds are rounded from different sums of the same entries,
    # so on the computed values they can cross by an ulp of the chain's top.
    for t in _family_tensors(100, seed=7):
        for k in range(-20, 21):
            scaled = DenseTensor(10.0**k * t.data)
            assert compare_report(scaled, scaled.aggregates()).chain_ok, (k, t.data.tolist())


def test_ordered_pairs_are_lexicographic_and_need_two_indices():
    i, j = ordered_pairs(3)
    assert list(zip(i.tolist(), j.tolist())) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    assert len(ordered_pairs(6)[0]) == 30
    for n in (0, 1):
        with pytest.raises(ValueError):
            ordered_pairs(n)


def test_pair_tops_match_the_brute_closed_forms():
    rng = np.random.default_rng(29)
    for _ in range(10):
        t = random_tensor(rng, order=3, dim=4, signed=True)
        agg = t.aggregates()
        R, P, D = brute_aggregates(t)
        i, j = ordered_pairs(agg.dim)
        for k, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
            assert agg.omega[k] == pytest.approx(min(R[a], brute_delta(R, P, a, b)), rel=1e-12)
            # M's band (r - (R_a - d_ab)) (r - P_b^a) <= d_ab (R_b - P_b^a), its larger root
            p, q = max(0.0, R[a] - D[a][b]), P[b][a]
            top = 0.5 * (p + q + math.sqrt((p - q) ** 2 + 4.0 * D[a][b] * (R[b] - P[b][a])))
            assert agg.m[k] == pytest.approx(top, rel=1e-12)


def test_regions_invariant_under_index_permutation():
    rng = np.random.default_rng(83)
    for _ in range(5):
        t = random_dyadic_tensor(rng, order=3, dim=4, signed=True)
        perm = rng.permutation(4)
        pt = permuted_tensor(t, perm)
        for build in (region_K, region_M, region_Omega):
            assert build(t.aggregates()) == build(pt.aggregates())
