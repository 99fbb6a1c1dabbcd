import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeig.oracle import z_eigs_sweep_n2
from zeig.regions import (
    RadialInterval,
    region_K,
    region_M,
    region_Omega,
    solve_radial_quadratic,
)
from zeig.tensor import DenseTensor

from helpers import (
    brute_aggregates,
    brute_in_K,
    brute_in_M,
    brute_in_Omega,
    diagonal_tensor,
    permuted_tensor,
    random_dyadic_tensor,
    random_tensor,
    region_endpoints,
    region_of,
)

# frozen independently: 0.5*(3.5 + sqrt(2.5**2 + 4*(49/9)))
EX1_OMEGA_SUP = 4.3970633623780984


# -- quadratic kernel ---------------------------------------------------------


def test_solve_quadratic_example1_pair():
    c = (17 / 6 - 0.5) * (16 / 3 - 3.0)
    roots = solve_radial_quadratic(0.5, 3.0, c)
    assert roots.r_plus == pytest.approx(EX1_OMEGA_SUP, rel=1e-14)


def test_solve_quadratic_degenerate_cases():
    assert solve_radial_quadratic(0.0, 0.0, 0.0) == (0.0, 0.0)
    assert solve_radial_quadratic(1.0, 3.0, 0.0) == (1.0, 3.0)
    assert solve_radial_quadratic(3.0, 1.0, 0.0) == (1.0, 3.0)


def test_solve_quadratic_rejects_negative_product_bound():
    with pytest.raises(ValueError):
        solve_radial_quadratic(1.0, 1.0, -1e-9)


@given(
    p=st.floats(0.0, 100.0),
    q=st.floats(0.0, 100.0),
    c=st.floats(0.0, 1000.0),
)
@settings(max_examples=300, deadline=None)
def test_solve_quadratic_roots_satisfy_equation(p, q, c):
    roots = solve_radial_quadratic(p, q, c)
    scale = max(1.0, p, q, c)
    for r in roots:
        assert abs((r - p) * (r - q) - c) <= 1e-10 * scale * scale
    assert roots.r_plus >= max(p, q) - 1e-12 * scale
    assert roots.r_minus <= min(p, q) + 1e-12 * scale


def test_solve_quadratic_arrays_match_scalar_formula_bit_for_bit():
    # bounds and region endpoints are printed to the last bit
    rng = np.random.default_rng(7)
    p, q = 10.0 * rng.random(20_000), 10.0 * rng.random(20_000)
    c = rng.random(20_000) * rng.choice([1e-18, 1e-6, 1.0, 100.0], size=20_000)
    roots = solve_radial_quadratic(p, q, c)
    for k, (pk, qk, ck) in enumerate(zip(p.tolist(), q.tolist(), c.tolist())):
        r_plus = 0.5 * ((pk + qk) + math.sqrt((pk - qk) ** 2 + 4.0 * ck))
        assert (roots.r_minus[k], roots.r_plus[k]) == ((pk * qk - ck) / r_plus, r_plus)


def test_solve_quadratic_is_cancellation_safe():
    # p ~ q with tiny c: the naive (s - disc)/2 form would lose the small root
    roots = solve_radial_quadratic(1.0, 1.0, 1e-16)
    assert roots.r_minus == pytest.approx(1.0 - 1e-8, rel=1e-9)
    assert roots.r_plus == pytest.approx(1.0 + 1e-8, rel=1e-9)


# -- interval normalization ------------------------------------------------------


def iv(lo, hi, lo_open=False, hi_open=False):
    return RadialInterval(lo, hi, lo_open, hi_open)


def test_normalization_merges_overlap():
    region = region_of([iv(0.0, 2.5, hi_open=True), iv(1 / 3, 31 / 6)])
    assert region.intervals == (iv(0.0, 31 / 6),)


def test_normalization_keeps_hole_between_open_endpoints():
    region = region_of([iv(0.0, 1.0, hi_open=True), iv(1.0, 2.0, lo_open=True)])
    assert len(region.intervals) == 2
    assert not region.contains(1.0)


def test_normalization_merges_half_open_touch():
    region = region_of([iv(0.0, 1.0, hi_open=True), iv(1.0, 2.0)])
    assert region.intervals == (iv(0.0, 2.0),)


def test_normalization_point_interval_plugs_open_end():
    region = region_of([iv(0.0, 1.0, hi_open=True), iv(1.0, 1.0)])
    assert region.intervals == (iv(0.0, 1.0),)


def test_normalization_drops_empty_intervals():
    region = region_of([iv(3.0, 3.0, lo_open=True), iv(5.0, 4.0), iv(1.0, 2.0)])
    assert region.intervals == (iv(1.0, 2.0),)


def test_normalization_rejects_negative_radius():
    with pytest.raises(ValueError):
        region_of([iv(-0.5, 1.0)])


def interval_strategy(endpoint):
    return st.builds(RadialInterval, lo=endpoint, hi=endpoint, lo_open=st.booleans(), hi_open=st.booleans())


@given(
    st.lists(interval_strategy(st.floats(0.0, 10.0)), max_size=8)
    # small integers: equal endpoints with mixed openness are common
    | st.lists(interval_strategy(st.integers(0, 5).map(float)), max_size=8)
)
@settings(max_examples=300, deadline=None)
def test_normalization_invariants_and_membership(items):
    region = region_of(items)
    # stored intervals are non-empty, sorted, pairwise separated
    for a in region.intervals:
        assert a.lo < a.hi or (a.lo == a.hi and not (a.lo_open or a.hi_open))
        assert a.lo >= 0.0
    for a, b in zip(region.intervals, region.intervals[1:]):
        assert b.lo > a.hi or (b.lo == a.hi and b.lo_open and a.hi_open)
    # membership at tol=0 is preserved by normalization
    probes = set()
    for item in items:
        probes.update([item.lo, item.hi, 0.5 * (item.lo + item.hi)])
    for r in probes:
        if r < 0.0:
            continue
        raw = any(item.contains(r) for item in items)
        assert region.contains(r) == raw


def test_contains_honors_openness_and_closure():
    region = region_of([iv(0.0, 5.0, hi_open=True)])
    assert not region.contains(5.0, tol=0.0)
    assert region.contains(5.0, tol=1e-9)
    assert region.contains(0.0)
    assert not region.contains(5.1, tol=1e-9)
    with pytest.raises(ValueError):
        region.contains(-1.0)


def test_empty_region_conventions():
    region = region_of([])
    assert region.is_empty
    assert region.supremum == 0.0
    assert not region.contains(0.0)


def test_csv_export_format():
    region = region_of([iv(0.0, 1 / 3, hi_open=True), iv(1.0, 2.0)])
    lines = region.to_csv().splitlines()
    assert lines[0] == "lo,hi,lo_open,hi_open"
    assert lines[1] == "0,0.33333333333333331,0,1"
    assert lines[2] == "1,2,0,0"


# -- region constructors -----------------------------------------------------------


def test_region_K_golden(example1, example2, zero_m2_n2):
    agg1 = example1.aggregates()
    assert region_K(agg1).intervals == (iv(0.0, agg1.row_sums[1]),)
    assert region_K(example2.aggregates()).supremum == 14.5
    zero_region = region_K(zero_m2_n2.aggregates())
    assert zero_region.intervals == (iv(0.0, 0.0),)
    assert zero_region.contains(0.0)


def test_region_M_golden(example1, zero_m2_n2):
    sup = region_M(example1.aggregates()).supremum
    assert sup == pytest.approx(31 / 6, rel=1e-13)
    assert region_M(zero_m2_n2.aggregates()).intervals == (iv(0.0, 0.0),)


def test_region_M_diagonal_contains_top_eigenvalue():
    t = diagonal_tensor([1, 2, 3], order=3)
    region = region_M(t.aggregates())
    R, P, D = brute_aggregates(t)
    for r in np.linspace(0.0, 3.5, 113):
        assert region.contains(float(r)) == brute_in_M(R, P, D, float(r))
    assert region.contains(3.0)


def test_region_Omega_golden(example1, example2):
    sup1 = region_Omega(example1.aggregates()).supremum
    assert sup1 == pytest.approx(EX1_OMEGA_SUP, rel=1e-13)
    sup2 = region_Omega(example2.aggregates()).supremum
    assert sup2 == pytest.approx(11.7268, abs=5e-4)  # reported bound
    assert sup2 == pytest.approx(11.726812023536855, rel=1e-13)


def test_region_Omega_diagonal_structure():
    t = diagonal_tensor([1, 2, 3], order=4)
    region = region_Omega(t.aggregates())
    assert region.supremum == 3.0
    for r in (1.0, 2.0, 3.0):
        assert region.contains(r)


def test_region_Omega_contains_sweep_eigenvalues(example1):
    region = region_Omega(example1.aggregates())
    for pair in z_eigs_sweep_n2(example1):
        assert region.contains(abs(pair.value), tol=1e-8)


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
        omega, m_reg, k_reg = region_Omega(agg), region_M(agg), region_K(agg)
        top = 1.1 * max(agg.row_sums.max(), 1e-6)
        for r in rng.uniform(0.0, top, size=100):
            r = float(r)
            if omega.contains(r):
                assert m_reg.contains(r)
            if m_reg.contains(r):
                assert k_reg.contains(r)
        assert omega.supremum <= m_reg.supremum + 1e-12
        assert m_reg.supremum <= k_reg.supremum + 1e-12


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
        endpoints = []
        for reg, _ in regions.values():
            endpoints.extend(region_endpoints(reg))
        top = 1.2 * max(float(agg.row_sums.max()), 1e-6)
        for r in rng.uniform(0.0, top, size=1000):
            r = float(r)
            if any(abs(r - e) <= 1e-12 * max(1.0, e) for e in endpoints):
                continue  # brute check uses independently-summed aggregates
            for name, (reg, brute) in regions.items():
                assert reg.contains(r) == brute(R, P, D, r), (name, r)


def test_regions_scale_exactly_with_power_of_two():
    for t in _random_mixed_tensors(6, seed=71):
        for c in (2.0, 0.5):
            scaled = DenseTensor(c * t.data)
            for build in (region_K, region_M, region_Omega):
                base = build(t.aggregates()).intervals
                got = build(scaled.aggregates()).intervals
                assert len(base) == len(got)
                for a, b in zip(base, got):
                    assert b.lo == c * a.lo and b.hi == c * a.hi
                    assert (b.lo_open, b.hi_open) == (a.lo_open, a.hi_open)


def test_region_intervals_hold_python_scalars(example1):
    # render_json prints only Python floats and bools; it rejects numpy's
    agg = example1.aggregates()
    built = [region_K(agg), region_M(agg), region_Omega(agg)]
    built.append(region_of([iv(0, 1, hi_open=True), iv(1, 2), iv(3, 4, True, 1)]))
    for region in built:
        for interval in region.intervals:
            fields = (interval.lo, interval.hi, interval.lo_open, interval.hi_open)
            assert [type(v) for v in fields] == [float, float, bool, bool]


def test_pair_tables_are_kept_and_read_only(example2):
    agg = example2.aggregates()
    assert agg.omega is agg.omega and agg.m is agg.m
    for table in (agg.omega, agg.m):
        for column in table:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0


def test_regions_invariant_under_index_permutation():
    rng = np.random.default_rng(83)
    for _ in range(5):
        t = random_dyadic_tensor(rng, order=3, dim=4, signed=True)
        perm = rng.permutation(4)
        pt = permuted_tensor(t, perm)
        for build in (region_K, region_M, region_Omega):
            assert build(t.aggregates()).intervals == build(pt.aggregates()).intervals
