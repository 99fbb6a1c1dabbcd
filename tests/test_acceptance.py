"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np

from zeig.oracle import OracleConfig, _newton_map, z_eigs_newton, z_eigs_sweep_n2
from zeig.regions import bound_omega_max, compare_report, region_K, region_M, region_Omega

from helpers import (
    diagonal_tensor,
    finite_difference_jacobian,
    random_symmetric_tensor,
    random_tensor,
)


def _report(num, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {status} [{elapsed:.2f}s]{extra}")


def _chain_ensemble(count, seed, signed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        order = int(rng.integers(3, 5))
        dim = int(rng.integers(2, 6))
        yield random_tensor(rng, order, dim, signed=signed)


def test_criterion_1_example1_golden_values(example1):
    start = time.perf_counter()
    agg = example1.aggregates()
    omega_max = bound_omega_max(agg)
    gersh = compare_report(example1, agg).gershgorin
    ok = abs(omega_max - 4.3971) <= 1e-4 and abs(gersh - 5.3333) <= 1e-4
    _report(1, "example 1 golden values", ok, time.perf_counter() - start,
            f"omega_max={omega_max:.6f}, gershgorin={gersh:.6f}")
    assert abs(omega_max - 4.3971) <= 1e-4
    assert abs(gersh - 5.3333) <= 1e-4


def test_criterion_2_example2_golden_values(example2):
    start = time.perf_counter()
    agg = example2.aggregates()
    omega_max = bound_omega_max(agg)
    gersh = compare_report(example2, agg).gershgorin
    ok = abs(omega_max - 11.7268) <= 5e-4 and abs(gersh - 14.5) <= 1e-12
    _report(2, "example 2 golden values", ok, time.perf_counter() - start,
            f"omega_max={omega_max:.6f}, gershgorin={gersh!r}")
    assert abs(omega_max - 11.7268) <= 5e-4
    assert abs(gersh - 14.5) <= 1e-12


def test_criterion_3_chain_inequality_on_1000_tensors():
    start = time.perf_counter()
    violations = []
    for k, tensor in enumerate(_chain_ensemble(1000, seed=20240311, signed=False)):
        agg = tensor.aggregates()
        omega_max = bound_omega_max(agg)
        report = compare_report(tensor, agg)
        middle, gersh = report.chain_middle, report.gershgorin
        if omega_max > middle + 1e-12 or middle > gersh + 1e-12:
            violations.append((k, omega_max, middle, gersh))
    _report(3, "chain inequality on 1000 nonnegative tensors", not violations,
            time.perf_counter() - start, f"{len(violations)} violations")
    assert not violations


def test_criterion_4_region_nesting():
    start = time.perf_counter()
    rng = np.random.default_rng(977)
    membership_violations = 0
    supremum_violations = 0
    for signed in (False, True):
        for tensor in _chain_ensemble(1000, seed=515 if signed else 414, signed=signed):
            agg = tensor.aggregates()
            omega = region_Omega(agg)
            m_sup = region_M(agg)
            k_sup = region_K(agg)
            top = 1.1 * max(float(agg.row_sums.max()), 1e-9)
            for r in rng.uniform(0.0, top, size=100):
                r = float(r)
                in_omega = r <= omega
                in_m = r <= m_sup
                in_k = r <= k_sup
                if (in_omega and not in_m) or (in_m and not in_k):
                    membership_violations += 1
            if not (omega <= m_sup + 1e-12 and m_sup <= k_sup + 1e-12):
                supremum_violations += 1
    ok = membership_violations == 0 and supremum_violations == 0
    _report(4, "region nesting on 2000 tensors x 100 radii", ok,
            time.perf_counter() - start,
            f"{membership_violations} membership, {supremum_violations} supremum violations")
    assert membership_violations == 0
    assert supremum_violations == 0


def test_criterion_5_region_bound_duality():
    start = time.perf_counter()
    worst = 0.0
    tensors = list(_chain_ensemble(50, seed=8088, signed=False))
    tensors += list(_chain_ensemble(50, seed=8089, signed=True))
    for tensor in tensors:
        agg = tensor.aggregates()
        worst = max(worst, abs(bound_omega_max(agg) - region_Omega(agg)))
        report = compare_report(tensor, agg)
        worst = max(worst, abs(report.chain_middle - region_M(agg)))
        worst = max(worst, abs(report.gershgorin - region_K(agg)))
    ok = worst <= 1e-10
    _report(5, "region/bound duality on 100 tensors", ok, time.perf_counter() - start,
            f"worst gap {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_6_oracle_inclusion(example1):
    start = time.perf_counter()
    violations = []

    def check(tensor, pairs, label):
        agg = tensor.aggregates()
        omega = region_Omega(agg)
        omega_max = bound_omega_max(agg)
        for pair in pairs:
            magnitude = abs(pair.value)
            if not magnitude <= omega + 1e-8:
                violations.append((label, pair.value, "outside Omega"))
            if magnitude > omega_max + 1e-8:
                violations.append((label, pair.value, "exceeds omega_max"))

    check(example1, z_eigs_sweep_n2(example1), "example1")
    rng = np.random.default_rng(6006)
    shapes = [(3, 2), (3, 3), (4, 2), (4, 3)]
    for k in range(100):
        order, dim = shapes[k % len(shapes)]
        tensor = random_symmetric_tensor(rng, order, dim)
        pairs = z_eigs_newton(tensor, OracleConfig(restarts=1000, seed=k))
        check(tensor, pairs, f"random[{k}]")
    _report(6, "oracle inclusion (sweep + 100 newton runs)", not violations,
            time.perf_counter() - start, f"{len(violations)} violations")
    assert not violations


def test_criterion_7_diagonal_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(7007)
    failures = []
    for k in range(50):
        order = int(rng.choice([3, 4, 5]))
        dim = int(rng.integers(2, 5))
        diag = rng.uniform(-3.0, 3.0, size=dim)
        omega_max = bound_omega_max(diagonal_tensor(diag, order).aggregates())
        expected = float(np.max(np.abs(diag)))
        if omega_max != expected:
            failures.append((k, omega_max, expected))
    _report(7, "diagonal exactness on 50 diagonals", not failures,
            time.perf_counter() - start, f"{len(failures)} mismatches")
    assert not failures


def test_criterion_8_oracle_self_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(8118)
    set_mismatches = []
    for k in range(20):
        order = int(rng.choice([3, 4]))
        tensor = random_symmetric_tensor(rng, order, 2)
        sweep_vals = sorted(p.value for p in z_eigs_sweep_n2(tensor))
        newton_vals = sorted(p.value for p in z_eigs_newton(tensor, OracleConfig(restarts=1000, seed=k)))
        matched = (
            all(any(abs(a - b) <= 1e-8 for b in newton_vals) for a in sweep_vals)
            and all(any(abs(a - b) <= 1e-8 for a in sweep_vals) for b in newton_vals)
        )
        if not matched:
            set_mismatches.append((k, sweep_vals, newton_vals))

    jac_worst = 0.0
    points = 0
    while points < 10:
        order = int(rng.choice([3, 4]))
        dim = int(rng.integers(2, 4))
        tensor = random_symmetric_tensor(rng, order, dim, signed=True)
        x = rng.normal(size=dim)
        J = (order - 1) * _newton_map(tensor.data)(x[None, :])[1][0]
        J_fd = finite_difference_jacobian(tensor, x, step=1e-6)
        scale = max(1.0, float(np.abs(J).max()))
        jac_worst = max(jac_worst, float(np.abs(J - J_fd).max()) / scale)
        points += 1

    ok = not set_mismatches and jac_worst <= 1e-5
    _report(8, "oracle self-consistency (sweep vs newton, jacobian)", ok,
            time.perf_counter() - start,
            f"{len(set_mismatches)} set mismatches, worst jacobian error {jac_worst:.2e}")
    assert not set_mismatches
    assert jac_worst <= 1e-5


def test_criterion_9_excluded_comparison_values():
    # The externally attributed comparison numbers (5.2846, 5.1935, 5.1822,
    # 5.1667, 4.5147, 14.2650, 14.2446, 14.1027, 14.0737, 13.2460, 13.2087)
    # come from formulas this library does not implement, so they are
    # deliberately not reproduced or asserted anywhere; the chain middle
    # bound is validated only through criteria 3 and 5.
    start = time.perf_counter()
    _report(9, "non-reproducible comparison values excluded", True,
            time.perf_counter() - start, "documented exclusion")
