import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from zeig import oracle
from zeig.oracle import (
    DEDUPE_TOL_LAMBDA,
    DEDUPE_TOL_X,
    MAX_RESTARTS,
    RESIDUAL_TOL,
    Eigenpair,
    OracleConfig,
    _distinct,
    _finish,
    _newton_map,
    _start_points,
    verify_inclusion,
    z_eigs_newton,
    z_eigs_sweep_n2,
)
from zeig.regions import compare_report
from zeig import tensor as tensor_module
from zeig.tensor import DenseTensor, contract

from conftest import load_fixture
from helpers import (
    bordered_newton_step,
    brute_apply,
    brute_contract,
    brute_dedupe,
    brute_jacobian,
    brute_sweep_n2,
    diagonal_tensor,
    finite_difference_jacobian,
    random_symmetric_tensor,
    random_tensor,
    reference_distinct,
    reference_newton_block,
    reference_newton_map,
    reference_shifted_newton_block,
    sign_change_candidates,
    sign_change_indices,
)

# frozen from two independent scratch computations (grid+bisection sweep and
# scipy fsolve with random restarts), which agreed to ~1e-14
EX1_EIGENVALUES = [3.1092097524732014, 0.20668985153197686]
EX2_TOP_EIGENVALUE = 6.558213362199448


def eigenvalues(pairs):
    return [p.value for p in pairs]


# -- batched contraction kernel and the Newton map ------------------------------------


def test_contract_matches_enumeration():
    rng = np.random.default_rng(3)
    for order, dim in [(2, 3), (3, 2), (4, 3), (3, 4)]:
        t = random_tensor(rng, order, dim, signed=True)
        X = rng.normal(size=(7, dim))
        batch = contract(t.data, X)
        assert batch.shape == (7, dim)
        for k in range(7):
            assert batch[k] == pytest.approx(brute_contract(t, X[k], order - 1), rel=1e-12, abs=1e-12)


def test_contract_batch_spanning_several_chunks():
    rng = np.random.default_rng(4)
    order, dim, rows = 5, 9, 64
    step = tensor_module._CONTRACT_ITEMS // dim ** (order - 1)
    assert 0 < step < rows  # the batch is split into several chunks
    t = random_tensor(rng, order, dim, signed=True)
    X = rng.normal(size=(rows, dim))
    batch = contract(t.data, X)
    for k in (0, step - 1, step, rows - 1):
        np.testing.assert_allclose(batch[k], brute_contract(t, X[k], order - 1), rtol=1e-12, atol=1e-12)
    singles = np.concatenate([contract(t.data, X[k : k + 1]) for k in range(rows)])
    np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-12)


def test_contract_and_rayleigh_give_each_row_the_bits_of_apply():
    # The oracle re-verifies a block of candidates and reports what apply
    # gives each one alone; a GEMM over the block, an einsum dot or a norm
    # along an axis rounds otherwise.
    rng = np.random.default_rng(12)
    for order, dim, rows in [(2, 3, 5), (3, 4, 17), (4, 7, 40), (5, 9, 64), (6, 2, 9)]:
        t = random_tensor(rng, order, dim, signed=True)
        X = rng.normal(size=(rows, dim))
        singles = np.array([t.apply(x) for x in X])
        assert np.array_equal(contract(t.data, X), singles)
        assert np.array_equal(contract(t.data, np.asfortranarray(X)), singles)
        values, residuals = oracle._rayleigh(t, X)
        assert values.tolist() == [float(x @ ax) for x, ax in zip(X, singles)]
        assert residuals.tolist() == [float(np.linalg.norm(ax - v * x)) for x, ax, v in zip(X, singles, values)]


def test_partial_sums_are_contract_with_one_slot_index_left_out():
    # One kernel serves apply and the aggregates: column j of the partial row
    # sums is |A| contracted with 1 - e_j alone, to the bit.
    rng = np.random.default_rng(19)
    chunked = [(3, 60), (4, 20), (5, 11)]  # the n rows of 1 - I span several chunks
    assert all(tensor_module._CONTRACT_ITEMS // dim ** (order - 1) < dim for order, dim in chunked)
    for order, dim in [(3, 4), (4, 5), (5, 3), *chunked]:
        t = random_tensor(rng, order, dim, signed=True)
        partial = t.aggregates().partial_sums
        for j in range(dim):
            column = contract(np.abs(t.data), (1.0 - np.eye(dim)[j])[None])[0]
            off = np.arange(dim) != j
            assert np.array_equal(partial[off, j], column[off])


def test_newton_map_matches_enumeration():
    rng = np.random.default_rng(8)
    for order in range(2, 6):
        for dim in range(2, 7):
            t = random_tensor(rng, order, dim, signed=True)  # neither symmetric nor weakly symmetric
            X = rng.normal(size=(3, dim))
            AX, G = _newton_map(t.data)(X)
            J = (order - 1) * G
            for k in range(3):
                for got, want in ((AX[k], brute_apply(t, X[k])), (J[k], brute_jacobian(t, X[k]))):
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_newton_map_batch_matches_rows():
    rng = np.random.default_rng(9)
    for order, dim in [(2, 4), (3, 5), (4, 6), (5, 4)]:
        newton_map = _newton_map(random_tensor(rng, order, dim, signed=True).data)
        X = rng.normal(size=(257, dim))
        batch = newton_map(X)
        rows = [newton_map(X[k : k + 1]) for k in range(257)]
        for part, factor in ((0, 1), (1, order - 1)):  # A x^{m-1}, then the Jacobian (m - 1) G
            singles = factor * np.concatenate([row[part] for row in rows])
            np.testing.assert_allclose(factor * batch[part], singles, rtol=1e-12, atol=1e-12 * np.abs(singles).max())


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(5)
    for order, dim in [(2, 3), (3, 3), (4, 2), (3, 2), (4, 3)]:
        for t in (random_symmetric_tensor(rng, order, dim, signed=True), random_tensor(rng, order, dim, signed=True)):
            newton_map = _newton_map(t.data)
            for _ in range(4):
                x = rng.normal(size=dim)
                AX, G = newton_map(x[None, :])
                J = (order - 1) * G
                assert AX[0] == pytest.approx(t.apply(x), rel=1e-12, abs=1e-12)
                J_fd = finite_difference_jacobian(t, x)
                scale = max(1.0, float(np.abs(J[0]).max()))
                assert np.abs(J[0] - J_fd).max() <= 1e-5 * scale


def test_sign_change_candidates_match_pointwise_scan():
    rng = np.random.default_rng(6)
    for _ in range(3000):
        size = int(rng.integers(2, 40))
        g = rng.choice([-2.0, -1.0, 0.0, 0.0, 1.0, 3.0], size=size)
        if rng.random() < 0.3:  # long runs of zeros, at either end too
            lo = int(rng.integers(0, size))
            g[lo : lo + int(rng.integers(1, size + 1))] = 0.0
        assert sign_change_candidates(g).tolist() == sign_change_indices(g)


# -- exact dim-2 solve ---------------------------------------------------------------


def test_sweep_diagonal_axis_eigenpairs():
    t = diagonal_tensor([2, 5], order=4)
    values = eigenvalues(z_eigs_sweep_n2(t))
    assert any(abs(v - 2.0) <= 1e-10 for v in values)
    assert any(abs(v - 5.0) <= 1e-10 for v in values)
    # the mixed-direction critical point at 10/7 also shows up
    assert any(abs(v - 10.0 / 7.0) <= 1e-10 for v in values)


def test_sweep_example1_golden_spectrum(example1):
    pairs = z_eigs_sweep_n2(example1)
    got = sorted(eigenvalues(pairs))
    assert got == pytest.approx(sorted(EX1_EIGENVALUES), abs=1e-9)
    for p in pairs:
        assert p.residual <= 1e-12
        assert abs(np.linalg.norm(p.x) - 1.0) <= 1e-12
        assert p.value == pytest.approx(float(p.x @ example1.apply(p.x)), abs=1e-10)


def test_sweep_rank_one_finds_unit_eigenvalue(rank_one):
    pairs = z_eigs_sweep_n2(rank_one)
    best = min(pairs, key=lambda p: abs(p.value - 1.0))
    assert best.value == pytest.approx(1.0, abs=1e-10)
    assert min(
        np.linalg.norm(best.x - np.array([0.6, 0.8])),
        np.linalg.norm(best.x + np.array([0.6, 0.8])),
    ) <= 1e-8


def test_sweep_even_order_collapses_antipodal_pairs():
    t = diagonal_tensor([2, 5], order=4)
    pairs = z_eigs_sweep_n2(t)
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            same_value = abs(pairs[a].value - pairs[b].value) <= 1e-8
            same_vector = min(
                np.linalg.norm(pairs[a].x - pairs[b].x),
                np.linalg.norm(pairs[a].x + pairs[b].x),
            ) <= 1e-6
            assert not (same_value and same_vector)


def test_sweep_zero_tensor_degenerate(zero_m2_n2):
    pairs = z_eigs_sweep_n2(zero_m2_n2)
    assert pairs
    assert all(p.value == 0.0 and p.residual == 0.0 for p in pairs)


def test_sweep_input_validation(example2):
    with pytest.raises(ValueError):
        z_eigs_sweep_n2(example2)  # dim 3


def test_sweep_finds_the_tangential_root_of_a_rotated_jordan_block():
    # [[1, 1], [0, 1]] rotated by 0.3 rad: g has a double root, where it does
    # not change sign, at the one eigenvector (cos 0.3, sin 0.3).
    pairs = z_eigs_sweep_n2(load_fixture("jordan_rot_m2_n2.json"))
    assert len(pairs) == 1
    assert pairs[0].value == pytest.approx(1.0, abs=1e-8)
    assert pairs[0].residual <= RESIDUAL_TOL
    assert abs(pairs[0].x @ [np.cos(0.3), np.sin(0.3)]) == pytest.approx(1.0, abs=1e-12)


def test_sweep_reports_a_sevenfold_root_once():
    # All ones at order 8: A x^7 = (x_1 + x_2)^7 (1, 1), so g = (x_1 + x_2)^7 (x_2 - x_1)
    # has a simple root at λ = 16 and a sevenfold one at λ = 0.
    values = eigenvalues(z_eigs_sweep_n2(load_fixture("ones_m8_n2.json")))
    assert len(values) == 2
    assert values[0] == pytest.approx(16.0, abs=1e-12)
    assert values[1] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("order, seed", [(4, 5), (6, 2)])
def test_sweep_stops_the_derivative_chain_once_no_root_is_left(monkeypatch, order, seed):
    # Each chart's roots are simple: the root of p' next to each is no root of p,
    # so the chain ends after one derivative level, two polishes, not m.
    log = []
    chart_roots, poly_newton = oracle._chart_roots, oracle._poly_newton
    monkeypatch.setattr(oracle, "_chart_roots", lambda p, noise: log.append("chart") or chart_roots(p, noise))
    monkeypatch.setattr(oracle, "_poly_newton", lambda f, t: log.append(len(t)) or poly_newton(f, t))
    assert z_eigs_sweep_n2(random_tensor(np.random.default_rng(seed), order, 2, signed=True))
    charts = " ".join(map(str, log)).split("chart")[1:]
    assert [len(chart.split()) for chart in charts] == [2, 2], log
    assert all(int(chart.split()[0]) > 0 for chart in charts), log


def _rotated_constant_tangent(order, angle):
    """A x^{m-1} = (u.x)^(m-2) x with u = (cos angle, sin angle): g vanishes,
    and λ(x) = (u.x)^(m-2) on the unit circle."""
    u = np.array([np.cos(angle), np.sin(angle)])
    data = np.eye(2)
    for _ in range(order - 2):
        data = np.multiply.outer(data, u)
    return DenseTensor(data), u


def test_sweep_reports_the_extremes_of_a_continuum_of_eigenvectors():
    # A x^3 = (u.x)^2 x with u = (cos 0.6, sin 0.6): every unit x is an
    # eigenvector, with λ = (u.x)^2 spanning [0, 1], and the axes alone give
    # 0.681 and 0.319.  The critical directions of λ give its extremes: 1 at
    # ±u and 0 at u⊥.
    t, (built, u) = load_fixture("rotated_g0_m4_n2.json"), _rotated_constant_tangent(4, 0.6)
    assert np.array_equal(t.data, built.data)
    pairs = z_eigs_sweep_n2(t)
    assert len(pairs) == 2
    assert pairs[0].value == pytest.approx(1.0, abs=1e-12)
    assert abs(pairs[0].x @ u) == pytest.approx(1.0, abs=1e-12)
    assert pairs[1].value == pytest.approx(0.0, abs=1e-12)
    assert abs(pairs[1].x @ u) <= 1e-12


@pytest.mark.parametrize("order", [3, 4, 5, 6])
@pytest.mark.parametrize("angle", [0.1, 0.6, 2.0, 2.9])
def test_sweep_reports_the_extremes_of_lambda_where_every_direction_is_an_eigenvector(order, angle):
    # λ(x) = (u.x)^(m-2): its extremes ±1 (odd m) or 1 and 0 (even m) sit at ±u.
    t, u = _rotated_constant_tangent(order, angle)
    pairs = z_eigs_sweep_n2(t)
    values = eigenvalues(pairs)
    assert values[0] == pytest.approx(1.0, abs=1e-12)
    assert values[-1] == pytest.approx(-1.0 if order % 2 else 0.0, abs=1e-12)
    assert abs(pairs[0].x @ u) == pytest.approx(1.0, abs=1e-12)
    assert all(p.residual <= RESIDUAL_TOL for p in pairs)


def test_sweep_keeps_the_axes_where_lambda_is_constant():
    # A x^3 = (x.x) x: every unit x is an eigenvector with λ = 1.
    pairs = z_eigs_sweep_n2(DenseTensor(np.multiply.outer(np.eye(2), np.eye(2))))
    assert [p.value for p in pairs] == [1.0, 1.0]
    assert np.array_equal([p.x for p in pairs], [[0.0, 1.0], [1.0, 0.0]])  # sorted by x after λ


def _counted_contractions(monkeypatch):
    """A list that gets one entry, the vectors' row count, per contract call of the oracle."""
    calls = []
    run = oracle.contract
    monkeypatch.setattr(oracle, "contract", lambda data, X: calls.append(len(X)) or run(data, X))
    return calls


def test_sweep_ranks_each_candidate_direction_once(monkeypatch):
    # All ones at order 8: each chart polishes the sevenfold root to the same
    # bits four times, and u = 1, v = 1 are one direction.  The three distinct
    # directions are ranked in one contraction, then the two kept pairs are
    # re-verified in another.
    calls = _counted_contractions(monkeypatch)
    pairs = z_eigs_sweep_n2(load_fixture("ones_m8_n2.json"))
    assert len(pairs) == 2
    assert calls == [3, 2]


@pytest.mark.parametrize("name", ["example1.json", "example2.json", "ones_m4_n5.json", "jordan_rot_m2_n2.json"])
def test_finish_reverifies_the_kept_candidates_in_one_contraction(monkeypatch, name):
    # One contract call per _finish, whatever the number of pairs; the dim-2
    # solve ranks its candidates in one more.
    tensor = load_fixture(name)
    calls = _counted_contractions(monkeypatch)
    pairs = z_eigs_newton(tensor, OracleConfig(restarts=200, seed=1))
    assert len(pairs) >= 1
    assert calls == [len(pairs)]
    if tensor.dim == 2:
        calls.clear()
        pairs = z_eigs_sweep_n2(tensor)
        assert len(calls) == 2 and calls[1] == len(pairs)


def assert_scaled_spectrum(tensor, scale, find=z_eigs_sweep_n2, rel=0.0):
    """s A has the eigenpairs (s λ, x): the finder's tolerances scale with A.
    Returns the pairs of A."""
    pairs = find(tensor)
    scaled = find(DenseTensor(tensor.data * scale))
    assert len(scaled) == len(pairs)
    for p, q in zip(pairs, scaled):
        assert q.value / scale == pytest.approx(p.value, rel=rel, abs=1e-9)
        assert min(np.linalg.norm(q.x - p.x), np.linalg.norm(q.x + p.x)) <= 1e-6
    return pairs


@pytest.mark.parametrize(
    "name, scale",
    [(name, scale) for name in ("example1.json", "jordan_rot_m2_n2.json", "ones_m8_n2.json") for scale in (1e-6, 1e6, 1e12)]
    + [("ones_m22_n2.json", 1e-6)],  # rounding in the coefficients splits its 21-fold root
)
def test_sweep_spectrum_scales_with_the_tensor(name, scale):
    assert_scaled_spectrum(load_fixture(name), scale)


@given(seed=st.integers(0, 2**32 - 1), order=st.integers(2, 6), exponent=st.integers(-9, 9))
@settings(max_examples=30, deadline=None)
def test_sweep_spectrum_of_random_tensors_scales_with_the_tensor(seed, order, exponent):
    assert_scaled_spectrum(random_tensor(np.random.default_rng(seed), order, 2, signed=True), 10.0**exponent)


@given(seed=st.integers(0, 2**32 - 1), order=st.integers(2, 6), signed=st.booleans())
@settings(max_examples=30, deadline=None)
def test_sweep_matches_the_grid_scan_reference(seed, order, signed):
    t = random_tensor(np.random.default_rng(seed), order, 2, signed=signed)
    pairs = z_eigs_sweep_n2(t)
    assert all(p.residual <= RESIDUAL_TOL for p in pairs)
    for ref in brute_sweep_n2(t):
        assert any(abs(ref.value - p.value) <= 1e-8 for p in pairs), ref


# -- Newton restarts -------------------------------------------------------------------


def test_newton_diagonal_odd_order_signed_pairs():
    t = diagonal_tensor([1, 2, 3], order=3)
    values = eigenvalues(z_eigs_newton(t, OracleConfig(restarts=1000, seed=7)))
    for expected in (1.0, 2.0, 3.0, -1.0, -2.0, -3.0):
        assert any(abs(v - expected) <= 1e-9 for v in values), expected
    assert max(abs(v) for v in values) <= 3.0 + 1e-8


def test_newton_example2_respects_reported_bound(example2):
    pairs = z_eigs_newton(example2, OracleConfig(restarts=1000, seed=5))
    assert pairs
    top = max(abs(v) for v in eigenvalues(pairs))
    assert top <= 11.7268 + 1e-4  # reported bound value
    assert top == pytest.approx(EX2_TOP_EIGENVALUE, abs=1e-8)


def test_newton_agrees_with_sweep_on_example1(example1):
    newton_values = sorted(eigenvalues(z_eigs_newton(example1, OracleConfig(restarts=400, seed=3))))
    sweep_values = sorted(eigenvalues(z_eigs_sweep_n2(example1)))
    assert newton_values == pytest.approx(sweep_values, abs=1e-8)


def test_newton_results_sorted_and_verified(example2):
    pairs = z_eigs_newton(example2, OracleConfig(restarts=500, seed=11))
    assert eigenvalues(pairs) == sorted(eigenvalues(pairs), reverse=True)
    for p in pairs:
        assert p.residual <= 1e-12
        assert np.linalg.norm(example2.apply(p.x) - p.value * p.x) == p.residual


def test_newton_drops_a_step_whose_norm_overflows(monkeypatch, example2):
    # Half the first steps come back with entries of 1e200: finite, but their
    # norm is inf, and x / inf = 0 has residual 0. The norm's finiteness test
    # drops them; only unit eigenvectors are reported.
    newton_step, trips = oracle._newton_step, []

    def overflowing_step(G, X, lam, m):
        X, lam = newton_step(G, X, lam, m)
        if not trips:
            X[::2] = 1e200
        trips.append(len(X))
        return X, lam

    monkeypatch.setattr(oracle, "_newton_step", overflowing_step)
    with np.errstate(over="ignore"):
        pairs = z_eigs_newton(example2, OracleConfig(restarts=200, seed=0))
    assert trips and pairs
    for p in pairs:
        assert np.linalg.norm(p.x) == pytest.approx(1.0, abs=1e-12)


def test_newton_is_deterministic(example2):
    cfg = OracleConfig(restarts=300, seed=123)
    a = z_eigs_newton(example2, cfg)
    b = z_eigs_newton(example2, cfg)
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert pa.value == pb.value
        assert np.array_equal(pa.x, pb.x)
        assert pa.residual == pb.residual


def test_newton_scaling_equivariance():
    rng = np.random.default_rng(41)
    t = random_symmetric_tensor(rng, order=3, dim=3)
    scaled = DenseTensor(2.0 * t.data)
    base = sorted(eigenvalues(z_eigs_newton(t, OracleConfig(restarts=400, seed=9))))
    doubled = sorted(eigenvalues(z_eigs_newton(scaled, OracleConfig(restarts=400, seed=9))))
    assert len(base) == len(doubled)
    for v, w in zip(base, doubled):
        assert w == pytest.approx(2.0 * v, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("order, dim", [(3, 3), (4, 3), (3, 4)])
@pytest.mark.parametrize("signed", [True, False])
@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e6, 1e12])
def test_newton_spectrum_scales_with_the_tensor(order, dim, signed, scale):
    t = random_tensor(np.random.default_rng(10 * order + dim), order, dim, signed=signed)
    assert assert_scaled_spectrum(t, scale, z_eigs_newton, rel=1e-9)  # not vacuous


def test_newton_finds_the_top_pair_of_a_huge_tensor():
    # All entries 1e20 at order 4, dim 3: A x^3 = 1e20 (x_1 + x_2 + x_3)^3 (1, 1, 1)
    # peaks at x = (1, 1, 1) / sqrt(3), λ = 9e20, where rounding alone leaves
    # residuals near 1e5.
    pairs = z_eigs_newton(load_fixture("ones_1e20_m4_n3.json"))
    assert pairs[0].value == pytest.approx(9e20, rel=1e-12)


def test_newton_restart_blocks_find_the_same_eigenvalues(monkeypatch):
    rng = np.random.default_rng(43)
    cfg = OracleConfig(restarts=300, seed=4)
    # Blocks of 50 iterated starts: 50 restarts on the order-4 tensor, and 100 on the
    # order-3 one, which reports each iterated start with its mirror.  On both the
    # restarts of the first block alone miss eigenpairs that the later blocks find.
    for t in (random_symmetric_tensor(rng, order=4, dim=6), random_tensor(rng, order=3, dim=6, signed=True)):
        whole = eigenvalues(z_eigs_newton(t, cfg))
        mirrored = 2 if t.order % 2 else 1
        first = eigenvalues(z_eigs_newton(t, OracleConfig(restarts=50 * mirrored, seed=cfg.seed)))
        assert len(first) < len(whole)
        blocks = []
        run_block = oracle._newton_block

        def counted_block(newton_map, X, *out):
            blocks.append(len(X))
            run_block(newton_map, X, *out)

        monkeypatch.setattr(oracle, "BUDGET", 50 * t.dim**2)  # blocks of 50 iterated starts
        monkeypatch.setattr(oracle, "_newton_block", counted_block)
        split = eigenvalues(z_eigs_newton(t, cfg))
        monkeypatch.undo()
        iterated = -(-cfg.restarts // mirrored)
        assert blocks == [min(50, iterated - lo) for lo in range(0, iterated, 50)]
        assert len(split) == len(whole) > 0
        np.testing.assert_allclose(split, whole, rtol=0, atol=1e-12)


def _iterated_starts(monkeypatch, tensor, cfg):
    """The start rows z_eigs_newton hands to _newton_block, in order, and its pairs."""
    starts = []
    run_block = oracle._newton_block

    def recorded_block(newton_map, X, *out):
        starts.append(X.copy())
        run_block(newton_map, X, *out)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_newton_block", recorded_block)
        pairs = z_eigs_newton(tensor, cfg)
    return np.concatenate(starts), pairs


_ODD_ORDER = {
    "example2": lambda: load_fixture("example2.json"),
    "m3n4-signed": lambda: random_tensor(np.random.default_rng(61), order=3, dim=4, signed=True),
    "m5n3": lambda: random_tensor(np.random.default_rng(62), order=5, dim=3),
}


@pytest.mark.parametrize("name", sorted(_ODD_ORDER))
def test_newton_odd_order_reports_each_pair_with_its_mirror(name):
    # (x, λ) -> (-x, -λ) maps eigenpairs of an odd-order tensor to eigenpairs;
    # a pair with λ = 0 is its own mirror up to sign and is reported once.
    t = _ODD_ORDER[name]()
    pairs = z_eigs_newton(t, OracleConfig(restarts=301, seed=3))
    nonzero = [p for p in pairs if abs(p.value) > 2 * DEDUPE_TOL_LAMBDA * np.abs(t.data).sum()]
    assert len(nonzero) >= 2
    reported = {(p.value, tuple(p.x)) for p in pairs}
    for p in nonzero:
        assert (-p.value, tuple(-p.x)) in reported, p


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_newton_iterates_one_start_of_each_antipodal_pair_at_odd_order(monkeypatch, order):
    t = random_tensor(np.random.default_rng(70 + order), order=order, dim=3, signed=True)
    for restarts in (1, 300, 301):
        X, pairs = _iterated_starts(monkeypatch, t, OracleConfig(restarts, seed=2))
        assert len(X) == (-(-restarts // 2) if order % 2 else restarts)
        assert len(pairs) <= restarts  # the mirrors are cut to the restart count


def test_newton_iterated_starts_are_a_prefix_of_the_seeded_draw(monkeypatch, example2):
    few, _ = _iterated_starts(monkeypatch, example2, OracleConfig(300, seed=9))
    many, _ = _iterated_starts(monkeypatch, example2, OracleConfig(1000, seed=9))
    assert few.shape == (150, 3)
    assert np.array_equal(few, many[:150])
    assert np.array_equal(many, _start_points(3, 500, 9))


def _reference_z_eigs_newton(monkeypatch, tensor, cfg):
    """z_eigs_newton with the fresh-array kernel of tests/helpers.py swapped in."""
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_newton_map", reference_newton_map)
        patch.setattr(oracle, "_newton_block", reference_shifted_newton_block)
        patch.setattr(oracle, "_distinct", reference_distinct)
        return z_eigs_newton(tensor, cfg)


def _assert_same_pairs(got, want):
    assert len(got) == len(want) > 0
    for p, q in zip(got, want):
        assert (p.value, p.residual) == (q.value, q.residual)
        assert np.array_equal(p.x, q.x)


def _assert_newton_bit_exact(monkeypatch, tensor, cfg):
    """The map on the starts, every restart's converged x, λ and residual, and
    z_eigs_newton's pairs equal those of the fresh-array kernel bit for bit."""
    n = tensor.dim
    starts = _start_points(n, cfg.restarts, cfg.seed)
    AX, G = _newton_map(tensor.data)(starts)
    for got, want in zip((AX, (tensor.order - 1) * G), reference_newton_map(tensor.data)(starts)):
        assert np.array_equal(got, want)
    finals = []
    kernels = (oracle._newton_block, _newton_map), (reference_shifted_newton_block, reference_newton_map)
    for block, newton_map in kernels:
        final = np.full((cfg.restarts, n), np.nan), np.full(cfg.restarts, np.nan), np.full(cfg.restarts, np.inf)
        block(newton_map(tensor.data), starts, np.abs(tensor.data).sum(), *final)
        finals.append(final)
    for got, want in zip(*finals):
        assert np.array_equal(got, want, equal_nan=True)
    assert np.isfinite(finals[0][2]).any()
    _assert_same_pairs(z_eigs_newton(tensor, cfg), _reference_z_eigs_newton(monkeypatch, tensor, cfg))


# (4, 6) and (5, 5): an F-ordered monomial block changes the GEMM's sums there.
@pytest.mark.parametrize("order, dim", [(2, 5), (3, 5), (4, 6), (5, 5)])
@pytest.mark.parametrize("signed", [True, False])
def test_newton_matches_the_fresh_array_kernel_bit_for_bit(monkeypatch, order, dim, signed):
    rng = np.random.default_rng(100 * order + dim)
    build = random_tensor if signed else random_symmetric_tensor
    _assert_newton_bit_exact(monkeypatch, build(rng, order=order, dim=dim, signed=signed), OracleConfig(300, seed=5))


def test_newton_bit_exact_across_restart_blocks(monkeypatch):
    t = random_tensor(np.random.default_rng(47), order=4, dim=5, signed=True)
    cfg = OracleConfig(300, seed=2)
    blocks = []
    run_block = oracle._newton_block

    def counted_block(newton_map, X, *out):
        blocks.append(len(X))
        run_block(newton_map, X, *out)

    monkeypatch.setattr(oracle, "BUDGET", 70 * t.dim**2)  # blocks of 70 restarts, the last of 20
    monkeypatch.setattr(oracle, "_newton_block", counted_block)
    found = z_eigs_newton(t, cfg)
    assert blocks == [70, 70, 70, 70, 20]
    _assert_same_pairs(found, _reference_z_eigs_newton(monkeypatch, t, cfg))


def test_newton_bit_exact_on_all_ones_with_singular_systems(monkeypatch):
    # All ones at order 4: A x^3 = s^3 (1, ..., 1) with s = sum(x), so B = 3 s^2 11^T - s^4 I.
    # Restarts heading for the λ = 0 eigenvectors, s = 0, meet B that are rank
    # one in floating point once s^4 is below the rounding of 3 s^2: their steps are NaN.
    nan_steps = []
    solve1 = oracle._umath_linalg.solve1

    def counted_solve1(system, rhs):
        steps = solve1(system, rhs)
        nan_steps.append(int(np.isnan(steps).any(axis=1).sum()))
        return steps

    monkeypatch.setattr(oracle, "_umath_linalg", SimpleNamespace(solve1=counted_solve1))
    _assert_newton_bit_exact(monkeypatch, load_fixture("ones_m4_n5.json"), OracleConfig())
    assert sum(nan_steps) > 0


def _bordered_disagreement(t, X, lam):
    """_newton_step's (x, λ) against the bordered Newton step's, each row's
    largest difference relative to its largest entry, in units of eps times
    the condition number of its bordered system."""
    AX, G = _newton_map(t.data)(X)
    want_x, want_lam, ok, full = bordered_newton_step((t.order - 1) * G, AX, X, lam)
    assert ok.all()
    got_x, got_lam = oracle._newton_step(G, X, lam, t.order)
    diff = np.abs(np.column_stack([got_x - want_x, got_lam - want_lam]))
    relative = diff.max(axis=1) / np.abs(np.column_stack([want_x, want_lam])).max(axis=1)
    return relative, relative / (np.linalg.cond(full) * np.finfo(float).eps)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_newton_step_is_the_bordered_newton_step(order):
    # y = B^-1 x gives the bordered system's step: B x = (m-1) r + (m-2) λ x.
    # Random unit states, λ anywhere in the spectrum's range, 6 tensors of each order.
    rng = np.random.default_rng(80 + order)
    relative = []
    for trial in range(6):
        t = random_tensor(rng, order=order, dim=int(rng.integers(2, 7)), signed=bool(trial % 2))
        X = _start_points(t.dim, 50, trial)
        lam = rng.uniform(-1.0, 1.0, 50) * np.abs(t.data).sum()
        rows, conditioned = _bordered_disagreement(t, X, lam)
        assert conditioned.max() <= 10.0, (trial, conditioned.max())
        relative.append(rows)
    assert np.median(np.concatenate(relative)) <= 1e-14


def test_newton_finds_the_pairs_of_the_bordered_kernel(monkeypatch):
    # The bordered kernel takes the same steps up to rounding, so on generic
    # tensors both find the same pairs, within the dedupe tolerances.
    rng = np.random.default_rng(12)
    for trial in range(6):
        order, dim = int(rng.integers(3, 6)), int(rng.integers(3, 5))
        t = random_tensor(rng, order=order, dim=dim, signed=bool(trial % 2))
        cfg = OracleConfig(300, seed=trial)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_newton_map", reference_newton_map)
            patch.setattr(oracle, "_newton_block", reference_newton_block)
            bordered = z_eigs_newton(t, cfg)
        found = z_eigs_newton(t, cfg)
        assert len(found) == len(bordered) >= 2, trial
        scale = np.abs(t.data).sum()
        for p in found:
            assert any(
                abs(p.value - q.value) <= DEDUPE_TOL_LAMBDA * scale
                and min(np.linalg.norm(p.x - q.x), np.linalg.norm(p.x + q.x)) <= DEDUPE_TOL_X
                for q in bordered
            ), (trial, p)


@pytest.mark.parametrize("order", [3, 5])
def test_newton_iterates_the_antipode_to_the_mirror_bit_for_bit(monkeypatch, order):
    # At odd order G(-x) = -G(x), so B(-x, -λ) = -B: y is the same, α changes
    # sign, and every trip from -x gives exactly the mirror of the trip from x.
    # This is what lets z_eigs_newton report the mirror instead of iterating it.
    t = random_tensor(np.random.default_rng(90 + order), order=order, dim=4, signed=True)
    starts = _start_points(4, 200, 3)
    trips = []
    solve1 = oracle._umath_linalg.solve1

    def recorded_solve1(B, X):
        trips[-1].append((B.copy(), X.copy()))
        return solve1(B, X)

    monkeypatch.setattr(oracle, "_umath_linalg", SimpleNamespace(solve1=recorded_solve1))
    finals = []
    for X in (starts, -starts):
        trips.append([])
        final = np.full((200, 4), np.nan), np.full(200, np.nan), np.full(200, np.inf)
        oracle._newton_block(_newton_map(t.data), X, np.abs(t.data).sum(), *final)
        finals.append(final)
    assert len(trips[0]) == len(trips[1]) > 5
    for (B, X), (mirror_B, mirror_X) in zip(*trips):
        assert np.array_equal(mirror_B, -B) and np.array_equal(mirror_X, -X)
    (x, lam, res), (mirror_x, mirror_lam, mirror_res) = finals
    assert np.isfinite(res).sum() > 100
    assert np.array_equal(mirror_x, -x, equal_nan=True) and np.array_equal(mirror_lam, -lam, equal_nan=True)
    assert np.array_equal(mirror_res, res)


# -- the stop of a restart block once its late restarts find no new pairs ----------


def _run_block(t, starts, monkeypatch, quiet_from=None):
    """oracle._newton_block on the starts, with QUIET_FROM replaced when
    given: each restart's final x, λ and residual, and the iterates of every
    trip, from whose count the trip the block stopped on follows."""
    base = _newton_map(t.data)
    iterates = []

    def recorded(X):
        iterates.append(X.copy())
        return base(X)

    recorded.order = base.order
    final = np.full((len(starts), t.dim), np.nan), np.full(len(starts), np.nan), np.full(len(starts), np.inf)
    with monkeypatch.context() as patch:
        if quiet_from is not None:
            patch.setattr(oracle, "QUIET_FROM", quiet_from)
        oracle._newton_block(recorded, starts, np.abs(t.data).sum(), *final)
    return final, iterates


def _stop_by_rule(t, starts, monkeypatch):
    """The trip the stop rule ends the block on, and t_new there, read off the
    block run without the stop: the trip each restart converged on is the one
    whose iterates hold its final x, and each converged pair is compared with
    every one converged before it."""
    (x, lam, res), iterates = _run_block(t, starts, monkeypatch, quiet_from=oracle.MAX_ITER + 1)
    trips = [next(it for it, X in enumerate(iterates) if (X == x[k]).all(axis=1).any()) if np.isfinite(res[k]) else None
             for k in range(len(starts))]
    scale, found, t_new = np.abs(t.data).sum(), [], None
    for it in range(len(iterates)):
        for k in (k for k in range(len(starts)) if trips[k] == it):
            value = abs(lam[k] / scale) if t.order % 2 else lam[k] / scale
            if not any(abs(value - v) <= DEDUPE_TOL_LAMBDA
                       and min(np.linalg.norm(x[k] - y), np.linalg.norm(x[k] + y)) <= DEDUPE_TOL_X
                       for v, y in found):
                t_new = it
            found.append((value, x[k]))
        if t_new is not None and it >= oracle.QUIET_FROM and it >= 2 * t_new:
            return it, t_new
    return len(iterates) - 1, t_new


def _stall_block(*rows):
    """The stall tensor and the given rows of its 500 iterated starts."""
    return load_fixture("stall_m3_n3.json"), _start_points(3, 500, 0)[list(rows)]


@pytest.mark.parametrize("block, expected, drops", [
    # A nonnegative symmetric (5, 5) tensor whose last new pair comes on trip 45:
    # the block stops on trip 90, not at QUIET_FROM, and not at MAX_ITER, and
    # drops restarts that would converge later.
    pytest.param(lambda: (random_symmetric_tensor(np.random.default_rng(26), order=5, dim=5),
                          _start_points(5, 200, 26)), 90, True, id="m5_n5"),
    # Restart 11 finds the block's first pair on trip 53, after QUIET_FROM.
    pytest.param(lambda: _stall_block(11, 0), 106, False, id="stall_11_0"),
    pytest.param(lambda: _stall_block(8, 0), 90, False, id="stall_8_0"),
    # Restart 11 converges on trip 53 to restart 111's pair, so t_new stays 44.
    pytest.param(lambda: _stall_block(111, 11, 0), 88, False, id="stall_111_11_0"),
    # Restart 0 never converges: with no pair found the block runs to MAX_ITER.
    pytest.param(lambda: _stall_block(0), oracle.MAX_ITER, False, id="stall_0"),
])
def test_newton_block_stops_at_twice_the_last_trip_with_a_new_pair(monkeypatch, block, expected, drops):
    t, starts = block()
    stop, t_new = _stop_by_rule(t, starts, monkeypatch)
    if t_new is None:
        assert stop == oracle.MAX_ITER
    else:
        assert oracle.QUIET_FROM < 2 * t_new
        assert stop == max(oracle.QUIET_FROM, 2 * t_new) < oracle.MAX_ITER
    assert stop == expected
    (x, lam, res), iterates = _run_block(t, starts, monkeypatch)
    assert len(iterates) - 1 == stop
    # Up to the stop the block ran as without it: the restarts converged by then keep their bits.
    (full_x, full_lam, full_res), _ = _run_block(t, starts, monkeypatch, quiet_from=oracle.MAX_ITER + 1)
    kept = np.isfinite(res)
    assert (kept.sum() < np.isfinite(full_res).sum()) == drops
    assert np.array_equal(x[kept], full_x[kept]) and np.array_equal(lam[kept], full_lam[kept])
    assert np.array_equal(res[kept], full_res[kept])


def _assert_same_pairs_within_dedupe(got, want, scale):
    """The stop can move a cluster's kept representative, whose rank is its
    loop residual, so pairs match within the dedupe tolerances."""
    assert len(got) == len(want) > 0
    for p, q in zip(got, want):
        assert abs(p.value - q.value) <= DEDUPE_TOL_LAMBDA * scale, (p, q)
        assert min(np.linalg.norm(p.x - q.x), np.linalg.norm(p.x + q.x)) <= DEDUPE_TOL_X, (p, q)


def _unstopped_z_eigs_newton(monkeypatch, tensor, cfg=None):
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "QUIET_FROM", oracle.MAX_ITER + 1)
        return z_eigs_newton(tensor, cfg)


def test_newton_stops_the_stalled_block_at_quiet_from_with_the_same_pairs(monkeypatch):
    # The signed (3, 3) tensor of verify_desk: 373 of its 500 iterated restarts
    # never converge, and its last new pair comes on trip 4, so its one block
    # stops at QUIET_FROM, trip 20.
    t = load_fixture("stall_m3_n3.json")
    starts = _start_points(3, 500, 0)
    _, iterates = _run_block(t, starts, monkeypatch)
    (_, _, full_res), full_iterates = _run_block(t, starts, monkeypatch, quiet_from=oracle.MAX_ITER + 1)
    assert _stop_by_rule(t, starts, monkeypatch) == (oracle.QUIET_FROM, 4)
    assert (len(iterates) - 1, len(full_iterates) - 1) == (oracle.QUIET_FROM, oracle.MAX_ITER) == (20, 200)
    assert np.isinf(full_res).sum() == 373
    # The stop moves each cluster's kept representative, so the pairs match the
    # run without the stop within the dedupe tolerances; bit for bit they are
    # the pairs of the fresh-array kernel, whose stop tracks t_new from trip 0.
    pairs = z_eigs_newton(t)
    _assert_same_pairs(pairs, _reference_z_eigs_newton(monkeypatch, t, OracleConfig()))
    _assert_same_pairs_within_dedupe(pairs, _unstopped_z_eigs_newton(monkeypatch, t), np.abs(t.data).sum())
    assert [round(p.value, 6) for p in pairs] == [1.137269, -1.137269]


def test_newton_block_takes_the_mirror_of_a_found_pair_as_no_new_pair(monkeypatch):
    # On the stall tensor, restart 246 beside restart 0, which never converges,
    # converges on trip 15 to a new pair, so its block runs past QUIET_FROM to
    # trip 30.  Put first a start that is already an eigenvector, which converges
    # on trip 0, and restart 246's pair is no new pair if it is that
    # eigenvector's pair or, at odd m, its mirror: the block stops at QUIET_FROM.
    t = load_fixture("stall_m3_n3.json")
    late, stalled = _start_points(3, 500, 0)[[246, 0]]
    stop, t_new = _stop_by_rule(t, np.array([late, stalled]), monkeypatch)
    (x, lam, res), iterates = _run_block(t, np.array([late, stalled]), monkeypatch)
    assert len(iterates) - 1 == stop == 2 * t_new > oracle.QUIET_FROM > t_new
    assert np.isfinite(res[0]) and np.isinf(res[1])
    for first, first_lam in ((x[0], lam[0]), (-x[0], -lam[0])):  # the pair, then its mirror
        (_, found_lam, found_res), iterates = _run_block(t, np.array([first, late, stalled]), monkeypatch)
        assert len(iterates) - 1 == oracle.QUIET_FROM
        assert np.isfinite(found_res[:2]).all()  # restart 246 converged before the stop
        assert found_lam[0] == pytest.approx(first_lam)


def test_newton_stop_keeps_the_pairs_of_20_desk_tensors(monkeypatch):
    # Orders 3-5, dims 3-5, signed and nonnegative symmetric, default restarts:
    # the stop drops no pair.
    rng = np.random.default_rng(31)
    for k in range(20):
        order, dim, signed = int(rng.integers(3, 6)), int(rng.integers(3, 6)), bool(k % 2)
        t = (random_tensor if signed else random_symmetric_tensor)(rng, order=order, dim=dim, signed=signed)
        cfg = OracleConfig(seed=k)
        found = z_eigs_newton(t, cfg)
        _assert_same_pairs_within_dedupe(found, _unstopped_z_eigs_newton(monkeypatch, t, cfg), np.abs(t.data).sum())


def test_newton_stop_from_quiet_from_keeps_a_pair_that_a_stop_from_trip_10_drops(monkeypatch):
    # A nonnegative symmetric (4, 5) tensor at the default config: its blocks,
    # stopped from trip 20, keep the 29 pairs of the run without the stop;
    # stopped from trip 10 they drop λ = 0.3619, which only late restarts reach.
    t = random_symmetric_tensor(np.random.default_rng(1), order=4, dim=5)
    scale = np.abs(t.data).sum()
    unstopped = _unstopped_z_eigs_newton(monkeypatch, t)
    assert len(unstopped) == 29
    _assert_same_pairs_within_dedupe(z_eigs_newton(t), unstopped, scale)
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "QUIET_FROM", 10)
        early = z_eigs_newton(t)
    assert [round(p.value, 4) for p in unstopped if not any(abs(p.value - q.value) <= DEDUPE_TOL_LAMBDA * scale
                                                            for q in early)] == [0.3619]


def _planted_singular_batch(rng, k=60, size=6):
    """Random systems, 15 of them exactly singular: a zero row or a zero
    column leaves an exact zero pivot.  (Two equal rows need not: LAPACK's
    blocked elimination may round them differently.)"""
    J, b = rng.standard_normal((k, size, size)), rng.standard_normal((k, size))
    planted = rng.choice(k, 15, replace=False)
    J[planted[:8], 2, :] = 0.0
    J[planted[8:], :, 4] = 0.0
    return J, b, planted


def test_newton_solve_gives_nan_rows_exactly_for_the_singular_systems():
    # _newton_block's one batched solve, the gufunc np.linalg.solve calls for
    # a vector right-hand side: a singular system's row is NaN, and every
    # other row has the bits of a one-at-a-time np.linalg.solve.
    rng = np.random.default_rng(29)
    for trial in range(5):
        J, b, planted = _planted_singular_batch(rng)
        with np.errstate(invalid="ignore"):
            steps = oracle._umath_linalg.solve1(J, b)
        assert np.array_equal(np.flatnonzero(np.isnan(steps).any(axis=1)), np.sort(planted)), trial
        assert np.isnan(steps[planted]).all()
        for k in np.setdiff1d(np.arange(len(J)), planted):
            assert np.array_equal(steps[k], np.linalg.solve(J[k], b[k])), (trial, k)
        for k in planted:
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(J[k], b[k])


def test_newton_solve_of_a_singular_system_raises_the_invalid_flag():
    # What _newton_block's errstate silences: outside it, numpy warns.
    J, b, planted = _planted_singular_batch(np.random.default_rng(31))
    with pytest.warns(RuntimeWarning, match="invalid value encountered in solve1"), np.errstate(invalid="warn"):
        oracle._umath_linalg.solve1(J, b)
    with np.errstate(invalid="warn"), warnings.catch_warnings():
        warnings.simplefilter("error")
        oracle._umath_linalg.solve1(np.delete(J, planted, axis=0), np.delete(b, planted, axis=0))  # none singular: silent


def test_newton_empty_result_is_legal():
    rotation = DenseTensor([[0.0, -1.0], [1.0, 0.0]])  # 90 degrees: no real eigenvector
    assert z_eigs_newton(rotation, OracleConfig(restarts=50, seed=0)) == []


def test_start_points_unit_prefix_stable_and_seeded():
    X = _start_points(4, 1000, 7)
    assert X.shape == (1000, 4)
    np.testing.assert_allclose(np.linalg.norm(X, axis=1), 1.0, rtol=0, atol=1e-15)
    assert np.array_equal(_start_points(4, 13, 7), X[:13])
    assert not np.any(np.all(_start_points(4, 13, 8) == X[:13], axis=1))


def _candidate_set(rng, clusters, members):
    """Shuffled eigenpair candidates: tight clusters around well-separated
    centres, members sign-flipped at random, residuals drawn from three
    values so that ties are common.  Some centres share a value and differ
    only in vector, some share a vector and differ only in value."""
    dim = 3
    centres = []
    for c in range(clusters):
        x = rng.normal(size=dim)
        value = float(rng.integers(-3, 4))
        if c % 3 == 1 and centres:  # same value as the previous centre, other vector
            value = centres[-1][0]
        if c % 3 == 2 and centres:  # same vector as the previous centre, other value
            x, value = centres[-1][1], centres[-1][0] + 0.5
        centres.append((value, x / np.linalg.norm(x)))
    pairs = []
    for value, x in centres:
        for _ in range(int(rng.integers(1, members + 1))):
            y = x + rng.uniform(-1e-8, 1e-8, size=dim)
            y = (1.0 if rng.random() < 0.5 else -1.0) * y / np.linalg.norm(y)
            v = value + float(rng.uniform(-1e-10, 1e-10))
            pairs.append(Eigenpair(v, y, float(rng.choice([1e-15, 2e-15, 5e-14]))))
    return [pairs[k] for k in rng.permutation(len(pairs))]


def test_distinct_matches_brute_dedupe():
    rng = np.random.default_rng(8)
    for trial in range(200):
        pairs = _candidate_set(rng, clusters=int(rng.integers(1, 9)), members=int(rng.integers(1, 7)))
        values = np.array([p.value for p in pairs])
        X = np.array([p.x for p in pairs])
        ranks = np.array([p.residual for p in pairs])
        kept = _distinct(values, X, ranks)
        survivors = brute_dedupe(pairs, DEDUPE_TOL_LAMBDA, DEDUPE_TOL_X)
        expected = [next(k for k, p in enumerate(pairs) if p is q) for q in survivors]
        assert sorted(kept) == sorted(expected), trial
        assert kept == reference_distinct(values, X, ranks), trial
        for k in kept:  # the lowest residual of its cluster, the earliest on ties
            same = (np.abs(values - values[k]) <= DEDUPE_TOL_LAMBDA) & (
                np.minimum(np.linalg.norm(X - X[k], axis=1), np.linalg.norm(X + X[k], axis=1)) <= DEDUPE_TOL_X
            )
            assert all((ranks[j], j) >= (ranks[k], k) for j in np.flatnonzero(same))

    # Edge sets, with the number of survivors each must have.  Chains are not
    # clusters, so brute_dedupe takes them best first, as _distinct does.
    for name, pairs, count in _dedupe_edge_sets():
        values = np.array([p.value for p in pairs])
        ranks = np.array([p.residual for p in pairs])
        kept = _distinct(values, np.array([p.x for p in pairs]), ranks)
        best_first = sorted(range(len(pairs)), key=lambda k: (ranks[k], k))
        survivors = brute_dedupe([pairs[k] for k in best_first], DEDUPE_TOL_LAMBDA, DEDUPE_TOL_X)
        assert sorted(kept) == sorted(next(k for k, p in enumerate(pairs) if p is q) for q in survivors), name
        assert count is None or len(kept) == count, name
        assert kept == reference_distinct(values, np.array([p.x for p in pairs]), ranks), name


def _chained_candidates(rng, count, dim, value_step, x_step, spread):
    """count candidates near `spread` random centres, each a step of
    value_step (in DEDUPE_TOL_LAMBDA) and x_step (in DEDUPE_TOL_X) from the
    one before along its centre's chain, so that neighbours match and those
    two apart may not.  Vectors are sign-flipped at random and ranks tie
    often."""
    centres = rng.normal(size=(spread, dim))
    chain = rng.integers(0, spread, size=count)
    step = np.zeros(count)
    for c in range(spread):
        step[chain == c] = np.arange(np.count_nonzero(chain == c))
    direction = rng.normal(size=(spread, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    X = centres[chain] + (step * x_step * DEDUPE_TOL_X)[:, None] * direction[chain]
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    X *= rng.choice([-1.0, 1.0], size=(count, 1))
    values = rng.integers(-2, 3, size=spread)[chain] + step * value_step * DEDUPE_TOL_LAMBDA
    values += rng.uniform(-0.05, 0.05, size=count) * DEDUPE_TOL_LAMBDA
    ranks = rng.choice([1e-15, 2e-15, 3e-15], size=count)
    return values, X, ranks


@pytest.mark.parametrize(
    "value_step, x_step, spread",
    [(0.9, 0.0, 3), (0.0, 0.9, 3), (0.6, 0.6, 5), (1.5, 0.0, 2), (0.0, 0.0, 40), (0.3, 0.3, 1)],
    ids=["chains in λ", "chains in x", "chains in both", "λ steps past the tolerance", "sign pairs and ties",
         "one λ-group holding every candidate"],
)
def test_distinct_matches_the_greedy_reference_on_chains(value_step, x_step, spread):
    # a ~ b and b ~ c but not a ~ c: _distinct, which keeps the best
    # unclaimed candidate of every λ-group at once, gives the one-at-a-time
    # greedy pass's result, order included.
    rng = np.random.default_rng(int(100 * value_step + 10 * x_step + spread))
    for trial in range(40):
        count = int(rng.integers(1, 120))
        values, X, ranks = _chained_candidates(rng, count, int(rng.integers(2, 5)), value_step, x_step, spread)
        assert _distinct(values, X, ranks) == reference_distinct(values, X, ranks), trial
    # One λ-group of pairwise distinct vectors: all kept, one per round.
    X = _start_points(3, 200, 4)
    values = np.arange(200) * 1.9 * DEDUPE_TOL_LAMBDA
    ranks = rng.choice([1e-15, 2e-15], size=200)
    kept = _distinct(values, X, ranks)
    assert kept == reference_distinct(values, X, ranks)
    assert len(kept) == 200
    assert _distinct(values[:0], X[:0], ranks[:0]) == []


def _dedupe_edge_sets():
    tol, x = DEDUPE_TOL_LAMBDA, np.array([0.6, 0.8, 0.0])
    past = np.nextafter(tol, 1.0)  # one ulp past the tolerance

    def pair(value, y=x, rank=1e-15):
        return Eigenpair(float(value), y, rank)

    assert tol - 0.0 == tol and past - 0.0 > tol and 0.0 - (-tol) == tol
    yield "gap exactly at the tolerance", [pair(0.0), pair(tol)], 1
    yield "gap below zero exactly at the tolerance", [pair(-tol), pair(0.0)], 1
    yield "gap one ulp past the tolerance", [pair(0.0), pair(past)], 2
    big = 1e9  # an ulp here is 1.2e-7, wider than the tolerance
    yield "one ulp apart at 1e9", [pair(big), pair(np.nextafter(big, 2 * big))], 2
    yield "sign-flipped vector", [pair(2.0), pair(2.0, -x)], 1
    yield "sign-flipped vector one ulp past in value", [pair(0.0, -x), pair(past)], 2
    yield "equal ranks keep the earliest", [pair(3.0, rank=2e-15) for _ in range(4)], 1
    # Members 0.9 tol apart: 12 of them span 9.9 tol, past the 4 tol window.
    chain = [pair(k * 0.9 * tol) for k in range(12)]
    yield "chain, equal ranks", chain, 6
    rng = np.random.default_rng(19)
    ranked = [pair(p.value, rank=float(r)) for p, r in zip(chain, rng.choice([1e-15, 2e-15], size=12))]
    yield "chain, tied and untied ranks", ranked, None
    flipped = [pair(p.value, x if k % 2 else -x) for k, p in enumerate(chain)]
    yield "chain of alternating signs", flipped, 6
    wide = [pair(3.0 + k * 1.5 * tol) for k in range(10)]  # no two within the tolerance
    yield "chain of distinct values", [wide[k] for k in rng.permutation(10)], 10


@pytest.mark.parametrize("scale", [1.0, 3.0, 1e-9, 1e12])
def test_finish_keeps_a_passing_candidate_beside_a_failing_one(scale):
    # The dim-2 solve hands _finish every candidate, verified or not.  y is
    # within the dedupe tolerances of the eigenvector e_1 but fails the
    # residual check; listed first, it must not claim e_1's cluster, since
    # the rank is the residual that the check tests.  Both tolerances are
    # relative to S = 3 scale, the sum of |A|.
    t = diagonal_tensor([scale, 2.0 * scale], order=3)
    y = np.array([1.0, 5e-7]) / np.hypot(1.0, 5e-7)
    X = np.array([y, [1.0, 0.0]])
    values, residuals = oracle._rayleigh(t, X)
    assert residuals[0] > RESIDUAL_TOL * 3.0 * scale >= residuals[1]
    assert abs(values[0] - values[1]) / (3.0 * scale) <= DEDUPE_TOL_LAMBDA
    assert np.linalg.norm(X[0] - X[1]) <= DEDUPE_TOL_X
    pairs = _finish(t, X, values, residuals)
    assert [(p.value, tuple(p.x)) for p in pairs] == [(scale, (1.0, 0.0))]


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(restarts=0)
    with pytest.raises(ValueError):
        OracleConfig(seed=-1)
    with pytest.raises(ValueError, match=str(MAX_RESTARTS)):
        OracleConfig(restarts=MAX_RESTARTS + 1)
    assert OracleConfig().restarts == 1000
    assert OracleConfig(restarts=MAX_RESTARTS).restarts == MAX_RESTARTS


def test_oracle_config_rejects_a_float_seed():
    # Unchecked, numpy's SeedSequence would reject it only once Newton ran.
    with pytest.raises(ValueError, match="seed must be an integer"):
        OracleConfig(seed=1.5)


def test_oracle_config_rejects_a_bool():
    # Unchecked, True would run one restart.
    with pytest.raises(ValueError, match="restarts must be an integer"):
        OracleConfig(restarts=True)
    with pytest.raises(ValueError, match="seed must be an integer"):
        OracleConfig(seed=False)


def test_oracle_config_rejects_a_string():
    # Unchecked, "10" would raise a TypeError from the range comparison.
    with pytest.raises(ValueError, match="restarts must be an integer"):
        OracleConfig(restarts="10")


def test_oracle_config_is_frozen_so_its_checks_hold():
    # Assigning restarts = 0 after construction would make Newton return no pairs.
    cfg = OracleConfig(restarts=10)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.restarts = 0
    assert cfg.restarts == 10


def test_oracle_config_accepts_numpy_integers():
    cfg = OracleConfig(restarts=np.int64(5), seed=np.uint64(2**64 - 1))
    assert len(z_eigs_newton(load_fixture("example2.json"), cfg)) >= 1


# -- verification ---------------------------------------------------------------------


def test_verify_inclusion_example1_sweep(example1):
    pairs = z_eigs_sweep_n2(example1)
    report = verify_inclusion(example1, pairs)
    assert report.bound_applies
    assert report.all_passed
    assert report.failures() == []


def test_verify_inclusion_diagonal_equality_at_tolerance():
    t = diagonal_tensor([1, 2, 3], order=4)
    pairs = z_eigs_newton(t, OracleConfig(restarts=500, seed=3))
    report = verify_inclusion(t, pairs)
    assert report.all_passed
    assert max(abs(p.value) for p in pairs) == pytest.approx(report.omega_max, abs=1e-9)


def test_verify_inclusion_zero_tensor_manual_pair(zero_m2_n2):
    pair = Eigenpair(0.0, np.array([1.0, 0.0]), 0.0)
    report = verify_inclusion(zero_m2_n2, [pair])
    assert report.all_passed


def test_verify_inclusion_flags_escaped_eigenvalue(example1):
    rogue = Eigenpair(10.0 * compare_report(example1, example1.aggregates()).gershgorin, np.array([1.0, 0.0]), 0.0)
    report = verify_inclusion(example1, [rogue])
    assert not report.all_passed
    check = report.failures()[0]
    assert not check.in_omega and not check.in_m and not check.in_k
    assert report.bound_applies  # so not in Omega is above the bound omega_max too


def test_verify_inclusion_reports_a_nan_eigenvalue_outside_every_set(example1):
    # The CLI rejects --inject-lambda nan, but a library caller can pass one:
    # every comparison with NaN is false, so it is in no set and fails.
    x = np.array([1.0, 0.0])
    pairs = [Eigenpair(float("nan"), x, 0.0), Eigenpair(0.0, x, 0.0)]
    report = verify_inclusion(example1, pairs)
    assert report.bound_applies and report.chain_ok
    nan_check, zero_check = report.checks
    assert (nan_check.in_omega, nan_check.in_m, nan_check.in_k) == (False,) * 3
    assert zero_check.passed and not report.all_passed
    assert report.failures() == [nan_check]


def test_verify_inclusion_skips_bound_when_hypothesis_fails():
    data = np.full((2, 2, 2), 0.5)
    data[0, 1, 1] = -0.5
    t = DenseTensor(data)
    pair = Eigenpair(0.1, np.array([1.0, 0.0]), 0.0)
    report = verify_inclusion(t, [pair])
    assert not report.bound_applies
    # The regions hold for every real tensor: the pair is still checked against each.
    assert [(c.in_omega, c.in_m, c.in_k) for c in report.checks] == [(True, True, True)]
    assert report.all_passed


def test_inclusion_on_random_symmetric_nonnegative_tensors():
    rng = np.random.default_rng(53)
    for k in range(10):
        order = int(rng.integers(3, 5))
        dim = int(rng.integers(2, 4))
        t = random_symmetric_tensor(rng, order, dim)
        pairs = z_eigs_newton(t, OracleConfig(restarts=300, seed=k))
        report = verify_inclusion(t, pairs)
        assert report.bound_applies
        assert report.all_passed

