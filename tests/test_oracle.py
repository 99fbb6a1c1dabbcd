import numpy as np
import pytest

from zeig.bounds import bound_gershgorin
from zeig.oracle import (
    DEDUPE_TOL_LAMBDA,
    DEDUPE_TOL_X,
    Eigenpair,
    OracleConfig,
    _distinct,
    _newton_map,
    _sign_change_candidates,
    _start_points,
    residual,
    verify_inclusion,
    z_eigs_newton,
    z_eigs_sweep_n2,
)
from zeig import tensor as tensor_module
from zeig.tensor import DenseTensor, contract

from helpers import (
    brute_contract,
    brute_dedupe,
    diagonal_tensor,
    finite_difference_jacobian,
    random_symmetric_tensor,
    random_tensor,
    sign_change_indices,
)

# frozen from two independent scratch computations (grid+bisection sweep and
# scipy fsolve with random restarts), which agreed to ~1e-14
EX1_EIGENVALUES = [3.1092097524732014, 0.20668985153197686]
EX2_TOP_EIGENVALUE = 6.558213362199448


def eigenvalues(pairs):
    return [p.value for p in pairs]


# -- residual -------------------------------------------------------------------


def test_residual_exact_eigenpairs(rank_one):
    d = diagonal_tensor([1, 2, 3], order=3)
    assert residual(d, 2.0, [0.0, 1.0, 0.0]) == 0.0
    assert residual(rank_one, 1.0, [0.6, 0.8]) == pytest.approx(0.0, abs=1e-12)


def test_residual_for_wrong_eigenvalue():
    d = diagonal_tensor([1, 2, 3], order=3)
    assert residual(d, 2.0, [1.0, 0.0, 0.0]) == 1.0


def test_residual_input_validation():
    d = diagonal_tensor([1, 2, 3], order=3)
    with pytest.raises(ValueError):
        residual(d, 1.0, [1.0, 0.0])  # dimension mismatch
    with pytest.raises(ValueError):
        residual(d, 1.0, [1.0, 1.0, 0.0])  # not unit norm


# -- batched contraction kernel and the Newton map ------------------------------------


def test_contract_matches_enumeration_for_every_slot_count():
    rng = np.random.default_rng(3)
    for order, dim in [(2, 3), (3, 2), (4, 3), (3, 4)]:
        t = random_tensor(rng, order, dim, signed=True)
        X = rng.normal(size=(7, dim))
        for slots in range(order):
            batch = contract(t.data, X, slots)
            assert batch.shape == (7,) + (dim,) * (order - slots)
            for k in range(7):
                assert batch[k] == pytest.approx(brute_contract(t, X[k], slots), rel=1e-12, abs=1e-12)


def test_contract_batch_spanning_several_chunks():
    rng = np.random.default_rng(4)
    order, dim, rows = 5, 9, 64
    step = tensor_module._CONTRACT_ITEMS // dim ** (order - 1)
    assert 0 < step < rows  # the batch is split into several chunks
    t = random_tensor(rng, order, dim, signed=True)
    X = rng.normal(size=(rows, dim))
    for slots in range(order):
        batch = contract(t.data, X, slots)
        for k in (0, step - 1, step, rows - 1):
            np.testing.assert_allclose(batch[k], brute_contract(t, X[k], slots), rtol=1e-12, atol=1e-12)
        singles = np.concatenate([contract(t.data, X[k : k + 1], slots) for k in range(rows)])
        np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-12)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(5)
    for order, dim in [(2, 3), (3, 3), (4, 2), (3, 2), (4, 3)]:
        for t in (random_symmetric_tensor(rng, order, dim, signed=True), random_tensor(rng, order, dim, signed=True)):
            newton_map = _newton_map(t.data)
            for _ in range(4):
                x = rng.normal(size=dim)
                AX, J = newton_map(x[None, :])
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
        assert _sign_change_candidates(g).tolist() == sign_change_indices(g)


# -- angle sweep ---------------------------------------------------------------------


def test_sweep_diagonal_axis_eigenpairs():
    t = diagonal_tensor([2, 5], order=4)
    values = eigenvalues(z_eigs_sweep_n2(t, 10_000))
    assert any(abs(v - 2.0) <= 1e-10 for v in values)
    assert any(abs(v - 5.0) <= 1e-10 for v in values)
    # the mixed-direction critical point at 10/7 also shows up
    assert any(abs(v - 10.0 / 7.0) <= 1e-10 for v in values)


def test_sweep_example1_golden_spectrum(example1):
    pairs = z_eigs_sweep_n2(example1, 100_000)
    got = sorted(eigenvalues(pairs))
    assert got == pytest.approx(sorted(EX1_EIGENVALUES), abs=1e-9)
    for p in pairs:
        assert p.residual <= 1e-12
        assert abs(np.linalg.norm(p.x) - 1.0) <= 1e-12
        assert p.value == pytest.approx(float(p.x @ example1.apply(p.x)), abs=1e-10)


def test_sweep_rank_one_finds_unit_eigenvalue(rank_one):
    pairs = z_eigs_sweep_n2(rank_one, 10_000)
    best = min(pairs, key=lambda p: abs(p.value - 1.0))
    assert best.value == pytest.approx(1.0, abs=1e-10)
    assert min(
        np.linalg.norm(best.x - np.array([0.6, 0.8])),
        np.linalg.norm(best.x + np.array([0.6, 0.8])),
    ) <= 1e-8


def test_sweep_even_order_collapses_antipodal_pairs():
    t = diagonal_tensor([2, 5], order=4)
    pairs = z_eigs_sweep_n2(t, 10_000)
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            same_value = abs(pairs[a].value - pairs[b].value) <= 1e-8
            same_vector = min(
                np.linalg.norm(pairs[a].x - pairs[b].x),
                np.linalg.norm(pairs[a].x + pairs[b].x),
            ) <= 1e-6
            assert not (same_value and same_vector)


def test_sweep_zero_tensor_degenerate(zero_m2_n2):
    pairs = z_eigs_sweep_n2(zero_m2_n2, 1_000)
    assert pairs
    assert all(p.value == 0.0 and p.residual == 0.0 for p in pairs)


def test_sweep_input_validation(example2, example1):
    with pytest.raises(ValueError):
        z_eigs_sweep_n2(example2, 1_000)  # dim 3
    with pytest.raises(ValueError):
        z_eigs_sweep_n2(example1, 99)


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
    sweep_values = sorted(eigenvalues(z_eigs_sweep_n2(example1, 50_000)))
    assert newton_values == pytest.approx(sweep_values, abs=1e-8)


def test_newton_results_sorted_and_verified(example2):
    pairs = z_eigs_newton(example2, OracleConfig(restarts=500, seed=11))
    assert eigenvalues(pairs) == sorted(eigenvalues(pairs), reverse=True)
    for p in pairs:
        assert p.residual <= 1e-12
        assert residual(example2, p.value, p.x) == p.residual


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
        for k in kept:  # the lowest residual of its cluster, the earliest on ties
            same = (np.abs(values - values[k]) <= DEDUPE_TOL_LAMBDA) & (
                np.minimum(np.linalg.norm(X - X[k], axis=1), np.linalg.norm(X + X[k], axis=1)) <= DEDUPE_TOL_X
            )
            assert all((ranks[j], j) >= (ranks[k], k) for j in np.flatnonzero(same))


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(restarts=0)
    with pytest.raises(ValueError):
        OracleConfig(seed=-1)


# -- verification ---------------------------------------------------------------------


def test_verify_inclusion_example1_sweep(example1):
    pairs = z_eigs_sweep_n2(example1, 50_000)
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
    rogue = Eigenpair(10.0 * bound_gershgorin(example1.aggregates()), np.array([1.0, 0.0]), 0.0)
    report = verify_inclusion(example1, [rogue])
    assert not report.all_passed
    check = report.failures()[0]
    assert not check.in_omega and not check.in_m and not check.in_k
    assert check.within_omega_max is False


def test_verify_inclusion_skips_bound_when_hypothesis_fails():
    data = np.full((2, 2, 2), 0.5)
    data[0, 1, 1] = -0.5
    t = DenseTensor(data)
    pair = Eigenpair(0.1, np.array([1.0, 0.0]), 0.0)
    report = verify_inclusion(t, [pair])
    assert not report.bound_applies
    assert report.checks[0].within_omega_max is None


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


def test_eigenpair_serialization_shape(example1):
    pair = z_eigs_sweep_n2(example1, 10_000)[0]
    doc = pair.to_dict()
    assert list(doc) == ["lambda", "x", "residual"]
    assert isinstance(doc["x"], list) and len(doc["x"]) == 2
