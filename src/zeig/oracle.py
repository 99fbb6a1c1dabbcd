"""Desk-scale Z-eigenpair ground truth.

Two finders: an exhaustive angle sweep for dimension 2 (complete up to
grid resolution) and Newton's method with seeded random restarts for
general dimension (finds a subset of the spectrum).  Converged restarts
are first merged into distinct eigenpairs (λ within DEDUPE_TOL_LAMBDA, x
within DEDUPE_TOL_X up to sign); only the survivors are re-verified on A
through ``DenseTensor.apply`` against RESIDUAL_TOL rather than trusted from
the solver loop.  verify_inclusion checks found eigenvalues against the
three inclusion regions and the closed-form bound.  The sweep grid uses
``tensor.contract``, the batched contraction kernel that also serves
``DenseTensor.apply`` and the aggregates.  Newton's map and Jacobian come
from one GEMM per step, the degree-(m-2) monomials of the iterates times the
tensor folded over their permutation classes, over blocks of restarts whose
size keeps memory within BUDGET.

Determinism: the start points are the rows of one normal draw from
``default_rng(seed)``, so restart k starts from a function of (seed, k) only
and the first k starts do not depend on how many restarts follow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import bound_omega_max
from .regions import region_K, region_M, region_Omega
from .tensor import DEFAULT_STRUCT_TOL, DenseTensor, _canonical_classes, contract

INCLUSION_TOL = 1e-8
MAX_ITER = 200  # Newton steps per restart
# Largest accepted restart count and sweep grid, checked before anything is
# allocated: at these sizes a dim-3 order-3 Newton call or a sweep peaks near 100 MB.
MAX_RESTARTS = 100_000
MAX_GRID = 1_000_000
# Float64 items (8 MiB) in the widest array of one block of Newton restarts.
BUDGET = 2**20
RESIDUAL_TOL = 1e-12  # largest accepted |A x^{m-1} - λ x|
DEDUPE_TOL_LAMBDA = 1e-8  # eigenpairs this close in λ ...
DEDUPE_TOL_X = 1e-6  # ... and in x up to sign are one eigenpair
_SWEEP_REFINE_TOL = 1e-13


@dataclass(frozen=True)
class Eigenpair:
    """A real eigenvalue with its unit eigenvector and residual norm."""

    value: float
    x: np.ndarray
    residual: float

    def to_dict(self) -> dict:
        return {"lambda": self.value, "x": [float(v) for v in self.x], "residual": self.residual}


@dataclass
class OracleConfig:
    restarts: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.restarts > MAX_RESTARTS:
            raise ValueError(f"restarts must be <= {MAX_RESTARTS}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


def residual(tensor: DenseTensor, value: float, x) -> float:
    """Euclidean norm of apply(x) - value * x for a unit vector x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (tensor.dim,):
        raise ValueError(f"vector must have length {tensor.dim}, got shape {x.shape}")
    if abs(np.linalg.norm(x) - 1.0) > 1e-9:
        raise ValueError("x must be a unit vector")
    return float(np.linalg.norm(tensor.apply(x) - value * x))


# -- Newton map ----------------------------------------------------------------


def _newton_map(data: np.ndarray):
    """X -> (A x^{m-1}, its Jacobian) for each row x of X.  A averaged over
    the permutations of its trailing m - 1 slots is an S with the same map and
    Jacobian (m - 1) S x^{m-2}, so one G = S x^{m-2} gives both: G x, (m - 1) G.

    S is symmetric in its last m - 2 slots, so G is one GEMM: the row's
    degree-(m-2) monomials, one per multiset of those slots, times W, the
    (i, j) blocks of S summed over each multiset's permutation class."""
    n, m = data.shape[0], data.ndim
    # S[i, tail] is the mean of A[i, .] over the permutation class of tail.
    classes = _canonical_classes(m - 1, n)
    sums = np.stack([np.bincount(classes, weights=row) for row in data.reshape(n, -1)])
    sym = (sums[:, classes] / np.bincount(classes)[classes]).reshape(n * n, -1)
    # The tuples (0, tail) sort to (0, sorted tail), so the first n^(m-2)
    # class ids are the last m - 2 slots' own: one representative per class,
    # whose column of S, times the class size, is the class sum.
    tails = classes[: sym.shape[1]]
    reps = np.flatnonzero(tails == np.arange(tails.size))
    W = sym[:, reps].T * np.bincount(tails)[reps][:, None]
    columns = np.indices((n,) * (m - 2)).reshape(m - 2, tails.size)[:, reps]

    def evaluate(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        P = np.ones((len(X), len(reps)))
        for column in columns:
            P *= X[:, column]
        G = (P @ W).reshape(len(X), n, n)
        return np.einsum("zij,zj->zi", G, X), (m - 1) * G

    return evaluate


# -- deduplication and ordering ----------------------------------------------


def _distinct(values: np.ndarray, X: np.ndarray, rank: np.ndarray) -> list[int]:
    """Indices of one member per cluster of candidates equal in value within
    DEDUPE_TOL_LAMBDA and in vector, up to sign, within DEDUPE_TOL_X.

    Candidates are taken best first (lowest rank, earliest index on ties);
    each one not yet claimed is kept and claims every candidate it matches,
    so the reported witness is the best available one.
    """
    unclaimed = np.ones(len(values), dtype=bool)
    kept = []
    for k in np.argsort(rank, kind="stable").tolist():
        if unclaimed[k]:
            kept.append(k)
            near = np.minimum(np.linalg.norm(X - X[k], axis=1), np.linalg.norm(X + X[k], axis=1))
            unclaimed &= (np.abs(values - values[k]) > DEDUPE_TOL_LAMBDA) | (near > DEDUPE_TOL_X)
    return kept


def _rayleigh_pair(tensor: DenseTensor, x: np.ndarray) -> Eigenpair:
    """x with its Rayleigh value and that value's residual."""
    ax = tensor.apply(x)
    value = float(x @ ax)
    return Eigenpair(value, x, float(np.linalg.norm(ax - value * x)))


def _sorted_pairs(pairs: list[Eigenpair]) -> list[Eigenpair]:
    return sorted(pairs, key=lambda p: (-p.value, tuple(p.x)))


# -- angle sweep (dim 2) ------------------------------------------------------


def _sign_change_candidates(g: np.ndarray) -> np.ndarray:
    """Grid indices k < len(g) - 1 where a root starts: g[k] is the first zero
    of a run of zeros, or g changes sign strictly between k and k + 1."""
    head, prev = g[:-1], np.concatenate(([1.0], g[:-2]))
    return np.flatnonzero(((head == 0.0) & (prev != 0.0)) | (head * g[1:] < 0.0))


def z_eigs_sweep_n2(tensor: DenseTensor, grid_size: int = 100_000) -> list[Eigenpair]:
    """All eigenpairs of a dimension-2 tensor by sweeping the unit circle.

    Parametrizes x = (cos t, sin t), scans the tangential component
    g(t) = apply(x)_1 sin t - apply(x)_2 cos t on a uniform grid over
    [0, 2*pi), and refines every sign change by bisection until
    |g| <= 1e-13.  For a unit vector the residual of the Rayleigh pair
    equals |g(t)|, so accepted residuals inherit that tolerance.
    """
    if tensor.dim != 2:
        raise ValueError(f"angle sweep requires dim = 2, got {tensor.dim}")
    if grid_size < 100:
        raise ValueError("grid_size must be >= 100")
    if grid_size > MAX_GRID:
        raise ValueError(f"grid_size must be <= {MAX_GRID}")

    def tangent(X: np.ndarray) -> np.ndarray:
        AX = contract(tensor.data, X, tensor.order - 1)
        return AX[:, 0] * X[:, 1] - AX[:, 1] * X[:, 0]

    thetas = np.linspace(0.0, 2.0 * math.pi, grid_size + 1)
    g = tangent(np.stack([np.cos(thetas), np.sin(thetas)], axis=1))

    roots: list[float] = []
    if np.all(g == 0.0):
        # Degenerate tangent field (e.g. the zero tensor): every direction is
        # an eigenvector; report the axis representatives.
        roots = [0.0, 0.5 * math.pi]
    else:
        for k in _sign_change_candidates(g):
            if g[k] == 0.0:
                roots.append(float(thetas[k]))
                continue
            a, b, fa = float(thetas[k]), float(thetas[k + 1]), float(g[k])
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm = float(tangent(np.array([[math.cos(mid), math.sin(mid)]]))[0])
                if abs(fm) <= _SWEEP_REFINE_TOL or (b - a) <= 1e-16:
                    break
                if (fm > 0.0) == (fa > 0.0):
                    a, fa = mid, fm
                else:
                    b = mid
            roots.append(mid)

    found = [_rayleigh_pair(tensor, np.array([math.cos(t), math.sin(t)])) for t in roots]
    X = np.array([p.x for p in found]).reshape(-1, 2)
    keep = _distinct(np.array([p.value for p in found]), X, np.array([p.residual for p in found]))
    return _sorted_pairs([found[k] for k in keep])


# -- Newton with random restarts ----------------------------------------------


def _start_points(n: int, restarts: int, seed: int) -> np.ndarray:
    """Uniform draws on the unit sphere: the normalized rows of one seeded
    standard-normal block, so row k depends on (seed, k) only."""
    X = np.random.default_rng(seed).standard_normal((restarts, n))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def _solve_newton_steps(J: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched linear solves; items with singular systems are flagged out."""
    ok = np.ones(len(J), dtype=bool)
    try:
        return np.linalg.solve(J, -F[..., None])[..., 0], ok
    except np.linalg.LinAlgError:
        steps = np.zeros_like(F)
        for k in range(len(J)):
            try:
                steps[k] = np.linalg.solve(J[k], -F[k])
            except np.linalg.LinAlgError:
                ok[k] = False
        return steps, ok


def _newton_block(newton_map, X: np.ndarray, final_x, final_lam, final_res) -> None:
    """Iterate the restarts starting at the rows of X.  Restart k that
    converges writes its x, Newton λ and loop residual to row k of final_x,
    final_lam and final_res; the rows of the others are left as they are."""
    n = X.shape[1]
    eye = np.eye(n)
    AX, J = newton_map(X)
    lam = np.einsum("zi,zi->z", X, AX)
    order = np.arange(len(X))

    for it in range(MAX_ITER + 1):
        res = np.linalg.norm(AX - lam[:, None] * X, axis=1)
        good = np.isfinite(res)
        done = good & (res <= RESIDUAL_TOL)
        hit = order[done]
        final_x[hit], final_lam[hit], final_res[hit] = X[done], lam[done], res[done]
        active = good & ~done
        if not np.any(active) or it == MAX_ITER:
            break
        X, lam, AX, J, order = X[active], lam[active], AX[active], J[active], order[active]

        full = np.zeros((len(order), n + 1, n + 1))
        full[:, :n, :n] = J - lam[:, None, None] * eye
        full[:, :n, n] = -X
        full[:, n, :n] = 2.0 * X
        F = np.concatenate([AX - lam[:, None] * X, (np.einsum("zi,zi->z", X, X) - 1.0)[:, None]], axis=1)
        steps, ok = _solve_newton_steps(full, F)
        X = X + steps[:, :n]
        lam = lam + steps[:, n]
        norms = np.linalg.norm(X, axis=1)
        ok &= np.isfinite(norms) & (norms > 1e-12) & np.isfinite(lam)
        X, lam, order, norms = X[ok], lam[ok], order[ok], norms[ok]
        X = X / norms[:, None]
        AX, J = newton_map(X)


def z_eigs_newton(tensor: DenseTensor, config: OracleConfig | None = None) -> list[Eigenpair]:
    """Eigenpairs found by Newton's method on the eigen system with the
    unit-norm constraint, from seeded random restarts.

    Restart k starts at row k of the seeded sphere draw and iterates the
    full (n+1)-variable Newton step with the exact Jacobian of the
    contraction map, renormalizing x after every step.  Restarts that fail
    to reach RESIDUAL_TOL within MAX_ITER steps are dropped; an empty result
    is legal.  The restarts run in consecutive blocks whose widest array (the
    Newton systems or the monomials) holds at most BUDGET items, or of one
    restart when that alone exceeds it, so memory does not grow with the
    restart count.  The converged restarts of all
    blocks are merged into distinct eigenpairs (eigenvalue and eigenvector up
    to sign; lowest loop residual wins), each survivor is re-verified on A
    with its Rayleigh value, and the pairs that still meet RESIDUAL_TOL are
    sorted by eigenvalue descending.
    """
    cfg = config or OracleConfig()
    n, m = tensor.dim, tensor.order
    newton_map = _newton_map(tensor.data)
    starts = _start_points(n, cfg.restarts, cfg.seed)
    # Per restart: converged x, Newton λ and loop residual (inf: never converged).
    final_x, final_lam = np.empty((cfg.restarts, n)), np.empty(cfg.restarts)
    final_res = np.full(cfg.restarts, np.inf)
    block = max(1, BUDGET // max((n + 1) ** 2, math.comb(n + m - 3, m - 2)))
    for lo in range(0, cfg.restarts, block):
        rows = slice(lo, lo + block)
        _newton_block(newton_map, starts[rows], final_x[rows], final_lam[rows], final_res[rows])

    hit = np.flatnonzero(np.isfinite(final_res))
    keep = hit[_distinct(final_lam[hit], final_x[hit], final_res[hit])]
    found = [_rayleigh_pair(tensor, x) for x in final_x[keep]]  # re-verified on A
    return _sorted_pairs([pair for pair in found if pair.residual <= RESIDUAL_TOL])


# -- verification --------------------------------------------------------------


@dataclass(frozen=True)
class PairCheck:
    """Inclusion results for one eigenpair."""

    value: float
    in_omega: bool
    in_m: bool
    in_k: bool
    within_omega_max: bool | None  # None when the bound hypothesis fails

    @property
    def passed(self) -> bool:
        return self.in_omega and self.in_m and self.in_k and self.within_omega_max is not False

    def to_dict(self) -> dict:
        return {
            "lambda": self.value,
            "in_omega": self.in_omega,
            "in_m": self.in_m,
            "in_k": self.in_k,
            "within_omega_max": self.within_omega_max,
        }


@dataclass
class VerificationReport:
    checks: list[PairCheck] = field(default_factory=list)
    omega_max: float = 0.0
    bound_applies: bool = False

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[PairCheck]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "omega_max": self.omega_max,
            "bound_applies": self.bound_applies,
            "checks": [c.to_dict() for c in self.checks],
            "all_passed": self.all_passed,
        }


def verify_inclusion(
    tensor: DenseTensor, pairs: list[Eigenpair], tol: float = INCLUSION_TOL
) -> VerificationReport:
    """Check every eigenvalue magnitude against the three region closures,
    and against the closed-form bound when the tensor is weakly symmetric
    and nonnegative."""
    agg = tensor.aggregates()
    omega = region_Omega(agg)
    m_region = region_M(agg)
    k_region = region_K(agg)
    om = bound_omega_max(agg)
    applies = tensor.is_nonnegative() and tensor.is_weakly_symmetric(DEFAULT_STRUCT_TOL)
    report = VerificationReport(omega_max=om.omega_max, bound_applies=applies)
    for pair in pairs:
        r = abs(pair.value)
        report.checks.append(
            PairCheck(
                value=pair.value,
                in_omega=omega.contains(r, tol),
                in_m=m_region.contains(r, tol),
                in_k=k_region.contains(r, tol),
                within_omega_max=(r <= om.omega_max + tol) if applies else None,
            )
        )
    return report
