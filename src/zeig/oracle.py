"""Desk-scale Z-eigenpair ground truth.

Two finders propose candidate unit vectors: for dimension 2 an exact solve,
the real roots of one polynomial of degree m, multiple roots included; for
general dimension Newton's method with seeded random restarts (finds a
subset of the spectrum).  One finishing stage, _finish, decides what either
reports: one pair per cluster (λ / S within DEDUPE_TOL_LAMBDA, x within
DEDUPE_TOL_X up to sign), re-verified on A against RESIDUAL_TOL * S rather
than trusted from the finder, sorted by λ descending.  verify_inclusion
decides from the tensor alone: it checks found eigenvalues against the three
inclusion regions, each relaxed by INCLUSION_TOL * S, and its verdict
includes compare_report's bound chain check.  Where the closed-form bound
applies it is omega_max, Omega's supremum, so Omega's check is the bound's
too.  S, the sum of |A|'s entries (1 for the zero tensor), bounds |λ|, and
(λ, x) is an eigenpair of A iff (s λ, x) is one of s A: every tolerance
scales with the tensor.

Newton's map and Jacobian come from one GEMM per step, the degree-(m-2)
monomials of the iterates times the tensor folded over their permutation
classes (tensor._fold), over blocks of restarts whose size keeps memory
within BUDGET.  Each step is the bordered (n+1)-variable Newton step taken
as one shifted inverse-iteration solve, B y = x with B = (m - 1) G - λI
(_newton_step), all in one batched LAPACK call; a singular B's step comes
back NaN, and the finiteness test that drops diverging restarts drops its
restart too.  B is singular at every eigenpair with λ = 0 (G x = λx = 0),
so a restart that lands on a λ = 0 family can be dropped there.

A block of restarts stops once its late restarts stop finding new pairs: at
the first trip t >= QUIET_FROM with t >= 2 t_new, t_new the last trip on
which one of them converged to a pair that no restart of the block had
reached, one that _distinct would not merge (at odd m a mirror is no new
pair).  t_new is counted with one _distinct pass, repeated only on the
trips where the stop could be due.  The restarts still active there are
dropped, as at MAX_ITER, so the stop can drop a rarely hit pair that only a
late restart would reach.

Determinism: restart k starts from a function of (seed, k) only, so the
first k starts do not depend on how many restarts follow.  The start points
are the rows of one normal draw from ``default_rng(seed)``: row k for even m;
for odd m, row j for restart 2j and its antipode for restart 2j + 1, whose
result is restart 2j's mirrored rather than iterated (z_eigs_newton).  A
restart's iterates, and with them the trip on which its block stops, also
depend on the block: the BLAS picks its GEMM kernel by row count.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .regions import bound_omega_max, compare_report, region_K, region_M, region_Omega
from .tensor import DenseTensor, _fold, contract

INCLUSION_TOL = 1e-8  # outward relaxation of each region, per unit of S
MAX_ITER = 200  # Newton steps per restart
QUIET_FROM = 40  # first trip on which a block of restarts may stop early (_newton_block)
# Largest accepted restart count, checked before anything is allocated: at
# this size a dim-3 Newton call's arrays peak near 39 MB at order 4, and near
# 26 MB at order 3, which iterates half the restarts (tracemalloc).
MAX_RESTARTS = 100_000
# Float64 items (8 MiB) in the widest array of one block of Newton restarts:
# its n x n maps and systems, or its monomials.
BUDGET = 2**20
RESIDUAL_TOL = 1e-12  # largest accepted |A x^{m-1} - λ x| / S
DEDUPE_TOL_LAMBDA = 1e-8  # eigenpairs this close in λ / S ...
DEDUPE_TOL_X = 1e-6  # ... and in x up to sign are one eigenpair
# np.roots makes a k-fold root a ring of k roots symmetric about the real axis.
# Measured on k-fold clusters, k <= 22, alone or beside simple roots: the ring's
# radius reached 0.52, and its member nearest the axis, which the filter must pass, 0.041 off it.
_ROOT_IMAG = 0.25  # largest imaginary part of a root taken as near-real
_POLISH_STEPS = 50  # Newton steps per derivative of g


@dataclass(frozen=True)
class Eigenpair:
    """A real eigenvalue with its unit eigenvector and residual norm."""

    value: float
    x: np.ndarray
    residual: float


@dataclass(frozen=True)
class OracleConfig:
    restarts: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name, value in (("restarts", self.restarts), ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.restarts > MAX_RESTARTS:
            raise ValueError(f"restarts must be <= {MAX_RESTARTS}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


# -- Newton map ----------------------------------------------------------------


def _newton_map(data: np.ndarray):
    """X -> (A x^{m-1}, G) for each row x of X, with G = T x^{m-2} for the
    trailing mean T of A, which has A's map and Jacobian: A x^{m-1} = G x and
    the Jacobian is (m - 1) G, from which _newton_step forms the shifted
    B = (m - 1) G - λI (the order m is the map's ``order``).  G is one GEMM:
    the row's degree-(m-2) monomials, one per multiset of the last m - 2
    slots, times the fold W of tensor._fold."""
    n, m = data.shape[0], data.ndim
    W, columns = _fold(data)

    def evaluate(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # take keeps P C-ordered: X[:, cols] is F-ordered and changes the GEMM's sums.
        P = X.take(columns[0], axis=1) if m > 2 else np.ones((len(X), 1))
        for column in columns[1:]:
            P *= X[:, column]
        G = (P @ W).reshape(len(X), n, n)
        return np.einsum("zij,zj->zi", G, X), G

    evaluate.order = m
    return evaluate


# -- the finishing stage: dedupe, re-verify, order ---------------------------


def _distinct(values: np.ndarray, X: np.ndarray, rank: np.ndarray) -> list[int]:
    """Indices of one member per cluster of candidates equal in value within
    DEDUPE_TOL_LAMBDA and in vector, up to sign, within DEDUPE_TOL_X.

    Candidates are taken best first (lowest rank, earliest index on ties);
    each one not yet claimed is kept and claims every candidate it matches,
    so the reported witness is the best available one.  Returned best first.

    Sorted values more than 2 DEDUPE_TOL_LAMBDA apart split the candidates
    into λ-groups that never match across (the 2 covers rounding), so the
    greedy pass runs in every group at once: each round keeps the best
    unclaimed candidate of every group, and each of those claims the
    unclaimed members of its group that it matches.
    """
    by_rank = np.argsort(rank, kind="stable")
    by_value = np.argsort(values, kind="stable")
    group = np.empty(len(values), dtype=np.intp)
    group[by_value] = np.cumsum(np.diff(values[by_value], prepend=values[by_value[:1]]) > 2 * DEDUPE_TOL_LAMBDA)
    live = by_rank[np.argsort(group[by_rank], kind="stable")]  # unclaimed: by group, best first in each
    kept = np.zeros(len(values), dtype=bool)
    while len(live):
        first = np.flatnonzero(np.diff(group[live], prepend=-1))  # each group's best
        kept[live[first]] = True
        head = np.repeat(live[first], np.diff(first, append=len(live)))
        x, y = X[live], X[head]
        near = np.minimum(np.linalg.norm(x - y, axis=1), np.linalg.norm(x + y, axis=1))
        unclaimed = (np.abs(values[live] - values[head]) > DEDUPE_TOL_LAMBDA) | (near > DEDUPE_TOL_X)
        unclaimed[first] = False  # heads leave even where a NaN defeats both tests
        live = live[unclaimed]
    return by_rank[kept[by_rank]].tolist()


def _rayleigh(tensor: DenseTensor, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Rayleigh values x . A x^{m-1} of the rows x of X and their
    residuals |A x^{m-1} - λ x|, from one tensor.contract call, each the bits
    that x @ tensor.apply(x) and np.linalg.norm give for x alone: contract
    gives each row apply's bits, and the stacked 1 x n by n x 1 products are
    the same BLAS dot products."""
    AX = contract(tensor.data, X)
    values = np.matmul(X[:, None, :], AX[:, :, None])[:, 0, 0]
    R = AX - values[:, None] * X
    return values, np.sqrt(np.matmul(R[:, None, :], R[:, :, None])[:, 0, 0])


def _scale(tensor: DenseTensor) -> float:
    """S, the sum of |A|'s entries, or 1 for the zero tensor."""
    return float(np.abs(tensor.data).sum()) or 1.0


def _finish(tensor: DenseTensor, X, values, rank) -> list[Eigenpair]:
    """The reported eigenpairs among candidate unit vectors X: one per _distinct
    cluster of values / S, best rank kept, whose Rayleigh pair on A meets
    RESIDUAL_TOL * S, sorted by λ descending, then x."""
    scale = _scale(tensor)
    X = X[_distinct(values / scale, X, rank)]
    values, residuals = _rayleigh(tensor, X)
    ok = residuals <= RESIDUAL_TOL * scale
    X, values, residuals = X[ok], values[ok], residuals[ok]
    order = np.lexsort((*X.T[::-1], -values))
    return [Eigenpair(*pair) for pair in zip(values[order].tolist(), X[order], residuals[order].tolist())]


# -- exact solve (dim 2) -------------------------------------------------------


def _row_forms(data: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Coefficients of the two entries of A x^{m-1} of a dim-2 tensor, forms
    of degree m - 1, (A x^{m-1})_i = sum_j c_i[j] x_1^(m-1-j) x_2^j, for A
    and for |A|, which bounds their terms.  Each row's coefficient j sums the
    tails holding j indices 2, pairwise over one slot at a time, so it
    carries at most m - 1 roundings."""
    rows = []
    for array in (data, np.abs(data)):
        F = array.reshape(2, -1, 1)
        for _ in range(data.ndim - 1):
            F = F.reshape(2, -1, 2, F.shape[-1])  # last slot of the tail: index 1 or 2
            zero = np.zeros(F.shape[:2] + (1,))
            F = np.concatenate([F[:, :, 0], zero], axis=2) + np.concatenate([zero, F[:, :, 1]], axis=2)
        rows.append(tuple(F[:, 0]))
    return rows


def _tangent(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Coefficients of x_2 r_1(x) - x_1 r_2(x) for two forms of one degree."""
    return np.append(0.0, r1) - np.append(r2, 0.0)


def _poly_newton(f: np.ndarray, t: np.ndarray) -> np.ndarray:
    """t moved by Newton's method on the polynomial f, taking only steps under
    1 that lower |f|."""
    slope_form, value = np.polyder(f), np.polyval(f, t)
    for _ in range(_POLISH_STEPS):
        slope = np.polyval(slope_form, t)
        trial = t - np.divide(value, slope, out=np.zeros_like(value), where=np.abs(slope) > np.abs(value))
        trial_value = np.polyval(f, trial)
        better = np.abs(trial_value) < np.abs(value)
        if not np.any(better):
            break
        t, value = np.where(better, trial, t), np.where(better, trial_value, value)
    return t


def _chart_roots(p: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """The real roots u in [-1, 1] of p(u) = g(1, u), coefficients highest
    first, each polished onto the exact root near it; |p - computed p| <=
    noise(|u|) coefficientwise, for every derivative too.

    Coefficients below the rounding of the largest are zeroed, which keeps
    np.roots' companion finite.  p fixes a (k+1)-fold root only to
    ~eps^(1/(k+1)), where λ can be off by far more than DEDUPE_TOL_LAMBDA,
    but p^(k) has a simple root there: so a root goes on to the root of p',
    p'', ... near it while that is still, within noise, a root of the
    derivative before."""
    r = np.roots(np.where(np.abs(p) > np.finfo(float).eps * np.abs(p).max(), p, 0.0))
    u = _poly_newton(p, r[(np.abs(r.imag) <= _ROOT_IMAG) & (np.abs(r.real) <= 1.0 + 1e-6)].real)
    live, f = np.arange(len(u)), p
    for _ in range(len(p) - 2):
        if not len(live):  # usually after the first level, when every root is simple
            break
        t = _poly_newton(np.polyder(f), u[live])
        ok = np.abs(np.polyval(f, t)) <= np.polyval(noise, np.abs(t))
        u[live[ok]] = t[ok]
        live, f, noise = live[ok], np.polyder(f), np.polyder(noise)
    return u


def z_eigs_sweep_n2(tensor: DenseTensor) -> list[Eigenpair]:
    """All eigenpairs of a dimension-2 tensor: a unit x is an eigenvector iff
    the tangent g(x) = x_2 (A x^{m-1})_1 - x_1 (A x^{m-1})_2 vanishes, and
    its Rayleigh pair has residual |g(x)|.

    The real roots of g are taken in the charts x ~ (1, u) and x ~ (v, 1)
    with |u|, |v| <= 1, where g(v, 1) has the coefficients of g(1, u)
    reversed; -x is added for odd m since (λ, x) -> (-λ, -x).  If g vanishes
    within its rounding, every direction is an eigenvector, and the critical
    directions of λ(x) = F(x) = x . A x^{m-1}, the roots of F's own tangent
    x_2 dF/dx_1 - x_1 dF/dx_2, stand for them: among them are λ's extremes.
    If that vanishes too, λ is constant and the axes stand for them."""
    if tensor.dim != 2:
        raise ValueError(f"dim-2 solve requires dim = 2, got {tensor.dim}")
    m, eps = tensor.order, np.finfo(float).eps
    (c1, c2), (a1, a2) = _row_forms(tensor.data)
    # m - 1 roundings in each coefficient, one in h's difference, 2m in Horner's rule
    h, noise = _tangent(c1, c2), 3 * m * eps * _tangent(a1, -a2)
    if np.all(np.abs(h) <= noise):  # F = x_1 c1 + x_2 c2; dF/dx_1, dF/dx_2 have (m - j) f[j], j f[j]
        j, f, bound = np.arange(m + 1), _tangent(c2, -c1), _tangent(a2, -a1)
        h = _tangent(((m - j) * f)[:-1], (j * f)[1:])
        noise = 3 * m * eps * _tangent(((m - j) * bound)[:-1], -(j * bound)[1:])
    if np.all(np.abs(h) <= noise):
        X = np.eye(2)
    else:
        u, v = _chart_roots(h[::-1], noise[::-1]), _chart_roots(h, noise)
        X = np.concatenate([np.stack([np.ones_like(u), u], axis=1), np.stack([v, np.ones_like(v)], axis=1)])
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        # Polished multiple roots repeat exactly: rank each direction once, first occurrence first.
        X = X[np.sort(np.unique(X, axis=0, return_index=True)[1])]
        X = np.concatenate([X, -X]) if m % 2 else X
    # Ranked by the residual _finish tests, a failing candidate claims only later ones, which fail too.
    values, residuals = _rayleigh(tensor, X)
    return _finish(tensor, X, values, residuals)


# -- Newton with random restarts ----------------------------------------------


def _start_points(n: int, restarts: int, seed: int) -> np.ndarray:
    """Uniform draws on the unit sphere: the normalized rows of one seeded
    standard-normal block, so row k depends on (seed, k) only."""
    X = np.random.default_rng(seed).standard_normal((restarts, n))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def _newton_step(G: np.ndarray, X: np.ndarray, lam: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(x+, λ+) after the Newton step of A x^{m-1} = λx, x.x = 1 from each
    unit row x of X and its λ, taken as one shifted inverse-iteration solve
    (Peters & Wilkinson, SIAM Review 21, 1979); G, the map's second output,
    is overwritten by B = (m - 1) G - λI, the Jacobian shifted.

    The bordered step solves [[B, -x], [2x^T, 0]] s = [-r; 1 - x.x] for the
    residual r = G x - λx.  B x = (m - 1) r + (m - 2) λx, so with y = B^-1 x
    and x.x = 1 it is x+ = (m - 2) / (m - 1) x + α y and λ+ = λ / (m - 1) + α,
    α = 1 / ((m - 1) x.y).  A singular B's y is NaN, and so is its step; an
    x.y of 0 gives an infinite α.  Both raise numpy's invalid and divide
    flags, which _newton_block silences once around all of its trips."""
    G *= m - 1
    G.reshape(len(X), -1)[:, :: X.shape[1] + 1] -= lam[:, None]
    Y = _umath_linalg.solve1(G, X)  # one dgesv per system, as np.linalg.solve
    alpha = 1.0 / ((m - 1) * np.einsum("zi,zi->z", X, Y))
    return (m - 2) / (m - 1) * X + alpha[:, None] * Y, lam / (m - 1) + alpha


def _newton_block(newton_map, X: np.ndarray, scale: float, final_x, final_lam, final_res) -> None:
    """Iterate the restarts starting at the rows of X.  Restart k that
    converges, its residual at most RESIDUAL_TOL * scale, writes its x,
    Newton λ and loop residual to row k of final_x, final_lam and final_res;
    the rows of the others are left as they are.  Each trip takes every
    active restart's _newton_step in one batched solve, then renormalizes x;
    the finiteness test on the new x and λ drops the restarts whose B was
    singular.

    The block stops at the first trip t >= QUIET_FROM with t >= 2 t_new, or
    at MAX_ITER, and drops the restarts still active there.  t_new is the
    last trip on which a restart converged to a new pair, one that no restart
    of the block had reached before: the latest trip among each cluster's
    first converger, from _distinct over every converged restart ranked by
    the trip it converged on, with |λ| / scale at odd m, where the mirror
    (-λ, -x) of a pair is no new pair.  Until one pair is found the block
    does not stop early.  t_new is counted only on the trips where the stop
    could be due, t >= QUIET_FROM with t >= 2 t_new as last counted (0
    before the first count): the first convergers, taken in trip order, only
    ever grow, so t_new only grows and the stop cannot be due between counts."""
    tol = RESIDUAL_TOL * scale
    AX, G = newton_map(X)
    lam = np.einsum("zi,zi->z", X, AX)
    order = np.arange(len(X))
    trip = np.full(len(X), -1)  # the trip each restart converged on
    t_new = 0  # the last trip with a new pair, as last counted

    def folded(lam):  # λ / scale, without its sign at odd m, where (-λ, -x) mirrors (λ, x)
        return np.abs(lam / scale) if newton_map.order % 2 else lam / scale

    # Desk-scale blocks make many short trips, so the fixed cost of each counts:
    # one errstate (a singular B's step) for all trips, count_nonzero for any / all.
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(MAX_ITER + 1):
            R = AX - lam[:, None] * X
            res = np.sqrt(np.add.reduce(R * R, axis=1))
            done = res <= tol  # NaN fails this and the test below
            if np.count_nonzero(done):
                hit = order[done]
                final_x[hit], final_lam[hit], final_res[hit] = X[done], lam[done], res[done]
                trip[hit] = it
            active = (res > tol) & (res < np.inf)
            kept = np.count_nonzero(active)
            if not kept or it == MAX_ITER:
                break
            if it >= QUIET_FROM and it >= 2 * t_new:  # the stop may be due: count t_new again
                hits = np.flatnonzero(trip >= 0)
                if len(hits):  # the new pairs are each cluster's first converger
                    t_new = int(trip[hits[_distinct(folded(final_lam[hits]), final_x[hits], trip[hits])]].max())
                    if it >= 2 * t_new:
                        break
            if kept < len(active):  # a restart left: keep the others' rows only
                X, lam, G, order = X[active], lam[active], G[active], order[active]

            X, lam = _newton_step(G, X, lam, newton_map.order)
            norms = np.sqrt(np.add.reduce(X * X, axis=1))
            # Beside λ's test: a finite x+ whose norm overflows divides to x = 0, residual 0.
            ok = np.isfinite(norms) & (norms > 1e-12) & np.isfinite(lam)
            if np.count_nonzero(ok) < len(ok):
                X, lam, order, norms = X[ok], lam[ok], order[ok], norms[ok]
            X /= norms[:, None]
            AX, G = newton_map(X)


def z_eigs_newton(tensor: DenseTensor, config: OracleConfig | None = None) -> list[Eigenpair]:
    """Eigenpairs found by Newton's method on the eigen system with the
    unit-norm constraint, from seeded random restarts.

    Restart k starts at row k of the seeded sphere draw and iterates the
    full (n+1)-variable Newton step with the exact Jacobian of the
    contraction map, taken as one n x n solve (_newton_step), renormalizing
    x after every step.  Restarts that fail to reach RESIDUAL_TOL * S within
    MAX_ITER steps, or whose B is singular on the way, are dropped; an empty
    result is legal.  So are those still active when their block stops: at
    the first trip t >= QUIET_FROM with t >= 2 t_new, t_new the last trip on
    which a restart of the block converged to a new pair, one that _distinct
    would not merge, counted again whenever the stop could be due
    (_newton_block).  The stop can drop a rarely hit pair that only a late
    restart reaches.

    For odd m, (x, λ) -> (-x, -λ) maps eigenpairs to eigenpairs.  Restart 2j
    starts at row j and restart 2j + 1 at -row j.  G(-x) = -G(x), so the
    antipode's B = (m - 1) G - λI is -B: it solves to the same y, α changes
    sign, and its step is the negated step, bit for bit.  So its result (-x,
    -λ, the same loop residual) is written down instead of iterated: of R
    restarts only ceil(R / 2) run.  Recall is no worse in distribution: a pair
    that one start reaches with probability q is reached, itself or its
    mirror, with probability 2q, and (1 - 2q)^(R/2) <= (1 - q)^R.  A pair with
    λ = 0 is its own mirror up to sign, so it has the recall of ceil(R / 2)
    starts.

    The restarts run in consecutive blocks whose widest array (the n x n
    maps and systems or the monomials) holds at most BUDGET items, or of one
    restart when that alone exceeds it, so memory does not grow with the
    restart count.  The BLAS picks its GEMM kernel by row count, so another
    block size can change a restart's iterates, the trip on which its block
    stops, and with them which rarely hit pairs are found; the same tensor,
    config and BLAS give the same pairs.  The converged restarts of all
    blocks, with the mirrors for odd m interleaved, go to _finish, ranked by
    their loop residual.
    """
    cfg = config or OracleConfig()
    n, m = tensor.dim, tensor.order
    newton_map = _newton_map(tensor.data)
    iterated = (cfg.restarts + 1) // 2 if m % 2 else cfg.restarts
    starts = _start_points(n, iterated, cfg.seed)
    # Per iterated restart: converged x, Newton λ and loop residual (inf: never converged).
    final_x, final_lam = np.empty((iterated, n)), np.empty(iterated)
    final_res = np.full(iterated, np.inf)
    block = max(1, BUDGET // max(n * n, math.comb(n + m - 3, m - 2)))
    scale = _scale(tensor)
    for lo in range(0, iterated, block):
        rows = slice(lo, lo + block)
        _newton_block(newton_map, starts[rows], scale, final_x[rows], final_lam[rows], final_res[rows])

    if m % 2:  # restart 2j + 1 is restart 2j mirrored
        final_x = np.stack([final_x, -final_x], axis=1).reshape(-1, n)[: cfg.restarts]
        final_lam = np.stack([final_lam, -final_lam], axis=1).reshape(-1)[: cfg.restarts]
        final_res = np.repeat(final_res, 2)[: cfg.restarts]
    hit = np.isfinite(final_res)
    return _finish(tensor, final_x[hit], final_lam[hit], final_res[hit])


# -- verification --------------------------------------------------------------


@dataclass(frozen=True)
class PairCheck:
    """One eigenvalue's verdict in each region; in_omega is also the bound's
    verdict where the bound applies, since omega_max is Omega's supremum."""

    value: float
    in_omega: bool
    in_m: bool
    in_k: bool

    @property
    def passed(self) -> bool:
        return self.in_omega and self.in_m and self.in_k


@dataclass(frozen=True)
class VerificationReport:
    checks: list[PairCheck]
    omega_max: float
    bound_applies: bool
    chain_ok: bool

    @property
    def all_passed(self) -> bool:
        return self.chain_ok and all(c.passed for c in self.checks)

    def failures(self) -> list[PairCheck]:
        return [c for c in self.checks if not c.passed]


def verify_inclusion(tensor: DenseTensor, pairs: list[Eigenpair]) -> VerificationReport:
    """Check every eigenvalue magnitude against the three regions of the
    tensor, each the disk [0, sup]: |λ| <= sup + INCLUSION_TOL * S.  Where
    compare_report finds that the closed-form bound applies (the tensor is
    weakly symmetric and nonnegative), the bound is omega_max, Omega's
    supremum, and Omega's check decides it.  all_passed also requires
    compare_report's bound chain ordering to hold."""
    agg = tensor.aggregates()
    bounds = compare_report(tensor, agg)
    tol = INCLUSION_TOL * _scale(tensor)
    sups = (region_Omega(agg), region_M(agg), region_K(agg))
    # A NaN fails every comparison.
    checks = [PairCheck(pair.value, *(abs(pair.value) <= sup + tol for sup in sups)) for pair in pairs]
    return VerificationReport(checks, bound_omega_max(agg), bounds.bound_applies, bounds.chain_ok)
