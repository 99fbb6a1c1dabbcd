"""Brute-force reference implementations and tensor generators for tests.

Everything here enumerates index tuples directly with itertools and
evaluates the defining inequalities literally, staying independent of the
library's numpy contractions and region suprema.  One exception: the
fresh-array Newton kernels at the end are a bit-exact reference and a
cross-check of the step, not brute ones.
"""

import itertools
import json
import math

import numpy as np

from zeig import oracle
from zeig.oracle import DEDUPE_TOL_LAMBDA, DEDUPE_TOL_X, MAX_ITER, RESIDUAL_TOL, Eigenpair
from zeig.tensor import MAX_ABS_VALUE, MAX_ENTRIES, DenseTensor, TensorFormatError, _canonical_classes


# -- generators ----------------------------------------------------------------


def diagonal_tensor(diag, order):
    n = len(diag)
    data = np.zeros((n,) * order)
    for k, v in enumerate(diag):
        data[(k,) * order] = v
    return DenseTensor(data, copy=False)


def symmetrize(data):
    m = data.ndim
    out = np.zeros_like(data)
    for perm in itertools.permutations(range(m)):
        out += np.transpose(data, axes=perm)
    return out / math.factorial(m)


def random_tensor(rng, order, dim, signed=False):
    data = rng.random((dim,) * order)
    if signed:
        data = 2.0 * data - 1.0
    return DenseTensor(data, copy=False)


def random_symmetric_tensor(rng, order, dim, signed=False):
    data = rng.random((dim,) * order)
    if signed:
        data = 2.0 * data - 1.0
    return DenseTensor(symmetrize(data), copy=False)


def random_dyadic_tensor(rng, order, dim, signed=False):
    """Entries are multiples of 1/8, so float sums are exact in any order."""
    lo = -16 if signed else 0
    data = rng.integers(lo, 17, size=(dim,) * order) / 8.0
    return DenseTensor(data, copy=False)


def weak_by_construction(rng, data):
    """A copy of the symmetric array data with v moved between two orderings
    of one tail: the row's tail sums and every class sum stay put, so it stays
    weakly symmetric, but one class splits, so it is not symmetric."""
    order, dim = data.ndim, data.shape[0]
    a, b = rng.choice(dim, size=2, replace=False)
    rest = tuple(rng.integers(dim, size=order - 3))
    row = int(rng.integers(dim))
    v = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)
    weak = np.array(data)
    weak[(row, a, b) + rest] += v
    weak[(row, b, a) + rest] -= v
    return weak


def permuted_tensor(tensor, perm):
    """Relabel indices: entry at (i1..im) moves to (perm[i1]..perm[im])."""
    inv = np.argsort(perm)
    data = tensor.data[np.ix_(*([inv] * tensor.order))]
    return DenseTensor(data)


def rank_one_tensor(x, order):
    data = np.array(x, dtype=float)
    out = data
    for _ in range(order - 1):
        out = np.multiply.outer(out, data)
    return DenseTensor(out, copy=False)


# -- brute-force tensor operations ----------------------------------------------


def brute_row_sum(tensor, i):
    """Row i (1-based) summed in absolute value."""
    n, m = tensor.dim, tensor.order
    return sum(abs(float(tensor.data[(i - 1,) + t])) for t in itertools.product(range(n), repeat=m - 1))


def brute_partial_row_sum(tensor, j, i):
    """Row j summed in absolute value over the tuples avoiding index i (1-based)."""
    n, m = tensor.dim, tensor.order
    others = [k for k in range(n) if k != i - 1]
    return sum(abs(float(tensor.data[(j - 1,) + t])) for t in itertools.product(others, repeat=m - 1))


def brute_contract(tensor, x, slots):
    """The last `slots` axes contracted with x, by enumerating index tuples."""
    n, m = tensor.dim, tensor.order
    x = [float(v) for v in x]
    entries = iter(tensor.data.reshape(-1).tolist())  # row-major: the tail varies fastest
    out = []
    for _ in range(n ** (m - slots)):
        acc = 0.0
        for tail in itertools.product(range(n), repeat=slots):
            term = next(entries)
            for c in tail:
                term *= x[c]
            acc += term
        out.append(acc)
    return np.array(out).reshape((n,) * (m - slots))


def brute_apply(tensor, x):
    return brute_contract(tensor, x, tensor.order - 1)


def brute_jacobian(tensor, x):
    """J[i, k] = d(A x^{m-1})_i / dx_k: the product rule on every index tuple,
    one term per tail slot holding k."""
    n, m = tensor.dim, tensor.order
    x = [float(v) for v in x]
    entries = iter(tensor.data.reshape(-1).tolist())  # row-major: the tail varies fastest
    J = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for tail in itertools.product(range(n), repeat=m - 1):
            a = next(entries)
            for s, k in enumerate(tail):
                term = a
                for r, c in enumerate(tail):
                    if r != s:
                        term *= x[c]
                J[i][k] += term
    return np.array(J)


def brute_poly_value(tensor, x):
    total = 0.0
    for t in itertools.product(range(tensor.dim), repeat=tensor.order):
        term = float(tensor.data[t])
        for c in t:
            term *= x[c]
        total += term
    return total


def brute_aggregates(tensor):
    n = tensor.dim
    R = np.array([brute_row_sum(tensor, i) for i in range(1, n + 1)])
    P = np.zeros((n, n))
    D = np.zeros((n, n))
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            if i != j:
                P[j - 1, i - 1] = brute_partial_row_sum(tensor, j, i)
                D[j - 1, i - 1] = abs(float(tensor.data[(j - 1,) + (i - 1,) * (tensor.order - 1)]))
    return R, P, D


def brute_is_symmetric(tensor, tol=1e-10):
    """Permutation classes as dict keys; each class must agree within tol
    relative to its largest magnitude (absolute tol for all-zero classes)."""
    groups = {}
    for t in itertools.product(range(tensor.dim), repeat=tensor.order):
        groups.setdefault(tuple(sorted(t)), []).append(float(tensor.data[t]))
    for vals in groups.values():
        lo, hi = min(vals), max(vals)
        scale = max(abs(lo), abs(hi))
        if hi - lo > (tol * scale if scale > 0.0 else tol):
            return False
    return True


def brute_is_weakly_symmetric(tensor, tol=1e-10):
    """Expand the gradient of the degree-m form and m * apply() into monomial
    coefficient dicts, tuple by tuple, and compare them row by row (tol
    relative to the row's largest coefficient, absolute when that is zero)."""
    n, m = tensor.dim, tensor.order
    lhs = [{} for _ in range(n)]
    rhs = [{} for _ in range(n)]
    for t in itertools.product(range(n), repeat=m):
        v = float(tensor.data[t])
        key = tuple(sorted(t[1:]))
        lhs[t[0]][key] = lhs[t[0]].get(key, 0.0) + m * v
        for i in set(t):
            rem = list(t)
            rem.remove(i)
            key = tuple(sorted(rem))
            rhs[i][key] = rhs[i].get(key, 0.0) + t.count(i) * v
    for i in range(n):
        scale = max(abs(v) for v in [*lhs[i].values(), *rhs[i].values()])
        limit = tol * scale if scale > 0.0 else tol
        for key in lhs[i].keys() | rhs[i].keys():
            if abs(lhs[i].get(key, 0.0) - rhs[i].get(key, 0.0)) > limit:
                return False
    return True


def brute_canonical_classes(order, dim):
    """For every index tuple in row-major order, the flat index of its sorted
    copy, taken digit by digit."""
    ids = []
    for t in itertools.product(range(dim), repeat=order):
        flat = 0
        for k in sorted(t):
            flat = flat * dim + k
        ids.append(flat)
    return np.array(ids)


# -- item-by-item parser --------------------------------------------------------

_DOCUMENT_FIELDS = {"order", "dim", "default", "entries", "values"}


def _require_number(value, where: str, *at) -> float:
    """value as a finite float.  Errors name the field ``where.format(*at)``,
    formatted only when raising, as in ``_require_int``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TensorFormatError(f"{where.format(*at)}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise TensorFormatError(f"{where.format(*at)}: integer is out of the floating-point range") from None
    if not math.isfinite(number):
        raise TensorFormatError(f"{where.format(*at)}: value must be finite, got {value!r}")
    if abs(number) > MAX_ABS_VALUE:
        raise TensorFormatError(f"{where.format(*at)}: magnitude must be <= {MAX_ABS_VALUE:g}, got {value!r}")
    return number


def _require_int(value, where: str, *at) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TensorFormatError(f"{where.format(*at)}: expected an integer, got {value!r}")
    return value


def brute_parse_tensor(text: str) -> DenseTensor:
    """The item-by-item parser: every value, index component and tuple is
    checked in its own Python step, in document order.

    The document declares ``order`` and ``dim`` and supplies entries either
    sparsely (``entries`` with 1-based index tuples over an optional
    ``default`` fill) or densely (``values``, flat row-major with the last
    index fastest).  Unknown fields, duplicate index tuples, out-of-range
    indices, non-finite values and values of magnitude above MAX_ABS_VALUE
    are all hard errors.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also integer literals past 4300 digits, deep nesting
        raise TensorFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise TensorFormatError("top-level value must be an object")
    unknown = sorted(set(doc) - _DOCUMENT_FIELDS)
    if unknown:
        raise TensorFormatError(f"unknown field(s): {', '.join(unknown)}")
    for field in ("order", "dim"):
        if field not in doc:
            raise TensorFormatError(f"missing required field '{field}'")
    order = _require_int(doc["order"], "order")
    dim = _require_int(doc["dim"], "dim")
    if order < 2:
        raise TensorFormatError(f"order: must be >= 2, got {order}")
    if dim < 2:
        raise TensorFormatError(f"dim: must be >= 2, got {dim}")
    # dim >= 2, so an order of MAX_ENTRIES.bit_length() or more is already too
    # large; testing it first keeps dim**order from being computed for a huge order.
    if order >= MAX_ENTRIES.bit_length() or dim**order > MAX_ENTRIES:
        raise TensorFormatError(f"dim^order: {dim}^{order} entries exceed the limit of {MAX_ENTRIES}")
    if "entries" in doc and "values" in doc:
        raise TensorFormatError("fields 'entries' and 'values' are mutually exclusive")
    if "values" in doc and "default" in doc:
        raise TensorFormatError("field 'default' is not allowed alongside 'values'")

    shape = (dim,) * order
    if "values" in doc:
        values = doc["values"]
        if not isinstance(values, list):
            raise TensorFormatError("values: expected an array")
        expected = dim**order
        if len(values) != expected:
            raise TensorFormatError(f"values: expected {expected} numbers (dim^order), got {len(values)}")
        flat = [_require_number(v, "values[{}]", k) for k, v in enumerate(values)]
        data = np.array(flat, dtype=float).reshape(shape)
        return DenseTensor(data, copy=False)

    default = _require_number(doc["default"], "default") if "default" in doc else 0.0
    data = np.full(shape, default)
    entries = doc.get("entries", [])
    if not isinstance(entries, list):
        raise TensorFormatError("entries: expected an array")
    seen: set[tuple] = set()
    for k, item in enumerate(entries):
        if not isinstance(item, dict) or set(item) != {"idx", "value"}:
            raise TensorFormatError(f"entries[{k}]: expected an object with exactly 'idx' and 'value'")
        idx = item["idx"]
        if not isinstance(idx, list) or len(idx) != order:
            raise TensorFormatError(f"entries[{k}].idx: expected an array of {order} indices")
        offsets = []
        for pos, component in enumerate(idx):
            component = _require_int(component, "entries[{}].idx[{}]", k, pos)
            if not 1 <= component <= dim:
                raise TensorFormatError(f"entries[{k}].idx[{pos}]: index {component} out of range [1, {dim}]")
            offsets.append(component - 1)
        offsets = tuple(offsets)
        if offsets in seen:
            raise TensorFormatError(f"entries[{k}].idx: duplicate index tuple {idx}")
        seen.add(offsets)
        data[offsets] = _require_number(item["value"], "entries[{}].value", k)
    return DenseTensor(data, copy=False)


# -- brute-force region membership (defining inequalities, no intervals) --------


def brute_in_K(R, P, D, r):
    return any(r <= R_i for R_i in R)


def brute_in_M(R, P, D, r):
    n = len(R)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = D[i, j]
            if (r - (R[i] - d)) * (r - P[j, i]) <= d * (R[j] - P[j, i]):
                return True
            if r < R[i] - d and r < P[j, i]:
                return True
    return False


def brute_in_Omega(R, P, D, r):
    n = len(R)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if r < P[i, j] and r < P[j, i]:
                return True
            if r <= R[i] and (r - P[i, j]) * (r - P[j, i]) <= (R[i] - P[i, j]) * (R[j] - P[j, i]):
                return True
    return False


def brute_delta(R, P, i, j):
    """Literal transcription of the half-sum-plus-radical closed form."""
    p, q = P[i, j], P[j, i]
    return 0.5 * (p + q + math.sqrt((p - q) ** 2 + 4.0 * (R[i] - p) * (R[j] - q)))


# -- angle sweep (dim-2 reference) ------------------------------------------------


def sign_change_indices(g):
    """The grid indices the angle sweep refines, walked one point at a time:
    the first zero of every run of zeros, and every strict sign change."""
    found = []
    for k in range(len(g) - 1):
        if g[k] == 0.0:
            if k == 0 or g[k - 1] != 0.0:
                found.append(k)
            continue
        if g[k] * g[k + 1] < 0.0:
            found.append(k)
    return found


def sign_change_candidates(g):
    """sign_change_indices in whole-array form: g[k] is the first zero of a
    run of zeros, or g changes sign strictly between k and k + 1."""
    head, prev = g[:-1], np.concatenate(([1.0], g[:-2]))
    return np.flatnonzero(((head == 0.0) & (prev != 0.0)) | (head * g[1:] < 0.0))


def brute_tangent(tensor, X):
    """g = (A x^{m-1})_1 x_2 - (A x^{m-1})_2 x_1 at each row x of X, summed
    one index tuple at a time."""
    ax = np.zeros((len(X), 2))
    for idx in itertools.product(range(2), repeat=tensor.order):
        ax[:, idx[0]] += tensor.data[idx] * np.prod(X[:, list(idx[1:])], axis=1)
    return ax[:, 0] * X[:, 1] - ax[:, 1] * X[:, 0]


def brute_sweep_n2(tensor, grid_size=100_000):
    """Eigenpairs of a dimension-2 tensor by sweeping the unit circle.

    Scans g(t) at x = (cos t, sin t) on a uniform grid over [0, 2*pi) and
    refines every sign change by bisection until |g| <= 1e-13; for a unit
    vector the residual of the Rayleigh pair equals |g(t)|.  Complete up to
    grid resolution for roots where g changes sign, blind to the others
    (even multiplicity).  A g that is zero up to rounding everywhere gives
    a sign change at nearly every grid point: keep such tensors away.
    """
    thetas = np.linspace(0.0, 2.0 * math.pi, grid_size + 1)
    g = brute_tangent(tensor, np.stack([np.cos(thetas), np.sin(thetas)], axis=1))
    roots = []
    if np.all(g == 0.0):  # every direction is an eigenvector; the axes stand for them
        roots = [0.0, 0.5 * math.pi]
    else:
        for k in sign_change_candidates(g):
            if g[k] == 0.0:
                roots.append(float(thetas[k]))
                continue
            a, b, fa = float(thetas[k]), float(thetas[k + 1]), float(g[k])
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm = float(brute_tangent(tensor, np.array([[math.cos(mid), math.sin(mid)]]))[0])
                if abs(fm) <= 1e-13 or (b - a) <= 1e-16:
                    break
                if (fm > 0.0) == (fa > 0.0):
                    a, fa = mid, fm
                else:
                    b = mid
            roots.append(mid)
    found = []
    for t in roots:
        x = np.array([math.cos(t), math.sin(t)])
        ax = brute_apply(tensor, x)
        value = float(x @ ax)
        found.append(Eigenpair(value, x, float(np.linalg.norm(ax - value * x))))
    found.sort(key=lambda p: p.residual)
    kept = brute_dedupe(found, DEDUPE_TOL_LAMBDA, DEDUPE_TOL_X)
    return sorted(kept, key=lambda p: (-p.value, tuple(p.x)))


# -- eigenpair deduplication ------------------------------------------------------


def brute_dedupe(pairs: list[Eigenpair], tol_lambda: float, tol_x: float) -> list[Eigenpair]:
    """Collapse eigenpairs equal up to tolerance and vector sign.

    Within a duplicate cluster the pair with the smallest residual wins,
    so the reported witness is the best available one.
    """
    kept: list[Eigenpair] = []
    for cand in pairs:
        for pos, have in enumerate(kept):
            if abs(cand.value - have.value) <= tol_lambda and min(
                np.linalg.norm(cand.x - have.x), np.linalg.norm(cand.x + have.x)
            ) <= tol_x:
                if cand.residual < have.residual:
                    kept[pos] = cand
                break
        else:
            kept.append(cand)
    return kept


# -- finite differences -----------------------------------------------------------


def finite_difference_jacobian(tensor, x, step=1e-6):
    n = tensor.dim
    J = np.zeros((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = step
        J[:, k] = (tensor.apply(x + e) - tensor.apply(x - e)) / (2.0 * step)
    return J


# -- the fresh-array Newton kernels --------------------------------------------------
#
# The Newton map, step solve, restart loop and dedupe in their first, plainest
# form: every array of every step allocated anew, every restart compacted on
# every step, every candidate compared with every other.  The restart loop
# ends at the library's stop, with t_new tracked from trip 0: each restart
# that converges is compared with every one converged before it.  One restart
# loop, two steps: reference_shifted_newton_block takes the library's step,
# one n x n solve of B y = x, and must do the same floating-point operations
# in the same order, so z_eigs_newton with it swapped in must give the same
# bits; reference_newton_block takes the same Newton step from the bordered
# (n+1) x (n+1) system instead, an independent check of that step that agrees
# within rounding, not in the bits.  Kept verbatim: do not tidy.


def reference_newton_map(data: np.ndarray):
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

    evaluate.order = m
    return evaluate


def reference_distinct(values: np.ndarray, X: np.ndarray, rank: np.ndarray) -> list[int]:
    unclaimed = np.ones(len(values), dtype=bool)
    kept = []
    for k in np.argsort(rank, kind="stable").tolist():
        if unclaimed[k]:
            kept.append(k)
            near = np.minimum(np.linalg.norm(X - X[k], axis=1), np.linalg.norm(X + X[k], axis=1))
            unclaimed &= (np.abs(values - values[k]) > DEDUPE_TOL_LAMBDA) | (near > DEDUPE_TOL_X)
    return kept


def reference_solve_newton_steps(J: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def bordered_newton_step(J: np.ndarray, AX: np.ndarray, X: np.ndarray, lam: np.ndarray):
    """Each row's x + s_x and λ + s_λ for the solution s of its bordered
    system [[J - λI, -x], [2x^T, 0]] s = -[A x^{m-1} - λx; x.x - 1], the mask
    of the nonsingular systems, and the systems."""
    n = X.shape[1]
    full = np.zeros((len(X), n + 1, n + 1))
    full[:, :n, :n] = J - lam[:, None, None] * np.eye(n)
    full[:, :n, n] = -X
    full[:, n, :n] = 2.0 * X
    F = np.concatenate([AX - lam[:, None] * X, (np.einsum("zi,zi->z", X, X) - 1.0)[:, None]], axis=1)
    steps, ok = reference_solve_newton_steps(full, F)
    return X + steps[:, :n], lam + steps[:, n], ok, full


def shifted_newton_step(J: np.ndarray, X: np.ndarray, lam: np.ndarray, m: int):
    """The same step from y = B^-1 x, B = J - λI: B x = (m-1) r + (m-2) λ x."""
    Y, ok = reference_solve_newton_steps(J - lam[:, None, None] * np.eye(X.shape[1]), -X)
    with np.errstate(divide="ignore", invalid="ignore"):  # the singular rows, dropped by ok
        alpha = 1.0 / ((m - 1) * np.einsum("zi,zi->z", X, Y))
        return (m - 2) / (m - 1) * X + alpha[:, None] * Y, lam / (m - 1) + alpha, ok


def _reference_restarts(step, newton_map, X: np.ndarray, scale, final_x, final_lam, final_res) -> None:
    tol = RESIDUAL_TOL * scale
    AX, J = newton_map(X)
    lam = np.einsum("zi,zi->z", X, AX)
    order = np.arange(len(X))
    found, t_new = [], None  # (λ / scale, x) of every converged restart; the last trip with a new pair

    for it in range(MAX_ITER + 1):
        res = np.linalg.norm(AX - lam[:, None] * X, axis=1)
        good = np.isfinite(res)
        done = good & (res <= tol)
        hit = order[done]
        final_x[hit], final_lam[hit], final_res[hit] = X[done], lam[done], res[done]
        for value, x in zip(lam[done] / scale, X[done]):
            if newton_map.order % 2:  # (-λ, -x) is the mirror of (λ, x), no new pair
                value = abs(value)
            if not any(
                abs(value - v) <= DEDUPE_TOL_LAMBDA
                and min(np.linalg.norm(x - y), np.linalg.norm(x + y)) <= DEDUPE_TOL_X
                for v, y in found
            ):
                t_new = it
            found.append((value, x))
        active = good & ~done
        quiet = t_new is not None and it >= oracle.QUIET_FROM and it >= 2 * t_new
        if not np.any(active) or it == MAX_ITER or quiet:
            break
        X, lam, AX, J, order = X[active], lam[active], AX[active], J[active], order[active]

        X, lam, ok = step(J, AX, X, lam)
        norms = np.linalg.norm(X, axis=1)
        ok &= np.isfinite(norms) & (norms > 1e-12) & np.isfinite(lam)
        X, lam, order, norms = X[ok], lam[ok], order[ok], norms[ok]
        X = X / norms[:, None]
        AX, J = newton_map(X)


def reference_newton_block(newton_map, X: np.ndarray, *out) -> None:
    _reference_restarts(lambda J, AX, X, lam: bordered_newton_step(J, AX, X, lam)[:3], newton_map, X, *out)


def reference_shifted_newton_block(newton_map, X: np.ndarray, *out) -> None:
    _reference_restarts(lambda J, AX, X, lam: shifted_newton_step(J, X, lam, newton_map.order), newton_map, X, *out)


# -- JSON rendering --------------------------------------------------------------


def brute_render_json(value, indent: int = 2, level: int = 0) -> str:
    """The CLI's JSON layout, one value at a time: floats with 17 significant
    digits, two-space indent, one item per line, empty containers inline."""
    pad, close_pad = " " * (indent * (level + 1)), " " * (indent * level)
    if isinstance(value, dict) and value:
        items = [pad + json.dumps(k) + ": " + brute_render_json(v, indent, level + 1) for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + close_pad + "}"
    if isinstance(value, (list, tuple)) and value:
        items = [pad + brute_render_json(v, indent, level + 1) for v in value]
        return "[\n" + ",\n".join(items) + "\n" + close_pad + "]"
    if isinstance(value, (dict, list, tuple)):
        return "{}" if isinstance(value, dict) else "[]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")
