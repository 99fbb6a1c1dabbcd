"""Brute-force reference implementations and tensor generators for tests.

Everything here enumerates index tuples directly with itertools and
evaluates the defining inequalities literally, staying independent of the
library's numpy contractions and interval algebra.
"""

import itertools
import math

import numpy as np

from zeig.oracle import Eigenpair
from zeig.tensor import DenseTensor


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
    n, m = tensor.dim, tensor.order
    return sum(
        abs(tensor.entry((i,) + t)) for t in itertools.product(range(1, n + 1), repeat=m - 1)
    )


def brute_partial_row_sum(tensor, j, i):
    n, m = tensor.dim, tensor.order
    others = [k for k in range(1, n + 1) if k != i]
    return sum(abs(tensor.entry((j,) + t)) for t in itertools.product(others, repeat=m - 1))


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


def brute_poly_value(tensor, x):
    total = 0.0
    for t in itertools.product(range(1, tensor.dim + 1), repeat=tensor.order):
        term = tensor.entry(t)
        for c in t:
            term *= x[c - 1]
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
                D[j - 1, i - 1] = abs(tensor.entry((j,) + (i,) * (tensor.order - 1)))
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


def region_endpoints(region):
    out = []
    for iv in region.intervals:
        out.extend([iv.lo, iv.hi])
    return out


# -- angle sweep scan -------------------------------------------------------------


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
