"""Output checks for every benchmark operation, independent of the library.

Each check recomputes what it needs from the tensor the file describes with
its own arithmetic, and compares values with tolerances rather than bytes, so
a change that only moves last bits still passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

REL_TOL = 1e-9  # relative tolerance on compared values
NORM_TOL = 1e-9  # | ||x|| - 1 |
RESIDUAL_TOL = 1e-9  # residual, relative to max(1, max row sum)

# Structure of the paper fixtures: (nonnegative, symmetric, weakly symmetric).
FIXTURE_FLAGS = {"example1": (True, True, True), "example2": (True, False, True)}

# Golden values of the paper fixtures: `verify --json` at seed 0 and 1000 restarts.
GOLDEN = {
    "example1": {"omega_max": 4.3970633623780984, "eigenvalues": [0.20668985153197686, 3.1092097524732014]},
    "example2": {"omega_max": 11.726812023536855, "max_abs_lambda": 6.558213362199448},
}


def apply_batch(a: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Row i of A contracted with x in every trailing slot, for each row of xs."""
    n, m = a.shape[0], a.ndim
    outer = xs
    for _ in range(m - 2):
        outer = (outer[:, :, None] * xs[:, None, :]).reshape(len(xs), -1)
    return outer @ a.reshape(n, -1).T


@dataclass
class Reference:
    """What a tensor file is known to be, from how it was made."""

    a: np.ndarray
    nonnegative: bool
    symmetric: bool
    weakly_symmetric: bool
    golden: dict | None = None

    @property
    def bound_applies(self) -> bool:
        return self.nonnegative and self.weakly_symmetric

    @cached_property
    def row_sums(self) -> np.ndarray:
        return np.abs(self.a).reshape(self.a.shape[0], -1).sum(axis=1)

    @cached_property
    def omega_max(self) -> float:
        """Largest over ordered pairs (i, j) of max(min(P_ij, P_ji), min(R_i, delta_ij))."""
        n, m = self.a.shape[0], self.a.ndim
        absa = np.abs(self.a).reshape(n, -1)
        partial = np.empty((n, n))  # partial[j, i]: row j over index tuples that avoid i
        for i in range(n):
            w = np.ones(n)
            w[i] = 0.0
            avoid = w
            for _ in range(m - 2):
                avoid = np.multiply.outer(avoid, w).ravel()
            partial[:, i] = absa @ avoid
        r = self.row_sums
        p, q = partial, partial.T
        c = np.maximum(0.0, r[:, None] - p) * np.maximum(0.0, r[None, :] - q)
        delta = 0.5 * (p + q + np.sqrt((p - q) ** 2 + 4.0 * c))
        best = np.maximum(np.minimum(p, q), np.minimum(r[:, None], delta))
        np.fill_diagonal(best, -np.inf)
        return float(best.max())


def _close(got, want: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= REL_TOL * max(1.0, abs(want))


def _at_most(got: float, limit: float) -> bool:
    return got <= limit + REL_TOL * max(1.0, abs(limit))


def _eigenpair_problems(pairs: list, ref: Reference) -> list[str]:
    if not pairs:
        return ["no eigenpair found for a symmetric tensor"] if ref.symmetric else []
    lam = np.array([p["lambda"] for p in pairs], dtype=float)
    xs = np.array([p["x"] for p in pairs], dtype=float)
    problems = []
    if np.any(np.abs(np.linalg.norm(xs, axis=1) - 1.0) > NORM_TOL):
        problems.append("eigenvector not of unit norm")
    max_row = float(ref.row_sums.max())
    res = np.linalg.norm(apply_batch(ref.a, xs) - lam[:, None] * xs, axis=1)
    if np.any(res > RESIDUAL_TOL * max(1.0, max_row)):
        problems.append(f"residual {res.max():.3g} above tolerance")
    top = float(np.abs(lam).max())
    if not _at_most(top, max_row):
        problems.append(f"|lambda| {top!r} above max row sum {max_row!r}")
    if ref.bound_applies and not _at_most(top, ref.omega_max):
        problems.append(f"|lambda| {top!r} above omega_max {ref.omega_max!r}")
    return problems


def _check_verify(doc, ref: Reference) -> list[str]:
    problems = _eigenpair_problems(doc["eigenpairs"], ref)
    if doc["method"] != ("sweep" if ref.a.shape[0] == 2 else "newton"):
        problems.append(f"unexpected method {doc['method']}")
    if doc["bound_applies"] is not ref.bound_applies:
        problems.append("bound_applies disagrees with how the tensor was made")
    if not (doc["chain_ok"] and doc["all_passed"]):
        problems.append("verification did not pass")
    if len(doc["checks"]) != len(doc["eigenpairs"]):
        problems.append("one check per eigenpair expected")
    if not _close(doc["omega_max"], ref.omega_max):
        problems.append(f"omega_max {doc['omega_max']!r} != {ref.omega_max!r}")
    golden = ref.golden or {}
    lams = [p["lambda"] for p in doc["eigenpairs"]]
    if "omega_max" in golden and not _close(doc["omega_max"], golden["omega_max"]):
        problems.append("golden omega_max differs")
    if "max_abs_lambda" in golden and not (lams and _close(max(map(abs, lams)), golden["max_abs_lambda"])):
        problems.append("golden largest |lambda| differs")
    if "eigenvalues" in golden and not (
        len(lams) == len(golden["eigenvalues"])
        and all(_close(g, w) for g, w in zip(sorted(lams), golden["eigenvalues"]))
    ):
        problems.append("golden eigenvalues differ")
    return problems


def _check_bounds(doc, ref: Reference) -> list[str]:
    problems = []
    om, middle, gersh = doc["omega_max"], doc["chain_middle"], doc["gershgorin"]
    if not (_at_most(om, middle) and _at_most(middle, gersh)):
        problems.append("omega_max <= chain_middle <= gershgorin fails")
    if not _close(om, ref.omega_max):
        problems.append(f"omega_max {om!r} != {ref.omega_max!r}")
    if not _close(om, max(doc["omega_hat_max"], doc["omega_tilde_max"])):
        problems.append("omega_max is not max(omega_hat_max, omega_tilde_max)")
    if not _close(gersh, float(ref.row_sums.max())):
        problems.append("gershgorin is not the max row sum")
    if len(doc["warnings"]) != (not ref.nonnegative) + (not ref.weakly_symmetric):
        problems.append(f"unexpected warnings {doc['warnings']}")
    return problems


def _check_regions(doc, ref: Reference) -> list[str]:
    problems = []
    for name in ("K", "M", "Omega"):
        ivs = doc[name]["intervals"]
        if doc[name]["supremum"] != (ivs[-1]["hi"] if ivs else 0.0):
            problems.append(f"sup {name} is not its last upper endpoint")
    k = doc["K"]["intervals"]
    max_row = float(ref.row_sums.max())
    if not (len(k) == 1 and k[0]["lo"] == 0.0 and _close(k[0]["hi"], max_row)
            and not k[0]["lo_open"] and not k[0]["hi_open"]):
        problems.append("K is not [0, max row sum]")
    sup = {name: doc[name]["supremum"] for name in ("K", "M", "Omega")}
    if not (_at_most(sup["Omega"], sup["M"]) and _at_most(sup["M"], sup["K"])):
        problems.append("sups not nested Omega <= M <= K")
    if not _close(sup["Omega"], ref.omega_max):
        problems.append(f"sup Omega {sup['Omega']!r} != omega_max {ref.omega_max!r}")
    return problems


def _check_info(doc, ref: Reference) -> list[str]:
    m, n = ref.a.ndim, ref.a.shape[0]
    problems = []
    if (doc["order"], doc["dim"], doc["entry_count"]) != (m, n, n**m):
        problems.append("order, dim or entry count wrong")
    for flag in ("nonnegative", "symmetric", "weakly_symmetric"):
        if doc[flag] is not getattr(ref, flag):
            problems.append(f"{flag} disagrees with how the tensor was made")
    rows = doc["row_sums"]
    if len(rows) != n or not all(_close(g, w) for g, w in zip(rows, ref.row_sums)):
        problems.append("row sums differ")
    if not _close(doc["max_row_sum"], float(ref.row_sums.max())):
        problems.append("max row sum differs")
    return problems


_CHECKS = {"eigs": _eigenpair_problems, "verify": _check_verify, "bounds": _check_bounds,
           "regions": _check_regions, "info": _check_info}


def check(command: str, code, stdout: str, ref: Reference) -> list[str]:
    """Problems with one command's exit code and JSON output; empty when correct."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(stdout)
        return _CHECKS[command](doc, ref)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]

