"""Seeded inputs and command schedules for the benchmark workloads.

A workload is a fixed cycle of cases. A case is one tensor file plus the
`zeig` commands run on it, one command per operation. The shapes in a cycle
are fixed, so every run measures the same mix and a seed changes only the
entries. Cycle k of a run draws its tensors from (seed, workload, k), so the
same seed gives the same files however fast the program is. The program only
ever sees the JSON files written here.

Generated tensors come in two kinds, drawn without any rejection step:

* ``sym``: nonnegative and fully symmetric, so the spectral-radius bound
  applies.
* ``sgn``: signed and provably not weakly symmetric, so only the regions
  apply.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SYM = "sym"
SGN = "sgn"
DENSE = "dense"
SPARSE = "sparse"
SPARSE_DENSITY = 0.3

VERIFY = ("verify", "--json")
EIGS = ("eigs", "--method", "newton", "--json")
INFO = ("info", "--json")
BOUNDS = ("bounds", "--json")
REGIONS = ("regions", "--set", "all", "--json")


@dataclass(frozen=True)
class Case:
    order: int
    dim: int
    kind: str
    layout: str
    commands: tuple[tuple[str, ...], ...]
    fixture: str | None = None  # a repository fixture instead of a generated tensor

    @property
    def label(self) -> str:
        name = self.fixture or f"{self.kind}-{self.layout}"
        return f"m{self.order}n{self.dim}-{name}"


def _generated(shapes, kinds_layouts, commands) -> list[Case]:
    return [Case(m, n, kind, layout, commands) for m, n in shapes for kind, layout in kinds_layouts]


def verify_desk(smoke: bool) -> list[Case]:
    # The paper's own use: `zeig verify` at the default 1000 restarts on
    # desk-scale tensors, orders 3-5 and dims 2-5. Fixed per-call oracle
    # costs dominate it: start-point seeding, einsum re-planning and the
    # 100k-point dim-2 sweep. About a third of the cases are dim 2 and go to
    # the sweep. Half the generated tensors are nonnegative symmetric (the
    # bound applies), half signed (regions only). The two paper fixtures ride
    # along with their golden values. (5, 4) and (5, 5) are left out: Newton
    # stalls on their signed tensors make them the slowest and most variable
    # calls (0.5-3 s), which newton_large measures.
    fixtures = [
        Case(4, 2, SYM, SPARSE, (VERIFY,), fixture="example1"),
        Case(3, 3, SYM, DENSE, (VERIFY,), fixture="example2"),
    ]
    both = ((SYM, DENSE), (SGN, DENSE))
    if smoke:
        return fixtures + _generated([(3, 2), (3, 3)], both, (VERIFY,))
    shapes = [(m, n) for m in (3, 4, 5) for n in (2, 3, 4, 5) if (m, n) not in ((5, 4), (5, 5))]
    extra_dim2 = [Case(3, 2, SGN, DENSE, (VERIFY,)), Case(4, 2, SYM, DENSE, (VERIFY,)),
                  Case(5, 2, SGN, DENSE, (VERIFY,))]
    return fixtures + _generated(shapes, both, (VERIFY,)) + extra_dim2


def newton_large(smoke: bool) -> list[Case]:
    # `zeig eigs --method newton` at 1000 restarts on order 4-5, dim 5-9
    # tensors, half nonnegative symmetric and half signed. The contraction
    # arithmetic of the Newton kernel is nearly all of each call, and its
    # n^(m-1) x restarts intermediates set the peak RSS. Signed tensors use the
    # kernel differently: many restarts stall until max_iter. `eigs` calls no
    # predicates. Larger shapes ((4, 10), (5, 6) and up) cost 4-10 s a call
    # and would leave too few calls in a run to measure a rate. The one extra
    # signed (4, 8) case makes the count odd and puts the median call on
    # (4, 9) symmetric, whose time varies least from tensor to tensor, instead
    # of in the gap between two shapes.
    both = ((SYM, DENSE), (SGN, DENSE))
    if smoke:
        return _generated([(4, 3)], both, (EIGS,))
    return _generated([(4, 5), (4, 7), (4, 9), (5, 5)], both, (EIGS,)) + [Case(4, 8, SGN, DENSE, (EIGS,))]


def bounds_wide(smoke: bool) -> list[Case]:
    # `zeig info`, `bounds` and `regions --set all` on order-3 dim 20-40 and
    # order-4 dim 8-14 tensors; the oracle never runs. Parsing, the
    # aggregates, the O(n^2) pair loops and the Python-loop symmetry
    # predicates dominate. Half the documents are dense `values`, half sparse
    # `entries`; each kind appears in both layouts across the shapes.
    commands = (INFO, BOUNDS, REGIONS)
    shapes = [(3, 4), (4, 3)] if smoke else [(3, 20), (3, 30), (3, 40), (4, 8), (4, 11), (4, 14)]
    cases = []
    for k, (m, n) in enumerate(shapes):
        layouts = (DENSE, SPARSE) if k % 2 == 0 else (SPARSE, DENSE)
        cases += [Case(m, n, SYM, layouts[0], commands), Case(m, n, SGN, layouts[1], commands)]
    return cases


WORKLOADS = {"verify_desk": verify_desk, "newton_large": newton_large, "bounds_wide": bounds_wide}


def cycle_rng(seed: int, workload: str, cycle: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), cycle])


def make_tensor(case: Case, rng: np.random.Generator) -> np.ndarray:
    m, n = case.order, case.dim
    shape = (n,) * m
    density = SPARSE_DENSITY if case.layout == SPARSE else 1.0
    if case.kind == SYM:
        # One value per index multiset, so every permutation class is exactly equal.
        b = rng.random(shape) * (rng.random(shape) < density)
        classes = np.sort(np.indices(shape).reshape(m, -1), axis=0)
        return b[tuple(classes)].reshape(shape)
    a = rng.standard_normal(shape) * (rng.random(shape) < density)
    # Make weak symmetry fail for certain: with every row-2 entry on the
    # multiset {1, 2^(m-1)} zeroed, the x_2^(m-1) coefficient of component 1 of
    # the gradient of the form is c, while m * (A x^(m-1))_1 gives m * c.
    # c < 0 also makes the tensor signed.
    a[(0,) + (1,) * (m - 1)] = -1.0 - rng.random()
    for p in range(1, m):
        idx = [1] * m
        idx[p] = 0
        a[tuple(idx)] = 0.0
    return a


def document(a: np.ndarray, layout: str) -> dict:
    doc = {"order": a.ndim, "dim": a.shape[0]}
    if layout == DENSE:
        doc["values"] = a.ravel().tolist()
    else:
        doc["entries"] = [{"idx": (t + 1).tolist(), "value": float(a[tuple(t)])} for t in np.argwhere(a != 0.0)]
    return doc


def load_document(path: Path) -> np.ndarray:
    """The tensor a file describes, read without the library's parser."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    shape = (doc["dim"],) * doc["order"]
    if "values" in doc:
        return np.array(doc["values"], dtype=float).reshape(shape)
    a = np.full(shape, float(doc.get("default", 0.0)))
    for item in doc.get("entries", []):
        a[tuple(k - 1 for k in item["idx"])] = item["value"]
    return a
