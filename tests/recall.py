"""Recall of the Newton block stop: the pairs that stopping blocks of restarts early loses.

Run from anywhere, with numpy installed, at one BLAS thread (the BLAS picks
its kernels by thread count too, and with them a restart's iterates):

    OPENBLAS_NUM_THREADS=1 python tests/recall.py [--floors 40 20] [--check]

The tensors are the generated ones of the verify_desk and newton_large
benchmark workloads that `zeig` solves by Newton (dim 3 and up), seeds 0-3,
cycles 0-1, drawn by bench/workloads.py as a benchmark run draws them.  Each
is solved by z_eigs_newton at the default config once with the blocks
stopping from each floor given (oracle.QUIET_FROM when none is), and once
with QUIET_FROM above MAX_ITER, where no block stops early.  A pair of the
run without the stop is lost at a floor when no pair of that floor's run
matches it within the dedupe tolerances: λ within DEDUPE_TOL_LAMBDA * S, x
within DEDUPE_TOL_X up to sign.  Its rank is 1 plus the number of distinct
|λ| above its own in the run without the stop (|λ| within DEDUPE_TOL_LAMBDA
* S are one), so a pair and its mirror share a rank, and rank 1 is the
tensor's largest |λ|.  Row-trips count the restarts each Newton map call
evaluates: one per active restart per trip.

Prints one JSON document, per floor and workload: the tensors, the pairs of
the run without the stop, the pairs lost with their tensor and rank, and the
row-trips.  With --check the exit status is 1 when a tensor loses a pair of
rank 1 at any floor.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from workloads import WORKLOADS, cycle_rng, make_tensor  # noqa: E402

from zeig import oracle  # noqa: E402
from zeig.tensor import DenseTensor  # noqa: E402

NAMES = ("verify_desk", "newton_large")
SEEDS = (0, 1, 2, 3)
CYCLES = (0, 1)


def newton_tensors(name: str):
    """(seed, cycle, case label, tensor) of each tensor the workload solves by Newton."""
    for seed in SEEDS:
        for cycle in CYCLES:
            rng = cycle_rng(seed, name, cycle)
            for case in WORKLOADS[name](False):
                if case.fixture:  # a repository fixture draws nothing
                    continue
                a = make_tensor(case, rng)
                if case.dim > 2:  # dim 2 goes to the exact solve
                    yield seed, cycle, case.label, DenseTensor(a)


def solve(tensor: DenseTensor, quiet_from: int) -> tuple[list[oracle.Eigenpair], int]:
    """z_eigs_newton's pairs with the stop from quiet_from, and its row-trips."""
    saved_map, saved_floor = oracle._newton_map, oracle.QUIET_FROM
    rows = 0

    def counted_map(data):
        evaluate = saved_map(data)

        def counted(X):
            nonlocal rows
            rows += len(X)
            return evaluate(X)

        counted.order = evaluate.order
        return counted

    oracle._newton_map, oracle.QUIET_FROM = counted_map, quiet_from
    try:
        return oracle.z_eigs_newton(tensor), rows
    finally:
        oracle._newton_map, oracle.QUIET_FROM = saved_map, saved_floor


def lost_ranks(full: list[oracle.Eigenpair], found: list[oracle.Eigenpair], scale: float) -> list[tuple[float, int]]:
    """(λ, |λ| rank) of each pair of full that no pair of found matches."""
    tol = oracle.DEDUPE_TOL_LAMBDA * scale
    levels = np.sort(np.abs([p.value for p in full]))[::-1]
    levels = levels[np.concatenate([[True], -np.diff(levels) > tol])]  # one |λ| per run of near-equal ones
    lost = []
    for p in full:
        if not any(abs(p.value - q.value) <= tol
                   and min(np.linalg.norm(p.x - q.x), np.linalg.norm(p.x + q.x)) <= oracle.DEDUPE_TOL_X
                   for q in found):
            lost.append((p.value, 1 + int(np.count_nonzero(levels > abs(p.value) + tol))))
    return lost


def measure(floors: list[int]) -> dict:
    report = {"restarts": oracle.OracleConfig.restarts, "seed": oracle.OracleConfig.seed,
              "max_iter": oracle.MAX_ITER, "seeds": list(SEEDS), "cycles": list(CYCLES), "workloads": {}}
    for name in NAMES:
        rows = {"unstopped": 0, **{str(f): 0 for f in floors}}
        tally = {str(f): {"pairs_lost": 0, "lost": []} for f in floors}
        tensors = pairs = 0
        for seed, cycle, label, tensor in newton_tensors(name):
            full, trips = solve(tensor, oracle.MAX_ITER + 1)
            tensors, pairs = tensors + 1, pairs + len(full)
            rows["unstopped"] += trips
            for floor in floors:
                found, trips = solve(tensor, floor)
                rows[str(floor)] += trips
                lost = lost_ranks(full, found, oracle._scale(tensor))
                tally[str(floor)]["pairs_lost"] += len(lost)
                tally[str(floor)]["lost"] += [{"seed": seed, "cycle": cycle, "case": label, "lambda": value,
                                               "rank": rank} for value, rank in lost]
        report["workloads"][name] = {"tensors": tensors, "pairs_unstopped": pairs, "row_trips": rows,
                                     "floors": tally}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--floors", type=int, nargs="+", default=[oracle.QUIET_FROM],
                        help="stop floors to measure (default: oracle.QUIET_FROM)")
    parser.add_argument("--check", action="store_true", help="exit 1 if a tensor loses its largest |λ|")
    args = parser.parse_args(argv)
    report = measure(args.floors)
    print(json.dumps(report, indent=2))
    largest = [(name, floor, item) for name, doc in report["workloads"].items()
               for floor, tally in doc["floors"].items() for item in tally["lost"] if item["rank"] == 1]
    for name, floor, item in largest:
        print(f"{name} at floor {floor}: {item['case']} (seed {item['seed']}, cycle {item['cycle']}) "
              f"loses its largest |λ|, {item['lambda']!r}", file=sys.stderr)
    return 1 if args.check and largest else 0


if __name__ == "__main__":
    sys.exit(main())
