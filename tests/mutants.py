"""Mutation checks: each tolerance and verdict behind verify's result must matter to a test.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

Each entry names a file, an exact text that occurs once in it, the text to
put in its place, and the tests (pytest node ids) that must catch the change.
For each entry the script copies src/, tests/, fixtures/ and pyproject.toml
to a temporary directory, makes the one edit there and runs the tests with
-x, importing zeig from the copy.  The mutant is killed when they fail.  An
entry with a `survives` reason is a change that the tests are expected to
pass; the reason says why the constant does not decide what they check.

Exit status 0 when every mutant is killed and every expected survivor
survives.  It is 1 when a mutant survives, an expected survivor is killed,
an entry's text does not occur exactly once in its file (the list has gone
stale), or the tests fail on the unmutated tree, which is checked first.
pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "fixtures", "pyproject.toml")
TOLERANCES = "tests/test_tolerances.py::"
SUPS = "sups = (region_Omega(agg), region_M(agg), region_K(agg))"
OMEGA_TOP = "return _read_only(np.maximum(np.minimum(top, R[i]), np.minimum(p, q)))"
BOUND_APPLIES = "return self.nonnegative and self.weakly_symmetric"
ROOT_IMAG_TESTS = ("tests/test_oracle.py", "tests/test_cli.py::test_verify_all_ones_order_22")
STOP_TEST = "tests/test_oracle.py::test_newton_block_stops_at_twice_the_last_trip_with_a_new_pair"
DEDUPE_X_TEST = TOLERANCES + "test_dedupe_merges_vectors_within_1e_6_up_to_sign_and_keeps_them_apart_beyond"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    survives: str | None = None


MUTANTS = [
    Mutant("INCLUSION_TOL x100", "src/zeig/oracle.py", "INCLUSION_TOL = 1e-8 ", "INCLUSION_TOL = 1e-6 ",
           (TOLERANCES + "test_inclusion_tol_is_1e_8_of_s_at_each_region_and_the_bound",)),
    Mutant("INCLUSION_TOL / 100", "src/zeig/oracle.py", "INCLUSION_TOL = 1e-8 ", "INCLUSION_TOL = 1e-10 ",
           (TOLERANCES + "test_inclusion_tol_is_1e_8_of_s_at_each_region_and_the_bound",)),
    Mutant("_finish's RESIDUAL_TOL gate x1000", "src/zeig/oracle.py",
           "ok = residuals <= RESIDUAL_TOL * scale", "ok = residuals <= 1000 * RESIDUAL_TOL * scale",
           (TOLERANCES + "test_finish_reports_a_residual_within_1e_12_of_s_and_drops_one_beyond",)),
    Mutant("_finish's RESIDUAL_TOL gate / 100", "src/zeig/oracle.py",
           "ok = residuals <= RESIDUAL_TOL * scale", "ok = residuals <= RESIDUAL_TOL / 100 * scale",
           (TOLERANCES + "test_finish_reports_a_residual_within_1e_12_of_s_and_drops_one_beyond",)),
    Mutant("DEFAULT_STRUCT_TOL x100", "src/zeig/tensor.py", "DEFAULT_STRUCT_TOL = 1e-10", "DEFAULT_STRUCT_TOL = 1e-8",
           (TOLERANCES + "test_weak_symmetry_limit_is_1e_10_of_the_largest_fold_entry",)),
    Mutant("DEFAULT_STRUCT_TOL / 100", "src/zeig/tensor.py", "DEFAULT_STRUCT_TOL = 1e-10", "DEFAULT_STRUCT_TOL = 1e-12",
           (TOLERANCES + "test_weak_symmetry_limit_is_1e_10_of_the_largest_fold_entry",)),
    Mutant("_CHAIN_SLACK x1000", "src/zeig/regions.py", "_CHAIN_SLACK = 1e-12", "_CHAIN_SLACK = 1e-9",
           (TOLERANCES + "test_chain_slack_is_1e_12_of_gershgorin",)),
    Mutant("_CHAIN_SLACK / 10", "src/zeig/regions.py", "_CHAIN_SLACK = 1e-12", "_CHAIN_SLACK = 1e-13",
           (TOLERANCES + "test_chain_slack_is_1e_12_of_gershgorin",)),
    Mutant("DEDUPE_TOL_LAMBDA x10", "src/zeig/oracle.py", "DEDUPE_TOL_LAMBDA = 1e-8", "DEDUPE_TOL_LAMBDA = 1e-7",
           (TOLERANCES + "test_dedupe_merges_values_within_1e_8_and_keeps_them_apart_beyond",)),
    Mutant("DEDUPE_TOL_X x10", "src/zeig/oracle.py", "DEDUPE_TOL_X = 1e-6", "DEDUPE_TOL_X = 1e-5", (DEDUPE_X_TEST,)),
    Mutant("DEDUPE_TOL_X / 10", "src/zeig/oracle.py", "DEDUPE_TOL_X = 1e-6", "DEDUPE_TOL_X = 1e-7", (DEDUPE_X_TEST,)),
    Mutant("Newton's convergence test x10", "src/zeig/oracle.py",
           "    tol = RESIDUAL_TOL * scale\n", "    tol = 10 * RESIDUAL_TOL * scale\n",
           ("tests/test_oracle.py::test_newton_bit_exact_across_restart_blocks",)),
    Mutant("QUIET_FROM 10", "src/zeig/oracle.py", "QUIET_FROM = 20 ", "QUIET_FROM = 10 ",
           ("tests/test_oracle.py::test_newton_stop_from_quiet_from_keeps_a_pair_that_a_stop_from_trip_10_drops",)),
    Mutant("QUIET_FROM 40", "src/zeig/oracle.py", "QUIET_FROM = 20 ", "QUIET_FROM = 40 ",
           ("tests/test_oracle.py::test_newton_stops_the_stalled_block_at_quiet_from_with_the_same_pairs",)),
    Mutant("the Newton stop at t >= t_new", "src/zeig/oracle.py", "if it >= 2 * t_new:", "if it >= t_new:",
           (STOP_TEST,)),
    Mutant("the Newton stop without the |λ| fold at odd m", "src/zeig/oracle.py",
           "return np.abs(lam / scale) if newton_map.order % 2 else lam / scale", "return lam / scale",
           ("tests/test_oracle.py::test_newton_block_takes_the_mirror_of_a_found_pair_as_no_new_pair",)),
    Mutant("the Newton stop counting only at QUIET_FROM", "src/zeig/oracle.py",
           "if it >= QUIET_FROM and it >= 2 * t_new:", "if it == QUIET_FROM:", (STOP_TEST,)),
    Mutant("PairCheck.passed without in_omega", "src/zeig/oracle.py",
           "return self.in_omega and self.in_m and self.in_k", "return self.in_m and self.in_k",
           ("tests/test_cli.py::test_verify_injected_escape_fails",)),
    *(Mutant(f"verify_inclusion's {name} supremum inf", "src/zeig/oracle.py", SUPS, SUPS.replace(call, "math.inf"),
             (TOLERANCES + "test_inclusion_tol_is_1e_8_of_s_at_each_region_and_the_bound",))
      for name, call in (("Omega", "region_Omega(agg)"), ("M", "region_M(agg)"), ("K", "region_K(agg)"))),
    *(Mutant(f"bound_applies from or, on {case.replace('_', ' ')}", "src/zeig/regions.py", BOUND_APPLIES,
             BOUND_APPLIES.replace(" and ", " or "), (f"tests/test_bounds.py::test_bound_does_not_apply_to_{case}",))
      for case in ("a_symmetric_tensor_with_a_negative_entry", "a_nonnegative_tensor_that_is_not_weakly_symmetric")),
    Mutant("M's pair top without its max(p, q) floor", "src/zeig/regions.py",
           "return _read_only(np.maximum(top, np.maximum(p, q)))", "return _read_only(top)",
           ("tests/test_bounds.py::test_chain_middle_reaches_band_centres_when_the_root_rounds_down",)),
    Mutant("Omega's pair top without its floor at the cap", "src/zeig/regions.py", OMEGA_TOP,
           "return _read_only(np.minimum(top, R[i]))",
           ("tests/test_regions.py::test_each_pair_band_joins_its_box_into_one_interval",)),
    Mutant("Omega's pair top without its clip to R_i", "src/zeig/regions.py", OMEGA_TOP,
           "return _read_only(np.maximum(top, np.minimum(p, q)))",
           ("tests/test_bounds.py::test_band_top_matches_literal_closed_form",)),
    Mutant("omega_hat_max from np.maximum", "src/zeig/regions.py",
           "np.minimum(P[i, j], P[j, i]).max()", "np.maximum(P[i, j], P[j, i]).max()",
           ("tests/test_cli.py::test_json_output_matches_golden_bytes",)),
    Mutant("_ROOT_IMAG 0.5", "src/zeig/oracle.py", "_ROOT_IMAG = 0.25 ", "_ROOT_IMAG = 0.5 ",
           ROOT_IMAG_TESTS,
           survives="A wider filter only admits more candidates, which _chart_roots polishes and _finish's "
                    "residual gate drops or _distinct merges."),
    Mutant("_ROOT_IMAG 0.1", "src/zeig/oracle.py", "_ROOT_IMAG = 0.25 ", "_ROOT_IMAG = 0.1 ",
           ROOT_IMAG_TESTS,
           survives="The ring that np.roots makes of a k-fold root is symmetric about the real axis; on k-fold "
                    "clusters with k <= 22, alone or beside simple roots, its member nearest the axis was "
                    "measured at most 0.041 off it, which 0.1 still passes."),
]


def _pytest(tree: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)


def _copy(into: Path) -> Path:
    tree = into / "tree"
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        else:
            shutil.copy2(source, tree / name)
    return tree


def run(mutant: Mutant) -> tuple[bool, str]:
    """(as expected, one line of report)."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="zeig-mutant-") as scratch:
        tree = _copy(Path(scratch))
        path = tree / mutant.file
        text = path.read_text(encoding="utf-8")
        count = text.count(mutant.old)
        if count != 1:
            return False, f"STALE    {mutant.name}: {mutant.old!r} occurs {count} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        result = _pytest(tree, mutant.tests)
    seconds = time.perf_counter() - start
    if result.returncode not in (0, 1):  # interrupted, usage error or nothing collected: no verdict
        return False, f"ERROR    {mutant.name}: pytest exited {result.returncode}\n{result.stdout}{result.stderr}"
    killed = result.returncode == 1
    verdict = "killed" if killed else "survived"
    expected = killed != bool(mutant.survives)
    flag = "ok      " if expected else "UNEXPECTED"
    return expected, f"{flag} {verdict:8} {seconds:5.1f}s  {mutant.name}"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="zeig-mutant-") as scratch:
        tests = sorted({test for mutant in MUTANTS for test in mutant.tests})
        baseline = _pytest(_copy(Path(scratch)), tests)
    if baseline.returncode != 0:
        print(f"the selected tests fail on the unmutated tree:\n{baseline.stdout}{baseline.stderr}")
        return 1
    with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
        outcomes = list(pool.map(run, MUTANTS))
    for _, line in outcomes:
        print(line)
    failed = sum(not ok for ok, _ in outcomes)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
