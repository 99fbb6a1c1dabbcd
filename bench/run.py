"""zeig benchmark: the real CLI, driven in-process on seeded, generated files.

    python3 bench/run.py --workload verify_desk --seed 0 --seconds 30 --trace 0

Load comes from one closed-loop client: one process, one
`zeig.cli.main([...])` call at a time, back to back, with stdout captured and
checked after each call (see checks.py). numpy/OpenBLAS threads stay at their
default. A run measures whole cycles of the workload (see workloads.py) and
stops at the cycle boundary nearest to --seconds. It prints a report and, as
its last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`:

* --trace 0: the end-to-end metrics setup_s, cal_ops_per_s,
  cal_latency_p50_ms and peak_rss_mb. The `cal_` metrics use calibrated
  times: each command's wall time scaled by the time of the reference kernel
  of reference.py, which runs right after every untraced command, so that the
  drift of a shared host's speed cancels. cal_ops_per_s is commands per
  second of calibrated command time.
* --trace 1: per-layer metrics. Each command runs once untraced and once
  traced, in alternating order; the traced runs give the spans, and the
  difference between the two is the tracing overhead.
* --smoke: one cycle of tiny tensors, for the benchmark's own test.

The report lines above the JSON also give the raw wall-time ops_per_s,
latency_p50_ms and latency_p90_ms (p90 only when a run has at least 100
operations, so ten lie beyond it), failed_frac, the reference kernel's time,
the run's environment, its per-cycle spread and a digest of all outputs.
Full records, including the spans of a traced run, go to bench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from checks import FIXTURE_FLAGS, GOLDEN, Reference, check
from reference import REF_S, kernel_seconds
from spans import Tracer
from workloads import SYM, WORKLOADS, cycle_rng, document, load_document, make_tensor

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SPAWNS = 11
IMPORT_CLI = "import sys; sys.path.insert(0, 'src'); import zeig.cli"


@dataclass
class Op:
    cycle: int
    case: str
    command: str
    seconds: float
    problems: list[str]
    digest: str
    ref_s: float | None = None  # reference kernel time right after an untraced command


def measure_setup(spawns: int) -> float:
    """Median wall time for a fresh interpreter to import zeig.cli."""
    cmd = [sys.executable, "-c", IMPORT_CLI]
    times = []
    for k in range(spawns + 1):  # the first spawn only warms the file cache
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        if k:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def call(argv: list[str], tracer: Tracer | None = None) -> tuple[float, object, str]:
    """One command through zeig.cli.main: wall seconds, exit code, stdout."""
    from zeig import cli

    out = io.StringIO()
    if tracer:
        tracer.install()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = tracer.command(cli.main, argv) if tracer else cli.main(argv)
            except Exception as exc:  # a crash fails this operation, not the run
                code = f"raised {exc!r}"
            seconds = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    return seconds, code, out.getvalue()


def prepare(case, rng, workdir: Path, index: int) -> tuple[Path, Reference]:
    if case.fixture:
        path = ROOT / "fixtures" / f"{case.fixture}.json"
        nonneg, sym, weak = FIXTURE_FLAGS[case.fixture]
        return path, Reference(load_document(path), nonneg, sym, weak, GOLDEN[case.fixture])
    a = make_tensor(case, rng)
    path = workdir / f"{index}.json"
    path.write_text(json.dumps(document(a, case.layout)), encoding="utf-8")
    sym = case.kind == SYM
    return path, Reference(a, sym, sym, sym)


def run_workload(name: str, seed: int, seconds: float, smoke: bool, tracer: Tracer | None,
                 workdir: Path) -> tuple[list[Op], list[Op]]:
    """Whole cycles up to the boundary nearest to `seconds`. Returns the
    untraced and the traced operations; the traced list is empty unless a
    tracer is given."""
    plain, traced = [], []
    start = time.perf_counter()
    cycle = 0
    while True:
        rng = cycle_rng(seed, name, cycle)
        for index, case in enumerate(WORKLOADS[name](smoke)):
            path, ref = prepare(case, rng, workdir, index)
            for command in case.commands:
                argv = [*command, str(path)]
                modes = [None] if tracer is None else [None, tracer]
                if len(plain) % 2:
                    modes.reverse()
                outputs = []
                for mode in modes:
                    secs, code, stdout = call(argv, mode)
                    problems = check(command[0], code, stdout, ref)
                    if outputs and stdout != outputs[0]:
                        problems.append("traced and untraced output differ")
                    outputs.append(stdout)
                    op = Op(cycle, case.label, " ".join(command), secs, problems,
                            hashlib.sha256(stdout.encode()).hexdigest(),
                            kernel_seconds() if mode is None else None)
                    (traced if mode is not None else plain).append(op)
            if not case.fixture:
                path.unlink()
        cycle += 1
        elapsed = time.perf_counter() - start
        if smoke or elapsed + elapsed / cycle / 2 >= seconds:
            return plain, traced


def machine_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast this machine runs right now.

    Timings are not protected by CPU pinning or a fixed clock frequency, so a
    run records this at its start and end to show that spread."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for k in range(200_000):
            total += k & 7
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked from the library."""
    libs = sorted({line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _commit(),
        "loadavg_start": os.getloadavg(),
        "probe_ms_start": machine_probe_ms(),
    }


def _cycle_rates(ops: list[Op]) -> list[float]:
    by_cycle: dict[int, list[float]] = {}
    for op in ops:
        by_cycle.setdefault(op.cycle, []).append(op.seconds)
    return [len(t) / sum(t) for t in by_cycle.values()]


def calibrated(ops: list[Op]) -> list[Op]:
    """The operations with each time scaled by REF_S over the reference kernel
    time measured right after it, in the same state of the host."""
    return [replace(op, seconds=op.seconds * REF_S / op.ref_s) for op in ops]


def end_to_end(ops: list[Op], setup_s: float) -> tuple[dict, list[str]]:
    times = [op.seconds for op in ops]
    cal_times = [op.seconds for op in calibrated(ops)]
    n = len(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "cal_ops_per_s": (n / sum(cal_times), "1/s"),
        "cal_latency_p50_ms": (statistics.median(cal_times) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {
        "ops_per_s": (n / sum(times), "1/s"),
        "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
    }
    notes = {"cal_ops_per_s": f"  (commands per second of calibrated command time, n={n})",
             "cal_latency_p50_ms": f"  (n={n})",
             "ops_per_s": f"  (commands per second of command wall time, n={n})",
             "latency_p50_ms": f"  (wall time, n={n})"}
    lines = [f"{name:<18} {value:.6g} {unit}{notes.get(name, '')}"
             for name, (value, unit) in (metrics | raw).items()]
    if n >= 100:
        lines.append(f"{'latency_p90_ms':<18} {statistics.quantiles(times, n=10)[-1] * 1e3:.6g} ms  (wall time, n={n})")
    else:
        lines.append(f"{'latency_p90_ms':<18} n/a ms  (n={n} < 100, fewer than ten samples beyond p90)")
    ref_ms = [statistics.fmean(op.ref_s for op in ops if op.cycle == c) * 1e3 for c in sorted({op.cycle for op in ops})]
    lines.append(f"reference kernel: mean ms per cycle {' '.join(f'{r:.4g}' for r in ref_ms)} "
                 f"(nominal {REF_S * 1e3:g} ms)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(tracer: Tracer, plain: list[Op], traced: list[Op]) -> tuple[dict, list[str]]:
    metrics = tracer.metrics()
    untraced_s = sum(op.seconds for op in plain)
    traced_s = sum(op.seconds for op in traced)
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "frac")
    metrics["trace.overhead_ms_per_op"] = ((traced_s - untraced_s) / len(traced) * 1e3, "ms")
    lines = [f"{name:<34} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"tracing overhead: traced {traced_s:.4f} s vs untraced {untraced_s:.4f} s "
                 f"over the same {len(traced)} commands")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one cycle of tiny tensors")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zeig" / "cli.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: {ROOT} does not hold the zeig sources (src/zeig) and fixtures", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import zeig.cli  # noqa: F401  (imported before timing)

    env = environment()
    setup_s = None if args.trace else measure_setup(1 if args.smoke else SETUP_SPAWNS)
    tracer = Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    try:
        # Warm-up outside the timed loop: lazy imports and first-call set-up.
        call(["verify", "--json", str(ROOT / "fixtures" / "example2.json")])
        kernel_seconds()
        plain, traced = run_workload(args.workload, args.seed, args.seconds, args.smoke, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    env["probe_ms_end"] = machine_probe_ms()

    ops = plain + traced
    failed = sum(1 for op in ops if op.problems)
    if args.trace:
        metrics, lines = per_layer(tracer, plain, traced)
    else:
        metrics, lines = end_to_end(plain, setup_s)
    rates = _cycle_rates(plain)
    digest = hashlib.sha256("".join(op.digest for op in ops).encode()).hexdigest()
    print(f"# zeig benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("# env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print(line)
    print(f"{'failed_frac':<18} {failed / len(ops):.6g} frac  ({failed} of {len(ops)} operations)")
    print(f"spread: per-cycle ops/s {' '.join(f'{r:.4g}' for r in rates)} (max/min {max(rates) / min(rates):.3f})")
    print(f"output digest (for visibility only): {digest}")
    for op in ops:
        if op.problems:
            print(f"FAILED {op.case} {op.command}: {'; '.join(op.problems)}")

    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    record = {"args": vars(args), "env": env, "result": result, "digest": digest,
              "ops": [asdict(op) for op in ops], "spans": tracer.records() if tracer else []}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
