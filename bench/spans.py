"""Per-layer spans recorded from outside the program.

The tracer replaces each layer's public functions, at the place where the
caller looks them up, with a wrapper that records a span: layer, start, end
and the id of the enclosing span. `from .x import f` copies live in
`zeig.cli` and `zeig.oracle`, `cli._REGION_BUILDERS` holds its own
references, and `DenseTensor` methods are replaced on the class. Nothing is
patched while the tracer is not installed. Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

ROOT = "cli"  # the span around one whole command; its self time is cli.other
LAYERS = ("tensor.parse", "tensor.aggregates", "tensor.predicates", "regions", "bounds",
          "oracle.sweep", "oracle.newton", "oracle.verify", "cli.render", "cli.other")
COUNTS = ("tensor.entries", "oracle.newton.restarts", "oracle.newton.pairs_found", "oracle.sweep.pairs_found")


def _count_parse(counts, args, kwargs, result):
    counts["tensor.entries"] += result.dim**result.order


def _count_newton(counts, args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs.get("config")
    counts["oracle.newton.restarts"] += getattr(config, "restarts", 0)
    counts["oracle.newton.pairs_found"] += len(result)


def _count_sweep(counts, args, kwargs, result):
    counts["oracle.sweep.pairs_found"] += len(result)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []  # id, parent, op, layer, start, end
        self.counts: Counter = Counter()
        self.ops = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _targets(self):
        from zeig import cli, oracle
        from zeig.tensor import DenseTensor

        yield cli, "parse_tensor", "tensor.parse", _count_parse
        yield DenseTensor, "aggregates", "tensor.aggregates", None
        for name in ("is_nonnegative", "is_symmetric", "is_weakly_symmetric"):
            yield DenseTensor, name, "tensor.predicates", None
        for owner in (cli, oracle):
            for name in ("region_K", "region_M", "region_Omega"):
                yield owner, name, "regions", None
        for name in cli._REGION_BUILDERS:
            yield cli._REGION_BUILDERS, name, "regions", None
        yield cli, "compare_report", "bounds", None
        yield oracle, "bound_omega_max", "bounds", None
        yield cli, "z_eigs_sweep_n2", "oracle.sweep", _count_sweep
        yield cli, "z_eigs_newton", "oracle.newton", _count_newton
        yield cli, "verify_inclusion", "oracle.verify", None
        yield cli, "render_json", "cli.render", None

    def install(self) -> None:
        for owner, name, layer, count in self._targets():
            original = owner[name] if isinstance(owner, dict) else vars(owner)[name]
            self._set(owner, name, self._wrap(layer, original, count))
            self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patched:
            self._set(*self._patched.pop())

    @staticmethod
    def _set(owner, name, value) -> None:
        if isinstance(owner, dict):
            owner[name] = value
        else:
            setattr(owner, name, value)

    def _open(self, layer: str) -> tuple:
        sid = len(self.spans)
        self.spans.append(None)  # placeholder keeps ids in start order
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, layer, time.perf_counter()

    def _close(self, token: tuple) -> None:
        end = time.perf_counter()
        sid, parent, layer, start = token
        self._stack.pop()
        self.spans[sid] = (sid, parent, self.ops, layer, start, end)

    def _wrap(self, layer, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(token)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def command(self, fn, *args):
        """Run one whole command under the root span."""
        token = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(token)
            self.ops += 1

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Self time per command, share of command time and calls per command for
        each layer, plus the work counts, as name -> (value, unit)."""
        child_time = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_time, calls = defaultdict(float), Counter()
        command_time = 0.0
        for sid, parent, _, layer, start, end in self.spans:
            if layer == ROOT:
                layer = "cli.other"
                command_time += end - start
            self_time[layer] += end - start - child_time[sid]
            calls[layer] += 1
        ops = max(self.ops, 1)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_time[layer] / ops, "s")
            out[f"{layer}.share"] = (self_time[layer] / command_time if command_time else 0.0, "frac")
            out[f"{layer}.calls_per_op"] = (calls[layer] / ops, "1/op")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        restarts = self.counts["oracle.newton.restarts"]
        pairs = self.counts["oracle.newton.pairs_found"] / restarts if restarts else 0.0
        out["oracle.newton.pairs_per_restart"] = (pairs, "1/restart")
        return out

    def records(self) -> list[dict]:
        return [dict(zip(("id", "parent", "op", "layer", "start", "end"), span)) for span in self.spans]
