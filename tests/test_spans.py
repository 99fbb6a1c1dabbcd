"""The names the benchmark's tracer patches must exist where it looks them up.

bench/spans.py raises KeyError on install if one of its targets was renamed
or deleted; this test makes that a Tier-1 failure, not only a benchmark one.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing is written under bench/
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, name):
    return owner[name] if isinstance(owner, dict) else vars(owner)[name]


def test_tracer_wraps_each_target_and_restores_it(monkeypatch):
    tracer = _load_spans(monkeypatch).Tracer()
    targets = [(owner, name) for owner, name, _, _ in tracer._targets()]
    assert len(targets) == 20
    originals = [_current(owner, name) for owner, name in targets]
    tracer.install()
    try:
        for (owner, name), original in zip(targets, originals):
            wrapper = _current(owner, name)
            assert wrapper is not original, name
            assert wrapper.__wrapped__ is original, name
    finally:
        tracer.uninstall()
    for (owner, name), original in zip(targets, originals):
        assert _current(owner, name) is original, name
