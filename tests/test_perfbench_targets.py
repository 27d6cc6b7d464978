"""The benchmark's layer trace must find every name it wraps."""
from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_and_is_restored():
    spans = _spans_module()
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert len(tracer._saved) == len(spans.TARGETS)
        for owner, field, original in tracer._saved:
            assert callable(original), (owner, field)
            assert getattr(owner, field) is not original, (owner, field)
    finally:
        saved = list(tracer._saved)
        tracer.uninstall()
    for owner, field, original in saved:
        assert getattr(owner, field) is original, (owner, field)
