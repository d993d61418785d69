"""The benchmark's tracer (``perfbench/spans.py``) wraps library functions
by name, so a rename must fail here rather than in a benchmark run."""

from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    for name, owner, attr, _ in spans.layer_functions():
        assert callable(getattr(owner, attr)), name
