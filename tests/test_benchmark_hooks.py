"""The benchmark's tracer wraps program callables by name; a name that goes
missing would only blank its per-layer figures, so this test fails instead."""
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_callable_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert len(tracer._patches) == len(tracing.ANALYSIS_CALLS) + 3
    finally:
        tracer.restore()
