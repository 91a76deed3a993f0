"""The benchmark's tracer wraps program callables by name; a name that goes
missing would only blank its per-layer figures, so these tests fail instead."""
from pathlib import Path

from transelect import cli, simulate
from transelect.likelihood import MhConfig

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


def test_every_wrapped_callable_leaves_a_described_span(monkeypatch, tmp_path):
    """Each wrapped name is still called through the module the tracer patches,
    and run_mh and evidence_quadrature still get the LikelihoodContext and the
    prior that the per-family metrics are keyed on."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    y = simulate.generate(simulate.ScenarioSpec("gamma", 50, seed=3))
    cfg = simulate.AnalysisConfig(mh=MhConfig(burn_in=300, draws=1000), chib_draws=500)
    argv = ["sweep", "--axis", "gamma-skewness", "--points", "2", "--n", "50",
            "--replications", "1", "--methods", "quadrature", "--prior", "a",
            "--out", str(tmp_path / "sweep")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for prior_kind in tracing.PRIORS:
            simulate.analyze_dataset(y, prior_kind, cfg)
        assert tracer.call("cli.main", cli.main, argv) == 0
    finally:
        tracer.restore()

    named = {s.name for s in tracer.spans}
    wrapped = tracing.ANALYSIS_CALLS + ("analyze_dataset", "run_sweep")
    assert [name for name in wrapped if name not in named] == []
    per_family = [s for s in tracer.spans if s.name in ("run_mh", "evidence_quadrature")]
    assert [s.name for s in per_family].count("run_mh") == 8
    assert [s.name for s in per_family].count("evidence_quadrature") == 12
    # the loglik counter: quadrature.loglik_calls.* reads ctx_loglik
    assert all(s.ctx_loglik > 0 for s in per_family if s.name == "evidence_quadrature")
    undescribed = [(s.name, s.family, s.prior) for s in per_family
                   if s.family is None or s.prior is None or s.ctx is None]
    assert undescribed == []
