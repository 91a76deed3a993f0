"""Spans and counters recorded around the calls into transelect's layers.

The tracer replaces module attributes (the names `transelect.simulate` and
`transelect.cli` call) with wrappers that open a span per call, and counts
`LikelihoodContext.loglik` calls against the innermost open span. Nothing in
the program changes; `restore()` puts every original back.
"""
from __future__ import annotations

import functools
import json
import time
from statistics import mean

from checks import FAMILIES, PARAMETRIC
from transelect import cli, simulate
from transelect.families import Family
from transelect.likelihood import LikelihoodContext, MhConfig

# Calls made by analyze_dataset, through transelect.simulate's namespace.
ANALYSIS_CALLS = ("prepare", "make_imaginary", "estimate_dual_anchor",
                  "build_power_prior", "build_unit_info_prior", "run_mh",
                  "evidence_chib", "evidence_laplace_metropolis",
                  "evidence_quadrature", "posterior_model_probs")
SETUP_CALLS = ("prepare", "make_imaginary", "estimate_dual_anchor")
PRIORS = ("A", "B")
# Metric-name prefixes fed by each wrapped function; they read as absent
# when the function no longer exists.
_PER_ANALYSIS = ("priors.", "likelihood.mh", "likelihood.loglik_calls", "evidence.",
                 "quadrature.", "simulate.self_ms", "trace.")
FEEDS = {
    "prepare": ("priors.setup_ms",),
    "make_imaginary": ("priors.setup_ms",),
    "estimate_dual_anchor": ("priors.setup_ms",),
    "build_power_prior": ("priors.power_prior_ms", "likelihood.loglik_calls.power_prior"),
    "build_unit_info_prior": ("priors.unit_info_ms",),
    "run_mh": ("likelihood.mh_", "likelihood.loglik_calls.mh"),
    "evidence_chib": ("evidence.chib_ms", "likelihood.loglik_calls.chib"),
    "evidence_laplace_metropolis": (),
    "evidence_quadrature": ("evidence.quadrature_ms", "quadrature.loglik_calls"),
    "posterior_model_probs": (),
    "analyze_dataset": _PER_ANALYSIS + ("simulate.sweep_self_ms",),
    "run_sweep": ("simulate.sweep_self_ms", "cli.self_ms"),
    "loglik": ("likelihood.loglik_", "quadrature.loglik_calls"),
}


class Span:
    __slots__ = ("id", "name", "parent", "analysis", "start", "end",
                 "family", "prior", "steps", "accept", "ctx", "loglik", "ctx_loglik")

    def __init__(self, sid, name, parent, analysis):
        self.id, self.name, self.parent, self.analysis = sid, name, parent, analysis
        self.start = self.end = 0
        self.family = self.prior = self.steps = self.accept = self.ctx = None
        self.loglik = self.ctx_loglik = 0

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__ if k != "ctx"}


def _describe(span: Span, args, kwargs) -> None:
    for a in (*args, *kwargs.values()):
        if isinstance(a, LikelihoodContext):
            span.family, span.ctx = a.family.value, a
        elif isinstance(a, Family):
            span.family = a.value
        elif isinstance(a, MhConfig):
            span.steps = a.burn_in + a.draws
        elif isinstance(a, str) and a in PRIORS:
            span.prior = a
        elif getattr(a, "kind", None) in PRIORS:
            span.prior = a.kind
        elif getattr(a, "prior_kind", None) in PRIORS:
            span.prior = a.prior_kind


class Tracer:
    """In-memory spans for one process; install() patches, restore() unpatches."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._analyses = 0

    def install(self) -> None:
        for name in ANALYSIS_CALLS + ("analyze_dataset",):
            self._wrap(simulate, name)
        self._wrap(cli, "run_sweep")
        self._wrap(LikelihoodContext, "loglik", counter=True)

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        span = self._open(name, args, kwargs)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _open(self, name, args, kwargs) -> Span:
        parent = self._stack[-1] if self._stack else None
        analysis = parent.analysis if parent else None
        if name == "analyze_dataset":
            self._analyses += 1
            analysis = self._analyses
        span = Span(len(self.spans), name, parent.id if parent else None, analysis)
        _describe(span, args, kwargs)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, owner, name: str, counter: bool = False) -> None:
        original = getattr(owner, name, None)
        if original is None:
            self.absent.append(f"{owner.__name__}.{name}")
            return
        tracer = self
        if counter:
            @functools.wraps(original)
            def wrapper(ctx, *args, **kwargs):
                if tracer._stack:
                    span = tracer._stack[-1]
                    span.loglik += 1
                    if ctx is span.ctx:
                        span.ctx_loglik += 1
                return original(ctx, *args, **kwargs)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span = tracer._open(name, args, kwargs)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(span)
                span.accept = getattr(result, "accept_rate", None)
                return result
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def self_ms(spans: list[Span], span: Span) -> float:
    """Span duration minus the durations of its direct children."""
    return span.ms - sum(s.ms for s in spans if s.parent == span.id)


def check_self_times(spans: list[Span]) -> None:
    """Each analysis's child spans lie inside it and do not overlap, so the
    children plus `simulate.self_ms` add up to the analysis wall time."""
    for a in (s for s in spans if s.name == "analyze_dataset"):
        kids = sorted((s for s in spans if s.parent == a.id), key=lambda s: s.start)
        edges = [a.start] + [t for k in kids for t in (k.start, k.end)] + [a.end]
        if edges != sorted(edges):
            raise AssertionError(f"analysis {a.analysis}: child spans overlap")


def _avg(values) -> float:
    values = list(values)
    return float(mean(values)) if values else 0.0


def layer_metrics(tracer: Tracer, loglik_us: dict[str, float],
                  overhead_pct: float) -> dict[str, tuple[float | None, str]]:
    """Per-layer metrics (name -> (value, unit)) from the tracer's spans.

    Per-analysis sums are averaged over the analyses of each prior; per-call
    figures over the calls. A layer the workload never calls reads 0; a
    function that no longer exists to be wrapped reads None (absent).
    """
    spans = tracer.spans
    analyses = [s for s in spans if s.name == "analyze_dataset"]
    by_analysis: dict[int, list[Span]] = {a.analysis: [] for a in analyses}
    for s in spans:
        if s.analysis is not None and s.name != "analyze_dataset":
            by_analysis[s.analysis].append(s)

    def per_analysis(prior, names, field="ms"):
        return _avg(sum(getattr(s, field) for s in by_analysis[a.analysis] if s.name in names)
                    for a in analyses if prior is None or a.prior == prior)

    def per_call(name, family, prior, field):
        return _avg(getattr(s, field) for s in spans
                    if s.name == name and s.family == family and s.prior == prior)

    m: dict[str, tuple[float | None, str]] = {
        "priors.setup_ms": (per_analysis(None, SETUP_CALLS), "ms"),
        "priors.power_prior_ms": (per_analysis("A", ("build_power_prior",)), "ms"),
        "priors.unit_info_ms": (per_analysis("B", ("build_unit_info_prior",)), "ms"),
        "likelihood.loglik_calls.power_prior.A":
            (per_analysis("A", ("build_power_prior",), "loglik"), "count"),
    }
    for p in PRIORS:
        m[f"likelihood.mh_s.{p}"] = (per_analysis(p, ("run_mh",)) / 1e3, "s")
        m[f"likelihood.loglik_calls.mh.{p}"] = (per_analysis(p, ("run_mh",), "loglik"), "count")
        m[f"likelihood.loglik_calls.chib.{p}"] = (per_analysis(p, ("evidence_chib",), "loglik"), "count")
        m[f"evidence.chib_ms.{p}"] = (per_analysis(p, ("evidence_chib",)), "ms")
        m[f"simulate.self_ms.{p}"] = (_avg(self_ms(spans, a) for a in analyses if a.prior == p), "ms")
        for f in PARAMETRIC:
            mh = [s for s in spans if s.name == "run_mh" and s.family == f and s.prior == p]
            m[f"likelihood.mh_us_per_step.{f}.{p}"] = (_avg(s.ms * 1e3 / s.steps for s in mh), "us")
            m[f"likelihood.mh_accept.{f}.{p}"] = (
                _avg(s.accept for s in mh if s.accept is not None), "ratio")
            m[f"evidence.quadrature_ms.{f}.{p}"] = (per_call("evidence_quadrature", f, p, "ms"), "ms")
            m[f"quadrature.loglik_calls.{f}.{p}"] = (
                per_call("evidence_quadrature", f, p, "ctx_loglik"), "count")
    for f in FAMILIES:
        m[f"likelihood.loglik_us.{f}"] = (loglik_us[f], "us")
    m["simulate.sweep_self_ms"] = (_avg(self_ms(spans, s) for s in spans if s.name == "run_sweep"), "ms")
    m["cli.self_ms"] = (_avg(self_ms(spans, s) for s in spans if s.name == "cli.main"), "ms")
    m["trace.overhead_pct"] = (overhead_pct, "%")

    for name in tracer.absent:
        for prefix in FEEDS[name.rsplit(".", 1)[-1]]:
            m.update({k: (None, u) for k, (_, u) in m.items() if k.startswith(prefix)})
    return m
