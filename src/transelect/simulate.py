"""Seeded scenario generators, the full analysis pipeline, and sensitivity sweeps."""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateData, TranselectError
from .evidence import (CHIB, LAPLACE_METROPOLIS, MIN_CHIB_DRAWS, QUADRATURE,
                       FamilyResult, SelectionReport, evidence_chib,
                       evidence_closed_form, evidence_laplace_metropolis,
                       evidence_quadrature, posterior_model_probs)
from .families import ALL_FAMILIES, Family, prepare
from .likelihood import PROPOSAL_SCALE, LikelihoodContext, MhConfig, run_mh
from .priors import (IMAGINARY_SOURCES, MIN_N_STAR, build_power_prior,
                     build_unit_info_prior, estimate_dual_anchor, make_imaginary)

ALL_METHODS = (CHIB, LAPLACE_METROPOLIS, QUADRATURE)
PRIOR_KINDS = ("A", "B")
SCENARIO_PARAMS = ("mu", "sigma", "shape", "rate", "df", "ncp")

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulated dataset: distribution, size, seed.

    Distribution parameters: normal uses (mu, sigma), gamma uses shape/rate,
    student uses df/ncp with the noncentral variate (Z + ncp) / sqrt(V / df).
    """

    distribution: str
    n: int
    seed: int = 0
    mu: float = 0.0
    sigma: float = 1.0
    shape: float = 2.0
    rate: float = 3.0
    df: float = 2.0
    ncp: float = 0.0

    def __post_init__(self) -> None:
        if self.distribution not in ("normal", "gamma", "student"):
            raise ValueError(f"unknown distribution: {self.distribution}")
        if self.n < 3:
            raise ValueError("n must be at least 3")
        params = {k: getattr(self, k) for k in SCENARIO_PARAMS}
        if not all(math.isfinite(v) for v in params.values()):
            raise ValueError(f"distribution parameters must be finite, got {params}")
        if self.sigma <= 0 or self.shape <= 0 or self.rate <= 0 or self.df <= 0:
            raise ValueError("distribution parameters must be positive")


def generate(spec: ScenarioSpec) -> np.ndarray:
    rng = np.random.default_rng(spec.seed)
    if spec.distribution == "normal":
        return rng.normal(spec.mu, spec.sigma, spec.n)
    if spec.distribution == "gamma":
        return rng.gamma(spec.shape, 1.0 / spec.rate, spec.n)
    z = rng.normal(size=spec.n)
    v = rng.chisquare(spec.df, size=spec.n)
    return (z + spec.ncp) / np.sqrt(v / spec.df)


@dataclass
class AnalysisConfig:
    mh: MhConfig = field(default_factory=MhConfig)
    chib_draws: int = 2000
    n_star: int | None = None              # None: match the observed sample size
    imaginary_source: str = "simulated"
    methods: tuple[str, ...] = ALL_METHODS
    families: tuple[Family, ...] = ALL_FAMILIES
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.families:
            raise ValueError("at least one family required")
        if not self.methods:
            raise ValueError("at least one evidence method required")
        if self.imaginary_source not in IMAGINARY_SOURCES:
            raise ValueError(f"unknown imaginary-data source {self.imaginary_source!r}; "
                             f"choose from {list(IMAGINARY_SOURCES)}")
        if self.n_star is not None and self.imaginary_source == "empirical":
            raise ValueError("n_star does not apply to empirical imaginary data, "
                             "which are the observed data")
        if self.n_star is not None and self.n_star < MIN_N_STAR:
            raise ValueError(f"n_star must be at least {MIN_N_STAR}, got {self.n_star}")
        if self.chib_draws < MIN_CHIB_DRAWS:
            raise ValueError(f"chib_draws must be at least {MIN_CHIB_DRAWS}, "
                             f"got {self.chib_draws}")
        unknown = [m for m in self.methods if m not in ALL_METHODS]
        if unknown:
            raise ValueError(f"unknown evidence methods {unknown}; "
                             f"choose from {list(ALL_METHODS)}")

    @property
    def prob_method(self) -> str:
        """The evidence behind the model probabilities: Chib if asked for, else
        the first method."""
        return CHIB if CHIB in self.methods else self.methods[0]

    @property
    def needs_chain(self) -> bool:
        """Whether an estimator needs the MH chain; quadrature alone does not."""
        return CHIB in self.methods or LAPLACE_METROPOLIS in self.methods

    def n_star_for(self, n: int) -> int:
        """The imaginary-data size for n observations: n_star if set, else n.
        Raises DegenerateData when simulated imaginary data would get fewer
        than MIN_N_STAR observations that way."""
        if self.n_star is not None:
            return self.n_star
        if self.imaginary_source == "simulated" and n < MIN_N_STAR:
            raise DegenerateData(
                f"n={n} observations: the imaginary data default to n_star=n, "
                f"which must be at least {MIN_N_STAR}; set n_star (--nstar)")
        return n


def _child_seed(root: int, *key: int) -> int:
    return int(np.random.SeedSequence(entropy=root, spawn_key=key)
               .generate_state(1)[0])


def analyze_dataset(y, prior_kind: str, cfg: AnalysisConfig) -> SelectionReport:
    """Run the whole selection pipeline on a raw data vector for one prior setting.

    Each parametric family's quadrature grid, which holds the exact
    posterior, gives lambda_mode and lambda_sd; its evidence is reported when
    asked for. MH runs only when an estimator needs the chain: it starts at
    the grid's mode, with the proposal sd fixed at PROPOSAL_SCALE grid sds,
    and its chain is kept on the family's result.
    The report's `setup` records the prepared data's n, shift xi and epsilon,
    the imaginary data's n_star, and the Dual anchor.
    """
    if prior_kind not in PRIOR_KINDS:
        raise ValueError(f"prior_kind must be 'A' or 'B', got {prior_kind}")
    data = prepare(y)
    imaginary = make_imaginary(n_star=cfg.n_star_for(data.n), source=cfg.imaginary_source,
                               seed=_child_seed(cfg.seed, 99),
                               observed=data.raw)
    anchor = estimate_dual_anchor(imaginary)
    prior_idx = 0 if prior_kind == "A" else 1

    results: list[FamilyResult] = []
    for fam_idx, family in enumerate(ALL_FAMILIES):
        if family not in cfg.families:
            continue
        ctx = LikelihoodContext(family, data)
        if not family.has_lambda:
            results.append(FamilyResult(
                family=family, prior_kind=prior_kind,
                evidence={"closed_form": evidence_closed_form(ctx)},
                lambda_mode=None, lambda_sd=None))
            continue

        if prior_kind == "A":
            prior = build_power_prior(family, imaginary)
        else:
            prior = build_unit_info_prior(family, imaginary, anchor=anchor)

        quad = evidence_quadrature(ctx, prior)
        summary = quad.diagnostics
        evidence = {QUADRATURE: quad} if QUADRATURE in cfg.methods else {}
        chain = (run_mh(ctx, prior, cfg.mh, summary["x_mode"],
                        PROPOSAL_SCALE * summary["x_sd"],
                        _child_seed(cfg.seed, fam_idx, prior_idx, 0))
                 if cfg.needs_chain else None)
        if CHIB in cfg.methods:
            evidence[CHIB] = evidence_chib(
                ctx, prior, chain, J=cfg.chib_draws,
                seed=_child_seed(cfg.seed, fam_idx, prior_idx, 1))
        if LAPLACE_METROPOLIS in cfg.methods:
            evidence[LAPLACE_METROPOLIS] = evidence_laplace_metropolis(ctx, prior, chain)
        results.append(FamilyResult(family=family, prior_kind=prior_kind,
                                    evidence=evidence,
                                    lambda_mode=summary["lambda_mode"],
                                    lambda_sd=summary["lambda_sd"], chain=chain))

    report = posterior_model_probs(results, prior_kind=prior_kind,
                                   prob_method=cfg.prob_method)
    report.setup = {"n": data.n, "n_star": imaginary.n_star, "xi": data.shift_xi,
                    "epsilon": data.epsilon, "dual_anchor": anchor.value,
                    "dual_anchor_from_fallback": anchor.from_fallback}
    return report


def run_scenario(spec: ScenarioSpec, prior_kind: str,
                 cfg: AnalysisConfig | None = None) -> SelectionReport:
    cfg = cfg if cfg is not None else AnalysisConfig(seed=spec.seed)
    return analyze_dataset(generate(spec), prior_kind, cfg)


def gamma_params_for_skewness(skew: float) -> tuple[float, float]:
    """(shape, rate) giving the requested skewness with mean one."""
    a = (2.0 / skew) ** 2
    return a, a


@dataclass(frozen=True)
class SweepSpec:
    """Sensitivity sweep over gamma skewness or student degrees of freedom."""

    axis: str                       # "gamma_skewness" | "student_df"
    points: tuple
    n: int = 1000
    prior_kind: str = "A"
    replications: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.axis not in ("gamma_skewness", "student_df"):
            raise ValueError(f"unknown sweep axis: {self.axis}")
        if not self.points:
            raise ValueError("sweep needs at least one axis point")
        bad = [p for p in self.points if not (math.isfinite(p) and p > 0)]
        if bad:
            raise ValueError(f"sweep axis points must be finite and positive, got {bad}")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.n < 3:
            raise ValueError("n must be at least 3")
        if self.prior_kind not in PRIOR_KINDS:
            raise ValueError(f"prior_kind must be 'A' or 'B', got {self.prior_kind}")


def _sweep_scenario(sweep: SweepSpec, point, seed: int) -> ScenarioSpec:
    if sweep.axis == "gamma_skewness":
        a, b = gamma_params_for_skewness(float(point))
        return ScenarioSpec(distribution="gamma", n=sweep.n, seed=seed,
                            shape=a, rate=b)
    return ScenarioSpec(distribution="student", n=sweep.n, seed=seed,
                        df=float(point), ncp=0.0)


def run_sweep(sweep: SweepSpec, cfg: AnalysisConfig | None = None,
              on_point=None, on_failure=None) -> list[dict]:
    """Replicated scenarios per axis point, aggregated into plot-ready rows.

    Each cell is seeded from (sweep seed, point index, replication index).
    on_point, if given, receives each point's rows as they complete. A
    replication that raises a TranselectError is logged, passed to on_failure
    as a dict, and left out of its point's rows, whose `replications` counts
    the replications that succeeded; the sweep goes on. A sweep whose n
    leaves the imaginary data too small (see AnalysisConfig.n_star_for)
    raises DegenerateData before any replication runs.
    """
    cfg = cfg if cfg is not None else AnalysisConfig()
    cfg.n_star_for(sweep.n)
    rows: list[dict] = []
    for p_idx, point in enumerate(sweep.points):
        probs: dict[Family, list[float]] = {f: [] for f in ALL_FAMILIES}
        modes: dict[Family, list[float]] = {f: [] for f in ALL_FAMILIES}
        for rep in range(sweep.replications):
            cell_seed = _child_seed(sweep.seed, p_idx, rep)
            spec = _sweep_scenario(sweep, point, cell_seed)
            try:
                report = run_scenario(spec, sweep.prior_kind, replace(cfg, seed=cell_seed))
            except TranselectError as exc:
                failure = {"prior": sweep.prior_kind, "axis_value": float(point),
                           "replication": rep, "seed": cell_seed,
                           "error": type(exc).__name__, "message": str(exc)}
                log.warning("sweep %s=%s prior %s replication %d failed: %s: %s",
                            sweep.axis, point, sweep.prior_kind, rep,
                            failure["error"], exc)
                if on_failure is not None:
                    on_failure(failure)
                continue
            for r in report.results:
                probs[r.family].append(r.posterior_model_prob)
                if r.lambda_mode is not None:
                    modes[r.family].append(r.lambda_mode)
        point_rows = []
        for family in ALL_FAMILIES:
            if not probs[family]:
                continue
            point_rows.append({
                "axis_value": float(point),
                "family": family.value,
                "prior": sweep.prior_kind,
                "mean_pmp": float(np.mean(probs[family])),
                "mean_lambda_mode": (float(np.mean(modes[family]))
                                     if modes[family] else math.nan),
                "replications": len(probs[family]),
            })
        rows.extend(point_rows)
        if on_point is not None:
            on_point(point_rows)
    return rows
