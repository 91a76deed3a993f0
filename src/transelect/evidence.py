"""Marginal-likelihood estimators and posterior model probabilities. A prior
needs only `log_density(x)`, on the family's sampling scale x, and `window`."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import InconsistentEvidence, OrdinateUnderflow
from .families import ALL_FAMILIES, Family
from .likelihood import LikelihoodContext, PosteriorChain, log_sampling_kernel
from .quadrature import sampling_integral

CHIB = "chib"
LAPLACE_METROPOLIS = "laplace_metropolis"
QUADRATURE = "quadrature"
CLOSED_FORM = "closed_form"
_CHIB_BATCHES = 50  # batch means behind the MC se of Chib's numerator
MIN_CHIB_DRAWS = 500  # fewest fresh proposal draws J behind Chib's denominator


@dataclass(frozen=True)
class EvidenceEstimate:
    log_marginal: float
    method: str
    mc_se: float | None = None
    diagnostics: dict = field(default_factory=dict)


def evidence_closed_form(ctx: LikelihoodContext) -> EvidenceEstimate:
    """Exact evidence for the parameter-free Id and Log families."""
    if ctx.family.has_lambda:
        raise ValueError(f"{ctx.family.value} has a transformation parameter")
    return EvidenceEstimate(log_marginal=ctx.loglik(), method=CLOSED_FORM)


def evidence_chib(ctx: LikelihoodContext, prior, chain: PosteriorChain,
                  J: int = 2000, seed: int = 0) -> EvidenceEstimate:
    """Candidate estimator: likelihood and prior at the mode minus the estimated
    posterior ordinate, with the ordinate built from the MH output."""
    if J < MIN_CHIB_DRAWS:
        raise ValueError(f"J must be at least {MIN_CHIB_DRAWS}")
    x_star = chain.mode
    k_var = chain.step_sd ** 2
    log_k_star = log_sampling_kernel(ctx, prior, x_star)

    # Numerator: chain average of acceptance-probability-weighted proposal density.
    diff = np.minimum(0.0, log_k_star - chain.log_kernel)
    log_pdf = (-0.5 * math.log(2.0 * math.pi * k_var)
               - (x_star - chain.draws) ** 2 / (2.0 * k_var))
    num_terms = np.exp(diff + log_pdf)
    num = float(num_terms.mean())

    # Denominator: fresh proposal draws centered at the mode.
    rng = np.random.default_rng(seed)
    xj = rng.normal(x_star, math.sqrt(k_var), size=J)
    log_k_j = log_sampling_kernel(ctx, prior, xj)
    den_terms = np.exp(np.minimum(0.0, log_k_j - log_k_star))
    den = float(den_terms.mean())

    if num <= 0.0 or den <= 0.0:
        raise OrdinateUnderflow(
            f"posterior ordinate underflowed for {ctx.family.value}")
    log_ordinate = math.log(num) - math.log(den)

    batches = np.array_split(num_terms, _CHIB_BATCHES)
    batch_means = np.array([b.mean() for b in batches])
    se_num = float(batch_means.std(ddof=1) / math.sqrt(len(batch_means)))
    se_den = float(den_terms.std(ddof=1) / math.sqrt(J))
    mc_se = math.sqrt((se_num / num) ** 2 + (se_den / den) ** 2)

    return EvidenceEstimate(
        log_marginal=log_k_star - log_ordinate, method=CHIB, mc_se=mc_se,
        diagnostics={"J": J, "M": chain.draws.size, "k_star": k_var,
                     "lambda_star": chain.lambda_mode, "log_ordinate": log_ordinate})


def evidence_laplace_metropolis(ctx: LikelihoodContext, prior,
                                chain: PosteriorChain) -> EvidenceEstimate:
    """Gaussian approximation around the chain mode, using the chain variance."""
    var = float(chain.draws.var(ddof=1))
    log_marginal = (0.5 * math.log(2.0 * math.pi) + 0.5 * math.log(var)
                    + log_sampling_kernel(ctx, prior, chain.mode))
    return EvidenceEstimate(
        log_marginal=log_marginal, method=LAPLACE_METROPOLIS,
        diagnostics={"lambda_star": chain.lambda_mode, "posterior_var": var})


def _sd(w: np.ndarray, v: np.ndarray) -> float:
    """sd of v under the normalized weights w."""
    return math.sqrt(float(w @ (v - w @ v) ** 2))


def refine_mode(kernel, best: float, best_kernel: float,
                bounds: tuple[float, float]) -> float:
    """Kernel argmax near `best`, a grid point scoring `best_kernel`.

    A bounded Brent search, which sees the kernel floored 1000 nats below
    `best_kernel` so that no -inf enters its differences, refines it; `best`
    is kept unless the search does at least as well.
    """
    res = minimize_scalar(lambda v: -max(kernel(v), best_kernel - 1e3), bounds=bounds,
                          method="bounded", options={"xatol": 1e-8})
    return float(res.x) if -res.fun >= best_kernel else best


def evidence_quadrature(ctx: LikelihoodContext, prior) -> EvidenceEstimate:
    """Direct numerical integration of likelihood times prior over lambda.

    The integral runs on the family's sampling scale x (see log_sampling_kernel),
    where a log-scale posterior is smooth up to the lambda -> 0 boundary. The
    final grid holds the exact posterior. Its diagnostics summarize it on x
    and on lambda: the mode, the grid argmax refined by `refine_mode`, and the
    sd from the trapezoid weights.
    """
    family = ctx.family
    kernel = functools.partial(log_sampling_kernel, ctx, prior)
    grid = sampling_integral(kernel, family.on_log_scale, prior.window)

    w = grid.weights()
    lam = family.to_lambda(grid.xs)
    i = int(np.argmax(grid.log_vals))
    best = float(grid.xs[i])
    mode = refine_mode(kernel, best, kernel(best),
                       (float(grid.xs[max(i - 1, 0)]),
                        float(grid.xs[min(i + 1, grid.xs.size - 1)])))
    return EvidenceEstimate(
        log_marginal=grid.value, method=QUADRATURE,
        diagnostics={"window": [float(lam[0]), float(lam[-1])],
                     "expansions": grid.expansions, "halvings": grid.halvings,
                     "grid_points": int(grid.xs.size), "tail_mass": float(max(w[0], w[-1])),
                     "x_mode": mode, "x_sd": _sd(w, grid.xs),
                     "lambda_mode": float(family.to_lambda(mode)),
                     "lambda_sd": _sd(w, lam)})


@dataclass
class FamilyResult:
    family: Family
    prior_kind: str
    evidence: dict[str, EvidenceEstimate]
    lambda_mode: float | None
    lambda_sd: float | None
    posterior_model_prob: float = math.nan
    chain: PosteriorChain | None = None    # the MH output, when MH ran


def _family_order(result: FamilyResult) -> int:  # for reports and ranking ties
    return ALL_FAMILIES.index(result.family)


@dataclass
class SelectionReport:
    prior_kind: str
    prob_method: str
    results: list[FamilyResult]
    setup: dict = field(default_factory=dict)  # see analyze_dataset; not in to_dict

    @property
    def ranking(self) -> list[Family]:
        return [r.family for r in sorted(
            self.results, key=lambda r: (-r.posterior_model_prob, _family_order(r)))]

    def result_for(self, family: Family) -> FamilyResult:
        for r in self.results:
            if r.family is family:
                return r
        raise KeyError(family)

    def probabilities(self) -> dict[Family, float]:
        return {r.family: r.posterior_model_prob for r in self.results}

    def to_dict(self) -> dict:
        return {
            "prior_kind": self.prior_kind,
            "prob_method": self.prob_method,
            "ranking": [f.value for f in self.ranking],
            "families": [
                {
                    "family": r.family.value,
                    "prior_kind": r.prior_kind,
                    "posterior_model_prob": r.posterior_model_prob,
                    "lambda_mode": r.lambda_mode,
                    "lambda_sd": r.lambda_sd,
                    "mh": None if r.chain is None else {
                        "accept_rate": r.chain.accept_rate, "step_sd": r.chain.step_sd,
                        "table_exact_share": r.chain.table_exact_share,
                        "table_max_error": r.chain.table_max_error},
                    "evidence": {
                        m: {"log_marginal": e.log_marginal, "mc_se": e.mc_se,
                            "diagnostics": e.diagnostics}
                        for m, e in sorted(r.evidence.items())
                    },
                }
                for r in self.results
            ],
        }


def _prob_estimate(result: FamilyResult, prob_method: str) -> EvidenceEstimate:
    if CLOSED_FORM in result.evidence:
        return result.evidence[CLOSED_FORM]
    try:
        return result.evidence[prob_method]
    except KeyError:
        raise InconsistentEvidence(
            f"no {prob_method} evidence for {result.family.value}") from None


def posterior_model_probs(results: list[FamilyResult], prior_kind: str,
                          prob_method: str = CHIB) -> SelectionReport:
    """Normalize per-family evidence into posterior model probabilities.

    The uniform prior over families cancels in the normalization. Every
    family must carry closed-form or prob_method evidence.
    """
    chosen = {r.family: _prob_estimate(r, prob_method) for r in results}
    results = sorted(results, key=_family_order)
    logs = np.array([chosen[r.family].log_marginal for r in results])
    # Subtracting the maximum before exponentiating keeps the normalization
    # stable and nearly exactly invariant to common shifts of the inputs.
    weights = np.exp(logs - logs.max())
    probs = weights / weights.sum()
    for r, p in zip(results, probs):
        r.posterior_model_prob = float(p)
    return SelectionReport(prior_kind=prior_kind, prob_method=prob_method,
                           results=results)
