"""Marginalized likelihood of the untransformed data and posterior sampling for lambda."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import gammaln

from .errors import DegenerateTransform, MixingFailure, NonPositiveInput
from .families import DUAL_ANCHOR_DEFAULT, Family, PreparedData

# Below this distance from a removable singularity the closed-form branch is used.
_BRANCH_TOL = 1e-10

# Elements per block of a batched evaluation: 32768 // n lambdas at a time
# keeps the (k, n) temporaries near 256 KB each, so peak memory does not grow
# with the grid.
_BLOCK_ELEMENTS = 32768


def _log_constant(n: int) -> float:
    # Exact normalizer from integrating out location/scale under the 1/sigma^2 prior.
    return float(gammaln((n - 1) / 2.0) - (n - 1) / 2.0 * math.log(math.pi)
                 - 0.5 * math.log(n))


def _exp_m1(t):
    return np.exp(t) - 1.0


def _ratio(f, log_x, lam):
    """f(lam * log_x) / lam, or its limit log_x where |lam| < _BRANCH_TOL.

    lam is a float, or a column of k values (shape (k, 1)) for which the
    result has shape (k, n).
    """
    if not isinstance(lam, np.ndarray):
        return log_x if abs(lam) < _BRANCH_TOL else f(lam * log_x) / lam
    near = np.abs(lam) < _BRANCH_TOL
    return np.where(near, log_x, f(lam * log_x) / np.where(near, 1.0, lam))


def _ratio_derivatives(f, df, d2f, log_x, lam: float):
    """g = f(lam * log_x) / lam and its first two derivatives in lam, for lam
    away from 0; df and d2f are the derivatives of f."""
    t = lam * log_x
    g = f(t) / lam
    dg = (log_x * df(t) - g) / lam
    return g, dg, (log_x ** 2 * d2f(t) - 2.0 * dg) / lam


class LikelihoodContext:
    """Per-(family, dataset) cache for fast repeated likelihood evaluation.

    log f(y | lambda, T) = C(n) - ((n-1)/2) log SS(lambda) + log|J(lambda)|
    with SS the centered sum of squares of the transformed data. C(n) is
    common to every family; the prior builders drop it.
    Raises NonPositiveInput when a family that requires the shift gets
    shifted data that are not strictly positive.
    """

    def __init__(self, family: Family, data: PreparedData,
                 include_constant: bool = True):
        self.family = family
        self.data = data
        self.n = data.n
        self.constant = _log_constant(self.n) if include_constant else 0.0

        if family.requires_shift:
            v = data.shifted()
            if np.any(v <= 0.0):
                raise NonPositiveInput(
                    f"{family.value} requires strictly positive input after shifting")
            self._logv = np.log(v)
            self._sum = float(self._logv.sum())
        else:
            y = data.standardized
            if family is Family.MODULUS:
                self._sign = np.where(y >= 0.0, 1.0, -1.0)
                self._logu = np.log(np.abs(y) + 1.0)
                self._sum = float(self._logu.sum())
            elif family is Family.YEOJOHNSON:
                pos = y >= 0.0
                self._logu_pos = np.log(y[pos] + 1.0)
                self._logu_neg = np.log(1.0 - y[~pos])
                self._sum = float(self._logu_pos.sum()) - float(self._logu_neg.sum())
            else:
                self._y = y
        if not family.has_lambda:
            self._fixed = self._evaluate(0.0)

    def transform(self, lam=0.0):
        """(z, log|J|): the transformed data and the log-Jacobian at lam.

        Every formula broadcasts over lambda: a float gives z of shape (n,)
        and a float log|J|; a column of k lambdas (shape (k, 1)) gives (k, n)
        and k log|J| values. lam is ignored for Id and Log and is not checked
        against the family's domain. Yeo-Johnson lists the non-negative
        observations first, then the negative ones, each in data order.
        """
        fam = self.family
        if fam is Family.ID:
            return self._y, 0.0
        if fam is Family.LOG:
            return self._logv, -self._sum
        if fam is Family.BOXCOX:
            return _ratio(_exp_m1, self._logv, lam), (lam - 1.0) * self._sum
        if fam is Family.MODULUS:
            return (self._sign * _ratio(_exp_m1, self._logu, lam),
                    (lam - 1.0) * self._sum)
        if fam is Family.YEOJOHNSON:
            zp = _ratio(_exp_m1, self._logu_pos, lam)
            zn = -_ratio(_exp_m1, self._logu_neg, 2.0 - lam)
            return np.concatenate([zp, zn], axis=-1), (lam - 1.0) * self._sum
        if fam is Family.DUAL:
            logv = self._logv
            lj = (np.logaddexp((lam - 1.0) * logv, (-lam - 1.0) * logv)
                  - math.log(2.0)).sum(axis=-1)
            return _ratio(np.sinh, logv, lam), lj
        raise AssertionError(fam)

    def transform_derivatives(self, lam: float):
        """(z, dz, d2z, d2 log|J|) at lam, for a family with a parameter.

        Derivatives are in the family's sampling variable: lambda, or log
        lambda where `Family.on_log_scale`. Each transform is g = f(lam L)/lam
        with f(t) = e^t - 1 (sinh for Dual) and L a cached log; only Dual's
        log|J| is not linear in lambda. lam must be away from the branch points.
        """
        fam = self.family
        if fam is Family.DUAL:
            z, dz, d2z = _ratio_derivatives(np.sinh, np.cosh, np.sinh, self._logv, lam)
            t = lam * self._logv
            # chain rule for x = log lambda: d/dx = lam d/dlam
            return (z, lam * dz, lam ** 2 * d2z + lam * dz,
                    float(np.sum(t * np.tanh(t) + (t / np.cosh(t)) ** 2)))
        g = functools.partial(_ratio_derivatives, _exp_m1, np.exp, np.exp)
        if fam is Family.BOXCOX:
            return (*g(self._logv, lam), 0.0)
        if fam is Family.MODULUS:
            return (*(self._sign * d for d in g(self._logu, lam)), 0.0)
        if fam is Family.YEOJOHNSON:
            zp, dzp, d2zp = g(self._logu_pos, lam)
            # the negative branch is -g(2 - lam): dz keeps g's sign, d2z flips it
            zn, dzn, d2zn = g(self._logu_neg, 2.0 - lam)
            return (np.concatenate([zp, -zn]), np.concatenate([dzp, dzn]),
                    np.concatenate([d2zp, -d2zn]), 0.0)
        raise ValueError(f"{fam.value} has no transformation parameter")

    def _evaluate(self, lam: float) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            z, lj = self.transform(lam)
            ss = float(np.sum((z - z.mean()) ** 2))
        if not math.isfinite(ss) or not math.isfinite(lj):
            return -math.inf
        if ss <= 0.0:
            raise DegenerateTransform(
                f"transformed data have zero variance ({self.family.value}, lam={lam})")
        return self.constant - (self.n - 1) / 2.0 * math.log(ss) + float(lj)

    def loglik(self, lam: float = 0.0) -> float:
        """log f(y | lambda, T); lambda is ignored for Id and Log."""
        if self.family in (Family.ID, Family.LOG):
            return self._fixed
        self.family.check_lambda(lam)
        return self._evaluate(lam)

    def loglik_batch(self, lams: np.ndarray) -> np.ndarray:
        """`loglik` at every lambda of a 1-D array, in blocks of k lambdas.

        Where `loglik` raises DomainError, this gives -inf; it raises
        DegenerateTransform as `loglik` does.
        """
        lams = np.asarray(lams, dtype=float)
        if not self.family.has_lambda:
            return np.full(lams.shape, self._fixed)
        out = np.full(lams.shape, -np.inf)
        lo, hi = self.family.lambda_domain
        inside = np.flatnonzero((lo < lams) & (lams < hi))
        k = max(1, _BLOCK_ELEMENTS // self.n)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for start in range(0, inside.size, k):
                idx = inside[start:start + k]
                z, lj = self.transform(lams[idx, None])
                ss = np.sum((z - z.mean(axis=1, keepdims=True)) ** 2, axis=1)
                lj = np.reshape(lj, -1)
                ok = np.isfinite(ss) & np.isfinite(lj)
                degenerate = ok & (ss <= 0.0)
                if degenerate.any():
                    raise DegenerateTransform(
                        f"transformed data have zero variance ({self.family.value}, "
                        f"lam={lams[idx[degenerate][0]]})")
                out[idx[ok]] = (self.constant - (self.n - 1) / 2.0 * np.log(ss[ok])
                                + lj[ok])
        return out


def log_sampling_kernel(ctx: LikelihoodContext, prior, x):
    """Log posterior kernel on the scale MH samples: lambda, or log lambda with
    the +log(lambda) change-of-variable term where `Family.on_log_scale`.

    x is a float, or a numpy array scored in one batched call; both give -inf
    outside the family's domain.
    """
    on_log = ctx.family.on_log_scale
    if isinstance(x, np.ndarray):
        lam = np.exp(x) if on_log else x
        val = ctx.loglik_batch(lam) + prior.log_density(lam)
    else:
        lam = math.exp(x) if on_log else x
        lo, hi = ctx.family.lambda_domain
        if not (lo < lam < hi):
            return -math.inf
        lp = prior.log_density(lam)
        if lp == -math.inf:
            return -math.inf
        val = ctx.loglik(lam) + lp
    return val + x if on_log else val


def refine_mode(kernel, best: float, best_kernel: float,
                bounds: tuple[float, float]) -> float:
    """Kernel argmax near `best`, a draw or grid point scoring `best_kernel`.

    A bounded Brent search refines it; `best` is kept unless the search does
    at least as well.
    """
    res = minimize_scalar(lambda v: -kernel(v), bounds=bounds, method="bounded",
                          options={"xatol": 1e-8})
    return float(res.x) if -res.fun >= best_kernel else best


@dataclass
class MhConfig:
    burn_in: int = 4000
    draws: int = 16000
    initial_step: float = 0.5
    target_accept: tuple[float, float] = (0.3, 0.5)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if self.draws < 1000:
            raise ValueError("draws must be at least 1000")
        if not (0.0 < self.target_accept[0] < self.target_accept[1] < 1.0):
            raise ValueError("target_accept must be a subinterval of (0, 1)")
        if self.initial_step <= 0.0:
            raise ValueError("initial_step must be positive")


@dataclass
class PosteriorChain:
    """Post-burn-in MH output, on the family's sampling scale."""

    family: Family
    draws: np.ndarray            # sampling scale
    log_kernel: np.ndarray       # log posterior kernel at each draw
    accept_rate: float
    step_sd: float               # tuned proposal sd, sampling scale (sqrt of k*)
    mode: float                  # refined kernel argmax, sampling scale

    @property
    def on_log_scale(self) -> bool:
        return self.family.on_log_scale

    @property
    def lambda_draws(self) -> np.ndarray:
        return np.exp(self.draws) if self.on_log_scale else self.draws

    @property
    def lambda_mode(self) -> float:
        return math.exp(self.mode) if self.on_log_scale else self.mode


def run_mh(ctx, prior, cfg: MhConfig) -> PosteriorChain:
    """Adaptive Gaussian random-walk Metropolis-Hastings for the transformation parameter.

    A family on the log scale is sampled on log lambda, so proposals never
    leave the positive axis. The proposal sd follows a Robbins-Monro recursion
    toward the midpoint of cfg.target_accept during burn-in and is frozen
    afterwards.
    """
    family = ctx.family
    kernel = functools.partial(log_sampling_kernel, ctx, prior)

    rng = np.random.default_rng(cfg.seed)
    x = math.log(DUAL_ANCHOR_DEFAULT) if family.on_log_scale else 1.0
    k = kernel(x)
    if k == -math.inf:
        x = prior.location
        k = kernel(x)
    target = 0.5 * (cfg.target_accept[0] + cfg.target_accept[1])
    log_step = math.log(cfg.initial_step)

    total = cfg.burn_in + cfg.draws
    draws = np.empty(cfg.draws)
    kernels = np.empty(cfg.draws)
    accepted = 0
    for t in range(total):
        prop = x + rng.normal(0.0, math.exp(log_step))
        kp = kernel(prop)
        if kp == -math.inf:
            alpha = 0.0
        else:
            alpha = min(1.0, math.exp(min(0.0, kp - k)))
        if rng.random() < alpha:
            x, k = prop, kp
            if t >= cfg.burn_in:
                accepted += 1
        if t < cfg.burn_in:
            log_step += (alpha - target) / (t + 1) ** 0.6
        else:
            draws[t - cfg.burn_in] = x
            kernels[t - cfg.burn_in] = k

    accept_rate = accepted / cfg.draws
    if accept_rate < 0.05 or accept_rate > 0.95:
        raise MixingFailure(
            f"post-burn-in acceptance {accept_rate:.3f} for {family.value}")

    step_sd = math.exp(log_step)
    best = float(draws[int(np.argmax(kernels))])
    mode = refine_mode(kernel, best, kernels.max(),
                       (best - 3 * step_sd, best + 3 * step_sd))

    return PosteriorChain(family=family, draws=draws, log_kernel=kernels,
                          accept_rate=accept_rate, step_sd=step_sd, mode=mode)


def posterior_summary(chain: PosteriorChain) -> tuple[float, float, float]:
    """(mode, mean, sd) of the lambda draws, on the lambda scale."""
    lam = chain.lambda_draws
    if lam.size == 0:
        raise ValueError("empty chain")
    sd = float(lam.std(ddof=1)) if lam.size > 1 else 0.0
    return chain.lambda_mode, float(lam.mean()), sd
