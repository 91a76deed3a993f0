"""Marginalized likelihood of the untransformed data and posterior sampling for lambda."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DegenerateTransform, MixingFailure, NonPositiveInput
from .families import Family, PreparedData
from .quadrature import _eval

# Below this distance from a removable singularity the closed-form branch is used.
_BRANCH_TOL = 1e-10

# Exponents t beyond this are scaled by one factor e^-s per lambda, with
# s = max(0, max t - _CAP), so that n squared scaled values have a finite sum.
_CAP = 300.0

# Elements per block of a batched evaluation: 32768 // n lambdas at a time
# keeps the (k, n) temporaries near 256 KB each, so peak memory does not grow
# with the grid.
_BLOCK_ELEMENTS = 32768


def _any(x) -> bool:
    # A float is tested without numpy, whose reductions cost microseconds.
    return x.any() if isinstance(x, np.ndarray) else bool(x)


def _max(a, b):
    """max(a, b) for floats or columns of them, with no numpy call for a float."""
    return 0.5 * (a + b + abs(a - b))


def _ratio(num, log_x, mu):
    """num / mu, or its limit log_x where |mu| < _BRANCH_TOL, for a float mu
    or a (k, 1) column of them and a (k, n) num, which this may overwrite."""
    near = abs(mu) < _BRANCH_TOL
    if not _any(near):
        return np.divide(num, mu, out=num)
    return np.where(near, log_x, num / np.where(near, 1.0, mu))


def _expm1_scaled(t, s):
    """e^-s expm1(t), with one s per row of t, computed in t's own memory:
    allocating (k, n) blocks costs more than the arithmetic."""
    if not _any(s):
        return np.expm1(t, out=t)
    t -= s
    return np.subtract(np.expm1(t, out=t), np.expm1(-s), out=t)


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
    with SS the centered sum of squares of the transformed data, taken from
    scaled values so that it never overflows (see `_scaled`). Raises
    NonPositiveInput when a family that requires the shift gets shifted data
    that are not strictly positive."""

    def __init__(self, family: Family, data: PreparedData):
        self.family = family
        n = self.n = data.n
        # C(n), exact from integrating out location/scale under the 1/sigma^2 prior
        self.constant = float(gammaln((n - 1) / 2.0) - (n - 1) / 2.0 * math.log(math.pi)
                              - 0.5 * math.log(n))

        if family.requires_shift:
            v = data.shifted()
            if np.any(v <= 0.0):
                raise NonPositiveInput(
                    f"{family.value} requires strictly positive input after shifting")
            self._logv = np.log(v)
            self._sum = float(self._logv.sum())
            self._log_min, self._log_max = float(self._logv.min()), float(self._logv.max())
        elif family.has_lambda:
            # sign(y) log(1 + |y|), the non-negative observations first
            y = data.standardized
            pos = y >= 0.0
            self._logu = np.log(y[pos] + 1.0), -np.log(1.0 - y[~pos])
            self._logu_max = tuple(float(np.abs(L).max(initial=0.0)) for L in self._logu)
            sign = -1.0 if family is Family.MODULUS else 1.0
            self._sum = float(self._logu[0].sum()) + sign * float(self._logu[1].sum())
        else:
            self._y = data.standardized
        if not family.has_lambda:
            self._fixed = float(self._score(0.0))

    def _scaled(self, lam, centre: bool = True):
        """(u, s, log|J|) at lam, a float or a (k, 1) column that gives (k, n)
        u and columns s and log|J|. The transformed data are e^s u plus a
        constant per lambda. Each value is f(t) / mu with t = mu L, L a cached
        log, f(t) = e^t - 1 (sinh for Dual) and mu = lam, except for the
        negative observations of Modulus (mu = -lam) and Yeo-Johnson (mu =
        lam - 2), which these two list last with L = -log(1 - y).
        Box-Cox drops its constant -1/lam: u = expm1(t - s) / lam with s =
        max t (0 near lam = 0, or without centre) neither overflows nor
        collapses onto one value. The other families' constants differ by
        sign or branch and stay; their s = max(0, max t - _CAP)."""
        fam = self.family
        if fam is Family.ID:
            return self._y, 0.0, 0.0
        if fam is Family.LOG:
            return self._logv, 0.0, -self._sum
        if fam is Family.DUAL:
            t = lam * self._logv
            # log cosh t = |t| + log1p(e^-2|t|) - log 2, which cannot overflow
            a = np.abs(t)
            a += np.log1p(np.exp(-2.0 * a))
            lj = a.sum(axis=-1, keepdims=t.ndim > 1) - self.n * math.log(2.0) - self._sum
            m = abs(lam) * max(-self._log_min, self._log_max)
            s = (m > _CAP) * (m - _CAP)
            num = _expm1_scaled(-t, s)
            num -= _expm1_scaled(t, s)
            num *= -0.5  # e^-s sinh(t)
            return _ratio(num, self._logv, lam), s, lj
        lj = (lam - 1.0) * self._sum
        if fam is Family.BOXCOX:
            t = lam * self._logv
            s = (_max(lam * self._log_min, lam * self._log_max)
                 * (abs(lam) >= _BRANCH_TOL)) if centre else 0.0
            t -= s
            return _ratio(np.expm1(t, out=t), self._logv, lam), s, lj
        mu = -lam if fam is Family.MODULUS else lam - 2.0
        (lp, ln), (mp, mn) = self._logu, self._logu_max
        m = _max(lam * mp, -mu * mn)
        s = (m > _CAP) * (m - _CAP)
        un = _ratio(_expm1_scaled(mu * ln, s), ln, mu)
        return np.concatenate([_ratio(_expm1_scaled(lam * lp, s), lp, lam), un],
                              axis=-1), s, lj

    def _score(self, lam):
        """log f(y | lam, T) at a float, or a column of them at a (k, 1) column."""
        u, s, lj = self._scaled(lam)
        d = u - u.sum(axis=-1, keepdims=True) / self.n
        ss = np.square(d, out=d).sum(axis=-1, keepdims=u.ndim > 1)
        if _any(ss <= 0.0):
            raise DegenerateTransform(
                f"transformed data have zero variance ({self.family.value}, "
                f"lam={np.broadcast_to(lam, ss.shape)[ss <= 0.0][0]})")
        return self.constant - (self.n - 1) / 2.0 * (2.0 * s + np.log(ss)) + lj

    def transform(self, lam=0.0):
        """(z, log|J|): the transformed data and the log-Jacobian at lam, a
        float or a (k, 1) column as in `_scaled`, whose order z follows. lam
        is ignored for Id and Log and is not checked against the domain."""
        u, s, lj = self._scaled(lam, centre=False)
        return np.exp(s) * u, lj

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
        if not fam.has_lambda:
            raise ValueError(f"{fam.value} has no transformation parameter")
        g = functools.partial(_ratio_derivatives, np.expm1, np.exp, np.exp)
        if fam is Family.BOXCOX:
            return (*g(self._logv, lam), 0.0)
        # the negative observations' g(mu), with mu as in `_scaled`
        mu, dmu = (-lam, -1.0) if fam is Family.MODULUS else (lam - 2.0, 1.0)
        zp, dzp, d2zp = g(self._logu[0], lam)
        zn, dzn, d2zn = g(self._logu[1], mu)
        return (np.concatenate([zp, zn]), np.concatenate([dzp, dmu * dzn]),
                np.concatenate([d2zp, d2zn]), 0.0)

    def loglik(self, lam=0.0):
        """log f(y | lambda, T) at a float lam, or at each lambda of a 1-D
        numpy array, scored in blocks of k lambdas; -inf outside
        `Family.in_domain`. lambda is ignored for Id and Log."""
        batch = isinstance(lam, np.ndarray)
        if not self.family.has_lambda:
            return np.full(lam.shape, self._fixed) if batch else self._fixed
        if not batch:  # MH's steps: 2-3x cheaper than one-lambda blocks
            return float(self._score(lam)) if self.family.in_domain(lam) else -math.inf
        out = np.full(lam.shape, -np.inf)
        inside = np.flatnonzero(self.family.in_domain(lam))
        k = max(1, _BLOCK_ELEMENTS // self.n)
        for start in range(0, inside.size, k):
            idx = inside[start:start + k]
            out[idx] = self._score(lam[idx, None])[:, 0]
        return out


def log_sampling_kernel(ctx: LikelihoodContext, prior, x):
    """Log posterior kernel at x, a float or a numpy array, on the scale MH
    samples and quadrature integrates: lambda, or log lambda where
    `Family.on_log_scale`. The prior's density is on that same scale."""
    return ctx.loglik(ctx.family.to_lambda(x)) + prior.log_density(x)


# Proposal sd per posterior sd: about 44% acceptance for a Gaussian target in
# one dimension (Gelman, Roberts & Gilks 1996).
PROPOSAL_SCALE = 2.38


@dataclass
class MhConfig:
    burn_in: int = 4000
    draws: int = 16000

    def __post_init__(self) -> None:
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if self.draws < 1000:
            raise ValueError("draws must be at least 1000")


@dataclass
class PosteriorChain:
    """Post-burn-in MH output, on the family's sampling scale."""

    family: Family
    draws: np.ndarray            # sampling scale
    log_kernel: np.ndarray       # log posterior kernel at each draw
    accept_rate: float
    step_sd: float               # fixed proposal sd, sampling scale (sqrt of k*)
    mode: float                  # the start: the posterior mode, sampling scale
    # The chain's KernelTable: the share of its cells that fell back to the
    # exact kernel, and the largest check error of the cells it kept.
    table_exact_share: float | None = None
    table_max_error: float | None = None

    @property
    def lambda_draws(self) -> np.ndarray:
        return self.family.to_lambda(self.draws)

    @property
    def lambda_mode(self) -> float:
        return float(self.family.to_lambda(self.mode))


# MH reads the kernel from a KernelTable over start +- TABLE_HALF_WIDTH
# proposal sds (about 12 posterior sds) in cells of 1 / TABLE_CELLS_PER_STEP
# proposal sd (about 1/63 posterior sd). A cell whose error at its check point
# exceeds TABLE_TOL nats falls back to the exact kernel.
TABLE_HALF_WIDTH = 5
TABLE_CELLS_PER_STEP = 150
TABLE_TOL = 1e-9


class KernelTable:
    """The log posterior kernel as one cubic per cell of an even grid.

    Each cell's cubic interpolates the exact kernel at the cell's two ends and
    the nodes either side of them (four-point Lagrange). Its leading error
    term is largest at the cell's midpoint, where one array call of the exact
    kernel checks it. A cell that touches a non-finite value or misses
    TABLE_TOL there is None, and the exact kernel scores it, as it scores
    every x outside the table.
    """

    def __init__(self, kernel, start: float, step_sd: float):
        self.kernel = kernel
        half = TABLE_HALF_WIDTH * TABLE_CELLS_PER_STEP
        self.h = step_sd / TABLE_CELLS_PER_STEP
        self.lo = start - half * self.h
        self.size = 2 * half
        f = _eval(kernel, self.lo + self.h * np.arange(-1, self.size + 2))
        finite = np.isfinite(f)
        f = np.where(finite, f, 0.0)
        fm, f0, f1, f2 = f[:-3], f[1:-2], f[2:-1], f[3:]
        coef = np.column_stack([f0, f1 - f0 / 2.0 - fm / 3.0 - f2 / 6.0,
                                (fm + f1) / 2.0 - f0, (f2 - fm) / 6.0 + (f0 - f1) / 2.0])
        mid = _eval(kernel, self.lo + self.h * (np.arange(self.size) + 0.5))
        ok = finite[:-3] & finite[1:-2] & finite[2:-1] & finite[3:] & np.isfinite(mid)
        err = np.abs(coef @ [1.0, 0.5, 0.25, 0.125] - np.where(ok, mid, 0.0))
        ok &= err <= TABLE_TOL
        self.cells = [c if keep else None for c, keep in zip(coef.tolist(), ok.tolist())]
        self.exact_share = 1.0 - float(ok.mean())
        self.max_error = float(err[ok].max(initial=0.0))

    def __call__(self, x: float) -> float:
        u = (x - self.lo) / self.h
        if 0.0 <= u < self.size:  # False for nan
            i = int(u)
            c = self.cells[i]
            if c is not None:
                t = u - i
                return c[0] + t * (c[1] + t * (c[2] + t * c[3]))
        return self.kernel(x)


def run_mh(ctx, prior, cfg: MhConfig, start: float, step_sd: float,
           seed: int) -> PosteriorChain:
    """Gaussian random-walk Metropolis-Hastings for the transformation parameter,
    on the family's sampling scale (log lambda for a family on the log scale,
    so proposals stay positive). The chain starts at `start`, the posterior
    mode that it reports as `mode`, and proposes with the fixed sd `step_sd`;
    the first cfg.burn_in draws are discarded; `seed` seeds the proposals and
    the acceptance draws. The start is scored exactly and every proposal
    through a KernelTable, so each value is within TABLE_TOL of the exact
    kernel at the table's check points. Raises ValueError for a non-finite
    `start`, for a `step_sd` that is not positive and finite, and where the
    kernel is -inf at `start`; MixingFailure when the post-burn-in acceptance
    is outside [0.05, 0.95].
    """
    family = ctx.family
    if not math.isfinite(start):
        raise ValueError(f"{family.value}: start must be finite, got {start}")
    if not (0.0 < step_sd < math.inf):
        raise ValueError(f"{family.value}: step_sd must be positive and finite, "
                         f"got {step_sd}")
    kernel = functools.partial(log_sampling_kernel, ctx, prior)
    x, k = start, kernel(start)
    if k == -math.inf:
        raise ValueError(f"{family.value}: the posterior kernel is -inf at x={start}")
    table = KernelTable(kernel, start, step_sd)

    rng = np.random.default_rng(seed)
    draws, kernels = np.empty(cfg.draws), np.empty(cfg.draws)
    accepted = 0
    for t in range(-cfg.burn_in, cfg.draws):
        prop = x + rng.normal(0.0, step_sd)
        kp = table(prop)
        if rng.random() < math.exp(min(0.0, kp - k)):
            x, k = prop, kp
            accepted += t >= 0
        if t >= 0:
            draws[t], kernels[t] = x, k

    accept_rate = accepted / cfg.draws
    if accept_rate < 0.05 or accept_rate > 0.95:
        raise MixingFailure(
            f"post-burn-in acceptance {accept_rate:.3f} for {family.value}")
    return PosteriorChain(family=family, draws=draws, log_kernel=kernels,
                          accept_rate=accept_rate, step_sd=step_sd, mode=start,
                          table_exact_share=table.exact_share,
                          table_max_error=table.max_error)
