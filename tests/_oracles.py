"""Independent numerical oracles shared across test modules.

Everything here recomputes quantities from first principles (finite
differences, brute-force quadrature, a separate elementwise transform, a
log likelihood in mpmath's arbitrary precision) so
library closed forms are checked against a second, slower derivation.
"""
import math

import numpy as np
from scipy.special import logsumexp

from transelect.errors import NonPositiveInput
from transelect.families import Family, PreparedData
from transelect.likelihood import (_BRANCH_TOL, MH_BLOCK, LikelihoodContext,
                                   log_sampling_kernel)


def make_data(values, xi=0.0, eps=0.0) -> PreparedData:
    """PreparedData wrapper around explicit values, bypassing standardization."""
    v = np.asarray(values, dtype=float)
    return PreparedData(raw=v, standardized=v, shift_xi=xi, epsilon=eps)


def transform_in_data_order(family: Family, data: PreparedData, lam: float = 0.0):
    """`LikelihoodContext.transform`'s (z, log|J|), with z in the data's order.

    The library lists Modulus's and Yeo-Johnson's non-negative observations
    first.
    """
    z, lj = LikelihoodContext(family, data).transform(lam)
    if family in (Family.MODULUS, Family.YEOJOHNSON):
        y = data.standardized
        order = np.concatenate([np.flatnonzero(y >= 0.0), np.flatnonzero(y < 0.0)])
        z = z[np.argsort(order)]
    return z, lj


def _check_lambda(family: Family, lam: float) -> None:
    if not family.in_domain(lam):
        raise ValueError(f"lambda={lam} outside the domain of {family.value}")


# The elementwise transforms below are a reference written apart from the
# library's cached-log formulas.
def _input_for(family: Family, data: PreparedData) -> np.ndarray:
    if family.requires_shift:
        y = data.shifted()
        if np.any(y <= 0.0):
            raise NonPositiveInput(
                f"{family.value} requires strictly positive input after shifting")
        return y
    return data.standardized


def forward(family: Family, data: PreparedData, lam: float = 0.0) -> np.ndarray:
    """Elementwise transformed data y^(lambda)."""
    y = _input_for(family, data)
    if family is Family.ID:
        return y.copy()
    if family is Family.LOG:
        return np.log(y)
    _check_lambda(family, lam)
    if family is Family.BOXCOX:
        if abs(lam) < _BRANCH_TOL:
            return np.log(y)
        return (np.power(y, lam) - 1.0) / lam
    if family is Family.MODULUS:
        u = np.abs(y) + 1.0
        s = np.where(y >= 0.0, 1.0, -1.0)
        if abs(lam) < _BRANCH_TOL:
            return s * np.log(u)
        return s * (np.power(u, lam) - 1.0) / lam
    if family is Family.YEOJOHNSON:
        out = np.empty_like(y)
        pos = y >= 0.0
        if abs(lam) < _BRANCH_TOL:
            out[pos] = np.log(y[pos] + 1.0)
        else:
            out[pos] = (np.power(y[pos] + 1.0, lam) - 1.0) / lam
        neg = ~pos
        u = 1.0 - y[neg]
        if abs(lam - 2.0) < _BRANCH_TOL:
            out[neg] = -np.log(u)
        else:
            out[neg] = -(np.power(u, 2.0 - lam) - 1.0) / (2.0 - lam)
        return out
    if family is Family.DUAL:
        if abs(lam) < _BRANCH_TOL:
            return np.log(y)
        return (np.power(y, lam) - np.power(y, -lam)) / (2.0 * lam)
    raise AssertionError(family)


def log_jacobian(family: Family, data: PreparedData, lam: float = 0.0) -> float:
    """Sum of log absolute derivatives of the forward map at the data points."""
    y = _input_for(family, data)
    if family is Family.ID:
        return 0.0
    if family is Family.LOG:
        return float(-np.log(y).sum())
    _check_lambda(family, lam)
    if family is Family.BOXCOX:
        return float((lam - 1.0) * np.log(y).sum())
    if family is Family.MODULUS:
        return float((lam - 1.0) * np.log(np.abs(y) + 1.0).sum())
    if family is Family.YEOJOHNSON:
        pos = y >= 0.0
        lp = np.log(y[pos] + 1.0).sum()
        ln = np.log(1.0 - y[~pos]).sum()
        return float((lam - 1.0) * lp + (1.0 - lam) * ln)
    if family is Family.DUAL:
        # log((y^(l-1) + y^(-l-1))/2), computed stably via logaddexp.
        logy = np.log(y)
        terms = np.logaddexp((lam - 1.0) * logy, (-lam - 1.0) * logy) - math.log(2.0)
        return float(terms.sum())
    raise AssertionError(family)


def mp_log_likelihood(family: Family, data: PreparedData, lam: float) -> float:
    """log f(y | lambda, T) in mpmath, from the elementwise definitions above.

    At large |lambda| the transformed values can agree to about
    |lambda| max|L| / ln 10 digits, with L the logs that the transform
    multiplies by lambda (or 2 - lambda), so the working precision is set
    from that bound (on 99 normal draws and one far outlier, 60 digits read
    1e4 nats off at lambda = -150). lambda must be off the branch points.
    """
    import mpmath

    _check_lambda(family, lam)
    y = _input_for(family, data)
    n = y.size
    logs = np.log(y) if family.requires_shift else np.log1p(np.abs(y))
    dps = 50 + int((abs(lam) + 2.0) * float(np.abs(logs).max()) / math.log(10.0))
    with mpmath.workdps(dps):
        lam_ = mpmath.mpf(float(lam))
        z, lj = [], mpmath.mpf(0)
        for value in map(float, y):
            yi = mpmath.mpf(value)
            if family is Family.BOXCOX:
                z.append((yi ** lam_ - 1) / lam_)
                lj += (lam_ - 1) * mpmath.log(yi)
            elif family is Family.MODULUS:
                u = abs(yi) + 1
                z.append(mpmath.sign(yi) * (u ** lam_ - 1) / lam_)
                lj += (lam_ - 1) * mpmath.log(u)
            elif family is Family.YEOJOHNSON:
                if yi >= 0:
                    z.append(((yi + 1) ** lam_ - 1) / lam_)
                    lj += (lam_ - 1) * mpmath.log(yi + 1)
                else:
                    z.append(-((1 - yi) ** (2 - lam_) - 1) / (2 - lam_))
                    lj += (1 - lam_) * mpmath.log(1 - yi)
            elif family is Family.DUAL:
                z.append((yi ** lam_ - yi ** -lam_) / (2 * lam_))
                lj += mpmath.log((yi ** (lam_ - 1) + yi ** (-lam_ - 1)) / 2)
            else:
                raise ValueError(f"{family.value} has no transformation parameter")
        mean = mpmath.fsum(z) / n
        ss = mpmath.fsum((zi - mean) ** 2 for zi in z)
        half = mpmath.mpf(n - 1) / 2
        return float(mpmath.loggamma(half) - half * mpmath.log(mpmath.pi)
                     - mpmath.log(n) / 2 - half * mpmath.log(ss) + lj)


def _trapz_log_weights(grid: np.ndarray) -> np.ndarray:
    w = np.full(grid.size, math.log(grid[1] - grid[0]))
    w[0] -= math.log(2.0)
    w[-1] -= math.log(2.0)
    return w


def brute_force_log_evidence(family: Family, data: PreparedData, lam: float,
                             n_u: int = 1601, n_t: int = 2001) -> float:
    """2-D quadrature of the full likelihood over (location, log scale-squared).

    The location axis is standardized as u = sqrt(n) (mu - zbar) / sigma so a
    fixed grid resolves the integrand at every scale; the substitution carries
    the exact Jacobian factors, so this is still a direct double integral of
    the untransformed-likelihood-times-Jeffreys-prior expression.
    """
    z = forward(family, data, lam)
    n = z.size
    ss0 = float(((z - z.mean()) ** 2).sum())
    t0 = math.log(ss0)
    t = np.linspace(t0 - 30.0, t0 + 30.0, n_t)
    u = np.linspace(-10.0, 10.0, n_u)
    logf = (-0.5 * n * math.log(2.0 * math.pi) - 0.5 * math.log(n)
            - 0.5 * (n - 1) * t[None, :]
            - (ss0 / (2.0 * np.exp(t)))[None, :]
            - (0.5 * u ** 2)[:, None])
    total = logsumexp(logf + _trapz_log_weights(u)[:, None]
                      + _trapz_log_weights(t)[None, :])
    return float(total) + log_jacobian(family, data, lam)


def fd_log_jacobian(family: Family, data: PreparedData, lam: float,
                    h: float = 1e-5) -> float:
    """Sum of logs of central finite differences of the forward map.

    The step shrinks near the positivity boundary for shift-requiring
    families, where the transform's curvature blows up like 1/v^2.
    """
    base = data.standardized
    total = 0.0
    for i in range(base.size):
        hi = h
        if family.requires_shift:
            hi = min(h, 1e-4 * (base[i] + data.shift_xi))
        up, dn = base.copy(), base.copy()
        up[i] += hi
        dn[i] -= hi
        dup = PreparedData(raw=data.raw, standardized=up,
                           shift_xi=data.shift_xi, epsilon=data.epsilon)
        ddn = PreparedData(raw=data.raw, standardized=dn,
                           shift_xi=data.shift_xi, epsilon=data.epsilon)
        deriv = (forward(family, dup, lam)[i] - forward(family, ddn, lam)[i]) / (2.0 * hi)
        total += math.log(abs(deriv))
    return total


def fd_fisher_scale(family: Family, imaginary, anchor_value: float | None = None,
                    h: float = 1e-3) -> float:
    """Prior sd from a central second difference of the discounted log likelihood."""
    ctx = imaginary.context(family)
    n = imaginary.n_star
    if family is Family.DUAL:
        a = math.log(anchor_value)

        def g(x):
            return ctx.loglik(math.exp(x)) / n
    else:
        a = 1.0

        def g(x):
            return ctx.loglik(x) / n
    d2 = (g(a + h) - 2.0 * g(a) + g(a - h)) / h ** 2
    return (-d2) ** -0.5


def dense_posterior_sd(ctx, prior, lo: float, hi: float,
                       n_coarse: int = 2001, n_fine: int = 10001) -> float:
    """Posterior sd of lambda by fixed-grid trapezoid sums of scalar kernel calls.

    The prior's density is on the sampling scale x; on log lambda it becomes
    a density of lambda by subtracting log(lambda), so [lo, hi] must then lie
    in lambda > 0. A coarse grid over [lo, hi] finds where the log kernel lies
    within 40 nats of its maximum; a fine grid over that region gives the
    moments.
    """
    on_log = ctx.family.on_log_scale

    def log_kernel(grid):
        out = []
        for lam in map(float, grid):
            x = math.log(lam) if on_log else lam
            lp = prior.log_density(x) - (x if on_log else 0.0)
            out.append(-math.inf if lp == -math.inf else ctx.loglik(lam) + lp)
        return np.array(out)

    coarse = np.linspace(lo, hi, n_coarse)
    vals = log_kernel(coarse)
    keep = np.flatnonzero(vals > vals.max() - 40.0)
    a = coarse[max(keep[0] - 1, 0)]
    b = coarse[min(keep[-1] + 1, coarse.size - 1)]
    fine = np.linspace(a, b, n_fine)
    logw = log_kernel(fine) + _trapz_log_weights(fine)
    w = np.exp(logw - logsumexp(logw))
    mean = float(w @ fine)
    return math.sqrt(float(w @ (fine - mean) ** 2))


def exact_mh(ctx, prior, cfg, start: float, step_sd: float, seed: int):
    """(draws, log_kernel, accept_rate) of `run_mh`'s random walk with every
    proposal scored by the exact kernel: the same seed, the same blocks of
    MH_BLOCK proposal steps and then as many uniforms, and no table. Its
    acceptance test is u < exp(min(0, k' - k)), not run_mh's bar."""
    x, k = start, log_sampling_kernel(ctx, prior, start)
    rng = np.random.default_rng(seed)
    n_steps = cfg.burn_in + cfg.draws
    dx, u = [], []
    for first in range(0, n_steps, MH_BLOCK):
        m = min(MH_BLOCK, n_steps - first)
        dx += rng.normal(0.0, step_sd, m).tolist()
        u += rng.random(m).tolist()
    draws, kernels = np.empty(cfg.draws), np.empty(cfg.draws)
    accepted = 0
    for t, d, ut in zip(range(-cfg.burn_in, cfg.draws), dx, u):
        prop = x + d
        kp = log_sampling_kernel(ctx, prior, prop)
        if ut < math.exp(min(0.0, kp - k)):
            x, k = prop, kp
            accepted += t >= 0
        if t >= 0:
            draws[t], kernels[t] = x, k
    return draws, kernels, accepted / cfg.draws
