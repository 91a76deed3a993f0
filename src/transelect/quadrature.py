"""Log-space adaptive quadrature for one-dimensional evidence integrals."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import logsumexp

from .errors import IntegrationFailure

# Default integration windows on each sampling scale: lambda, or log lambda.
REAL_WINDOW = (-5.0, 7.0)
LOG_WINDOW = (math.log(1e-8), math.log(20.0))

# Hard limits beyond which tails are declared non-decaying. Heavy-tailed
# data can push a family's posterior mode to very large lambda (a large
# shift constant compresses the relative range of the shifted data), so the
# real-scale limit is generous.
REAL_LIMIT = (-200.0, 200.0)
LOG_LIMIT = (math.log(1e-12), math.log(200.0))
# Stop halving the step once the log integral moves by < ABS_TOL.
ABS_TOL, MAX_HALVINGS = 1e-8, 10
TAIL_TOL = 1e-12  # endpoint share of the mass below which the window stops growing


@dataclass(frozen=True)
class LogIntegral:
    """A log integral with the final trapezoid grid it was read from."""

    value: float
    xs: np.ndarray              # final grid, evenly spaced
    log_vals: np.ndarray        # log integrand at xs
    expansions: int             # times the window grew
    halvings: int               # times the grid step was halved

    def weights(self) -> np.ndarray:
        """Trapezoid weights of the integrand at xs, normalized to sum to 1:
        the distribution on the grid that the integrand is proportional to."""
        w = np.exp(self.log_vals + _log_weights(self.xs.size, self.xs[1] - self.xs[0])
                   - self.value)
        return w / w.sum()


def _log_weights(size: int, step: float) -> np.ndarray:
    logw = np.full(size, math.log(step))
    logw[0] -= math.log(2.0)
    logw[-1] -= math.log(2.0)
    return logw


def _log_trapz(log_vals: np.ndarray, step: float) -> float:
    return float(logsumexp(log_vals + _log_weights(log_vals.size, step)))


def _eval(log_f: Callable[[np.ndarray], np.ndarray], xs: np.ndarray) -> np.ndarray:
    vals = np.broadcast_to(np.asarray(log_f(xs), dtype=float), xs.shape)
    return np.where(np.isnan(vals), -np.inf, vals)


def log_integral(
    log_f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    *,
    init_points: int = 257,
    limits: tuple[float, float] | None = None,
    boundary_lo: bool = False,
) -> LogIntegral:
    """log of the integral of exp(log_f) over [lo, hi].

    log_f takes a numpy array of points and is called once per grid. The
    trapezoid grid is refined by halving the step until the log value
    stabilizes. When `limits` is given the window is first expanded until
    endpoint contributions fall below TAIL_TOL of the total mass.
    boundary_lo marks the lower limit as a support boundary where the
    integrand may stay finite without the integral being truncated.
    """
    expansions = 0
    if limits is not None:
        lo, hi, expansions = _expand_window(log_f, lo, hi, limits, boundary_lo)

    xs = np.linspace(lo, hi, init_points)
    vals = _eval(log_f, xs)
    total = _log_trapz(vals, xs[1] - xs[0])
    halvings = 0
    for halvings in range(1, MAX_HALVINGS + 1):
        mid = (xs[:-1] + xs[1:]) / 2.0
        new_xs = np.empty(xs.size + mid.size)
        new_vals = np.empty_like(new_xs)
        new_xs[0::2], new_xs[1::2] = xs, mid
        new_vals[0::2], new_vals[1::2] = vals, _eval(log_f, mid)
        xs, vals = new_xs, new_vals
        refined = _log_trapz(vals, xs[1] - xs[0])
        done = abs(refined - total) < ABS_TOL
        total = refined
        if done:
            break
    return LogIntegral(total, xs, vals, expansions, halvings)


def _expand_window(log_f, lo, hi, limits, boundary_lo):
    lim_lo, lim_hi = limits
    log_tail = math.log(TAIL_TOL)
    for expansions in range(200):
        xs = np.linspace(lo, hi, 129)
        vals = _eval(log_f, xs)
        step = xs[1] - xs[0]
        total = _log_trapz(vals, step)
        lo_heavy = vals[0] + math.log(step) - total > log_tail
        hi_heavy = vals[-1] + math.log(step) - total > log_tail
        width = hi - lo
        grew = False
        if lo_heavy and lo > lim_lo:
            lo = max(lim_lo, lo - 0.5 * width)
            grew = True
        if hi_heavy and hi < lim_hi:
            hi = min(lim_hi, hi + 0.5 * width)
            grew = True
        if not grew:
            if (lo_heavy and lo <= lim_lo and not boundary_lo) or (
                    hi_heavy and hi >= lim_hi):
                raise IntegrationFailure(
                    f"integrand tails do not decay within limits {limits}")
            return lo, hi, expansions
    raise IntegrationFailure("window expansion did not converge")


def sampling_integral(log_f: Callable[[np.ndarray], np.ndarray], on_log: bool,
                      window: tuple[float, float] | None = None) -> LogIntegral:
    """`log_integral` on a family's sampling scale: lambda, or log lambda when
    on_log. The window (default: the scale's own) is clipped to the scale's
    limits; on log lambda the lower limit is the lambda -> 0 boundary."""
    lim_lo, lim_hi = LOG_LIMIT if on_log else REAL_LIMIT
    lo, hi = window if window is not None else (LOG_WINDOW if on_log else REAL_WINDOW)
    return log_integral(log_f, max(lo, lim_lo), min(hi, lim_hi),
                        limits=(lim_lo, lim_hi), boundary_lo=on_log)
