"""Log-space adaptive quadrature for one-dimensional evidence integrals."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    """log of the trapezoid sum of exp(log_vals) on a grid of the given step.

    It takes scipy.special.logsumexp's steps in scipy's order (Blanchard,
    Higham & Higham 2021), so it returns the same float: the m maxima are
    zeroed in e = exp(a - max), which keeps its length and so numpy's summation
    order, and come back as log1p(sum(e) / m) + log(m). Without a finite
    maximum the sum is taken directly.
    """
    a = log_vals + _log_weights(log_vals.size, step)
    a_max = a.max()
    if not np.isfinite(a_max):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return float(np.log(np.exp(a).sum()))
    is_max = a == a_max
    e = np.exp(a - a_max)
    e[is_max] = 0.0
    m = np.count_nonzero(is_max)
    return float(np.log1p(e.sum() / m) + np.log(m) + a_max)


def _eval(log_f: Callable[[np.ndarray], np.ndarray], xs: np.ndarray) -> np.ndarray:
    vals = np.broadcast_to(np.asarray(log_f(xs), dtype=float), xs.shape)
    return np.where(np.isnan(vals), -np.inf, vals)


def sampling_integral(log_f: Callable[[np.ndarray], np.ndarray], on_log: bool,
                      window: tuple[float, float] | None = None) -> LogIntegral:
    """log of the integral of exp(log_f) over a family's sampling scale: lambda,
    or log lambda when on_log.

    log_f takes a numpy array of points and is called once per grid, each
    point being scored once. The window (default: the scale's own) is
    clipped to the scale's limits. 129-point probe grids then grow it by half
    its width on each side whose endpoint holds more than TAIL_TOL of the
    mass; on log lambda the lower limit is the lambda -> 0 boundary, where
    the integrand may stay finite without the integral being truncated.
    Finally the last probe grid is refined by halving its step until the
    log value moves by less than ABS_TOL; IntegrationFailure if it still
    moves after MAX_HALVINGS halvings.
    """
    lim_lo, lim_hi = LOG_LIMIT if on_log else REAL_LIMIT
    lo, hi = window if window is not None else (LOG_WINDOW if on_log else REAL_WINDOW)
    lo, hi = max(lo, lim_lo), min(hi, lim_hi)
    log_tail = math.log(TAIL_TOL)
    for expansions in range(200):
        xs = np.linspace(lo, hi, 129)
        vals = _eval(log_f, xs)
        step = xs[1] - xs[0]
        total = _log_trapz(vals, step)
        if not math.isfinite(total):
            raise IntegrationFailure(
                f"log integral {total} on the probe window {(lo, hi)} is not finite")
        lo_heavy = vals[0] + math.log(step) - total > log_tail
        hi_heavy = vals[-1] + math.log(step) - total > log_tail
        width = hi - lo
        grown = (max(lim_lo, lo - 0.5 * width) if lo_heavy else lo,
                 min(lim_hi, hi + 0.5 * width) if hi_heavy else hi)
        if grown == (lo, hi):
            break
        lo, hi = grown
    else:
        raise IntegrationFailure("window expansion did not converge")
    # a heavy side that did not grow sits at its limit
    if hi_heavy or (lo_heavy and not on_log):
        raise IntegrationFailure(
            f"integrand tails do not decay within limits {(lim_lo, lim_hi)}")

    # Halving 0 takes the probe to 257 points, so that the first comparison
    # is between the 257- and 513-point sums.
    for halvings in range(MAX_HALVINGS + 1):
        mid = (xs[:-1] + xs[1:]) / 2.0
        new_xs = np.empty(xs.size + mid.size)
        new_vals = np.empty_like(new_xs)
        new_xs[0::2], new_xs[1::2] = xs, mid
        new_vals[0::2], new_vals[1::2] = vals, _eval(log_f, mid)
        xs, vals = new_xs, new_vals
        refined = _log_trapz(vals, xs[1] - xs[0])
        change, total = abs(refined - total), refined
        if halvings > 0 and change < ABS_TOL:
            return LogIntegral(total, xs, vals, expansions, halvings)
    raise IntegrationFailure(
        f"log integral on the window {(lo, hi)} did not settle in {MAX_HALVINGS} "
        f"halvings: the last one moved it by {change}")
