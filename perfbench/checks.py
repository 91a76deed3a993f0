"""Checks on transelect's outputs, computed apart from the program.

The evidence of a parametric family is recomputed here on a dense fixed grid
from the marginalized likelihood

    log f(y | lam) = C(n) - ((n-1)/2) log SS(lam) + log|J(lam)|,

with C(n) = lgamma((n-1)/2) - ((n-1)/2) log(pi) - log(n)/2, the result of
integrating location and scale out of a normal model under the 1/sigma^2
prior. Transforms and Jacobians are written from their textbook definitions,
vectorized over lambda, and share no code with the program. Only the imaginary
data and the prior parameters come from the program's public builders.

Reports are checked in their `SelectionReport.to_dict()` form, sweeps in the
rows of `sweep.csv`, so these checks do not depend on the program's classes.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

PARAMETRIC = ("boxcox", "modulus", "yeojohnson", "dual")
FAMILIES = ("id", "log") + PARAMETRIC

# |program quadrature - dense grid| in nats. The program refines until its
# trapezoid sum moves by less than 1e-8; the observed gap is below 1e-10.
QUAD_TOL = 1e-6
CLOSED_FORM_TOL = 1e-8
CHIB_TOL = 0.1          # acceptance criterion 5
LM_TOL = 0.5            # acceptance criterion 5, families other than Dual
PROB_SUM_TOL = 1e-12    # acceptance criterion 11

REAL_RANGE = (-200.0, 200.0)                          # lambda
LOG_RANGE = (math.log(1e-12), math.log(200.0))        # log lambda, Dual
_COARSE, _FINE, _DROP = 401, 1201, 60.0
_CHUNK = 128


class CheckFailure(AssertionError):
    """An output of the program disagrees with the benchmark's own computation."""


def prepared(raw) -> tuple[np.ndarray, np.ndarray]:
    """Standardized data z (unbiased sd) and the shifted copy v used by
    Log, Box-Cox and Dual: v = z + |min z| + eps, eps half the smallest
    positive z."""
    x = np.asarray(raw, dtype=float)
    z = (x - x.mean()) / x.std(ddof=1)
    m = z.min()
    xi = 0.0 if m > 0 else abs(m) + z[z > 0].min() / 2.0
    return z, z + xi


def _power_ratio(log_x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """(x^lam - 1) / lam, with its limit log x at lam = 0; lam is a column."""
    safe = np.where(lam == 0.0, 1.0, lam)
    return np.where(lam == 0.0, log_x, np.expm1(lam * log_x) / safe)


def _log_cosh(a: np.ndarray) -> np.ndarray:
    a = np.abs(a)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def _transform(family: str, z: np.ndarray, v: np.ndarray,
               lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transformed data (k, n) and log|J| (k,) for a column of k lambdas."""
    if family == "id":
        return np.broadcast_to(z, (lam.shape[0], z.size)), np.zeros(lam.shape[0])
    if family == "log":
        lv = np.log(v)
        return np.broadcast_to(lv, (lam.shape[0], z.size)), np.full(lam.shape[0], -lv.sum())
    lam1 = lam[:, 0]
    if family == "boxcox":
        lv = np.log(v)
        return _power_ratio(lv, lam), (lam1 - 1.0) * lv.sum()
    if family == "modulus":
        lu = np.log1p(np.abs(z))
        return np.sign(z + (z == 0)) * _power_ratio(lu, lam), (lam1 - 1.0) * lu.sum()
    if family == "yeojohnson":
        pos = z >= 0
        lp, ln = np.log1p(z[pos]), np.log1p(-z[~pos])
        t = np.concatenate([_power_ratio(lp, lam), -_power_ratio(ln, 2.0 - lam)], axis=1)
        return t, (lam1 - 1.0) * (lp.sum() - ln.sum())
    if family == "dual":
        # (v^lam - v^-lam) / (2 lam), derivative v^-1 cosh(lam log v)
        lv = np.log(v)
        return np.sinh(lam * lv) / lam, (_log_cosh(lam * lv) - lv).sum(axis=1)
    raise ValueError(f"unknown family {family}")


def log_constant(n: int) -> float:
    return (math.lgamma((n - 1) / 2.0) - (n - 1) / 2.0 * math.log(math.pi)
            - 0.5 * math.log(n))


def loglik(family: str, z: np.ndarray, v: np.ndarray, lams,
           include_constant: bool = True) -> np.ndarray:
    """log f(y | lam) at every lambda in `lams`; -inf where it overflows."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    n = z.size
    const = log_constant(n) if include_constant else 0.0
    out = np.empty(lams.size)
    with np.errstate(all="ignore"):
        for i in range(0, lams.size, _CHUNK):
            lam = lams[i:i + _CHUNK, None]
            t, logj = _transform(family, z, v, lam)
            ss = ((t - t.mean(axis=1, keepdims=True)) ** 2).sum(axis=1)
            out[i:i + _CHUNK] = const - (n - 1) / 2.0 * np.log(ss) + logj
    out[~np.isfinite(out)] = -np.inf
    return out


def log_integrate(log_g, lo: float, hi: float) -> float:
    """log of the integral of exp(log_g) over [lo, hi] on fixed grids.

    A coarse grid finds where the integrand lies within 60 nats of its
    maximum; a fine trapezoid grid then covers that region. The ends of
    [lo, hi] are hard limits, matching the program's quadrature limits.
    """
    xs = np.linspace(lo, hi, _COARSE)
    vals = log_g(xs)
    top = vals.max()
    if not np.isfinite(top):
        raise CheckFailure("integrand is -inf on the whole coarse grid")
    keep = np.flatnonzero(vals > top - _DROP)
    a = xs[max(keep[0] - 2, 0)]
    b = xs[min(keep[-1] + 2, xs.size - 1)]
    fine = np.linspace(a, b, _FINE)
    fv = log_g(fine)
    logw = np.full(fine.size, math.log(fine[1] - fine[0]))
    logw[[0, -1]] -= math.log(2.0)
    return float(logsumexp(fv + logw))


def _normal_logpdf(x, loc: float, scale: float):
    return (-0.5 * math.log(2.0 * math.pi) - math.log(scale)
            - (x - loc) ** 2 / (2.0 * scale ** 2))


def own_evidence(family: str, raw, prior_kind: str, *, imaginary_raw=None,
                 location: float | None = None, scale: float | None = None) -> float:
    """Dense-grid log evidence of one family for one dataset.

    Prior A takes the raw imaginary data: the power prior is the imaginary
    likelihood raised to 1/n*, normalized by its own dense-grid integral.
    Prior B takes the unit-information prior's location and scale; for Dual
    these are on log lambda. Dual is integrated over x = log lambda, which
    adds x to the log integrand.
    """
    z, v = prepared(raw)
    if family in ("id", "log"):
        return float(loglik(family, z, v, [0.0])[0])
    on_log = family == "dual"
    lo, hi = LOG_RANGE if on_log else REAL_RANGE

    def lam_of(x):
        return np.exp(x) if on_log else x

    def jac(x):
        return x if on_log else 0.0

    if prior_kind == "A":
        zi, vi = prepared(imaginary_raw)
        alpha = 1.0 / zi.size

        def log_prior_kernel(x):
            return alpha * loglik(family, zi, vi, lam_of(x), include_constant=False)

        log_norm = log_integrate(lambda x: log_prior_kernel(x) + jac(x), lo, hi)
        return log_integrate(
            lambda x: loglik(family, z, v, lam_of(x)) + log_prior_kernel(x) + jac(x),
            lo, hi) - log_norm
    if prior_kind == "B":
        # Normal on lambda, log-normal on lambda for Dual: in x = log lambda
        # the log-normal's 1/lambda cancels the change-of-variable term.
        return log_integrate(
            lambda x: loglik(family, z, v, lam_of(x)) + _normal_logpdf(x, location, scale),
            lo, hi)
    raise ValueError(f"unknown prior kind {prior_kind}")


def check_report(report: dict, own: dict[str, float], expect_first: str | None = None) -> None:
    """Check one `SelectionReport.to_dict()` against the dense-grid evidence `own`.

    own maps each family to its dense-grid log evidence (closed form for Id
    and Log). Raises CheckFailure on the first violated property.
    """
    fams = {r["family"]: r for r in report["families"]}
    if sorted(fams) != sorted(FAMILIES):
        raise CheckFailure(f"report covers {sorted(fams)}, not all six families")
    probs = np.array([r["posterior_model_prob"] for r in fams.values()])
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        raise CheckFailure(f"probabilities outside [0, 1]: {probs}")
    if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
        raise CheckFailure(f"probabilities sum to 1 + {probs.sum() - 1.0:.3e}")
    for fam, r in fams.items():
        ev = {m: e["log_marginal"] for m, e in r["evidence"].items()}
        if fam in ("id", "log"):
            if abs(ev["closed_form"] - own[fam]) > CLOSED_FORM_TOL:
                raise CheckFailure(f"{fam}: closed form {ev['closed_form']:.10f} "
                                   f"vs own {own[fam]:.10f}")
            continue
        if "quadrature" in ev and abs(ev["quadrature"] - own[fam]) > QUAD_TOL:
            raise CheckFailure(f"{fam}: quadrature {ev['quadrature']:.8f} vs "
                               f"dense grid {own[fam]:.8f}")
        if "chib" in ev and abs(ev["chib"] - own[fam]) > CHIB_TOL:
            raise CheckFailure(f"{fam}: |chib - quadrature| = "
                               f"{abs(ev['chib'] - own[fam]):.4f} > {CHIB_TOL}")
        if (fam != "dual" and "laplace_metropolis" in ev
                and abs(ev["laplace_metropolis"] - own[fam]) > LM_TOL):
            raise CheckFailure(f"{fam}: |laplace-metropolis - quadrature| = "
                               f"{abs(ev['laplace_metropolis'] - own[fam]):.4f} > {LM_TOL}")
    if expect_first is not None and report["ranking"][0] != expect_first:
        raise CheckFailure(f"{report['ranking'][0]} ranks first, expected {expect_first}")


def check_sweep(rows: list[dict], points: list[float], replications: int) -> None:
    """Check the rows of one gamma-skewness `sweep.csv`.

    Every point must carry all six families with the requested replication
    count, its mean probabilities must sum to 1, and the Box-Cox mean lambda
    mode must rise as skewness falls.
    """
    by_point: dict[float, dict[str, dict]] = {}
    for row in rows:
        by_point.setdefault(float(row["axis_value"]), {})[row["family"]] = row
    if sorted(by_point) != sorted(points):
        raise CheckFailure(f"sweep points {sorted(by_point)}, expected {sorted(points)}")
    modes = []
    for p in sorted(points, reverse=True):
        fams = by_point[p]
        if sorted(fams) != sorted(FAMILIES):
            raise CheckFailure(f"point {p}: families {sorted(fams)}")
        for fam, row in fams.items():
            if int(row["replications"]) != replications:
                raise CheckFailure(f"point {p} {fam}: {row['replications']} "
                                   f"replications, expected {replications}")
        total = math.fsum(float(r["mean_pmp"]) for r in fams.values())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise CheckFailure(f"point {p}: mean probabilities sum to 1 + {total - 1.0:.3e}")
        modes.append(float(fams["boxcox"]["mean_lambda_mode"]))
    if not all(b > a for a, b in zip(modes, modes[1:])):
        raise CheckFailure(f"Box-Cox mean lambda modes {modes} do not rise as skewness falls")


def check_winner(report: dict, own: dict[str, float]) -> None:
    """The program's first family must be the dense-grid first family, unless
    the two lie within the estimators' combined tolerance of each other."""
    best = max(own, key=own.get)
    first = report["ranking"][0]
    if own[best] - own[first] > 2 * CHIB_TOL:
        raise CheckFailure(f"{first} ranks first, but {best} has "
                           f"{own[best] - own[first]:.3f} nats more dense-grid evidence")
