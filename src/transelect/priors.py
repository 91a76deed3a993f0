"""Compatible priors for the transformation parameter: power prior and unit-information prior."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import NonPositiveCurvature
from .families import Family, PreparedData, prepare
from .likelihood import LikelihoodContext
from .quadrature import sampling_integral

MIN_N_STAR = 10
IMAGINARY_SOURCES = ("simulated", "empirical")


@dataclass
class ImaginaryData:
    """Standardized imaginary dataset grounding both prior settings.

    The discount exponent is fixed at 1/n_star so the data contribute one
    unit of information regardless of their size.
    """

    prepared: PreparedData
    _contexts: dict = field(default_factory=dict, repr=False)

    @property
    def n_star(self) -> int:
        return self.prepared.n

    @property
    def alpha0(self) -> float:
        return 1.0 / self.n_star

    def context(self, family: Family) -> LikelihoodContext:
        if family not in self._contexts:
            self._contexts[family] = LikelihoodContext(family, self.prepared)
        return self._contexts[family]


def make_imaginary(n_star: int = 100, source: str = "simulated",
                   seed: int = 0, observed=None) -> ImaginaryData:
    """Simulated standard-normal imaginary data, or a standardized copy of the observed."""
    if source not in IMAGINARY_SOURCES:
        raise ValueError(f"unknown imaginary-data source {source!r}; "
                         f"choose from {list(IMAGINARY_SOURCES)}")
    if source == "simulated":
        if n_star < MIN_N_STAR:
            raise ValueError(f"n_star must be at least {MIN_N_STAR}")
        values = np.random.default_rng(seed).normal(size=n_star)
    else:
        if observed is None:
            raise ValueError("empirical source requires the observed data")
        values = np.asarray(observed, dtype=float)
    return ImaginaryData(prepared=prepare(values))


# Dual's lambda taken as 'no transformation' when the imaginary data give no
# interior maximum.
DUAL_ANCHOR_DEFAULT = 1.2


@dataclass(frozen=True)
class DualAnchor:
    value: float
    from_fallback: bool = False


def estimate_dual_anchor(imaginary: ImaginaryData) -> DualAnchor:
    """Dual-family parameter value acting as 'no transformation': the imaginary-data MLE."""
    ctx = imaginary.context(Family.DUAL)
    lo, hi = 1e-6, 20.0
    res = minimize_scalar(lambda lam: -ctx.loglik(lam), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-6})
    lam = float(res.x)
    # a solution stuck at either bound means no interior maximum was bracketed
    if not res.success or lam < 100.0 * lo or lam > 0.99 * hi:
        return DualAnchor(DUAL_ANCHOR_DEFAULT, from_fallback=True)
    return DualAnchor(lam)


def _svar(x: np.ndarray) -> float:
    return float(x.var(ddof=1))


def _scov(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.dot(x - x.mean(), y - y.mean()) / (x.size - 1))


def fisher_scale(family: Family, imaginary: ImaginaryData, anchor: DualAnchor) -> float:
    """Unit-information prior sd: inverse root of the observed information of the
    discounted imaginary-data log likelihood at lambda = 1, or at the Dual anchor
    where `Family.on_log_scale`."""
    anchor_value = anchor.value if family.on_log_scale else 1.0
    z, dz, d2z, jac2 = imaginary.context(family).transform_derivatives(anchor_value)
    n = imaginary.n_star
    sz2 = _svar(z)
    bracket = (_svar(dz) + _scov(z, d2z)) / sz2 - 2.0 * (_scov(z, dz) / sz2) ** 2
    info = (n - 1) / n * bracket - jac2 / n
    if not math.isfinite(info) or info <= 0.0:
        raise NonPositiveCurvature(
            f"observed information {info} for {family.value} at anchor {anchor_value}")
    return info ** -0.5


@dataclass(frozen=True)
class PowerPrior:
    """Prior A: normalized power prior on the family's sampling scale, built
    from imaginary data."""

    family: Family
    imaginary: ImaginaryData
    log_norm_const: float
    kind: ClassVar[str] = "A"
    window: ClassVar[None] = None  # quadrature starts from the sampling scale's default

    def log_density(self, x):
        """Log density at the sampling-scale point x: the imaginary-data log
        likelihood discounted by 1/n*, plus the Jacobian x of lambda = e^x
        where `Family.on_log_scale`, minus log_norm_const. x is a float or a
        numpy array; the density is -inf outside the family's domain.
        """
        val = (self.imaginary.context(self.family).loglik(self.family.to_lambda(x))
               * self.imaginary.alpha0)
        return (val + x if self.family.on_log_scale else val) - self.log_norm_const


@dataclass(frozen=True)
class UnitInfoPrior:
    """Prior B: normal prior on the family's sampling scale, so log-normal in
    lambda for a family on the log scale."""

    family: Family
    location: float              # on the family's sampling scale
    scale: float
    kind: ClassVar[str] = "B"

    def __post_init__(self) -> None:
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"prior scale must be positive and finite, got {self.scale}")

    @property
    def window(self) -> tuple[float, float]:
        """The 10-sigma window quadrature starts from, so that its first grid resolves
        arbitrarily narrow priors; the grid grows wherever the likelihood pushes mass."""
        return (self.location - 10.0 * self.scale, self.location + 10.0 * self.scale)

    def log_density(self, x):
        """Normal log density at the sampling-scale point x, a float or a numpy array."""
        return (-0.5 * math.log(2.0 * math.pi) - math.log(self.scale)
                - (x - self.location) ** 2 / (2.0 * self.scale ** 2))


def build_power_prior(family: Family, imaginary: ImaginaryData) -> PowerPrior:
    """Prior A, normalized by integrating its kernel over the sampling scale."""
    kernel = PowerPrior(family, imaginary, log_norm_const=0.0).log_density
    return PowerPrior(family, imaginary,
                      log_norm_const=sampling_integral(kernel, family.on_log_scale).value)


def build_unit_info_prior(family: Family, imaginary: ImaginaryData,
                          anchor: DualAnchor) -> UnitInfoPrior:
    """Prior B centred on 'no transformation': lambda = 1, or where
    `Family.on_log_scale` the log of the setup's Dual anchor."""
    location = math.log(anchor.value) if family.on_log_scale else 1.0
    return UnitInfoPrior(family=family, location=location,
                         scale=fisher_scale(family, imaginary, anchor))
