"""The six transformation families: forward maps, Jacobians, standardization, shifting."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateData, DomainError, NonPositiveInput

# Below this distance from a removable singularity the closed-form branch is used.
_BRANCH_TOL = 1e-10


class Family(Enum):
    ID = "id"
    LOG = "log"
    BOXCOX = "boxcox"
    MODULUS = "modulus"
    YEOJOHNSON = "yeojohnson"
    DUAL = "dual"

    @property
    def has_lambda(self) -> bool:
        return self not in (Family.ID, Family.LOG)

    @property
    def requires_shift(self) -> bool:
        # Shifting to the positive axis applies to the positivity-constrained maps.
        return self in (Family.LOG, Family.BOXCOX, Family.DUAL)

    @property
    def on_log_scale(self) -> bool:
        # Dual's lambda > 0 is sampled, integrated and given its prior B on log lambda.
        return self is Family.DUAL

    @property
    def lambda_domain(self) -> tuple[float, float] | None:
        if not self.has_lambda:
            return None
        if self is Family.DUAL:
            return (0.0, math.inf)
        return (-math.inf, math.inf)

    def check_lambda(self, lam: float) -> float:
        dom = self.lambda_domain
        if dom is None:
            return lam
        lo, hi = dom
        if not (lo < lam < hi) or not math.isfinite(lam):
            raise DomainError(f"lambda={lam} outside domain {dom} of {self.value}")
        return lam


PARAMETRIC_FAMILIES = (Family.BOXCOX, Family.MODULUS, Family.YEOJOHNSON, Family.DUAL)
ALL_FAMILIES = (Family.ID, Family.LOG, Family.BOXCOX, Family.MODULUS,
                Family.YEOJOHNSON, Family.DUAL)


@dataclass(frozen=True)
class PreparedData:
    """Standardized observations plus the shift constant for positivity-bound families."""

    raw: np.ndarray
    standardized: np.ndarray
    shift_xi: float
    epsilon: float
    n: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", self.standardized.size)

    def shifted(self) -> np.ndarray:
        return self.standardized + self.shift_xi


def standardize(raw) -> np.ndarray:
    """Z-score with the unbiased sample standard deviation."""
    x = np.asarray(raw, dtype=float)
    if x.size < 3:
        raise DegenerateData(f"need at least 3 observations, got {x.size}")
    sd = x.std(ddof=1)
    if sd <= 0.0 or not np.isfinite(sd):
        raise DegenerateData("sample standard deviation is zero")
    return (x - x.mean()) / sd


def compute_shift(standardized) -> tuple[float, float]:
    """Shift constant xi = |min| + eps with eps half the smallest non-zero
    value among the non-negative observations.

    Returns (0, 0) when the data are already strictly positive. When no
    observation is strictly positive, eps falls back to half the smallest
    positive gap from the minimum so that eps > 0 for any non-constant data.
    """
    v = np.asarray(standardized, dtype=float)
    if v.size == 0:
        raise DegenerateData("empty vector")
    m = v.min()
    if m > 0.0:
        return 0.0, 0.0
    positive = v[v > 0.0]
    if positive.size == 0:
        gaps = v - m
        positive = gaps[gaps > 0.0]
    if positive.size == 0:
        raise DegenerateData("all elements equal; shift epsilon undefined")
    eps = positive.min() / 2.0
    return abs(m) + eps, eps


def prepare(raw) -> PreparedData:
    """Standardize and attach the common shift constant."""
    x = np.asarray(raw, dtype=float)
    z = standardize(x)
    xi, eps = compute_shift(z)
    return PreparedData(raw=x, standardized=z, shift_xi=xi, epsilon=eps)


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
    family.check_lambda(lam)
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
    family.check_lambda(lam)
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
