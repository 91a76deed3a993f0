"""The six transformation families, their parameter domains, standardization and shifting.

Transforms are computed by `likelihood.LikelihoodContext._scaled`, exposed by `transform`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateData

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
        # Dual's lambda > 0 is sampled, integrated and given its priors on log lambda.
        return self is Family.DUAL

    def to_lambda(self, x):
        """lambda at the sampling-scale point x, a float or a numpy array:
        e^x where `on_log_scale`, else x itself."""
        return np.exp(x) if self.on_log_scale else x

    def in_domain(self, lam):
        """Whether lam, a float or a numpy array (elementwise), lies in the
        family's parameter domain: finite, and positive for Dual."""
        if self is Family.DUAL:
            return (0.0 < lam) & (lam < math.inf)
        return abs(lam) < math.inf


ALL_FAMILIES = tuple(Family)
PARAMETRIC_FAMILIES = tuple(f for f in Family if f.has_lambda)


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
    """Z-score with the unbiased sample standard deviation.

    Non-finite values are rejected, and so are data with fewer than 3 distinct
    values (such as binary data): every monotone transform of two values
    standardizes to the same data, so lambda is not identified. The data are
    first divided by the power of two 2^e just above their largest |value|:
    that is exact, and keeps the squares from overflowing or underflowing.
    """
    x = np.asarray(raw, dtype=float)
    if not np.isfinite(x).all():
        raise DegenerateData("data contain non-finite values (NaN or infinity)")
    distinct = np.unique(x).size
    if distinct < 3:
        raise DegenerateData(f"need at least 3 distinct values, got {distinct}")
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
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
