"""Exception types shared across the package."""


class TranselectError(Exception):
    """Base class for all package errors."""


class DegenerateData(TranselectError):
    """Raised when data are constant or too short to standardize/shift."""


class NonPositiveInput(TranselectError):
    """A positivity-requiring family received a nonpositive value."""


class DegenerateTransform(TranselectError):
    """Transformed data collapsed to zero variance."""


class IntegrationFailure(TranselectError):
    """Adaptive quadrature could not reach decaying tails within bounds."""


class NonPositiveCurvature(TranselectError):
    """Observed information is nonpositive; unit-information scale undefined."""


class MixingFailure(TranselectError):
    """MCMC chain acceptance rate outside usable range after burn-in."""


class OrdinateUnderflow(TranselectError):
    """Both averages of the posterior-ordinate estimate underflowed to zero."""


class InconsistentEvidence(TranselectError):
    """A family lacks the evidence estimate that the probabilities are computed from."""


class ParseError(TranselectError):
    """CSV cell failed to parse as a finite real."""


class EmptyColumn(TranselectError):
    """Target CSV column contains no usable values."""
