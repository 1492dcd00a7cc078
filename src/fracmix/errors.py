"""Semantic exception hierarchy.

Numerical failures are surfaced, never silently patched: a Gram matrix
that does not factor, a circulant embedding with negative eigenvalues,
or a variation statistic outside the invertible range all raise a
dedicated error so callers can decide how to react.
"""


class FracmixError(Exception):
    """Base class for all package-specific errors."""


class GridError(FracmixError, ValueError):
    """Sampling grid violates its invariants (ordering, positivity)."""


class HurstRangeError(FracmixError, ValueError):
    """Hurst exponent outside the accepted range."""


class FactorizationError(FracmixError, RuntimeError):
    """Covariance matrix is numerically indefinite; no factorization."""


class EmbeddingError(FracmixError, RuntimeError):
    """Circulant embedding of the noise covariance is not nonnegative
    definite for the requested (n, H)."""


class FilterOrderError(FracmixError, ValueError):
    """Variation filter has order < 2 and cannot annihilate a linear
    drift."""


class SeriesLengthError(FracmixError, ValueError):
    """Series too short for the requested filter window."""


class EstimationRangeError(FracmixError, RuntimeError):
    """Variation statistic falls outside the range of the scale
    function; the series is inconsistent with the assumed scaling."""


class PanelFormatError(FracmixError, ValueError):
    """Panel data file violates the CSV contract."""


class NonFiniteError(FracmixError, ValueError):
    """A simulated panel or a cell's estimates overflow a double."""


class ConfigError(FracmixError, ValueError):
    """Experiment configuration file cannot be parsed or is missing a
    required key."""
