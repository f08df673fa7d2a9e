"""Exception types shared across the package."""


class RsjdError(Exception):
    """Base class for all package errors."""


class TruncationError(RsjdError):
    """A countable regime sum could not be truncated to the requested tolerance."""


class EllipticityError(RsjdError):
    """a(x,k) - lambda*I failed to be positive semidefinite beyond clamping tolerance."""


class QuadratureError(RsjdError):
    """A quadrature error estimate exceeded its bound, or an inner integral diverged."""


class EstimationError(RsjdError):
    """A Monte Carlo estimator could not produce a usable result."""
