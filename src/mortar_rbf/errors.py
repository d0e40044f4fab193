"""Exception types shared across the package."""


class DegenerateElementError(ValueError):
    """Raised when an element has a non-positive Jacobian measure."""


class InvalidGeometryError(ValueError):
    """Raised when a geometric precondition fails (e.g. the segment-based
    scheme is asked to integrate meshes that are not collinear)."""


class IllConditionedKernelError(RuntimeError):
    """Raised when a kernel collocation matrix is numerically singular."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class SingularOperatorError(RuntimeError):
    """Raised when the slave mass matrix cannot be factorized.

    ``nodes`` lists the slave node indices whose matrix rows are empty,
    when that is the cause.
    """

    def __init__(self, message, nodes=()):
        super().__init__(message)
        self.nodes = tuple(nodes)


class SolverFailureError(RuntimeError):
    """Raised when a linear solve does not meet the residual tolerance."""


class ConfigError(ValueError):
    """Raised for malformed experiment configuration files or options."""
