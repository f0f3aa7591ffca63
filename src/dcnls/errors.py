"""Shared exception types for the dcnls package."""


class ConfigurationError(ValueError):
    """Bad user-supplied configuration (grid sizes, parameter ranges, flags)."""


class GridMismatchError(ValueError):
    """A field's samples do not match its grid: their length is not the grid's n."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class FlowStagnationError(ConvergenceError):
    """Constrained gradient flow stopped making progress."""


class CoercivityError(ConfigurationError):
    """Requested constrained mass exceeds the coercive range."""

    def __init__(self, message, threshold=None):
        super().__init__(message)
        self.threshold = threshold


class SolvabilityError(RuntimeError):
    """Linear constrained solve violates its orthogonality requirement."""

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


class QuadratureError(RuntimeError):
    """Oracle quadrature failed to converge; carries the error estimate."""

    def __init__(self, message, error_estimate=None):
        super().__init__(message)
        self.error_estimate = error_estimate
