"""Shared exception types for the dcnls package.

Every numerical error carries the figures of its failure in one dict,
`diagnostics` (a residual, a defect, an error estimate, a threshold), which
the CLI writes into a failed run's manifest as it stands.
"""


class ConfigurationError(ValueError):
    """Bad user-supplied configuration (grid sizes, parameter ranges, flags)."""


class GridMismatchError(ValueError):
    """A field does not match its grid or operator: its length is not the grid's
    n, or it lives on another grid."""


class _DiagnosedError(Exception):
    """An error whose figures are in the dict `diagnostics`."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConvergenceError(_DiagnosedError, RuntimeError):
    """An iterative solver failed to reach its tolerance."""


class FlowStagnationError(ConvergenceError):
    """Constrained gradient flow stopped making progress."""


class CoercivityError(_DiagnosedError, ConfigurationError):
    """Requested constrained mass exceeds the coercive range; `threshold` is the
    largest mass allowed."""


class SolvabilityError(_DiagnosedError, RuntimeError):
    """Linear constrained solve violates its orthogonality requirement; `defect`
    is the kernel component or relative residual that failed the gate."""


class QuadratureError(_DiagnosedError, RuntimeError):
    """Oracle quadrature failed to converge; `error_estimate` is the error reached."""
