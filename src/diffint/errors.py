"""Exception types shared across the package.

The CLI maps these to exit codes: configuration problems exit with 2,
numerical failures (quadrature, divergence, oracle trust) with 3.
"""


class DiffintError(Exception):
    """Base class for all package errors."""


class ParameterError(DiffintError, ValueError):
    """Invalid construction parameters (bad schedule bounds, orders, ...)."""


class DegenerateNodesError(ParameterError):
    """Interpolation nodes are not pairwise distinct."""


class DomainError(DiffintError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class QuadratureError(DiffintError, RuntimeError):
    """Panel refinement hit its cap without meeting the tolerance."""


class DivergenceError(DiffintError, RuntimeError):
    """A trajectory produced a non-finite state."""

    def __init__(self, message, step_index=None, time=None):
        super().__init__(message)
        self.step_index = step_index
        self.time = time


class OracleTrustError(DiffintError, RuntimeError):
    """The reference solver failed its step-halving self check."""


class ConfigError(DiffintError, ValueError):
    """Experiment configuration could not be parsed or validated."""
