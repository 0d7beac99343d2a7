"""Exception types shared across the package."""


class FracmleError(Exception):
    """Base class for all package-specific errors."""


class InputError(FracmleError, ValueError):
    """Malformed, non-finite, or off-grid input."""


class ConfigError(FracmleError, ValueError):
    """Invalid configuration document."""


class ParameterDomainError(FracmleError, ValueError):
    """Parameter outside the closed parameter box."""


class EllipticityError(FracmleError, ArithmeticError):
    """det(sigma sigma*) at or below the configured floor at some state."""

    def __init__(self, message, x=None, det=None):
        super().__init__(message)
        self.x = x
        self.det = det


class DivergenceError(FracmleError, RuntimeError):
    """Solution exceeded the blow-up guard; carries the offending step."""

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


class OptimizationError(FracmleError, RuntimeError):
    """No optimizer start converged; carries per-start diagnostics (start, final theta,
    ll, projected-gradient norm grad_norm, converged, iters)."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class PoleError(FracmleError, ValueError):
    """Evaluation at a pole of a Gamma-function expression."""


class ResourceError(FracmleError, RuntimeError):
    """Requested grid or matrix would exceed the memory guard, or a worker process died."""


class StandardizationError(FracmleError, RuntimeError):
    """Covariance standardization failed (singular matrix)."""
