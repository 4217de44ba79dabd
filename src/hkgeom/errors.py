"""Exception types shared across the package."""


class HkgeomError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HkgeomError):
    """A stencil or evaluation point left a field's declared smooth domain."""


class StructureError(HkgeomError):
    """An almost-complex or quaternionic structure check failed (S^2 != -Id)."""


class MetricError(HkgeomError):
    """A metric value is singular or not positive definite."""


class ConvergenceError(HkgeomError):
    """An iterative solver failed to reach its tolerance."""


class NonFreePointError(HkgeomError):
    """The group action is not free at the point (rank-deficient Jacobian)."""


class ConfigError(HkgeomError):
    """A run configuration or config file could not be parsed or validated."""


class SamplingError(HkgeomError):
    """No admissible sample point was found within the draw budget."""
