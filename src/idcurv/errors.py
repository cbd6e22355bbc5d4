"""Exception types shared across the package."""


class MeshFormatError(ValueError):
    """A mesh or radii file could not be parsed."""


class TopologyError(ValueError):
    """The face list does not describe a closed connected triangulated surface."""


class WeightError(ValueError):
    """Edge weights are missing, duplicated, non-finite, or attached to non-edges."""


class AdmissibilityError(ValueError):
    """Radii are outside the admissible cone where admissibility is required.

    `faces` lists the faces past a triangle inequality, as
    geometry.admissible names them, when the angle evaluation that failed
    found them; it is empty otherwise.
    """

    def __init__(self, message, faces=()):
        super().__init__(message)
        self.faces = faces


class DomainError(ValueError):
    """An input lies outside the domain of a formula (a weight below -1, say)."""


class ConditioningError(ArithmeticError):
    """A face is too close to degenerate for stable derivatives."""


class QuadratureError(ArithmeticError):
    """The line-integral refinement failed to settle."""


class SolverError(RuntimeError):
    """The Newton solver stalled or exhausted its iteration budget."""


class IntegrationError(RuntimeError):
    """Time stepping underflowed; carries the partial trace when available."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
