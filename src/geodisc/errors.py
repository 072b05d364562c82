"""Exception types shared across the package."""


class GeodiscError(Exception):
    """Base class for all library errors."""


class InfeasibleDataError(GeodiscError):
    """Interpolation data admits no holomorphic closed-disc solution."""


class DegenerateInstanceError(GeodiscError):
    """Completion hit a unit-circle root; the instance is on the stratum boundary."""


class PreconditionError(GeodiscError):
    """Input violates a documented precondition."""


class GaugeError(GeodiscError):
    """Gauge evaluation failed (a non-finite point or no convergence)."""


class AmbiguousClassificationError(GeodiscError):
    """Interior/boundary dichotomy could not be decided inside the dead band."""

