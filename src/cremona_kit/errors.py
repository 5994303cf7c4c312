"""Exception hierarchy shared across the package."""


class CremonaKitError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(CremonaKitError):
    """A JSON payload does not match the expected schema.

    ``path`` points at the offending field, e.g. ``$.singularities[2].mult``.
    """

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


class InvalidCurveData(CremonaKitError):
    """Curve data violates a constructor invariant (negative genus, ...)."""


class AdjointDoesNotExist(CremonaKitError):
    """Adjoint requested for a curve or system of genus <= 1."""


class DegenerateSystem(CremonaKitError):
    """Linear-system numerics became inconsistent (negative degree)."""


class NegativeDegree(CremonaKitError):
    """A quadratic transform would produce a negative degree."""


class NegativeMultiplicity(CremonaKitError):
    """A quadratic transform would produce a negative multiplicity."""


class DegreeCapExceeded(CremonaKitError):
    """Polynomial degree would exceed CREMONA_KIT_MAX_DEGREE."""


class EnumerationBoundExceeded(CremonaKitError):
    """Pencil-type enumeration requested beyond the configured bound."""


class GroupMismatch(CremonaKitError):
    """Group operation on elements built over different polynomials h."""


class InvalidElement(CremonaKitError):
    """Group-element data violates an invariant (h not squarefree, ...)."""


class InvalidAssignment(CremonaKitError):
    """Node-multiplicity assignment exceeds the pencil's base multiplicity."""
