"""Exception types shared across the package."""


class GenusCenterError(Exception):
    """Base class for all errors raised by this package."""


class MalformedRationalError(GenusCenterError):
    """A rational coefficient has a zero denominator."""


class DivisionByZeroError(GenusCenterError):
    """Division by the zero scalar."""


class SingularMatrixError(GenusCenterError):
    """Matrix inversion requested for a singular matrix."""


class IncompleteDataError(GenusCenterError):
    """A required F or R entry for an admissible channel is missing."""


class IllFormedDiagramError(GenusCenterError):
    """Adjacent diagram slices have mismatched boundary words."""


class InternalInconsistencyError(GenusCenterError):
    """Category data produced a degenerate pairing or similar impossibility."""


class PremodularRequiredError(GenusCenterError):
    """An operation needs braiding data the spec does not carry."""


class NonSplitError(GenusCenterError):
    """No prime certified a semisimple decomposition of an algebra."""


class KeyNotFoundError(GenusCenterError):
    """Unknown catalog key."""


class GluingFormatError(GenusCenterError):
    """Cycle-notation string does not describe a fixed-point-free involution."""
