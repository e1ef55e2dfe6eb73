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
    """A strand map does not fit the word it acts on or the map it meets.

    Raised when a generator word or coupon finds other strands than it
    needs, when ``compose`` or ``+`` get maps of different shapes, and when
    a scalar is asked of a map that is not an endomorphism of the empty
    word.
    """


class InternalInconsistencyError(GenusCenterError):
    """An impossibility that consistent category data cannot produce.

    Raised when the F entry of a cap coefficient vanishes (``ev_coeff``),
    a polynomial division is not exact (``_int_poly_div``), a catalog builder's
    F row or R entry is no combination of its basis, or ``surface_type``
    finds a negative or odd 2g.
    """


class PremodularRequiredError(GenusCenterError):
    """An operation needs braiding data the spec does not carry."""


class NonSplitError(GenusCenterError):
    """No prime certified a semisimple decomposition of an algebra."""


class KeyNotFoundError(GenusCenterError):
    """Unknown catalog key."""


class GluingFormatError(GenusCenterError):
    """Cycle-notation string does not describe a fixed-point-free involution."""
