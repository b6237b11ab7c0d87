"""Exception and warning types shared across the package."""


class SaitoDualError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SaitoDualError):
    """A matrix has the wrong shape for the requested operation."""


class RankError(SaitoDualError):
    """A matrix does not have the rank the operation requires."""


class SingularMatrixError(SaitoDualError):
    """A square matrix is singular where a nonzero determinant is required."""


class ShapeError(SaitoDualError):
    """A polynomial system is not square (monomial count != variable count)."""


class PolynomialParseError(SaitoDualError):
    """Input text does not conform to the polynomial grammar.

    Carries 1-based ``line`` and ``column`` of the offending token.
    """

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class OwnershipError(SaitoDualError):
    """Operands belong to different groups or presentations."""


class IndexBoundsError(SaitoDualError):
    """A variable index lies outside the polynomial's index range."""


class StructureError(SaitoDualError):
    """A group does not have the structure the operation requires."""


class NonCyclicError(StructureError):
    """An operation requiring a cyclic symmetry group met a non-cyclic one."""


class ResourceBoundError(SaitoDualError):
    """A configured resource bound (group order, corpus size) was exceeded."""


class DegenerateError(SaitoDualError):
    """The polynomial fails a non-degeneracy requirement; message carries
    the diagnostic."""


class CoefficientWarning(UserWarning):
    """A monomial coefficient != 1 was discarded during parsing."""
