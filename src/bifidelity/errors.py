"""Exception hierarchy.

Two branches matter for the CLI exit-code mapping: ``DataError`` (bad inputs,
bad files, mismatched shapes/ids -> exit 2) and ``NumericalError`` (a
computation that cannot produce a meaningful result -> exit 3).
"""


class BifidelityError(Exception):
    """Base class for all package errors."""


class DataError(BifidelityError, ValueError):
    """Inputs violate a contract: shapes, values, formats, alignment."""


class NumericalError(BifidelityError, ArithmeticError):
    """A numerical procedure failed or the result is meaningless."""


# --- data errors -------------------------------------------------------------

class NonFiniteInput(DataError):
    """A matrix or vector argument contains NaN or Inf."""


class NotSquare(DataError):
    """A square matrix was required."""


class RankExceedsDims(DataError):
    """Requested rank larger than min(rows, cols)."""


class DimensionMismatch(DataError):
    """Operand dimensions are incompatible."""


class SampleMismatch(DataError):
    """Snapshot matrices do not share aligned sample identifiers."""


class NegativeTau(DataError):
    """The scaling parameter tau must be non-negative."""


class KOutOfRange(DataError):
    """Rank index k outside {1, ..., rank}."""


class EmptyGrid(DataError):
    """The tau grid contains no points."""


class OutOfBounds(DataError):
    """A model parameter lies outside its configured range."""


class BadMagic(DataError):
    """Snapshot file does not start with the expected magic bytes."""


class VersionUnsupported(DataError):
    """Snapshot file declares an unknown format version."""


class TruncatedPayload(DataError):
    """Snapshot file payload shorter than the header promises."""


class NonFiniteEntry(DataError):
    """A snapshot file contains a NaN or Inf entry."""


class MalformedFile(DataError):
    """A JSON decomposition file or snapshot sidecar is not valid JSON, lacks
    a field, or holds a field of the wrong type."""


# --- numerical errors --------------------------------------------------------

class NoConvergence(NumericalError):
    """An iterative eigen/singular solver hit its iteration cap."""


class ToleranceUnreachable(NumericalError):
    """Requested tolerance below the machine-representable residual."""


class AllCombinationsInvalid(NumericalError):
    """Every (k, tau) pair of the bound sweep had a negative radicand."""


class DegenerateError(NumericalError):
    """True error at the floating-point noise floor; ratios meaningless."""


class SolverFailure(NumericalError):
    """A linear system solve failed (singular or ill-posed system)."""
