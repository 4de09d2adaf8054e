"""Exception hierarchy.

Two branches matter for the CLI exit-code mapping: ``DataError`` (bad inputs,
bad files, mismatched shapes/ids -> exit 2) and ``NumericalError`` (a
computation that cannot produce a meaningful result -> exit 3), so
``except (DataError, NumericalError)`` catches every package error. Each
message carries the detail, naming the file where there is one.

A class below a branch stays only if the README names it or a caller catches
it apart from its branch; any other refusal raises the nearest class that
does. Adding a class is therefore a deliberate edit, and
``tests/test_api.py`` pins the set.
"""


class DataError(ValueError):
    """Inputs violate a contract: shapes, values, formats, alignment."""


class NumericalError(ArithmeticError):
    """A numerical procedure failed or the result is meaningless."""


# --- data errors -------------------------------------------------------------

class NonFiniteInput(DataError):
    """A matrix or vector argument contains NaN or Inf."""


class DimensionMismatch(DataError):
    """Operand shapes, ranks, counts or sample ids are incompatible."""


class OutOfBounds(DataError):
    """A value outside its range."""


# --- numerical errors --------------------------------------------------------

class NoConvergence(NumericalError):
    """An iterative eigen/singular solver hit its iteration cap."""


class ToleranceUnreachable(NumericalError):
    """Requested tolerance below the machine-representable residual."""


class AllCombinationsInvalid(NumericalError):
    """Every (k, tau) pair of the bound sweep had a negative radicand."""


class DegenerateError(NumericalError):
    """True error at the floating-point noise floor; ratios meaningless."""
