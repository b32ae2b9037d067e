"""Exception types shared across the package."""


class GrossoneError(Exception):
    """Base class for all errors raised by this package."""


class DepthExceeded(GrossoneError):
    """A grosspower nests deeper than the configured depth limit."""


class DivisionByZero(GrossoneError, ZeroDivisionError):
    """Division (or inversion) of a numeral by exact zero."""


class BudgetExceeded(GrossoneError):
    """A power, a product in an expression or a division would pass a budget.

    ``core._check_budget`` is the one test: it bounds the term pairs and the
    digit bits of every power, forecast from the base before any work, every
    product eval_at forms and every division, whose quotient digits' bits
    add up, so each ends in bounded time.  A division refused for its term
    pairs has not reached its cutoff: one far below the dividend, as in
    1/(G+1) down to G^-20000, or one that infinite grosspowers never reach.
    """


class InexactInverse(GrossoneError):
    """Negative power of a multi-term numeral whose inverse does not terminate."""


class NotIntegerValued(GrossoneError):
    """Parity was requested for a numeral that is not integer-valued."""


class ParseError(GrossoneError):
    """Malformed numeral or expression text; carries the offset of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SingularSystem(GrossoneError):
    """The linear system has no finite solution."""


class InexactSolution(GrossoneError):
    """The solver's residual A*x - b is not infinitesimal: x would be wrong."""


class SchemaError(GrossoneError):
    """An input file does not match the expected JSON shape."""


class InexactProbability(GrossoneError):
    """favorable/total did not divide exactly within the cutoff."""


class InexactSum(GrossoneError):
    """A partial-sum formula's division was truncated at the cutoff."""
