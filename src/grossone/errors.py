"""Exception types shared across the package."""


class GrossoneError(Exception):
    """Base class for all errors raised by this package."""


class DepthExceeded(GrossoneError):
    """A grosspower nests deeper than the configured depth limit."""


class DivisionByZero(GrossoneError, ZeroDivisionError):
    """Division (or inversion) of a numeral by exact zero."""


class NonTerminatingDivision(GrossoneError):
    """Long division ran past its term budget without reaching the cutoff.

    The budget (``core.DIVISION_TERM_BUDGET`` quotient terms) ends any
    division that has not reached its cutoff: one whose cutoff is far
    below the dividend, such as 1/(G+1) down to G^-20000, as well as one
    whose grosspowers have infinite parts and never reach it.
    """


class BudgetExceeded(GrossoneError):
    """A power, a product in an expression or a quotient digit would pass
    the work budgets.

    ``core.DIGIT_BIT_BUDGET`` bounds the digit bits and
    ``core.PRODUCT_TERM_BUDGET`` the term pairs of one product, so every
    power, every product eval_at forms and every division step ends in
    bounded time.
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
