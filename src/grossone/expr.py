"""Expression trees in one variable, evaluated by direct substitution.

Instead of taking a limit, an expression is evaluated at a finite,
infinite, or infinitesimal grossone point; divisions carry a cutoff and
report whether every step was exact.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Tuple

from .core import (
    DEFAULT_MIN_POWER, G, ONE, GrossNumber, Record, _budgeted_product, _operand, divide
)
from .errors import InexactSum, ParseError
from .notation import _Cursor


class Expr(Record):
    """Base node; concrete nodes below."""

    __slots__ = ()


class Constant(Expr):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: Fraction):
        object.__setattr__(self, "value", value)


class Grossone(Expr):
    __slots__ = ()


class Variable(Expr):
    __slots__ = ()


class _Binary(Expr):
    """A node ``left op right``; Add, Sub and Mul name their operator in ``op``."""

    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Add(_Binary):
    __slots__ = ()
    op = operator.add


class Sub(_Binary):
    __slots__ = ()
    op = operator.sub


class Mul(_Binary):
    __slots__ = ()
    op = staticmethod(_budgeted_product)


class Div(_Binary):
    __slots__ = ()


class PowInt(Expr):
    __slots__ = __match_args__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


_OPERATORS = {"+": Add, "-": Sub, "*": Mul, "/": Div}
_ZERO = Constant(Fraction(0))  # unary minus is 0 - operand


class _ExprParser(_Cursor):
    """Recursive descent; precedence ^ > unary - > * / > + -, left associative.

    The methods return (node, depth) pairs.  The depth counts the parentheses,
    minus signs and operators on the deepest path, and the cursor caps it at
    MAX_NESTING, so neither these methods nor eval_at recurse past it.
    """

    def _sum(self) -> Tuple[Expr, int]:
        left = self._product()
        while self.peek().kind in ("+", "-"):
            left = self._join(self.advance(), left, self._product())
        return left

    def _product(self) -> Tuple[Expr, int]:
        left = self._factor()
        while self.peek().kind in ("*", "/"):
            left = self._join(self.advance(), left, self._factor())
        return left

    def _factor(self) -> Tuple[Expr, int]:
        """[signs] ( "(" sum ")" | atom ) [ "^" exponent ]; "-x^2" is -(x^2)."""
        minus = []
        tok = self.advance()
        while tok.kind in ("+", "-"):
            if tok.kind == "-":
                minus.append(tok)
            tok = self.advance()
        if tok.kind == "(":
            self.enter(tok)
            node, depth = self._sum()
            self.leave()
            depth += 1
        else:
            node, depth = _atom(tok), 0
        if self.peek().kind == "^":
            depth = self.nest(depth + 1, self.advance())
            node = PowInt(node, self._exponent())
        for tok in reversed(minus):
            node, depth = self._join(tok, (_ZERO, 0), (node, depth))
        return node, depth

    def _exponent(self) -> int:
        sign = self.sign()
        tok = self.peek()
        if tok.kind != "INT":
            raise ParseError(
                f"exponent must be an integer literal, found {tok.text or 'end of input'!r}",
                tok.pos,
            )
        self.advance()
        return sign * tok.value

    def _join(self, tok, left, right) -> Tuple[Expr, int]:
        """The node ``left tok right``, one level below its deeper side."""
        (a, a_depth), (b, b_depth) = left, right
        return _OPERATORS[tok.kind](a, b), self.nest(max(a_depth, b_depth) + 1, tok)


def _atom(tok) -> Expr:
    """The leaf node for a literal, G or x token."""
    if tok.kind in ("INT", "DEC"):
        return Constant(Fraction(tok.value))
    if tok.kind == "G":
        return Grossone()
    if tok.kind == "VAR":
        return Variable()
    raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)


def parse_expr(text: str) -> Expr:
    """Parse infix text over x, G, and exact numeric literals into its tree.

    Exponents are integer literals only.  Nothing is computed here, so the
    only error is ParseError; eval_at computes every node, constants too.
    """
    parser = _ExprParser(text)
    node, _ = parser._sum()
    return parser.complete(node)


def contains_variable(node: Expr) -> bool:
    if isinstance(node, Variable):
        return True
    if isinstance(node, (Constant, Grossone)):
        return False
    if isinstance(node, PowInt):
        return contains_variable(node.base)
    return contains_variable(node.left) or contains_variable(node.right)


def eval_at(
    node: Expr,
    value: GrossNumber,
    min_power=DEFAULT_MIN_POWER,
) -> Tuple[GrossNumber, bool]:
    """Evaluate at a grossone point; returns (result, every-division-exact).

    Every division and negative exponent, constant ones too, is a long
    division with the ``min_power`` cutoff; the flag is False when any step
    was truncated.  DivisionByZero signals a true pole at this point.
    """
    value = _operand(value)
    exact = True

    def go(n: Expr) -> GrossNumber:
        nonlocal exact
        if isinstance(n, Constant):
            return GrossNumber.from_rational(n.value)
        if isinstance(n, Grossone):
            return G
        if isinstance(n, Variable):
            return value
        if isinstance(n, Div):
            result = divide(go(n.left), go(n.right), min_power)
            exact = exact and result.exact
            return result.quotient
        if isinstance(n, _Binary):
            return n.op(go(n.left), go(n.right))
        if isinstance(n, PowInt):
            base = go(n.base)
            if n.exponent >= 0:
                return base**n.exponent
            result = divide(ONE, base ** (-n.exponent), min_power)
            exact = exact and result.exact
            return result.quotient
        raise TypeError(f"unknown node {n!r}")

    return go(node), exact


def eval_sum(closed_form: Expr, items: GrossNumber) -> GrossNumber:
    """Value of a sum from its partial-sum formula, for any item count.

    ``closed_form`` is the formula S(x) for the sum of the first x items;
    substituting an infinite numeral counts infinitely many items.
    InexactSum when a division in the formula was truncated at the cutoff.
    """
    result, exact = eval_at(closed_form, items)
    if not exact:
        raise InexactSum("the partial-sum formula does not divide exactly within the cutoff")
    return result


def eval_alternating(items: GrossNumber) -> GrossNumber:
    """Sum 1 - 1 + 1 - ... with the given (finite or infinite) item count."""
    return GrossNumber.from_rational(0 if _operand(items).is_even() else 1)
