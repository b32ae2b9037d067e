"""Expression trees in one variable, evaluated by direct substitution.

Instead of taking a limit, an expression is evaluated at a finite,
infinite, or infinitesimal grossone point; divisions carry a cutoff and
report whether every step was exact.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .core import (
    DEFAULT_MIN_POWER,
    G,
    ONE,
    GrossNumber,
    divide,
)
from .errors import InexactSum, ParseError
from .notation import _Cursor


class Expr:
    """Base node; concrete nodes below."""

    __slots__ = ()


@dataclass(frozen=True)
class Constant(Expr):
    value: Fraction


@dataclass(frozen=True)
class Grossone(Expr):
    pass


@dataclass(frozen=True)
class Variable(Expr):
    pass


@dataclass(frozen=True)
class _Binary(Expr):
    """A node ``left op right``; each subclass names its operator in ``op``."""

    left: Expr
    right: Expr


class Add(_Binary):
    op = operator.add


class Sub(_Binary):
    op = operator.sub


class Mul(_Binary):
    op = operator.mul


class Div(_Binary):
    op = operator.truediv


@dataclass(frozen=True)
class PowInt(Expr):
    base: Expr
    exponent: int


class _ExprParser(_Cursor):
    """Recursive descent; precedence ^ > unary - > * / > + -, left associative."""

    def _sum(self) -> Expr:
        node = self._product()
        while self.peek().kind in ("+", "-"):
            cls = Add if self.advance().kind == "+" else Sub
            node = _binary(cls, node, self._product())
        return node

    def _product(self) -> Expr:
        node = self._unary()
        while self.peek().kind in ("*", "/"):
            cls = Mul if self.advance().kind == "*" else Div
            node = _binary(cls, node, self._unary())
        return node

    def _unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return _binary(Sub, Constant(Fraction(0)), self._unary())
        if tok.kind == "+":
            self.advance()
            return self._unary()
        return self._power()

    def _power(self) -> Expr:
        base = self._atom()
        if self.peek().kind != "^":
            return base
        self.advance()
        exponent = self._exponent()
        if isinstance(base, Constant) and (base.value != 0 or exponent >= 0):
            return Constant(base.value**exponent)
        return PowInt(base, exponent)

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

    def _atom(self) -> Expr:
        tok = self.advance()
        if tok.kind in ("INT", "DEC"):
            return Constant(Fraction(tok.value))
        if tok.kind == "G":
            return Grossone()
        if tok.kind == "VAR":
            return Variable()
        if tok.kind == "(":
            node = self._sum()
            closing = self.peek()
            if closing.kind != ")":
                raise ParseError("unbalanced parenthesis", closing.pos)
            self.advance()
            return node
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)


def parse_expr(text: str) -> Expr:
    """Parse infix text over x, G, and exact numeric literals.

    Exponents are integer literals only.  Constant subtrees (no x, no G)
    are folded to exact rationals, so 10^100 becomes a single constant.
    """
    parser = _ExprParser(text)
    return parser.complete(parser._sum())


def _binary(cls, left: Expr, right: Expr) -> Expr:
    """``cls(left, right)``, folded to a Constant when both sides are constants."""
    if isinstance(left, Constant) and isinstance(right, Constant):
        if cls is not Div or right.value != 0:  # a zero divisor is left for eval to report
            return Constant(cls.op(left.value, right.value))
    return cls(left, right)


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

    Division (and negative exponents) go through long division with the
    ``min_power`` cutoff; the flag is False when any step was truncated.
    DivisionByZero signals a true pole of the expression at this point.
    """
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
    return GrossNumber.from_rational(0 if items.is_even() else 1)
