"""Expression trees in one variable, evaluated by direct substitution.

Instead of taking a limit, an expression is evaluated at a finite,
infinite, or infinitesimal grossone point; divisions carry a cutoff and
report whether every step was exact.
"""

from __future__ import annotations

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
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class PowInt(Expr):
    base: Expr
    exponent: int


class _ExprParser(_Cursor):
    """Recursive descent; precedence ^ > unary - > * / > + -, left associative."""

    def _sum(self) -> Expr:
        node = self._product()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self._product()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def _product(self) -> Expr:
        node = self._unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self._unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def _unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return Sub(Constant(Fraction(0)), self._unary())
        if tok.kind == "+":
            self.advance()
            return self._unary()
        return self._power()

    def _power(self) -> Expr:
        base = self._atom()
        if self.peek().kind != "^":
            return base
        self.advance()
        return PowInt(base, self._exponent())

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
    return _fold(parser.complete(parser._sum()))


def _fold(node: Expr) -> Expr:
    if isinstance(node, (Constant, Grossone, Variable)):
        return node
    if isinstance(node, PowInt):
        base = _fold(node.base)
        if isinstance(base, Constant) and (base.value != 0 or node.exponent >= 0):
            return Constant(base.value**node.exponent)
        return PowInt(base, node.exponent)
    left = _fold(node.left)
    right = _fold(node.right)
    if isinstance(left, Constant) and isinstance(right, Constant):
        if isinstance(node, Add):
            return Constant(left.value + right.value)
        if isinstance(node, Sub):
            return Constant(left.value - right.value)
        if isinstance(node, Mul):
            return Constant(left.value * right.value)
        if right.value != 0:  # zero-denominator Div is left for eval to report
            return Constant(left.value / right.value)
    return type(node)(left, right)


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
        if isinstance(n, Add):
            return go(n.left) + go(n.right)
        if isinstance(n, Sub):
            return go(n.left) - go(n.right)
        if isinstance(n, Mul):
            return go(n.left) * go(n.right)
        if isinstance(n, Div):
            result = divide(go(n.left), go(n.right), min_power)
            exact = exact and result.exact
            return result.quotient
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
