"""Expression trees in one variable, evaluated by direct substitution.

Instead of taking a limit, an expression is evaluated at a finite,
infinite, or infinitesimal grossone point; divisions carry a cutoff and
report whether every step was exact.
"""

from __future__ import annotations

from collections import deque
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


class Neg(Expr):
    __slots__ = __match_args__ = ("operand",)

    def __init__(self, operand: Expr):
        object.__setattr__(self, "operand", operand)


class Sum(Expr):
    """``terms[0] + terms[1] + ...``; ``a - b`` is ``Sum((a, Neg(b)))``."""

    __slots__ = __match_args__ = ("terms",)

    def __init__(self, terms: Tuple[Expr, ...]):
        object.__setattr__(self, "terms", tuple(terms))


class Product(Expr):
    """``factors[0] op factors[1] op ...``; ``divides[i]`` is True where op i is ``/``."""

    __slots__ = __match_args__ = ("factors", "divides")

    def __init__(self, factors: Tuple[Expr, ...], divides: Tuple[bool, ...]):
        object.__setattr__(self, "factors", tuple(factors))
        object.__setattr__(self, "divides", tuple(divides))


class PowInt(Expr):
    __slots__ = __match_args__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


class _ExprParser(_Cursor):
    """Recursive descent; precedence ^ > unary - > * / > + -.

    The methods return (node, depth) pairs.  The depth counts the parentheses
    and nodes on the deepest path, one level per Neg, PowInt, Sum or Product
    however long its chain, and the cursor caps it at MAX_NESTING, so neither
    these methods nor eval_at recurse past it.
    """

    def _sum(self) -> Tuple[Expr, int]:
        term, depth = self._product()
        terms, chain = [term], depth + 1
        while self.peek().kind in ("+", "-"):
            tok = self.advance()
            term, below = self._product()
            if tok.kind == "-":
                term, below = Neg(term), below + 1
            terms.append(term)
            chain = self.nest(max(chain, below + 1), tok)
        return (term, depth) if len(terms) == 1 else (Sum(terms), chain)

    def _product(self) -> Tuple[Expr, int]:
        factor, depth = self._factor()
        factors, divides, chain = [factor], [], depth + 1
        while self.peek().kind in ("*", "/"):
            tok = self.advance()
            factor, below = self._factor()
            factors.append(factor)
            divides.append(tok.kind == "/")
            chain = self.nest(max(chain, below + 1), tok)
        return (factor, depth) if not divides else (Product(factors, divides), chain)

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
            node, depth = Neg(node), self.nest(depth + 1, tok)
        return node, depth

    def _exponent(self) -> int:
        sign = self.sign()
        tok = self.peek()
        if tok.kind != "INT":
            found = tok.text or "end of input"
            raise ParseError(f"exponent must be an integer literal, found {found!r}", tok.pos)
        self.advance()
        return sign * tok.value


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
    if isinstance(node, (Constant, Grossone, Variable)):
        return isinstance(node, Variable)
    if isinstance(node, Sum):
        return any(map(contains_variable, node.terms))
    if isinstance(node, Product):
        return any(map(contains_variable, node.factors))
    return contains_variable(node.operand if isinstance(node, Neg) else node.base)


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

    def quotient(a: GrossNumber, b: GrossNumber) -> GrossNumber:
        nonlocal exact
        result = divide(a, b, min_power)
        exact = exact and result.exact
        return result.quotient

    def go(n: Expr) -> GrossNumber:
        if isinstance(n, Constant):
            return GrossNumber.from_rational(n.value)
        if isinstance(n, Grossone):
            return G
        if isinstance(n, Variable):
            return value
        if isinstance(n, Neg):
            return -go(n.operand)
        if isinstance(n, Sum):
            # Pairwise, first in first out: O(n log n) term merges, not a fold's O(n^2).
            values = deque(map(go, n.terms))
            while len(values) > 1:
                values.append(values.popleft() + values.popleft())
            return values[0]
        if isinstance(n, Product):
            result = go(n.factors[0])
            for factor, divides in zip(n.factors[1:], n.divides, strict=True):
                result = (quotient if divides else _budgeted_product)(result, go(factor))
            return result
        if isinstance(n, PowInt):
            base = go(n.base)
            return base**n.exponent if n.exponent >= 0 else quotient(ONE, base ** -n.exponent)
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
