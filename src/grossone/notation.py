"""Textual format for grossone numerals.

Grammar (whitespace between tokens is insignificant)::

    number   := [sign] term { sign term }
    term     := digit [ "*" "G" [ "^" power ] ] | "G" [ "^" power ]
    power    := [sign] (integer | rational) | "(" number ")"
    digit    := decimal | rational
    rational := integer "/" positive-integer
    sign     := "+" | "-"

``G`` is the infinite unit.  Decimal digits parse exactly (304.21 is
30421/100).  Canonical output prints digits as reduced rationals and
round-trips bit-exactly; decimal output is display-only.  The scanner and
token cursor here also serve ``expr``, whose grammar differs: there
``G^84/5`` is ``(G^84)/5``, here it is ``G^(84/5)``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Tuple

from .core import DEFAULT_DEPTH_LIMIT, ONE, ZERO, GrossNumber, _count, _operand
from .errors import ParseError

# Deepest nesting either grammar accepts.  A numeral nests only through
# parenthesized grosspowers; an expression one level per parenthesis, minus
# sign, ^ or operator chain (however long) on a path of its tree.  The
# parsers, printers and evaluators recurse at most three frames per level,
# which keeps them inside the interpreter's default recursion limit of 1000.
MAX_NESTING = 200

# Most decimal places print_decimal shows.  It prints a fraction part that
# many digits long, so past the interpreter's default limit on int-to-string
# conversion it would fail, and only after building 10**digits.
MAX_DECIMAL_DIGITS = 4300

# A literal of ASCII digits (a DEC with a "." and more digits), an operator,
# a word, or any other non-space character, which is an error; finditer
# skips exactly the characters str.isspace() accepts.
_TOKEN = re.compile(r"([0-9]+(?:\.[0-9]+)?)|([-+*/^()])|(\w+)|(\S)")
_NAMES = {"G": "G", "x": "VAR"}


class _Token(NamedTuple):
    """One lexeme; ``value`` is the converted literal for INT (int) and DEC (Fraction)."""

    kind: str
    text: str
    pos: int
    value: object = None


def _scan(text: str) -> List[_Token]:
    """Tokens ending with EOF.  Digits are ASCII only ("²" is not one), and a
    literal past the interpreter's int conversion limit is a ParseError."""
    new = tuple.__new__  # half the cost of _Token's generated __new__
    tokens = []
    for match in _TOKEN.finditer(text):
        literal, punct, name, _ = match.groups()
        i = match.start()
        if literal:
            kind = "DEC" if "." in literal else "INT"
            try:
                value = int(literal) if kind == "INT" else Fraction(literal)
            except ValueError:
                too_long = f"numeric literal too long ({len(literal)} characters)"
                raise ParseError(too_long, i) from None
            tokens.append(new(_Token, (kind, literal, i, value)))
        elif punct:
            tokens.append(new(_Token, (punct, punct, i, None)))
        elif name and (name[0].isalpha() or name[0] == "_"):
            kind = _NAMES.get(name)
            if kind is None:
                raise ParseError(f"unknown name {name!r}; only 'x' and 'G' are defined", i)
            tokens.append(new(_Token, (kind, name, i, None)))
        else:
            raise ParseError(f"unexpected character {text[i]!r}", i)
    tokens.append(new(_Token, ("EOF", "", len(text), None)))
    return tokens


class _Cursor:
    """Position in the token list of one text; the grammars subclass it."""

    def __init__(self, text: str):
        self.tokens = _scan(text)
        self.i = 0
        self.open = 0  # parentheses open at the cursor

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    def nest(self, depth: int, tok: _Token) -> int:
        """``depth``, the levels below the open parentheses; a ParseError at
        ``tok`` when the two together pass MAX_NESTING."""
        if self.open + depth > MAX_NESTING:
            raise ParseError(f"input nests deeper than {MAX_NESTING} levels", tok.pos)
        return depth

    def enter(self, tok: _Token) -> None:
        """One nesting level deeper, at the consumed "(" token ``tok``."""
        self.open += 1
        self.nest(0, tok)

    def leave(self) -> None:
        """Consume the ")" that closes the innermost open "("."""
        self.expect(")")
        self.open -= 1

    def sign(self) -> int:
        """Consume an optional "+" or "-"; returns +1 or -1."""
        kind = self.peek().kind
        if kind == "+" or kind == "-":
            self.i += 1
            return 1 if kind == "+" else -1
        return 1

    def complete(self, value):
        """Return ``value`` if every token was consumed, else reject the rest."""
        trailing = self.peek()
        if trailing.kind != "EOF":
            raise ParseError(f"unexpected trailing input {trailing.text!r}", trailing.pos)
        return value


class _NumeralParser(_Cursor):
    def __init__(self, text: str, depth_limit: Optional[int]):
        super().__init__(text)
        self.depth_limit = depth_limit

    def parse_number(self) -> GrossNumber:
        pairs: List[Tuple[Fraction, GrossNumber]] = [self._term(self.sign())]
        while self.peek().kind in ("+", "-"):
            pairs.append(self._term(self.sign()))
        return GrossNumber.from_terms(pairs, self.depth_limit)

    def _term(self, sign: int) -> Tuple[Fraction, GrossNumber]:
        if self.peek().kind == "G":
            self.advance()
            return (Fraction(sign), self._power_suffix())
        digit = self._digit() * sign
        if self.peek().kind == "*":
            self.advance()
            self.expect("G")
            return (digit, self._power_suffix())
        return (digit, ZERO)

    def _digit(self) -> Fraction:
        tok = self.peek()
        if tok.kind == "DEC":
            self.advance()
            return tok.value
        if tok.kind == "INT":
            return self._rational()
        raise ParseError(f"digit expected, found {tok.text or 'end of input'!r}", tok.pos)

    def _rational(self) -> Fraction:
        """integer [ "/" positive-integer ], at an INT token."""
        numerator = self.advance().value
        if self.peek().kind != "/":
            return Fraction(numerator)
        self.advance()
        denom = self.expect("INT")
        if denom.value == 0:
            raise ParseError("denominator must be a positive integer", denom.pos)
        return Fraction(numerator, denom.value)

    def _power_suffix(self) -> GrossNumber:
        if self.peek().kind != "^":
            return ONE
        self.advance()
        if self.peek().kind == "(":
            self.enter(self.advance())
            inner = self.parse_number()
            self.leave()
            return inner
        sign = self.sign()
        tok = self.peek()
        if tok.kind != "INT":
            raise ParseError(
                f"grosspower must be an integer, rational, or parenthesized numeral, "
                f"found {tok.text or 'end of input'!r}",
                tok.pos,
            )
        return GrossNumber.from_rational(self._rational() * sign)


def parse(text: str, depth_limit: int = DEFAULT_DEPTH_LIMIT) -> GrossNumber:
    """Parse numeral text to an exact, normalized value."""
    parser = _NumeralParser(text, depth_limit)
    return parser.complete(parser.parse_number())


def parse_rational(text: str) -> Fraction:
    """Parse a signed rational or decimal literal ("-4", "1/3", "2.5") exactly."""
    parser = _NumeralParser(text, None)  # one digit, no grosspower: no depth to check
    sign = parser.sign()
    return parser.complete(parser._digit() * sign)


# -- printing ----------------------------------------------------------------


def print_canonical(value) -> str:
    """Deterministic text form that parses back to an equal value.

    Digits print as reduced rationals; grosspower 0 as a bare digit,
    grosspower 1 as ``G``; grosspowers with grossone content are
    parenthesized.  The unit terms +-1*G print as bare ``G``.
    """
    return _render(_operand(value), str)


def print_decimal(value, digits: int = 6) -> str:
    """Display form with digits as decimals rounded to ``digits`` places.

    Exact when a digit's denominator divides a power of 10 within range,
    otherwise rounded half-even and prefixed with ``~``.  Does not
    round-trip in general.
    """
    _decimal_digits(digits)
    return _render(_operand(value), lambda q: _decimal_string(q, digits))


def _decimal_digits(digits: int) -> int:
    """The range of a digit count: print_decimal's and the CLI's."""
    return _count(digits, "decimal digits", 1, MAX_DECIMAL_DIGITS)


def _render(value: GrossNumber, fmt: Callable[[Fraction], str]) -> str:
    if not value.terms:
        return "0"
    out = []
    for i, term in enumerate(value.terms):
        if i == 0:
            prefix = "-" if term.digit < 0 else ""
        else:
            prefix = " - " if term.digit < 0 else " + "
        try:
            out.append(prefix + _term_string(abs(term.digit), term.power, fmt))
        except ValueError:  # str() of an int past the interpreter's conversion limit
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"a digit has more than {limit} decimal digits to print") from None
    return "".join(out)


def _term_string(magnitude: Fraction, power: GrossNumber, fmt) -> str:
    if not power.terms:
        return fmt(magnitude)
    if power == ONE:
        return "G" if magnitude == 1 else f"{fmt(magnitude)}*G"
    return f"{fmt(magnitude)}*G^{_power_string(power, fmt)}"


def _power_string(power: GrossNumber, fmt) -> str:
    if power.is_rational():
        return fmt(power.finite_part())
    return f"({_render(power, fmt)})"


def _decimal_string(q: Fraction, digits: int) -> str:
    scale = 10**digits
    scaled = q * scale
    exact = scaled.denominator == 1
    units = scaled.numerator if exact else round(scaled)
    sign = "-" if units < 0 else ""
    whole, frac = divmod(abs(units), scale)
    body = f"{whole}.{frac:0{digits}d}"
    if exact:
        body = body.rstrip("0").rstrip(".")
    return f"{sign}{body}" if exact else f"~{sign}{body}"
