"""Exact arithmetic on grossone numerals.

A value is a finite sum of terms ``digit * G**power`` where ``G`` is the
infinite unit, digits are exact rationals, and each power is itself a
grossone numeral of bounded nesting depth.  Zero is the empty sum.  Term
lists are kept normalized (powers strictly decreasing, no zero digits),
so two values are equal exactly when their term tuples are identical.
``*`` and divide() run on int power keys: powers over the lcm of their
denominators, or packed digit vectors once a grosspower nests; divide()
builds one Fraction per quotient term, summing remainder digits as ints.
"""

from __future__ import annotations

import operator
from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Tuple, Union

from .errors import (
    BudgetExceeded,
    DepthExceeded,
    DivisionByZero,
    InexactInverse,
    NotIntegerValued,
)

RationalLike = Union[int, Fraction]

DEFAULT_DEPTH_LIMIT = 2
DEFAULT_MIN_POWER = -8

# Work budgets, read only by _check_budget: the most term pairs one budgeted
# product or divide() call may form, and the most bits (as _bits counts them)
# a digit of a power, a budgeted product or a quotient may need.
PRODUCT_TERM_BUDGET = 10_000
DIGIT_BIT_BUDGET = 1 << 21


class GrossTerm(NamedTuple):
    """One addend ``digit * G**power`` of a numeral."""

    digit: Fraction
    power: "GrossNumber"


class Record:
    """An immutable record that is not a tuple: fields in ``__slots__`` and
    ``__match_args__``, set once by ``__init__`` through ``object.__setattr__``."""

    __slots__ = __match_args__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__qualname__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


def _ordering(holds):
    """A rich comparison: ``holds(compare(self, other), 0)``."""

    def method(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return holds(_compare_terms(self.terms, other.terms), 0)

    return method


class GrossNumber:
    """A normalized grossone numeral: term tuple, highest grosspower first."""

    # _hash is filled on first use by __hash__, not here: most numerals
    # built during arithmetic are never hashed.
    __slots__ = ("terms", "_hash")

    terms: Tuple[GrossTerm, ...]

    def __init__(self, terms: Tuple[GrossTerm, ...] = ()):
        # Callers must pass an already-normalized tuple; use from_terms for
        # arbitrary input.
        self.terms = terms

    @classmethod
    def from_rational(cls, value: RationalLike) -> "GrossNumber":
        value = _rational(value)
        if not value:
            return ZERO
        return cls((GrossTerm(value, ZERO),))

    @classmethod
    def from_terms(
        cls,
        pairs: Iterable[Tuple[RationalLike, "GrossNumber | RationalLike"]],
        depth_limit: int = DEFAULT_DEPTH_LIMIT,
    ) -> "GrossNumber":
        """Build a numeral from (digit, grosspower) pairs.

        Digits at equal grosspowers are summed, zero digits dropped, and the
        terms sorted by descending grosspower.  Raises DepthExceeded when a
        grosspower nests more than ``depth_limit`` levels.
        """
        _count(depth_limit, "depth_limit")
        sums: dict = {}  # grosspower -> digit sum
        for digit, power in pairs:
            power = _operand(power)
            if nesting_depth(power) > depth_limit:
                raise DepthExceeded(
                    f"grosspower nests {nesting_depth(power)} levels; limit is {depth_limit}"
                )
            digit = _rational(digit)
            old = sums.get(power)
            sums[power] = digit if old is None else old + digit
        return cls(_normalize(sums, _same))

    # -- classification ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        """True when the value is a plain rational (only grosspower 0)."""
        return all(not t.power.terms for t in self.terms)

    def sign(self) -> int:
        """-1, 0, or 1; the sign of the leading digit."""
        if not self.terms:
            return 0
        return 1 if self.terms[0].digit > 0 else -1

    # -- part extraction -------------------------------------------------

    def finite_part(self) -> Fraction:
        """The digit at grosspower 0 (0 when absent)."""
        for t in self.terms:
            if not t.power.terms:
                return t.digit
        return Fraction(0)

    def infinite_part(self) -> "GrossNumber":
        """The sub-sum of terms with positive grosspower."""
        return GrossNumber(tuple(t for t in self.terms if t.power.sign() > 0))

    def infinitesimal_part(self) -> "GrossNumber":
        """The sub-sum of terms with negative grosspower."""
        return GrossNumber(tuple(t for t in self.terms if t.power.sign() < 0))

    def is_even(self) -> bool:
        """Parity of an integer-valued numeral.

        Every term digit * G**p with integer digit and grosspower p >= 1 is
        even (G is divisible by every finite natural), so the parity is that
        of the finite part.  In particular G itself is even.
        """
        for t in self.terms:
            if t.digit.denominator != 1:
                raise NotIntegerValued(f"digit {t.digit} is not an integer")
            if not _is_nonnegative_integer(t.power):
                raise NotIntegerValued(
                    "grosspowers must be nonnegative integers for parity"
                )
        return self.finite_part().numerator % 2 == 0

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        # Both term tuples are sorted strictly decreasing, so merge linearly.
        a, b = self.terms, other.terms
        if not b:
            return self
        if not a:
            return other
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            order = _compare_terms(a[i].power.terms, b[j].power.terms)
            if order > 0:
                out.append(a[i])
                i += 1
            elif order < 0:
                out.append(b[j])
                j += 1
            else:
                digit = a[i].digit + b[j].digit
                if digit:
                    out.append(GrossTerm(digit, a[i].power))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return GrossNumber(tuple(out))

    __radd__ = __add__

    def __neg__(self) -> "GrossNumber":
        return GrossNumber(tuple(GrossTerm(-t.digit, t.power) for t in self.terms))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        a, b = self.terms, other.terms
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            # A monomial d*G**p keeps the other operand in normal form:
            # adding p to strictly decreasing powers keeps them strictly
            # decreasing, and nonzero digits multiply to nonzero digits.
            d, p = a[0].digit, a[0].power
            return GrossNumber(tuple(GrossTerm(d * t.digit, p + t.power) for t in b))
        # Digits as ints over each operand's common denominator, convolved
        # on power keys.
        (pa, pb), decode = _power_keys(a, b)
        da = lcm(*(t.digit.denominator for t in a))
        db = lcm(*(t.digit.denominator for t in b))
        na = [t.digit.numerator * (da // t.digit.denominator) for t in a]
        nb = [t.digit.numerator * (db // t.digit.denominator) for t in b]
        sums: dict = {}  # power key -> int digit over da * db
        for ka, xa in zip(pa, na):
            for kb, xb in zip(pb, nb):
                k = ka + kb
                sums[k] = sums.get(k, 0) + xa * xb
        dd = da * db
        return GrossNumber(_normalize({k: Fraction(x, dd) for k, x in sums.items()}, decode))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "GrossNumber":
        """A one-term numeral in closed form, (d*G^p)^e = d^e * G^(p*e); zero and
        multi-term numerals by square-and-multiply, for e >= 0 only.  BudgetExceeded
        first when the widest digit's bits times |e| pass _check_budget's budget."""
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0 and len(self.terms) != 1:
            if not self.terms:
                raise DivisionByZero("cannot invert zero")
            # A multi-term numeral never has a terminating inverse: its product
            # with any nonzero numeral has distinct leading and trailing
            # grosspowers, so it cannot equal 1.
            raise InexactInverse(
                "inverse of a multi-term numeral does not terminate; "
                "use divide() with an explicit cutoff"
            )
        _check_budget(1, _digit_bits(self) * abs(exponent))
        if len(self.terms) == 1:
            d, p = self.terms[0]
            return GrossNumber((GrossTerm(d**exponent, p * exponent),))
        result, base, e = ONE, self, exponent
        while e:
            if e & 1:
                result = _budgeted_product(result, base)
            e >>= 1
            if e:
                base = _budgeted_product(base, base)
        return result

    # -- ordering ----------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return self.terms == other.terms

    __lt__ = _ordering(operator.lt)
    __le__ = _ordering(operator.le)
    __gt__ = _ordering(operator.gt)
    __ge__ = _ordering(operator.ge)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        # Equal values hash equal, also across types: zero hashes as 0 and
        # a rational-valued numeral as the Fraction it equals.
        terms = self.terms
        if not terms or (len(terms) == 1 and not terms[0].power.terms):
            self._hash = hash(self.finite_part())
        else:
            self._hash = hash(terms)
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    def __str__(self) -> str:
        from .notation import print_canonical

        return print_canonical(self)

    def __repr__(self) -> str:
        return f"GrossNumber<{self}>"


class DivisionResult(NamedTuple):
    """Quotient and exact remainder of grossone long division."""

    quotient: GrossNumber
    remainder: GrossNumber

    @property
    def exact(self) -> bool:
        """True when the division left no remainder."""
        return not self.remainder.terms


ZERO = GrossNumber()
ONE = GrossNumber((GrossTerm(Fraction(1), ZERO),))
G = GrossNumber((GrossTerm(Fraction(1), ONE),))


def _coerce(value) -> "GrossNumber":
    if isinstance(value, GrossNumber):
        return value
    if isinstance(value, (int, Fraction)):
        return GrossNumber.from_rational(value)
    return NotImplemented


def _operand(value) -> "GrossNumber":
    """_coerce for the module functions: a TypeError where operators defer."""
    number = _coerce(value)
    if number is NotImplemented:
        raise _unsupported(value, "GrossNumber, int or Fraction")
    return number


def _rational(value) -> Fraction:
    """The one input conversion: an int or Fraction as a Fraction, else TypeError."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise _unsupported(value, "int or Fraction")


def _count(value, name: str, least: int = 0, most: int | None = None) -> int:
    """The one integer-argument check: ``value`` when it is an int (a bool is
    not) from ``least`` to ``most``; else a TypeError or ValueError naming it."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer")
    if value < least or most is not None and value > most:
        bound = f">= {least}" if most is None else f"between {least} and {most}"
        raise ValueError(f"{name} must be {bound}")
    return value


def _unsupported(value, accepted: str) -> TypeError:
    return TypeError(f"unsupported operand type {type(value).__name__!r}; expected {accepted}")


def _power_keys(*term_tuples):
    """(keys per term tuple, decode): int keys that add and order as their grosspowers
    do, decode(key) being the power numeral; each power over the lcm of the denominators
    when every grosspower is rational, else _packed_keys.  This alone picks the kind."""
    rows = []
    for terms in term_tuples:
        row = []
        for _, power in terms:
            p = power.terms
            if p and (len(p) > 1 or p[0].power.terms):
                return _packed_keys(term_tuples)
            row.append(p[0].digit if p else 0)
        rows.append(row)
    scale = lcm(*(v.denominator for row in rows for v in row))

    def decode(k: int) -> GrossNumber:
        return GrossNumber((GrossTerm(Fraction(k, scale), ZERO),)) if k else ZERO

    return [[v.numerator * (scale // v.denominator) for v in row] for row in rows], decode


def _packed_keys(term_tuples):
    """_power_keys once a grosspower nests: its digits over the sorted inner powers,
    as ints over their lcm, packed as sum(v_i << shift*i).  Int order is compare's while
    every digit formed stays under half the radix: at most 2*top (top: the widest input
    digit) in a product, top*(2Q + 3) in divide() after Q <= PRODUCT_TERM_BUDGET terms."""
    inner = [t for terms in term_tuples for _, power in terms for t in power.terms]
    basis = sorted(dict.fromkeys(t.power for t in inner))  # in descending runs: cheap to sort
    index = {power: i for i, power in enumerate(basis)}
    scale = lcm(*(t.digit.denominator for t in inner))
    top = max(abs(t.digit.numerator) * (scale // t.digit.denominator) for t in inner)
    shift = (2 * top * (PRODUCT_TERM_BUDGET + 3) + 1).bit_length() + 1
    half, mask = 1 << (shift - 1), (1 << shift) - 1

    def decode(k: int) -> GrossNumber:
        terms, i = [], 0
        while k:  # signed digits, lowest inner power first
            v = ((k + half) & mask) - half
            if v:
                terms.append(GrossTerm(Fraction(v, scale), basis[i]))
            k, i = (k - v) >> shift, i + 1
        return GrossNumber(tuple(reversed(terms)))

    return [[sum(t.digit.numerator * (scale // t.digit.denominator) << shift * index[t.power]
                 for t in power.terms) for _, power in terms] for terms in term_tuples], decode


def _same(power: GrossNumber) -> GrossNumber:
    return power


def _normalize(sums: dict, decode) -> Tuple[GrossTerm, ...]:
    """The one emitter: a dict of power key -> Fraction digit as a normalized
    tuple, zero digits dropped, highest power first, each key decoded."""
    return tuple(GrossTerm(sums[k], decode(k))
                 for k in sorted((k for k, d in sums.items() if d), reverse=True))


def _bits(digit: Fraction) -> int:
    """ceil(log2) of the larger of numerator and denominator: the digit bits
    that add up under products and scale under powers.  A digit of +-1 counts
    0, as any power of it is free."""
    return (max(abs(digit.numerator), digit.denominator) - 1).bit_length()


def _digit_bits(number: GrossNumber) -> int:
    """The widest _bits among the digits of a numeral."""
    return max((_bits(t.digit) for t in number.terms), default=0)


def _check_budget(pairs: int, bits: int, what: str = "product") -> None:
    """The one budget test: BudgetExceeded before ``what`` forms ``pairs``
    term pairs or builds a digit of about ``bits`` bits past its budget."""
    if pairs > PRODUCT_TERM_BUDGET:
        raise BudgetExceeded(f"{what} needs {pairs} term pairs; limit is {PRODUCT_TERM_BUDGET}")
    if bits > DIGIT_BIT_BUDGET:
        raise BudgetExceeded(f"digits need about {bits} bits; limit is {DIGIT_BIT_BUDGET}")


def _budgeted_product(a: GrossNumber, b: GrossNumber) -> GrossNumber:
    """a * b for square-and-multiply and expressions, refused past the budgets."""
    _check_budget(len(a.terms) * len(b.terms), _digit_bits(a) + _digit_bits(b))
    return a * b


def compare(a, b) -> int:
    """Total order: -1, 0, or 1 as a < b, a = b, a > b.

    The sign of a - b is the sign of its leading digit, so walk both term
    tuples from the leading term: equal terms cancel, and the first term
    that differs decides.  Grosspowers are compared recursively the same
    way, bottoming out at plain rationals.
    """
    return _compare_terms(_operand(a).terms, _operand(b).terms)


def _compare_terms(a, b) -> int:
    """compare() on two normalized term tuples, building no numeral."""
    for ta, tb in zip(a, b):
        if ta.power is not tb.power:
            order = _compare_terms(ta.power.terms, tb.power.terms)
            if order > 0:
                # ta's power exceeds every power left in b: ta leads a - b.
                return 1 if ta.digit > 0 else -1
            if order < 0:
                return -1 if tb.digit > 0 else 1
        da, db = ta.digit, tb.digit
        if da != db:
            return 1 if da > db else -1
    if len(a) > len(b):
        return 1 if a[len(b)].digit > 0 else -1
    if len(b) > len(a):
        return -1 if b[len(a)].digit > 0 else 1
    return 0


def nesting_depth(value) -> int:
    """How many levels of grossone content a grosspower nests.

    Plain rationals (and zero) have depth 0; G and 34.21*G have depth 1;
    G**(16.8*G) has depth 2.
    """
    value = _operand(value)
    if all(not t.power.terms for t in value.terms):
        return 0
    return 1 + max(nesting_depth(t.power) for t in value.terms)


def divide(c, b, min_power=DEFAULT_MIN_POWER) -> DivisionResult:
    """Long division ``c = quotient * b + remainder``.

    Each step builds one reduced Fraction, the quotient digit, and subtracts
    that term times ``b``'s trailing terms from the remainder: a dict keyed on
    int power key (see _power_keys), with an ascending list of its keys.  A
    term one digit f alone has reached is the pair of Fractions (f, r), its
    quotient digit f * r; a second digit makes it the int pair (n, d), n/d the
    term times the lcm of ``b``'s denominators.  Emission stops when the
    remainder reaches zero (exact) or the next quotient grosspower would fall
    below ``min_power`` (inexact); either way the recomposition identity holds.

    Each step passes the term pairs of ``quotient * b`` and the summed _bits
    of the quotient digits so far to _check_budget.
    """
    c = _operand(c)
    b = _operand(b)
    min_power = _operand(min_power)
    if not b.terms:
        raise DivisionByZero("division by zero")
    # The cutoff is keyed as the power of G**min_power.
    (pc, pb, (cutoff,)), decode = _power_keys(c.terms, b.terms, ((1, min_power),))
    lead_digit, neg_lead = b.terms[0].digit, -pb[0]
    quotient: list = []
    bits = 0
    if len(b.terms) == 1:  # no tail: c's terms below the cutoff, already normal, remain
        for key, t in zip(pc, c.terms):
            if key + neg_lead < cutoff:
                break
            quotient.append(GrossTerm(t.digit / lead_digit, decode(key + neg_lead)))
            bits += _bits(quotient[-1].digit)
            _check_budget(len(quotient), bits, "division short of its cutoff")
        return DivisionResult(GrossNumber(tuple(quotient)), GrossNumber(c.terms[len(quotient):]))
    scale = lcm(*(t.digit.denominator for t in b.terms))
    lead = lead_digit.numerator * (scale // lead_digit.denominator)
    tail = [(p, -t.digit.numerator * (scale // t.digit.denominator), -t.digit / lead_digit)
            for p, t in zip(pb[1:], b.terms[1:])]  # (key, x, r): x = r * lead, an int
    inverse = 1 / lead_digit
    remainder = {p: (t.digit, inverse) for p, t in zip(pc, c.terms)}
    # Each key in the dict is in pending once; pop() takes the highest.
    pending = pc[::-1]
    while pending:
        power = pending.pop()
        n, d = remainder.pop(power)
        if not n:
            continue
        k = power + neg_lead
        if k < cutoff:
            # Every key left lies lower still: the rest is the remainder.
            remainder[power] = n, d
            break
        digit = n * d if type(d) is Fraction else Fraction(n, d * lead)
        bits += _bits(digit)
        _check_budget((len(quotient) + 1) * len(b.terms), bits, "division short of its cutoff")
        # Popped keys strictly decrease, so the quotient stays normal.
        quotient.append(GrossTerm(digit, decode(k)))
        u, v = digit.numerator, digit.denominator
        for key, x, r in tail:
            p = k + key
            if p not in remainder:
                remainder[p] = digit, r
                insort(pending, p)
                continue
            n, d = remainder[p]
            if type(d) is Fraction:
                n, d = n.numerator * d.numerator * (lead // d.denominator), n.denominator
            # Over lcm(d, v), d divides the product of a tail's worth of reduced v.
            x *= u
            if d != v:
                g = gcd(d, v)
                n, x, d = n * (v // g), x * (d // g), d // g * v
            remainder[p] = n + x, d
    left = {p: n * d * lead_digit if type(d) is Fraction else Fraction(n, d * scale)
            for p, (n, d) in remainder.items() if n}
    return DivisionResult(GrossNumber(tuple(quotient)), GrossNumber(_normalize(left, decode)))


def _is_nonnegative_integer(power: GrossNumber) -> bool:
    if power.sign() < 0:
        return False
    return all(
        t.digit.denominator == 1 and _is_nonnegative_integer(t.power)
        for t in power.terms
    )
