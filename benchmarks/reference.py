"""Reference grossone arithmetic and printers, independent of the package.

A reference numeral is a tuple of ``(digit, power)`` pairs with nonzero
``Fraction`` digits and powers strictly decreasing; each power is itself a
reference numeral, and zero is ``()``.  The benchmark generates its inputs in
this form (plain data, no package import needed) and checks the package's
outputs against the functions here.  Nothing in this module imports
``grossone``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key

ZERO = ()
ONE = ((Fraction(1), ZERO),)


def rat(q) -> tuple:
    """The reference numeral of a rational."""
    q = Fraction(q)
    return ((q, ZERO),) if q else ZERO


def is_rational(x) -> bool:
    return all(p == ZERO for _, p in x)


def value(x) -> Fraction:
    """The rational value of a rational reference numeral."""
    return x[0][0] if x else Fraction(0)


def sign(x) -> int:
    return 0 if not x else (1 if x[0][0] > 0 else -1)


def neg(x) -> tuple:
    return tuple((-d, p) for d, p in x)


def cmp(a, b) -> int:
    if a == b:
        return 0
    if is_rational(a) and is_rational(b):
        va, vb = value(a), value(b)
        return (va > vb) - (va < vb)
    return sign(add(a, neg(b)))


_BY_POWER = cmp_to_key(lambda s, t: cmp(s[1], t[1]))


def norm(pairs) -> tuple:
    """Sum digits at equal powers, drop zeros, order powers decreasing."""
    sums: dict = {}
    for d, p in pairs:
        sums[p] = sums.get(p, 0) + d
    kept = [(Fraction(d), p) for p, d in sums.items() if d]
    if all(is_rational(p) for _, p in kept):
        kept.sort(key=lambda t: value(t[1]), reverse=True)
    else:
        kept.sort(key=_BY_POWER, reverse=True)
    return tuple(kept)


def add(a, b) -> tuple:
    return norm(a + b)


def sub(a, b) -> tuple:
    return norm(a + neg(b))


def mul(a, b) -> tuple:
    return norm((da * db, add(pa, pb)) for da, pa in a for db, pb in b)


def power(a, e: int) -> tuple:
    out = ONE
    for _ in range(e):
        out = mul(out, a)
    return out


def divide(c, b, cutoff):
    """Long division ``c = q*b + r`` stopping below grosspower ``cutoff``.

    Returns ``(q, r, exact)``.  Same contract as the package's ``divide``:
    emit the leading-digit quotient term while its power is at least
    ``cutoff``; stop when the remainder is zero (exact) or the next power
    would fall below the cutoff (inexact).
    """
    q = []
    r = c
    lead_d, lead_p = b[0]
    while r:
        k = sub(r[0][1], lead_p)
        if cmp(k, cutoff) < 0:
            return tuple(q), r, False
        d = r[0][0] / lead_d
        q.append((d, k))
        r = sub(r, mul(((d, k),), b))
    return tuple(q), ZERO, True


def digit_bits(x) -> int:
    """Largest numerator or denominator bit length among the top-level digits."""
    return max(
        (max(d.numerator.bit_length(), d.denominator.bit_length()) for d, _ in x),
        default=0,
    )


# -- laurent polynomials with rational powers ---------------------------------
#
# A faster reference for numerals whose grosspowers are all rational: a dict
# {power: digit}.  The wide arith-wide numerals are checked with it.


def to_laurent(x) -> dict:
    return {value(p): d for d, p in x}


def from_laurent(poly: dict) -> tuple:
    return tuple((d, rat(p)) for p, d in sorted(poly.items(), reverse=True) if d)


def laurent_add(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for p, d in b.items():
        out[p] = out.get(p, 0) + scale * d
    return {p: d for p, d in out.items() if d}


def laurent_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for pa, da in a.items():
        for pb, db in b.items():
            out[pa + pb] = out.get(pa + pb, 0) + da * db
    return {p: d for p, d in out.items() if d}


def laurent_divide(c: dict, b: dict, cutoff: Fraction):
    lead_p = max(b)
    lead_d = b[lead_p]
    q: dict = {}
    r = dict(c)
    while r:
        top = max(r)
        k = top - lead_p
        if k < cutoff:
            return q, r, False
        d = r[top] / lead_d
        q[k] = d
        for pb, db in b.items():
            p = k + pb
            v = r.get(p, 0) - d * db
            if v:
                r[p] = v
            else:
                r.pop(p, None)
    return q, {}, True


# -- printers -----------------------------------------------------------------


def decimal_string(q: Fraction, digits: int) -> str:
    scale = 10**digits
    scaled = q * scale
    exact = scaled.denominator == 1
    units = scaled.numerator if exact else round(scaled)
    sign_text = "-" if units < 0 else ""
    whole, frac = divmod(abs(units), scale)
    body = f"{whole}.{frac:0{digits}d}"
    if exact:
        body = body.rstrip("0").rstrip(".")
        return f"{sign_text}{body}"
    return f"~{sign_text}{body}"


def render(x, fmt=str) -> str:
    """Canonical text (``fmt=str``) or decimal display of a numeral."""
    if not x:
        return "0"
    out = []
    for i, (d, p) in enumerate(x):
        if i == 0:
            prefix = "-" if d < 0 else ""
        else:
            prefix = " - " if d < 0 else " + "
        out.append(prefix + _term(abs(d), p, fmt))
    return "".join(out)


def _term(mag: Fraction, p, fmt) -> str:
    if p == ZERO:
        return fmt(mag)
    if p == ONE:
        return "G" if mag == 1 else f"{fmt(mag)}*G"
    inner = fmt(value(p)) if is_rational(p) else f"({render(p, fmt)})"
    return f"{fmt(mag)}*G^{inner}"


def render_decimal(x, digits: int = 6) -> str:
    return render(x, lambda q: decimal_string(q, digits))


# -- reading package values ---------------------------------------------------


def from_package(number) -> tuple:
    """Read a package GrossNumber structurally, without its arithmetic."""
    return tuple((t.digit, from_package(t.power)) for t in number.terms)


def is_normal(x) -> bool:
    """Nonzero Fraction digits, powers normal and strictly decreasing."""
    for i, (d, p) in enumerate(x):
        if not isinstance(d, Fraction) or d == 0 or not is_normal(p):
            return False
        if i and cmp(x[i - 1][1], p) <= 0:
            return False
    return True
