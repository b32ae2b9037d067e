"""Gaussian elimination without row interchange, then back-substitution.

A pivot that is exactly zero is replaced by the infinitesimal G**-1 and
elimination proceeds; quotients are truncated below G**-z where z counts
the injections made so far.  The finite parts of the grossone solution
solve the original rational system; with no zero pivot, fraction-free integer
elimination gives the same report.  An exact rational solver with partial
pivoting is included as an independent check.

Every grosspower met is an integer (rational inputs, G**-1, cutoffs -z), so an
entry is a Laurent polynomial in G: (power, Fraction digit) for one term (digit
0 for zero), else ({power: int numerator}, den) with den coprime to their gcd.
Elimination runs in Crout order, so each entry is formed once, as itself minus a sum
of products, and cancelled once; quotients are e times 1/pivot.  The residual's
leading power is read on ints, one grosspower at a time from the top down.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Tuple

from .core import (DIGIT_BIT_BUDGET, ZERO, GrossNumber, GrossTerm, Record, _bits, _check_budget,
                   _rational, divide)
from .errors import InexactSolution, SingularSystem


class LinearSystem(Record):
    """Square rational system A x = b."""

    __slots__ = __match_args__ = ("a", "b")

    def __init__(self, a: Tuple[Tuple[Fraction, ...], ...], b: Tuple[Fraction, ...]):
        rows = tuple(tuple(map(_rational, row)) for row in a)
        rhs = tuple(map(_rational, b))
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("coefficient matrix must be square and non-empty")
        if len(rhs) != len(rows):
            raise ValueError("right-hand side length must match the matrix")
        object.__setattr__(self, "a", rows)
        object.__setattr__(self, "b", rhs)

    @classmethod
    def from_rows(cls, a: Iterable[Iterable], b: Iterable) -> "LinearSystem":
        return cls(a, b)

    @property
    def size(self) -> int:
        return len(self.b)


class SolveReport(Record):
    """Outcome of the injection solver.

    ``residual_leading_power`` is the largest grosspower appearing in
    A*solution - b, or None when the residual is exactly zero; a successful
    solve always has a zero or purely infinitesimal residual.
    """

    __slots__ = __match_args__ = (
        "solution", "finite_solution", "injected_pivots", "injected_rows", "residual_leading_power"
    )

    def __init__(
        self, solution, finite_solution, injected_pivots, injected_rows, residual_leading_power
    ):
        object.__setattr__(self, "solution", solution)
        object.__setattr__(self, "finite_solution", finite_solution)
        object.__setattr__(self, "injected_pivots", injected_pivots)
        object.__setattr__(self, "injected_rows", injected_rows)
        object.__setattr__(self, "residual_leading_power", residual_leading_power)


def solve_grossone(system: LinearSystem) -> SolveReport:
    """Solve without row interchange, injecting G**-1 for zero pivots.

    Crout order forms each entry once; each quotient is e times the column's one
    divide(), cut below G**-z; budgeted.  Where no pivot is zero and the entries are
    narrow, _fraction_free answers.  Raises SingularSystem when a solution component
    keeps an infinite part, i.e. the injected infinitesimal failed to cancel, and
    InexactSolution when the residual A*x - b is not infinitesimal, i.e. the finite
    solution would be wrong.
    """
    if (report := _fraction_free(system)) is not None:
        return report
    n, zero = system.size, (0, Fraction(0))
    m = [[(0, x) for x in row] + [(0, rhs)] for row, rhs in zip(system.a, system.b)]
    injected = []
    for k, row in enumerate(m):
        # Column k from row k down, then row k right of its pivot: factors times quotients.
        for i, j in [(i, k) for i in range(k, n)] + [(k, j) for j in range(k + 1, n + 1)]:
            m[i][j] = _sub_dot(m[i][j], [(m[i][c], m[c][j]) for c in range(k)])
        if not row[k][1]:
            row[k] = (-1, Fraction(1))
            injected.append(k)
        # -1/pivot once per column, down to G**-(z + top): no entry e right of it reaches
        # above top, so the terms of e/pivot at powers >= -z (divide()'s quotient) are
        # those of 0 - e*neg_inv.
        z, top = len(injected), max((p if type(q) is Fraction else max(p)
                                     for p, q in row[k + 1:] if q), default=0)
        neg_inv = _entry(divide(-1, _number(row[k]), -z - top).quotient)
        row[k + 1:] = [_sub_mul(zero, e, neg_inv, -z) for e in row[k + 1:]]
    xs = [row[n] for row in m]
    for i in range(n - 1, -1, -1):
        xs[i] = _sub_dot(xs[i], zip(m[i][i + 1:n], xs[i + 1:]))
    solution = tuple(map(_number, xs))
    for i, (p, _) in enumerate(map(_ints, xs)):
        if any(v for k, v in p.items() if k > 0):
            raise SingularSystem(f"solution component {i} has an infinite part; "
                                 "the system has no finite solution")
    lead = _residual_lead(system, xs)
    if lead is not None and lead >= 0:
        raise InexactSolution(f"residual has a term at grosspower {lead}; "
                              "the finite solution does not solve the system")
    return SolveReport(
        solution=solution,
        finite_solution=tuple(x.finite_part() for x in solution),
        injected_pivots=len(injected),
        injected_rows=tuple(injected),
        residual_leading_power=None if lead is None else GrossNumber.from_rational(lead),
    )


def _residual_lead(system: LinearSystem, xs):
    """The top grosspower of A*x - b for entries xs, None when it is zero: read one power
    at a time from the top down, up to the first at which a row is nonzero, on ints: x over
    one denominator d, b as -d at power 0 and each row of [A | b] scaled by its lcm."""
    xs = list(map(_ints, xs))
    d = lcm(*(q for _, q in xs))
    xs = [{k: v * (d // q) for k, v in p.items()} for p, q in xs] + [{0: -d}]
    rows = [[x.numerator * (s // x.denominator) for x in row]
            for row in (a + (b,) for a, b in zip(system.a, system.b))
            for s in [lcm(*(x.denominator for x in row))]]
    return next((k for k in sorted(set().union(*xs), reverse=True)
                 if any(sum(c * x.get(k, 0) for c, x in zip(row, xs)) for row in rows)), None)


def _fraction_free(system: LinearSystem):
    """solve_grossone's report when no leading minor of A vanishes, else None: Bareiss
    elimination (Math. Comp. 22, 1968) of [A | b] scaled by rows to ints, whose pivots are
    those minors.  A minor times a row scale has at most F = n * (w + n.bit_length()) bits
    (Hadamard), w the widest scaled entry or scale; a budget check of the procedure adds
    two quotients of such, 4F bits with numerators and denominators, so none can fire."""
    n, m, top = system.size, [], 1
    for row in (a + (b,) for a, b in zip(system.a, system.b)):
        scale = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (scale // x.denominator) for x in row])
        top = max(top, scale, *map(abs, m[-1]))
    if 4 * n * (top.bit_length() + n.bit_length()) > DIGIT_BIT_BUDGET:
        return None
    det = 1  # the last pivot: the leading minor of size k, then det of the scaled A
    for k, pivot_row in enumerate(m):
        if not pivot_row[k]:
            return None
        for row in m[k + 1:]:  # each division is exact (Sylvester's identity)
            row[k + 1:] = [(x * pivot_row[k] - row[k] * y) // det
                           for x, y in zip(row[k + 1:], pivot_row[k + 1:])]
        det = pivot_row[k]
    ys = [0] * n  # x_i * det, ints by Cramer's rule
    for i in range(n - 1, -1, -1):
        ys[i] = (m[i][n] * det - sum(m[i][j] * ys[j] for j in range(i + 1, n))) // m[i][i]
    xs = tuple(Fraction(y, det) for y in ys)
    return SolveReport(tuple(map(GrossNumber.from_rational, xs)), xs, 0, (), None)


def _number(entry) -> GrossNumber:
    p, q = entry
    if type(q) is Fraction:
        return GrossNumber((GrossTerm(q, GrossNumber.from_rational(p)),)) if q else ZERO
    return GrossNumber(tuple(GrossTerm(Fraction(x, q), GrossNumber.from_rational(k))
                             for k, x in sorted(p.items(), reverse=True)))


def _entry(number: GrossNumber):
    terms = [(t.power.finite_part().numerator, t.digit) for t in number.terms]
    if len(terms) < 2:
        return terms[0] if terms else (0, Fraction(0))
    den = lcm(*(d.denominator for _, d in terms))
    return {k: d.numerator * (den // d.denominator) for k, d in terms}, den


def _size(entry):
    """Terms and _bits of an entry, a longer one's from its int numerators and denominator."""
    nums, d = _ints(entry)
    return len(nums), (max(d, *map(abs, nums.values())) - 1).bit_length()


def _ints(entry):
    """An entry as ({power: int numerator}, int denominator)."""
    p, q = entry
    return ({p: q.numerator}, q.denominator) if type(q) is Fraction else entry


def _sub_mul(a, f, b, cut):
    """a - f*b on entries, by _sub_dot with its ``cut``; checked first by core's product
    budgets as _budgeted_product checks them."""
    if f[1] and b[1]:
        (tf, bf), (tb, bb) = _size(f), _size(b)
        _check_budget(tf * tb, bf + bb)
    return _sub_dot(a, [(f, b)], cut)


def _sub_dot(a, pairs, cut=None):
    """a - the sum of f*b over ``pairs`` of entries, over the lcm d of a's and the products'
    denominators, reduced once by the content's gcd with d.  A single product is cancelled
    as Fraction cancels (Knuth, TAOCP 4.5.1): one-term operands at a's power subtract as
    Fractions; else each denominator by its gcd with the other's numerator content (by
    Gauss's lemma, contents multiply), and the sum's content by its gcd with gcd(da, dp).
    With a ``cut`` and a zero ``a``: the product's terms at powers >= cut, whose content
    may share any factor of d."""
    pairs = [(f, b) for f, b in pairs if f[1] and b[1]]
    if not pairs:
        return a
    (f, b), g = pairs[0], None
    if len(pairs) == 1 and type(b[1]) is type(f[1]) is type(a[1]) is Fraction and (
            a[0] == f[0] + b[0] or not a[1]):
        return (f[0] + b[0], a[1] - f[1] * b[1]) if cut is None or f[0] + b[0] >= cut else a
    (na, da), pairs = _ints(a), [(_ints(f), _ints(b)) for f, b in pairs]
    if len(pairs) == 1:
        (nf, df), (nb, db) = pairs[0]
        g1, g2 = gcd(df, *nb.values()), gcd(db, *nf.values())
        pairs = [(({k: x // g2 for k, x in nf.items()}, df // g1),
                  ({k: x // g1 for k, x in nb.items()}, db // g2))]
        g = gcd(da, df // g1 * (db // g2)) if cut is None else None
    d = lcm(da, *(df * db for (_, df), (_, db) in pairs))
    out = {k: x * (d // da) for k, x in na.items()}
    for (nf, df), (nb, db) in pairs:
        s = d // (df * db)
        for kf, xf in nf.items():
            xf *= s
            for kb, xb in nb.items() if cut is None else [t for t in nb.items() if kf + t[0] >= cut]:
                out[kf + kb] = out.get(kf + kb, 0) - xf * xb
    h = gcd(g or d, *out.values())
    out, d = {k: x // h for k, x in out.items() if x}, d // h
    if len(out) > 1:
        return out, d
    return next(((k, Fraction(x, d)) for k, x in out.items()), (0, Fraction(0)))


def solve_exact_oracle(system: LinearSystem) -> Tuple[Fraction, ...]:
    """Plain rational Gauss elimination with partial pivoting (row swaps)."""
    n = system.size
    m = [list(row) + [rhs] for row, rhs in zip(system.a, system.b)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            raise SingularSystem(f"no pivot available in column {col}")
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
        pivot = m[col][col]
        for c in range(col, n + 1):
            m[col][c] /= pivot
        for r in range(col + 1, n):
            factor = m[r][col]
            if factor != 0:
                for c in range(col, n + 1):
                    m[r][c] -= factor * m[col][c]
    xs = [m[i][n] for i in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            xs[i] -= m[i][j] * xs[j]
    return tuple(xs)
