"""Shared constructors and seeded random generators for the test suite."""

from __future__ import annotations

import copy
import importlib.util
import pickle
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from grossone import GrossNumber, LinearSystem, SolveReport
from grossone.errors import InexactSolution, SingularSystem

gn = GrossNumber.from_rational
gt = GrossNumber.from_terms

# Longest decimal integer the interpreter converts; 0 where it has no limit.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _load_reference():
    """benchmarks/reference.py: Fraction-dict arithmetic that imports no grossone."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.py"
    spec = importlib.util.spec_from_file_location("reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


R = _load_reference()


def assert_record_contract(record, equal) -> None:
    """``record`` is an immutable record equal to ``equal``, which was built
    separately: equal hashes, pickle and deepcopy round trips to the same
    class, and no field can be assigned or deleted: each try leaves it equal."""
    assert record == equal and hash(record) == hash(equal)
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(twin) is type(record) and twin == record
    for name in type(record).__match_args__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert record == equal


def random_rational(rng: random.Random, lo: int = -9, hi: int = 9, max_den: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_power(rng: random.Random) -> GrossNumber:
    """A grosspower of nesting depth <= 1: plain rational or c*G^q (+ rational)."""
    if rng.random() < 0.5:
        return gn(random_rational(rng, -6, 6, 3))
    pairs = [(random_rational(rng, -6, 6, 3), gn(random_rational(rng, -3, 3, 2)))]
    if rng.random() < 0.3:
        pairs.append((random_rational(rng, -6, 6, 3), gn(0)))
    return gt(pairs)


def random_grossone(rng: random.Random, max_terms: int = 3) -> GrossNumber:
    """A random numeral of nesting depth <= 2 with small exact digits."""
    pairs = [
        (random_rational(rng), random_power(rng))
        for _ in range(rng.randint(0, max_terms))
    ]
    return gt(pairs)


def random_rational_powered(rng: random.Random, max_terms: int = 3) -> GrossNumber:
    """A random numeral whose grosspowers are all plain rationals.

    Long division between two such numerals always terminates: the emitted
    powers live on the grid (1/L)Z for L the lcm of the denominators, so
    they reach any rational cutoff in finitely many steps.
    """
    pairs = [
        (random_rational(rng), gn(random_rational(rng, -6, 6, 3)))
        for _ in range(rng.randint(0, max_terms))
    ]
    return gt(pairs)


def recomposition_holds(c: GrossNumber, b: GrossNumber, result) -> bool:
    return result.quotient * b + result.remainder == c


def division_cutoff_respected(b: GrossNumber, min_power, result) -> bool:
    """Inexact results must stop exactly when the next power falls below the cutoff."""
    if result.exact:
        return result.remainder == gn(0)
    next_power = result.remainder.terms[0].power - b.terms[0].power
    return next_power < min_power


# -- random linear systems -----------------------------------------------------


def determinant(rows) -> Fraction:
    """Exact determinant via fraction Gaussian elimination with row swaps."""
    n = len(rows)
    m = [list(row) for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        det *= m[col][col]
        pivot = m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / pivot
            if factor != 0:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


# Leading minors 1, 2 and 5 vanish.  The solver injects once, and truncating
# below G**-1 loses a finite part of the solution, so its residual is finite.
LOSSY_8X8 = (
    [
        [0, 3, -2, -1, 1, -3, 3, 0],
        [0, -1, -2, 4, 0, 0, -4, 3],
        [-3, -3, -1, 2, -3, 2, 4, 4],
        [0, 1, -1, 2, 0, 3, -2, 4],
        [0, 3, 1, -2, 0, 3, -3, 2],
        [0, 1, 2, -1, -3, -3, 0, 4],
        [2, 1, -2, -1, -1, 0, -2, 3],
        [3, 2, 4, 0, 0, -3, -4, -2],
    ],
    [-7, 4, -8, 5, 0, -9, -6, 2],
)


def reference_solve(system: LinearSystem) -> SolveReport:
    """solve_grossone's procedure on R's Laurent dicts {power: Fraction}: no row
    interchange, G**-1 for an exactly zero pivot, pivot-row quotients cut below
    G**-z, exact back-substitution, then the residual test; the same errors."""
    n, injected = system.size, []
    m = [[{0: x} if x else {} for x in (*row, rhs)] for row, rhs in zip(system.a, system.b)]
    for col in range(n):
        if not m[col][col]:
            m[col][col] = {-1: Fraction(1)}
            injected.append(col)
        m[col][col + 1:] = [R.laurent_divide(e, m[col][col], -len(injected))[0]
                            for e in m[col][col + 1:]]
        for r in range(col + 1, n):
            m[r][col + 1:] = [R.laurent_add(a, R.laurent_mul(m[r][col], b), -1)
                              for a, b in zip(m[r][col + 1:], m[col][col + 1:])]
    xs = [row[n] for row in m]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            xs[i] = R.laurent_add(xs[i], R.laurent_mul(m[i][j], xs[j]), -1)
    for i, x in enumerate(xs):
        if max(x, default=0) > 0:
            raise SingularSystem(f"solution component {i} has an infinite part; "
                                 "the system has no finite solution")
    lead = reference_residual_lead(system, xs)
    if lead is not None and lead >= 0:
        raise InexactSolution(f"residual has a term at grosspower {gn(lead)}; "
                              "the finite solution does not solve the system")
    return SolveReport(tuple(gt([(d, p) for p, d in x.items()]) for x in xs),
                       tuple(x.get(0, Fraction(0)) for x in xs), len(injected),
                       tuple(injected), None if lead is None else gn(lead))


def reference_residual_lead(system: LinearSystem, xs):
    """The largest grosspower of A*x - b for R's Laurent dicts xs, None when it is zero."""
    rows = [R.laurent_add({0: -rhs}, {p: sum(c * x.get(p, 0) for c, x in zip(row, xs))
                                      for x in xs for p in x})
            for row, rhs in zip(system.a, system.b)]
    return max((max(r) for r in rows if r), default=None)


def _zero_leading_minors(rows) -> int:
    n = len(rows)
    return sum(
        1
        for j in range(1, n)
        if determinant([row[:j] for row in rows[:j]]) == 0
    )


def random_system_with_zero_minors(
    rng: random.Random, n: int, zero_minors: int
) -> LinearSystem:
    """A nonsingular rational system whose rows are permuted so that exactly
    ``zero_minors`` leading principal minors vanish (so elimination without
    interchange hits that many zero pivots up front)."""
    zero_minors = min(zero_minors, n - 1)
    while True:
        zero_prob = 0.1 if zero_minors == 0 else 0.35
        rows = [
            [
                Fraction(0 if rng.random() < zero_prob else rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        if determinant(rows) == 0:
            continue
        arranged = _arrange_rows(rng, rows, zero_minors)
        if arranged is None or _zero_leading_minors(arranged) != zero_minors:
            continue
        b = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        return LinearSystem.from_rows(arranged, b)


def _arrange_rows(rng: random.Random, rows, zero_minors: int):
    shuffled = rows[:]
    rng.shuffle(shuffled)
    if zero_minors == 0:
        return shuffled
    if zero_minors == 1:
        first = next(
            (i for i, r in enumerate(shuffled) if r[0] == 0 and r[1] != 0), None
        )
        if first is None:
            return None
        shuffled.insert(0, shuffled.pop(first))
        return shuffled
    # two leading zero minors: first row zero in columns 0 and 1, second row
    # zero in column 1.  Both minors vanish, and elimination with the first
    # pivot injected leaves a zero pivot in column 1 as well.
    first = next((i for i, r in enumerate(shuffled) if r[0] == 0 and r[1] == 0), None)
    if first is None:
        return None
    second = next((i for i, r in enumerate(shuffled) if i != first and r[1] == 0), None)
    if second is None:
        return None
    front = [shuffled[first], shuffled[second]]
    rest = [r for i, r in enumerate(shuffled) if i not in (first, second)]
    return front + rest
