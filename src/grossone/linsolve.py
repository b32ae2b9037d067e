"""Gaussian elimination without row interchange, then back-substitution.

A pivot that is exactly zero is replaced by the infinitesimal G**-1 and
elimination proceeds; quotients are truncated below G**-z where z counts
the injections made so far.  The finite parts of the grossone solution
solve the original rational system.  An exact rational solver with
partial pivoting is included as an independent check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Tuple

from .core import G, GrossNumber, Record, _rational, divide
from .errors import InexactSolution, SingularSystem

_INV_G = G**-1


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

    Raises SingularSystem when a solution component keeps an infinite
    part, i.e. the injected infinitesimal failed to cancel, and
    InexactSolution when the residual A*x - b is not infinitesimal, i.e.
    the finite solution would be wrong.
    """
    n = system.size
    m = [
        [GrossNumber.from_rational(x) for x in row] + [GrossNumber.from_rational(rhs)]
        for row, rhs in zip(system.a, system.b)
    ]
    z = 0
    injected = []
    for col in range(n):
        pivot = m[col][col]
        if pivot.is_zero():
            pivot = _INV_G
            z += 1
            injected.append(col)
        cutoff = GrossNumber.from_rational(-z)
        # Entries at and below the pivot are never read again: start right of it.
        for c in range(col + 1, n + 1):
            m[col][c] = divide(m[col][c], pivot, cutoff).quotient
        for r in range(col + 1, n):
            factor = m[r][col]
            if not factor.is_zero():
                for c in range(col + 1, n + 1):
                    m[r][c] = m[r][c] - factor * m[col][c]
    xs = [m[i][n] for i in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if not m[i][j].is_zero():
                xs[i] = xs[i] - m[i][j] * xs[j]
    for i, x in enumerate(xs):
        if not x.infinite_part().is_zero():
            raise SingularSystem(
                f"solution component {i} has an infinite part; "
                "the system has no finite solution"
            )
    # Each row of A*x - b as one numeral, built by one from_terms.
    rows = [
        GrossNumber.from_terms(
            [(-rhs, 0)] + [(c * t.digit, t.power) for c, x in zip(row, xs) if c for t in x.terms]
        )
        for row, rhs in zip(system.a, system.b)
    ]
    residual_lead = max((r.terms[0].power for r in rows if r.terms), default=None)
    if residual_lead is not None and residual_lead.sign() >= 0:
        raise InexactSolution(
            f"residual has a term at grosspower {residual_lead}; "
            "the finite solution does not solve the system"
        )
    return SolveReport(
        solution=tuple(xs),
        finite_solution=tuple(x.finite_part() for x in xs),
        injected_pivots=z,
        injected_rows=tuple(injected),
        residual_leading_power=residual_lead,
    )


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
