"""Gauss-Jordan elimination without row interchange.

A pivot that is exactly zero is replaced by the infinitesimal G**-1 and
elimination proceeds; quotients are truncated below G**-z where z counts
the injections made so far.  The finite parts of the grossone solution
solve the original rational system.  An exact rational solver with
partial pivoting is included as an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Tuple

from .core import G, ZERO, GrossNumber, divide
from .errors import InexactSolution, SingularSystem

_INV_G = G**-1


@dataclass(frozen=True)
class LinearSystem:
    """Square rational system A x = b."""

    a: Tuple[Tuple[Fraction, ...], ...]
    b: Tuple[Fraction, ...]

    @classmethod
    def from_rows(cls, a: Iterable[Iterable], b: Iterable) -> "LinearSystem":
        rows = tuple(tuple(Fraction(x) for x in row) for row in a)
        rhs = tuple(Fraction(x) for x in b)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("coefficient matrix must be square and non-empty")
        if len(rhs) != len(rows):
            raise ValueError("right-hand side length must match the matrix")
        return cls(rows, rhs)

    @property
    def size(self) -> int:
        return len(self.b)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of the injection solver.

    ``residual_leading_power`` is the largest grosspower appearing in
    A*solution - b, or None when the residual is exactly zero; a successful
    solve always has a zero or purely infinitesimal residual.
    """

    solution: Tuple[GrossNumber, ...]
    finite_solution: Tuple[Fraction, ...]
    injected_pivots: int
    injected_rows: Tuple[int, ...]
    residual_leading_power: Optional[GrossNumber]


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
            m[col][col] = _INV_G
            z += 1
            injected.append(col)
        cutoff = GrossNumber.from_rational(-z)
        for c in range(col, n + 1):
            m[col][c] = divide(m[col][c], pivot, cutoff).quotient
        for r in range(col + 1, n):
            factor = m[r][col]
            if not factor.is_zero():
                for c in range(col, n + 1):
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
    residual_lead: Optional[GrossNumber] = None
    for row, rhs in zip(system.a, system.b):
        component = sum((coeff * x for coeff, x in zip(row, xs)), ZERO) - rhs
        if not component.is_zero():
            lead = component.terms[0].power
            if residual_lead is None or lead > residual_lead:
                residual_lead = lead
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
