"""Exact arithmetic on grossone numerals.

Numbers mix finite, infinite, and infinitesimal parts as sums of exact
rational digits times powers of the infinite unit G.  The package adds a
bit-exact text format, an expression evaluator that substitutes grossone
points instead of taking limits, a pivot-free linear solver that injects
G**-1 for zero pivots, and helpers for infinite sums, infinitesimal
probabilities, and mixed-dimension measures.
"""

from .applications import (
    MeasurePiece,
    event_probability,
    piece_measure,
    points_in_unit_interval,
    points_on_line,
    total_measure,
)
from .core import (
    DEFAULT_DEPTH_LIMIT,
    DEFAULT_MIN_POWER,
    G,
    ONE,
    ZERO,
    DivisionResult,
    GrossNumber,
    GrossTerm,
    compare,
    divide,
    nesting_depth,
)
from .errors import (
    BudgetExceeded,
    DepthExceeded,
    DivisionByZero,
    GrossoneError,
    InexactInverse,
    InexactProbability,
    InexactSum,
    NotIntegerValued,
    ParseError,
    SchemaError,
    SingularSystem,
)
from .expr import (
    Expr,
    contains_variable,
    eval_alternating,
    eval_at,
    eval_sum,
    parse_expr,
)
from .linsolve import LinearSystem, SolveReport, solve_exact_oracle, solve_grossone
from .notation import parse, parse_rational, print_canonical, print_decimal

__all__ = [
    "BudgetExceeded",
    "DEFAULT_DEPTH_LIMIT",
    "DEFAULT_MIN_POWER",
    "DepthExceeded",
    "DivisionByZero",
    "DivisionResult",
    "Expr",
    "G",
    "GrossNumber",
    "GrossTerm",
    "GrossoneError",
    "InexactInverse",
    "InexactProbability",
    "InexactSum",
    "LinearSystem",
    "MeasurePiece",
    "NotIntegerValued",
    "ONE",
    "ParseError",
    "SchemaError",
    "SingularSystem",
    "SolveReport",
    "ZERO",
    "compare",
    "contains_variable",
    "divide",
    "eval_alternating",
    "eval_at",
    "eval_sum",
    "event_probability",
    "nesting_depth",
    "parse",
    "parse_expr",
    "parse_rational",
    "piece_measure",
    "points_in_unit_interval",
    "points_on_line",
    "print_canonical",
    "print_decimal",
    "solve_exact_oracle",
    "solve_grossone",
    "total_measure",
]
