"""Exact arithmetic on grossone numerals.

Numbers mix finite, infinite, and infinitesimal parts as sums of exact
rational digits times powers of the infinite unit G.  The package adds a
bit-exact text format, an expression evaluator that substitutes grossone
points instead of taking limits, a pivot-free linear solver that injects
G**-1 for zero pivots, and helpers for infinite sums, infinitesimal
probabilities, and mixed-dimension measures.

Each public name is listed once, under the module that defines it, in
_PUBLIC.  ``import grossone`` loads none of those modules: a name's module
is imported on first access (PEP 562), so a process compiles only what it
uses, and ``grossone eval`` never compiles the solver.
"""

from importlib import import_module as _import_module

_PUBLIC = {
    "applications": ("MeasurePiece", "event_probability", "piece_measure",
                     "points_in_unit_interval", "points_on_line", "total_measure"),
    "core": ("DEFAULT_DEPTH_LIMIT", "DEFAULT_MIN_POWER", "G", "ONE", "ZERO", "DivisionResult",
             "GrossNumber", "GrossTerm", "compare", "divide", "nesting_depth"),
    "errors": ("BudgetExceeded", "DepthExceeded", "DivisionByZero", "GrossoneError",
               "InexactInverse", "InexactProbability", "InexactSum", "NotIntegerValued",
               "ParseError", "SchemaError", "SingularSystem"),
    "expr": ("Expr", "contains_variable", "eval_alternating", "eval_at", "eval_sum",
             "parse_expr"),
    "linsolve": ("LinearSystem", "SolveReport", "solve_exact_oracle", "solve_grossone"),
    "notation": ("parse", "parse_rational", "print_canonical", "print_decimal"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
