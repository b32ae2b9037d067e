"""The package's public names: what ``__all__`` lists and where each lives."""

import importlib
import subprocess
import sys

import grossone

PUBLIC_NAMES = [
    "BudgetExceeded", "DEFAULT_DEPTH_LIMIT", "DEFAULT_MIN_POWER", "DepthExceeded",
    "DivisionByZero", "DivisionResult", "Expr", "G", "GrossNumber", "GrossTerm",
    "GrossoneError", "InexactInverse", "InexactProbability", "InexactSum", "LinearSystem",
    "MeasurePiece", "NotIntegerValued", "ONE", "ParseError", "SchemaError", "SingularSystem",
    "SolveReport", "ZERO", "compare", "contains_variable", "divide", "eval_alternating",
    "eval_at", "eval_sum", "event_probability", "nesting_depth", "parse", "parse_expr",
    "parse_rational", "piece_measure", "points_in_unit_interval", "points_on_line",
    "print_canonical", "print_decimal", "solve_exact_oracle", "solve_grossone",
    "total_measure",
]


def test_public_names_resolve_to_their_home_modules():
    assert grossone.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        home = importlib.import_module(f"grossone.{grossone._HOME[name]}")
        assert getattr(grossone, name) is getattr(home, name), name
    star = {}
    exec("from grossone import *", star)
    assert set(star) - {"__builtins__"} == set(PUBLIC_NAMES)
    from grossone import linsolve

    assert linsolve is importlib.import_module("grossone.linsolve")
    # dir() lists every public name before any of them is first accessed.
    probe = "import grossone; print(sorted(set(grossone.__all__) - set(dir(grossone))))"
    listed = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (listed.returncode, listed.stdout) == (0, "[]\n"), listed.stderr
    assert not hasattr(grossone, "nope")
