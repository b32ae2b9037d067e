"""Command-line interface.

Subcommands: eval, solve, sum, prob, measure, repl.  Numerals use the
text grammar from the notation module; linear systems and measure pieces
are read from JSON files.  Every failure prints a single
``<category>: <message>`` line to stderr through _report and exits with
the category's code (see _ERROR_TABLE).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from .core import DEFAULT_DEPTH_LIMIT, DEFAULT_MIN_POWER, GrossNumber, _count
from .errors import (
    BudgetExceeded,
    DepthExceeded,
    DivisionByZero,
    GrossoneError,
    InexactInverse,
    InexactProbability,
    InexactSolution,
    NotIntegerValued,
    ParseError,
    SchemaError,
    SingularSystem,
)
from .expr import contains_variable, eval_alternating, eval_at, parse_expr
from .notation import _decimal_digits, parse, parse_rational, print_canonical, print_decimal

# solve, measure and prob import json and the modules they run in their
# handlers, so eval, sum and repl never compile them.
if TYPE_CHECKING:
    from .applications import MeasurePiece
    from .linsolve import LinearSystem


class _UsageError(Exception):
    """A command line the parser or a subcommand refuses."""


_ERROR_TABLE = [
    (_UsageError, "usage-error", 2),
    (ParseError, "syntax-error", 3),
    (DivisionByZero, "division-by-zero", 4),
    (DepthExceeded, "depth-exceeded", 5),
    (NotIntegerValued, "not-integer-valued", 6),
    (InexactInverse, "inexact-inverse", 7),
    (InexactProbability, "inexact-probability", 8),
    (SingularSystem, "singular-system", 9),
    (SchemaError, "schema-error", 10),
    (OSError, "io-error", 12),
    (ValueError, "value-error", 13),
    (InexactSolution, "inexact-solution", 14),
    (BudgetExceeded, "budget-exceeded", 15),
]


class _SingleLineParser(argparse.ArgumentParser):
    """Argument errors raise _UsageError: one line, not a usage dump."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _SingleLineParser(
        prog="grossone",
        description="Exact arithmetic with finite, infinite, and infinitesimal numerals.",
    )
    # Each subcommand takes only the flags it reads; the others keep these.
    parser.set_defaults(min_power=DEFAULT_MIN_POWER, depth=DEFAULT_DEPTH_LIMIT, decimal=None)
    min_power = _flag(
        "--min-power",
        type=int,
        help=f"lowest grosspower kept by divisions (default {DEFAULT_MIN_POWER})",
    )
    depth = _flag(
        "--depth", type=int, help=f"grosspower nesting limit (default {DEFAULT_DEPTH_LIMIT})"
    )
    decimal = _flag(
        "--decimal",
        nargs="?",
        const=6,
        type=int,
        metavar="DIGITS",
        help="print digits as decimals instead of exact rationals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    all_flags = [min_power, depth, decimal]
    p_eval = sub.add_parser("eval", parents=all_flags, help="evaluate an expression")
    p_eval.add_argument("expr", help="expression over x, G, and numeric literals")
    p_eval.add_argument("--at", help="numeral substituted for x", default=None)

    p_solve = sub.add_parser("solve", help="solve a linear system from JSON")
    p_solve.add_argument("path", help='JSON file {"A": [[...]], "b": [...]}')

    p_sum = sub.add_parser("sum", parents=all_flags, help="sum with an explicit item count")
    p_sum.add_argument("formula", nargs="?", help="partial-sum formula S(x)")
    p_sum.add_argument("--items", required=True, help="numeral item count")
    p_sum.add_argument(
        "--alternating",
        action="store_true",
        help="sum 1 - 1 + 1 - ... instead of using a formula",
    )

    p_prob = sub.add_parser("prob", parents=all_flags, help="event probability favorable/total")
    p_prob.add_argument("--favorable", required=True, help="numeral count of favorable events")
    p_prob.add_argument("--total", required=True, help="numeral count of all events")

    p_measure = sub.add_parser(
        "measure", parents=[decimal], help="total measure of mixed-dimension pieces"
    )
    p_measure.add_argument("path", help="JSON file with a list of pieces")

    sub.add_parser("repl", parents=[min_power, decimal], help="interactive read-eval-print loop")
    return parser


def _flag(*names: str, **options) -> argparse.ArgumentParser:
    """A parent parser with one flag; left unset, the flag keeps the top-level default."""
    holder = argparse.ArgumentParser(add_help=False)
    holder.add_argument(*names, default=argparse.SUPPRESS, **options)
    return holder


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _count(args.depth, "--depth", 1)
        if args.decimal is not None:
            _decimal_digits(args.decimal)
        handler = {"eval": _cmd_eval, "solve": _cmd_solve, "sum": _cmd_sum, "prob": _cmd_prob,
                   "measure": _cmd_measure, "repl": _cmd_repl}[args.command]
        code = handler(args)
        sys.stdout.flush()  # a reader gone early raises here, not in the exit flush
        return code
    except BrokenPipeError:  # stdout's reader left: no error, and the exit flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:  # noqa: BLE001 - mapped to exit codes by _ERROR_TABLE
        return _report(exc)


def _report(exc: Exception) -> int:
    """The one writer of the error line: ``category: message`` of the first
    matching _ERROR_TABLE row, whose exit code it returns; else re-raise."""
    for exc_type, category, code in _ERROR_TABLE:
        if isinstance(exc, exc_type):
            print(f"{category}: {exc}", file=sys.stderr)
            return code
    raise exc


def entry() -> None:
    sys.exit(main())


def _cmd_eval(args: argparse.Namespace) -> int:
    tree = parse_expr(args.expr)
    if contains_variable(tree) and args.at is None:
        raise _UsageError("expression contains 'x'; provide --at NUMERAL")
    point = 0 if args.at is None else parse(args.at, args.depth)
    return _print_result(args, *eval_at(tree, point, args.min_power))


def _cmd_sum(args: argparse.Namespace) -> int:
    items = parse(args.items, args.depth)
    if args.alternating:
        if args.formula is not None:
            raise _UsageError("--alternating does not take a formula")
        return _print_result(args, eval_alternating(items), True)
    if args.formula is None:
        raise _UsageError("provide a partial-sum formula or --alternating")
    return _print_result(args, *eval_at(parse_expr(args.formula), items, args.min_power))


def _render(args: argparse.Namespace, value: GrossNumber) -> str:
    """Exact canonical text, or decimal digits when ``args.decimal`` holds a count."""
    if args.decimal is None:
        return print_canonical(value)
    return print_decimal(value, args.decimal)


def _print_result(args: argparse.Namespace, value: GrossNumber, exact: bool) -> int:
    """The value, then "exact" or "inexact" on its own line; exit code 0."""
    print(_render(args, value))
    print("exact" if exact else "inexact")
    return 0


def _cmd_prob(args: argparse.Namespace) -> int:
    from .applications import event_probability
    favorable = parse(args.favorable, args.depth)
    total = parse(args.total, args.depth)
    print(_render(args, event_probability(favorable, total, args.min_power)))
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    from .applications import total_measure
    data = _load_json(args.path)
    if not isinstance(data, list):
        raise SchemaError("measure input must be a JSON list of pieces")
    pieces = [_piece_from_json(i, entry) for i, entry in enumerate(data)]
    print(_render(args, total_measure(pieces)))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    import json
    from .linsolve import solve_grossone
    system = _system_from_json(_load_json(args.path))
    report = solve_grossone(system)
    lead = report.residual_leading_power
    payload = {
        "solution": [print_canonical(x) for x in report.solution],
        "finite_solution": [str(x) for x in report.finite_solution],
        "z": report.injected_pivots,
        "injected_rows": list(report.injected_rows),
        "residual_leading_power": "zero" if lead is None else print_canonical(lead),
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_repl(args: argparse.Namespace) -> int:
    args.digits = args.decimal or 6  # the decimal_digits setting, kept in canonical output
    interactive = sys.stdin.isatty()
    while True:
        if interactive:
            sys.stdout.write("g> ")
            sys.stdout.flush()
        line = sys.stdin.readline()
        if not line:
            return 0
        line = line.strip()
        if not line:
            continue
        if line == ":quit":
            return 0
        try:
            if line.startswith(":"):
                _repl_directive(line, args)
                continue
            tree = parse_expr(line)
            if contains_variable(tree):
                raise ParseError("the repl evaluates closed expressions; 'x' is not bound", 0)
            value, exact = eval_at(tree, 0, args.min_power)
            suffix = "" if exact else "  (inexact)"
            print(f"{_render(args, value)}{suffix}")
        except (GrossoneError, ValueError) as exc:
            _report(exc)


def _repl_directive(line: str, args: argparse.Namespace) -> None:
    parts = line.split()
    if parts[0] != ":set" or len(parts) != 3:
        raise ValueError(f"unknown directive {line!r}; try :set KEY VALUE or :quit")
    key, value = parts[1], parts[2]
    if key == "min_power":
        args.min_power = int(value)
    elif key == "output":
        if value not in ("canonical", "decimal"):
            raise ValueError("output must be 'canonical' or 'decimal'")
        args.decimal = args.digits if value == "decimal" else None
    elif key == "decimal_digits":
        args.digits = _decimal_digits(int(value))
        args.decimal = None if args.decimal is None else args.digits
    else:
        raise ValueError(f"unknown setting {key!r}")


def _load_json(path: str):
    import json
    with open(path, "r", encoding="utf-8") as handle:
        # ValueError covers malformed JSON, bytes that are not UTF-8, and
        # integer literals past the interpreter's int conversion limit;
        # RecursionError, arrays or objects nested too deeply to decode.
        try:
            return json.loads(handle.read())
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc


def _rational_field(value, where: str):
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise SchemaError(f"{where}: expected a string or integer literal")
    try:
        return parse_rational(str(value))
    except ParseError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _system_from_json(data) -> LinearSystem:
    from .linsolve import LinearSystem
    if not isinstance(data, dict) or "A" not in data or "b" not in data:
        raise SchemaError('system file must be a JSON object with keys "A" and "b"')
    a, b = data["A"], data["b"]
    if not isinstance(a, list) or not all(isinstance(row, list) for row in a):
        raise SchemaError('"A" must be a list of rows')
    if not isinstance(b, list):
        raise SchemaError('"b" must be a list')
    rows = [
        [_rational_field(x, f"A[{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(a)
    ]
    rhs = [_rational_field(x, f"b[{i}]") for i, x in enumerate(b)]
    try:
        return LinearSystem.from_rows(rows, rhs)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _piece_from_json(index: int, data) -> MeasurePiece:
    from .applications import MeasurePiece
    if not isinstance(data, dict) or "extent" not in data or "codim" not in data:
        raise SchemaError(f'piece {index}: expected an object with "extent" and "codim"')
    unknown = set(data).difference(MeasurePiece.__match_args__)
    if unknown:
        raise SchemaError(f"piece {index}: unknown keys {sorted(unknown)}")
    try:
        extent = _rational_field(data["extent"], f"piece {index}: extent")
        return MeasurePiece(**dict(data, extent=extent))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"piece {index}: {exc}") from exc
