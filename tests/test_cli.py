"""Command-line surface: outputs, exit codes, error categories, repl."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grossone.cli import _build_parser, main
from grossone.core import DEFAULT_DEPTH_LIMIT, DEFAULT_MIN_POWER
from support import INT_DIGIT_LIMIT, LOSSY_8X8

H_TEXT = "((x^2 + 2*x)/x - 2)*(34/x)"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- eval -------------------------------------------------------------------------


def test_eval_h_at_inverse_grossone(capsys):
    code, out, err = run_cli(capsys, "eval", H_TEXT, "--at", "G^-1")
    assert (code, err) == (0, "")
    assert out == "34\nexact\n"


def test_eval_h_at_grossone(capsys):
    code, out, _ = run_cli(capsys, "eval", H_TEXT, "--at", "G")
    assert code == 0 and out == "34\nexact\n"


def test_eval_grossone_minus_grossone(capsys):
    code, out, _ = run_cli(capsys, "eval", "G - G")
    assert code == 0 and out == "0\nexact\n"


def test_eval_truncated_division(capsys):
    code, out, _ = run_cli(capsys, "eval", "1/(G+1)", "--min-power", "-3")
    assert code == 0
    assert out == "1*G^-1 - 1*G^-2 + 1*G^-3\ninexact\n"


def test_eval_reads_its_own_output_back(capsys):
    # The 301-term truncation of 1/(G+1) is one flat sum, not 300 nested levels.
    code, out, _ = run_cli(capsys, "eval", "1/(G+1)", "--min-power", "-300")
    numeral = out.split("\n")[0]
    assert code == 0 and numeral.count("G^") == 300
    code, again, err = run_cli(capsys, "eval", numeral, "--min-power", "-300")
    assert (code, again, err) == (0, numeral + "\nexact\n", "")


@pytest.mark.parametrize(
    "argv,out",
    [
        pytest.param(["eval", "--at", "1", "+".join(["x"] * 5000)], "5000", id="eval-sum-chain"),
        pytest.param(["eval", "*".join(["G"] * 3000)], "1*G^3000", id="eval-product-chain"),
    ],
)
def test_long_operator_chain_is_one_level(capsys, argv, out):
    assert run_cli(capsys, *argv) == (0, out + "\nexact\n", "")


@pytest.mark.parametrize("argv", [["eval", "1/3"], ["eval", "x/3", "--at", "1"]])
def test_eval_constant_division_obeys_the_cutoff(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--min-power", "1")
    assert (code, out) == (0, "0\ninexact\n")


def test_eval_decimal_mode(capsys):
    code, out, _ = run_cli(capsys, "eval", "1/3 + G^-1", "--decimal", "4")
    assert code == 0
    assert out == "~0.3333 + 1*G^-1\nexact\n"


def test_eval_decimal_digits_must_be_positive(capsys):
    code, out, err = run_cli(capsys, "eval", "1", "--decimal", "0")
    assert (code, out) == (13, "")
    assert err.startswith("value-error:") and err.count("\n") == 1


_DIGITS_RANGE = "value-error: decimal digits must be between 1 and 4300\n"


@pytest.mark.parametrize("digits", ["100000000", "5000", "4301"])
def test_eval_decimal_digits_are_bounded(capsys, digits):
    # Checked before any work: 10**digits is never built.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eval", "1/3", "--decimal", digits)
    assert (code, out, err) == (13, "", _DIGITS_RANGE)
    assert time.perf_counter() - start < 5


def test_eval_decimal_digits_at_the_bound(capsys):
    code, out, err = run_cli(capsys, "eval", "1/3", "--decimal", "4300")
    assert (code, err) == (0, "")
    assert out == "~0." + "3" * 4300 + "\nexact\n"


def test_eval_depth_must_be_positive(capsys):
    code, out, err = run_cli(capsys, "eval", "1", "--depth", "0")
    assert (code, out) == (13, "")
    assert err.startswith("value-error:") and err.count("\n") == 1


@pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="no int digit limit")
def test_eval_digit_too_long_to_print(capsys):
    code, out, err = run_cli(capsys, "eval", "10^5000")
    assert (code, out) == (13, "")
    assert err == f"value-error: a digit has more than {INT_DIGIT_LIMIT} decimal digits to print\n"
    assert "set_int_max_str_digits" not in err


def test_eval_requires_at_for_variable(capsys):
    code, out, err = run_cli(capsys, "eval", "x + 1")
    assert code == 2 and out == ""
    assert err.startswith("usage-error:")


def test_eval_syntax_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "eval", "1 +")
    assert code == 3
    assert err.startswith("syntax-error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("²", id="superscript-digit"),
        pytest.param(
            "1" * (INT_DIGIT_LIMIT + 1),
            id="long-literal",
            marks=pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="no int digit limit"),
        ),
    ],
)
def test_eval_bad_literal_is_a_syntax_error(capsys, text):
    code, _, err = run_cli(capsys, "eval", text)
    assert code == 3
    assert err.startswith("syntax-error:") and err.count("\n") == 1


def test_eval_pole_exit_code(capsys):
    code, _, err = run_cli(capsys, "eval", "34/x", "--at", "0")
    assert code == 4
    assert err.startswith("division-by-zero:")


def test_eval_depth_exceeded_exit_code(capsys):
    code, _, err = run_cli(capsys, "eval", "x", "--at", "G^(G^(G^(G^2)))")
    assert code == 5
    assert err.startswith("depth-exceeded:")
    code, out, _ = run_cli(capsys, "eval", "x", "--at", "G^(G^(G^(G^2)))", "--depth", "3")
    assert code == 0 and out.endswith("exact\n")


def test_eval_output_is_deterministic(capsys):
    first = run_cli(capsys, "eval", H_TEXT, "--at", "3*G^2")
    second = run_cli(capsys, "eval", H_TEXT, "--at", "3*G^2")
    assert first == second


# -- solve ------------------------------------------------------------------------


def write_system(tmp_path, name, a, b):
    path = tmp_path / name
    path.write_text(json.dumps({"A": a, "b": b}))
    return str(path)


def test_solve_two_by_two_zero_pivot(tmp_path, capsys):
    path = write_system(tmp_path, "sys.json", [["0", "1"], ["2", "2"]], ["2", "2"])
    code, out, err = run_cli(capsys, "solve", path)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload == {
        "solution": ["-1", "2 + 1*G^-1"],
        "finite_solution": ["-1", "2"],
        "z": 1,
        "injected_rows": [0],
        "residual_leading_power": "-1",
    }


def test_solve_three_by_three_double_zero(tmp_path, capsys):
    path = write_system(
        tmp_path,
        "sys3.json",
        [["0", "0", "1"], ["2", "0", "-1"], ["1", "2", "3"]],
        ["1", "3", "1"],
    )
    code, out, _ = run_cli(capsys, "solve", path)
    payload = json.loads(out)
    assert code == 0
    assert payload["finite_solution"] == ["2", "-2", "1"]
    assert payload["z"] == 2
    assert payload["solution"][2] == "1 - 2*G^-1"


def test_solve_identity_echoes_rhs(tmp_path, capsys):
    path = write_system(tmp_path, "id.json", [[1, 0], [0, 1]], ["5", "7"])
    code, out, _ = run_cli(capsys, "solve", path)
    payload = json.loads(out)
    assert code == 0
    assert payload["finite_solution"] == ["5", "7"]
    assert payload["z"] == 0
    assert payload["residual_leading_power"] == "zero"


def test_solve_accepts_decimal_and_rational_entries(tmp_path, capsys):
    path = write_system(tmp_path, "q.json", [["0.5", "1/3"], ["1", "-2"]], ["1", "0"])
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 0
    assert json.loads(out)["z"] == 0


def test_solve_singular_exit_code(tmp_path, capsys):
    path = write_system(tmp_path, "s.json", [["1", "1"], ["1", "1"]], ["1", "2"])
    code, _, err = run_cli(capsys, "solve", path)
    assert code == 9
    assert err.startswith("singular-system:")


def test_solve_inexact_solution_exit_code(tmp_path, capsys):
    path = write_system(tmp_path, "lossy.json", *LOSSY_8X8)
    code, out, err = run_cli(capsys, "solve", path)
    assert (code, out) == (14, "")
    assert err.startswith("inexact-solution:")


def test_solve_missing_file(capsys):
    code, _, err = run_cli(capsys, "solve", "/nonexistent/system.json")
    assert code == 12
    assert err.startswith("io-error:")


@pytest.mark.parametrize(
    "payload",
    [
        "not json",
        '{"A": [[1, 2]], "b": [1]}',
        '{"A": [["1", "2"], ["3", "4"]], "b": ["1"]}',
        '{"A": [["1", "2"], ["3", "oops"]], "b": ["1", "2"]}',
        '{"A": [[0.25, "2"], ["3", "4"]], "b": ["1", "2"]}',
        '{"b": ["1"]}',
        '{"A": [], "b": []}',
        '{"A": [["1", "2"], ["3"]], "b": ["1", "2"]}',
        '{"A": 5, "b": [1]}',
        '{"A": [[1]], "b": 5}',
        pytest.param(
            '{"A": [[' + "1" * (INT_DIGIT_LIMIT + 1) + ']], "b": [1]}',
            id="long-integer",
            marks=pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="no int digit limit"),
        ),
        pytest.param(b'{"A": [["1"]], "b": ["\xff"]}', id="not-utf-8"),
    ],
)
def test_solve_schema_errors(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_bytes(payload if isinstance(payload, bytes) else payload.encode())
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 10
    assert err.startswith("schema-error:")


# -- sum / prob / measure -----------------------------------------------------------


def test_sum_formula_at_infinite_count(capsys):
    code, out, _ = run_cli(capsys, "sum", "30*x", "--items", "5*G")
    assert code == 0 and out == "150*G\nexact\n"


def test_sum_difference_example(capsys):
    code, out, _ = run_cli(capsys, "sum", "x", "--items", "5*G")
    assert code == 0 and out == "5*G\nexact\n"


def test_sum_alternating_parity(capsys):
    code, out, _ = run_cli(capsys, "sum", "--alternating", "--items", "G")
    assert code == 0 and out == "0\nexact\n"
    code, out, _ = run_cli(capsys, "sum", "--alternating", "--items", "G - 1")
    assert code == 0 and out == "1\nexact\n"


def test_sum_alternating_rejects_fractional_items(capsys):
    code, _, err = run_cli(capsys, "sum", "--alternating", "--items", "G^-1")
    assert code == 6
    assert err.startswith("not-integer-valued:")


def test_sum_usage_errors(capsys):
    code, _, err = run_cli(capsys, "sum", "--items", "G")
    assert code == 2 and err.startswith("usage-error:")
    code, _, err = run_cli(capsys, "sum", "x", "--alternating", "--items", "G")
    assert code == 2 and err.startswith("usage-error:")


def test_prob_single_point(capsys):
    code, out, _ = run_cli(capsys, "prob", "--favorable", "1", "--total", "G")
    assert code == 0 and out == "1*G^-1\n"


def test_prob_higher_resolution(capsys):
    code, out, _ = run_cli(capsys, "prob", "--favorable", "3", "--total", "G^2")
    assert code == 0 and out == "3*G^-2\n"


def test_prob_inexact_exit_code(capsys):
    code, _, err = run_cli(capsys, "prob", "--favorable", "1", "--total", "G + 1")
    assert code == 8
    assert err.startswith("inexact-probability:")


def test_prob_bounds_exit_code(capsys):
    code, _, err = run_cli(capsys, "prob", "--favorable", "G", "--total", "1")
    assert code == 13
    assert err.startswith("value-error:")


def test_measure_square_with_line_stub(tmp_path, capsys):
    path = tmp_path / "pieces.json"
    path.write_text(
        json.dumps(
            [
                {"extent": "1", "codim": 0},
                {"extent": "1", "codim": 1, "width_points": 3, "resolution": 1},
            ]
        )
    )
    code, out, _ = run_cli(capsys, "measure", str(path))
    assert code == 0 and out == "1 + 3*G^-1\n"


def test_measure_volume_figure(tmp_path, capsys):
    path = tmp_path / "vol.json"
    path.write_text(
        json.dumps(
            [
                {"extent": "1", "codim": 0},
                {"extent": "1", "codim": 1, "width_points": 5, "resolution": 2},
                {"extent": "1", "codim": 2, "width_points": 5, "resolution": 2},
            ]
        )
    )
    code, out, _ = run_cli(capsys, "measure", str(path))
    assert code == 0 and out == "1 + 5*G^-2 + 25*G^-4\n"


@pytest.mark.parametrize(
    "payload",
    [
        '{"extent": "1", "codim": 0}',
        '[{"codim": 0}]',
        '[{"extent": "1", "codim": -1}]',
        '[{"extent": "1", "codim": 0, "width": 2}]',
        '[{"extent": "1", "codim": 0, "width_points": true}]',
        '[{"extent": "1", "codim": 0, "width_points": 0}]',
        '[{"extent": "1", "codim": 0, "resolution": 0}]',
        '[{"extent": "1", "codim": 1.5}]',
        '[{"extent": "1", "codim": "2"}]',
    ],
)
def test_measure_schema_errors(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    code, _, err = run_cli(capsys, "measure", str(path))
    assert code == 10
    assert err.startswith("schema-error:")


# -- repl ---------------------------------------------------------------------------


def run_repl(capsys, monkeypatch, lines):
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(line + "\n" for line in lines)))
    code = main(["repl"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repl_evaluates_lines(capsys, monkeypatch):
    code, out, err = run_repl(capsys, monkeypatch, ["G*G^-1", "5*G + 30*5*G", ":quit"])
    assert code == 0 and err == ""
    assert out == "1\n155*G\n"


def test_repl_set_min_power(capsys, monkeypatch):
    code, out, _ = run_repl(
        capsys, monkeypatch, [":set min_power -3", "1/(G+1)", ":quit"]
    )
    assert code == 0
    assert out == "1*G^-1 - 1*G^-2 + 1*G^-3  (inexact)\n"


def test_repl_set_output_decimal(capsys, monkeypatch):
    code, out, _ = run_repl(
        capsys,
        monkeypatch,
        [":set output decimal", ":set decimal_digits 3", "1/3", ":quit"],
    )
    assert code == 0
    assert out == "~0.333\n"


def test_repl_errors_do_not_stop_the_loop(capsys, monkeypatch):
    code, out, err = run_repl(
        capsys,
        monkeypatch,
        [
            "1 +", "34/(G - G)", "x + 1", ":set nope 1", ":foo", ":set output fancy", "2 + 2",
            ":quit",
        ],
    )
    assert code == 0
    assert out == "4\n"
    categories = [line.split(":")[0] for line in err.strip().splitlines()]
    assert categories == ["syntax-error", "division-by-zero", "syntax-error"] + ["value-error"] * 3


def test_repl_rejects_zero_decimal_digits(capsys, monkeypatch):
    code, out, err = run_repl(
        capsys, monkeypatch, [":set decimal_digits 0", ":set output decimal", "1/3", ":quit"]
    )
    assert code == 0 and out == "~0.333333\n"
    assert err.startswith("value-error:") and err.count("\n") == 1


def test_repl_bounds_decimal_digits(capsys, monkeypatch):
    start = time.perf_counter()
    code, out, err = run_repl(
        capsys,
        monkeypatch,
        [":set decimal_digits 100000000", ":set output decimal", "1/3", ":quit"],
    )
    assert time.perf_counter() - start < 5
    assert (code, out, err) == (0, "~0.333333\n", _DIGITS_RANGE)


def test_repl_depth_is_not_a_setting(capsys, monkeypatch):
    code, out, err = run_repl(capsys, monkeypatch, [":set depth 3", "2 + 2", ":quit"])
    assert code == 0 and out == "4\n"
    assert err == "value-error: unknown setting 'depth'\n"


def test_repl_exits_cleanly_on_eof(capsys, monkeypatch):
    code, out, _ = run_repl(capsys, monkeypatch, ["1 + 1"])
    assert code == 0 and out == "2\n"


def test_argparse_errors_are_single_line(capsys):
    assert main(["eval", "1", "--min-power", "oops"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage-error:") and err.count("\n") == 1
    # A subcommand takes only the flags it reads.
    for command, flag in [
        ("solve", "--min-power"),
        ("solve", "--depth"),
        ("solve", "--decimal"),
        ("measure", "--min-power"),
        ("measure", "--depth"),
        ("repl", "--depth"),
    ]:
        assert main([command, flag, "3"] + ([] if command == "repl" else ["f.json"])) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage-error:") and err.count("\n") == 1


_README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
# A shortest command line of each subcommand, and a value other than the default for each flag.
_BARE_ARGV = {
    "eval": ["eval", "1"],
    "solve": ["solve", "f.json"],
    "sum": ["sum", "--items", "G"],
    "prob": ["prob", "--favorable", "1", "--total", "G"],
    "measure": ["measure", "f.json"],
    "repl": ["repl"],
}
_FLAG_VALUES = {"--min-power": ("min_power", -3), "--depth": ("depth", 4), "--decimal": ("decimal", 9)}


def _readme_flag_table():
    """{subcommand: the flags that README.md's flag table marks "yes" for it}."""
    with open(_README, encoding="utf-8") as handle:
        rows = [line.split("|")[1:-1] for line in handle if line.startswith("|")]
    flags = [cell.strip().strip("`") for cell in rows[0][1:]]
    return {
        name.strip().strip("`"): {flag for flag, cell in zip(flags, cells) if cell.strip() == "yes"}
        for names, *cells in rows[2:]
        for name in names.split(",")
    }


def test_each_subcommand_reads_the_flags_readme_gives_it():
    table = _readme_flag_table()
    assert set(table) == set(_BARE_ARGV)
    defaults = {"min_power": DEFAULT_MIN_POWER, "depth": DEFAULT_DEPTH_LIMIT, "decimal": None}
    for command, taken in table.items():
        # A flag the subcommand takes carries its value; the others keep their defaults.
        argv, expected = list(_BARE_ARGV[command]), dict(defaults)
        for flag in taken:
            dest, value = _FLAG_VALUES[flag]
            argv += [flag, str(value)]
            expected[dest] = value
        parsed = vars(_build_parser().parse_args(argv))
        assert {dest: parsed[dest] for dest in defaults} == expected, argv


# -- input nested too deeply --------------------------------------------------------

_DEEP_PARENS = "(" * 5000 + "1" + ")" * 5000


@pytest.mark.parametrize(
    "argv,code,category",
    [
        pytest.param(["solve", "NESTED"], 10, "schema-error", id="solve-json"),
        pytest.param(["measure", "NESTED"], 10, "schema-error", id="measure-json"),
        pytest.param(["eval", _DEEP_PARENS], 3, "syntax-error", id="eval-parentheses"),
        pytest.param(["eval", "--", "-" * 5000 + "1"], 3, "syntax-error", id="eval-minus-run"),
        pytest.param(
            ["sum", "--alternating", "--items", "G^(" * 400 + "1" + ")" * 400],
            3,
            "syntax-error",
            id="sum-nested-grosspowers",
        ),
        pytest.param(["repl"], 0, "syntax-error", id="repl-line"),
    ],
)
def test_deep_input_is_one_typed_error(tmp_path, capsys, monkeypatch, argv, code, category):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    # The repl reads the deep line, then one that must still evaluate.
    monkeypatch.setattr(sys, "stdin", io.StringIO(_DEEP_PARENS + "\n1 + 1\n"))
    got, out, err = run_cli(capsys, *[str(nested) if arg == "NESTED" else arg for arg in argv])
    assert got == code
    assert err.startswith(f"{category}:") and err.count("\n") == 1
    assert out == ("2\n" if argv == ["repl"] else "")


# -- work budgets ----------------------------------------------------------------------

_WIDE_CODIM = '[{"extent": "1", "codim": 100000000, "width_points": 3}]'
_THIN_CODIM = '[{"extent": "1", "codim": 100000000, "width_points": 1}]'
# Each step of this division leaves a G^(-G+k) term that never leads again.
_FAR_BELOW = "1/3+(10-1/3+1)+-(0.25+" + "9" * 200 + ")/-x+0.25-10-7"
_FAR_BELOW_AT = "1000*G^2 + 1000*G^-1 + 1/3*G^(-G)"
# Gaps of 39.5 and 41 between this divisor's powers leave ~25,000 quotient powers to try.
_FAR_TOTAL = "1/2*G^40 - 8/3*G^(1/2) + 2*G^-1"
_WIDENING = "(--(999999999-0.25)/((-3^1000-x^2)+(2-G^-1)))"


@pytest.mark.parametrize(
    "argv,pieces_json,code,out",
    [
        (["eval", "10^100000000"], None, 15, ""),
        (["eval", "x^1000000000", "--at", "2"], None, 15, ""),
        (["eval", "(G+1)^100000"], None, 15, ""),
        (["measure", "PIECES"], _WIDE_CODIM, 15, ""),
        (["measure", "PIECES"], _THIN_CODIM, 0, "1*G^-100000000\n"),
        (["eval", "x^1000000000", "--at", "1"], None, 0, "1\nexact\n"),
        (["eval", "x^1000000000", "--at", "G"], None, 0, "1*G^1000000000\nexact\n"),
        (["eval", "*".join(["10^500000"] * 16)], None, 15, ""),
        (["eval", "1/(G+10^4000)", "--min-power", "-1000"], None, 15, ""),
        (["eval", _FAR_BELOW, "--at", _FAR_BELOW_AT, "--min-power", "-27000"], None, 15, ""),
        (["prob", "--favorable", "1", "--total", _FAR_TOTAL, "--min-power", "-9000"], None, 15, ""),
        (["eval", "1/(G+1)", "--min-power", "-20000"], None, 15, ""),
        # Each quotient digit is about 1,585 bits (3^1000) wider than the last.
        (["eval", _WIDENING, "--at", "3*G^-40", "--min-power", "-3000"], None, 15, ""),
        (["sum", "(((999999999-G)*3^1000)/(0-G^-1)^5)^100000", "--items", "G"], None, 15, ""),
    ],
)
def test_power_budget_ends_large_powers(tmp_path, argv, pieces_json, code, out):
    pieces = tmp_path / "pieces.json"
    pieces.write_text(pieces_json or "[]")
    argv = [str(pieces) if arg == "PIECES" else arg for arg in argv]
    result = subprocess.run(
        [sys.executable, "-m", "grossone", *argv],
        capture_output=True,
        text=True,
        timeout=5,
        check=False,
    )
    assert (result.returncode, result.stdout) == (code, out)
    if code:
        assert result.stderr.startswith("budget-exceeded:") and result.stderr.count("\n") == 1


def test_measure_sums_many_pieces_in_one_pass(tmp_path):
    # 20,000 distinct codims: summing with + copied the running total at every
    # piece, for minutes; one normalization over all the terms takes seconds.
    pieces = tmp_path / "pieces.json"
    pieces.write_text(json.dumps([{"extent": "1", "codim": i} for i in range(20_000)]))
    result = subprocess.run(
        [sys.executable, "-m", "grossone", "measure", str(pieces)],
        capture_output=True,
        text=True,
        timeout=10,
        check=False,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.startswith("1 + 1*G^-1 + 1*G^-2 + ")
    assert result.stdout.endswith(" + 1*G^-19999\n") and result.stdout.count("*G^-") == 19_999


# -- fuzz -------------------------------------------------------------------------------

# The exit codes README.md documents.
_DOCUMENTED_CODES = {0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15}
# A digit, a numeric and a letter to Unicode that the grammar refuses, and a
# no-break space that separates tokens as " " does.
_ATOMS = st.one_of(
    st.sampled_from(["x", "G", "1/3", "0.25"] * 2 + ["\u00b2", "\u0663", "\u00e9"]),
    st.integers(0, 999999999).map(str),
)
_EXPONENTS = [-3, -1, 2, 5, 40, 1000, 100000, 10**6]
_TEXTS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(" \u00a0"), st.sampled_from("+-*/"), inner).map(
            lambda t: f"({t[0]}{t[1]}{t[2]} {t[3]})"
        ),
        st.tuples(inner, st.sampled_from(_EXPONENTS)).map(lambda t: f"({t[0]})^{t[1]}"),
    ),
    max_leaves=8,
)
# Points that do not start with "-", which argparse would read as a flag.
_POINTS = ["0", "1", "3/2 - G", "G", "G^-1", "1000*G^2 + 1000*G^-1 + 1/3*G^(-G)", "G^(1/2) - 1"]


@pytest.mark.parametrize("command,point_flag", [("eval", "--at"), ("sum", "--items")], ids=["eval", "sum"])
@settings(derandomize=True, max_examples=300, deadline=None)
@given(_TEXTS, st.sampled_from(_POINTS), st.sampled_from(["-3000", "-300", "-8", "0", "2"]))
def test_eval_fuzz_ends_in_a_documented_exit(command, point_flag, text, point, min_power):
    # Deep cutoffs and large exponents end in a result or a typed error, each fast.
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, text, point_flag, point, "--min-power", min_power])
    assert time.perf_counter() - start < 5
    assert code in _DOCUMENTED_CODES
    assert err.getvalue().count("\n") <= 1


# -- module entry point ---------------------------------------------------------------


def test_module_invocation_round_trip():
    result = subprocess.run(
        [sys.executable, "-m", "grossone", "eval", "G*G^-1"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert result.stdout == "1\nexact\n"


def test_a_reader_that_stops_early_ends_the_run_quietly():
    # As in `eval ... | head -n 1`: stdout closed before all of it is written is
    # no error.  Odd runs close it after the first line, even ones before any;
    # the first ten write each line at once, the rest flush a buffer at the end.
    buffered = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for run in range(20):
        env = dict(buffered, PYTHONUNBUFFERED="1") if run < 10 else buffered
        proc = subprocess.Popen(
            [sys.executable, "-m", "grossone", "eval", "1/(G+1)", "--min-power", "-300"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        if run % 2:
            assert proc.stdout.readline().startswith(b"1*G^-1 - 1*G^-2 + ")
        proc.stdout.close()
        with proc.stderr:
            assert (run, proc.wait(timeout=10), proc.stderr.read()) == (run, 0, b"")


def test_cli_import_leaves_out_dataclasses():
    # Neither importing the CLI nor running eval loads the modules that only
    # solve, measure and prob run; the records need no dataclasses either.
    unused = "{'dataclasses', 'inspect', 'json', 'grossone.linsolve', 'grossone.applications'}"
    for run, printed in (
        ("import grossone.cli", ""),
        ("import grossone.cli; grossone.cli.main(['eval', '1/(G+1)'])", "inexact\n"),
    ):
        probe = (
            f"import sys; before = set(sys.modules); {run}; "
            f"print(sorted({unused} & (set(sys.modules) - before)))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=False
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.endswith(printed + "[]\n"), result.stdout
