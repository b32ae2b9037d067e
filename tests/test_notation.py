"""Numeral text format: parsing, canonical printing, decimal display."""

import random
from fractions import Fraction as F

import pytest

from grossone import (
    G,
    ONE,
    ZERO,
    DepthExceeded,
    ParseError,
    divide,
    eval_at,
    parse,
    parse_expr,
    parse_rational,
    print_canonical,
    print_decimal,
)
from grossone.expr import Constant, Grossone, PowInt, Product
from grossone.notation import MAX_NESTING
from support import INT_DIGIT_LIMIT, gn, gt, random_grossone

MIXED_SUM_CANONICAL = "30421/100*G^(84/5*G) - 71/10*G^12 + 623/100*G^3 + 543/10 + 15*G^(-31/5*G)"


def test_parse_mixed_infinite_numeral():
    parsed = parse("304.21*G^(16.8*G) - 7.1*G^12 + 41.2")
    built = gt([(F("304.21"), gt([(F("16.8"), 1)])), (F("-7.1"), 12), (F("41.2"), 0)])
    assert parsed == built


def test_parse_zero():
    assert parse("0") == ZERO
    assert parse("0*G^5 + 0") == ZERO


def test_parse_finite_plus_infinitesimal():
    assert parse("2 + 1*G^-1") == gn(2) + G**-1


def test_parse_is_normalizing():
    assert parse("3*G + 2*G") == 5 * G
    assert parse("1 - 1") == ZERO
    assert parse("1*G^2 + 5 - 2*G^2") == -(G**2) + 5


def test_parse_rational_digits_and_powers():
    assert parse("3/4") == gn(F(3, 4))
    assert parse("G^84/5") == gt([(1, F(84, 5))])
    # The expression grammar groups the same text as (G^84)/5.
    tree = parse_expr("G^84/5")
    assert tree == Product((PowInt(Grossone(), 84), Constant(F(5))), (True,))
    assert eval_at(tree, ZERO) == (gt([(F(1, 5), 84)]), True)
    assert parse("G^-31/5") == gt([(1, F(-31, 5))])
    assert parse("7/2*G^-2") == gt([(F(7, 2), -2)])


def test_parse_whitespace_insensitive():
    assert parse(" - 7.1 * G ^ 12 ") == gt([(F("-7.1"), 12)])
    assert parse("G^- 1") == G**-1
    assert parse("1\u00a0+\u3000\x1c2") == 3  # whitespace is whatever str.isspace() accepts


def test_parse_unit_forms():
    assert parse("G") == G
    assert parse("-G") == -G
    assert parse("G^0") == ONE
    assert parse("G - G") == ZERO


_PARSE_ERRORS = [
    ("3 + ", 4, "digit expected"),
    ("q", 0, "unknown name 'q'"),
    ("3*G^", 4, "grosspower must be"),
    ("3*", 2, "expected 'G'"),
    ("(3)", 0, "digit expected"),
    ("3/0", 2, "denominator must be a positive integer"),
    ("G^3.5", 2, "grosspower must be"),
    ("3..5", 1, "unexpected character '.'"),
    ("1*G^(2", 6, "expected ')'"),
    ("1 2", 2, "unexpected trailing input"),
    # Unicode digits and numerics are not digits, and only a word that starts
    # with a letter or "_" is a name.
    ("²", 0, "unexpected character"),
    ("٣", 0, "unexpected character"),
    ("2٣", 1, "unexpected character '٣'"),
    ("½", 0, "unexpected character"),
    ("𝟘", 0, "unexpected character"),
    ("\x00", 0, "unexpected character"),
    ("x٣", 0, "unknown name 'x٣'"),
    ("é", 0, "unknown name 'é'"),
    ("_x", 0, "unknown name '_x'"),
]


@pytest.mark.parametrize(
    "text,position,message",
    _PARSE_ERRORS,
    ids=[f"{text}-{position}" for text, position, _ in _PARSE_ERRORS],
)
def test_parse_errors_carry_positions(text, position, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == position
    assert message in str(err.value)


@pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="this Python converts integers of any length")
@pytest.mark.parametrize("parser", [parse, parse_rational, parse_expr])
@pytest.mark.parametrize(
    "text,position",
    [
        ("1" * (INT_DIGIT_LIMIT + 1), 0),
        ("1/" + "3" * (INT_DIGIT_LIMIT + 1), 2),
        ("1." + "5" * (INT_DIGIT_LIMIT + 1), 0),
    ],
    ids=["integer", "denominator", "decimal"],
)
def test_over_long_literals_are_positioned_parse_errors(parser, text, position):
    with pytest.raises(ParseError) as err:
        parser(text)
    assert err.value.position == position


def test_wide_and_deep_numerals_round_trip():
    wide = (G + 1) ** 200
    assert parse(print_canonical(wide)) == wide
    deepest = "G^(" * MAX_NESTING + "2" + ")" * MAX_NESTING
    value = parse(deepest, MAX_NESTING)
    assert parse(print_canonical(value), MAX_NESTING) == value
    with pytest.raises(ParseError) as err:
        parse("G^(" + deepest + ")", MAX_NESTING + 1)
    assert err.value.position == 3 * MAX_NESTING + 2  # the first "(" past the limit


def test_parse_depth_limit():
    assert parse("G^(G^(G^2))").terms  # the grosspower G^(G^2) nests 2 deep: allowed
    with pytest.raises(DepthExceeded):
        parse("G^(G^(G^(G^2)))")  # grosspower nesting 3 deep
    assert parse("G^(G^(G^(G^2)))", depth_limit=3).terms


def test_parse_rational_literals():
    assert parse_rational("-4") == -4
    assert parse_rational("1/3") == F(1, 3)
    assert parse_rational("2.5") == F(5, 2)
    with pytest.raises(ParseError):
        parse_rational("G")
    with pytest.raises(ParseError):
        parse_rational("1+1")


# -- canonical printing --------------------------------------------------------


def test_print_canonical_mixed_sum():
    value = parse("304.21*G^(16.8*G) - 7.1*G^12 + 41.2") + parse(
        "6.23*G^3 + 13.1 + 15*G^(-6.2*G)"
    )
    assert print_canonical(value) == MIXED_SUM_CANONICAL


def test_print_canonical_zero_and_unit():
    assert print_canonical(ZERO) == "0"
    assert print_canonical(G) == "G"
    assert print_canonical(-G) == "-G"
    assert print_canonical(155 * G) == "155*G"


def test_print_canonical_keeps_unit_digits_off_unit_powers():
    result = divide(ONE, G + 1, -3)
    assert print_canonical(result.quotient) == "1*G^-1 - 1*G^-2 + 1*G^-3"
    assert print_canonical(result.remainder) == "-1*G^-3"


def test_print_canonical_rational_powers():
    assert print_canonical(gt([(1, F(84, 5))])) == "1*G^84/5"
    assert print_canonical(gt([(F(-7, 2), -2)])) == "-7/2*G^-2"


@pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="this Python converts integers of any length")
@pytest.mark.parametrize("printer", [print_canonical, print_decimal])
def test_printers_name_a_digit_too_long_to_print(printer):
    message = f"a digit has more than {INT_DIGIT_LIMIT} decimal digits to print"
    with pytest.raises(ValueError, match=message):
        printer(gn(10**5000))
    with pytest.raises(ValueError, match=message):
        printer(gt([(1, 10**5000)]))  # in a grosspower too


def test_round_trip_on_random_values():
    rng = random.Random(7)
    for _ in range(200):
        value = random_grossone(rng)
        assert parse(print_canonical(value)) == value


# -- decimal printing ------------------------------------------------------------


def test_print_decimal_exact_trims_zeros():
    assert print_decimal(gn(F(543, 10)), 4) == "54.3"
    assert print_decimal(gn(2), 4) == "2"


def test_print_decimal_rounds_half_even_with_marker():
    assert print_decimal(gn(F(1, 3)), 4) == "~0.3333"
    assert print_decimal(gn(F(2, 3)), 4) == "~0.6667"
    assert print_decimal(gn(F(1, 1024)), 4) == "~0.0010"
    # ties round to the even neighbour
    assert print_decimal(gn(F(25, 10000)), 3) == "~0.002"
    assert print_decimal(gn(F(35, 10000)), 3) == "~0.004"


def test_print_decimal_zero():
    assert print_decimal(ZERO, 4) == "0"


def test_print_decimal_negative_digits():
    assert print_decimal(gn(F(-1, 4)), 4) == "-0.25"
    assert print_decimal(gn(F(-1, 3)), 4) == "-~0.3333"
    assert print_decimal(gn(F(-1, 3)) * G, 4) == "-~0.3333*G"


def test_print_decimal_full_numeral():
    value = parse("304.21*G^(16.8*G) - 7.1*G^12 + 41.2")
    assert print_decimal(value, 6) == "304.21*G^(16.8*G) - 7.1*G^12 + 41.2"


def test_print_decimal_requires_positive_digits():
    with pytest.raises(ValueError):
        print_decimal(gn(1), 0)
