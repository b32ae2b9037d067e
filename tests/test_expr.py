"""Expression parsing into trees, and evaluation at grossone points."""

import random
import time
from fractions import Fraction as F

import pytest

from grossone import (
    G,
    ONE,
    ZERO,
    BudgetExceeded,
    DivisionByZero,
    GrossNumber,
    InexactSum,
    NotIntegerValued,
    ParseError,
    eval_alternating,
    eval_at,
    eval_sum,
    parse,
    parse_expr,
    print_canonical,
)
from grossone.expr import Constant, Grossone, Neg, PowInt, Product, Sum, Variable
from grossone.notation import MAX_NESTING
from support import assert_record_contract, gn, random_rational

H_TEXT = "((x^2 + 2*x)/x - 2)*(34/x)"


def test_parse_expr_structure():
    tree = parse_expr("(x^2 + 2*x)/x")
    two_x = Product((Constant(F(2)), Variable()), (False,))
    assert tree == Product((Sum((PowInt(Variable(), 2), two_x)), Variable()), (True,))


def test_parse_expr_grossone_atom():
    assert parse_expr("G") == Grossone()


def test_constant_power_is_a_powint_node():
    tree = parse_expr("x^4 + 11.5*x^2 + 10^100")
    assert tree == Sum(
        (
            PowInt(Variable(), 4),
            Product((Constant(F("11.5")), PowInt(Variable(), 2)), (False,)),
            PowInt(Constant(F(10)), 100),
        )
    )
    assert eval_at(parse_expr("10^100"), ZERO) == (gn(10**100), True)


def test_constant_subtrees_evaluate_to_rationals():
    cases = [
        ("3/4 + 1/4", F(1)),
        ("2^-3", F(1, 8)),
        ("(2/3)^-4", F(81, 16)),
        ("0^0", F(1)),
        ("0^3", F(0)),
        ("-(2 + 3)*4", F(-20)),
    ]
    for text, value in cases:
        assert eval_at(parse_expr(text), ZERO) == (gn(value), True)


def test_fold_keeps_constant_poles_for_eval():
    tree = parse_expr("1/(2 - 2)")
    assert isinstance(tree, Product) and tree.divides == (True,)
    with pytest.raises(DivisionByZero):
        eval_at(tree, ZERO)
    tree = parse_expr("0^-1")
    assert tree == PowInt(Constant(F(0)), -1)
    with pytest.raises(DivisionByZero):
        eval_at(tree, ZERO)


def test_parse_leaves_a_large_power_to_the_eval_budget():
    # Parsing computes nothing, so the trailing syntax error is found at once.
    start = time.perf_counter()
    with pytest.raises(ParseError):
        parse_expr("7^3000000 +")
    assert time.perf_counter() - start < 0.1
    with pytest.raises(BudgetExceeded):
        eval_at(parse_expr("7^3000000"), ZERO)


def test_precedence_and_associativity():
    two, three, four = Constant(F(2)), Constant(F(3)), Constant(F(4))
    cases = [
        ("2 + 3*4", Sum((two, Product((three, four), (False,)))), 14),
        ("2 - 3 - 4", Sum((two, Neg(three), Neg(four))), -5),
        ("-2^2", Neg(PowInt(two, 2)), -4),  # ^ binds before unary minus
        ("12/3/2", Product((Constant(F(12)), three, two), (True, True)), 2),
        ("12/3*2", Product((Constant(F(12)), three, two), (True, False)), 8),
        ("2 - -3", Sum((two, Neg(Neg(three)))), 5),
    ]
    for text, tree, value in cases:
        assert parse_expr(text) == tree
        assert eval_at(tree, ZERO) == (gn(value), True)
    assert parse_expr("-x^2") == Neg(PowInt(Variable(), 2))


_FUZZ_TOKENS = ["x", "G", "y", "0", "7", "10", "2.5", "3000000", "+", "-", "*", "/", "^", "(", ")"]
_FUZZ_TOKENS += [" ", ".", "²"]  # characters the scanner rejects or skips


def test_parse_expr_raises_only_parse_errors():
    # Any other exception fails the test; a large constant power only parses.
    rng = random.Random(1203)
    parsed = 0
    for _ in range(20_000):
        text = "".join(rng.choice(_FUZZ_TOKENS) for _ in range(rng.randint(0, 12)))
        try:
            parse_expr(text)
        except ParseError:
            continue
        parsed += 1
    assert parsed > 500  # enough strings get past the grammar to build trees


@pytest.mark.parametrize(
    "text",
    ["x^2.5", "x^y", "x^(2)", "x +", "(x", "x x", "y", "x^", "1.5.2", "²"],
)
def test_parse_expr_rejects(text):
    with pytest.raises(ParseError):
        parse_expr(text)


def test_nesting_limit_is_a_positioned_parse_error():
    # A chain is one level however long it is.
    assert eval_at(parse_expr("+".join(["x"] * 5000)), ONE) == (gn(5000), True)
    deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_expr(deepest) == Variable()
    too_deep = [
        ("(" + deepest + ")", MAX_NESTING),  # the first "(" past the limit
        ("-" * (MAX_NESTING + 1) + "x", 0),  # signs apply from the operand outward
        ("(" * MAX_NESTING + "x+x" + ")" * MAX_NESTING, MAX_NESTING + 1),  # the chain's "+"
    ]
    for text, position in too_deep:
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert err.value.position == position


@pytest.mark.parametrize(
    "text,value",
    [
        pytest.param("-" * MAX_NESTING + "x", 1, id="minus-run"),
        pytest.param("(" * MAX_NESTING + "x" + ")" * MAX_NESTING, 1, id="parentheses"),
        pytest.param("(x+" * 100 + "x" + ")" * 100, 101, id="sums"),
        pytest.param("--" + "(1+x*" * 66 + "x" + ")" * 66, 67, id="products-in-sums"),
        pytest.param("(" * 100 + "x" + ")^1" * 100, 1, id="powers"),
    ],
)
def test_deepest_admitted_trees_are_records(text, value):
    # Each tree is at the cap: one more minus sign outside it is refused.
    with pytest.raises(ParseError):
        parse_expr("-" + text)
    tree = parse_expr(text)
    assert_record_contract(tree, parse_expr(text))
    assert repr(tree) == repr(parse_expr(text))
    assert eval_at(tree, ONE) == (gn(value), True)


def test_printed_numeral_of_5000_terms_evaluates_back():
    # A long sum adds pairwise: 0.2 s here, where a left fold of the terms takes 12 s.
    a = GrossNumber.from_terms([((-1) ** i * F(i % 7 + 1, i % 3 + 1), -i) for i in range(5000)])
    start = time.perf_counter()
    assert eval_at(parse_expr(print_canonical(a)), ZERO, -5000) == (a, True)
    assert time.perf_counter() - start < 3


# -- evaluation -------------------------------------------------------------------


@pytest.mark.parametrize(
    "point",
    ["G^-1", "G", "3*G^2", "7*G^-3", "5", "-2/3"],
)
def test_h_is_34_everywhere(point):
    value, exact = eval_at(parse_expr(H_TEXT), parse(point))
    assert value == gn(34)
    assert exact


def test_h_is_34_at_random_rational_points():
    rng = random.Random(71)
    h = parse_expr(H_TEXT)
    checked = 0
    while checked < 25:
        r = random_rational(rng)
        if r == 0:
            continue
        value, exact = eval_at(h, gn(r))
        assert exact and value == gn(34)
        checked += 1


def test_eval_polynomial_at_infinite_point():
    point = parse("3*G^2")
    with_const, exact = eval_at(parse_expr("x^4 + 11.5*x^2 + 10^100"), point)
    without_const, _ = eval_at(parse_expr("x^4 + 11.5*x^2"), point)
    assert exact
    assert with_const == 81 * G**8 + F("103.5") * G**4 + 10**100
    assert with_const - without_const == gn(10**100)


def test_eval_reports_truncation():
    value, exact = eval_at(parse_expr("1/(G + 1)"), ZERO, -3)
    assert not exact
    assert value == G**-1 - G**-2 + G**-3


def test_eval_negative_exponent_matches_division():
    value, exact = eval_at(parse_expr("x^-2"), parse("5*G"))
    assert exact
    assert value == F(1, 25) * G**-2
    value, exact = eval_at(parse_expr("x^-1"), G + 1, -3)
    assert not exact
    assert value == G**-1 - G**-2 + G**-3


def test_eval_pole_raises():
    with pytest.raises(DivisionByZero):
        eval_at(parse_expr("34/x"), ZERO)


def test_eval_matches_rational_arithmetic():
    rng = random.Random(31)
    tree = parse_expr("3*x^4 - 7/2*x^2 + x - 9")
    for _ in range(50):
        r = random_rational(rng)
        expected = 3 * r**4 - F(7, 2) * r**2 + r - 9
        value, exact = eval_at(tree, gn(r))
        assert exact and value == gn(expected)
    assert eval_at(parse_expr("x*x"), 3) == (9, True)


def test_eval_is_referentially_transparent():
    tree = parse_expr(H_TEXT)
    point = parse("3*G^2")
    assert eval_at(tree, point) == eval_at(tree, point)


# -- sums ---------------------------------------------------------------------------


def test_sum_formulas_at_infinite_item_counts():
    ones = parse_expr("x")
    thirties = parse_expr("30*x")
    five_g = 5 * G
    assert eval_sum(ones, five_g) == 5 * G
    assert eval_sum(thirties, five_g) == 150 * G
    assert eval_sum(thirties, five_g) - eval_sum(ones, five_g) == 145 * G
    assert eval_sum(thirties, five_g) - eval_sum(ones, five_g) > ZERO


def test_sum_difference_can_be_negative():
    diff = eval_sum(parse_expr("30*x"), G) - eval_sum(parse_expr("x"), 30 * G + 2)
    assert diff == gn(-2)
    assert diff < ZERO


def test_sum_of_no_items():
    assert eval_sum(parse_expr("x"), ZERO) == ZERO


def test_sum_with_truncated_division_raises():
    assert eval_sum(parse_expr("x/2"), G) == parse("1/2*G")
    with pytest.raises(InexactSum):
        eval_sum(parse_expr("x/(x+1)"), G)


def test_alternating_sum_by_parity():
    assert eval_alternating(G) == ZERO
    assert eval_alternating(gn(2)) == ZERO
    assert eval_alternating(G - 1) == ONE
    assert eval_alternating(gn(7)) == ONE
    assert eval_alternating(3) == ONE


def test_alternating_sum_needs_integer_count():
    with pytest.raises(NotIntegerValued):
        eval_alternating(G**-1)
    with pytest.raises(NotIntegerValued):
        eval_alternating(gn(F(5, 2)))


# -- nodes are immutable records ------------------------------------------------------

# One node of each class, built by position and again by keyword.
_A, _B = Variable(), Constant(F(1, 2))
NODE_PAIRS = [
    (Constant(F(1, 2)), Constant(value=F(1, 2))),
    (Grossone(), Grossone()),
    (Variable(), Variable()),
    (Neg(_A), Neg(operand=_A)),
    (Sum((_A, _B)), Sum(terms=[_A, _B])),  # a list field is stored as a tuple
    (Product((_A, _B), (False,)), Product(factors=(_A, _B), divides=[False])),
    (Product((_A, _B), (True,)), Product(factors=(_A, _B), divides=[True])),
    (PowInt(_A, -3), PowInt(base=_A, exponent=-3)),
]
# A Product is a chain of * and /; its two cases are named for the operator.
NODE_IDS = ["Constant", "Grossone", "Variable", "Neg", "Sum", "Mul", "Div", "PowInt"]


@pytest.mark.parametrize("node,by_keyword", NODE_PAIRS, ids=NODE_IDS)
def test_nodes_are_immutable_records(node, by_keyword):
    assert_record_contract(node, by_keyword)


def test_nodes_equal_only_within_their_class():
    assert Sum((_A, _B)) != Sum((_A, Neg(_B)))
    assert Product((_A, _B), (False,)) != Product((_A, _B), (True,))
    assert Neg(_A) != Sum((_A,))
    assert Grossone() != Variable()
    nodes = [node for node, _ in NODE_PAIRS]
    for i, node in enumerate(nodes):
        assert all(node != other for other in nodes[i + 1 :])
    # Fields compare as values: Fraction(2) == 2.
    assert Constant(F(2)) == Constant(2) and hash(Constant(F(2))) == hash(Constant(2))


def test_product_with_a_missing_operator_is_an_error():
    # divides names the operator before each factor after the first; a
    # hand-built node without one must not drop a factor silently.
    for node in (Product((_A, _B), ()), Product((_A,), (True,))):
        with pytest.raises(ValueError):
            eval_at(node, ONE)


def test_parsed_tree_repr_and_copies():
    tree = parse_expr("G^2 - x/3")
    assert repr(tree) == (
        "Sum(terms=(PowInt(base=Grossone(), exponent=2), Neg(operand=Product(factors="
        "(Variable(), Constant(value=Fraction(3, 1))), divides=(True,)))))"
    )
    assert_record_contract(parse_expr(H_TEXT), parse_expr(H_TEXT))
