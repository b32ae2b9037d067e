"""Arithmetic on grossone numerals: normalization, ring ops, division, parts."""

import random
import time
from decimal import Decimal
from fractions import Fraction as F
from math import comb

import pytest

from grossone import (
    G,
    ONE,
    ZERO,
    BudgetExceeded,
    DepthExceeded,
    DivisionByZero,
    GrossNumber,
    GrossTerm,
    InexactInverse,
    LinearSystem,
    MeasurePiece,
    NotIntegerValued,
    compare,
    core,
    divide,
    eval_alternating,
    eval_at,
    event_probability,
    nesting_depth,
    parse,
    parse_expr,
    points_in_unit_interval,
    points_on_line,
    print_canonical,
    print_decimal,
)
from support import R, gn, gt, random_grossone, random_rational_powered, recomposition_holds


def test_normalize_cancellation_gives_zero():
    assert gt([(1, 0), (-1, 0)]) == ZERO
    assert not gt([(1, 0), (-1, 0)]).terms


def test_normalize_merges_equal_grosspowers():
    assert gt([(2, 1), (3, 1)]) == gt([(5, 1)])


def test_normalize_sorts_by_grosspower():
    infinite_power = gt([(F("16.8"), 1)])
    value = gt([(F("7.1"), 12), (F("304.21"), infinite_power)])
    assert value.terms[0] == GrossTerm(F("304.21"), infinite_power)
    assert value.terms[1] == GrossTerm(F("7.1"), gn(12))


def test_terms_are_digit_power_pairs():
    value = gt([(F("304.21"), gt([(F("16.8"), 1)])), (F("-7.1"), 12)])
    for term in value.terms:
        assert tuple(term) == (term.digit, term.power)
    assert not value.is_rational()
    assert hash(value) == hash(tuple((t.digit, t.power) for t in value.terms))


def test_normalize_idempotent():
    rng = random.Random(11)
    for _ in range(50):
        value = random_grossone(rng)
        rebuilt = gt([(t.digit, t.power) for t in value.terms])
        assert rebuilt == value
        assert rebuilt.terms == value.terms


# -- addition / subtraction ---------------------------------------------------


def mixed_infinite_operands():
    a = gt([(F("304.21"), gt([(F("16.8"), 1)])), (F("-7.1"), 12), (F("41.2"), 0)])
    b = gt([(F("6.23"), 3), (F("13.1"), 0), (15, gt([(F("-6.2"), 1)]))])
    return a, b


def test_add_merges_finite_digits_of_infinite_numbers():
    a, b = mixed_infinite_operands()
    expected = gt(
        [
            (F("304.21"), gt([(F("16.8"), 1)])),
            (F("-7.1"), 12),
            (F("6.23"), 3),
            (F("54.3"), 0),
            (15, gt([(F("-6.2"), 1)])),
        ]
    )
    assert a + b == expected
    assert (a + b).finite_part() == F("54.3")


def test_add_zero_is_identity():
    a, _ = mixed_infinite_operands()
    assert a + ZERO == a
    assert ZERO + a == a


def test_grossone_minus_grossone_is_zero():
    assert G + (-G) == ZERO
    assert G - G == ZERO


def test_subtract_isolates_finite_summand():
    big = 10**100
    lhs = gt([(81, 8), (F("103.5"), 4), (big, 0)])
    rhs = gt([(81, 8), (F("103.5"), 4)])
    assert lhs - rhs == gn(big)


def test_subtract_item_counts():
    assert 30 * G - (30 * G + 2) == gn(-2)


def test_negate_zero():
    assert -ZERO == ZERO


# -- multiplication and powers ------------------------------------------------


def test_grossone_times_inverse_is_one():
    assert G * G**-1 == ONE
    assert G**-1 * G == ONE


def test_difference_of_squares():
    assert (G + 1) * (G - 1) == G**2 - 1


def test_multiply_by_zero():
    a, b = mixed_infinite_operands()
    for value in (a, b, G, ONE):
        assert ZERO * value == ZERO
        assert value * ZERO == ZERO


def test_pow_examples():
    assert (3 * G**2) ** 4 == 81 * G**8
    assert (5 * G**-2) ** 2 == 25 * G**-4
    a, _ = mixed_infinite_operands()
    assert a**0 == ONE
    assert ZERO**0 == ONE


def test_pow_negative_single_term():
    assert (2 * G**3) ** -1 == F(1, 2) * G**-3
    assert (F(3, 4) * G**-2) ** -2 == F(16, 9) * G**4


def test_pow_negative_multi_term_raises():
    with pytest.raises(InexactInverse):
        (G + 1) ** -1


def test_pow_negative_zero_raises():
    with pytest.raises(DivisionByZero):
        ZERO**-1


def test_pow_matches_reference_multiplication():
    rng = random.Random(8)
    for _ in range(60):
        for x in (random_grossone(rng), random_rational_powered(rng)):
            for e in range(7):
                assert R.from_package(x**e) == R.power(R.from_package(x), e)


def test_pow_one_term_inverse_cancels():
    rng = random.Random(9)
    for _ in range(40):
        x = random_grossone(rng, 1)
        if x.terms:
            for e in range(1, 7):
                assert x**-e * x**e == ONE


def test_pow_budgets(monkeypatch):
    # A digit of +-1 costs nothing, whatever the exponent.
    assert (-G**-1) ** 100_000_001 == -(G**-100_000_001)
    monkeypatch.setattr(core, "DIGIT_BIT_BUDGET", 20)
    assert gn(F(1, 2)) ** -20 == 2**20
    with pytest.raises(BudgetExceeded, match="21 bits; limit is 20"):
        gn(F(1, 2)) ** -21
    x = 2 * G + 3
    assert R.from_package(x**8) == R.power(R.from_package(x), 8)  # squares 8-bit digits
    with pytest.raises(BudgetExceeded, match="32 bits; limit is 20"):
        x**16  # the forecast: 2-bit digits times 16, before any squaring
    monkeypatch.setattr(core, "PRODUCT_TERM_BUDGET", 9)
    assert (G + 1) ** 4 == G**4 + 4 * G**3 + 6 * G**2 + 4 * G + 1  # 3x3 pairs
    with pytest.raises(BudgetExceeded, match="10 term pairs"):
        (G + 1) ** 5  # (G+1)^4 times G+1: 5x2 pairs
    monkeypatch.undo()
    # A two-term base with a 3^1000 digit: the forecast refuses it before any product.
    wide = 3**1000 * G + 1
    monkeypatch.setattr(core, "_budgeted_product", lambda a, b: pytest.fail("product formed"))
    with pytest.raises(BudgetExceeded, match="158500000 bits"):
        wide**100_000


def test_divide_digit_budget(monkeypatch):
    # 1/(G + 256) emits digits (-256)^k, which take 8k bits; the budget
    # counts them summed: 0 + 8 + 16 = 24 bits to G^-3.
    monkeypatch.setattr(core, "DIGIT_BIT_BUDGET", 20)
    assert divide(1, G + 256, -2).quotient == G**-1 - 256 * G**-2
    with pytest.raises(BudgetExceeded, match="24 bits; limit is 20"):
        divide(1, G + 256, -3)


def test_divide_counts_digit_bits_as_pow_does(monkeypatch):
    # One measure for every digit: 2^20 takes 20 bits, as a quotient digit
    # and as a power alike.
    monkeypatch.setattr(core, "DIGIT_BIT_BUDGET", 20)
    assert gn(2) ** 20 == 2**20
    result = divide(2**20, 1)
    assert result.quotient == 2**20 and result.exact
    with pytest.raises(BudgetExceeded, match="21 bits; limit is 20"):
        divide(2**21, 1)


# -- comparison ----------------------------------------------------------------


def test_compare_against_zero():
    assert 145 * G > ZERO
    assert G**-1 > ZERO
    a, _ = mixed_infinite_operands()
    assert compare(a, a) == 0


def test_compare_mixed_magnitudes():
    assert gt([(F("16.8"), 1)]) > gn(12)  # infinite beats finite
    assert gn(-2) < ZERO
    assert G > 10**100
    assert G**-1 < F(1, 10**100)
    assert -G < -(10**100)


def test_compare_is_sign_of_difference():
    rng = random.Random(23)
    for _ in range(100):
        a = random_grossone(rng)
        b = random_grossone(rng)
        assert compare(a, b) == (a - b).sign()


# -- division -------------------------------------------------------------------


def test_divide_polynomial_exactly():
    c = G**2 + 3 * G + 2
    b = G + 1
    result = divide(c, b, -10)
    assert result.exact
    assert result.quotient == G + 2
    assert result.remainder == ZERO
    assert recomposition_holds(c, b, result)


def test_divide_one_by_grossone():
    result = divide(ONE, G, -100)
    assert result.exact
    assert result.quotient == G**-1


def test_divide_truncates_at_cutoff():
    result = divide(ONE, G + 1, -3)
    assert not result.exact
    assert result.quotient == G**-1 - G**-2 + G**-3
    assert result.remainder == -(G**-3)
    assert recomposition_holds(ONE, G + 1, result)


def test_divide_by_zero_raises():
    with pytest.raises(DivisionByZero):
        divide(ONE, ZERO, -5)


def test_divide_zero_dividend():
    result = divide(ZERO, G + 1, -5)
    assert result.exact
    assert result.quotient == ZERO and result.remainder == ZERO


_ANY = "GrossNumber, int or Fraction"
_RATIONAL = "int or Fraction"  # a digit, an entry or an extent is never a numeral


@pytest.mark.parametrize(
    "function,args,foreign,accepted",
    [
        (compare, (G, 1.5), "float", _ANY),
        (divide, (G, 1.5), "float", _ANY),
        (divide, (1, G, 0.5), "float", _ANY),
        (GrossNumber.from_rational, (0.1,), "float", _RATIONAL),
        (GrossNumber.from_terms, ([(0.1, 1)],), "float", _RATIONAL),
        (GrossNumber.from_terms, ([(1, 0.1)],), "float", _ANY),
        (LinearSystem, ([[0.1]], [1]), "float", _RATIONAL),
        (MeasurePiece, (0.1, 0), "float", _RATIONAL),
        (eval_at, (parse_expr("x"), 0.1), "float", _ANY),
        (event_probability, (0.1, G), "float", _ANY),
        (eval_alternating, (0.1,), "float", _ANY),
        (GrossNumber.from_rational, ("1/3",), "str", _RATIONAL),
        (LinearSystem, ([[1]], [Decimal("0.1")]), "Decimal", _RATIONAL),
        (GrossNumber.from_rational, (G,), "GrossNumber", _RATIONAL),
        (LinearSystem, ([[G]], [1]), "GrossNumber", _RATIONAL),
        (print_canonical, ("3",), "str", _ANY),
        (print_decimal, (0.5,), "float", _ANY),
        (nesting_depth, (0.5,), "float", _ANY),
    ],
    ids=[
        "compare", "divide-divisor", "divide-cutoff", "from_rational", "from_terms-digit",
        "from_terms-power", "LinearSystem", "MeasurePiece", "eval_at", "event_probability",
        "eval_alternating", "from_rational-str", "LinearSystem-Decimal", "from_rational-numeral",
        "LinearSystem-numeral", "print_canonical", "print_decimal", "nesting_depth",
    ],
)
def test_functions_reject_foreign_operands(function, args, foreign, accepted):
    # As G + 1.5 and G < 1.5 do: every entry point raises a TypeError that
    # names any other operand's type and what its position accepts.
    with pytest.raises(TypeError, match=f"'{foreign}'; expected {accepted}$"):
        function(*args)


def test_printers_and_nesting_depth_take_rationals():
    # As compare(3, 1) and divide(3, 1) do.
    assert print_canonical(3) == "3"
    assert print_decimal(F(1, 4)) == "0.25"
    assert nesting_depth(F(1, 2)) == 0 and nesting_depth(3) == 0


@pytest.mark.parametrize(
    "call,name,out_of_range",
    [
        (lambda n: MeasurePiece(1, n), "codim", -1),
        (lambda n: MeasurePiece(1, 0, n), "width_points", 0),
        (lambda n: MeasurePiece(1, 0, 1, n), "resolution", 0),
        (points_in_unit_interval, "resolution", 0),
        (points_on_line, "resolution", 0),
        (lambda n: print_decimal(F(1, 3), n), "digits", 4301),
        (lambda n: GrossNumber.from_terms([(1, G)], n), "depth_limit", -1),
        (lambda n: parse("G", n), "depth_limit", -1),
    ],
    ids=[
        "codim", "width_points", "resolution", "points_in_unit_interval", "points_on_line",
        "print_decimal", "from_terms", "parse",
    ],
)
def test_counts_take_only_ints_in_range(call, name, out_of_range):
    # core._count is the one check: a bool is not a count, and a digit count
    # of True is no longer mistaken for a digit too long to print.
    for foreign in (True, 2.0, F(2), "2", None):
        with pytest.raises(TypeError, match=f"{name} must be an integer$"):
            call(foreign)
    with pytest.raises(ValueError, match=f"{name} must be (>=|between)"):
        call(out_of_range)


@pytest.mark.parametrize(
    "operation",
    [lambda: G + 0.5, lambda: 0.5 - G, lambda: G * "a", lambda: G < 0.5, lambda: G**0.5],
    ids=["add", "rsub", "mul-str", "lt", "pow"],
)
def test_operators_refuse_foreign_operands(operation):
    # Each operator defers with NotImplemented, so Python raises the TypeError.
    with pytest.raises(TypeError):
        operation()


def test_operator_data_model():
    assert (G == 0.5) is False
    assert 1 - G == -G + 1
    assert bool(ZERO) is False and bool(G) is True
    assert repr(G) == "GrossNumber<G>"


def test_divide_detects_unreachable_cutoff(monkeypatch):
    # G^(16.8*G) / (G+1) emits powers 16.8*G - 1 - m, all above any rational
    # cutoff, so the term-pair budget is the only way out.
    monkeypatch.setattr(core, "PRODUCT_TERM_BUDGET", 100)
    c = gt([(1, gt([(F("16.8"), 1)]))])
    with pytest.raises(BudgetExceeded, match="cutoff"):
        divide(c, G + 1, -8)


def test_term_budget_ends_a_division_with_a_far_cutoff(monkeypatch):
    # Rational grosspowers reach the cutoff G^-100 after 100 quotient terms,
    # 200 term pairs of quotient * (G+1); the budget ends the division first.
    monkeypatch.setattr(core, "PRODUCT_TERM_BUDGET", 100)
    with pytest.raises(BudgetExceeded, match="cutoff"):
        divide(1, G + 1, -100)
    assert len(divide(1, G + 1, -50).quotient.terms) == 50


def test_division_work_grows_with_quotient_times_divisor():
    # A step costs the divisor's terms, so a 1000-term divisor meets the
    # term-pair budget after 10 quotient terms ...
    wide = gt([(1, 1)] + [(i % 7 + 2, -i) for i in range(1000)])  # G + sum(...*G^-i)
    with pytest.raises(BudgetExceeded, match="cutoff"):
        divide(1, wide, -1000)
    # ... and a remainder term far below the leading one is not rewalked
    # at every step: 1000 dividend terms, 2001 quotient terms.
    dividend, divisor = gt([(1, -i) for i in range(1000)]), 1 + G**-1000
    q, r = divide(dividend, divisor, -2000)
    laurent = [R.to_laurent(R.from_package(x)) for x in (dividend, divisor)]
    expected = tuple(R.from_laurent(part) for part in R.laurent_divide(*laurent, -2000)[:2])
    assert (R.from_package(q), R.from_package(r)) == expected
    assert len(q.terms) == 2001


# -- products and divisions on power keys ---------------------------------------

# Rational grosspowers in halves, thirds and fifths, 0 included.
_KERNEL_POWERS = sorted({F(k, d) for d in (2, 3, 5) for k in range(-15, 16)})


def kernel_operand(rng: random.Random, max_terms: int) -> GrossNumber:
    powers = rng.sample(_KERNEL_POWERS, rng.randint(1, max_terms))
    return gt([(F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)), p) for p in powers])


# G**G: multiplying by it shifts every grosspower by G.
GG = GrossNumber.from_terms([(1, G)])
# G**(G**G), a grosspower that nests two levels.
GGG = GrossNumber.from_terms([(1, GG)])


def laurent(x: GrossNumber) -> dict:
    return R.to_laurent(R.from_package(x))


def assert_is_reference(x: GrossNumber, poly: dict) -> None:
    """``x`` is the reference Laurent polynomial term for term, and equal and
    hashing equal to the numeral from_terms builds from it."""
    assert R.from_package(x) == R.from_laurent(poly)
    twin = gt([(d, p) for p, d in poly.items()])
    assert x.terms == twin.terms and x == twin and hash(x) == hash(twin)


def test_scaled_products_and_divisions_match_the_reference():
    rng = random.Random(17)
    root, third = gt([(1, F(1, 2))]), gt([(1, F(-1, 3))])
    cases = [(G + 1, G - 1), (root + third, root - third)]  # products that cancel
    cases += [(kernel_operand(rng, 60), kernel_operand(rng, 60)) for _ in range(10)]
    for a, b in cases:
        assert_is_reference(a * b, R.laurent_mul(laurent(a), laurent(b)))
        assert (a * GG) * b == (a * b) * GG  # packed keys against scaled ones
    for _ in range(15):
        a, expected = kernel_operand(rng, 10), {F(0): F(1)}
        for e in range(5):
            assert_is_reference(a**e, expected)
            expected = R.laurent_mul(expected, laurent(a))
    for _ in range(30):
        c, b = kernel_operand(rng, 60), kernel_operand(rng, 4)
        cutoff = F(rng.randint(-12, 0), rng.choice((1, 1, 2, 3, 7)))
        q, r = divide(c, b, cutoff)
        expected_q, expected_r, _ = R.laurent_divide(laurent(c), laurent(b), cutoff)
        assert_is_reference(q, expected_q)
        assert_is_reference(r, expected_r)
    for _ in range(25):
        # A nested grosspower in one operand packs every power's digit vector.
        x, y = kernel_operand(rng, 8), random_grossone(rng) + gt([(2, G)])
        assert R.from_package(x * y) == R.mul(R.from_package(x), R.from_package(y))


def nested_operand(rng: random.Random, max_terms: int, depth: int = 3) -> GrossNumber:
    """Grosspowers nesting up to ``depth`` levels, whose digits include
    +-10**30 and negatives, so packed digits fill and borrow across the radix."""

    def power(level: int) -> GrossNumber:
        if not level or rng.random() < 0.3:
            return gn(F(rng.randint(-4, 4), rng.choice((1, 2, 3))))
        digits = (rng.randint(-9, 9) or 1, rng.choice((-1, 1)) * 10**30 + rng.randint(-3, 3))
        return gt([(F(rng.choice(digits), rng.randint(1, 3)), power(level - 1))
                   for _ in range(rng.randint(1, 3))], depth_limit=3)

    return gt([(F(rng.randint(-9, 9) or 1, rng.randint(1, 4)), power(depth))
               for _ in range(rng.randint(1, max_terms))], depth_limit=3)


def test_packed_power_keys_match_the_reference(monkeypatch):
    rng = random.Random(23)
    for _ in range(30):
        a, b = nested_operand(rng, 6), nested_operand(rng, 4)
        assert R.from_package(a * b) == R.mul(R.from_package(a), R.from_package(b))
        # Exact at a cutoff at or below a's lowest power: the quotient is a.
        assert divide(a * b, b, min(a.terms[-1].power, gn(-10**12))) == (a, ZERO)
    for _ in range(10):
        a, e = nested_operand(rng, 3), rng.randint(0, 3)
        assert R.from_package(a**e) == R.power(R.from_package(a), e)
    monkeypatch.setattr(core, "PRODUCT_TERM_BUDGET", 40)
    # Step m's quotient power is -G - m: its digit at G^0 outgrows every input
    # digit, and the budget, not a wrapped key, ends the division.
    with pytest.raises(BudgetExceeded, match="needs 42 term pairs"):
        divide(1, gt([(1, G), (1, G - 1)]), -2 * G)
    refused = 0
    for _ in range(40):
        c, b = nested_operand(rng, 6), nested_operand(rng, 3)
        cutoff = rng.choice((gn(rng.randint(-6, 0)), rng.randint(1, 3) * -G + rng.randint(-3, 3)))
        try:
            q, r = divide(c, b, cutoff)
        except BudgetExceeded:
            refused += 1
            continue
        expected = R.divide(R.from_package(c), R.from_package(b), R.from_package(cutoff))
        assert (R.from_package(q), R.from_package(r)) == expected[:2]
    assert 0 < refused < 40


def test_divisions_agree_on_scaled_and_packed_power_keys(monkeypatch):
    rng = random.Random(19)
    monkeypatch.setattr(core, "PRODUCT_TERM_BUDGET", 40)

    def outcome(c, b, cutoff):
        try:
            return divide(c, b, cutoff)
        except BudgetExceeded as error:
            return str(error)

    # 1/(G+1) down to G^-20 forms 20 * 2 term pairs, the most the budget allows;
    # -10**12 is out of reach.
    cases = [(ONE, G + 1, F(-20)), (ONE, G + 1, F(-21)), (ONE, G + 1, F(-10**12))]
    cases += [
        (kernel_operand(rng, 12), kernel_operand(rng, 4), F(rng.randint(-30, 0), rng.randint(1, 3)))
        for _ in range(60)
    ]
    results = [outcome(*case) for case in cases]
    assert len(results[0].quotient.terms) == 20
    assert results[1] == "division short of its cutoff needs 42 term pairs; limit is 40"
    assert results[2] == results[1]
    assert sum(isinstance(result, str) for result in results) >= 10
    for (c, b, cutoff), result in zip(cases, results):
        if not isinstance(result, str):
            expected_q, expected_r, _ = R.laurent_divide(laurent(c), laurent(b), cutoff)
            assert_is_reference(result.quotient, expected_q)
            assert_is_reference(result.remainder, expected_r)
            result = (result.quotient * GG, result.remainder * GG)
        # Shifted by G**G every power nests; shifted by G**(G**G) as well, the
        # powers nest two levels.  Either way the keys are packed digit vectors
        # and the cutoff nests too.
        assert outcome(c * GG, b, cutoff + G) == result
        if not isinstance(result, str):
            result = (result[0] * GGG, result[1] * GGG)
        assert outcome(c * GG * GGG, b, cutoff + G + GG) == result


# -- quotient digits -------------------------------------------------------------


def reference_division(c: GrossNumber, b: GrossNumber, cutoff: GrossNumber) -> tuple:
    """support.R's quotient and remainder: laurent_divide while every grosspower
    is rational, else the nested reference divide."""
    if nesting_depth(c) <= 1 and nesting_depth(b) <= 1 and cutoff.is_rational():
        parts = R.laurent_divide(laurent(c), laurent(b), cutoff.finite_part())[:2]
        return tuple(R.from_laurent(part) for part in parts)
    return R.divide(R.from_package(c), R.from_package(b), R.from_package(cutoff))[:2]


def shared_factor_divisor(rng: random.Random) -> GrossNumber:
    """2-4 terms on integer steps below a rational lead power, the lead of either
    sign; numerators share 2s and 3s, over denominators 1 to 5."""
    top = F(rng.randint(-4, 4), rng.choice((1, 2)))
    return gt([(F(rng.choice((-1, 1)) * rng.choice((1, 2, 3, 4, 6, 9, 12)), rng.randint(1, 5)),
                top - j) for j in range(rng.randint(2, 4))])


def test_quotient_digits_match_the_reference(monkeypatch):
    rng = random.Random(29)
    cases = [
        (ONE, 9 * G + 9 + G**-5, gn(-40)),  # the lead shares its factor with the tail
        (3 * G**2 + 2, 6 * G + 4 + 3 * G**-1, gn(-30)),
        (G - F(1, 3), F(-3, 4) * G + F(5, 6) + gt([(F(7, 10), F(-1, 2))]), gn(F(-25, 2))),
    ]
    cases += [(kernel_operand(rng, 12), shared_factor_divisor(rng),
               gn(F(rng.randint(-25, 0), rng.choice((1, 2, 3))))) for _ in range(60)]
    for p in rng.sample(_KERNEL_POWERS, 20):
        # One-term divisors, the cutoff on the quotient power of a dividend term.
        c, b = kernel_operand(rng, 12), gt([(F(rng.choice((-1, 1)) * rng.randint(1, 12), 5), p)])
        cases.append((c, b, rng.choice(c.terms).power - p))
    truncated = refused = 0
    for i, (c, b, cutoff) in enumerate(cases):
        budget = 60 if i % 4 == 3 else 10_000
        monkeypatch.setattr(core, "PRODUCT_TERM_BUDGET", budget)
        expected = reference_division(c, b, cutoff)
        steps = budget // len(b.terms) + 1  # the first quotient term past the budget
        if len(expected[0]) >= steps:
            refused += 1
            with pytest.raises(BudgetExceeded) as error:
                divide(c, b, cutoff)
            assert str(error.value) == (f"division short of its cutoff needs "
                                        f"{steps * len(b.terms)} term pairs; limit is {budget}")
            continue
        q, r = divide(c, b, cutoff)
        assert (R.from_package(q), R.from_package(r)) == expected
        if len(b.terms) == 1:
            assert r.terms == c.terms[len(q.terms):]
            truncated += bool(q.terms and r.terms)
    assert truncated >= 5 and refused >= 5
    monkeypatch.undo()
    for _ in range(20):
        # Exact: every remainder term cancels, however many digits reached it.
        a, b = kernel_operand(rng, 6), shared_factor_divisor(rng)
        assert divide(a * b, b, a.terms[-1].power) == (a, ZERO)


def test_nested_quotient_digits_match_the_reference(monkeypatch):
    # Nested grosspowers and nested cutoffs; a patched budget refuses some.
    rng = random.Random(31)
    monkeypatch.setattr(core, "PRODUCT_TERM_BUDGET", 40)
    refused = 0
    for _ in range(40):
        c, b = nested_operand(rng, 5), nested_operand(rng, 3, depth=2)
        cutoff = rng.choice((gn(rng.randint(-6, 0)), rng.randint(1, 3) * -G + rng.randint(-3, 3)))
        try:
            q, r = divide(c, b, cutoff)
        except BudgetExceeded as error:
            steps = 40 // len(b.terms) + 1
            assert str(error) == (f"division short of its cutoff needs "
                                  f"{steps * len(b.terms)} term pairs; limit is 40")
            refused += 1
            continue
        assert (R.from_package(q), R.from_package(r)) == reference_division(c, b, cutoff)
    assert 0 < refused < 40


def test_wide_quotient_digits_match_the_reference():
    # 95,000-bit digits: remainder terms reached by one digit, then by two.
    c = gn(F(3, 2) ** 60000)
    for b in (G + 1, 2 * G + 1 + G**-1, 6 * G - 4 + F(9, 2) * G**-1):
        q, r = divide(c, b, -4)
        assert len(q.terms) == 4
        assert (R.from_package(q), R.from_package(r)) == reference_division(c, b, gn(-4))


@pytest.mark.parametrize(
    "c,b,cutoff,bits",
    [
        (1, 3**600 * (G + 1), -5000, 2097906),
        (3**1800, 3**600 * G + 3**1200, -3000, 2101688),
        (1, 9 * G + 9 + G**-5, -3000, 2098601),
        # A 1,268,000-bit digit over a two-term divisor: the next digit is a
        # product of reduced Fractions, not a gcd of two such ints.
        (F(3, 2) ** 800000, G + 1, -2, 2535942),
    ],
)
def test_wide_digit_divisions_end_on_the_bit_budget(c, b, cutoff, bits):
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as error:
        divide(c, b, cutoff)
    assert time.perf_counter() - start < 1
    assert str(error.value) == f"digits need about {bits} bits; limit is 2097152"


def test_squaring_a_201_term_numeral_is_fast():
    wide = (G + 1) ** 200
    start = time.perf_counter()
    square = wide * wide
    assert time.perf_counter() - start < 0.25
    assert [t.digit for t in square.terms] == [comb(400, k) for k in range(401)]


# -- part extraction -------------------------------------------------------------


def classification_example():
    return gt(
        [
            (F("12.4"), gt([(F("34.21"), 1)])),
            (F("-20.64"), 15),
            (F("0.8"), 0),
            (F("0.71"), -3),
            (F("32.1"), gt([(F("-6.5"), 1)])),
        ]
    )


def test_parts_of_mixed_number():
    value = classification_example()
    assert value.finite_part() == F("0.8")
    assert len(value.infinite_part().terms) == 2
    assert len(value.infinitesimal_part().terms) == 2
    rebuilt = value.infinite_part() + gn(value.finite_part()) + value.infinitesimal_part()
    assert rebuilt == value


def test_finite_part_examples():
    assert (gn(2) + G**-1).finite_part() == 2
    assert ZERO.finite_part() == 0
    assert G.finite_part() == 0


# -- parity ----------------------------------------------------------------------


def test_grossone_is_even():
    assert G.is_even()


def test_grossone_minus_one_is_odd():
    assert not (G - 1).is_even()


def test_parity_follows_finite_part():
    assert (30 * G + 2).is_even()
    assert not (30 * G + 3).is_even()
    assert ZERO.is_even()
    assert (G**2 + G).is_even()


def test_parity_rejects_non_integer_values():
    with pytest.raises(NotIntegerValued):
        gn(F(1, 2)).is_even()
    with pytest.raises(NotIntegerValued):
        (G**-1).is_even()
    with pytest.raises(NotIntegerValued):
        gt([(1, F(3, 2))]).is_even()


# -- depth limit ------------------------------------------------------------------


def test_nesting_depth_values():
    assert nesting_depth(ZERO) == 0
    assert nesting_depth(gn(F("34.21"))) == 0
    assert nesting_depth(G) == 1
    assert nesting_depth(gt([(F("34.21"), 1)])) == 1
    assert nesting_depth(gt([(1, gt([(F("16.8"), 1)]))])) == 2


def test_depth_limit_enforced():
    depth2 = gt([(1, gt([(F("16.8"), 1)]))])  # G^(16.8*G), legal grosspower at D=2
    assert gt([(1, depth2)]).terms  # its use as a grosspower still nests only 2 deep
    depth3 = gt([(1, depth2)])
    with pytest.raises(DepthExceeded):
        gt([(1, depth3)])  # a grosspower nesting 3 levels breaks the default limit
    deep = gt([(1, depth3)], depth_limit=3)
    assert nesting_depth(deep) == 4


def test_depth_limit_allows_single_level_grosspowers():
    value = classification_example()
    assert nesting_depth(value) == 2  # grosspowers themselves stay at depth 1
