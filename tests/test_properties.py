"""Algebraic laws and contracts, property-tested over random numerals."""

from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grossone import (
    ONE,
    ZERO,
    BudgetExceeded,
    compare,
    core,
    divide,
    eval_at,
    event_probability,
    nesting_depth,
    parse,
    parse_expr,
    print_canonical,
)
from support import R, division_cutoff_respected, gn, gt, recomposition_holds

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
plain_powers = small_rationals.map(gn)
deep_powers = st.lists(
    st.tuples(small_rationals, plain_powers), min_size=1, max_size=2
).map(gt)
powers = st.one_of(plain_powers, deep_powers)
gross_numbers = st.lists(st.tuples(rationals, powers), max_size=3).map(gt)
# Divisions between numerals with plain rational grosspowers always reach
# the cutoff: the emitted powers move on a fixed grid (1/L)Z.
rational_powered = st.lists(st.tuples(rationals, plain_powers), max_size=3).map(gt)
cutoffs = st.integers(-5, 0).map(gn)


# -- ring laws ---------------------------------------------------------------


@given(gross_numbers, gross_numbers)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(gross_numbers, gross_numbers, gross_numbers)
def test_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(gross_numbers, gross_numbers)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(gross_numbers, gross_numbers, gross_numbers)
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(gross_numbers, gross_numbers, gross_numbers)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(gross_numbers, gross_numbers)
def test_products_match_the_reference(a, b):
    # With deep_powers the keys are packed digit vectors: a wrong radix or
    # sign convention shows here as a wrong term order or digit.
    assert R.from_package(a * b) == R.mul(R.from_package(a), R.from_package(b))


@given(st.tuples(rationals, powers), gross_numbers)
def test_monomial_product_matches_normalized_product(term, b):
    m = gt([term])
    expected = gt(
        [(tm.digit * tb.digit, tm.power + tb.power) for tm in m.terms for tb in b.terms]
    )
    assert (m * b).terms == expected.terms
    assert (b * m).terms == expected.terms


@given(gross_numbers)
def test_additive_and_multiplicative_identities(a):
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO
    assert a * ZERO == ZERO


# -- normal form ----------------------------------------------------------------


@given(gross_numbers)
def test_normal_form_is_stable_under_rebuilding(a):
    rebuilt = gt([(t.digit, t.power) for t in a.terms])
    assert rebuilt.terms == a.terms


@given(gross_numbers, gross_numbers)
def test_equal_values_have_identical_terms(a, b):
    assert (a == b) == (a.terms == b.terms)
    assert ((a - b) == ZERO) == (a == b)


@given(gross_numbers, rationals)
def test_equal_values_hash_equal(a, q):
    rebuilt = gt([(t.digit, t.power) for t in reversed(a.terms)])
    for other in (rebuilt, a + ZERO, (a + gn(q)) - gn(q)):
        assert other == a and hash(other) == hash(a)
    # Rational-valued numerals hash like the int or Fraction they equal.
    assert gn(q) == q and hash(gn(q)) == hash(q)
    assert gn(q.numerator) == q.numerator and hash(gn(q.numerator)) == hash(q.numerator)
    if a.is_rational():
        assert a == a.finite_part() and hash(a) == hash(a.finite_part())


def test_rational_numerals_find_dict_entries_by_value():
    assert {gn(3): 1}.get(3) == 1
    assert {gn(0): 1}.get(0) == 1
    assert {gn(Fraction(1, 2)): 1}.get(Fraction(1, 2)) == 1
    assert {3: 1}.get(gn(3)) == 1


@given(gross_numbers)
def test_terms_strictly_decrease_and_are_nonzero(a):
    for t in a.terms:
        assert t.digit != 0
    for prev, nxt in zip(a.terms, a.terms[1:]):
        assert compare(prev.power, nxt.power) > 0


# -- order laws -------------------------------------------------------------------


@given(gross_numbers, gross_numbers)
def test_trichotomy(a, b):
    assert [a < b, a == b, a > b].count(True) == 1
    assert compare(a, b) == -compare(b, a)


@given(gross_numbers, gross_numbers, gross_numbers)
def test_compare_is_sign_of_difference(a, b, c):
    # The sign of the difference defines the order; the shared
    # addend c makes both term walks pass over equal leading terms.
    assert compare(a, b) == (a - b).sign()
    assert compare(a + c, b + c) == (a - b).sign()


@given(gross_numbers, gross_numbers, gross_numbers)
def test_transitivity(a, b, c):
    lo, mid, hi = sorted([a, b, c], key=cmp_to_key(compare))
    assert lo <= mid <= hi
    assert lo <= hi


@given(gross_numbers, gross_numbers, gross_numbers)
def test_order_respects_translation(a, b, c):
    if a < b:
        assert a + c < b + c


@given(gross_numbers, gross_numbers, gross_numbers)
def test_order_respects_positive_scaling(a, b, c):
    if a < b and c > ZERO:
        assert a * c < b * c


@given(gross_numbers)
def test_sign_rule_matches_comparison_with_zero(a):
    leading = a.terms[0].digit if a.terms else Fraction(0)
    assert (a > ZERO) == (leading > 0)
    assert a.sign() == compare(a, ZERO)


# -- division ----------------------------------------------------------------------


@given(gross_numbers, gross_numbers, cutoffs)
def test_division_recomposition_and_cutoff(c, b, min_power):
    if b == ZERO:
        return
    # Rational grosspowers in sixths reach the cutoff within 103 quotient
    # terms, 309 term pairs; only nested grosspowers may need more, forever.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "PRODUCT_TERM_BUDGET", 400)
        try:
            result = divide(c, b, min_power)
        except BudgetExceeded:
            assert max(nesting_depth(c), nesting_depth(b)) > 1
            return
    assert recomposition_holds(c, b, result)
    assert division_cutoff_respected(b, min_power, result)


@given(gross_numbers, st.tuples(rationals, powers), cutoffs)
def test_division_by_single_term_is_exact_or_cut(c, divisor_term, min_power):
    digit, power = divisor_term
    if digit == 0:
        return
    b = gt([(digit, power)])
    result = divide(c, b, min_power)
    assert recomposition_holds(c, b, result)
    assert division_cutoff_respected(b, min_power, result)


@given(rational_powered, rational_powered)
def test_exact_division_inverts_multiplication(a, b):
    if b == ZERO:
        return
    product = a * b
    result = divide(product, b, -30)
    assert result.exact == result.remainder.is_zero()
    q, r = result
    assert (q, r) == (result.quotient, result.remainder)
    if result.exact:  # division of a true multiple terminates at the factor
        assert result.quotient == a


# -- parts -------------------------------------------------------------------------


@given(gross_numbers)
def test_part_decomposition_reconstructs(a):
    parts = a.infinite_part() + gn(a.finite_part()) + a.infinitesimal_part()
    assert parts == a


@given(gross_numbers)
def test_parts_classify_by_power_sign(a):
    for t in a.infinite_part().terms:
        assert t.power > ZERO
    for t in a.infinitesimal_part().terms:
        assert t.power < ZERO


# -- notation round trip --------------------------------------------------------------


@given(gross_numbers)
def test_parse_inverts_print_canonical(a):
    text = print_canonical(a)
    assert parse(text) == a
    # The expression grammar reads G^3/2 as (G^3)/2, so only a numeral whose
    # grosspowers are all integers prints text that evaluates back to it.
    powers = [t.power for t in a.terms]
    if all(p.is_rational() and p.finite_part().denominator == 1 for p in powers):
        low = min([0] + [int(p.finite_part()) for p in powers])
        assert eval_at(parse_expr(text), ZERO, low) == (a, True)


@given(gross_numbers, gross_numbers)
def test_print_canonical_is_injective(a, b):
    if a != b:
        assert print_canonical(a) != print_canonical(b)


# -- parser totality --------------------------------------------------------------------

_TOKEN_POOL = ["0", "1", "23", "4/5", "3.5", "+", "-", "*", "/", "^", "(", ")", "G", "x", " ", "²"]
junk_text = st.lists(st.sampled_from(_TOKEN_POOL), max_size=12).map("".join)


@given(junk_text)
def test_numeral_parser_never_crashes(text):
    from grossone import DepthExceeded, ParseError

    try:
        parse(text)
    except (ParseError, DepthExceeded):
        pass  # positioned rejection is the only allowed failure


@given(junk_text)
def test_expression_parser_never_crashes(text):
    from grossone import ParseError, parse_expr

    try:
        parse_expr(text)
    except ParseError:
        pass


# -- probability bounds ----------------------------------------------------------------


@given(
    st.builds(Fraction, st.integers(0, 12), st.integers(1, 12)),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
    st.integers(-2, 2),
)
def test_probability_stays_within_bounds(share, scale, power):
    total = gt([(scale, power)])
    favorable = total * gn(min(share, Fraction(1)))
    p = event_probability(favorable, total)
    assert ZERO <= p <= ONE
    assert (p == ZERO) == (favorable == ZERO)
    if favorable > ZERO:
        assert p > ZERO
