"""Pivot-free elimination with infinitesimal injections vs the exact oracle."""

import random
import time
from fractions import Fraction as F

import pytest

from grossone import (
    G,
    linsolve,
    SolveReport,
    ZERO,
    LinearSystem,
    SingularSystem,
    divide,
    solve_exact_oracle,
    solve_grossone,
)
from grossone.errors import BudgetExceeded, InexactSolution
from support import (
    LOSSY_8X8,
    assert_record_contract,
    gn,
    gt,
    random_system_with_zero_minors,
    reference_residual_lead,
    reference_solve,
)

ZERO_PIVOT_2X2 = LinearSystem.from_rows([[0, 1], [2, 2]], [2, 2])
DOUBLE_ZERO_3X3 = LinearSystem.from_rows([[0, 0, 1], [2, 0, -1], [1, 2, 3]], [1, 3, 1])


def assert_residual_infinitesimal(report):
    lead = report.residual_leading_power
    assert lead is None or lead < ZERO


def test_two_by_two_zero_pivot_system():
    report = solve_grossone(ZERO_PIVOT_2X2)
    assert report.finite_solution == (F(-1), F(2))
    assert report.injected_pivots == 1
    assert report.injected_rows == (0,)
    assert report.solution[0] == gn(-1)  # exact, no infinitesimal tail
    assert report.solution[1] == gn(2) + G**-1
    assert report.residual_leading_power == gn(-1)


def test_three_by_three_double_zero_pivot_system():
    report = solve_grossone(DOUBLE_ZERO_3X3)
    assert report.finite_solution == (F(2), F(-2), F(1))
    assert report.injected_pivots == 2
    assert report.injected_rows == (0, 1)
    assert report.solution[0] == gn(2)
    assert report.solution[1] == gn(-2)
    assert report.solution[2] == gn(1) - 2 * G**-1
    assert_residual_infinitesimal(report)


def test_identity_system_passes_through():
    system = LinearSystem.from_rows([[1, 0], [0, 1]], [5, 7])
    report = solve_grossone(system)
    assert report.finite_solution == (F(5), F(7))
    assert report.injected_pivots == 0
    assert report.solution == (gn(5), gn(7))
    assert report.residual_leading_power is None


def test_no_injection_path_is_exact():
    system = LinearSystem.from_rows([[2, 1, 1], [1, 3, 2], [1, 0, 0]], [4, 5, 6])
    report = solve_grossone(system)
    assert report.injected_pivots == 0
    assert report.residual_leading_power is None
    assert report.finite_solution == solve_exact_oracle(system)
    assert all(x.is_rational() for x in report.solution)


def test_exact_tail_of_2x2_solution():
    # Untruncated, the components are -1 + 1/(1-G) and 2 - 1/(1-G); check by
    # recomposition.  x2 solves (2-2G) x = 2-4G, and truncation at G**-1
    # leaves exactly the remainder below:
    division = divide(gn(2) - 4 * G, gn(2) - 2 * G, -1)
    assert division.quotient == gn(2) + G**-1
    assert division.remainder == -2 * G**-1
    assert division.quotient * (gn(2) - 2 * G) + division.remainder == gn(2) - 4 * G

    report = solve_grossone(ZERO_PIVOT_2X2)
    one_minus_g = gn(1) - G
    # (2 - 1/(1-G)) * (1-G) = 1 - 2G; the truncated component reproduces it
    # up to the dropped tail re-amplified by (1-G), which is exactly G**-1:
    assert report.solution[1] * one_minus_g == gn(1) - 2 * G + G**-1
    # (-1 + 1/(1-G)) * (1-G) = G; the truncated x1 = -1 differs by exactly -1:
    assert report.solution[0] * one_minus_g == gn(-1) + G
    for component, exact_product in ((1, gn(1) - 2 * G), (0, G)):
        error = report.solution[component] * one_minus_g - exact_product
        assert error.infinite_part() == ZERO  # amplified error stays below G


def test_oracle_on_reference_systems():
    assert solve_exact_oracle(ZERO_PIVOT_2X2) == (F(-1), F(2))
    assert solve_exact_oracle(DOUBLE_ZERO_3X3) == (F(2), F(-2), F(1))
    identity = LinearSystem.from_rows([[1, 0], [0, 1]], [5, 7])
    assert solve_exact_oracle(identity) == (F(5), F(7))


def test_singular_system_detected():
    singular = LinearSystem.from_rows([[1, 1], [1, 1]], [1, 2])
    with pytest.raises(SingularSystem):
        solve_grossone(singular)
    with pytest.raises(SingularSystem):
        solve_exact_oracle(singular)


def test_finite_residual_raises_instead_of_a_wrong_solution():
    system = LinearSystem.from_rows(*LOSSY_8X8)
    with pytest.raises(InexactSolution):
        solve_grossone(system)
    assert len(solve_exact_oracle(system)) == 8


def test_finite_solution_is_finite_parts():
    report = solve_grossone(DOUBLE_ZERO_3X3)
    assert report.finite_solution == tuple(x.finite_part() for x in report.solution)


def test_random_systems_match_oracle():
    rng = random.Random(101)
    for case in range(30):
        n = rng.randint(2, 6)
        zero_minors = case % 3
        system = random_system_with_zero_minors(rng, n, zero_minors)
        report = solve_grossone(system)
        assert report.finite_solution == solve_exact_oracle(system)
        assert_residual_infinitesimal(report)


def test_five_by_five_matches_oracle():
    rng = random.Random(55)
    system = random_system_with_zero_minors(rng, 5, 1)
    report = solve_grossone(system)
    assert report.finite_solution == solve_exact_oracle(system)


def test_from_rows_validation():
    with pytest.raises(ValueError):
        LinearSystem.from_rows([[1, 2]], [1])
    with pytest.raises(ValueError):
        LinearSystem.from_rows([[1, 2], [3, 4]], [1])
    with pytest.raises(ValueError):
        LinearSystem.from_rows([], [])
    # The constructor runs the same checks and conversions.
    for a, b in [(((1, 2),), (3,)), (((2,),), (4, 9)), ((), ())]:
        with pytest.raises(ValueError):
            LinearSystem(a, b)
    system = LinearSystem([[1, 2], [3, 4]], [1, 2])
    assert system.a == ((F(1), F(2)), (F(3), F(4))) and system.b == (F(1), F(2))
    assert hash(system) == hash(LinearSystem.from_rows([[1, 2], [3, 4]], [1, 2]))


def test_system_and_report_are_immutable_records():
    a, b = ((F(0), F(1)), (F(2), F(2))), (F(2), F(2))
    assert LinearSystem(a, b) == ZERO_PIVOT_2X2 == LinearSystem(a=a, b=b)
    assert_record_contract(ZERO_PIVOT_2X2, LinearSystem(b=b, a=a))
    assert LinearSystem(a, b) != (a, b)  # a record, not a tuple
    report = solve_grossone(ZERO_PIVOT_2X2)
    assert_record_contract(report, solve_grossone(ZERO_PIVOT_2X2))
    fields = (report.solution, report.finite_solution, 1, (0,), report.residual_leading_power)
    assert SolveReport(*fields) == report
    assert SolveReport(**dict(zip(SolveReport.__match_args__, fields))) == report
    assert report != solve_grossone(DOUBLE_ZERO_3X3)


def outcome(solve, system):
    """The report, or the error's type and text."""
    try:
        return solve(system)
    except (SingularSystem, InexactSolution) as error:
        return type(error), str(error)


def _zero_triangle_system(rng, n, z):
    """Entries in -2..2, with a zero top-left z-by-z upper triangle: z zero pivots or more."""
    a = [[rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(n)] for _ in range(n)]
    for i in range(z):
        a[i][i:z] = [0] * (z - i)
    return LinearSystem.from_rows(a, [rng.randint(-5, 5) for _ in range(n)])


def test_whole_report_matches_the_reference_procedure():
    # Every field, the solutions' infinitesimal tails included, and each
    # error's type and text: the benchmark's check reads only finite parts.
    # Last come the sizes that set solve-inject's p90: n = 12 with 1-3 zero pivots,
    # n = 16 with 1-2, and an n = 16 system whose leading minor of size 11 vanishes.
    rng = random.Random(25)
    systems = [LinearSystem.from_rows(*LOSSY_8X8)] + [
        random_system_with_zero_minors(rng, n, z)
        for n in range(2, 11) for z in range(3) for _ in range(2)
    ]
    sizes = ((12, 1), (12, 2), (12, 3), (16, 1), (16, 2))
    systems += [_zero_triangle_system(rng, n, z) for n, z in sizes]
    a = [[_nonzero_rational(rng, 7) for _ in range(16)] for _ in range(16)]
    a[10][:11] = [-3 * x for x in a[rng.randrange(10)][:11]]
    systems.append(LinearSystem.from_rows(a, [_nonzero_rational(rng, 7) for _ in a]))
    outcomes = [outcome(solve_grossone, system) for system in systems]
    expected = [outcome(reference_solve, system) for system in systems]
    assert outcomes == expected and list(map(repr, outcomes)) == list(map(repr, expected))
    assert outcomes[0][0] is InexactSolution
    assert any(report.residual_leading_power is not None for report in outcomes[1:])
    assert all(report.injected_pivots >= z for report, (_, z) in zip(outcomes[-6:], sizes))
    assert outcomes[-1].injected_rows[0] == 10


# In the last column the one entry right of the pivot -2 - 1/4*G^-2 is
# -1/2*G^-2, below G^-z (z = 1): the inverse and that quotient are cut to zero.
ALL_CUT_4X4 = ([[0, 1, -1, -1], [-1, 1, 0, 1], [-1, -1, 0, 0], [0, 1, 1, 0]], [1, 1, 1, -1])


def test_report_matches_the_reference_on_every_quotient_path(monkeypatch):
    # Each column divides -1 by its pivot once and cuts its products with the
    # pivot row below G**-z; watch both, to show that the sweep reaches G**-1
    # pivots (an inverse with positive powers), pivot rows whose entries differ
    # in top power, and a row whose quotients are all cut to zero.
    columns = []
    divide, sub_mul = linsolve.divide, linsolve._sub_mul

    def watched_divide(c, b, min_power):
        result = divide(c, b, min_power)
        columns.append((result.quotient, []))
        return result

    def watched_sub_mul(a, f, b, cut=None):
        out = sub_mul(a, f, b, cut)
        if cut is not None and f[1]:
            columns[-1][1].append((f[0] if type(f[1]) is F else max(f[0]), bool(out[1])))
        return out

    monkeypatch.setattr(linsolve, "divide", watched_divide)
    monkeypatch.setattr(linsolve, "_sub_mul", watched_sub_mul)
    rng = random.Random(26)
    systems = [LinearSystem.from_rows(*ALL_CUT_4X4)] + [
        _zero_triangle_system(rng, n, z) for n in range(2, 15) for z in range(min(n, 4))
    ]
    outcomes = [outcome(solve_grossone, system) for system in systems]
    assert outcomes == [outcome(reference_solve, system) for system in systems]
    assert any(type(report) is tuple for report in outcomes)
    assert any(report.injected_pivots == 3 for report in outcomes if type(report) is SolveReport)
    assert any(q.terms and q.terms[0].power > 0 for q, _ in columns)
    assert any(len({top for top, _ in row}) > 1 for _, row in columns)
    assert any(row and not any(kept for _, kept in row) for _, row in columns)


def test_a_cut_product_is_reduced_again():
    # (2 + 4*G^-1 + 3*G^-5)/6 cut below G^-1 leaves content 2 over 6: the entry
    # keeps its denominator coprime to its numerators.
    entry = ({0: 2, -1: 4, -5: 3}, 1)
    assert linsolve._sub_mul((0, F(0)), entry, (0, F(-1, 6)), -1) == ({0: 1, -1: 2}, 3)
    assert linsolve._sub_mul((0, F(0)), entry, (0, F(-1, 6)), 1) == (0, F(0))


@pytest.fixture
def divide_calls(monkeypatch):
    """The number of linsolve.divide calls so far, as a one-item list."""
    calls, divide = [0], linsolve.divide

    def counted(*args):
        calls[0] += 1
        return divide(*args)

    monkeypatch.setattr(linsolve, "divide", counted)
    return calls


def test_budget_reached_through_the_solver(divide_calls):
    # The pivot-row quotient 3**1400000 / 1 is a product with the column's one
    # divide(), -1/1: its digit bits, 2218948 + 0, are checked before it is formed.
    system = LinearSystem.from_rows([[1, 3**1400000], [1, 1]], [1, 2])
    with pytest.raises(BudgetExceeded) as error:
        solve_grossone(system)
    assert str(error.value) == "digits need about 2218948 bits; limit is 2097152"
    assert divide_calls[0] > 0


def test_budget_reached_through_a_pivot_other_than_one(divide_calls):
    # The inverse -1/3 adds its 2 bits to the entry's, and the product is refused
    # before it is formed.
    system = LinearSystem.from_rows([[3, 3**1400000], [1, 1]], [1, 2])
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="bits; limit is 2097152"):
        solve_grossone(system)
    assert time.perf_counter() - start < 2
    assert divide_calls[0] > 0


def test_budget_reached_through_a_wide_row_scale(divide_calls):
    # Scaled to ints, the first row is [1, 2 | 1]: narrow entries, but its scale
    # 3**1400000 is as wide as the inverse -3**1400000 of the pivot, which the
    # column's divide() refuses, so the fraction-free path must not answer.
    wide = F(1, 3**1400000)
    system = LinearSystem.from_rows([[wide, 2 * wide], [1, 1]], [wide, 3])
    with pytest.raises(BudgetExceeded) as error:
        solve_grossone(system)
    assert str(error.value) == "digits need about 2218948 bits; limit is 2097152"
    assert divide_calls[0] == 1


def test_one_wide_digit_solves_without_reducing_it_again(divide_calls):
    # A 475,000-bit entry: products and differences pair it with a narrow
    # denominator, as Fraction does, and a one-term digit is built once.
    system = LinearSystem.from_rows([[2, 1], [1, F(3, 2) ** 300000]], [1, 2])
    start = time.perf_counter()
    report = solve_grossone(system)
    assert time.perf_counter() - start < 1
    exact = solve_exact_oracle(system)
    assert report == SolveReport(tuple(map(gn, exact)), exact, 0, (), None)
    assert divide_calls[0] > 0


def test_wide_digit_residual_is_read_on_ints(divide_calls):
    # (3/2)**700000 has 1.1M bits: A*x - b is formed from integer products and
    # compared with zero, with no gcd of two wide digits.
    system = LinearSystem.from_rows([[2, 1], [1, F(3, 2) ** 700000]], [1, 2])
    start = time.perf_counter()
    report = solve_grossone(system)
    assert time.perf_counter() - start < 0.5
    exact = solve_exact_oracle(system)
    assert report == SolveReport(tuple(map(gn, exact)), exact, 0, (), None)
    assert divide_calls[0] > 0


def test_residual_leading_power_matches_the_reference():
    # The residual as the solver reports it: zero, at G^-1, and at G^0 (an error).
    zero = LinearSystem.from_rows([[0, -1], [2, 1]], [-2, 2])
    systems = [zero, ZERO_PIVOT_2X2, LinearSystem.from_rows(*LOSSY_8X8)]
    outcomes = [outcome(solve_grossone, system) for system in systems]
    expected = [outcome(reference_solve, system) for system in systems]
    assert outcomes == expected and list(map(repr, outcomes)) == list(map(repr, expected))
    assert [report.injected_rows for report in outcomes[:2]] == [(0,), (0,)]
    assert [report.residual_leading_power for report in outcomes[:2]] == [None, gn(-1)]
    assert outcomes[2] == (InexactSolution, "residual has a term at grosspower 0; "
                           "the finite solution does not solve the system")


def test_residual_read_top_down_below_g_minus_one():
    # No solve leaves a residual led below G^-1: if every injected component of
    # the exact solution is 0, the procedure returns that solution exactly, and
    # else each injected row leads at G^-1.  So deeper leads are read from
    # solutions perturbed by hand, against the reference's residual: A*v != 0
    # leads at v's top power.
    system = LinearSystem.from_rows([[F(1, 2), 3, 0], [2, F(-1, 3), 1], [0, 5, F(7, 4)]],
                                    [1, F(2, 5), -3])
    exact = solve_exact_oracle(system)
    for tails, lead in [({}, None), ({-2: (1, 0, 0)}, -2), ({-4: (6, -1, 0)}, -4),
                        ({-3: (0, F(2, 3), 0), -5: (1, 1, 1)}, -3), ({1: (0, 0, 1)}, 1)]:
        xs = [{0: x} for x in exact]
        for power, v in tails.items():
            for x, digit in zip(xs, v):
                if digit:
                    x[power] = F(digit)
        entries = [linsolve._entry(gt([(d, p) for p, d in x.items()])) for x in xs]
        assert linsolve._residual_lead(system, entries) == lead
        assert reference_residual_lead(system, xs) == lead


def _nonzero_rational(rng, max_den):
    return F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, max_den))


def test_no_vanishing_leading_minor_solves_without_dividing(divide_calls):
    # With no zero pivot the procedure injects nothing and is exact Gaussian
    # elimination: the fraction-free path gives its whole report, dividing nothing.
    rng = random.Random(30)
    for n in range(1, 17):
        for max_den in (1, 29):
            a = [[_nonzero_rational(rng, max_den) for _ in range(n)] for _ in range(n)]
            system = LinearSystem.from_rows(a, [_nonzero_rational(rng, max_den) for _ in a])
            report, expected = solve_grossone(system), reference_solve(system)
            assert divide_calls[0] == 0
            assert report == expected and repr(report) == repr(expected)
            assert report.injected_pivots == 0 and report.residual_leading_power is None


def test_first_vanishing_leading_minor_at_every_size(divide_calls):
    # The leading minor of size k vanishes (a report shows none smaller did):
    # the procedure injects at column k - 1, so the fraction-free path leaves
    # the system to it.  At k = n that minor is det A itself: a singular system.
    rng = random.Random(31)
    outcomes = []
    for n in range(1, 9):
        for k in range(1, n + 1):
            a = [[_nonzero_rational(rng, 7) for _ in range(n)] for _ in range(n)]
            r = rng.randrange(k - 1) if k > 1 else None
            a[k - 1][:k] = [0] * k if r is None else [-3 * x for x in a[r][:k]]
            system = LinearSystem.from_rows(a, [_nonzero_rational(rng, 7) for _ in a])
            calls, expected = divide_calls[0], outcome(reference_solve, system)
            outcomes.append(outcome(solve_grossone, system))
            assert divide_calls[0] > calls
            assert outcomes[-1] == expected and repr(outcomes[-1]) == repr(expected)
            if type(outcomes[-1]) is SolveReport:
                assert outcomes[-1].injected_rows[0] == k - 1
    assert {type(o) for o in outcomes} == {SolveReport, tuple}
