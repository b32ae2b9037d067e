"""Point counts, infinitesimal probabilities, mixed-dimension measures."""

import random
from fractions import Fraction as F

import pytest

from grossone import (
    G,
    ONE,
    ZERO,
    InexactProbability,
    MeasurePiece,
    event_probability,
    piece_measure,
    points_in_unit_interval,
    points_on_line,
    total_measure,
)
from support import assert_record_contract, gn


def test_points_in_unit_interval_by_resolution():
    assert points_in_unit_interval(1) == G
    assert points_in_unit_interval(2) == G**2
    assert points_in_unit_interval(3) == G**3


def test_points_on_line_by_resolution():
    assert points_on_line(1) == 2 * G**2
    assert points_on_line(2) == 2 * G**3
    assert points_on_line(3) == 2 * G**4


def test_resolution_must_be_positive():
    with pytest.raises(ValueError):
        points_in_unit_interval(0)
    with pytest.raises(ValueError):
        points_on_line(0)


# -- probability ------------------------------------------------------------------


def test_single_point_on_grossone_wheel():
    p = event_probability(ONE, G)
    assert p == G**-1
    assert p > ZERO


def test_impossible_event_is_exactly_zero():
    assert event_probability(ZERO, G) == ZERO
    assert event_probability(ONE, G) > event_probability(ZERO, G)


def test_finite_point_counts_at_higher_resolution():
    for m in (1, 2, 7):
        assert event_probability(gn(m), G**2) == m * G**-2
        assert event_probability(gn(m), G**2) > ZERO
    assert event_probability(1, 4) == F(1, 4)


def test_certain_event():
    assert event_probability(G, G) == ONE
    assert event_probability(G + 1, G + 1) == ONE


def test_infinite_favorable_counts_give_finite_probability():
    # an arc of G/2 points out of the G points on the circumference
    assert event_probability(G * F(1, 2), G) == gn(F(1, 2))


def test_probability_bounds_are_validated():
    with pytest.raises(ValueError):
        event_probability(gn(-1), G)
    with pytest.raises(ValueError):
        event_probability(G + 1, G)
    with pytest.raises(ValueError):
        event_probability(ONE, ZERO)
    with pytest.raises(ValueError):
        event_probability(ONE, -G)


def test_probability_requires_exact_division():
    with pytest.raises(InexactProbability):
        event_probability(ONE, G + 1)


# -- measures ----------------------------------------------------------------------


def test_square_with_stub_line_width_one():
    pieces = [MeasurePiece(1, 0), MeasurePiece(1, 1, 1, 1)]
    assert total_measure(pieces) == gn(1) + G**-1


def test_square_with_stub_line_width_three():
    pieces = [MeasurePiece(1, 0), MeasurePiece(1, 1, 3, 1)]
    assert total_measure(pieces) == gn(1) + 3 * G**-1


def test_cube_with_face_and_edge_width_one():
    pieces = [MeasurePiece(1, 0), MeasurePiece(1, 1), MeasurePiece(1, 2)]
    assert total_measure(pieces) == gn(1) + G**-1 + G**-2


def test_square_with_stub_width_five_resolution_two():
    pieces = [MeasurePiece(1, 0), MeasurePiece(1, 1, 5, 2)]
    assert total_measure(pieces) == gn(1) + 5 * G**-2


def test_cube_with_face_and_edge_width_five_resolution_two():
    pieces = [MeasurePiece(1, 0), MeasurePiece(1, 1, 5, 2), MeasurePiece(1, 2, 5, 2)]
    assert total_measure(pieces) == gn(1) + 5 * G**-2 + 25 * G**-4


def test_empty_measure_is_zero():
    assert total_measure([]) == ZERO


def test_piece_measure_formula():
    piece = MeasurePiece(F(3, 2), 2, 4, 3)
    assert piece_measure(piece) == F(3, 2) * (4 * G**-3) ** 2
    assert piece_measure(piece) == 24 * G**-6


def test_measure_monotone_under_added_pieces():
    rng = random.Random(13)
    pieces = []
    for _ in range(20):
        pieces.append(
            MeasurePiece(
                F(rng.randint(0, 5), rng.randint(1, 4)),
                rng.randint(0, 3),
                rng.randint(1, 5),
                rng.randint(1, 3),
            )
        )
        assert total_measure(pieces) >= total_measure(pieces[:-1])


def test_finite_part_is_the_classical_measure():
    pieces = [
        MeasurePiece(F(5, 2), 0),
        MeasurePiece(2, 0),
        MeasurePiece(7, 1, 3, 1),
        MeasurePiece(1, 2, 5, 2),
    ]
    assert total_measure(pieces).finite_part() == F(9, 2)


def test_piece_validation():
    for args, error, message in [
        ((-1, 0), ValueError, "extent must be nonnegative"),
        ((1, -1), ValueError, "codim must be >= 0"),
        ((1, 0, 0), ValueError, "width_points must be >= 1"),
        ((1, 0, 1, 0), ValueError, "resolution must be >= 1"),
        ((1, 1.5), TypeError, "codim must be an integer"),
        ((1, True), TypeError, "codim must be an integer"),
    ]:
        with pytest.raises(error, match=message):
            MeasurePiece(*args)


def test_piece_is_an_immutable_record():
    piece = MeasurePiece(1, 2)
    assert piece == MeasurePiece(extent=1, codim=2, width_points=1, resolution=1)
    assert type(piece.extent) is F
    # The extent is an int or a Fraction, as numerals take; text is refused.
    for text in ("3/2", "1.5"):
        with pytest.raises(TypeError, match="'str'"):
            MeasurePiece(text, codim=1, width_points=3)
    assert_record_contract(
        MeasurePiece(F(3, 2), 1, 3), MeasurePiece(F(3, 2), codim=1, width_points=3)
    )
    assert repr(MeasurePiece(F(3, 2), 1, 3)) == (
        "MeasurePiece(extent=Fraction(3, 2), codim=1, width_points=3, resolution=1)"
    )
    assert MeasurePiece(1, 2) != MeasurePiece(1, 2, resolution=2)
