"""Point counting, infinitesimal probabilities, and mixed-dimension measures.

At resolution r a unit interval holds G**r points, so an event picking m
of them has the strictly positive infinitesimal probability m * G**-r,
and a piece of a figure that is flat in ``codim`` directions contributes
an infinitesimal slab volume instead of the classical zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .core import DEFAULT_MIN_POWER, G, GrossNumber, Record, _count, _operand, _rational, divide
from .errors import InexactProbability


def points_in_unit_interval(resolution: int) -> GrossNumber:
    """Number of points in [0, 1) when coordinates are i * G**-resolution."""
    return G ** _count(resolution, "resolution", 1)


def points_on_line(resolution: int) -> GrossNumber:
    """Number of points on the whole line at the given resolution.

    Each of the G unit intervals per ray holds G**resolution points.
    """
    return 2 * G ** (_count(resolution, "resolution", 1) + 1)


def event_probability(
    favorable: GrossNumber,
    total: GrossNumber,
    min_power=DEFAULT_MIN_POWER,
) -> GrossNumber:
    """favorable / total over equiprobable elementary events, exactly.

    Zero favorable count gives exactly 0 (the impossible event); a finite
    favorable count out of an infinite total gives an infinitesimal that
    still compares greater than 0.
    """
    favorable, total = _operand(favorable), _operand(total)
    if total.sign() <= 0:
        raise ValueError("total event count must be positive")
    if favorable.sign() < 0 or favorable > total:
        raise ValueError("favorable count must satisfy 0 <= favorable <= total")
    result = divide(favorable, total, min_power)
    if not result.exact:
        raise InexactProbability(
            "favorable/total does not divide exactly within the cutoff"
        )
    return result.quotient


class MeasurePiece(Record):
    """A part of a figure that is flat in ``codim`` of its dimensions.

    ``extent`` is the classical measure along the full dimensions; each
    missing dimension is ``width_points`` points wide at ``resolution``
    points per unit.
    """

    __slots__ = __match_args__ = ("extent", "codim", "width_points", "resolution")

    def __init__(self, extent: Fraction, codim: int, width_points: int = 1, resolution: int = 1):
        extent = _rational(extent)
        if extent < 0:
            raise ValueError("extent must be nonnegative")
        counts = (_count(codim, "codim"), _count(width_points, "width_points", 1),
                  _count(resolution, "resolution", 1))
        for name, value in zip(self.__match_args__, (extent, *counts)):
            object.__setattr__(self, name, value)


def piece_measure(piece: MeasurePiece) -> GrossNumber:
    """extent * (width_points * G**-resolution) ** codim."""
    width = piece.width_points * G**-piece.resolution
    return GrossNumber.from_rational(piece.extent) * width**piece.codim


def total_measure(pieces: Iterable[MeasurePiece]) -> GrossNumber:
    return GrossNumber.from_terms(t for p in pieces for t in piece_measure(p).terms)
