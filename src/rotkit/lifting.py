"""Degree-one circle map liftings and their evaluation at any point.

A lifting F of a degree-one circle map is fully determined by its
restriction to the fundamental domain [0, 1] together with the gluing rule

    F(x) = F|[0,1](frac(x)) + floor(x),

which gives F(x + 1) = F(x) + 1 for all x.  evaluate applies that rule in
floats; orbits are iterated by the estimators in rotnum, each with its own
floor/fraction loop.  A piecewise-linear F may also give its rational knots,
and evaluate_exact applies the rule to them in rationals, reading them anew
on every call.  F may jump, but only downward (a heavy lifting), so its
monotone envelopes stay continuous.  A Lifting is an immutable
typing.NamedTuple holding no state and every operation is pure, so liftings
can be shared freely between worker processes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, NamedTuple

if TYPE_CHECKING:
    from .envelope import ConstantSection, MonotoneEnvelope


class Lifting(NamedTuple):
    """A degree-one lifting given by its fundamental-domain restriction.

    fundamental evaluates F|[0,1] in floats; the orbit estimators require
    is_non_decreasing.  knots, when present, is called with no arguments and
    returns the rational knots [(x_0, y_0), ..., (x_k, y_k)] of the same
    piecewise-linear restriction, 0 = x_0 < ... < x_k = 1, where y_k may be a
    left limit (a heavy jump); evaluate_exact and the exact checks read them,
    and reject knots whose x's do not run from 0 up to 1.
    envelope_builder, read only for a map that is not non-decreasing, is
    called as envelope_builder(F, upper) and returns F's upper envelope when
    upper is true, its lower one otherwise.  sections, for a non-decreasing
    map, states its maximal constant sections (() for none); None leaves
    them to a grid scan.  Equality, hash and repr cover all six fields.
    """

    fundamental: Callable[[float], float]
    is_non_decreasing: bool
    label: str
    knots: Callable[[], list[tuple[Fraction, Fraction]]] | None = None
    envelope_builder: Callable[["Lifting", bool], "MonotoneEnvelope"] | None = None
    sections: tuple[ConstantSection, ...] | None = None


def evaluate(F: Lifting, x: float) -> float:
    """Evaluate the globally defined lifting at any finite x."""
    whole = math.floor(x)
    return F.fundamental(x - whole) + whole


def evaluate_exact(F: Lifting, x: Fraction | float) -> Fraction:
    """Evaluate the lifting through its knots at a rational point (a float is taken at its binary value)."""
    return _knot_value(_knots(F), Fraction(x))


def _knots(F: Lifting) -> list[tuple[Fraction, Fraction]]:
    """F's rational knots, checked to run 0 = x_0 < ... < x_k = 1."""
    if F.knots is None:
        raise ValueError(f"lifting {F.label!r} has no rational knots")
    knots = F.knots()
    xs = [x for x, _ in knots]
    if len(xs) < 2 or xs[0] != 0 or xs[-1] != 1 or any(a >= b for a, b in zip(xs, xs[1:])):
        raise ValueError(f"lifting {F.label!r} has knots at x = {', '.join(map(str, xs))}, not 0 = x_0 < ... < x_k = 1")
    return knots


def _knot_value(knots, x: Fraction) -> Fraction:
    """F(x), by the gluing rule, of the lifting whose F|[0,1] runs through the rational knots."""
    whole = x.numerator // x.denominator
    q = x - whole
    i = bisect_right(knots, q, key=itemgetter(0))
    (x0, y0), (x1, y1) = knots[i - 1], knots[i]
    return y0 + (y1 - y0) * (q - x0) / (x1 - x0) + whole
