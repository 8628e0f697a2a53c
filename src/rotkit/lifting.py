"""Degree-one circle map liftings and their evaluation at any point.

A lifting F of a degree-one circle map is fully determined by its
restriction to the fundamental domain [0, 1] together with the gluing rule

    F(x) = F|[0,1](frac(x)) + floor(x),

which gives F(x + 1) = F(x) + 1 for all x.  evaluate and evaluate_exact
apply that rule in floats and in rationals; orbits are iterated by the
estimators in rotnum, each with its own floor/fraction loop.  F may jump,
but only downward (a heavy lifting), so its monotone envelopes stay
continuous.  A Lifting is an immutable typing.NamedTuple and every operation
is pure, so liftings can be shared freely between worker processes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple

if TYPE_CHECKING:
    from .envelope import MonotoneEnvelope


class Lifting(NamedTuple):
    """A degree-one lifting given by its fundamental-domain restriction.

    fundamental evaluates F|[0,1] in floats; the orbit estimators require
    is_non_decreasing.  fundamental_exact, when present, evaluates the same
    restriction in exact rational arithmetic (Fraction in, Fraction out) and
    is what oracle-style cross checks use.  envelope_builder, when present,
    is called as envelope_builder(F, upper) and returns F's upper envelope
    when upper is true, its lower one otherwise.  Equality, hash and repr
    cover all five fields.
    """

    fundamental: Callable[[float], float]
    is_non_decreasing: bool
    label: str
    fundamental_exact: Callable[[Fraction], Fraction] | None = None
    envelope_builder: Callable[["Lifting", bool], "MonotoneEnvelope"] | None = None


def evaluate(F: Lifting, x: float) -> float:
    """Evaluate the globally defined lifting at any finite x."""
    whole = math.floor(x)
    return F.fundamental(x - whole) + whole


def evaluate_exact(F: Lifting, x: Fraction) -> Fraction:
    """Evaluate the lifting at a rational point in exact arithmetic."""
    if F.fundamental_exact is None:
        raise ValueError(f"lifting {F.label!r} has no exact-rational evaluator")
    whole = x.numerator // x.denominator
    return F.fundamental_exact(x - whole) + whole


def _knot_evaluator(knots) -> Callable[[Fraction], Fraction]:
    """Exact [0, 1] restriction of the PL map through rational knots (x_0, y_0), ..., (x_k, y_k).

    0 = x_0 < ... < x_k = 1; y_k may be a left limit (a heavy jump), and the
    value at 1 is y_0 + 1, as the gluing rule needs.
    """
    knots = [(Fraction(x), Fraction(y)) for x, y in knots]
    starts = [x for x, _ in knots[:-1]]
    pieces = [(x0, y0, (y1 - y0) / (x1 - x0)) for (x0, y0), (x1, y1) in zip(knots, knots[1:])]

    def fundamental_exact(q: Fraction) -> Fraction:
        if q == 1:
            return knots[0][1] + 1
        x0, y0, slope = pieces[bisect_right(starts, q) - 1]
        return y0 + slope * (q - x0)

    return fundamental_exact
