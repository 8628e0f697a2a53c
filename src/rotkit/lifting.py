"""Degree-one circle map liftings and their exact evaluation at any rational point.

A lifting F of a degree-one circle map is fully determined by its
restriction to the fundamental domain [0, 1] together with the gluing rule

    F(x) = F|[0,1](frac(x)) + floor(x),

which gives F(x + 1) = F(x) + 1 for all x.  The estimators in rotnum apply
that rule in floats, in floor/fraction loops into which they write the
expression of a fundamental built from a Step.  A piecewise-linear F may
also give its knots, which only this module reads: _knots takes each as a
Fraction (a float at its binary value) and checks them, on every call, for
evaluate_exact, rotnum's exact section orbit and _exact_envelope_knots, the
envelopes' exact twin.  F may jump, but only downward (a heavy lifting), so
its monotone envelopes stay continuous.  A Lifting is an immutable
typing.NamedTuple holding no state and every operation is pure, so liftings
can be shared freely between worker processes.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from operator import itemgetter
from types import CodeType
from typing import TYPE_CHECKING, Callable, NamedTuple

if TYPE_CHECKING:
    from .envelope import ConstantSection, MonotoneEnvelope


class Lifting(NamedTuple):
    """A degree-one lifting given by its fundamental-domain restriction.

    fundamental evaluates F|[0,1] in floats; the orbit estimators require
    is_non_decreasing.  knots, when present, is called with no arguments and
    returns the knots [(x_0, y_0), ..., (x_k, y_k)] of the same
    piecewise-linear restriction, 0 = x_0 < ... < x_k = 1, where y_k may be a
    left limit (a heavy jump); only _knots calls it, and rejects a NaN or
    infinite knot, x's that do not run from 0 up to 1 and a y_k below
    y_0 + 1 (an upward jump).
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


# id of the code object of every fundamental a Step builds -> that Step, which
# keeps the code object alive, so no other code object can take its id
STEPS: dict[int, "Step"] = {}


class Step:
    """A fundamental written as text: one Python expression over x and named float constants.

    make(*constants) builds the fundamental, a function of x that holds the
    constants, in the order of names, and then the values of env (the math
    functions and module constants every map of the step shares) as its
    defaults, so fund.__defaults__ gives them back in the order of
    self.bound.  make is the factory the Step compiles where it is defined
    (for a family, at import, under the import lock), and its fundamental's
    code object, self.code, is registered in STEPS, where the orbit
    estimators look a fundamental up to write its expression into their
    loops (see rotnum).  Every fundamental one Step builds shares that code
    object.
    """

    def __init__(self, name: str, expr: str, names: tuple[str, ...] = (), env: dict | None = None):
        self.name = name
        self.expr = expr
        self.names = names
        self.env = env or {}
        self.bound = names + tuple(self.env)
        params = ", ".join(names)
        defaults = "".join(f", {n}={n}" for n in self.bound)
        source = f"def {name}({params}):\n    def {name}(x{defaults}):\n        return {expr}\n    return {name}\n"
        namespace = dict(self.env)
        exec(compile(source, f"<step {name}>", "exec"), namespace)
        self.make = namespace[name]
        (self.code,) = (c for c in self.make.__code__.co_consts if isinstance(c, CodeType))
        STEPS[id(self.code)] = self


def evaluate_exact(F: Lifting, x: Fraction | float) -> Fraction:
    """Evaluate the lifting through its knots at a rational x; a float is taken at its binary value, NaN or inf raise ValueError."""
    return _knot_value(_knots(F), _fraction(x, "x"))


def _fraction(value, name: str, error: type[ValueError] = ValueError) -> Fraction:
    """value as a Fraction, a float at its binary value; error, naming name, if it is NaN or infinite."""
    try:
        return Fraction(value)
    except (OverflowError, ValueError):
        raise error(f"{name} must be a finite number, got {value!r}") from None


def _knots(F: Lifting) -> list[tuple[Fraction, Fraction]]:
    """F's knots as finite Fractions, a float at its binary value, checked to run 0 = x_0 < ... < x_k = 1 with y_k >= y_0 + 1."""
    if F.knots is None:
        raise ValueError(f"lifting {F.label!r} has no rational knots")
    name = f"a knot of lifting {F.label!r}"
    knots = [(_fraction(x, name), _fraction(y, name)) for x, y in F.knots()]
    xs = [x for x, _ in knots]
    if len(xs) < 2 or xs[0] != 0 or xs[-1] != 1 or any(a >= b for a, b in zip(xs, xs[1:])):
        raise ValueError(f"lifting {F.label!r} has knots at x = {', '.join(map(str, xs))}, not 0 = x_0 < ... < x_k = 1")
    if knots[-1][1] < knots[0][1] + 1:  # F(1-) below F(1) = F(0) + 1: an upward jump, which no lifting may have
        raise ValueError(f"lifting {F.label!r} has knots at x = {', '.join(map(str, xs))} that jump up at 1, y_k < y_0 + 1")
    return knots


def _knot_value(knots, x: Fraction) -> Fraction:
    """F(x), by the gluing rule, of the lifting whose F|[0,1] runs through the rational knots."""
    whole = x.numerator // x.denominator
    q = x - whole
    i = bisect_right(knots, q, key=itemgetter(0))
    (x0, y0), (x1, y1) = knots[i - 1], knots[i]
    return y0 + (y1 - y0) * (q - x0) / (x1 - x0) + whole


def _exact_envelope_knots(F: Lifting, upper: bool) -> list[tuple[Fraction, Fraction]]:
    """Rational knots of F's upper (or lower) map, F a continuous or heavy PL map; an envelope's knots bind F and upper.

    The upper map is a running maximum seeded with max y - 1, the sup of F
    over y <= 0, that leaves each flat at the rational point where a piece
    climbs back through it; the lower map is that of the reflected knots,
    reflected back, as in envelope._numeric_envelope.
    """
    knots = _knots(F) if upper else [(1 - x, 1 - y) for x, y in reversed(_knots(F))]
    level = max(y for _, y in knots) - 1
    out = [(knots[0][0], level)]
    for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
        if y1 > level:
            # y0 <= level: the piece meets the running maximum at x0 or inside
            cross = x0 + (level - y0) * (x1 - x0) / (y1 - y0)
            if cross > out[-1][0]:
                out.append((cross, level))
            out.append((x1, y1))
            level = y1
    if out[-1][0] < knots[-1][0]:
        out.append((knots[-1][0], level))
    return out if upper else [(1 - x, 1 - y) for x, y in reversed(out)]
