"""Constructors for the map families the sweeps study.

Every constructor returns an immutable Lifting with a float fundamental and
an envelope builder: a function of (F, upper) bound with functools.partial to
what both sides share, which builds the one side asked for and caches
nothing.  A non-decreasing map is its own envelope with its sections listed;
otherwise each envelope is a flat-branch-flat float map.  A
piecewise-linear map states its exact side once, as the Lifting's knots: a
knots function bound with functools.partial to the raw parameters, which
takes their twins (a float's binary value) only when read, and its
envelopes' knots are derived from it by _exact_envelope_knots the same way.
So a float sweep builds no Fraction.  Non-finite parameters raise
InvalidParam.

The float maps are what the orbit estimators call once per iterate, so each
is one Python frame per evaluation, its constants in closure cells: a
family's fundamental writes its formula out (pwl inlines the pieces of tau,
disc skips the floor on [0, 1)), and each envelope side is one closure with
the branch written between its two flats, the same float operations as the
fundamental's.  tau stays as the reference the tests compare against.

The nonlinearity is parametrized as a coefficient a/(2*pi), so a figure-style
value like a = 2*pi means coefficient 1; a can also be given directly as
that rational coefficient via a_over_2pi.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .envelope import ConstantSection, MonotoneEnvelope, _exact_envelope_knots, _root_on_increasing
from .lifting import Lifting

TWO_PI = 2.0 * math.pi
GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0


class InvalidParam(ValueError):
    """Family parameter outside its documented domain."""


def _as_float(value, name: str) -> float:
    """Float value of a numeric parameter (a str is parsed as a Fraction); must be finite."""
    if isinstance(value, str):
        value = Fraction(value)
    f = float(value)
    if not math.isfinite(f):
        raise InvalidParam(f"{name} must be finite, got {f}")
    return f


def _as_exact(value) -> Fraction:
    """Exact twin of a parameter: a float's binary value; a Fraction, int or str as given."""
    if isinstance(value, (Fraction, int, str)):
        return Fraction(value)
    return Fraction(float(value))


def _ratio(value) -> tuple[int, int]:
    """(p, d) in lowest terms with p/d a parameter's exact twin; a float's, int's or Fraction's straight off the value."""
    if isinstance(value, (float, int, Fraction)):
        return value.as_integer_ratio()
    return _as_exact(value).as_integer_ratio()


def _coefficient(a, a_over_2pi) -> tuple[float, float, object]:
    """Resolve (a, a/(2*pi)) from either parametrization.

    The third item is the parameter whose exact twin is the coefficient's:
    a_over_2pi as given, or the float a/(2*pi).
    """
    if (a is None) == (a_over_2pi is None):
        raise InvalidParam("give exactly one of a or a_over_2pi")
    if a_over_2pi is not None:
        c = _as_float(a_over_2pi, "a_over_2pi")
        return c * TWO_PI, c, a_over_2pi
    a_f = _as_float(a, "a")
    c = a_f / TWO_PI
    return a_f, c, c


def _own_envelope(sections: tuple[ConstantSection, ...], F: Lifting, upper: bool) -> MonotoneEnvelope:
    """A non-decreasing map with known sections is its own upper and lower envelope."""
    return MonotoneEnvelope(F, sections, "analytic")


_NO_SECTIONS = partial(_own_envelope, ())


def _envelope(F: Lifting, upper: bool, fund, section: ConstantSection):
    """Analytic upper (or lower) envelope of F from its fundamental and section; its knots from F's, if any."""
    knots = None if F.knots is None else partial(_envelope_knots, F.knots, upper)
    lifting = Lifting(fund, True, f"{F.label}.{'upper' if upper else 'lower'}", knots)
    return MonotoneEnvelope(lifting, (section,), "analytic")


def _envelope_knots(knots, upper: bool):
    return _exact_envelope_knots(knots(), upper)


# ---------------------------------------------------------------------------
# the one-parameter staircase family

_FMU_ENVELOPES = partial(_own_envelope, (ConstantSection(0.75, 1.0),))


def _fmu_knots(mu):
    mu = _as_exact(mu)
    return [(0, mu), (Fraction(3, 4), mu + 1), (1, mu + 1)]


def f_mu(mu) -> Lifting:
    """Lifting with fundamental (4/3)x + mu on [0, 3/4] and mu + 1 above.

    Non-decreasing and continuous, with the constant section [3/4, 1]; the
    rotation number as a function of mu draws a Devil's staircase.
    """
    mu_f = _as_float(mu, "mu")
    if not 0.0 <= mu_f <= 1.0:
        raise InvalidParam(f"mu must lie in [0, 1], got {mu_f}")

    def fund(x: float) -> float:
        if x > 0.75:
            return mu_f + 1.0
        return (4.0 / 3.0) * x + mu_f

    # positional: the staircase builds one per cell, and keywords cost more
    return Lifting(fund, True, f"F_mu(mu={mu_f:.8g})", partial(_fmu_knots, mu), _FMU_ENVELOPES)


# ---------------------------------------------------------------------------
# standard map and its piecewise-linear / discontinuous variants


def tau(x: float) -> float:
    """Triangle wave on [0, 1]: 4x, then 2 - 4x, then 4(x - 1); range [-1, 1]."""
    if x <= 0.25:
        return 4.0 * x
    if x <= 0.75:
        return 2.0 - 4.0 * x
    return 4.0 * (x - 1.0)


def standard_map(omega, a=None, *, a_over_2pi=None) -> Lifting:
    """x + omega - (a/2pi) sin(2 pi x); invertible exactly when a <= 1."""
    omega_f = _as_float(omega, "omega")
    a_f, c, _ = _coefficient(a, a_over_2pi)
    if a_f < 0.0:
        raise InvalidParam(f"a must be non-negative, got {a_f}")

    sin, two_pi = math.sin, TWO_PI

    def fund(x: float) -> float:
        return x + omega_f - c * sin(two_pi * x)

    non_decreasing = a_f <= 1.0  # then strictly increasing: its own envelope, with no section
    return Lifting(
        fundamental=fund,
        is_non_decreasing=non_decreasing,
        label=f"S(omega={omega_f:.8g}, a={a_f:.8g})",
        envelope_builder=_NO_SECTIONS
        if non_decreasing
        else partial(_standard_envelope, omega_f, c, math.acos(1.0 / a_f) / TWO_PI),
    )


def _standard_envelope(omega: float, c: float, x1: float, F: Lifting, upper: bool) -> MonotoneEnvelope:
    """Upper (or lower) envelope of the standard map s = x + omega - c sin(2 pi x) for a > 1.

    s has a local min at x1 = arccos(1/a)/(2 pi) and a local max at x2 = 1 - x1
    and rises between them.  The upper map is flat at s(x2) - 1 up to u, where
    s climbs to that level, follows s to x2 and stays at s(x2); the lower map
    stays at s(x1) up to x1, follows s to low, where s reaches s(x1) + 1, and
    stays there.
    """
    s = F.fundamental
    sin, two_pi = math.sin, TWO_PI
    x2 = 1.0 - x1
    if upper:
        peak = s(x2)
        u = _root_on_increasing(s, peak - 1.0, x1, x2)
        flat = peak - 1

        def fund(x: float) -> float:
            if x <= u:
                return flat
            if x <= x2:
                return x + omega - c * sin(two_pi * x)
            return peak

        return _envelope(F, upper, fund, ConstantSection(x2 - 1.0, u))
    trough = s(x1)
    low = _root_on_increasing(s, trough + 1.0, x1, x2)
    top = trough + 1

    def fund(x: float) -> float:
        if x <= x1:
            return trough
        if x <= low:
            return x + omega - c * sin(two_pi * x)
        return top

    return _envelope(F, upper, fund, ConstantSection(low - 1.0, x1))


def _pwl_knots(omega, c):
    """Knots of x + omega - c tau(x); tau is 0, 1, -1, 0 at 0, 1/4, 3/4, 1."""
    omega, c = _as_exact(omega), _as_exact(c)
    quarter, three_quarters = Fraction(1, 4), Fraction(3, 4)
    return [(0, omega), (quarter, quarter + omega - c), (three_quarters, three_quarters + omega + c), (1, 1 + omega)]


# c == 1/4: the outer branches are exactly flat; one section straddling the origin
_PWL_FLAT_OUTER = partial(_own_envelope, (ConstantSection(-0.25, 0.25),))


def pwl_standard(omega, a=None, *, a_over_2pi=None) -> Lifting:
    """Piecewise-linear standard map x + omega - (a/2pi) tau(<x>).

    Slope of the outer branches is 1 - 4a/(2 pi), so the map stops being
    non-decreasing beyond a = pi/2.
    """
    omega_f = _as_float(omega, "omega")
    a_f, c, c_param = _coefficient(a, a_over_2pi)
    if a_f < 0.0:
        raise InvalidParam(f"a must be non-negative, got {a_f}")

    def fund(x: float) -> float:
        # x + omega - c tau(x), tau's three pieces written out
        if x <= 0.25:
            return x + omega_f - c * (4.0 * x)
        if x <= 0.75:
            return x + omega_f - c * (2.0 - 4.0 * x)
        return x + omega_f - c * (4.0 * (x - 1.0))

    if c < 0.25:
        builder = _NO_SECTIONS
    elif c == 0.25:
        builder = _PWL_FLAT_OUTER
    else:
        builder = partial(_pwl_envelope, omega_f, c, *_ratio(c_param))
    return Lifting(
        fundamental=fund,
        is_non_decreasing=c <= 0.25,
        label=f"T(omega={omega_f:.8g}, a={a_f:.8g})",
        knots=partial(_pwl_knots, omega, c_param),
        envelope_builder=builder,
    )


def _pwl_envelope(omega: float, c: float, p: int, d: int, F: Lifting, upper: bool) -> MonotoneEnvelope:
    """Upper (or lower) envelope of a pwl map, c = p/d > 1/4 (min at 1/4, max at 3/4).

    Between its flats each side follows the middle branch x + omega - c (2 - 4x)
    alone: both flats' ends lie in [1/4, 3/4].
    """
    # crossings (12c - 1)/(4(1 + 4c)) of peak-1 and (5 + 4c)/(4(1 + 4c)) of trough+1
    # on the middle branch, correctly rounded as int/int divisions
    t = F.fundamental
    if upper:
        xu = (12 * p - d) / (4 * (d + 4 * p))
        peak = t(0.75)
        flat = peak - 1

        def fund(x: float) -> float:
            if x <= xu:
                return flat
            if x <= 0.75:
                return x + omega - c * (2.0 - 4.0 * x)
            return peak

        section = ConstantSection(-0.25, xu)
    else:
        xl = (5 * d + 4 * p) / (4 * (d + 4 * p))
        trough = t(0.25)
        top = trough + 1

        def fund(x: float) -> float:
            if x <= 0.25:
                return trough
            if x <= xl:
                return x + omega - c * (2.0 - 4.0 * x)
            return top

        section = ConstantSection(xl - 1.0, 0.25)
    return _envelope(F, upper, fund, section)


def _disc_knots(omega, c):
    """Knots of x + omega + c <x>: one line, with the left limit 1 + omega + c at 1."""
    omega, c = _as_exact(omega), _as_exact(c)
    return [(0, omega), (1, 1 + omega + c)]


def disc_standard(omega, a=None, *, a_over_2pi=None) -> Lifting:
    """Discontinuous standard map x + omega + (a/2pi) <x>.

    Heavy: the jump at every integer falls, so the envelopes are continuous
    and carry constant sections for a > 0.  The value at integers uses
    <x> = 0, the right limit; the left limit at 1 is 1 + omega + a/(2pi).
    """
    omega_f = _as_float(omega, "omega")
    a_f, c, c_param = _coefficient(a, a_over_2pi)
    if a_f < 0.0:
        raise InvalidParam(f"a must be non-negative for a heavy map, got {a_f}")

    floor = math.floor

    def fund(x: float) -> float:
        frac = x if 0.0 <= x < 1.0 else x - floor(x)
        return x + omega_f + c * frac

    return Lifting(
        fundamental=fund,
        is_non_decreasing=c == 0.0,
        label=f"D(omega={omega_f:.8g}, a={a_f:.8g})",
        knots=partial(_disc_knots, omega, c_param),
        envelope_builder=_NO_SECTIONS if c == 0.0 else partial(_disc_envelope, omega_f, c, *_ratio(c_param)),
    )


def _disc_envelope(omega: float, c: float, p: int, d: int, F: Lifting, upper: bool):
    """Upper (or lower) envelope of a disc map with c = p/d > 0.

    Both lie on the line (1 + c)x + omega.  The upper map is flat at the left
    limit omega + c up to qu = c/(1 + c), the lower one at omega + 1 beyond
    pl = 1/(1 + c); both edges are correctly rounded int/int divisions.
    """
    slope = 1 + c
    if upper:
        qu = p / (d + p)
        flat, end = omega + c, slope * 1.0 + omega

        def fund(x: float) -> float:
            if x <= qu:
                return flat
            if x <= 1.0:
                return slope * x + omega
            return end

        section = ConstantSection(0.0, qu)
    else:
        pl = d / (d + p)
        start, flat = slope * 0.0 + omega, omega + 1

        def fund(x: float) -> float:
            if x <= 0.0:
                return start
            if x <= pl:
                return slope * x + omega
            return flat

        section = ConstantSection(pl, 1.0)
    return _envelope(F, upper, fund, section)


# ---------------------------------------------------------------------------
# the no-cycle-through-the-section example

_COUNTEREXAMPLE_ENVELOPES = partial(_own_envelope, (ConstantSection(0.8, 1.0),))


def _counterexample_knots():
    """The float closure's knots, read as exact decimals."""
    return [
        (0, Fraction(1, 5)), (Fraction(1, 10), Fraction(3, 10)), (Fraction(3, 10), Fraction(2, 5)),
        (Fraction(2, 5), Fraction(11, 10)), (Fraction(4, 5), Fraction(6, 5)), (1, Fraction(6, 5)),
    ]


def counterexample_map() -> Lifting:
    """Five-piece non-decreasing lifting whose section meets no lifted cycle.

    Rotation number 1/3 (cycle {0.1, 0.3, 0.4} + Z), constant section
    [0.8, 1]; the exact algorithm must always fall back to estimation here.
    """

    def fund(x: float) -> float:
        if x <= 0.1:
            return x + 0.2
        if x <= 0.3:
            return 0.5 * x + 0.25
        if x <= 0.4:
            return 7.0 * x - 1.7
        if x <= 0.8:
            return 0.25 * x + 1.0
        return 1.2

    return Lifting(
        fundamental=fund,
        is_non_decreasing=True,
        label="counterexample",
        knots=_counterexample_knots,
        envelope_builder=_COUNTEREXAMPLE_ENVELOPES,
    )


# ---------------------------------------------------------------------------
# sweep plumbing: picklable parameter records


# the circle-map families the interval and tongue sweeps take by name
CIRCLE_FAMILIES = {"standard": standard_map, "pwl": pwl_standard, "disc": disc_standard}


class FamilyParams(NamedTuple):
    """Picklable family selector so sweep workers can rebuild liftings."""

    family: str
    omega: float
    a: float


def build_lifting(params: FamilyParams) -> Lifting:
    make = CIRCLE_FAMILIES.get(params.family)
    if make is None:
        raise InvalidParam(f"unknown family {params.family!r}; expected one of {tuple(CIRCLE_FAMILIES)}")
    return make(params.omega, params.a)
