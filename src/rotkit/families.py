"""Constructors for the map families the sweeps study.

Every constructor returns an immutable Lifting with a float fundamental, an
exact-rational twin (from the binary values of float parameters unless true
rationals are passed in; none for the trigonometric family) and an envelope
builder.  The builder gives the envelopes in one of two forms: a
non-decreasing map is its own envelope with its sections listed; otherwise
each envelope is flat-branch-flat (_clamped), over Fractions too for the
piecewise-linear families.  Construction converts parameters to floats only;
twins and envelopes build their Fractions when first used.  Non-finite
parameters raise InvalidParam.

The nonlinearity is parametrized as a coefficient a/(2*pi), so a figure-style
value like a = 2*pi means coefficient 1; a can also be given directly as
that rational coefficient via a_over_2pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .envelope import ConstantSection, MonotoneEnvelope, _root_on_increasing
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


def _lazy_twin(build, *params):
    """Exact evaluator build(*twins), made on its first call from the parameters' exact twins."""
    twin = None

    def fundamental_exact(q: Fraction) -> Fraction:
        nonlocal twin
        if twin is None:
            twin = build(*[_as_exact(p) for p in params])
        return twin(q)

    return fundamental_exact


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


def _memo_pair(build, *args):
    """Envelope builder running build(F, *args) on its first call and reusing the pair."""
    cache: dict[str, tuple[MonotoneEnvelope, MonotoneEnvelope]] = {}

    def builder(F: Lifting):
        if "pair" not in cache:
            cache["pair"] = build(F, *args)
        return cache["pair"]

    return builder


def _own_envelope(sections: tuple[ConstantSection, ...], F: Lifting):
    """A non-decreasing map with known sections is its own upper and lower envelope."""
    env = MonotoneEnvelope(lifting=F, sections=sections, source="analytic")
    return env, env


_NO_SECTIONS = partial(_own_envelope, ())


def _clamped(branch, x_lo, lo, x_hi, hi):
    """Flat-branch-flat map: lo up to x_lo, branch(x) up to x_hi, hi beyond.

    Works on floats and on Fractions alike; the levels are passed in as
    computed, so each side keeps its own arithmetic.
    """

    def fund(x):
        if x <= x_lo:
            return lo
        if x <= x_hi:
            return branch(x)
        return hi

    return fund


def _envelope_pair(F: Lifting, upper: tuple, lower: tuple):
    """Analytic (upper, lower) envelopes of F from (fundamental, exact twin, section) triples."""

    def envelope(side: str, fund, exact, section: ConstantSection) -> MonotoneEnvelope:
        lifting = Lifting(fund, is_non_decreasing=True, label=f"{F.label}.{side}", fundamental_exact=exact)
        return MonotoneEnvelope(lifting, (section,), "analytic")

    return envelope("upper", *upper), envelope("lower", *lower)


def _extremal_envelope_maps(f, x_min, x_max, x_up, x_low):
    """(upper, lower) envelope fundamentals of f, in f's own arithmetic.

    f has one local min at x_min left of one local max at x_max and rises
    between them.  The upper map is flat at f(x_max) - 1 up to x_up, where f
    climbs to that level, follows f to x_max and stays at f(x_max); the
    lower map stays at f(x_min) up to x_min, follows f to x_low, where f
    reaches f(x_min) + 1, and stays there.
    """
    peak = f(x_max)
    trough = f(x_min)
    return _clamped(f, x_up, peak - 1, x_max, peak), _clamped(f, x_min, trough, x_low, trough + 1)


# ---------------------------------------------------------------------------
# the one-parameter staircase family

_FOUR_THIRDS = Fraction(4, 3)
_QUARTER = Fraction(1, 4)
_THREE_QUARTERS = Fraction(3, 4)
_FMU_ENVELOPES = partial(_own_envelope, (ConstantSection(0.75, 1.0),))


def _fmu_exact(mu_q: Fraction):
    def fund_exact(q: Fraction) -> Fraction:
        if q > _THREE_QUARTERS:
            return mu_q + 1
        return _FOUR_THIRDS * q + mu_q

    return fund_exact


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

    return Lifting(
        fundamental=fund,
        is_non_decreasing=True,
        label=f"F_mu(mu={mu_f:.8g})",
        fundamental_exact=_lazy_twin(_fmu_exact, mu),
        envelope_builder=_FMU_ENVELOPES,
    )


# ---------------------------------------------------------------------------
# standard map and its piecewise-linear / discontinuous variants


def tau(x: float) -> float:
    """Triangle wave on [0, 1]: 4x, then 2 - 4x, then 4(x - 1); range [-1, 1]."""
    if x <= 0.25:
        return 4.0 * x
    if x <= 0.75:
        return 2.0 - 4.0 * x
    return 4.0 * (x - 1.0)


def tau_exact(q: Fraction) -> Fraction:
    if q <= _QUARTER:
        return 4 * q
    if q <= _THREE_QUARTERS:
        return 2 - 4 * q
    return 4 * (q - 1)


def standard_map(omega, a=None, *, a_over_2pi=None) -> Lifting:
    """x + omega - (a/2pi) sin(2 pi x); invertible exactly when a <= 1."""
    omega_f = _as_float(omega, "omega")
    a_f, c, _ = _coefficient(a, a_over_2pi)
    if a_f < 0.0:
        raise InvalidParam(f"a must be non-negative, got {a_f}")

    def fund(x: float) -> float:
        return x + omega_f - c * math.sin(TWO_PI * x)

    non_decreasing = a_f <= 1.0  # then strictly increasing: its own envelope, with no section
    return Lifting(
        fundamental=fund,
        is_non_decreasing=non_decreasing,
        label=f"S(omega={omega_f:.8g}, a={a_f:.8g})",
        envelope_builder=_NO_SECTIONS if non_decreasing else _memo_pair(_standard_envelopes, a_f),
    )


def _standard_envelopes(F: Lifting, a: float):
    """Envelopes of the standard map s for a > 1.

    s has a local min at x1 = arccos(1/a)/(2 pi) and a local max at x2 = 1 - x1.
    """
    s = F.fundamental
    x1 = math.acos(1.0 / a) / TWO_PI
    x2 = 1.0 - x1
    u = _root_on_increasing(s, s(x2) - 1.0, x1, x2)
    low = _root_on_increasing(s, s(x1) + 1.0, x1, x2)
    upper, lower = _extremal_envelope_maps(s, x1, x2, u, low)
    return _envelope_pair(F, (upper, None, ConstantSection(x2 - 1.0, u)), (lower, None, ConstantSection(low - 1.0, x1)))


def _pwl_exact(omega_q: Fraction, c_q: Fraction):
    def fund_exact(q: Fraction) -> Fraction:
        return q + omega_q - c_q * tau_exact(q)

    return fund_exact


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
        return x + omega_f - c * tau(x)

    if c < 0.25:
        builder = _NO_SECTIONS
    elif c == 0.25:
        builder = _PWL_FLAT_OUTER
    else:
        builder = _memo_pair(_pwl_envelopes, omega, c_param)
    return Lifting(
        fundamental=fund,
        is_non_decreasing=c <= 0.25,
        label=f"T(omega={omega_f:.8g}, a={a_f:.8g})",
        fundamental_exact=_lazy_twin(_pwl_exact, omega, c_param),
        envelope_builder=builder,
    )


def _pwl_envelopes(F: Lifting, omega_param, c_param):
    c_q = _as_exact(c_param)
    # crossings of peak-1 / trough+1 on the middle branch of slope 1 + 4c
    xu_q = (12 * c_q - 1) / (4 * (1 + 4 * c_q))
    xl_q = (5 + 4 * c_q) / (4 * (1 + 4 * c_q))
    xu = float(xu_q)
    xl = float(xl_q)
    upper, lower = _extremal_envelope_maps(F.fundamental, 0.25, 0.75, xu, xl)
    t_q = _pwl_exact(_as_exact(omega_param), c_q)
    upper_q, lower_q = _extremal_envelope_maps(t_q, _QUARTER, _THREE_QUARTERS, xu_q, xl_q)
    return _envelope_pair(
        F, (upper, upper_q, ConstantSection(-0.25, xu)), (lower, lower_q, ConstantSection(xl - 1.0, 0.25))
    )


def _disc_exact(omega_q: Fraction, c_q: Fraction):
    def fund_exact(q: Fraction) -> Fraction:
        frac = q - (q.numerator // q.denominator)
        return q + omega_q + c_q * frac

    return fund_exact


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

    def fund(x: float) -> float:
        frac = x - math.floor(x)
        return x + omega_f + c * frac

    return Lifting(
        fundamental=fund,
        is_non_decreasing=c == 0.0,
        label=f"D(omega={omega_f:.8g}, a={a_f:.8g})",
        fundamental_exact=_lazy_twin(_disc_exact, omega, c_param),
        envelope_builder=_NO_SECTIONS if c == 0.0 else _memo_pair(_disc_envelopes, omega_f, omega, c, c_param),
    )


def _disc_envelope_maps(omega, c, qu, pl):
    """(upper, lower) envelope fundamentals of a disc map with c > 0, in the parameters' arithmetic.

    Both follow the line (1 + c)x + omega: the upper map is flat at the left
    limit omega + c up to qu, the lower one at omega + 1 beyond pl; each
    meets no flat at its other end of [0, 1].
    """
    slope = 1 + c

    def line(x):
        return slope * x + omega

    return _clamped(line, qu, omega + c, 1, line(1)), _clamped(line, 0, line(0), pl, omega + 1)


def _disc_envelopes(F: Lifting, omega: float, omega_param, c: float, c_param):
    omega_q = _as_exact(omega_param)
    c_q = _as_exact(c_param)
    qu_q = c_q / (1 + c_q)
    pl_q = 1 / (1 + c_q)
    qu = float(qu_q)
    pl = float(pl_q)
    upper, lower = _disc_envelope_maps(omega, c, qu, pl)
    upper_q, lower_q = _disc_envelope_maps(omega_q, c_q, qu_q, pl_q)
    return _envelope_pair(F, (upper, upper_q, ConstantSection(0.0, qu)), (lower, lower_q, ConstantSection(pl, 1.0)))


# ---------------------------------------------------------------------------
# the no-cycle-through-the-section example

_COUNTEREXAMPLE_ENVELOPES = partial(_own_envelope, (ConstantSection(0.8, 1.0),))


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

    def fund_exact(q: Fraction) -> Fraction:
        if q <= Fraction(1, 10):
            return q + Fraction(1, 5)
        if q <= Fraction(3, 10):
            return q / 2 + Fraction(1, 4)
        if q <= Fraction(2, 5):
            return 7 * q - Fraction(17, 10)
        if q <= Fraction(4, 5):
            return q / 4 + 1
        return Fraction(6, 5)

    return Lifting(
        fundamental=fund,
        is_non_decreasing=True,
        label="counterexample",
        fundamental_exact=fund_exact,
        envelope_builder=_COUNTEREXAMPLE_ENVELOPES,
    )


# ---------------------------------------------------------------------------
# sweep plumbing: picklable parameter records


# the circle-map families the interval and tongue sweeps take by name
CIRCLE_FAMILIES = {"standard": standard_map, "pwl": pwl_standard, "disc": disc_standard}


@dataclass(frozen=True)
class FamilyParams:
    """Picklable family selector so sweep workers can rebuild liftings."""

    family: str
    omega: float
    a: float


def build_lifting(params: FamilyParams) -> Lifting:
    make = CIRCLE_FAMILIES.get(params.family)
    if make is None:
        raise InvalidParam(f"unknown family {params.family!r}; expected one of {tuple(CIRCLE_FAMILIES)}")
    return make(params.omega, params.a)
