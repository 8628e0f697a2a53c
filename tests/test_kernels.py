"""The float maps the orbit loops call once per iterate.

Each family's fundamental and each side of its envelope is one closure that
writes its formula out.  They must match the composed reference bit for bit
(zeros told apart by sign): x + omega - c tau(x), the sine or the floor
fraction for the fundamental, and a flat-branch-flat wrapper around that
branch, with the flats' ends and levels computed from it, for each envelope
side.  A profiler's call events count the Python frames an estimate runs:
one per executed iterate plus a fixed few, whatever the hardware.
"""

import math
import sys
from collections import Counter

import pytest

from rotkit import (
    GOLDEN_MEAN,
    disc_standard,
    f_mu,
    lower_map,
    pwl_standard,
    rho_constant_section,
    rho_direct,
    standard_map,
    tau,
    upper_map,
    widest_section,
)
from rotkit.envelope import _root_on_increasing
from rotkit.sweep import SweepConfig, _staircase_cell
from _oracles import _clamped_oracle

TWO_PI = 2.0 * math.pi
OMEGAS = (0.0, -0.0, 0.37, 0.5, 3.31, -2.6)


def _same(got: float, want: float) -> bool:
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def _points(*specials: float) -> list[float]:
    """A dense grid, the knots, the ends of [0, 1], points outside it, and each special point, its neighbours and its fraction."""
    pts = {i / 1024 for i in range(1025)} | {i / 997 for i in range(998)}
    pts |= {1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)}
    pts |= {-1.5, -0.25, -1e-300, 1e-300, 1.25, 2.0, 3.5, -7.75}
    for s in (0.25, 0.75, *specials):
        pts |= {s, math.nextafter(s, -math.inf), math.nextafter(s, math.inf), s - math.floor(s)}
    return sorted(pts) + [-0.0]  # the set holds 0.0 == -0.0 once


def _assert_bitwise(f, ref, points) -> None:
    bad = [(x, f(x), ref(x)) for x in points if not _same(f(x), ref(x))]
    assert not bad, bad[:5]


def _standard_reference(omega: float, a: float):
    c = a / TWO_PI

    def s(x):
        return x + omega - c * math.sin(TWO_PI * x)

    if a <= 1.0:
        return s, None
    x1 = math.acos(1.0 / a) / TWO_PI
    x2 = 1.0 - x1
    peak, trough = s(x2), s(x1)
    u = _root_on_increasing(s, peak - 1.0, x1, x2)
    low = _root_on_increasing(s, trough + 1.0, x1, x2)
    sides = {
        True: (_clamped_oracle(s, u, peak - 1, x2, peak), (x2 - 1.0, u), (u, x2, peak - 1, peak)),
        False: (_clamped_oracle(s, x1, trough, low, trough + 1), (low - 1.0, x1), (x1, low, trough, trough + 1)),
    }
    return s, sides


def _pwl_reference(omega: float, a: float):
    c = a / TWO_PI

    def t(x):
        return x + omega - c * tau(x)

    if c <= 0.25:
        return t, None
    p, d = c.as_integer_ratio()
    xu = (12 * p - d) / (4 * (d + 4 * p))
    xl = (5 * d + 4 * p) / (4 * (d + 4 * p))
    peak, trough = t(0.75), t(0.25)
    sides = {
        True: (_clamped_oracle(t, xu, peak - 1, 0.75, peak), (-0.25, xu), (xu, peak - 1, peak)),
        False: (_clamped_oracle(t, 0.25, trough, xl, trough + 1), (xl - 1.0, 0.25), (xl, trough, trough + 1)),
    }
    return t, sides


def _disc_reference(omega: float, a: float):
    c = a / TWO_PI

    def fund(x):
        return x + omega + c * (x - math.floor(x))

    if c == 0.0:
        return fund, None
    p, d = c.as_integer_ratio()
    qu, pl = p / (d + p), d / (d + p)

    def line(x):
        return (1 + c) * x + omega

    sides = {
        True: (_clamped_oracle(line, qu, omega + c, 1, line(1)), (0.0, qu), (qu, omega + c, line(1))),
        False: (_clamped_oracle(line, 0, line(0), pl, omega + 1), (pl, 1.0), (pl, line(0), omega + 1)),
    }
    return fund, sides


CASES = [
    (standard_map, _standard_reference, (0.5, 1.0, 1.5, TWO_PI, 9.0)),
    (pwl_standard, _pwl_reference, (0.5, math.pi / 2, 2.0, 4.0, 9.0)),
    (disc_standard, _disc_reference, (0.0, 0.5, 3.0, 9.0)),
]


@pytest.mark.parametrize("make, reference, a_values", CASES, ids=["standard", "pwl", "disc"])
def test_flat_closures_match_the_composed_reference(make, reference, a_values):
    for omega in OMEGAS:
        for a in a_values:
            F = make(omega, a)
            ref, sides = reference(omega, a)
            _assert_bitwise(F.fundamental, ref, _points())
            assert F.is_non_decreasing == (sides is None)
            if sides is None:
                continue
            for upper, envelope_map in ((True, upper_map), (False, lower_map)):
                side_ref, (alpha, beta), specials = sides[upper]
                env = envelope_map(F)
                assert [(s.alpha, s.beta) for s in env.sections] == [(alpha, beta)]
                _assert_bitwise(env.lifting.fundamental, side_ref, _points(alpha, beta, *specials))


# ---------------------------------------------------------------------------
# Python frames per iterate

# the estimator alone: the precondition checks run inline, and the estimate is
# built with tuple.__new__, skipping the NamedTuple's Python-level __new__
FIXED_FRAMES = 1


def _python_calls(estimator, F, *args, **kwargs) -> Counter:
    """Python-level call events, by code object, while estimator(F, *args, **kwargs) runs."""
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        estimator(F, *args, **kwargs)
    finally:
        sys.setprofile(None)
    return calls


def _counted_run(estimator, F, *args, **kwargs):
    """(estimate, evaluations of F's fundamental), counted by a wrapper."""
    count = 0
    fund = F.fundamental

    def counted(x):
        nonlocal count
        count += 1
        return fund(x)

    est = estimator(F._replace(fundamental=counted), *args, **kwargs)
    return est, count


def _assert_one_frame_per_evaluation(estimator, F, *args, **kwargs):
    est, evaluations = _counted_run(estimator, F, *args, **kwargs)
    calls = _python_calls(estimator, F, *args, **kwargs)
    assert calls[F.fundamental.__code__] == evaluations
    assert sum(calls.values()) == evaluations + FIXED_FRAMES
    return est, evaluations


@pytest.mark.parametrize("make, a", [(standard_map, 0.5), (pwl_standard, 0.5), (disc_standard, 0.0)])
@pytest.mark.parametrize("omega", [0.37, 3.31])
def test_no_section_fallback_runs_one_frame_per_iterate(make, a, omega):
    # a non-decreasing map with no section: rho_direct with stop_on_repeat,
    # which evaluates F(0) once before its loop and once per iterate
    F = make(omega, a)
    assert F.is_non_decreasing and not upper_map(F).sections
    _, evaluations = _assert_one_frame_per_evaluation(rho_direct, F, 1e-4, stop_on_repeat=True)
    assert evaluations == 10**4 + 1  # no float repeat: every iterate runs


# envelope sides on the csb path: standard's parabolic-line cells of the 16 x 16
# tongue and disc near a rigid golden rotation exhaust 10^4 iterates; every
# pwl envelope is flat on half the circle, so its orbits hit within a few dozen
CSB_CELLS = [
    (standard_map, 4 / 15, 8 * math.pi / 15, False),
    (standard_map, 11 / 15, 8 * math.pi / 15, True),
    (pwl_standard, 14 / 31, 28 * math.pi / 31, False),
    (pwl_standard, 18 / 31, 16 * math.pi / 31, True),
    (disc_standard, GOLDEN_MEAN, 1e-3, False),
    (disc_standard, GOLDEN_MEAN, 1e-3, True),
]


@pytest.mark.parametrize("make, omega, a, upper", CSB_CELLS)
def test_csb_kernel_runs_one_frame_per_iterate(make, omega, a, upper):
    env = (upper_map if upper else lower_map)(make(omega, a))
    sec = widest_section(env.sections)
    tol = 1e-10
    est, evaluations = _assert_one_frame_per_evaluation(
        rho_constant_section, env.lifting, (sec.beta - sec.alpha) - 2.0 * tol, 1e-4, shift=sec.alpha + tol
    )
    # one evaluation per executed iterate: a hit's n of them, or all 10^4
    assert evaluations == (est.n if est.is_exact else 10**4) and evaluations >= 9


# the fixed frames of one staircase cell, hit or exhaust alike, besides its
# evaluations of the f_mu fundamental.  Every cell runs _staircase_cell and
# f_mu (a float mu skips _as_float); a csb cell adds rho_csb, _rho_of_sections
# and rho_constant_section (f_mu states its section, so no envelope is built),
# a direct cell rho_direct, and a simo cell whose orbit ties adds rho_simo,
# Fraction's __new__, PeriodicOrbitDetected.__init__ and
# Fraction.as_integer_ratio.  The section is read without widest_section, and
# the lifting, the estimate and the row are built without their NamedTuple's
# __new__
STAIRCASE_CELL_FRAMES = {"csb": 5, "direct": 3, "simo": 6}


@pytest.mark.parametrize(
    "algorithm, mu, kind",
    [
        ("csb", 0.3, "exact"),
        ("csb", 0.61, "exact"),
        ("csb", 0.0, "approx"),
        ("csb", 1.0, "approx"),
        ("direct", 0.3, "approx"),
        ("simo", 0.3, "exact"),
        ("simo", 0.0, "exact"),
    ],
)
def test_staircase_cell_runs_a_fixed_few_frames(algorithm, mu, kind):
    task = (SweepConfig(error=1e-5, algorithm=algorithm), mu)
    assert _staircase_cell(task).kind == kind
    calls = _python_calls(_staircase_cell, task)
    fund = f_mu(mu).fundamental.__code__  # every f_mu closure shares its code object
    assert calls[fund] >= 2
    assert sum(calls.values()) - calls[fund] == STAIRCASE_CELL_FRAMES[algorithm]
