"""The float maps the orbit loops run, and the kernels that run them.

Each family's fundamental and each side of its envelope is built from a
step, one expression that the estimators write into their loops.  The maps
must match the composed reference bit for bit (zeros told apart by sign):
x + omega - c tau(x), the sine or the floor fraction for the fundamental,
and a flat-branch-flat wrapper around that branch, with the flats' ends and
levels computed from it, for each envelope side.  Each compiled kernel must
give, field for field, the estimate its template gives when it calls the
fundamental instead.  A profiler's call events count the Python frames an
estimate runs, whatever the hardware: a fixed few for a family map, and one
more per executed iterate for a map with no step.
"""

import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from rotkit import (
    GOLDEN_MEAN,
    Lifting,
    PeriodicOrbitDetected,
    counterexample_map,
    disc_standard,
    f_mu,
    lower_map,
    pwl_standard,
    rho_constant_section,
    rho_direct,
    rho_simo,
    rotation_interval,
    standard_map,
    upper_map,
    widest_section,
)
from rotkit import families, rotnum
from rotkit.envelope import _root_on_increasing
from rotkit.lifting import STEPS, Step
from rotkit.sweep import StaircaseRow, SweepConfig, _staircase_call, _staircase_cell
from _oracles import _clamped_oracle, tau

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
                assert [(s.alpha, s.beta) for s in env.lifting.sections] == [(alpha, beta)]
                _assert_bitwise(env.lifting.fundamental, side_ref, _points(alpha, beta, *specials))


# ---------------------------------------------------------------------------
# Python frames per iterate

# the estimator and its kernel: the precondition checks run inline, and the
# estimate is built with tuple.__new__, skipping the NamedTuple's Python-level __new__.
# A fundamental with no step adds the kernel lookup that finds none
FIXED_FRAMES = 2


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


def _counting(F):
    """F with its fundamental behind a wrapper that counts its evaluations, and the count."""
    count = [0]
    fund = F.fundamental

    def counted(x):
        count[0] += 1
        return fund(x)

    return F._replace(fundamental=counted), count


def _assert_frames(estimator, build, *args, **kwargs):
    """(estimate, evaluations) of estimator on build()'s lifting: its step runs no frame of its own, the counting wrapper one per evaluation.

    Each warm-up call runs on a twin, a new function object of the same
    code, so the counted call finds the kernel compiled but meets no record
    of rho_direct's last stopping estimate.
    """
    F, twin = build(), build()
    assert twin.fundamental is not F.fundamental and twin.fundamental.__code__ is F.fundamental.__code__
    est = estimator(twin, *args, **kwargs)  # compiles the kernel outside the count
    calls = _python_calls(estimator, F, *args, **kwargs)
    assert calls[F.fundamental.__code__] == 0
    assert sum(calls.values()) == FIXED_FRAMES
    counted, count = _counting(twin)
    assert estimator(counted, *args, **kwargs) == est
    evaluations = count[0]
    counted, count = _counting(F)
    calls = _python_calls(estimator, counted, *args, **kwargs)
    assert count[0] == evaluations
    assert calls[counted.fundamental.__code__] == calls[F.fundamental.__code__] == evaluations
    assert sum(calls.values()) == FIXED_FRAMES + 1 + 2 * evaluations
    return est, evaluations


@pytest.mark.parametrize("make, a", [(standard_map, 0.5), (pwl_standard, 0.5), (disc_standard, 0.0)])
@pytest.mark.parametrize("omega", [0.37, 3.31])
def test_no_section_fallback_runs_a_fixed_few_frames(make, a, omega):
    # a non-decreasing map with no section: rho_direct with stop_on_repeat,
    # which evaluates F(0) once before its loop and once per iterate
    F = make(omega, a)
    assert F.is_non_decreasing and not upper_map(F).lifting.sections
    _, evaluations = _assert_frames(rho_direct, lambda: make(omega, a), 1e-4, stop_on_repeat=True)
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


def _section_call(G):
    """rho_constant_section's arguments after the lifting for G's widest section, as rho_csb passes them."""
    sec = widest_section(G.sections)
    tol = 1e-10
    return ((sec.beta - sec.alpha) - 2.0 * tol,), {"shift": sec.alpha + tol}


@pytest.mark.parametrize("make, omega, a, upper", CSB_CELLS)
def test_csb_kernel_runs_a_fixed_few_frames(make, omega, a, upper):
    side = upper_map if upper else lower_map
    (beta,), kw = _section_call(side(make(omega, a)).lifting)
    est, evaluations = _assert_frames(rho_constant_section, lambda: side(make(omega, a)).lifting, beta, 1e-4, **kw)
    # one evaluation per executed iterate: a hit's n of them, or all 10^4
    assert evaluations == (est.n if est.kind == "exact" else 10**4) and evaluations >= 9


# the fixed frames of one staircase cell, hit or exhaust alike; the f_mu
# fundamental itself runs no frame.  The sweep resolves the cell's one
# estimator call once (csb's section rule on f_mu's stated section), and the
# cell builds f_mu's record itself (its fundamental from f_mu's step factory,
# _FMU.make, one frame; the lifting by tuple.__new__), so every cell runs
# _staircase_cell and _FMU.make and then one estimator and its kernel:
# rho_constant_section for csb, rho_direct for direct and for csb with no
# section wider than 2*tol, rho_simo for simo, whose tied orbit adds
# Fraction's __new__, PeriodicOrbitDetected.__init__ and
# Fraction.as_integer_ratio.  The lifting, the estimate and the row are built
# without their NamedTuple's __new__
STAIRCASE_CELL_FRAMES = {"csb": 4, "direct": 4, "simo": 7}


@pytest.mark.parametrize(
    "algorithm, mu, tol, kind",
    [
        ("csb", 0.3, 1e-10, "exact"),
        ("csb", 0.61, 1e-10, "exact"),
        ("csb", 0.0, 1e-10, "approx"),
        ("csb", 1.0, 1e-10, "approx"),
        ("csb", 0.3, 0.2, "approx"),  # no usable section: rho_direct's stopping loop
        ("direct", 0.3, 1e-10, "approx"),
        ("simo", 0.3, 1e-10, "exact"),
        ("simo", 0.0, 1e-10, "exact"),
    ],
)
def test_staircase_cell_runs_a_fixed_few_frames(algorithm, mu, tol, kind):
    task = (_staircase_call(SweepConfig(error=1e-5, tol=tol, algorithm=algorithm)), mu)
    row = _staircase_cell(task)  # a plain tuple in StaircaseRow's field order
    assert type(row) is tuple and StaircaseRow(*row).kind == kind
    calls = _python_calls(_staircase_cell, task)
    assert calls[f_mu(mu).fundamental.__code__] == 0  # every f_mu fundamental shares its code object
    assert sum(calls.values()) == STAIRCASE_CELL_FRAMES[algorithm]


# ---------------------------------------------------------------------------
# compiled kernels against the template that calls the fundamental

# the whole periods by which the benchmark's tongue seeds move omega
SHIFTS = (0, 3, 8)


def _outcome(estimator, F, *args, **kwargs) -> tuple:
    """The estimate's fields, or a periodic orbit's rotation and iterates."""
    try:
        return tuple(estimator(F, *args, **kwargs))
    except PeriodicOrbitDetected as hit:
        return ("periodic", hit.rotation, hit.i, hit.j)


def _same_outcome(got: tuple, want: tuple) -> bool:
    return len(got) == len(want) and all(
        _same(g, w) if isinstance(w, float) else type(g) is type(w) and g == w for g, w in zip(got, want)
    )


def _assert_kernel_matches_call(estimator, G, *args, **kwargs) -> tuple:
    """G's estimate equals, field for field, that of a wrapper with no step, which the loop calls; returns it."""
    fund = G.fundamental
    assert id(fund.__code__) in STEPS  # G runs a compiled step
    want = _outcome(estimator, G._replace(fundamental=lambda x: fund(x)), *args, **kwargs)
    got = _outcome(estimator, G, *args, **kwargs)
    assert _same_outcome(got, want), (G.label, estimator.__name__, args, kwargs, got, want)
    return got


def _every_kernel(G, error: float, simo_n: int, sections=()) -> list[tuple]:
    """G through all four loops: plain and stopping direct, simo, and csb at shift 0 and on its widest section."""
    outcomes = [
        _assert_kernel_matches_call(rho_direct, G, error),
        _assert_kernel_matches_call(rho_direct, G, error, stop_on_repeat=True),
        _assert_kernel_matches_call(rho_simo, G, simo_n),
        _assert_kernel_matches_call(rho_constant_section, G, 1e-3, error),
    ]
    if sections:
        sec = widest_section(sections)
        outcomes.append(
            _assert_kernel_matches_call(rho_constant_section, G, sec.beta - sec.alpha - 2e-10, error, shift=sec.alpha + 1e-10)
        )
    return outcomes


def _liftings(F):
    """(lifting, sections) of F if it is non-decreasing, else of both its envelope sides."""
    if F.is_non_decreasing:
        return [(F, upper_map(F).lifting.sections)]
    return [(env.lifting, env.lifting.sections) for env in (upper_map(F), lower_map(F))]


@pytest.mark.parametrize("make, a_values", [(make, a_values) for make, _, a_values in CASES], ids=["standard", "pwl", "disc"])
def test_compiled_kernels_match_the_called_step(make, a_values):
    kinds = set()
    for k in SHIFTS:
        for omega in (0.0, 0.37, 0.5, 4 / 15):
            for a in a_values:
                for G, sections in _liftings(make(omega + k, a)):
                    for outcome in _every_kernel(G, 1e-3, 200, sections):
                        kinds.add("bracket" if isinstance(outcome[0], float) else outcome[0])
    # csb hits, estimates that exhaust, simo's ties and brackets all occur
    assert kinds == {"exact", "approx", "periodic", "bracket"}


@pytest.mark.parametrize("make, omega, a, upper", CSB_CELLS)
def test_compiled_csb_cells_match_the_called_step(make, omega, a, upper):
    for k in SHIFTS:
        env = (upper_map if upper else lower_map)(make(omega + k, a))
        _every_kernel(env.lifting, 1e-4, 1000, env.lifting.sections)


def test_compiled_kernels_match_the_called_step_at_segment_edges():
    # a rigid rotation by 1/16 is back at 0 after 16 steps, the first segment's
    # end; f_mu at rho = 1/16 enters its 16-cycle at iterate 1 (mu = 3/1024
    # survives the wrap mu + 1.0 - 1.0), so the checkpoint at 16 repeats at
    # 32, the second segment's end.  The counting wrapper's evaluations show
    # where each loop found the repeat: n = 1000 leaves 1000 - i = 61 * 16 + 8
    # or 60 * 16 + 8 steps, 8 of which run
    rigid, staircase = disc_standard(1 / 16, 0.0), f_mu(3 / 1024)
    for k in SHIFTS:
        _every_kernel(disc_standard(1 / 16 + k, 0.0), 1e-3, 200)
    for G in (staircase, counterexample_map()):
        _every_kernel(G, 1e-3, 200, G.sections)
    for F, evaluations in ((rigid, 1 + 16 + 8), (staircase, 1 + 32 + 8)):
        counted, count = _counting(F)
        rho_direct(counted, 1e-3, stop_on_repeat=True)
        assert count[0] == evaluations
    # the csb loop at a bound no cycle point of f_mu's meets: the same repeat, with no F(0) evaluation
    counted, count = _counting(staircase)
    assert rho_constant_section(counted, 1e-9, 1e-3).kind == "approx"
    assert count[0] == 32 + 8
    _assert_kernel_matches_call(rho_constant_section, staircase, 1e-9, 1e-3)


# budgets n = ceil(1/error) about the first segment's end, FIRST_SEGMENT = 16:
# a csb kernel iterates its prebuilt first range only for n > 16
BOUNDARY_BUDGETS = ((1.0, 1), (0.07, 15), (0.0625, 16), (0.06, 17))
# f_mu's csb estimate on its section hits at iterate 7, 15, 16 and 17
BOUNDARY_HITS = {0.3: 7, 7 / 2048: 15, 3 / 1024: 16, 1 / 512: 17}


def test_compiled_kernels_match_the_called_step_about_the_first_segment_end():
    assert rotnum.FIRST_SEGMENT == 16
    side = lower_map(standard_map(4 / 15, 8 * math.pi / 15))  # a standard tongue envelope side
    cases = [(F, F.sections) for F in (*map(f_mu, BOUNDARY_HITS), counterexample_map())]
    cases.append((side.lifting, side.lifting.sections))
    (beta,), kw = _section_call(f_mu(0.5))  # every f_mu has the section [3/4, 1]
    for error, n in BOUNDARY_BUDGETS:
        assert math.ceil(1.0 / error) == n
        for G, sections in cases:
            # rho_simo's budget is its n itself, and it takes no fewer than 2 iterates
            _every_kernel(G, error, max(n, 2), sections)
        for mu, hit in BOUNDARY_HITS.items():
            counted, count = _counting(f_mu(mu))
            est = rho_constant_section(counted, beta, error, **kw)
            assert est.kind == ("exact" if hit <= n else "approx") and est.iterations_used == min(hit, n)
            assert count[0] == min(hit, n)  # no more iterates than the budget, and none past the hit
        # the counterexample's section meets no cycle: every budget exhausts
        (cbeta,), ckw = _section_call(counterexample_map())
        assert rho_constant_section(counterexample_map(), cbeta, error, **ckw).kind == "approx"


def test_the_segmented_loops_two_fills_agree_where_no_state_hits():
    # at shift 0.0 the csb step of a state in [0, 1) is the stopping loop's
    # step - k, k = float(floor(F(0))) = 0.0, and a bound that only the states
    # 0.0 and 5e-324 meet leaves the hit test dead on these orbits: the two
    # loops _segmented_loop builds then give the same estimate, field for field,
    # with a compiled step or a called fundamental.  f_mu(3/1024) finds its
    # repeat at iterate 32 and pwl_standard(0.61, 1.5) at 136; the golden
    # rigid rotation (a = 0) does not repeat within 10^4 steps
    beta = math.ulp(0.0)
    maps = [f_mu(mu) for mu in (3 / 1024, 0.1, 0.3, 0.5, GOLDEN_MEAN / 2, 0.9)]
    maps += [counterexample_map(), standard_map(0.37, 0.8), standard_map(GOLDEN_MEAN, 1.0)]
    maps += [pwl_standard(0.37, 1.0), pwl_standard(0.61, 1.5), standard_map(GOLDEN_MEAN, 0.0)]
    for F in maps:
        fund = F.fundamental
        assert F.is_non_decreasing and math.floor(fund(0.0)) == 0, F.label
        for G in (F, F._replace(fundamental=lambda x, fund=fund: fund(x))):
            for error in (1e-3, 1e-4):
                got = tuple(rho_constant_section(G, beta, error))
                want = tuple(rho_direct(G, error, stop_on_repeat=True))
                assert got[0] == "approx" and _same_outcome(got, want), (G.label, error, got, want)


def test_a_replaced_fundamental_is_the_one_that_runs():
    # the kernel follows the fundamental's code object, never a stale step
    S, T, S2 = standard_map(0.37, 0.5), pwl_standard(0.37, 0.5), standard_map(0.41, 0.5)
    for G in (T, S2):
        swapped = S._replace(fundamental=G.fundamental)
        assert rho_direct(swapped, 1e-3) == rho_direct(G, 1e-3) != rho_direct(S, 1e-3)
        assert rho_direct(swapped, 1e-3, stop_on_repeat=True) == rho_direct(G, 1e-3, stop_on_repeat=True)
        assert rho_constant_section(swapped, 1e-3, 1e-3) == rho_constant_section(G, 1e-3, 1e-3)
        assert _outcome(rho_simo, swapped, 200) == _outcome(rho_simo, G, 200)
    counted, count = _counting(S)
    assert rho_direct(counted, 1e-3) == rho_direct(S, 1e-3) and count[0] == 1001


# ---------------------------------------------------------------------------
# the rigid step every circle family runs at a zero coefficient

FAMILY_STEPS = [(standard_map, families._STANDARD), (pwl_standard, families._PWL), (disc_standard, families._DISC)]
ZERO_COEFFICIENTS = [{"a": 0.0}, {"a_over_2pi": 0}, {"a": -0.0}]


def _rigid_cases():
    """(map at a zero coefficient, the family's own step at the same omega and c), for every family, zero and omega."""
    for make, step in FAMILY_STEPS:
        for zero in ZERO_COEFFICIENTS:
            for omega in (0.37, 3.31, 1 / 16, -0.0):
                _, c, _ = families._coefficient(zero.get("a"), zero.get("a_over_2pi"))  # a = -0.0 gives c = -0.0
                yield make(omega, **zero), step.make(omega, c)


def test_a_zero_coefficient_runs_the_rigid_step_with_the_family_steps_bits():
    for F, family in _rigid_cases():
        fund = F.fundamental
        assert fund.__code__ is families._RIGID.code, F.label
        omega = fund.__defaults__[0]
        for x in _points():
            if x == 0.0 == omega and math.copysign(1.0, x) == math.copysign(1.0, omega) == -1.0:
                # x + omega is -0.0: the one point where subtracting or adding c's zero term shows
                assert _same(fund(x), -0.0) and family(x) == 0.0, F.label
            else:
                assert _same(fund(x), family(x)), (F.label, x)
    # the documented case: the standard map's sine term turns x + omega = -0.0 into 0.0
    assert _same(standard_map(-0.0, 0.0).fundamental(-0.0), -0.0)
    assert _same(families._STANDARD.make(-0.0, 0.0)(-0.0), 0.0)


def test_the_rigid_kernels_match_the_family_step_called():
    for F, family in _rigid_cases():
        called = F._replace(fundamental=lambda x, family=family: family(x))
        for estimator, args, kwargs in (
            (rho_direct, (1e-3,), {}),
            (rho_direct, (1e-3,), {"stop_on_repeat": True}),
            (rho_simo, (200,), {}),
            (rho_constant_section, (1e-3, 1e-3), {}),
        ):
            got, want = _outcome(estimator, F, *args, **kwargs), _outcome(estimator, called, *args, **kwargs)
            assert _same_outcome(got, want), (F.label, estimator.__name__, kwargs, got, want)
        for method in ("csb", "direct"):
            got = rotation_interval(F, 1e-4, method=method)
            want = rotation_interval(F._replace(fundamental=family), 1e-4, method=method)
            assert all(_same_outcome(tuple(g), tuple(w)) for g, w in zip(got, want)), (F.label, method, got, want)


def test_no_step_rebinds_a_name_of_the_orbit_loops():
    # a step's constants become the kernel's locals: one the loop also binds
    # would change what the loop computes, and a name the step reads but does
    # not bind would resolve to a loop global in the kernel
    steps = [v for v in vars(families).values() if isinstance(v, Step)]
    assert len(steps) == 9
    for kernels in (rotnum._DIRECT, rotnum._STOPPING, rotnum._SIMO, rotnum._CSB):
        loop = kernels[0].__code__
        for step in steps:
            assert not set(step.bound) & set(loop.co_varnames), step.name
            assert all(step.env[n] is rotnum._LOOP_NAMES[n] for n in set(step.bound) & set(rotnum._LOOP_NAMES))
            assert set(compile(step.expr, "", "eval").co_names) <= {"x", *step.bound}, step.name


def test_a_step_compiles_once_when_threads_race():
    # threads that build a step's first maps at once share one code object, the
    # one STEPS knows, and estimate alike through kernels compiled by whichever asks first
    step = Step("racing", "x + omega", ("omega",))
    omegas = [GOLDEN_MEAN + i / 64 for i in range(64)]

    def estimate(omega):
        fund = step.make(omega)
        return fund, rho_direct(Lifting(fund, True, "racing"), 1e-3, stop_on_repeat=True)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(estimate, omegas, timeout=60))
    finally:
        sys.setswitchinterval(switch)
    assert {fund.__code__ for fund, _ in results} == {step.code}
    assert [key for key, s in STEPS.items() if s is step] == [id(step.code)]
    called = [Lifting(lambda x, o=o: x + o, True, "called") for o in omegas]
    assert [est for _, est in results] == [rho_direct(F, 1e-3, stop_on_repeat=True) for F in called]
