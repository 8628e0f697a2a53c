import math
import random
import sys
from fractions import Fraction

import pytest

from rotkit import (
    FamilyParams,
    InvalidParam,
    build_lifting,
    counterexample_map,
    disc_standard,
    evaluate,
    evaluate_exact,
    f_mu,
    lower_map,
    pwl_standard,
    rho_constant_section_exact,
    standard_map,
    tau,
    upper_map,
)

TWO_PI = 2.0 * math.pi


def test_f_mu_values():
    assert f_mu(0).fundamental(0.75) == pytest.approx(1.0, abs=1e-15)
    assert evaluate(f_mu(0.5), 0.9) == 1.5
    F = f_mu(Fraction(819, 3124))
    assert evaluate_exact(F, Fraction(0)) == Fraction(819, 3124)


@pytest.mark.parametrize(
    "mu, message",
    [
        (math.nan, "mu must be finite, got nan"),
        (math.inf, "mu must be finite, got inf"),
        (-math.inf, "mu must be finite, got -inf"),
        (-0.1, "mu must lie in [0, 1], got -0.1"),
        (1.5, "mu must lie in [0, 1], got 1.5"),
        ("-1/10", "mu must lie in [0, 1], got -0.1"),
        (Fraction(3, 2), "mu must lie in [0, 1], got 1.5"),
        (2, "mu must lie in [0, 1], got 2.0"),
        ("1/0", "mu has a zero denominator, got '1/0'"),
    ],
)
def test_f_mu_domain(mu, message):
    with pytest.raises(InvalidParam) as raised:
        f_mu(mu)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "mu, mu_f, exact",
    [
        ("3/10", 0.3, Fraction(3, 10)),
        (Fraction(3, 10), 0.3, Fraction(3, 10)),
        (0, 0.0, Fraction(0)),
        (0.3, 0.3, Fraction(0.3)),  # a float's knots hold its binary value
        (-0.0, -0.0, Fraction(0)),
    ],
    ids=repr,
)
def test_f_mu_reads_every_parameter_type_alike(mu, mu_f, exact):
    # a float mu is read as is, any other type through its float value mu_f:
    # the fundamental's bits (zeros told apart by sign) are (4/3) x + mu_f and
    # mu_f + 1, and the knots hold the parameter's exact twin
    F = f_mu(mu)
    for x in (0.0, 0.25, 0.5, 0.75, 0.7500000000000001, 0.9, 1.0):
        expected = mu_f + 1.0 if x > 0.75 else (4.0 / 3.0) * x + mu_f
        assert F.fundamental(x).hex() == expected.hex()
    assert F.knots() == [(0, exact), (Fraction(3, 4), exact + 1), (1, exact + 1)]
    assert (F.is_non_decreasing, F.label) == (True, "F_mu")


def test_tau_wave():
    assert tau(0.25) == 1.0
    assert tau(0.5) == 0.0
    assert tau(0.75) == -1.0
    assert tau(0.0) == 0.0 and tau(1.0) == 0.0


def test_standard_map_values():
    assert standard_map(0, 3.0).fundamental(0.0) == 0.0
    # a = 2*pi gives coefficient 1: S(1/4) = 1/4 - 1
    assert standard_map(0, TWO_PI).fundamental(0.25) == pytest.approx(0.25 - 1.0, abs=1e-15)
    R = standard_map(0.5, 0)
    for x in (0.0, 0.3, 0.9):
        assert R.fundamental(x) == pytest.approx(x + 0.5, abs=1e-15)


def test_standard_map_monotone_class():
    assert standard_map(0, 1.0).is_non_decreasing is True
    assert standard_map(0, 1.0 + 1e-9).is_non_decreasing is False


def test_standard_map_odd_symmetry():
    S = standard_map(0, 2.3)
    for i in range(200):
        x = i / 200
        assert evaluate(S, -x) == pytest.approx(-evaluate(S, x), abs=1e-14)


def test_pwl_standard_vertices():
    T = pwl_standard(0, 2.5 * math.pi)
    assert evaluate(T, 0.25) == pytest.approx(-1.0, abs=1e-14)
    assert evaluate(T, 0.75) == pytest.approx(2.0, abs=1e-14)
    assert pwl_standard(0, math.pi / 2).is_non_decreasing is True
    assert pwl_standard(0, math.pi / 2 + 1e-9).is_non_decreasing is False


def test_disc_standard_values_and_limits():
    D = disc_standard(0, TWO_PI)
    assert evaluate(D, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert evaluate(D, 0.0) == 0.0
    # left limit at 1
    assert D.fundamental(math.nextafter(1.0, 0.0)) == pytest.approx(2.0, abs=1e-15)
    assert D.fundamental(1.0) == pytest.approx(1.0, abs=1e-15)
    assert D.is_non_decreasing is False
    with pytest.raises(InvalidParam):
        disc_standard(0, -1.0)


def test_disc_standard_heavy_inequality_at_integers():
    D = disc_standard(0.3, 5.0)
    # right limit == value <= left limit at the wrap point
    assert D.fundamental(math.nextafter(0.0, 1.0)) == pytest.approx(D.fundamental(0.0), abs=1e-15)
    assert D.fundamental(0.0) <= D.fundamental(math.nextafter(1.0, 0.0)) - 1.0 + 1e-15


def test_counterexample_pieces():
    F = counterexample_map()
    assert evaluate(F, 0.3) == pytest.approx(0.4, abs=1e-15)
    assert evaluate(F, 0.1) == pytest.approx(0.3, abs=1e-15)
    assert evaluate(F, 0.4) == pytest.approx(1.1, abs=1e-15)


def test_counterexample_cycle_and_section_orbit():
    F = counterexample_map()
    # the 3-cycle 0.1 -> 0.3 -> 0.4 -> 1.1, exactly in rationals
    x = Fraction(1, 10)
    for expected in (Fraction(3, 10), Fraction(2, 5), Fraction(11, 10)):
        x = evaluate_exact(F, x)
        assert x == expected
    # F^3 of the section: {1.2} -> {1.35} -> {1.75}
    x = Fraction(9, 10)
    seen = []
    for _ in range(3):
        x = evaluate_exact(F, x)
        seen.append(x)
    assert seen == [Fraction(6, 5), Fraction(27, 20), Fraction(7, 4)]


def test_counterexample_breakpoint_continuity_exact():
    F = counterexample_map()
    for bp in (Fraction(1, 10), Fraction(3, 10), Fraction(2, 5), Fraction(4, 5), Fraction(1)):
        eps = Fraction(1, 10**12)
        below = evaluate_exact(F, bp - eps)
        at = evaluate_exact(F, bp)
        assert abs(at - below) <= 8 * eps  # slopes are at most 7


def test_exact_and_float_agree_on_random_rationals():
    rng = random.Random(42)
    maps = [
        pwl_standard(Fraction(1, 3), a_over_2pi=Fraction(7, 5)),
        disc_standard(Fraction(2, 7), a_over_2pi=Fraction(3, 2)),
        f_mu(Fraction(3, 10)),
        counterexample_map(),
    ]
    for F in maps:
        for _ in range(250):
            q = Fraction(rng.randint(0, 10**6), 10**6)
            assert F.fundamental(float(q)) == pytest.approx(float(evaluate_exact(F, q)), abs=1e-14)


def test_degree_one_invariant_all_families():
    for F in (
        f_mu(0.62),
        standard_map(0.1, 5.0),
        pwl_standard(0.4, 9.0),
        disc_standard(0.25, 3.0),
        counterexample_map(),
    ):
        assert abs(F.fundamental(1.0) - F.fundamental(0.0) - 1.0) < 1e-12
        for x in (0.1, 0.5, 0.93):
            assert evaluate(F, x + 1.0) == pytest.approx(evaluate(F, x) + 1.0, abs=1e-12)


def test_declared_monotone_families_are_monotone_on_grid():
    maps = (
        f_mu(0.41),
        counterexample_map(),
        standard_map(0.2, 1.0),
        pwl_standard(0.7, math.pi / 2),
        disc_standard(0.1, 0),
    )
    for F in maps:
        assert F.is_non_decreasing is True
        prev = F.fundamental(0.0)
        for i in range(1, 4097):
            cur = F.fundamental(i / 4096)
            assert cur >= prev - 1e-12
            prev = cur


def test_coefficient_parametrizations_match():
    a = 2.5 * math.pi
    T1 = pwl_standard(0, a)
    T2 = pwl_standard(0, a_over_2pi=Fraction(5, 4))
    for i in range(100):
        x = i / 100
        assert T1.fundamental(x) == pytest.approx(T2.fundamental(x), abs=1e-14)
    with pytest.raises(InvalidParam):
        pwl_standard(0)
    with pytest.raises(InvalidParam):
        pwl_standard(0, 1.0, a_over_2pi=Fraction(1, 2))


def test_exact_evaluation_keeps_parameter_semantics():
    # a float parameter's twin is its binary value; Fraction, int and str are taken as given
    q = Fraction(1, 5)
    assert evaluate_exact(f_mu(0.1), q) == Fraction(4, 3) * q + Fraction(0.1)
    assert Fraction(0.1) != Fraction(1, 10)
    for mu in (Fraction(1, 3), "1/3"):
        F = f_mu(mu)
        assert evaluate_exact(F, q) == Fraction(4, 3) * q + Fraction(1, 3)
        assert evaluate_exact(F, Fraction(9, 10)) == Fraction(4, 3)
    assert evaluate_exact(f_mu(1), Fraction(0)) == 1
    for omega, omega_q in ((0.1, Fraction(0.1)), (Fraction(1, 10), Fraction(1, 10))):
        T = pwl_standard(omega, a_over_2pi=Fraction(1, 8))
        assert evaluate_exact(T, q) == q + omega_q - Fraction(1, 8) * 4 * q
        D = disc_standard(omega, a_over_2pi=Fraction(1, 2))
        assert evaluate_exact(D, q) == q + omega_q + Fraction(1, 2) * q


def test_exact_entry_points_take_a_float_at_its_binary_value():
    F = f_mu(Fraction(3, 10))
    assert evaluate_exact(F, 0.5) == evaluate_exact(F, Fraction(1, 2)) == Fraction(29, 30)
    assert evaluate_exact(F, 0.1) == Fraction(4, 3) * Fraction(0.1) + Fraction(3, 10)
    assert evaluate_exact(F, -1.25) == evaluate_exact(F, Fraction(3, 4)) - 2
    cert = rho_constant_section_exact(F, 0.75, 1.0, 10_000)
    assert cert == rho_constant_section_exact(F, Fraction(3, 4), Fraction(1), 10_000)
    assert cert is not None and (cert.m, cert.n) == (3, 7)
    with pytest.raises(TypeError):
        evaluate_exact(F, None)


@pytest.mark.parametrize(
    "make",
    [
        lambda v: f_mu(v),
        lambda v: standard_map(v, 1.0),
        lambda v: standard_map(0.0, v),
        lambda v: pwl_standard(v, 1.0),
        lambda v: pwl_standard(0.0, a_over_2pi=v),
        lambda v: disc_standard(v, 1.0),
        lambda v: disc_standard(0.0, v),
    ],
)
def test_non_finite_parameters_rejected(make):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParam):
            make(value)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: standard_map("1/0", 1.0), "omega has a zero denominator, got '1/0'"),
        (lambda: pwl_standard(0, a_over_2pi="1/0"), "a_over_2pi has a zero denominator, got '1/0'"),
        (lambda: disc_standard(0.0, "1/0"), "a has a zero denominator, got '1/0'"),
    ],
)
def test_zero_denominator_rejected(make, message):
    with pytest.raises(InvalidParam) as raised:
        make()
    assert str(raised.value) == message


@pytest.mark.parametrize("make", [standard_map, pwl_standard, disc_standard])
def test_negative_coefficient_rejected(make):
    with pytest.raises(InvalidParam, match="a must be non-negative, got -1.0"):
        make(0.0, -1.0)
    with pytest.raises(InvalidParam, match="a must be non-negative, got"):
        make(0.0, a_over_2pi=-0.5)


def test_build_lifting_rejects_unknown_family():
    # the staircase family has no coefficient a and is not a circle family
    with pytest.raises(InvalidParam, match="unknown family 'fmu'"):
        build_lifting(FamilyParams(family="fmu", omega=0.0, a=1.0))


def _fraction_constructors() -> set:
    """Code objects through which fractions builds a Fraction: __new__, and _from_coprime_ints where it exists."""
    made = [Fraction.__new__, getattr(Fraction, "_from_coprime_ints", None)]
    return {getattr(f, "__func__", f).__code__ for f in made if f is not None}


def _count_knot_reads(monkeypatch) -> list:
    """Route every family knots function and the envelope knots routine through a log of their names."""
    import rotkit.families as families

    calls = []
    for name in ("_fmu_knots", "_pwl_knots", "_disc_knots", "_counterexample_knots", "_exact_envelope_knots"):
        real = getattr(families, name)

        def counting(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(families, name, counting)
    return calls


@pytest.mark.parametrize("param", [0.3, 1, Fraction(3, 10)], ids=type)
def test_building_maps_and_envelopes_builds_no_fraction_and_reads_no_knots(param, monkeypatch):
    calls = _count_knot_reads(monkeypatch)
    constructors = _fraction_constructors()
    made = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in constructors:
            made.append(frame.f_code.co_name)

    builders = [
        lambda: f_mu(param),
        counterexample_map,
        lambda: standard_map(param, 9.0),
        lambda: standard_map(param, 0.5),
        lambda: disc_standard(param, 0),
        *(lambda c=c: pwl_standard(param, a_over_2pi=c) for c in (param, Fraction(1, 4), 0.1)),
        *(lambda c=c: disc_standard(param, a_over_2pi=c) for c in (param, Fraction(1, 4))),
    ]
    sys.setprofile(profile)
    try:
        for build in builders:
            F = build()
            for side in (upper_map, lower_map):
                side(F)
    finally:
        sys.setprofile(None)
    assert made == [] and calls == []
    # the counters do see a map's knots being read, and the envelopes' knots come from them
    assert evaluate_exact(upper_map(pwl_standard(param, a_over_2pi=param)).lifting, Fraction(1, 2)) is not None
    assert calls == ["_pwl_knots", "_exact_envelope_knots"]


def test_each_exact_evaluation_reads_the_knots_again(monkeypatch):
    calls = _count_knot_reads(monkeypatch)
    F = f_mu(0.25)
    E = lower_map(disc_standard(0.25, 9.0)).lifting
    assert calls == []
    for k in range(1, 4):
        evaluate_exact(F, Fraction(1, 2))
        assert calls == ["_fmu_knots"] * k
    calls.clear()
    evaluate_exact(E, Fraction(1, 2))
    evaluate_exact(E, Fraction(1, 3))
    assert calls == ["_disc_knots", "_exact_envelope_knots"] * 2
    # a certificate reads them once per orbit, however long the orbit
    calls.clear()
    cert = rho_constant_section_exact(f_mu(Fraction(819, 3124)), Fraction(3, 4), Fraction(1), 100)
    assert (cert.m, cert.n) == (2, 5) and calls == ["_fmu_knots"]


SWEEPS = {
    "pwl tongue": ("tongue", {"family": "pwl", "a_steps": 4, "omega_steps": 4}),
    "disc tongue": ("tongue", {"family": "disc", "a_steps": 4, "omega_steps": 4}),
    "csb staircase": ("staircase", {"mu_step": 0.01}),
    "simo staircase": ("staircase", {"mu_step": 0.01, "algorithm": "simo", "simo_n": 200}),
}


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_float_sweeps_read_no_knots(sweep, monkeypatch):
    # every PL map and envelope carries knots, and a float sweep must never read them
    from rotkit.sweep import SweepConfig, arnold_tongue, devils_staircase

    calls = _count_knot_reads(monkeypatch)
    problem, fields = SWEEPS[sweep]
    cfg = SweepConfig(error=1e-4, **fields)
    if problem == "tongue":
        rows = arnold_tongue(cfg, Fraction(1, 2))
        assert len(rows) == 16
        # three of the four a rows are not non-decreasing, so their cells built envelopes
        assert not disc_standard(0, 4 * math.pi / 3).is_non_decreasing
        assert not pwl_standard(0, 4 * math.pi / 3).is_non_decreasing
    else:
        assert len(devils_staircase(cfg)) == 101
    assert calls == []
