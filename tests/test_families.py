import math
import random
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
    pwl_standard,
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


def test_f_mu_domain():
    with pytest.raises(InvalidParam):
        f_mu(-0.1)
    with pytest.raises(InvalidParam):
        f_mu(1.5)


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
            assert F.fundamental(float(q)) == pytest.approx(float(F.fundamental_exact(q)), abs=1e-14)


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


def test_exact_twins_are_lazy_and_keep_parameter_semantics():
    # a float parameter's twin is its binary value; Fraction, int and str are taken as given
    q = Fraction(1, 5)
    assert f_mu(0.1).fundamental_exact(q) == Fraction(4, 3) * q + Fraction(0.1)
    assert Fraction(0.1) != Fraction(1, 10)
    for mu in (Fraction(1, 3), "1/3"):
        F = f_mu(mu)
        first = F.fundamental_exact(q)
        assert first == Fraction(4, 3) * q + Fraction(1, 3)
        assert F.fundamental_exact(q) == first
        assert F.fundamental_exact(Fraction(9, 10)) == Fraction(4, 3)
    assert f_mu(1).fundamental_exact(Fraction(0)) == 1
    for omega, omega_q in ((0.1, Fraction(0.1)), (Fraction(1, 10), Fraction(1, 10))):
        T = pwl_standard(omega, a_over_2pi=Fraction(1, 8))
        first = T.fundamental_exact(q)
        assert first == q + omega_q - Fraction(1, 8) * 4 * q
        assert T.fundamental_exact(q) == first
        D = disc_standard(omega, a_over_2pi=Fraction(1, 2))
        first = D.fundamental_exact(q)
        assert first == q + omega_q + Fraction(1, 2) * q
        assert D.fundamental_exact(q) == first


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


@pytest.mark.parametrize("make", [standard_map, pwl_standard, disc_standard])
def test_negative_coefficient_rejected(make):
    with pytest.raises(InvalidParam, match="non-negative"):
        make(0.0, -1.0)


def test_build_lifting_rejects_unknown_family():
    # the staircase family has no coefficient a and is not a circle family
    with pytest.raises(InvalidParam, match="unknown family 'fmu'"):
        build_lifting(FamilyParams(family="fmu", omega=0.0, a=1.0))


def test_exact_twin_built_on_first_call_only(monkeypatch):
    import rotkit.families as families

    made = []
    real = families._as_exact

    def counting(value):
        made.append(value)
        return real(value)

    monkeypatch.setattr(families, "_as_exact", counting)
    F = f_mu(0.25)
    T = pwl_standard(0.25, 9.0)
    assert made == []
    for _ in range(3):
        F.fundamental_exact(Fraction(1, 2))
    assert made == [0.25]
    T.fundamental_exact(Fraction(1, 2))
    T.fundamental_exact(Fraction(1, 3))
    assert made == [0.25, 0.25, 9.0 / TWO_PI]


@pytest.mark.parametrize("family", ["pwl", "disc"])
def test_tongue_sweep_builds_no_exact_twin(family, monkeypatch):
    # twins of the maps and of their envelopes come from knots on first call;
    # a float sweep must never build one
    import rotkit.envelope as envelope
    import rotkit.families as families
    import rotkit.lifting as lifting
    from rotkit.sweep import SweepConfig, arnold_tongue

    calls = []
    for module, name in ((lifting, "_knot_evaluator"), (envelope, "_exact_envelope_knots")):
        real = getattr(module, name)

        def counting(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(module, name, counting)
        monkeypatch.setattr(families, name, counting)
    cells = arnold_tongue(SweepConfig(family=family, a_steps=4, omega_steps=4, error=1e-4), Fraction(1, 2))
    assert len(cells) == 16 and calls == []
    # three of the four a rows are not non-decreasing, so their cells built envelopes
    assert not disc_standard(0, 4 * math.pi / 3).is_non_decreasing
    assert not pwl_standard(0, 4 * math.pi / 3).is_non_decreasing
    # the counters do see a twin that is used
    assert upper_map(pwl_standard(0.3, 9.0)).lifting.fundamental_exact(Fraction(1, 2)) is not None
    assert calls == ["_exact_envelope_knots", "_knot_evaluator"]
