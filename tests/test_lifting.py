import math
import random
from fractions import Fraction
from functools import partial

import pytest

from rotkit import (
    GOLDEN_MEAN,
    ConstantSection,
    RotationInterval,
    SimoBracket,
    counterexample_map,
    evaluate_exact,
    f_mu,
    rho_constant_section_exact,
    rho_direct,
    rho_simo,
    rotation_interval,
    standard_map,
)
from rotkit.lifting import Lifting, _exact_envelope_knots
from rotkit.sweep import SweepConfig
from _oracles import evaluate


def test_split_floor_uses_mathematical_floor():
    # evaluate hands the fundamental x - floor(x), with the mathematical floor
    seen = []

    def identity(x):
        seen.append(x)
        return x

    F = Lifting(
        fundamental=identity,
        is_non_decreasing=True,
        label="identity",
    )
    assert evaluate(F, -0.2) == pytest.approx(-0.2)
    assert seen[-1] == pytest.approx(0.8)
    assert evaluate(F, 2.25) == 2.25 and seen[-1] == 0.25
    assert evaluate(F, 0.0) == 0.0 and seen[-1] == 0.0


def test_eval_fmu_examples():
    F = f_mu(0)
    assert evaluate(F, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)
    # degree-1 identity F(x+1) = F(x) + 1
    assert evaluate(F, 1.5) == pytest.approx(5.0 / 3.0, abs=1e-15)


def test_eval_counterexample_flat_branch():
    F = counterexample_map()
    assert evaluate(F, 0.9) == 1.2


def test_orbit_step_counterexample_split():
    F = counterexample_map()
    value = evaluate(F, 0.8)
    assert math.floor(value) == 1
    assert value - 1 == pytest.approx(0.2, abs=1e-15)
    assert evaluate_exact(F, Fraction(4, 5)) == Fraction(6, 5)


def test_orbit_step_fmu_quarter_exact_value():
    # frozen from the rational oracle: F_{1/4}(0) = 1/4
    F = f_mu(Fraction(1, 4))
    assert evaluate_exact(F, Fraction(0)) == Fraction(1, 4)
    assert evaluate(F, 0.0) == 0.25


def test_iterate_n_examples():
    y = 0.0
    for _ in range(10):
        y = evaluate(f_mu(0), y)
    assert y == 0.0
    # rigid rotation by 1/3: exact arithmetic closes the cycle after 3 steps
    q = Fraction(0)
    for _ in range(3):
        q = evaluate_exact(_rigid_third(), q)
    assert q == 1


def _rigid_third():
    third = Fraction(1, 3)
    return Lifting(
        fundamental=lambda x: x + 1.0 / 3.0,
        is_non_decreasing=True,
        label="rigid-1/3",
        knots=lambda: [(0, third), (1, 1 + third)],
    )


def test_degree_one_gluing_on_families():
    for F in (f_mu(0.3), counterexample_map(), standard_map(0.2, 4.0)):
        assert abs(F.fundamental(1.0) - F.fundamental(0.0) - 1.0) < 1e-12


def test_periodicity_transport():
    # F(x + k) = F(x) + k for integer k, exact in rationals, 1e-12 in floats
    rng = random.Random(7)
    F = counterexample_map()
    for _ in range(100):
        x = rng.random()
        for k in range(-3, 4):
            assert evaluate(F, x + k) == pytest.approx(evaluate(F, x) + k, abs=1e-12)
            q = Fraction(rng.randint(0, 999), 1000)
            assert evaluate_exact(F, q + k) == evaluate_exact(F, q) + k


def test_orbit_split_matches_global_evaluation():
    # rho_direct's split orbit (m + x after n steps) tracks repeated global
    # evaluation within n * 1e-13
    F = counterexample_map()
    est = rho_direct(F, 1 / 2000)
    n = est.iterations_used
    assert n == 2000
    y = 0.0
    for _ in range(n):
        y = evaluate(F, y)
    assert abs(est.value * n - y) <= n * 1e-13


def test_orbit_monotone_in_start_point():
    F = f_mu(0.37)
    n = 50
    values = []
    for i in range(64):
        y = i / 64
        for _ in range(n):
            y = evaluate(F, y)
        values.append(y)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_exact_evaluator_missing():
    F = standard_map(0.1, 2.0)
    with pytest.raises(ValueError):
        evaluate_exact(F, Fraction(1, 2))


@pytest.mark.parametrize(
    "knots",
    [
        [(Fraction(1, 10), Fraction(1, 10)), (1, 1)],  # starts past 0: used to wrap around silently
        [(0, 0), (Fraction(9, 10), 1)],  # ends before 1: used to raise a bare IndexError at 19/20
        [(0, 0), (Fraction(1, 2), 1), (Fraction(1, 2), 1), (1, 1)],  # a repeated x
        [(0, 0)],
        # an upward jump at the integers, y_k < y_0 + 1: its envelopes used to leave F's graph
        [(0, 0), (Fraction(1, 2), Fraction(1, 4)), (1, Fraction(1, 2))],
    ],
)
def test_exact_evaluation_rejects_knots_that_do_not_run_from_0_to_1(knots):
    F = Lifting(lambda x: x, True, "user map", lambda: knots)
    for x in (Fraction(1, 20), Fraction(19, 20)):
        with pytest.raises(ValueError, match="lifting 'user map' has knots at x = "):
            evaluate_exact(F, x)
    with pytest.raises(ValueError, match="'user map'"):
        rho_constant_section_exact(F, 0.0, 0.5, 10)


@pytest.mark.parametrize("at", ["x", "y"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exact_readers_reject_knots_that_are_not_finite(bad, at):
    # a NaN or infinite y passed the order check, and evaluate_exact returned the float nan
    knot = (bad, Fraction(1, 2)) if at == "x" else (Fraction(1, 2), bad)
    F = Lifting(lambda x: x, True, "user map", lambda: [(0, 0), knot, (1, 1)])
    readers = [
        partial(evaluate_exact, F, Fraction(1, 4)),
        partial(rho_constant_section_exact, F, 0, Fraction(1, 10), 10),
        *(partial(_exact_envelope_knots, F, upper) for upper in (True, False)),
    ]
    for read in readers:
        with pytest.raises(ValueError, match=f"^a knot of lifting 'user map' must be a finite number, got {bad}$"):
            read()


def test_float_knots_are_read_at_their_binary_values():
    # these made evaluate_exact return the float 0.35 and the section orbit raise an AttributeError
    floats = [(0.0, 0.1), (0.5, 0.6), (1.0, 1.1)]
    exact = [(Fraction(x), Fraction(y)) for x, y in floats]
    K, Q = (Lifting(lambda x: x, True, "user map", lambda knots=knots: knots) for knots in (floats, exact))
    value = evaluate_exact(K, Fraction(1, 4))
    assert type(value) is Fraction and value == (Fraction(0.1) + Fraction(0.6)) / 2 == evaluate_exact(Q, Fraction(1, 4))
    # the binary 0.1 is a little above 1/10, so the orbit first falls back into [0, 1/10] at n = 10
    cert = rho_constant_section_exact(K, 0, Fraction(1, 10), 20)
    assert cert.kind == "exact" and (cert.m, cert.n) == (1, 10)
    for upper in (True, False):
        assert _exact_envelope_knots(K, upper) == _exact_envelope_knots(Q, upper)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_exact_evaluation_rejects_a_point_that_is_not_finite(x):
    # inf raised an OverflowError, and NaN a bare "cannot convert NaN to integer ratio"
    with pytest.raises(ValueError, match=f"^x must be a finite number, got {x}$"):
        evaluate_exact(f_mu(Fraction(3, 10)), x)


def test_records_are_immutable_picklable_named_tuples():
    # every record is a tuple: the cheapest to build, copied with _replace
    import pickle

    records = {
        Lifting: f_mu(0.3),
        ConstantSection: ConstantSection(0.75, 1.0),
        RotationInterval: rotation_interval(standard_map(0.3, 2.0), 1e-4),
        SimoBracket: rho_simo(standard_map(GOLDEN_MEAN, 0.0), 500),
        SweepConfig: SweepConfig(mu_step=0.5),
    }
    for kind, record in records.items():
        assert type(record) is kind and isinstance(record, tuple)
        first = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, first, getattr(record, first))
        copy = record._replace(**{first: getattr(record, first)})
        assert type(copy) is kind and copy == record
        if kind is not Lifting:  # a family's fundamental is a nested function, which pickle cannot look up
            assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(TypeError):
        SweepConfig(mu_min=0.0)
