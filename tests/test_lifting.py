import math
import random
from fractions import Fraction

import pytest

from rotkit import (
    GOLDEN_MEAN,
    ConstantSection,
    FamilyParams,
    RotationInterval,
    SimoBracket,
    counterexample_map,
    evaluate,
    evaluate_exact,
    f_mu,
    rho_direct,
    rho_simo,
    rotation_interval,
    standard_map,
)
from rotkit.lifting import Lifting
from rotkit.sweep import SweepConfig


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
    ],
)
def test_exact_evaluation_rejects_knots_that_do_not_run_from_0_to_1(knots):
    from rotkit import rho_constant_section_exact

    F = Lifting(lambda x: x, True, "user map", lambda: knots)
    for x in (Fraction(1, 20), Fraction(19, 20)):
        with pytest.raises(ValueError, match="lifting 'user map' has knots at x = "):
            evaluate_exact(F, x)
    with pytest.raises(ValueError, match="'user map'"):
        rho_constant_section_exact(F, 0.0, 0.5, 10)


def test_records_are_immutable_picklable_named_tuples():
    # every record is a tuple: the cheapest to build, copied with _replace
    import pickle

    records = {
        Lifting: f_mu(0.3),
        ConstantSection: ConstantSection(0.75, 1.0),
        RotationInterval: rotation_interval(standard_map(0.3, 2.0), 1e-4),
        SimoBracket: rho_simo(standard_map(GOLDEN_MEAN, 0.0), 500),
        FamilyParams: FamilyParams("pwl", 0.3, 1.0),
        SweepConfig: SweepConfig(mu_step=0.5),
    }
    for kind, record in records.items():
        assert type(record) is kind and isinstance(record, tuple)
        first = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, first, getattr(record, first))
        copy = record._replace(**{first: getattr(record, first)})
        assert type(copy) is kind and copy == record
        if kind is not Lifting:  # a family's fundamental is a closure
            assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(TypeError):
        SweepConfig(mu_min=0.0)
