import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from rotkit import (
    GOLDEN_MEAN,
    InvalidSection,
    PeriodicOrbitDetected,
    RotationEstimate,
    counterexample_map,
    disc_standard,
    evaluate_exact,
    f_mu,
    lower_map,
    pwl_standard,
    rho_constant_section,
    rho_constant_section_exact,
    rho_csb,
    rho_direct,
    rho_simo,
    rotation_interval,
    simo_error_bound,
    standard_map,
    upper_map,
    widest_section,
)
from _oracles import (
    _shifted,
    direct_value_oracle,
    ell_of_n,
    exact_section_certificate,
    first_repeat,
    knots_exact_oracle,
    pl_lifting,
    random_flat_pl_lifting,
    section_orbit_oracle,
    simo_oracle,
)

TWO_PI = 2.0 * math.pi


def _rigid(omega, omega_q=None):
    from rotkit.lifting import Lifting

    return Lifting(
        fundamental=lambda x: x + omega,
        is_non_decreasing=True,
        label=f"rigid({omega})",
        knots=None if omega_q is None else (lambda: [(0, omega_q), (1, 1 + omega_q)]),
    )


# ---------------------------------------------------------------------------
# direct estimator


def test_rho_direct_rigid_golden():
    est = rho_direct(_rigid(GOLDEN_MEAN), 1e-4)
    assert est.kind == "approx"
    assert est.error_bound == pytest.approx(1e-4)
    assert abs(est.value - GOLDEN_MEAN) < 1e-4


def test_rho_direct_counterexample_third():
    est = rho_direct(counterexample_map(), 1e-6)
    assert abs(est.value - 1.0 / 3.0) < 1e-6


def test_rho_direct_fixed_point():
    est = rho_direct(f_mu(0), 1e-3)
    assert est.value == 0.0


def test_rho_direct_normalization_outside_unit():
    # F(0) = 2.7: the estimator shifts by 2 and adds it back
    est = rho_direct(_rigid(2.7), 1e-4)
    assert abs(est.value - 2.7) < 1e-4


def test_rho_direct_requires_monotone():
    with pytest.raises(ValueError):
        rho_direct(standard_map(0, 3.0), 1e-3)


def test_rho_direct_matches_independent_oracle():
    for mu in (0.3, 0.123, 0.777):
        F = f_mu(mu)
        est = rho_direct(F, 1e-3)
        assert est.value == direct_value_oracle(F.fundamental, 1e-3)


# ---------------------------------------------------------------------------
# no-section fallback: rho_direct with stop_on_repeat, bit-identical to the plain loop


def _fields(est):
    return est.kind, est.value.hex(), est.error_bound, est.iterations_used


def _assert_fallback_matches(G, error):
    est = rho_direct(G, error, stop_on_repeat=True)
    plain = rho_direct(G, error)
    n = math.ceil(1.0 / error)
    assert _fields(est) == _fields(plain) == ("approx", direct_value_oracle(G.fundamental, error).hex(), 1.0 / n, n)
    return est


@pytest.mark.parametrize("family", ["standard", "pwl", "disc"])
@pytest.mark.parametrize("omega_range", [(0.0, 1.0), (3.0, 4.0), (-3.0, -2.0)])
def test_fallback_bit_identical_on_tongue_no_section_endpoints(family, omega_range, monkeypatch):
    # at a = 0, F(0) = omega: floor(F(0)) takes the values 0, 1; 3, 4 and -3,
    # -2, so the k0 normalization is part of what must match
    import rotkit.rotnum as rotnum
    from rotkit.sweep import SweepConfig, arnold_tongue

    calls = []
    real = rotnum.rho_direct

    def recording(G, error, **kwargs):
        est = real(G, error, **kwargs)
        calls.append((G, error, kwargs, est))
        return est

    monkeypatch.setattr(rotnum, "rho_direct", recording)
    o_lo, o_hi = omega_range
    cfg = SweepConfig(family=family, a_steps=4, omega_steps=4, omega_min=o_lo, omega_max=o_hi, error=1e-4, tol=1e-10)
    arnold_tongue(cfg, Fraction(1, 2))
    assert len(calls) == 8  # the a = 0 row: 4 non-decreasing cells without a section, 2 endpoints each
    k0s = set()
    for G, error, kwargs, est in calls:
        assert kwargs == {"stop_on_repeat": True}
        assert _fields(est) == _fields(_assert_fallback_matches(G, error))
        k0s.add(math.floor(G.fundamental(0.0)))
    assert k0s == set(range(math.floor(o_lo), math.floor(o_hi) + 1))


def test_fallback_bit_identical_on_invertible_standard_fixed_point():
    # a <= 1, omega 0: the fixed point 0 repeats at iterate 1
    for a in (0.0, 0.5, 1.0):
        S = standard_map(0.0, a)
        est = _assert_fallback_matches(S, 1e-4)
        assert est.value == 0.0
        ri = rotation_interval(S, 1e-4)
        assert _fields(ri.lower) == _fields(ri.upper) == _fields(est)


@pytest.mark.parametrize("omega", [0.25, 0.375, 2.625, -0.125])
@pytest.mark.parametrize("error", [1e-3, 3e-4])
def test_fallback_bit_identical_on_dyadic_rotation(omega, error):
    # x + omega is exact in floats, so the orbit's period is reached exactly;
    # error 3e-4 leaves rem > 0 leftover steps after the whole periods
    est = _assert_fallback_matches(_rigid(omega), error)
    assert abs(est.value - omega) <= est.error_bound


def test_plain_rho_direct_runs_every_iterate_and_fallback_stops():
    calls = [0]
    base = standard_map(0.0, 0.5)

    def counting(x, _f=base.fundamental):
        calls[0] += 1
        return _f(x)

    S = base._replace(fundamental=counting)
    for error in (1e-3, 1e-4, 3e-5):
        calls[0] = 0
        rho_direct(S, error)
        # the paper's baseline: floor(F(0)) plus exactly ceil(1/error) iterates
        assert calls[0] == 1 + math.ceil(1.0 / error)
        calls[0] = 0
        rho_direct(S, error, stop_on_repeat=True)
        assert calls[0] == 2
    calls[0] = 0
    rotation_interval(S, 1e-4)  # the csb method's fallback, both endpoints
    assert calls[0] == 4
    calls[0] = 0
    rotation_interval(S, 1e-4, method="direct")
    assert calls[0] == 2 * (1 + 10_000)
    with pytest.raises(ValueError, match="unknown rotation-interval method 'simo'"):
        rotation_interval(S, 1e-4, method="simo")


# ---------------------------------------------------------------------------
# orbit-sorting bracket


def test_rho_simo_contains_golden():
    br = rho_simo(_rigid(GOLDEN_MEAN), 1000)
    assert br.rho_min <= GOLDEN_MEAN <= br.rho_max
    assert br.is_consistent


def test_rho_simo_counterexample_brackets_third():
    # the float orbit closes onto the 3-cycle, so either a bracket containing
    # 1/3 or an exact periodic-orbit detection of 1/3 is a sound outcome
    try:
        br = rho_simo(counterexample_map(), 1000)
    except PeriodicOrbitDetected as hit:
        assert hit.rotation == Fraction(1, 3)
    else:
        assert br.rho_min <= 1.0 / 3.0 <= br.rho_max


def test_rho_simo_needs_two_iterates():
    for n in (1, 0, -5):
        with pytest.raises(ValueError, match="at least 2 iterates"):
            rho_simo(_rigid(GOLDEN_MEAN), n)


def test_rho_simo_detects_rational_cycle():
    with pytest.raises(PeriodicOrbitDetected) as info:
        rho_simo(_rigid(1.0 / 3.0), 1000)
    assert info.value.rotation == Fraction(1, 3)


def test_periodic_orbit_detected_pickles_with_its_cycle():
    # a pool worker's exception reaches the parent through pickle
    import pickle

    exc = PeriodicOrbitDetected(Fraction(5, 11), 3, 14)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is PeriodicOrbitDetected
    assert (back.rotation, back.i, back.j) == (Fraction(5, 11), 3, 14)
    assert back.args == (Fraction(5, 11), 3, 14)
    assert str(back) == str(exc) == "periodic orbit: rho = 5/11 from iterates 3 and 14"


def test_rho_simo_shift_is_added_back():
    with pytest.raises(PeriodicOrbitDetected) as info:
        rho_simo(_rigid(1.25), 1000)
    assert info.value.rotation == Fraction(5, 4)
    br = rho_simo(_rigid(GOLDEN_MEAN + 2.0), 500)
    assert br.rho_min <= GOLDEN_MEAN + 2.0 <= br.rho_max


def _simo_outcome(F, n):
    """rho_simo's result in simo_oracle's shape, with bracket floats as hex."""
    try:
        br = rho_simo(F, n)
    except PeriodicOrbitDetected as hit:
        return "cycle", hit.rotation, hit.i, hit.j
    assert br.n == n
    return "bracket", br.rho_min.hex(), br.rho_max.hex()


def _simo_oracle_outcome(F, n):
    kind, *rest = simo_oracle(F.fundamental, n)
    return (kind, *rest) if kind == "cycle" else (kind, *(v.hex() for v in rest))


@pytest.mark.parametrize(
    "n, kinds",
    [
        (2, {"bracket": 749, "cycle": 252}),
        (3, {"bracket": 642, "cycle": 359}),
        (50, {"cycle": 1001}),
        (1000, {"cycle": 1001}),
    ],
)
def test_rho_simo_matches_oracle_on_staircase_grid(n, kinds):
    # the simo staircase grid at mu_step 1e-3, field for field
    from rotkit.sweep import SweepConfig, mu_grid

    seen = Counter()
    for mu in mu_grid(SweepConfig(mu_step=1e-3)):
        F = f_mu(mu)
        outcome = _simo_outcome(F, n)
        assert outcome == _simo_oracle_outcome(F, n), mu
        seen[outcome[0]] += 1
    assert seen == kinds


def test_rho_simo_first_tie_of_rigid_tenth():
    # x_11 = 0.09999999999999987 sorts just below x_1 = 0.1: at n = 12 the
    # first tie is between unequal values; x_21 repeats x_11 exactly
    R = _rigid(0.1)
    assert _simo_outcome(R, 12) == _simo_oracle_outcome(R, 12) == ("cycle", Fraction(1, 10), 1, 11)
    assert _simo_outcome(R, 21) == _simo_oracle_outcome(R, 21) == ("cycle", Fraction(1, 10), 11, 21)


def _brent_stop(i, j):
    """Iterate at which a checkpoint moved to iterates 1, 2, 4, ... first sees x_j == x_i repeat.

    The checkpoint at c (c = 0 first) is compared up to iterate max(2c, 1);
    it sees the cycle once c >= i, at c + (j - i), if the period fits.
    """
    period = j - i
    c = 0
    while c < i or period > max(c, 1):
        c = max(2 * c, 1)
    return c + period


SIMO_EDGE_MAPS = {
    "fmu(0)": lambda: f_mu(0.0),
    "fmu(1)": lambda: f_mu(1.0),
    "rigid(1/4)": lambda: _rigid(0.25),
    "fmu(0.011)": lambda: f_mu(0.011),
    "fmu(0.2)": lambda: f_mu(0.2),
    "fmu(0.5)": lambda: f_mu(0.5),
    "standard(3.31, 1)": lambda: standard_map(3.31, 1.0),
    "pwl(-2.6, 1)": lambda: pwl_standard(-2.6, 1.0),
    # 0 -> 3/8 -> 5/8 -> 1/4 -> 5/8: the checkpoint at 2 opens the cycle, so
    # only the fill repeats a state, and 1/4 sorts below 5/8
    "2-cycle after 2": lambda: pl_lifting([0, 0.25, 0.375, 0.625, 1], [0.375, 0.625, 0.625, 1.25, 1.375])._replace(
        is_non_decreasing=True
    ),
}


def test_rho_simo_matches_oracle_at_the_completion_edges():
    # rho_simo stops at the first repeated float state and completes one lap
    # past it (cut short at n); n is placed around that stop from the orbit's
    # first repeat, so that the full orbit is the stored one plus one step,
    # part of a lap, one lap, or whole laps plus period - 1 steps, and every
    # outcome must equal the full loop's
    edges = set()
    for label, make in SIMO_EDGE_MAPS.items():
        F = make()
        fund = F.fundamental
        k0 = math.floor(fund(0.0))
        i, j = first_repeat(fund, 10_000)
        stop, period = _brent_stop(i, j), j - i
        if stop == 1:
            edges.add("repeat at iterate 1, k0 = 1" if k0 == 1 else "repeat at iterate 1")
        if i == 0:
            edges.add("return to 0.0")
        elif stop - period == i:
            edges.add("checkpoint opens the cycle")
        if k0 not in (0, 1):
            edges.add("k0 shift")
        ns = {2, 3, 50, 1000, stop - 1, stop, stop + 1, stop - 1 + period, stop + 2 * period - 2}
        for n in sorted(n for n in ns if n >= 2):
            outcome = _simo_outcome(F, n)
            assert outcome == _simo_oracle_outcome(F, n), (label, n)
            if stop <= n:
                assert outcome[0] == "cycle", (label, n)  # a repeat always ties
                rem = (n + 1 - stop) % period
                if stop == n:
                    edges.add("repeat at n")
                elif rem in (0, period - 1):
                    edges.add("rem 0" if rem == 0 else "rem p-1")
                if outcome[3] >= stop:
                    edges.add("tie past the stop")
                if period > 1 and outcome[3] == stop + period - 1:
                    edges.add("tie at the window's last slot")
                if stop < n and n + 1 - stop < period:
                    edges.add("n cuts the lap short")
    assert edges >= {
        "repeat at iterate 1",
        "repeat at iterate 1, k0 = 1",
        "return to 0.0",
        "checkpoint opens the cycle",
        "k0 shift",
        "repeat at n",
        "rem 0",
        "rem p-1",
        "tie past the stop",
        "tie at the window's last slot",
        "n cuts the lap short",
    }


def test_rho_simo_stops_at_the_first_repeated_state():
    # the 1,001-cell simo staircase grid at n = 1000: floor(F(0)) plus at most
    # 59 iterates per cell, where the full loop ran 1001
    from rotkit.sweep import SweepConfig, mu_grid

    counts = []
    for mu in mu_grid(SweepConfig(mu_step=1e-3)):
        F, calls = _counting(f_mu(mu))
        with pytest.raises(PeriodicOrbitDetected):
            rho_simo(F, 1000)
        counts.append(calls[0])
    assert max(counts) <= 64
    # a rotation by the golden mean never repeats a float state: every iterate runs
    R = _rigid(GOLDEN_MEAN)
    assert first_repeat(R.fundamental, 1000) is None
    for n in (2, 1000):
        G, calls = _counting(R)
        assert rho_simo(G, n).n == n
        assert calls[0] == n + 1


def test_rho_simo_cost_does_not_grow_with_n():
    # f_mu(0.5) repeats at iterate 59 (period 27): every n past one lap beyond
    # the repeat stores, sorts and scans the same 86 values and reports the
    # same tie, with the same calls of the fundamental
    outcomes = set()
    counts = set()
    for n in (10**3, 10**6, 10**7):
        F, calls = _counting(f_mu(0.5))
        with pytest.raises(PeriodicOrbitDetected) as hit:
            rho_simo(F, n)
        outcomes.add((hit.value.rotation, hit.value.i, hit.value.j))
        counts.add(calls[0])
    assert outcomes == {(Fraction(17, 27), 8, 35)}
    assert len(counts) == 1


@pytest.mark.parametrize(
    "make",
    [lambda: _rigid(GOLDEN_MEAN), lambda: standard_map(0.3, 0.5), lambda: standard_map(3.31, 0.9)],
    ids=["rigid(golden)", "standard(0.3, 0.5)", "standard(3.31, 0.9)"],
)
def test_rho_simo_bracket_matches_oracle_at_scale(make):
    # no float state repeats within 10^5 iterates: the bracket sorts the whole stored orbit
    F = make()
    outcome = _simo_outcome(F, 10**5)
    assert outcome[0] == "bracket"
    assert outcome == _simo_oracle_outcome(F, 10**5)


def test_rho_simo_memory_stays_bounded():
    # up to 10^7 iterates of an orbit with period 27: past the repeat only one
    # lap is appended, so the peak does not depend on n
    F = f_mu(0.5)
    for n in (10**3, 10**6, 10**7):
        tracemalloc.start()
        try:
            with pytest.raises(PeriodicOrbitDetected):
                rho_simo(F, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e3, n


@pytest.mark.parametrize("omega", [3.31, -2.6])
@pytest.mark.parametrize(
    "make",
    [
        lambda omega: standard_map(omega, 0.0),
        lambda omega: standard_map(omega, 0.5),
        lambda omega: standard_map(omega, 1.0),
        lambda omega: pwl_standard(omega, a_over_2pi=0.1),
        lambda omega: pwl_standard(omega, a_over_2pi=0.2),
        lambda omega: disc_standard(omega, 0.0),
    ],
)
def test_shifted_estimators_match_oracles(omega, make):
    # floor(F(0)) = 3 or -3: the inlined shift must agree with the oracles'
    # wrapper closure bit for bit, in the direct loop and in the sorting one
    F = make(omega)
    assert math.floor(F.fundamental(0.0)) == math.floor(omega)
    for error in (1e-3, 3e-4):
        assert rho_direct(F, error).value.hex() == direct_value_oracle(F.fundamental, error).hex()
    for n in (2, 50, 1000):
        assert _simo_outcome(F, n) == _simo_oracle_outcome(F, n)


def test_simo_error_bound_values():
    assert simo_error_bound(1, 2, 1000) == pytest.approx(1e-6)
    assert simo_error_bound(1, 3, 100) == pytest.approx(1e-3)
    assert simo_error_bound(2, 2, 10) == pytest.approx(5e-3)
    with pytest.raises(ValueError):
        simo_error_bound(0, 2, 10)
    with pytest.raises(ValueError):
        simo_error_bound(1, 1.5, 10)
    with pytest.raises(ValueError, match="n must be at least 1"):
        simo_error_bound(1, 2, 0)


@pytest.mark.parametrize(
    "c, nu, name",
    [
        (math.nan, 2, "c"),
        (math.inf, 2, "c"),
        (-math.inf, 2, "c"),
        (1, math.nan, "nu"),
        (1, math.inf, "nu"),
        (1, -math.inf, "nu"),
    ],
)
def test_simo_error_bound_rejects_non_finite_constants(c, nu, name):
    # nan gave a nan bound, an infinite c the false bound 0.0, an infinite nu 1.0
    with pytest.raises(ValueError, match=f"^{name} must be "):
        simo_error_bound(c, nu, 10)


# ---------------------------------------------------------------------------
# constant-section algorithm


def _section_origin(alpha, beta, tol=1e-10):
    """Shift and test bound that rotate the section [alpha, beta], padded by tol, to the origin."""
    return alpha + tol, (beta - alpha) - 2.0 * tol


def _fmu_section(mu, tol=1e-10):
    """f_mu and the shift and test bound of its section [3/4, 1]."""
    shift, beta = _section_origin(0.75, 1.0, tol)
    return f_mu(mu), beta, shift


def test_csb_exact_rational_mode_certifies_two_fifths():
    F = f_mu(Fraction(819, 3124))
    est = rho_constant_section_exact(F, Fraction(3, 4), Fraction(1), 1000)
    assert est is not None and est.is_exact
    assert (est.m, est.n) == (2, 5)
    # independent re-iteration of the section orbit, in rationals
    x = Fraction(3, 4)
    for _ in range(5):
        x = evaluate_exact(F, x)
    assert x == Fraction(3, 4) + 2


def test_csb_tangency_guard_rejects_false_exact():
    mu_star = 819 / 3124 - 1e-16
    F, beta, shift = _fmu_section(mu_star)
    est = rho_constant_section(F, beta, 1e-6, shift=shift)
    assert (est.m, est.n) != (2, 5)
    assert abs(est.value - 0.3983) < 1e-3
    # whatever the float path returned is re-certified on the same map in
    # exact arithmetic
    cert = rho_constant_section_exact(f_mu(Fraction(mu_star)), Fraction(3, 4), Fraction(1), 10**5)
    assert cert is not None
    if est.is_exact:
        assert cert.as_fraction == est.as_fraction


def test_csb_counterexample_falls_back():
    shift, beta = _section_origin(0.8, 1.0)
    est = rho_constant_section(counterexample_map(), beta, 1e-6, shift=shift)
    assert est.kind == "approx"
    assert abs(est.value - 1.0 / 3.0) < 1e-6
    # in rationals too, no cycle passes through the section [4/5, 1]
    assert rho_constant_section_exact(counterexample_map(), Fraction(4, 5), Fraction(1), 500) is None


def test_csb_mu_zero_takes_approx_path():
    F, beta, shift = _fmu_section(0.0)
    est = rho_constant_section(F, beta, 1e-4, shift=shift)
    assert est.kind == "approx"
    assert abs(est.value) < 1e-4


def test_csb_invalid_section():
    F, _, shift = _fmu_section(0.3)
    with pytest.raises(InvalidSection):
        rho_constant_section(F, 0.0, 1e-4, shift=shift)
    with pytest.raises(InvalidSection, match="non-degenerate"):
        rho_constant_section_exact(f_mu(Fraction(3, 10)), Fraction(3, 4), Fraction(3, 4), 10)


def test_csb_rejects_a_nan_test_bound():
    # beta <= 0.0 is false for NaN, which used to return an approximate 0.62975
    with pytest.raises(InvalidSection, match="nan"):
        rho_constant_section(f_mu(0.5), math.nan, 1e-3, shift=0.75)


def test_csb_exact_matches_direct_on_plateaus():
    for mu in (0.1, 0.2, 0.35, 0.55, 0.9):
        est = rho_csb(f_mu(mu), 1e-4, 1e-10)
        direct = rho_direct(f_mu(mu), 1e-4)
        assert est.is_exact
        assert abs(est.value - direct.value) <= direct.error_bound


def test_exactness_cross_check_in_rationals():
    # every float-path exact result must re-certify under exact re-iteration
    for i in range(1, 40):
        mu = i / 40
        est = rho_csb(f_mu(mu), 1e-4, 1e-10)
        if not est.is_exact:
            continue
        cert = rho_constant_section_exact(f_mu(Fraction(mu)), Fraction(3, 4), Fraction(1), 20000)
        assert cert is not None
        assert cert.as_fraction == est.as_fraction


def test_csb_rejects_non_finite_error_and_tol():
    F, beta, shift = _fmu_section(0.3)
    for error in (math.inf, math.nan, -1e-3, 0.0):
        with pytest.raises(ValueError):
            rho_constant_section(F, beta, error, shift=shift)
        with pytest.raises(ValueError):
            rho_direct(f_mu(0.3), error)
    for tol in (math.nan, math.inf, -1e-10):
        with pytest.raises(ValueError):
            rho_csb(f_mu(0.3), 1e-4, tol)


@pytest.mark.parametrize("error", [5e-324, 1e-320, 2.0**-1030])
def test_error_whose_inverse_overflows_is_a_value_error(error):
    # 1/error is inf: math.ceil would raise OverflowError
    assert 0.0 < error and 1.0 / error == math.inf
    F, beta, shift = _fmu_section(0.3)
    no_section = standard_map(0.37, 0.5)
    calls = [
        lambda: rho_direct(F, error),
        lambda: rho_direct(F, error, stop_on_repeat=True),
        lambda: rho_constant_section(F, beta, error, shift=shift),
        lambda: rho_csb(F, error),
        lambda: rho_csb(no_section, error),
        lambda: rotation_interval(F, error),
        lambda: rotation_interval(no_section, error),
        lambda: rotation_interval(standard_map(0.3, 2.0), error),
        lambda: rotation_interval(F, error, method="direct"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="error must be positive and finite"):
            call()


# ---------------------------------------------------------------------------
# float-cycle shortcut: bit-identical to the plain section-orbit loop


def _assert_matches_oracle(F, beta, error, shift=0.0):
    est = rho_constant_section(F, beta, error, shift=shift)
    kind, value, m, n, used = section_orbit_oracle(_shifted(F.fundamental, shift), beta, error)
    assert (est.kind, est.value.hex(), est.m, est.n, est.iterations_used) == (kind, value.hex(), m, n, used)
    return est


def test_shortcut_bit_identical_at_fmu_tangencies():
    for mu in (0, 1):
        F, beta, shift = _fmu_section(mu)
        est = _assert_matches_oracle(F, beta, 1e-5, shift=shift)
        assert est.kind == "approx" and est.iterations_used == 100_000


def test_shortcut_bit_identical_on_counterexample():
    shift, beta = _section_origin(0.8, 1.0)
    est = _assert_matches_oracle(counterexample_map(), beta, 1e-5, shift=shift)
    assert est.kind == "approx"


@pytest.mark.parametrize("family", ["pwl", "disc"])
def test_shortcut_bit_identical_on_tongue_exhausts(family, monkeypatch):
    import rotkit.rotnum as rotnum
    from rotkit.sweep import SweepConfig, arnold_tongue

    calls = []
    real = rotnum.rho_constant_section

    def recording(G, beta, error, *, shift=0.0):
        est = real(G, beta, error, shift=shift)
        calls.append((G, beta, error, shift, est))
        return est

    monkeypatch.setattr(rotnum, "rho_constant_section", recording)
    cfg = SweepConfig(family=family, a_steps=4, omega_steps=4, error=1e-4, tol=1e-10)
    arnold_tongue(cfg, Fraction(1, 2))
    exhausts = [c for c in calls if c[4].kind == "approx"]
    assert exhausts
    for G, beta, error, shift, est in exhausts:
        kind, value, m, n, used = section_orbit_oracle(_shifted(G.fundamental, shift), beta, error)
        assert (est.kind, est.value.hex(), est.m, est.n, est.iterations_used) == (kind, value.hex(), m, n, used)


def test_shortcut_bit_identical_on_random_pl_maps():
    rng = random.Random(2)
    for _ in range(20):
        F, beta, _, _ = random_flat_pl_lifting(rng)
        shift, beta_f = _section_origin(0.0, float(beta))
        _assert_matches_oracle(F, beta_f, 1e-4, shift=shift)


def _assert_shift_matches_oracle(F, alpha, beta, error=1e-4, tol=1e-10):
    # the shift keyword iterates F rotated by the section start, bit for bit
    shift, beta_f = _section_origin(alpha, beta, tol)
    return _assert_matches_oracle(F, beta_f, error, shift=shift)


def test_shift_bit_identical_on_fmu():
    mus = [0.0, 1.0, 819 / 3124, 819 / 3124 - 1e-16] + [i / 199 for i in range(200)]
    kinds = set()
    for mu in mus:
        est = _assert_shift_matches_oracle(f_mu(mu), 0.75, 1.0)
        assert rho_csb(f_mu(mu), 1e-4, 1e-10) == est
        kinds.add(est.kind)
    assert kinds == {"exact", "approx"}


@pytest.mark.parametrize(
    "make, a",
    [(standard_map, 1.5), (standard_map, 9.0), (pwl_standard, 4.0), (pwl_standard, 9.0), (disc_standard, 3.0)],
)
def test_shift_bit_identical_on_envelopes(make, a):
    import rotkit.rotnum as rotnum

    for omega in (0.0, 0.13, 0.5, 0.71):
        F = make(omega, a)
        for env in (upper_map(F), lower_map(F)):
            sec = widest_section(env.sections)
            est = _assert_shift_matches_oracle(env.lifting, sec.alpha, sec.beta)
            # the sweeps' path builds the same shift and bound from the section,
            # and the envelope lifting states that section itself
            assert rotnum._rho_of_sections(env.lifting, env.sections, 1e-4, 1e-10) == est
            assert env.lifting.sections == env.sections and rho_csb(env.lifting, 1e-4, 1e-10) == est


def test_shift_bit_identical_on_counterexample_and_random_pl_maps():
    est = _assert_shift_matches_oracle(counterexample_map(), 0.8, 1.0, 1e-5)
    assert est.kind == "approx"
    rng = random.Random(7)
    for _ in range(20):
        F, beta, _, _ = random_flat_pl_lifting(rng)
        _assert_shift_matches_oracle(F, 0.0, float(beta))


# the csb step skips the floor when y = x + shift lies in [0, 1): shifts that
# put y exactly on 0.0, on 1 - ulp, below 0 and at or above 1
EDGE_SHIFTS = [0.0, -0.0, math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0), -0.25, -0.5, 0.75, -1.0, 2.5]


@pytest.mark.parametrize("shift", EDGE_SHIFTS)
def test_floor_free_step_bit_identical_on_dyadic_rotations(shift):
    # every iterate of x + p/2^q is exact, so y lands on 0.0 whenever x == -shift;
    # beta = 2^-6 lies below every nonzero orbit point
    for q in range(5):
        for p in range(2**q):
            _assert_matches_oracle(_rigid(p / 2**q), 2.0**-6, 1e-3, shift=shift)


def test_floor_free_step_bit_identical_on_a_negative_zero_value():
    # at shift 0.0 the step gives fund(y) - 0.0 = -0.0 where the gluing rule's
    # fund(y) + 0 - 0.0 gives 0.0: both are a hit at n = 1, which reads no state
    from rotkit.lifting import Lifting

    F = Lifting(fundamental=lambda x: -0.0, is_non_decreasing=True, label="negative zero")
    est = _assert_matches_oracle(F, 0.5, 1e-3, shift=0.0)
    assert (est.kind, est.m, est.n) == ("exact", 0, 1)


@pytest.mark.parametrize("k", [1, 3, 8, -3])
@pytest.mark.parametrize("make, a", [(standard_map, 1.5), (standard_map, 9.0), (pwl_standard, 4.0), (disc_standard, 3.0)])
def test_shift_bit_identical_on_envelopes_whole_periods_away(make, a, k):
    # omega + k lifts the same circle map with other float roundings, as the
    # benchmark's seeded tongues do; tol = 0.0 puts the shift on the section's
    # start, 0.0 itself for disc's upper map
    for omega in (0.13, 0.5, 0.71):
        F = make(omega + k, a)
        for env in (upper_map(F), lower_map(F)):
            sec = widest_section(env.sections)
            for tol in (1e-10, 0.0):
                _assert_shift_matches_oracle(env.lifting, sec.alpha, sec.beta, tol=tol)


def _two_cycle_map():
    # flat on [0.4, 0.5] and flagged non-decreasing, with no envelope builder;
    # the attracting float 2-cycle {1/4, 3/4} + Z misses the section
    F = pl_lifting([0, 0.4, 0.5, 0.6, 0.9, 1], [0.625, 0.825, 0.825, 1.175, 1.325, 1.625])
    return F._replace(is_non_decreasing=True)


def _counting(F):
    calls = [0]
    fund = F.fundamental

    def counted(x):
        calls[0] += 1
        return fund(x)

    return F._replace(fundamental=counted), calls


def test_leftover_steps_after_a_repeat_are_bit_identical():
    # both orbits repeat at iterate 66 against the checkpoint at 64 (period
    # 2): at error 1e-3 no step is left over, at 1/1001 one step is
    F = _two_cycle_map()
    env = upper_map(F)  # a non-decreasing map that states no sections: scanned
    assert env.lifting is F
    sec = widest_section(env.sections)
    assert sec.alpha == pytest.approx(0.4) and sec.beta == 0.5
    shift, beta = _section_origin(sec.alpha, sec.beta)
    csb_calls, direct_calls = [], []
    for error in (1e-3, 1 / 1001):
        G, calls = _counting(F)
        est = rho_constant_section(G, beta, error, shift=shift)
        kind, value, m, n, used = section_orbit_oracle(_shifted(F.fundamental, shift), beta, error)
        assert (est.kind, est.value.hex(), est.m, est.n, est.iterations_used) == (kind, value.hex(), m, n, used)
        assert est.kind == "approx" and rho_csb(F, error) == est
        csb_calls.append(calls[0])
        G, calls = _counting(F)
        est = rho_direct(G, error, stop_on_repeat=True)
        assert _fields(est) == _fields(_assert_fallback_matches(F, error))
        direct_calls.append(calls[0])
    # the repeat is found at the same iterate; the one leftover step is run
    assert csb_calls[1] == csb_calls[0] + 1 and csb_calls[0] < 100
    assert direct_calls[1] == direct_calls[0] + 1 and direct_calls[0] < 100


@pytest.mark.parametrize("mu", [0.1, 0.3, 0.55, 0.9])
def test_rho_csb_of_builderless_fmu_matches_registered(mu, monkeypatch):
    # f_mu states its section; with sections=None, upper_map scans the map once per rho_csb call
    import rotkit.envelope as envelope

    scans = []
    real = envelope.find_maximal_sections
    monkeypatch.setattr(envelope, "find_maximal_sections", lambda G: scans.append(G) or real(G))
    registered = rho_csb(f_mu(mu), 1e-4)
    assert scans == []
    unstated = f_mu(mu)._replace(sections=None)
    scanned = rho_csb(unstated, 1e-4)
    assert scans == [unstated]
    assert (scanned.kind, scanned.m, scanned.n) == (registered.kind, registered.m, registered.n)


# every non-decreasing family map, with the sections it states
MONOTONE_FAMILY_MAPS = [
    (f_mu(0.3), ((0.75, 1.0),)),
    (f_mu(0.0), ((0.75, 1.0),)),
    (counterexample_map(), ((0.8, 1.0),)),
    (standard_map(0.3, 0.5), ()),
    (standard_map(3.31, 1.0), ()),
    (pwl_standard(0.2, 1.0), ()),
    (pwl_standard(0.2, a_over_2pi=0.25), ((-0.25, 0.25),)),
    (disc_standard(0.3, 0.0), ()),
]


@pytest.mark.parametrize(
    "F, sections",
    MONOTONE_FAMILY_MAPS,
    ids=["fmu", "fmu-0", "counterexample", "standard", "standard-a1", "pwl", "pwl-flat-outer", "disc"],
)
def test_monotone_family_maps_state_their_sections(F, sections, monkeypatch):
    # rho_csb reads F.sections: no envelope, no builder and no scan; upper_map
    # and lower_map return the map itself with the sections it states
    import rotkit.envelope as envelope
    import rotkit.rotnum as rotnum

    def refuse(*args):
        raise AssertionError("rho_csb of a map that states its sections took an envelope")

    assert F.is_non_decreasing and F.envelope_builder is None
    assert [tuple(s) for s in F.sections] == list(sections)
    expected = rho_csb(F, 1e-4, 1e-10)
    for name in ("upper_map", "lower_map"):
        monkeypatch.setattr(rotnum, name, refuse)
    monkeypatch.setattr(envelope, "find_maximal_sections", refuse)
    assert rho_csb(F._replace(envelope_builder=refuse), 1e-4, 1e-10) == expected
    monkeypatch.undo()
    for side in (upper_map, lower_map):
        env = side(F)
        assert env == (F, F.sections, "analytic") and env.lifting is F


@pytest.mark.parametrize("omega, m, n", [(0.0, 0, 1), (1.0, 1, 1), (0.25, 1, 4)])
def test_repeated_state_inside_section_is_exact(omega, m, n):
    # the orbit returns to its starting state 0, which lies in the section:
    # the hit test wins over the cycle test (for n = 1 the state also equals
    # the starting checkpoint)
    est = _assert_matches_oracle(_rigid(omega), 0.1, 1e-4)
    assert est.is_exact and (est.m, est.n) == (m, n)


# ---------------------------------------------------------------------------
# segment edges of the two stopping kernels: their orbits run in segments
# that end at iterates 16, 32, 64, ..., and each state is compared with the
# checkpoint at the previous segment's end


def _table_map(orbit):
    """The map taking orbit[j] to orbit[j + 1] plus j % 4 whole turns.

    The orbit's states are dyadic, so every value is exact and the plain
    loops give the same orbit as any wrap arithmetic; the turns put a state
    before its wrap in [0, 1), [1, 2) or beyond.
    """
    from rotkit.lifting import Lifting

    succ = dict(zip(orbit, orbit[1:]))
    turns = {x: j % 4 for j, x in enumerate(orbit[:-1])}

    def fund(x):
        return succ[x] + turns[x]

    return Lifting(fundamental=fund, is_non_decreasing=True, label=f"table({len(orbit)})")


TABLE_BETA = 1 / 256


def _cycle_map(pre, period):
    """The orbit of 0 runs pre states into a cycle of period states, all above TABLE_BETA but 0."""
    states = [0.0] + [(j + 1) / 128 for j in range(1, pre + period)]
    return _table_map(states + [states[pre]])


def _hit_map(hit_at):
    """The orbit of 0 misses the section [0, TABLE_BETA] until iterate hit_at."""
    return _table_map([0.0] + [(j + 1) / 128 for j in range(1, hit_at)] + [TABLE_BETA])


SEGMENT_NS = [1, 2, 15, 16, 17, 31, 32, 33, 10**4]


def _error_for(n):
    error = 1.0 / n
    assert math.ceil(1.0 / error) == n
    return error


@pytest.mark.parametrize("n", SEGMENT_NS)
def test_direct_kernel_matches_oracle_at_segment_lengths(n):
    error = _error_for(n)
    maps = [
        standard_map(0.37, 0.5),  # no repeat
        disc_standard(3.31, 0.0),  # no repeat, floor(F(0)) = 3
        _rigid(0.375),  # period 8 through 0
        _rigid(2 + 3 / 16),  # period 16 through 0, floor(F(0)) = 2
        _cycle_map(3, 16),
        _cycle_map(3, 5),
    ]
    for G in maps:
        _assert_fallback_matches(G, error)


@pytest.mark.parametrize("n", SEGMENT_NS)
def test_csb_kernel_matches_oracle_at_segment_lengths(n):
    error = _error_for(n)
    for mu in (0.0, 0.3, 0.61, 1.0):
        F, beta, shift = _fmu_section(mu)
        _assert_matches_oracle(F, beta, error, shift=shift)
    env = lower_map(standard_map(4 / 15, 8 * math.pi / 15))  # a parabolic-line exhaust
    sec = widest_section(env.sections)
    _assert_shift_matches_oracle(env.lifting, sec.alpha, sec.beta, error)
    _assert_matches_oracle(_two_cycle_map(), 0.05, error, shift=0.425)
    _assert_matches_oracle(_rigid(GOLDEN_MEAN), 1e-3, error, shift=0.3)
    for pre, period in ((3, 16), (3, 5), (17, 32)):
        _assert_matches_oracle(_cycle_map(pre, period), TABLE_BETA, error)


# (pre, period, iterate at which the repeat is found): the first two on a
# segment's last iterate (16 against the start, 32 against the checkpoint at
# 16), then 64 (a period of 32 outgrows the second segment) and one found
# inside a segment
REPEATS = [(0, 16, 16), (3, 16, 32), (3, 32, 64), (3, 5, 21)]


@pytest.mark.parametrize("pre, period, found", REPEATS)
@pytest.mark.parametrize("extra", [0, 1, 7])
def test_repeats_on_segment_edges_are_bit_identical(pre, period, found, extra):
    # n = 10016 + extra leaves rem = (n - found) % period leftover steps:
    # none at extra 0 (10016 = 313 * 32), but for the period of 5
    F = _cycle_map(pre, period)
    n = 10_016 + extra
    error = _error_for(n)
    rem = (n - found) % period
    assert (rem == 0) == (extra == 0) or period == 5
    G, calls = _counting(F)
    _assert_fallback_matches(F, error)
    rho_direct(G, error, stop_on_repeat=True)
    assert calls[0] == 1 + found + rem  # floor(F(0)), the orbit up to the repeat, the leftover steps
    if pre:  # a cycle through 0 hits the section
        G, calls = _counting(F)
        est = _assert_matches_oracle(F, TABLE_BETA, error)
        assert est.kind == "approx" and rho_constant_section(G, TABLE_BETA, error) == est
        assert calls[0] == found + rem


@pytest.mark.parametrize("hit_at", [1, 5, 15, 16, 17, 32, 33])
def test_csb_hits_inside_and_past_the_first_segment(hit_at):
    G, calls = _counting(_hit_map(hit_at))
    for error in (1e-4, _error_for(hit_at)):
        calls[0] = 0
        est = _assert_matches_oracle(G, TABLE_BETA, error)
        assert (est.kind, est.n, est.m) == ("exact", hit_at, sum(j % 4 for j in range(hit_at)))
        assert calls[0] == 2 * hit_at  # the estimator's orbit, then the oracle's


def _y_ranges(fund, shift, beta, error):
    """The ranges of the rotated points y = x + shift on the plain section-orbit loop."""
    ranges = set()
    g = _shifted(fund, shift)

    def recording(x):
        ranges.add(min(max(math.floor(x + shift), -2), 2))  # -2: below -1, 2: at or above 2
        return g(x)

    section_orbit_oracle(recording, beta, error)
    return ranges


def test_csb_step_bit_identical_for_every_range_of_the_rotated_point():
    # y in [-1, 0), [0, 1) and [1, 2) take the floor-free steps; below -1 and
    # from 2 on, and for a slope-3 map whose states pass 2, floor runs
    from rotkit.lifting import Lifting

    slope3 = Lifting(fundamental=lambda x: 3.0 * x + 0.1, is_non_decreasing=True, label="slope 3")
    rigid = _rigid(GOLDEN_MEAN)
    smooth = standard_map(0.37, 0.5)
    seen = set()
    for F in (rigid, smooth, slope3):
        for shift in (-2.75, -1.75, -0.61, -0.5, -0.3, -1e-300, 0.0, 0.3, 0.999, 1.2, 1.0, 2.5, -3.25):
            for error in (1e-3, _error_for(17)):
                _assert_matches_oracle(F, 1e-3, error, shift=shift)
                seen |= _y_ranges(F.fundamental, shift, 1e-3, error)
    assert seen == {-2, -1, 0, 1, 2}
    # floor(F(0)) = 0, so the direct kernel's states before their wrap are the
    # values of F: they reach [2, 3.1), where the state's floor branch runs
    values = []
    recording = slope3._replace(fundamental=lambda x: values.append(3.0 * x + 0.1) or values[-1])
    _assert_fallback_matches(slope3, 1e-3)
    rho_direct(recording, 1e-3, stop_on_repeat=True)
    assert max(values) >= 2.0 and min(values) < 1.0


def test_nan_valued_map_raises_the_floor_value_error():
    from rotkit.lifting import Lifting

    F = Lifting(fundamental=lambda x: 0.25 if x == 0.0 else math.nan, is_non_decreasing=True, label="nan")
    for call in (
        lambda: rho_direct(F, 1e-3),
        lambda: rho_direct(F, 1e-3, stop_on_repeat=True),
        lambda: rho_constant_section(F, 0.1, 1e-3),
        lambda: rho_constant_section(F, 0.1, 1e-3, shift=1.5),
        lambda: rho_constant_section(f_mu(0.3), 0.1, 1e-3, shift=math.nan),
    ):
        with pytest.raises(ValueError, match="cannot convert float NaN to integer"):
            call()


# ---------------------------------------------------------------------------
# rotation intervals


def test_rotation_interval_monotone_degenerate():
    ri = rotation_interval(standard_map(0, 0.5), 1e-4)
    assert ri.lower.value == 0.0 and ri.upper.value == 0.0


def test_rotation_interval_builds_self_envelope_once(monkeypatch):
    import rotkit.envelope as envelope

    scans = []
    real = envelope.find_maximal_sections

    def counting(E):
        scans.append(E)
        return real(E)

    monkeypatch.setattr(envelope, "find_maximal_sections", counting)
    unstated = standard_map(0.3, 0.5)._replace(sections=None)
    ri = rotation_interval(unstated, 1e-4)
    assert len(scans) == 1
    assert ri.lower == ri.upper


def test_invertible_standard_map_runs_no_section_scan(monkeypatch):
    # a <= 1 is strictly increasing: no section exists, so no grid scan runs;
    # at omega = 1e9 the scan used to report rounding artefacts as sections
    import rotkit.envelope as envelope

    def no_scan(F):
        raise AssertionError(f"grid scan of {F.label}")

    monkeypatch.setattr(envelope, "find_maximal_sections", no_scan)
    for omega, a in ((0.3, 0.5), (0.0, 1.0), (1e9, 1.0)):
        S = standard_map(omega, a)
        assert upper_map(S).sections == () and lower_map(S).sections == ()
        ri = rotation_interval(S, 1e-4)
        assert ri.lower == ri.upper == rho_direct(S, 1e-4)


def test_rotation_interval_disc_full_unit():
    ri = rotation_interval(disc_standard(0, TWO_PI), 1e-5)
    assert abs(ri.lower.value - 0.0) < 1e-5
    assert abs(ri.upper.value - 1.0) < 1e-5


def test_rotation_interval_standard_symmetric():
    error = 1e-5
    S = standard_map(0, TWO_PI)
    ri = rotation_interval(S, error)
    assert abs(ri.lower.value + ri.upper.value) < 2 * error
    assert ri.lower.value <= ri.upper.value + ri.lower.error_bound + ri.upper.error_bound
    # endpoint cross-check against the direct estimator on the envelope
    oracle = rho_direct(upper_map(S).lifting, error)
    assert abs(ri.upper.value - oracle.value) <= oracle.error_bound + ri.upper.error_bound


def test_rotation_interval_pwl_degenerate_until_half_pi():
    ri = rotation_interval(pwl_standard(0.2, math.pi / 2), 1e-4)
    assert ri.lower.value == ri.upper.value


@pytest.mark.parametrize(
    "F",
    [
        pwl_standard(0, 2.5 * math.pi),
        # the README's user map: the same float function as its fundamental
        standard_map(0.2, a_over_2pi=0.3),
        disc_standard(0.2, 7.0),
    ],
    ids=["pwl", "readme-standard", "disc"],
)
def test_rotation_interval_numeric_envelope_path_matches_registered(F):
    plain = F._replace(envelope_builder=None)
    a = rotation_interval(F, 1e-4, 1e-10)
    b = rotation_interval(plain, 1e-4, 1e-10)
    for registered, numeric in ((a.lower, b.lower), (a.upper, b.upper)):
        assert numeric.kind == registered.kind
        if registered.is_exact:
            assert numeric.as_fraction == registered.as_fraction
        assert numeric.value == pytest.approx(registered.value, abs=1e-9)


def test_conjugacy_preserves_rotation_number():
    from rotkit.lifting import Lifting

    for mu in (0.17, 0.42, 0.73):
        F, _, shift = _fmu_section(mu)
        G = Lifting(
            fundamental=_shifted(F.fundamental, shift),
            is_non_decreasing=True,
            label=f"{F.label}@+{shift}",
        )
        a = rho_direct(F, 1e-4)
        b = rho_direct(G, 1e-4)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound
        c = rho_csb(F, 1e-4, 1e-10)
        assert abs(c.value - a.value) <= a.error_bound


# ---------------------------------------------------------------------------
# error-bound properties on maps with certified rotation numbers


def _certified_pl_maps(count, seed=11):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        F, beta, xs, ys = random_flat_pl_lifting(rng)
        cert = exact_section_certificate(knots_exact_oracle(F.knots()), beta, 3000)
        if cert is None:
            continue
        m, n = cert
        found.append((F, Fraction(m, n), xs, ys))
    return found


def test_error_bound_pointwise():
    # |rho - F^n(0)/n| < 1/n for every n, here swept to 2000
    cases = [(_rigid(0.25, Fraction(1, 4)), Fraction(1, 4), None, None)]
    cases += [(F, rho, xs, ys) for F, rho, xs, ys in _certified_pl_maps(5)]
    for F, rho, _, _ in cases:
        fund = F.fundamental
        x = 0.0
        m = 0
        rho_f = float(rho)
        for n in range(1, 2001):
            x = fund(x)
            if not 0.0 <= x < 1.0:
                s = math.floor(x)
                m += s
                x -= s
            assert abs(rho_f - (m + x) / n) < 1.0 / n


def test_error_bound_floor_bracket():
    # ell(n)/n <= rho <= (ell(n)+1)/n with ell the grid floor-minimum
    for F, rho, xs, ys in _certified_pl_maps(3, seed=5):
        ells = ell_of_n(xs, ys, 60, grid=512)
        for n, ell in enumerate(ells, start=1):
            assert Fraction(ell, n) <= rho <= Fraction(ell + 1, n)


def test_simo_soundness_on_certified_maps():
    for F, rho, _, _ in _certified_pl_maps(4, seed=23):
        shift = math.floor(F.fundamental(0.0))
        if not 0 <= float(rho) - shift <= 1:
            continue
        try:
            br = rho_simo(F, 400)
        except PeriodicOrbitDetected as hit:
            assert hit.rotation == rho
            continue
        assert br.rho_min - 1e-12 <= float(rho) <= br.rho_max + 1e-12


def test_counterexample_cycle_rotation():
    C = counterexample_map()
    x = Fraction(1, 10)
    for _ in range(3):
        x = evaluate_exact(C, x)
    assert x == Fraction(1, 10) + 1  # rho = 1/3 from the 3-cycle


# ---------------------------------------------------------------------------
# estimate type invariants


def test_estimate_invariants():
    e = RotationEstimate.exact(4, 10)
    assert e.as_fraction == Fraction(2, 5)
    assert (e.m, e.n) == (4, 10)  # raw pair preserved
    assert e.error_bound == 0.0
    a = RotationEstimate.approx(0.5, 1e-3, 1000)
    assert a.error_bound <= 1.0 / a.iterations_used
    with pytest.raises(ValueError):
        _ = a.as_fraction


def test_widest_section_feeds_csb():
    # rho_csb picks the registered section and certifies plateau values
    est = rho_csb(f_mu(0.375), 1e-4, 1e-10)
    assert est.is_exact and est.as_fraction == Fraction(1, 2)
    est = rho_csb(f_mu(0.5), 1e-4, 1e-10)
    assert est.is_exact and est.as_fraction == Fraction(17, 27)
    env = upper_map(f_mu(0.5))
    assert env.sections[0].width == pytest.approx(0.25, abs=1e-12)
