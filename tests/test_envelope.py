import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from rotkit import (
    ConstantSection,
    evaluate_exact,
    NumericEnvelopeFailure,
    counterexample_map,
    disc_standard,
    f_mu,
    find_maximal_sections,
    lower_map,
    pwl_standard,
    rho_constant_section,
    rho_csb,
    rho_direct,
    standard_map,
    upper_map,
    widest_section,
)
from rotkit.envelope import MonotoneEnvelope, _numeric_envelope
from rotkit.lifting import Lifting
from _oracles import _shifted, pl_lifting

TWO_PI = 2.0 * math.pi


def _plain(F, label="plain"):
    """Strip registered envelopes so construction goes through the numeric path."""
    return Lifting(
        fundamental=F.fundamental,
        is_non_decreasing=False,
        label=label,
    )


def test_monotone_map_is_its_own_envelope():
    F = counterexample_map()
    up = upper_map(F)
    lo = lower_map(F)
    assert up.lifting is F and lo.lifting is F
    assert [(s.alpha, s.beta) for s in up.sections] == [(0.8, 1.0)]


def test_invertible_standard_map_is_its_own_envelope():
    S = standard_map(0.3, 0.8)
    assert lower_map(S).lifting is S
    assert upper_map(S).sections == ()


def test_pwl_envelope_closed_form():
    T = pwl_standard(0, 2.5 * math.pi)
    up = upper_map(T)
    lo = lower_map(T)
    assert up.lifting.fundamental(0.0) == pytest.approx(1.0, abs=1e-12)
    (sec_u,) = up.sections
    assert sec_u.alpha == pytest.approx(-0.25, abs=1e-12)
    assert sec_u.beta == pytest.approx(7.0 / 12.0, abs=1e-12)
    (sec_l,) = lo.sections
    assert sec_l.alpha == pytest.approx(5.0 / 12.0 - 1.0, abs=1e-12)
    assert sec_l.beta == pytest.approx(0.25, abs=1e-12)


def test_disc_envelope_closed_form_against_grid_sup_oracle():
    # oracle: running sup over a 10^6-point grid of D(y) for y <= x
    D = disc_standard(0, TWO_PI)
    ys = np.linspace(-1.0, 1.0, 2_000_001)
    frac = ys - np.floor(ys)
    vals = ys + frac
    run_max = np.maximum.accumulate(vals)
    run_min = np.minimum.accumulate(vals[::-1])[::-1]

    up = upper_map(D).lifting
    lo = lower_map(D).lifting
    idx = np.searchsorted(ys, np.linspace(0.0, 1.0, 500))
    for i in idx:
        x = ys[i]
        assert up.fundamental(float(x)) == pytest.approx(run_max[i], abs=5e-6)
    # inf over y >= x on the same window
    for i in idx:
        x = ys[i]
        assert lo.fundamental(float(x)) == pytest.approx(run_min[i], abs=5e-6)
    # closed forms: max(1, 2x) and min(2x, 1)
    for x in np.linspace(0.0, 1.0, 101):
        assert up.fundamental(float(x)) == pytest.approx(max(1.0, 2.0 * x), abs=1e-12)
        assert lo.fundamental(float(x)) == pytest.approx(min(2.0 * x, 1.0), abs=1e-12)


def test_standard_envelope_section_endpoints():
    S = standard_map(0, TWO_PI)
    up = upper_map(S)
    x1 = math.acos(1.0 / TWO_PI) / TWO_PI
    (sec,) = up.sections
    assert sec.alpha == pytest.approx((1.0 - x1) - 1.0, abs=1e-12)
    s = S.fundamental
    # flat level matches the local max, and the flat ends where s climbs back
    assert up.lifting.fundamental(0.0) == pytest.approx(s(1.0 - x1) - 1.0, abs=1e-12)
    assert s(sec.beta) == pytest.approx(s(1.0 - x1) - 1.0, abs=1e-10)


def test_numeric_envelope_matches_analytic():
    # alpha sits at a local extremum: for the smooth family it is only
    # float-determined to sqrt(ulp/curvature), a few 1e-9
    cases = (
        (pwl_standard(0, 2.5 * math.pi), 1e-12, 1e-12),
        (standard_map(0, TWO_PI), 1e-9, 1e-8),
    )
    for F, tol, alpha_tol in cases:
        up_a = upper_map(F)
        lo_a = lower_map(F)
        up_n = _numeric_envelope(_plain(F), upper=True)
        lo_n = _numeric_envelope(_plain(F), upper=False)
        assert up_n.source == "numeric"
        for i in range(1001):
            x = i / 1000
            assert up_n.lifting.fundamental(x) == pytest.approx(up_a.lifting.fundamental(x), abs=tol)
            assert lo_n.lifting.fundamental(x) == pytest.approx(lo_a.lifting.fundamental(x), abs=tol)
        (sa,) = up_a.sections
        (sn,) = up_n.sections
        assert sn.alpha == pytest.approx(sa.alpha, abs=alpha_tol)
        assert sn.beta == pytest.approx(sa.beta, abs=1e-9)


def test_numeric_envelope_of_heavy_map():
    D = disc_standard(0.2, 7.0)
    up = _numeric_envelope(_plain(D, "D-plain"), upper=True)
    lo = _numeric_envelope(_plain(D, "D-plain"), upper=False)
    up_a = upper_map(D).lifting
    lo_a = lower_map(D).lifting
    for i in range(2001):
        x = i / 2000
        assert up.lifting.fundamental(x) == pytest.approx(up_a.fundamental(x), abs=1e-9)
        assert lo.lifting.fundamental(x) == pytest.approx(lo_a.fundamental(x), abs=1e-9)


def test_numeric_lower_envelope_when_the_minimum_ties_with_f_of_zero():
    # the period minimum sits one ulp below F(0): the flat of the lower map
    # runs from 0 to the minimum, and must not start a grid cell late
    xs = [0.0, 0.7, 0.78, 1.0]
    ys = [0.22, 0.55, math.nextafter(0.22, 0.0), 1.22]
    F = pl_lifting(xs, ys)
    lo = lower_map(F)
    assert [(s.alpha, s.beta) for s in lo.sections] == [(0.0, 0.78)]
    assert lo.lifting.fundamental(0.0) == ys[2]


def test_sandwich_and_monotone_properties():
    rng = random.Random(3)
    for F in (standard_map(0.37, 4.2), pwl_standard(0.5, 8.0), disc_standard(0.11, 2.0)):
        up = upper_map(F).lifting
        lo = lower_map(F).lifting
        for _ in range(10_000):
            x = rng.random()
            fx = F.fundamental(x)
            assert lo.fundamental(x) <= fx + 1e-10
            assert up.fundamental(x) >= fx - 1e-10
        # degree-one and non-decreasing on the grid
        for env in (up, lo):
            assert abs(env.fundamental(1.0) - env.fundamental(0.0) - 1.0) < 1e-10
            prev = env.fundamental(0.0)
            for i in range(1, 4097):
                cur = env.fundamental(i / 4096)
                assert cur >= prev - 1e-12
                prev = cur


def test_envelope_idempotence():
    # an envelope flagged non-decreasing is returned as it is; unflagged, it
    # goes through the numeric construction, which must reproduce it
    for F in (standard_map(0, TWO_PI), pwl_standard(0.2, 7.0)):
        for envelope_map in (upper_map, lower_map):
            env = envelope_map(F)
            again = envelope_map(dataclasses.replace(env.lifting, is_non_decreasing=False))
            assert again.source == "numeric"
            for i in range(1001):
                x = i / 1000
                assert again.lifting.fundamental(x) == pytest.approx(env.lifting.fundamental(x), abs=1e-10)


def test_find_maximal_sections_examples():
    assert [(s.alpha, s.beta) for s in upper_map(f_mu(0.4)).sections] == [(0.75, 1.0)]
    # numeric scan agrees with the registration
    (sec,) = find_maximal_sections(f_mu(0.4))
    assert sec.alpha == pytest.approx(0.75, abs=1e-12)
    assert sec.beta == 1.0

    rigid = standard_map(0.123, 0)
    assert find_maximal_sections(rigid) == []

    up = upper_map(pwl_standard(0, 2.5 * math.pi))
    found = find_maximal_sections(up.lifting)
    (sec,) = found
    assert sec.alpha == pytest.approx(-0.25, abs=1e-10)
    assert sec.beta == pytest.approx(7.0 / 12.0, abs=1e-10)


def test_widest_section_tie_break():
    a = ConstantSection(0.5, 0.6)
    b = ConstantSection(0.1, 0.2)
    c = ConstantSection(0.3, 0.35)
    assert widest_section([c, a, b]) == b  # widest ties resolve to leftmost
    assert widest_section([]) is None


def test_reparametrize_wrapped_representative():
    # the section of F_mu written as [-1/4, 0] rotates to the origin the same
    # way as [3/4, 1]: same conjugate map, same certified rotation number
    mu = 0.3
    tol = 1e-10
    F = f_mu(mu)
    g = _shifted(F.fundamental, -0.25 + tol)
    assert g(0.0) == pytest.approx(mu + 0.25, abs=1e-9)
    assert abs(g(1.0) - g(0.0) - 1.0) < 1e-12
    beta = 0.25 - 2.0 * tol
    wrapped = rho_constant_section(F, beta, 1e-4, tol, shift=-0.25 + tol)
    est = rho_csb(F, 1e-4, tol)
    assert wrapped.is_exact and wrapped.as_fraction == est.as_fraction


def test_reparametrize_section_too_small():
    # a registered section no wider than 2*tol is unusable: rho_csb falls
    # back to the direct estimator
    tol = 1e-10
    F = f_mu(0.3)

    def tiny_section(G):
        env = MonotoneEnvelope(G, (ConstantSection(0.5, 0.5 + 1e-12),), "analytic")
        return env, env

    tiny = dataclasses.replace(F, envelope_builder=tiny_section)
    est = rho_csb(tiny, 1e-4, tol)
    assert est == rho_direct(F, 1e-4)
    assert est.kind == "approx"
    assert rho_csb(F, 1e-4, tol).is_exact


def test_numeric_envelope_failure_on_unresolvable_map():
    freq = 1_000_003.0

    def wild(x: float) -> float:
        return x + 0.2 * math.sin(TWO_PI * freq * x)

    F = Lifting(
        fundamental=wild,
        is_non_decreasing=False,
        label="wild",
    )
    with pytest.raises(NumericEnvelopeFailure):
        upper_map(F)


def test_constant_section_validation():
    with pytest.raises(ValueError):
        ConstantSection(0.5, 0.4)
    with pytest.raises(ValueError):
        ConstantSection(0.0, 1.0)


@pytest.mark.parametrize(
    "F",
    [
        pwl_standard(0.3, 9.0),
        pwl_standard(0.0, 2.5 * math.pi),
        pwl_standard(Fraction(1, 3), a_over_2pi=Fraction(7, 5)),
        pwl_standard(0.1, a_over_2pi=Fraction(1, 4) + Fraction(1, 10**6)),
        disc_standard(0.25, 3.0),
        disc_standard(0.0, TWO_PI),
        disc_standard(Fraction(2, 7), a_over_2pi=Fraction(3, 2)),
    ],
    ids=lambda F: F.label,
)
def test_exact_envelope_twins_match_float_envelopes(F):
    for env in (upper_map(F), lower_map(F)):
        E = env.lifting
        for i in range(1025):
            q = Fraction(i, 1024)
            assert float(E.fundamental_exact(q)) == pytest.approx(E.fundamental(float(q)), abs=1e-12)
        # degree-one gluing, exactly and in floats
        assert E.fundamental_exact(Fraction(1)) - E.fundamental_exact(Fraction(0)) == 1
        assert E.fundamental(1.0) - E.fundamental(0.0) == pytest.approx(1.0, abs=1e-12)
        # the registered section is a flat of the exact twin
        (sec,) = env.sections
        inside = [Fraction(sec.alpha) + k * Fraction(sec.width) / 8 for k in range(1, 8)]
        assert len({evaluate_exact(E, x) for x in inside}) == 1
