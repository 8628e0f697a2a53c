import math
import random
from fractions import Fraction

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
from rotkit.envelope import _certify, _numeric_envelope
from rotkit.families import _disc_knots, _pwl_knots
from rotkit.lifting import Lifting, _exact_envelope_knots, _knot_value, _knots
from _oracles import (
    _shifted,
    counterexample_exact_oracle,
    disc_envelope_exact_oracles,
    disc_exact_oracle,
    fmu_exact_oracle,
    pl_lifting,
    pwl_envelope_exact_oracles,
    pwl_exact_oracle,
)

TWO_PI = 2.0 * math.pi


def _plain(F, label="plain"):
    """Strip registered envelopes so construction goes through the numeric path."""
    return Lifting(
        fundamental=F.fundamental,
        is_non_decreasing=False,
        label=label,
    )


def _exact_values(F, points):
    """evaluate_exact(F, q) for each q, with F's knots read once, as rho_constant_section_exact reads them."""
    knots = _knots(F)
    return [_knot_value(knots, q) for q in points]


def test_monotone_map_is_its_own_envelope():
    F = counterexample_map()
    up = upper_map(F)
    lo = lower_map(F)
    assert up.lifting is F and lo.lifting is F
    assert [(s.alpha, s.beta) for s in up.lifting.sections] == [(0.8, 1.0)]


def test_envelope_source_says_where_the_envelope_came_from():
    # a family map states its sections; a non-decreasing map that leaves them None is grid-scanned
    F = f_mu(0.3)
    scanned = F._replace(sections=None)
    assert upper_map(F).source == lower_map(F).source == "analytic"
    assert upper_map(scanned).source == lower_map(scanned).source == "numeric"
    assert upper_map(scanned).lifting == scanned._replace(sections=(ConstantSection(0.75, 1.0),))
    assert upper_map(scanned).lifting.sections == upper_map(F).lifting.sections == (ConstantSection(0.75, 1.0),)


def test_invertible_standard_map_is_its_own_envelope():
    S = standard_map(0.3, 0.8)
    assert lower_map(S).lifting is S
    assert upper_map(S).lifting.sections == ()


def test_pwl_envelope_closed_form():
    T = pwl_standard(0, 2.5 * math.pi)
    up = upper_map(T)
    lo = lower_map(T)
    assert up.lifting.fundamental(0.0) == pytest.approx(1.0, abs=1e-12)
    (sec_u,) = up.lifting.sections
    assert sec_u.alpha == pytest.approx(-0.25, abs=1e-12)
    assert sec_u.beta == pytest.approx(7.0 / 12.0, abs=1e-12)
    (sec_l,) = lo.lifting.sections
    assert sec_l.alpha == pytest.approx(5.0 / 12.0 - 1.0, abs=1e-12)
    assert sec_l.beta == pytest.approx(0.25, abs=1e-12)


def test_disc_envelope_closed_form_against_grid_sup_oracle():
    # oracle: running sup over a 10^6-point grid of D(y) for y <= x
    np = pytest.importorskip("numpy")
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
    (sec,) = up.lifting.sections
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
        (sa,) = up_a.lifting.sections
        (sn,) = up_n.lifting.sections
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


def test_each_envelope_construction_writes_one_side_closure():
    # both sides of every builder, and of the numeric construction, run the same code
    # object: only the constants bound to it differ by side
    for F in (standard_map(0.3, 5.0), pwl_standard(0.3, 9.0), disc_standard(0.3, 7.0)):
        assert upper_map(F).lifting.fundamental.__code__ is lower_map(F).lifting.fundamental.__code__
    G = standard_map(0.3, 5.0)._replace(envelope_builder=None)
    up, lo = _numeric_envelope(G, True).lifting.fundamental, _numeric_envelope(G, False).lifting.fundamental
    assert up is not G.fundamental and up.__code__ is lo.__code__


def test_numeric_lower_envelope_when_the_minimum_ties_with_f_of_zero():
    # the period minimum sits one ulp below F(0): the flat of the lower map
    # runs from 0 to the minimum, and must not start a grid cell late
    xs = [0.0, 0.7, 0.78, 1.0]
    ys = [0.22, 0.55, math.nextafter(0.22, 0.0), 1.22]
    F = pl_lifting(xs, ys)
    lo = lower_map(F)
    assert [(s.alpha, s.beta) for s in lo.lifting.sections] == [(0.0, 0.78)]
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
            again = envelope_map(env.lifting._replace(is_non_decreasing=False))
            assert again.source == "numeric"
            for i in range(1001):
                x = i / 1000
                assert again.lifting.fundamental(x) == pytest.approx(env.lifting.fundamental(x), abs=1e-10)


def test_find_maximal_sections_examples():
    assert [(s.alpha, s.beta) for s in upper_map(f_mu(0.4)).lifting.sections] == [(0.75, 1.0)]
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

    # builderless monotone maps flat on [0, 0.1] and [0.9, 1]: the two edge runs
    # join across the origin when the top level is the bottom one plus 1
    for top, expected in ((1.2, [(-0.1, 0.1)]), (1.3, [(0.0, 0.1), (0.9, 1.0)])):

        def fund(x, top=top):
            if x <= 0.1:
                return 0.2
            if x <= 0.9:
                return 0.2 + (top - 0.2) * (x - 0.1) / 0.8
            return top

        found = find_maximal_sections(Lifting(fund, True, "edges"))
        assert [(s.alpha, s.beta) for s in found] == [pytest.approx(pair, abs=1e-10) for pair in expected]


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
    wrapped = rho_constant_section(F, beta, 1e-4, shift=-0.25 + tol)
    est = rho_csb(F, 1e-4, tol)
    assert wrapped.kind == "exact" and wrapped.as_fraction == est.as_fraction


def test_reparametrize_section_too_small():
    # a stated section no wider than 2*tol is unusable: rho_csb falls
    # back to the direct estimator
    tol = 1e-10
    F = f_mu(0.3)
    tiny = F._replace(sections=(ConstantSection(0.5, 0.5 + 1e-12),))
    est = rho_csb(tiny, 1e-4, tol)
    assert est == rho_direct(F, 1e-4)
    assert est.kind == "approx"
    assert rho_csb(F, 1e-4, tol).kind == "exact"


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


def test_certify_names_each_failure():
    F = standard_map(0.0, 2.0)  # not monotone, so not its own upper envelope
    ok, why = _certify(F, F, 64, True)
    assert not ok and why.startswith("monotonicity violated near x=")
    below = Lifting(fundamental=lambda x: x - 0.5, is_non_decreasing=True, label="below")
    ok, why = _certify(below, F, 64, True)
    assert not ok and why.startswith("envelope crosses the map near x=")
    steep = Lifting(fundamental=lambda x: 2.0 * x + 5.0, is_non_decreasing=True, label="steep")
    assert _certify(steep, F, 64, True) == (False, "degree-one gluing violated")
    assert _certify(upper_map(F).lifting, F, 64, True) == (True, "")


def test_constant_section_validation():
    with pytest.raises(ValueError):
        ConstantSection(0.5, 0.4)
    with pytest.raises(ValueError):
        ConstantSection(0.0, 1.0)


@pytest.mark.parametrize(
    "alpha, beta, message",
    [
        (0.5, 0.4, "empty section: [0.5, 0.4]"),
        (0.0, 1.0, "constant section of a degree-one lifting has diameter < 1"),
        (math.nan, math.nan, "section endpoints must be finite, got [nan, nan]"),
        (0.0, math.nan, "section endpoints must be finite, got [0.0, nan]"),
        (-math.inf, -math.inf, "section endpoints must be finite, got [-inf, -inf]"),
        (math.inf, math.inf, "section endpoints must be finite, got [inf, inf]"),
    ],
)
def test_constant_section_rejects_bad_endpoints_in_every_constructor(alpha, beta, message):
    # NaN fails both order checks and inf - inf is NaN, so finiteness is checked first
    good = ConstantSection(0.25, 0.5)
    for build in (
        lambda: ConstantSection(alpha, beta),
        lambda: ConstantSection(alpha=alpha, beta=beta),
        lambda: good._replace(alpha=alpha, beta=beta),
        lambda: ConstantSection._make((alpha, beta)),
    ):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message
    assert good == (0.25, 0.5) and good._replace(beta=0.75) == ConstantSection(0.25, 0.75)


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
    grid = [Fraction(i, 1024) for i in range(1025)]
    for env in (upper_map(F), lower_map(F)):
        E = env.lifting
        for q, v in zip(grid, _exact_values(E, grid)):
            assert float(v) == pytest.approx(E.fundamental(float(q)), abs=1e-12)
        # degree-one gluing, exactly (a continuous map's last knot is its first plus 1) and in floats
        knots = E.knots()
        assert knots[-1][1] - knots[0][1] == 1
        assert E.fundamental(1.0) - E.fundamental(0.0) == pytest.approx(1.0, abs=1e-12)
        # the registered section is a flat of the exact twin
        (sec,) = env.lifting.sections
        inside = [Fraction(sec.alpha) + k * Fraction(sec.width) / 8 for k in range(1, 8)]
        assert len({evaluate_exact(E, x) for x in inside}) == 1


# ---------------------------------------------------------------------------
# exact twins derived from rational knots, against the hand-written twins

_RNG = random.Random(11)
EXACT_POINTS = (
    [Fraction(i, 1024) for i in range(1025)]
    + [Fraction(_RNG.randint(0, 10**9), 10**9) for _ in range(200)]
    + [Fraction(_RNG.getrandbits(60), 2**60) for _ in range(50)]
)
PL_CASES = [
    ("pwl", 0.3, {"a": 9.0}),
    ("pwl", 0.0, {"a": 2.5 * math.pi}),
    ("pwl", 3.31, {"a": math.pi / 2 + 1e-9}),  # c just above 1/4 in floats
    ("pwl", Fraction(1, 3), {"a_over_2pi": Fraction(7, 5)}),
    ("pwl", 0.1, {"a_over_2pi": Fraction(1, 4) + Fraction(1, 10**6)}),
    ("pwl", Fraction(-2, 7), {"a_over_2pi": Fraction(1, 4) + Fraction(1, 10**15)}),
    ("disc", 0.25, {"a": 3.0}),
    ("disc", 0.0, {"a": TWO_PI}),
    ("disc", 3.31, {"a": 1e-9}),
    ("disc", Fraction(2, 7), {"a_over_2pi": Fraction(3, 2)}),
    ("disc", 0.5, {"a_over_2pi": Fraction(1, 10**12)}),
]
_FAMILY = {
    "pwl": (pwl_standard, _pwl_knots, pwl_exact_oracle, pwl_envelope_exact_oracles),
    "disc": (disc_standard, _disc_knots, disc_exact_oracle, disc_envelope_exact_oracles),
}


def _pl_case(family, omega, kw):
    """The map, its knots, its hand-written twin and hand-written (upper, lower, flat end, flat end)."""
    make, knots, twin, envelopes = _FAMILY[family]
    # exact twins of the parameters: a float's binary value, a Fraction as given
    c = Fraction(kw["a_over_2pi"]) if "a_over_2pi" in kw else Fraction(kw["a"] / TWO_PI)
    omega_q = Fraction(omega)
    return make(omega, **kw), knots(omega_q, c), twin(omega_q, c), envelopes(omega_q, c)


@pytest.mark.parametrize("family, omega, kw", PL_CASES)
def test_knots_match_hand_written_twins(family, omega, kw):
    F, _, twin, (upper, lower, _, _) = _pl_case(family, omega, kw)
    assert not F.is_non_decreasing
    for mine, oracle in ((F, twin), (upper_map(F).lifting, upper), (lower_map(F).lifting, lower)):
        assert _exact_values(mine, EXACT_POINTS) == [oracle(q) for q in EXACT_POINTS]


def test_knots_of_non_decreasing_maps_match_hand_written_twins():
    cases = [(f_mu(mu), fmu_exact_oracle(Fraction(mu))) for mu in (0, 1, 0.3, Fraction(819, 3124), "1/3")]
    cases.append((counterexample_map(), counterexample_exact_oracle))
    for omega, c in ((0.7, Fraction(1, 4)), (Fraction(1, 9), Fraction(1, 5)), (0.2, Fraction(0))):
        cases.append((pwl_standard(omega, a_over_2pi=c), pwl_exact_oracle(Fraction(omega), c)))
    cases.append((disc_standard(0.4, 0), disc_exact_oracle(Fraction(0.4), Fraction(0))))
    for F, oracle in cases:
        assert _exact_values(F, EXACT_POINTS) == [oracle(q) for q in EXACT_POINTS]
        # a non-decreasing map is its own envelope, twin included
        assert upper_map(F).lifting is F and lower_map(F).lifting is F


@pytest.mark.parametrize("family, omega, kw", PL_CASES)
def test_registered_sections_are_the_exact_flats(family, omega, kw):
    F, knots, _, (_, _, x_up, x_low) = _pl_case(family, omega, kw)
    for upper, env in ((True, upper_map(F)), (False, lower_map(F))):
        exact = _exact_envelope_knots(F._replace(knots=lambda: knots), upper)
        flats = [(x0, x1) for (x0, y0), (x1, y1) in zip(exact, exact[1:]) if y0 == y1]
        assert (x_up if upper else x_low) in {x for flat in flats for x in flat}  # the hand-written crossing
        if len(flats) == 2 and flats[0][0] == 0 and flats[1][1] == 1:
            # a flat ending at 1 and one starting at 0 form one section across 0
            expected = [(float(flats[1][0]) - 1.0, float(flats[0][1]))]
        else:
            expected = [(float(x0), float(x1)) for x0, x1 in flats]
        assert [(s.alpha, s.beta) for s in env.lifting.sections] == expected
        # the float map passes through the floats of the exact knots
        for x, y in exact:
            assert env.lifting.fundamental(float(x)) == pytest.approx(float(y), abs=1e-12)
