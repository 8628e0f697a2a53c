"""Property tests (hypothesis) over random non-decreasing PL maps, flat-topped and strictly increasing.

rho_direct(..., stop_on_repeat=True) stops at the first repeated float state
and rebuilds the ceil(1/error)-step estimate: every field must equal the plain
loop's bit for bit, and the value must equal the independent oracle's.
rho_constant_section, whose step skips the floor of the gluing rule when the
rotated point already lies in [0, 1), must equal the plain section-orbit loop
bit for bit at any shift.
rho_simo stops at the first repeated float state, completes one lap past it
and finds its first near-tie on the sorted values: its bracket, or the
cycle's rotation number and iterate pair, must equal the index-sorting
oracle's full loop, with n on either side of that stop; and once one lap past
the orbit's first repeat fits in n, the result no longer depends on n, up to
n = 10^6.  On random non-monotone PL maps, which take the numeric envelope
path, both envelopes must sandwich the map, be non-decreasing and degree-one,
match the knot oracle, and reproduce themselves when built again.  On random
rational PL knots, continuous or heavy, the exact upper and lower maps derived
from the knots must have the same four properties, exactly.
"""

import math
import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rotkit import PeriodicOrbitDetected, lower_map, rho_constant_section, rho_direct, rho_simo, upper_map  # noqa: E402
from rotkit.envelope import _exact_envelope_knots  # noqa: E402
from rotkit.lifting import Lifting, _knot_evaluator  # noqa: E402
from _oracles import (  # noqa: E402
    _shifted,
    direct_value_oracle,
    first_repeat,
    pl_envelope_oracle,
    random_flat_pl_lifting,
    random_pl_lifting,
    section_orbit_oracle,
    simo_oracle,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
ERRORS = st.sampled_from([1e-2, 1e-3, 7e-4])
SIMO_N = st.sampled_from([2, 3, 50, 400])
AROUND_REPEAT_N = st.integers(2, 600)


def _assert_fallback_is_plain(F: Lifting, error: float) -> None:
    fast = rho_direct(F, error, stop_on_repeat=True)
    plain = rho_direct(F, error)
    assert (fast.kind, fast.value.hex(), fast.error_bound, fast.iterations_used) == (
        plain.kind,
        plain.value.hex(),
        plain.error_bound,
        plain.iterations_used,
    )
    assert fast.iterations_used == math.ceil(1.0 / error)
    assert fast.value == direct_value_oracle(F.fundamental, error)


def _assert_simo_matches_oracle(F: Lifting, n: int) -> None:
    try:
        br = rho_simo(F, n)
    except PeriodicOrbitDetected as hit:
        outcome = ("cycle", hit.rotation, hit.i, hit.j)
    else:
        assert br.n == n
        outcome = ("bracket", br.rho_min.hex(), br.rho_max.hex())
    kind, *rest = simo_oracle(F.fundamental, n)
    assert outcome == ((kind, *rest) if kind == "cycle" else (kind, *(v.hex() for v in rest)))


@st.composite
def increasing_pl_liftings(draw) -> Lifting:
    """Strictly increasing PL lifting: knots 0 < x_1 < ... < 1, rises > 0 summing to 1."""
    np = pytest.importorskip("numpy")
    inner = draw(st.lists(st.integers(1, 99), min_size=0, max_size=5, unique=True))
    xs = [0.0] + [i / 100 for i in sorted(inner)] + [1.0]
    rises = draw(st.lists(st.integers(1, 20), min_size=len(xs) - 1, max_size=len(xs) - 1))
    y0 = draw(st.integers(-300, 300)) / 100
    total = sum(rises)
    ys = [y0]
    acc = 0
    for r in rises[:-1]:
        acc += r
        ys.append(y0 + acc / total)
    ys.append(y0 + 1.0)  # degree-one gluing

    def fund(x: float) -> float:
        return float(np.interp(x, xs, ys))

    return Lifting(fundamental=fund, is_non_decreasing=True, label=f"increasing-pl({xs}, {ys})")


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), pieces=st.integers(2, 6), error=ERRORS)
def test_fallback_equals_plain_direct_on_flat_pl_maps(seed, pieces, error):
    F, _, _, _ = random_flat_pl_lifting(random.Random(seed), pieces)
    _assert_fallback_is_plain(F, error)


@PROPERTY
@given(F=increasing_pl_liftings(), error=ERRORS)
def test_fallback_equals_plain_direct_on_increasing_pl_maps(F, error):
    _assert_fallback_is_plain(F, error)


ONE_MINUS_ULP = math.nextafter(1.0, 0.0)
# whole periods, the flat's start and the edges of [0, 1), or anywhere
SHIFTS = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([-0.0, ONE_MINUS_ULP, -ONE_MINUS_ULP, 1e-10, -1e-10]),
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), pieces=st.integers(2, 6), error=ERRORS, shift=SHIFTS, part=st.sampled_from([1, 2, 4]))
def test_constant_section_matches_plain_loop_at_any_shift(seed, pieces, error, shift, part):
    # F is flat on [0, beta]: a shift near a whole period hits its section,
    # any other one still has to give the plain loop's estimate
    F, beta, _, _ = random_flat_pl_lifting(random.Random(seed), pieces)
    beta_f = float(beta) / part
    est = rho_constant_section(F, beta_f, error, shift=shift)
    kind, value, m, n, used = section_orbit_oracle(_shifted(F.fundamental, shift), beta_f, error)
    assert (est.kind, est.value.hex(), est.m, est.n, est.iterations_used) == (kind, value.hex(), m, n, used)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), pieces=st.integers(2, 6), n=SIMO_N)
def test_simo_matches_oracle_on_flat_pl_maps(seed, pieces, n):
    F, _, _, _ = random_flat_pl_lifting(random.Random(seed), pieces)
    _assert_simo_matches_oracle(F, n)


@PROPERTY
@given(F=increasing_pl_liftings(), n=SIMO_N)
def test_simo_matches_oracle_on_increasing_pl_maps(F, n):
    _assert_simo_matches_oracle(F, n)


@PROPERTY
@given(shift=st.integers(-3, 3), q=st.integers(0, 8), p=st.integers(0, 255), n=AROUND_REPEAT_N)
def test_simo_matches_oracle_on_dyadic_rigid_rotations(shift, q, p, n):
    # every iterate of x + shift + p/2^q is exact: the orbit returns to 0.0
    # after at most 2^q steps, and rho_simo's stop at that repeat falls
    # before, at or after n
    omega = shift + (p % 2**q) / 2**q
    F = Lifting(fundamental=lambda x: x + omega, is_non_decreasing=True, label=f"rigid({omega})")
    _assert_simo_matches_oracle(F, n)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), pieces=st.integers(2, 6), n=AROUND_REPEAT_N)
def test_simo_completion_matches_oracle_on_flat_pl_maps(seed, pieces, n):
    # a flat map's orbit repeats once it lands on the flat: n in [2, 600]
    # falls on either side of rho_simo's stop, and the filled-in orbit must
    # give the full loop's outcome
    F, _, _, _ = random_flat_pl_lifting(random.Random(seed), pieces)
    _assert_simo_matches_oracle(F, n)


def _simo_cycle(F: Lifting, n: int) -> tuple:
    with pytest.raises(PeriodicOrbitDetected) as hit:
        rho_simo(F, n)
    return hit.value.rotation, hit.value.i, hit.value.j


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), pieces=st.integers(2, 6))
def test_simo_is_constant_in_n_once_a_lap_fits(seed, pieces):
    # from n0 = i + 2 (j - i) - 1 on, every value of the float cycle recurs
    # in the orbit and none is added: the first tie and its iterates are fixed
    F, _, _, _ = random_flat_pl_lifting(random.Random(seed), pieces)
    repeat = first_repeat(F.fundamental, 10_000)
    hypothesis.assume(repeat is not None)
    i, j = repeat
    n0 = max(j + (j - i) - 1, 2)
    assert _simo_cycle(F, n0) == _simo_cycle(F, 10**6)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), knots=st.integers(2, 6))
def test_numeric_envelopes_of_random_pl_maps(seed, knots):
    F, xs, ys = random_pl_lifting(random.Random(seed), knots)
    f = F.fundamental
    grid = sorted({i / 997 for i in range(998)} | set(xs))
    for upper, envelope_map in ((True, upper_map), (False, lower_map)):
        env = envelope_map(F)
        assert env.source == "numeric"
        e = env.lifting.fundamental
        values = [e(x) for x in grid]
        for x, v in zip(grid, values):
            assert v >= f(x) if upper else v <= f(x)
            assert abs(v - pl_envelope_oracle(f, xs, ys, x, upper)) <= 1e-9
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert abs(values[-1] - values[0] - 1.0) <= 1e-12
        # built again from the envelope, taken as a map of unknown monotonicity
        again = envelope_map(env.lifting._replace(is_non_decreasing=False)).lifting
        assert max(abs(again.fundamental(x) - v) for x, v in zip(grid, values)) <= 1e-12


@st.composite
def rational_pl_knots(draw) -> list:
    """Knots 0 < x_1 < ... < 1 on the 1/60 grid, y = x + an offset; y_k = y_0 + 1, or above it for a heavy map."""
    inner = draw(st.lists(st.integers(1, 59), min_size=1, max_size=6, unique=True))
    xs = [Fraction(0)] + [Fraction(i, 60) for i in sorted(inner)] + [Fraction(1)]
    offsets = [Fraction(draw(st.integers(-80, 80)), 100) for _ in xs[:-1]]
    y0 = Fraction(draw(st.integers(-300, 300)), 100)
    ys = [y0 + x + r for x, r in zip(xs, offsets)]
    jump = Fraction(draw(st.sampled_from([0, 0, 1, 37])), 50)  # the heavy jump at the integers
    return list(zip(xs, ys + [ys[0] + 1 + jump]))


@PROPERTY
@given(knots=rational_pl_knots())
def test_exact_envelopes_of_random_rational_pl_maps(knots):
    f = _knot_evaluator(knots)
    xs = [x for x, _ in knots]
    ys = [y for _, y in knots]
    envelopes = {upper: _exact_envelope_knots(knots, upper) for upper in (True, False)}
    breaks = {x for k in (knots, *envelopes.values()) for x, _ in k}
    grid = sorted(breaks | {Fraction(i, 256) for i in range(257)})
    for upper, env_knots in envelopes.items():
        e = _knot_evaluator(env_knots)
        values = [e(q) for q in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] - values[0] == 1 and env_knots[-1][1] == env_knots[0][1] + 1
        for q, v in zip(grid, values):
            assert v >= f(q) if upper else v <= f(q)
            assert v == pl_envelope_oracle(f, xs, ys, q, upper)
        # idempotent: the envelope of a non-decreasing map is that map
        assert _exact_envelope_knots(env_knots, upper) == env_knots
        assert _exact_envelope_knots(env_knots, not upper) == env_knots
