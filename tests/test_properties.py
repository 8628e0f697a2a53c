"""Property tests (hypothesis) over random non-decreasing PL maps, flat-topped and strictly increasing.

rho_direct(..., stop_on_repeat=True) stops at the first repeated float state
and rebuilds the ceil(1/error)-step estimate: every field must equal the plain
loop's bit for bit, and the value must equal the independent oracle's.
rho_simo finds its first near-tie on the sorted values: its bracket, or the
cycle's rotation number and iterate pair, must equal the index-sorting
oracle's.
"""

import math
import random

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rotkit import PeriodicOrbitDetected, rho_direct, rho_simo  # noqa: E402
from rotkit.lifting import Lifting  # noqa: E402
from _oracles import direct_value_oracle, random_flat_pl_lifting, simo_oracle  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
ERRORS = st.sampled_from([1e-2, 1e-3, 7e-4])
SIMO_N = st.sampled_from([2, 3, 50, 400])


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


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), pieces=st.integers(2, 6), n=SIMO_N)
def test_simo_matches_oracle_on_flat_pl_maps(seed, pieces, n):
    F, _, _, _ = random_flat_pl_lifting(random.Random(seed), pieces)
    _assert_simo_matches_oracle(F, n)


@PROPERTY
@given(F=increasing_pl_liftings(), n=SIMO_N)
def test_simo_matches_oracle_on_increasing_pl_maps(F, n):
    _assert_simo_matches_oracle(F, n)
