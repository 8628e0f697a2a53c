"""Rotation number estimators and rotation-interval assembly.

Three estimators for non-decreasing degree-one liftings:

* rho_direct       -- F^n(0)/n with n = ceil(1/error); the error bound 1/n
                      needs nothing beyond monotonicity.  By default it runs
                      all n iterates (the paper's baseline); with
                      stop_on_repeat its main loop runs only the leftover
                      steps after the first repeated float state, for the
                      same value bit for bit, which is how the csb method
                      estimates an envelope with no constant section.
* rho_simo         -- sorts the iterate indices of an orbit by fractional
                      part, once, and reads the first near-tie or else the
                      bracket off adjacent index pairs (Simo's
                      continuation-method estimator); no a-priori error bound
                      unless the rotation number is Diophantine.  Its loop
                      stops at the first repeated float state and completes
                      one lap past the repeat, for the full orbit's result
                      bit for bit in O(preperiod + period) memory; only an
                      orbit that never repeats (a bracket) keeps O(n).
* rho_constant_section -- orbit of a constant section's start, iterated on
                      the conjugate whose section starts at the origin (the
                      rotation by the keyword shift is applied inside the
                      loop); the first iterate whose fractional part
                      falls inside the section certifies an exact
                      rational rotation number, otherwise the direct
                      estimate after max_iter steps is returned.  An orbit
                      whose float state repeats without a hit can never
                      hit, so past the repeat the main loop runs only the
                      leftover steps and rebuilds the max_iter-step
                      estimate bit for bit; iterations_used stays the
                      nominal max_iter.  A step whose rotated point already
                      lies in [0, 1) skips the floor of the gluing rule,
                      with the same bits.

The rotation interval of an arbitrary lifting is [rho(lower map),
rho(upper map)]; rotation_interval wires the envelope module to the
estimators, preferring the constant-section algorithm whenever a usable
section exists.

Everything here is pure and safe to call concurrently; identical inputs give
bit-identical outputs regardless of process or thread count.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .envelope import lower_map, upper_map, widest_section
from .lifting import Lifting, _knot_value, _knots

DEFAULT_ERROR = 1e-6
DEFAULT_TOL = 1e-10
DEFAULT_SIMO_N = 1000

SIMO_TIE_EPS = 1e-14


class InvalidSection(ValueError):
    """Constant-section estimator called with a non-positive test bound."""


class PeriodicOrbitDetected(Exception):
    """Two orbit points share a fractional part: a lifted cycle was hit.

    The exception's args are the cycle's exact rotation number and iterates (rotation, i, j).
    """

    def __init__(self, rotation: Fraction, i: int, j: int):
        self.rotation = rotation
        self.i = i
        self.j = j
        super().__init__(rotation, i, j)

    def __str__(self) -> str:
        return f"periodic orbit: rho = {self.rotation} from iterates {self.i} and {self.j}"


class RotationEstimate(NamedTuple):
    """Either an exact rational m/n or a float estimate with an error bound.

    Exact estimates keep the raw pair (m, n) as produced by the hit; the
    reduced form is available as as_fraction.  Their error bound is 0.0,
    conditional on the rounding-error-below-tol assumption of the
    constant-section algorithm.  A NamedTuple, like every rotkit record: one
    is built per estimate, and a tuple is the cheapest record to build.
    """

    kind: str  # "exact" or "approx"
    value: float
    error_bound: float
    iterations_used: int
    m: int | None = None
    n: int | None = None

    @classmethod
    def exact(cls, m: int, n: int, iterations_used: int | None = None) -> "RotationEstimate":
        return cls("exact", m / n, 0.0, n if iterations_used is None else iterations_used, m, n)

    @classmethod
    def approx(cls, value: float, error_bound: float, iterations_used: int) -> "RotationEstimate":
        return cls("approx", value, error_bound, iterations_used)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    @property
    def as_fraction(self) -> Fraction:
        if not self.is_exact:
            raise ValueError("approximate estimate has no exact fraction")
        return Fraction(self.m, self.n)


class RotationInterval(NamedTuple):
    """Estimates for the endpoints [rho(lower map), rho(upper map)]."""

    lower: RotationEstimate
    upper: RotationEstimate


class SimoBracket(NamedTuple):
    """Lower/upper bounds for the rotation number from n sorted iterates."""

    rho_min: float
    rho_max: float
    n: int

    @property
    def is_consistent(self) -> bool:
        return self.rho_min <= self.rho_max


def _require_non_decreasing(F: Lifting, who: str) -> None:
    if not F.is_non_decreasing:
        raise ValueError(f"{who} requires a non-decreasing lifting, got {F.label!r}")


def _require_error(error: float) -> None:
    if not (math.isfinite(error) and error > 0.0):
        raise ValueError(f"error must be positive and finite, got {error}")


def rho_direct(F: Lifting, error: float = DEFAULT_ERROR, *, stop_on_repeat: bool = False) -> RotationEstimate:
    """Estimate rho as F^n(0)/n with n = ceil(1/error) iterates.

    For non-decreasing liftings |rho - F^n(0)/n| < 1/n, so the returned
    error bound is 1/n.  By default there is deliberately no early stop:
    every one of the n iterates runs, as in the paper's baseline.

    With stop_on_repeat the float state is compared with a checkpoint moved
    to iterates 1, 2, 4, 8, ... (Brent's cycle detection, as in
    rho_constant_section).  Once it repeats the rest of the orbit is forced:
    the gain of the whole periods left is added at once, and the main loop
    runs only the remaining steps before it stops.  Value, error_bound and
    the nominal iterations_used = n are bit-identical to the full loop.
    """
    _require_non_decreasing(F, "rho_direct")
    _require_error(error)
    n = math.ceil(1.0 / error)
    fund = F.fundamental
    floor = math.floor
    # the iteration starts in [0, 1): F is shifted by -floor(F(0)), inlined as
    # fund(x) - k (float(k0) is the operand Python converts the int to, so the
    # bits agree with fund(x) - k0; at k0 == 0, - 0.0 keeps every float as is)
    k0 = floor(fund(0.0))
    k = float(k0)
    x = 0.0
    m = 0
    if not stop_on_repeat:
        for _ in range(n):
            x = fund(x) - k
            if not 0.0 <= x < 1.0:
                s = floor(x)
                m += s
                x -= s
        return RotationEstimate.approx((m + x) / n + k0, 1.0 / n, n)
    # Brent checkpoint: the state (cx, cm) after ci steps; it moves at i == nxt
    cx = 0.0
    cm = 0
    ci = 0
    nxt = 1
    for i in range(1, n + 1):
        x = fund(x) - k
        if not 0.0 <= x < 1.0:
            s = floor(x)
            m += s
            x -= s
        if x == cx:
            # period i - ci, gaining m - cm: add the whole periods, run the
            # rem leftover steps and stop (x >= 0 never meets cx = -1.0)
            periods, rem = divmod(n - i, i - ci)
            m += periods * (m - cm)
            cx = -1.0
            nxt = i + rem
        if i == nxt:
            if cx < 0.0:
                break
            cx = x
            cm = m
            ci = i
            nxt = 2 * i
    return RotationEstimate.approx((m + x) / n + k0, 1.0 / n, n)


def rho_simo(F: Lifting, n: int = DEFAULT_SIMO_N) -> SimoBracket:
    """Bracket rho by sorting the fractional parts of F^0(0) .. F^n(0).

    Adjacent pairs in fractional-part order with ascending iterate indices
    raise the lower bound, descending ones cut the upper bound.  Restricted
    to rho in [0, 1] after the usual shift by floor(F(0)); the shift is added
    back to both bounds.  Two fractional parts closer than 1e-14 mean the
    orbit is numerically periodic: PeriodicOrbitDetected then carries the
    exact cycle rotation number instead of a bracket.

    The orbit loop stops at the first repeated float state: the state is
    compared with a checkpoint moved to iterates 1, 2, 4, 8, ... (Brent's
    cycle detection, as in rho_direct with stop_on_repeat).  Past a repeat
    the orbit is forced: it completes one lap past the repeat (cut short at
    n), since a value recurs in the full orbit exactly when it recurs one
    period after its first iterate, inside that lap.  The sorted lap-long
    window therefore has the full orbit's first tie at the same iterates,
    and the integer part is rebuilt by whole laps for the tie's second
    iterate only.  Every result is bit-identical to the full n-iterate
    loop's, and memory and time are O(preperiod + period) whatever n is; a
    repeat always ties, so a bracket only ever comes from a full orbit,
    which keeps O(n).

    The iterate indices are sorted by value once: the first adjacent pair
    closer than 1e-14 is the tie, and with no tie the same order gives the
    bracket.
    """
    _require_non_decreasing(F, "rho_simo")
    if n < 2:
        raise ValueError("rho_simo needs at least 2 iterates")
    fund = F.fundamental
    floor = math.floor
    k0 = floor(fund(0.0))
    k = float(k0)  # the shift by floor(F(0)), inlined as in rho_direct

    # fractional and integer parts of iterates 0, 1, ... up to the first repeat
    alphas = [0.0]
    ks = [0]
    x = 0.0
    m = 0
    # Brent checkpoint: the state cx after ci steps; it moves at i == nxt
    cx = 0.0
    ci = 0
    nxt = 1
    for i in range(1, n + 1):
        x = fund(x) - k
        if not 0.0 <= x < 1.0:
            s = floor(x)
            m += s
            x -= s
        if x == cx:
            break
        alphas.append(x)
        ks.append(m)
        if i == nxt:
            cx = x
            ci = i
            nxt = 2 * i
    stored = len(ks)
    if stored <= n:
        # the break's iterate, stored, repeats iterate ci: from ci on the orbit
        # has period stored - ci and gains m - ks[ci] a lap.  It completes one
        # lap past the repeat (cut short at n): a value recurs in the full
        # orbit exactly when it recurs in that window, one period after its
        # first iterate, so the sorted window has the full orbit's first tie
        period = stored - ci
        gain = m - ks[ci]
        alphas += alphas[ci : ci + n + 1 - stored]

    order = sorted(range(len(alphas)), key=alphas.__getitem__)
    for i0, i1 in zip(order, order[1:]):
        if alphas[i1] - alphas[i0] <= SIMO_TIE_EPS:
            i, j = (i0, i1) if i0 < i1 else (i1, i0)
            # every value is stored at its first iterate, so only j can lie
            # past the stored ones: whole laps after its stored twin
            kj = ks[j] if j < stored else ks[ci + (j - ci) % period] + (j - ci) // period * gain
            # one Fraction: (kj - ks[i]) / (j - i) + k0 over the common denominator
            raise PeriodicOrbitDetected(Fraction(kj - ks[i] + k0 * (j - i), j - i), i, j)

    # a repeated state appears twice in alphas and so always ties above:
    # the bracket reads a full, unrepeated orbit
    assert stored == n + 1
    rho_min = 0.0
    rho_max = 1.0
    for i0, i1 in zip(order, order[1:]):
        rho_aux = (ks[i1] - ks[i0]) / (i1 - i0)
        if i1 > i0:
            if rho_aux > rho_min:
                rho_min = rho_aux
        else:
            if rho_aux < rho_max:
                rho_max = rho_aux
    return SimoBracket(rho_min=rho_min + k0, rho_max=rho_max + k0, n=n)


def simo_error_bound(c: float, nu: float, n: int) -> float:
    """Error bound 1/(c n^nu)^(1/(nu-1)) for a Diophantine rotation number.

    Applies when |rho - p/q| <= c q^(-nu) for all rationals p/q, with c > 0
    and nu >= 2.
    """
    if c <= 0.0:
        raise ValueError("c must be positive")
    if nu < 2.0:
        raise ValueError("nu must be at least 2")
    if n < 1:
        raise ValueError("n must be at least 1")
    return (c * float(n) ** nu) ** (-1.0 / (nu - 1.0))


def rho_constant_section(
    G: Lifting, beta: float, error: float = DEFAULT_ERROR, *, shift: float = 0.0
) -> RotationEstimate:
    """Exact-when-possible rotation number of a map with a section at shift.

    pre: G is non-decreasing and [shift, shift + beta] lies inside a
    constant section of G, with a margin on each side wider than the
    rounding error the orbit accumulates (rho_csb leaves tol).  The
    estimator iterates the conjugate x -> G(x + shift) - shift, whose
    section starts at the origin, through G's gluing rule y = x + shift,
    G(y) = fund(y - floor(y)) + floor(y); with shift=0.0 it iterates G
    itself.  When y already lies in [0, 1) the step is fund(y) - shift, with
    no floor and no int arithmetic: y - 0 is y, and fund(y) + 0 - shift can
    differ from fund(y) - shift only in the sign of a zero, when fund(y) is
    -0.0 and shift is 0.0; a zero state is a hit, whose estimate does not
    read it.  The orbit of 0 is the orbit of the section; at the first n
    with fractional part x <= beta the section returns to itself (mod 1)
    and rho = m/n exactly, provided the margin holds.  Cycles longer than
    ceil(1/error) are invisible and fall back to the direct estimate
    (m + x)/max_iter of the orbit's state after max_iter = ceil(1/error)
    steps.

    The fallback may stop early.  The float state x is compared with a
    checkpoint moved to iterates 1, 2, 4, 8, ... (Brent's cycle detection).
    Once x repeats without a hit the rest of the orbit is forced and never
    hits: the gain of the whole periods left is added at once, and the main
    loop runs only the remaining steps before it stops, so the state after
    max_iter steps is bit-identical to the full loop's.  The estimate still
    reports the nominal iterations_used = max_iter.
    """
    _require_non_decreasing(G, "rho_constant_section")
    if beta <= 0.0:
        raise InvalidSection(f"test bound beta must be positive, got {beta}")
    _require_error(error)
    max_iter = math.ceil(1.0 / error)
    fund = G.fundamental
    floor = math.floor
    x = 0.0
    m = 0
    # Brent checkpoint: the state (cx, cm) after cn steps; it moves at n == nxt
    cx = 0.0
    cm = 0
    cn = 0
    nxt = 1
    for n in range(1, max_iter + 1):
        # G's gluing rule at x + shift, conjugated back by -shift; inside
        # [0, 1) the floor is 0 and the rule is fund(y) (see the docstring)
        y = x + shift
        if 0.0 <= y < 1.0:
            x = fund(y) - shift
        else:
            s = floor(y)
            x = fund(y - s) + s - shift
        if not 0.0 <= x < 1.0:
            s = floor(x)
            m += s
            x -= s
        if x <= beta:
            # RotationEstimate.exact(m, n), built without the classmethod call
            return RotationEstimate("exact", m / n, 0.0, n, m, n)
        if x == cx:
            # period n - cn, gaining m - cm: add the whole periods, run the
            # rem leftover steps, which replay the missed steps cn+1 ..
            # cn+rem, and stop (x >= 0 never meets cx = -1.0)
            periods, rem = divmod(max_iter - n, n - cn)
            m += periods * (m - cm)
            cx = -1.0
            nxt = n + rem
        if n == nxt:
            if cx < 0.0:
                break
            cx = x
            cm = m
            cn = n
            nxt = 2 * n
    return RotationEstimate.approx((m + x) / max_iter, 1.0 / max_iter, max_iter)


def rho_constant_section_exact(
    F: Lifting, alpha: Fraction | float, beta: Fraction | float, max_iter: int
) -> RotationEstimate | None:
    """Exact-rational twin of the constant-section algorithm.

    [alpha, beta] must be a true constant section of F (no tolerance padding:
    rational arithmetic has no rounding error); a float endpoint is taken at
    its binary value.  Iterates the section orbit F^n(alpha) through F's
    knots, read once; a hit certifies rho = m/n unconditionally.  Returns
    None when no cycle through the section shows up within max_iter iterates.
    """
    alpha = Fraction(alpha)
    width = Fraction(beta) - alpha
    if width <= 0:
        raise InvalidSection("section must be non-degenerate")
    knots = _knots(F)
    v = alpha
    for n in range(1, max_iter + 1):
        v = _knot_value(knots, v)
        d = v - alpha
        whole = d.numerator // d.denominator
        if d - whole <= width:
            return RotationEstimate.exact(whole, n)
    return None


def rho_csb(F: Lifting, error: float = DEFAULT_ERROR, tol: float = DEFAULT_TOL) -> RotationEstimate:
    """Constant-section estimate of a non-decreasing lifting.

    Rotates the widest maximal section (ties to the leftmost) to the origin
    and runs rho_constant_section; falls back to rho_direct with
    stop_on_repeat when no section wider than 2*tol exists.
    """
    _require_non_decreasing(F, "rho_csb")
    return _rho_of_envelope(upper_map(F), error, tol)


def rotation_interval(
    F: Lifting, error: float = DEFAULT_ERROR, tol: float = DEFAULT_TOL, method: str = "csb"
) -> RotationInterval:
    """rot(F) = [rho of the lower map, rho of the upper map].

    With method="csb" each envelope goes through the constant-section
    algorithm when it has a section wider than 2*tol and through the direct
    estimator with stop_on_repeat otherwise; method="direct" forces the plain
    n-iterate direct estimator (used for benchmarking).  Works for continuous
    liftings and for heavy (downward-jumping) ones, whose envelopes are
    continuous.
    """
    lo_env = lower_map(F)
    # a non-decreasing map is its own upper and lower envelope (for a map
    # without a builder, one grid scan); both endpoints are still estimated
    hi_env = lo_env if F.is_non_decreasing else upper_map(F)
    lo = _rho_of_envelope(lo_env, error, tol, method)
    hi = _rho_of_envelope(hi_env, error, tol, method)
    return RotationInterval(lower=lo, upper=hi)


def _rho_of_envelope(env, error: float, tol: float, method: str = "csb") -> RotationEstimate:
    # a NaN tol would fail the width test and silently force the fallback
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be non-negative and finite, got {tol}")
    if method == "csb":
        sec = widest_section(env.sections)
        if sec is not None and sec.width > 2.0 * tol:
            # rotated by -shift the section is [-tol, beta + tol]; x <= beta keeps tol off each edge
            shift = sec.alpha + tol
            beta = (sec.beta - sec.alpha) - 2.0 * tol
            return rho_constant_section(env.lifting, beta, error, shift=shift)
    elif method != "direct":
        raise ValueError(f"unknown rotation-interval method {method!r}")
    # no usable section: csb still stops at a repeated float state, while
    # method="direct" times the plain n-iterate baseline
    return rho_direct(env.lifting, error, stop_on_repeat=method == "csb")
