"""Rotation number estimators and rotation-interval assembly.

Three estimators for non-decreasing degree-one liftings:

* rho_direct       -- F^n(0)/n with n = ceil(1/error); the error bound 1/n
                      needs nothing beyond monotonicity.  By default it runs
                      all n iterates (the paper's baseline); with
                      stop_on_repeat it stops at the first repeated float
                      state, found by Brent's cycle detection in segments
                      that end at iterates 16, 32, 64, ..., and runs only
                      the leftover steps, for the same value bit for bit;
                      this is how the csb method estimates an envelope
                      with no constant section.
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
                      hit, so past the repeat (found as in rho_direct) the
                      loop runs only the leftover steps and rebuilds the
                      max_iter-step estimate bit for bit; iterations_used
                      stays the nominal max_iter.  A step whose rotated
                      point lies in [-1, 2) skips the floor of the gluing
                      rule, and a state in [1, 2) wraps by subtracting 1,
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
from itertools import repeat
from operator import length_hint
from typing import NamedTuple

from .envelope import lower_map, upper_map, widest_section
from .lifting import Lifting, _knot_value, _knots

DEFAULT_ERROR = 1e-6
DEFAULT_TOL = 1e-10
DEFAULT_SIMO_N = 1000

SIMO_TIE_EPS = 1e-14

# the stopping kernels' first Brent segment; later checkpoints double
FIRST_SEGMENT = 16


class InvalidSection(ValueError):
    """Constant-section estimator called with a test bound that is not positive (zero, negative or NaN)."""


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
    is built per estimate, and a tuple is the cheapest record to build.  The
    estimators build theirs with tuple.__new__, which skips the NamedTuple's
    Python-level __new__ and its defaults, so they give m and n (None for an
    approximate estimate) themselves.
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


# The estimators test their preconditions inline, since a call per check would
# add a Python frame to every staircase cell, and call these only to build the
# error they raise.


def _non_decreasing_required(F: Lifting, who: str) -> ValueError:
    return ValueError(f"{who} requires a non-decreasing lifting, got {F.label!r}")


def _bad_error(error: float) -> ValueError:
    return ValueError(f"error must be positive and finite, with 1/error finite, got {error}")


def rho_direct(F: Lifting, error: float = DEFAULT_ERROR, *, stop_on_repeat: bool = False) -> RotationEstimate:
    """Estimate rho as F^n(0)/n with n = ceil(1/error) iterates.

    For non-decreasing liftings |rho - F^n(0)/n| < 1/n, so the returned
    error bound is 1/n.  By default there is deliberately no early stop:
    every one of the n iterates runs, as in the paper's baseline.

    With stop_on_repeat the orbit runs in segments that end at iterates
    16, 32, 64, ... (Brent's cycle detection, as in rho_constant_section):
    each state is compared with the checkpoint, the state at the previous
    segment's end (0 for the first segment).  The loop body is only the
    step, the wrap and that comparison; the checkpoint moves once per
    segment, and the iterate index is read off the segment's iterator only
    at a repeat.  Once the state repeats the rest of the orbit is forced:
    the gain of the whole periods left is added at once, and one last
    segment runs the remaining steps.  A state in [1, 2) wraps as x - 1.0,
    the float operation of x - floor(x); floor runs only outside [0, 2).
    Value, error_bound and the nominal iterations_used = n are
    bit-identical to the full loop.
    """
    if not F.is_non_decreasing:
        raise _non_decreasing_required(F, "rho_direct")
    # a subnormal error passes 0 < error < inf, but its 1/error overflows to inf
    if not (0.0 < error < math.inf and 1.0 / error < math.inf):
        raise _bad_error(error)
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
        return tuple.__new__(RotationEstimate, ("approx", (m + x) / n + k0, 1.0 / n, n, None, None))
    # Brent's cycle detection: the orbit runs in segments, and each state of
    # a segment is compared with the checkpoint (cx, cm), the state after ci
    # steps; the checkpoint moves to a segment's end, iterate 16, 32, 64, ...
    cx = 0.0
    cm = 0
    ci = 0
    end = min(FIRST_SEGMENT, n)
    while True:
        steps = repeat(None, end - ci)
        for _ in steps:
            x = fund(x) - k
            # a state in [1, 2) wraps as x - 1.0, the bits of x - floor(x)
            if x < 1.0:
                if x < 0.0:
                    s = floor(x)
                    m += s
                    x -= s
            elif x < 2.0:
                x -= 1.0
                m += 1
            else:
                s = floor(x)
                m += s
                x -= s
            if x == cx:
                break
        else:
            if end == n:
                break
            cx = x
            cm = m
            ci = end
            end = min(2 * end, n)
            continue
        # the state after i steps repeats the checkpoint: period i - ci,
        # gaining m - cm.  Add the whole periods and run the rem leftover
        # steps as a last segment (x >= 0 never meets cx = -1.0)
        i = end - length_hint(steps)
        periods, rem = divmod(n - i, i - ci)
        m += periods * (m - cm)
        cx = -1.0
        ci = n - rem
        end = n
    return tuple.__new__(RotationEstimate, ("approx", (m + x) / n + k0, 1.0 / n, n, None, None))


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
    cycle detection; rho_direct with stop_on_repeat and rho_constant_section
    first move theirs at 16, which here would store and sort more iterates
    of a short orbit).  Past a repeat
    the orbit is forced: it completes one lap past the repeat (cut short at
    n), since a value recurs in the full orbit exactly when it recurs one
    period after its first iterate, inside that lap.  The sorted lap-long
    window therefore has the full orbit's first tie at the same iterates,
    and the integer part is rebuilt by whole laps for the tie's second
    iterate only.  Every result is bit-identical to the full n-iterate
    loop's, and memory and time are O(preperiod + period) whatever n is; a
    repeat always ties, so a bracket only ever comes from a full orbit,
    which keeps O(n).  A state in [1, 2) wraps as x - 1.0, as in
    rho_direct; floor runs only outside [0, 2).

    The iterate indices are sorted by value once: the first adjacent pair
    closer than 1e-14 is the tie, and with no tie the same order gives the
    bracket.
    """
    if not F.is_non_decreasing:
        raise _non_decreasing_required(F, "rho_simo")
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
        # a state in [1, 2) wraps as x - 1.0, the bits of x - floor(x)
        if x < 1.0:
            if x < 0.0:
                s = floor(x)
                m += s
                x -= s
        elif x < 2.0:
            x -= 1.0
            m += 1
        else:
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
    return tuple.__new__(SimoBracket, (rho_min + k0, rho_max + k0, n))


def simo_error_bound(c: float, nu: float, n: int) -> float:
    """Error bound 1/(c n^nu)^(1/(nu-1)) for a Diophantine rotation number.

    Applies when |rho - p/q| <= c q^(-nu) for all rationals p/q, with c > 0
    and nu >= 2, both finite.
    """
    if not 0.0 < c < math.inf:  # a NaN c fails this test too
        raise ValueError(f"c must be positive and finite, got {c}")
    if not 2.0 <= nu < math.inf:
        raise ValueError(f"nu must be finite and at least 2, got {nu}")
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
    itself.  When y lies in [-1, 2) its floor is -1, 0 or 1 and the step
    writes it out, with no floor call and no int arithmetic:
    fund(y + 1.0) - 1.0 - shift, fund(y) - shift and
    fund(y - 1.0) + 1.0 - shift are the float operations of the rule with
    s = -1 and s = 1, and at s = 0, y - 0 is y and fund(y) + 0 - shift can
    differ from fund(y) - shift only in the sign of a zero, when fund(y) is
    -0.0 and shift is 0.0; a zero state is a hit, whose estimate does not
    read it.  A state in [1, 2) wraps as x - 1.0, as in rho_direct.  The
    orbit of 0 is the orbit of the section; at the first n
    with fractional part x <= beta the section returns to itself (mod 1)
    and rho = m/n exactly, provided the margin holds.  Cycles longer than
    ceil(1/error) are invisible and fall back to the direct estimate
    (m + x)/max_iter of the orbit's state after max_iter = ceil(1/error)
    steps.

    The fallback may stop early.  The orbit runs in the segments of
    rho_direct with stop_on_repeat, and each state that misses the section
    is compared with the checkpoint at the previous segment's end (Brent's
    cycle detection); a hit's n is read off the segment's iterator.  Once
    x repeats without a hit the rest of the orbit is forced and never hits:
    the gain of the whole periods left is added at once, and one last
    segment runs the remaining steps, so the state after max_iter steps is
    bit-identical to the full loop's.  The estimate still reports the
    nominal iterations_used = max_iter.
    """
    if not G.is_non_decreasing:
        raise _non_decreasing_required(G, "rho_constant_section")
    if not beta > 0.0:  # a NaN beta fails this test too
        raise InvalidSection(f"test bound beta must be positive, got {beta}")
    # a subnormal error passes 0 < error < inf, but its 1/error overflows to inf
    if not (0.0 < error < math.inf and 1.0 / error < math.inf):
        raise _bad_error(error)
    max_iter = math.ceil(1.0 / error)
    fund = G.fundamental
    floor = math.floor
    x = 0.0
    m = 0
    # Brent's cycle detection in segments, as in rho_direct with stop_on_repeat
    cx = 0.0
    cm = 0
    cn = 0
    end = min(FIRST_SEGMENT, max_iter)
    while True:
        steps = repeat(None, end - cn)
        for _ in steps:
            # G's gluing rule at y = x + shift, conjugated back by -shift,
            # with the floor written out for y in [-1, 2) (see the docstring)
            y = x + shift
            if y < 1.0:
                if y >= 0.0:
                    x = fund(y) - shift
                elif y >= -1.0:
                    x = fund(y + 1.0) - 1.0 - shift
                else:
                    s = floor(y)
                    x = fund(y - s) + s - shift
            elif y < 2.0:
                x = fund(y - 1.0) + 1.0 - shift
            else:
                s = floor(y)
                x = fund(y - s) + s - shift
            if x < 1.0:
                if x < 0.0:
                    s = floor(x)
                    m += s
                    x -= s
            elif x < 2.0:
                x -= 1.0
                m += 1
            else:
                s = floor(x)
                m += s
                x -= s
            if x <= beta:
                n = end - length_hint(steps)
                return tuple.__new__(RotationEstimate, ("exact", m / n, 0.0, n, m, n))
            if x == cx:
                break
        else:
            if end == max_iter:
                break
            cx = x
            cm = m
            cn = end
            end = min(2 * end, max_iter)
            continue
        # period n - cn, gaining m - cm: add the whole periods and run the rem
        # leftover steps, which replay the missed steps cn+1 .. cn+rem and
        # cannot hit, as a last segment (x >= 0 never meets cx = -1.0)
        n = end - length_hint(steps)
        periods, rem = divmod(max_iter - n, n - cn)
        m += periods * (m - cm)
        cx = -1.0
        cn = max_iter - rem
        end = max_iter
    return tuple.__new__(RotationEstimate, ("approx", (m + x) / max_iter, 1.0 / max_iter, max_iter, None, None))


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

    Rotates the widest of F's stated sections (ties to the leftmost) to the
    origin and runs rho_constant_section; falls back to rho_direct with
    stop_on_repeat when no section wider than 2*tol exists.  A map that
    states no sections (F.sections is None) is scanned for them by
    upper_map, once per call.
    """
    if not F.is_non_decreasing:
        raise _non_decreasing_required(F, "rho_csb")
    sections = F.sections
    return _rho_of_sections(F, upper_map(F).sections if sections is None else sections, error, tol)


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
    # that states no sections, one grid scan); both endpoints are still estimated
    hi_env = lo_env if F.is_non_decreasing else upper_map(F)
    lo = _rho_of_sections(lo_env.lifting, lo_env.sections, error, tol, method)
    hi = _rho_of_sections(hi_env.lifting, hi_env.sections, error, tol, method)
    return RotationInterval(lower=lo, upper=hi)


def _rho_of_sections(G: Lifting, sections, error: float, tol: float, method: str = "csb") -> RotationEstimate:
    """rho of the non-decreasing G with the maximal constant sections given: csb's section choice."""
    # a NaN tol would fail the width test and silently force the fallback; NaN fails this test too
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be non-negative and finite, got {tol}")
    if method == "csb":
        # a family states at most one section, read directly; none or several go through widest_section
        sec = sections[0] if len(sections) == 1 else widest_section(sections)
        if sec is not None:
            alpha, beta = sec
            width = beta - alpha
            if width > 2.0 * tol:
                # rotated by -(alpha + tol) the section is [-tol, width - tol]; x <= width - 2 tol keeps tol off each edge
                return rho_constant_section(G, width - 2.0 * tol, error, shift=alpha + tol)
    elif method != "direct":
        raise ValueError(f"unknown rotation-interval method {method!r}")
    # no usable section: csb still stops at a repeated float state, while
    # method="direct" times the plain n-iterate baseline
    return rho_direct(G, error, stop_on_repeat=method == "csb")
