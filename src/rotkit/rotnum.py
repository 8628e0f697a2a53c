"""Rotation number estimators and rotation-interval assembly.

Three estimators for non-decreasing degree-one liftings:

* rho_direct       -- F^n(0)/n with n = ceil(1/error); the error bound 1/n
                      needs nothing beyond monotonicity.  By default it runs
                      all n iterates (the paper's baseline); with
                      stop_on_repeat it stops at the first repeated float
                      state and runs only the leftover steps, for the same
                      value bit for bit; this is how the csb method
                      estimates an envelope with no constant section.  The
                      stopping loop keeps a record of its last estimate, so
                      the same fundamental at the same n runs once in a row
                      (the two endpoints of a non-decreasing map's rotation
                      interval).
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
                      estimate after max_iter steps is returned, bit for
                      bit also when the loop stops at a repeated state
                      without a hit; iterations_used stays the nominal
                      max_iter.

Each of the four orbit loops (rho_direct's plain and stopping loops,
rho_simo's and rho_constant_section's) is one template, a kernel's source
with the orbit step left open, joined at import from shared fragments:
the three that iterate F itself share one prologue and one step, the three
that return an approximate estimate one return line, and all four wrap a
state into [0, 1) by one fragment, _WRAP.  The stopping and csb loops are
built by one function, _segmented_loop (Brent's cycle detection in
segments), from each loop's step and, for csb, its hit test; the plain
loop, with no repeat test, and rho_simo's, which stores its orbit, are
templates of their own.  The csb loop runs its first segment as a plain
pass with no repeat test: that segment's checkpoint is the start state
0.0, which lies in the section, so it can recur only as a hit.  A
fundamental built from a lifting.Step has its expression written into the
loop, compiled the first time that step needs the template and cached,
and runs no Python frame per iterate; any other fundamental is called as
fund(x) by the same template.  The kernel is chosen by the fundamental's
code object, so a lifting copied with a new fundamental runs that
fundamental, and either way every iterate runs the same float operations.

The rotation interval of an arbitrary lifting is [rho(lower map),
rho(upper map)]; rotation_interval wires the envelope module to the
estimators, preferring the constant-section algorithm whenever a usable
section exists.

Everything here is safe to call concurrently; identical inputs give
bit-identical outputs regardless of process or thread count.  The one state
is rho_direct's record of its last stopping estimate, one tuple
(fundamental, n, estimate) replaced in one assignment, so a thread reads a
whole record or none.  It assumes a fundamental's value depends on x alone,
and the plain loop neither reads nor writes it.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from itertools import repeat
from math import ceil, inf
from operator import index, length_hint
from typing import NamedTuple

from .envelope import lower_map, upper_map, widest_section
from .lifting import STEPS, Lifting, _fraction, _knot_value, _knots

DEFAULT_ERROR = 1e-6
DEFAULT_TOL = 1e-10
DEFAULT_SIMO_N = 1000

SIMO_TIE_EPS = 1e-14

# the stopping kernels' first Brent segment; later checkpoints double
FIRST_SEGMENT = 16


class InvalidSection(ValueError):
    """Constant-section estimator called with a test bound outside (0, 1), a shift that is not finite, or an exact section that is empty, 1 or more wide, or not finite.

    A bound that is zero, negative or NaN names no section.  Nor does one of
    1 or more (infinity too), nor an exact section that wide: no constant
    section of a degree-one lifting is 1 wide, and such a bound would take
    the orbit's first state as a hit.
    A NaN or infinite shift places the section at no point of the circle.
    """


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
    def exact(cls, m: int, n: int) -> "RotationEstimate":
        return cls("exact", m / n, 0.0, n, m, n)

    @property
    def as_fraction(self) -> Fraction:
        if self.kind != "exact":
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


# The estimators test their preconditions inline, since a call per check would
# add a Python frame to every staircase cell, and call these only to build the
# error they raise.


def _non_decreasing_required(F: Lifting, who: str) -> ValueError:
    return ValueError(f"{who} requires a non-decreasing lifting, got {F.label!r}")


def _bad_error(error: float) -> ValueError:
    return ValueError(f"error must be positive and finite, with 1/error finite, got {error}")


def _bad_tol(tol: float) -> ValueError:
    # a NaN tol would fail the width test and silently force the fallback
    return ValueError(f"tol must be non-negative and finite, got {tol}")


# ---------------------------------------------------------------------------
# orbit kernels
#
# A template's {step} is an expression over x, parenthesized, whose value is
# the fundamental's at x: a Step's expression, its constants unpacked from
# the fundamental's defaults by {unpack}, or else fund(x).  The segment ends
# are conditional expressions, not min() calls: a staircase estimate runs
# only a few iterates, and a builtin call is a sizeable part of its cost.
# The fragments below are joined into the templates once, at import.

# a state wrapped into [0, 1), its whole part added to m.  A state in [1, 2)
# wraps as x - 1.0, the float operation of x - floor(x), so floor runs only
# outside [0, 2) and the bits are those of x - floor(x) either way.  Each line
# of a fragment starts with its newline, so _indented indents it
_WRAP = """
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
    x -= s"""


def _indented(fragment: str, depth: int) -> str:
    return fragment.replace("\n", "\n" + " " * depth)


# the prologue of the loops that iterate F itself: the shift by floor(F(0)) is
# inlined in their step as step - k (float(k0) is the operand Python converts
# the int to, so the bits agree with step - k0; at k0 == 0, - 0.0 keeps every
# float as is), and the iteration starts in [0, 1)
_PROLOGUE = """\
def kernel(fund, n):
    {unpack}
    x = 0.0
    k0 = floor({step})
    k = float(k0)"""
_STEP = "\nx = {step} - k"
# the estimate after n steps, its value written in at %s
_APPROX = '\nreturn tuple_new(RotationEstimate, ("approx", %s, 1.0 / n, n, None, None))'

# rho_direct's plain loop, the paper's baseline: all n steps, no repeat test
_DIRECT_LOOP = f"""
{_PROLOGUE}
    m = 0
    for _ in range(n):{_indented(_STEP + _WRAP, 8)}{_indented(_APPROX % "(m + x) / n + k0", 4)}
"""

# The estimate after n steps of the orbit of 0, stopped at its first repeated
# state by Brent's cycle detection (R. P. Brent, BIT 20, 1980).  The orbit
# runs in segments, and each state of a segment is compared with the
# checkpoint (cx, cm), the state after ci steps; the checkpoint moves to a
# segment's end, iterate FIRST_SEGMENT = 16, 32, 64, ...  The loop body is
# only the step, the wrap, the hit test and that comparison, and the iterate
# index is read off the segment's iterator only at a hit or a repeat.  Once
# the state after i steps repeats the checkpoint the rest of the orbit is
# forced, with period i - ci, gaining m - cm a period: the whole periods left
# are added at once, and the rem leftover steps run as a last segment.  They
# replay steps ci+1 .. ci+rem, so they cannot hit where those did not, and
# the state after n steps is bit-identical to the full loop's.
#
# A hit test, when a loop has one, is a condition on the wrapped state under
# which the loop returns the exact estimate m / i of iterate i.  It takes the
# first segment out of the repeat test: that segment's checkpoint is the
# start state 0.0, and a test that 0.0 passes (the section [0, beta] holds
# it) returns before any state can equal 0.0, so the first segment runs as a
# plain pass over iterates 1 .. FIRST_SEGMENT, with no iterator to read.  For
# every n > FIRST_SEGMENT that pass iterates one range built at import,
# FIRST_RANGE, so the call makes no range of its own; a smaller n, whose
# whole orbit is the first segment, iterates range(1, n + 1).
#
# Every estimate a kernel returns is built by tuple_new, tuple.__new__ bound
# once among the kernels' globals: one global load, where tuple.__new__
# would look up the builtin and then its attribute on every return.

# the checkpoint moved to the state after end steps, and the next segment's end
_CHECKPOINT = """
cx = x
cm = m
ci = end
end = 2 * end if 2 * end < n else n"""

_FIRST_END = "\nend = FIRST_SEGMENT if FIRST_SEGMENT < n else n"
# the first segment's iterates 1 .. end of a loop with a hit test, prebuilt for every n > FIRST_SEGMENT
_FIRST_PASS = """
if FIRST_SEGMENT < n:
    end = FIRST_SEGMENT
    first = FIRST_RANGE
else:
    end = n
    first = range(1, n + 1)"""
_EXACT = '\n    return tuple_new(RotationEstimate, ("exact", m / i, 0.0, i, m, i))'


def _segmented_loop(prologue: str, advance: str, value: str, hit: str = "") -> str:
    """A kernel's source: Brent's segments over the advance fragment, _WRAP and the hit test, if any.

    prologue is the def line and the set-up before m = 0, with x at 0.0;
    advance sets x to the next state, before the wrap; hit is "" or an
    "if ...:" line; value is the estimate after n steps.
    """
    body = advance + _WRAP
    if hit:
        start = _FIRST_PASS + "\nfor i in first:" + _indented(body + hit + _EXACT, 4) + _CHECKPOINT
        hit += "\n    i = end - length_hint(steps)" + _EXACT
    else:
        start = "\ncx = 0.0\ncm = 0\nci = 0" + _FIRST_END
    return f"""
{prologue}
    m = 0{_indented(start, 4)}
    while True:
        steps = repeat(None, end - ci)
        for _ in steps:{_indented(body + hit, 12)}
            if x == cx:
                break
        else:
            if end == n:
                break{_indented(_CHECKPOINT, 12)}
            continue
        i = end - length_hint(steps)
        periods, rem = divmod(n - i, i - ci)
        m += periods * (m - cm)
        cx = -1.0  # no wrapped state, x >= 0, meets it
        ci = n - rem
        end = n{_indented(_APPROX % value, 4)}
"""


# rho_direct's stopping loop: the plain loop's prologue and step, no hit
_STOPPING_LOOP = _segmented_loop(_PROLOGUE, _STEP, "(m + x) / n + k0")

# rho_constant_section's loop: G's gluing rule at y = x + shift, conjugated
# back by -shift, with the floor written out for y in [-1, 2) (see
# rho_constant_section); the step reads y as x, moved into [0, 1) first.
# A state in the section [0, beta] is a hit, so the first segment is a plain pass
_CSB_LOOP = _segmented_loop(
    prologue="""\
def kernel(fund, beta, n, shift):
    {unpack}
    x = 0.0""",
    advance="""
x += shift
if x < 1.0:
    if x >= 0.0:
        x = {step} - shift
    elif x >= -1.0:
        x += 1.0
        x = {step} - 1.0 - shift
    else:
        s = floor(x)
        x -= s
        x = {step} + s - shift
elif x < 2.0:
    x -= 1.0
    x = {step} + 1.0 - shift
else:
    s = floor(x)
    x -= s
    x = {step} + s - shift""",
    hit="\nif x <= beta:",
    value="(m + x) / n",
)

# fractional and integer parts of iterates 0, 1, ... up to the first repeat,
# with the Brent checkpoint, the state cx after ci steps, moved at i == nxt
_SIMO_LOOP = f"""
{_PROLOGUE}
    alphas = [0.0]
    ks = [0]
    m = 0
    cx = 0.0
    ci = 0
    nxt = 1
    for i in range(1, n + 1):{_indented(_STEP + _WRAP, 8)}
        if x == cx:
            break
        alphas.append(x)
        ks.append(m)
        if i == nxt:
            cx = x
            ci = i
            nxt = 2 * i
    return alphas, ks, m, ci, k0
"""


class _Kernels(dict):
    """One template's kernels, keyed by the id of the code object of the fundamental whose step they write in.

    A step is compiled into the template the first time a fundamental of its
    code asks for it.  A fundamental with no step (no code object, or one no
    Step built) gets the kernel whose step is fund(x), compiled once and kept
    under the key 0, which no id takes.  A step's names must not be names
    the loop binds otherwise (tests/test_kernels.py checks every family's).
    """

    def __init__(self, template: str):
        super().__init__()
        self.template = template

    def __missing__(self, key: int):
        step = STEPS.get(key)
        if step is not None:
            unpack = f"{', '.join(step.bound)}, = fund.__defaults__" if step.bound else "pass"
            source = self.template.format(step=f"({step.expr})", unpack=unpack)
        elif key:
            return self[0]
        else:
            source = self.template.format(step="fund(x)", unpack="pass")
        namespace = dict(_LOOP_NAMES)
        exec(compile(source, "<orbit kernel>", "exec"), namespace)
        kernel = self[key] = namespace["kernel"]
        return kernel


# the globals of every kernel
_LOOP_NAMES = {
    "floor": math.floor,
    "repeat": repeat,
    "length_hint": length_hint,
    "RotationEstimate": RotationEstimate,
    "tuple_new": tuple.__new__,
    "FIRST_SEGMENT": FIRST_SEGMENT,
    "FIRST_RANGE": range(1, FIRST_SEGMENT + 1),
}
_DIRECT = _Kernels(_DIRECT_LOOP)
_STOPPING = _Kernels(_STOPPING_LOOP)
_SIMO = _Kernels(_SIMO_LOOP)
_CSB = _Kernels(_CSB_LOOP)

# rho_direct's last stopping estimate, (fundamental, n, estimate); holding the
# fundamental keeps its id from being reused while the record stands
_last_stopping: tuple = (None, 0, None)


def rho_direct(F: Lifting, error: float = DEFAULT_ERROR, *, stop_on_repeat: bool = False) -> RotationEstimate:
    """Estimate rho as F^n(0)/n with n = ceil(1/error) iterates.

    For non-decreasing liftings |rho - F^n(0)/n| < 1/n, so the returned
    error bound is 1/n.  By default there is deliberately no early stop:
    every one of the n iterates runs, as in the paper's baseline.

    With stop_on_repeat the orbit stops at its first repeated float state,
    found by Brent's cycle detection (see _segmented_loop): the whole
    periods left are added at once and only the leftover steps run.
    Value, error_bound and the nominal iterations_used = n are
    bit-identical to the full loop.

    The stopping loop records its last estimate with its fundamental and n.
    A call on the same fundamental object at the same n returns that
    estimate object without iterating (a non-decreasing map's two
    rotation_interval endpoints), on the assumption that the fundamental's
    value depends on x alone: a fundamental that counts its evaluations
    sees none on such a repeat.  The record is one tuple bound in one
    assignment, so threads may share it, and it holds the fundamental, so
    no other function can take its id.  The plain loop never reads or
    writes it: every call runs all n iterates.
    """
    if not F.is_non_decreasing:
        raise _non_decreasing_required(F, "rho_direct")
    # a subnormal error passes 0 < error < inf, but its 1/error overflows to inf
    if not (0.0 < error < inf and 1.0 / error < inf):
        raise _bad_error(error)
    n = ceil(1.0 / error)
    fund = F.fundamental
    if not stop_on_repeat:
        return _DIRECT[id(getattr(fund, "__code__", None))](fund, n)
    global _last_stopping
    last = _last_stopping
    if last[0] is fund and last[1] == n:
        return last[2]
    est = _STOPPING[id(getattr(fund, "__code__", None))](fund, n)
    # one tuple bound in one assignment: a thread reads a whole record or none
    _last_stopping = (fund, n, est)
    return est


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
    cycle detection; _segmented_loop first moves its checkpoint at 16, which
    here would store and sort more iterates of a short orbit).  Past a
    repeat the orbit is forced: it completes one lap past the repeat (cut
    short at n), since a value recurs in the full orbit exactly when it
    recurs one period after its first iterate, inside that lap.  The sorted
    lap-long window therefore has the full orbit's first tie at the same
    iterates, and the integer part is rebuilt by one lap for the tie's
    second iterate only.  Every result is bit-identical to the full n-iterate
    loop's, and memory and time are O(preperiod + period) whatever n is; a
    repeat always ties, so a bracket only ever comes from a full orbit,
    which keeps O(n).  Its integer parts are then moved into an array of
    64-bit ints before the sort, so the orbit keeps no int object per
    iterate (after the shift by floor(F(0)) a degree-one lifting gains 0
    or 1 a step, up to rounding, far inside that range); the fractional
    parts stay a list, whose float objects the sort reuses as its keys.

    The iterate indices are sorted by value once: the first adjacent pair
    closer than 1e-14 is the tie, and with no tie the same order gives the
    bracket.
    """
    if not F.is_non_decreasing:
        raise _non_decreasing_required(F, "rho_simo")
    try:
        n = index(n)  # a C call, no Python frame
    except TypeError:
        raise ValueError(f"rho_simo's n must be an integer, got {n!r}") from None
    if n < 2:
        raise ValueError("rho_simo needs at least 2 iterates")
    fund = F.fundamental
    alphas, ks, m, ci, k0 = _SIMO[id(getattr(fund, "__code__", None))](fund, n)
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
    else:
        # a full orbit: its integer parts as 64-bit ints, not int objects, before
        # the sort, whose index list and keys are its peak.  The loop appends to a
        # list, which 3.11 specializes and array.append is not
        ks = array("q", ks)

    order = sorted(range(len(alphas)), key=alphas.__getitem__)
    for i0, i1 in zip(order, order[1:]):
        if alphas[i1] - alphas[i0] <= SIMO_TIE_EPS:
            i, j = (i0, i1) if i0 < i1 else (i1, i0)
            # every value is stored at its first iterate, so only j can lie
            # past the stored ones: one lap after its stored twin
            kj = ks[j] if j < stored else ks[j - period] + gain
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


def rho_constant_section(
    G: Lifting, beta: float, error: float = DEFAULT_ERROR, *, shift: float = 0.0
) -> RotationEstimate:
    """Exact-when-possible rotation number of a map with a section at shift.

    pre: G is non-decreasing, shift is finite and [shift, shift + beta]
    lies inside a constant section of G, with a margin on each side wider
    than the rounding error the orbit accumulates (rho_csb leaves tol).  The
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
    read it.  The orbit of 0 is the orbit of the section; at the first n
    with fractional part x <= beta the section returns to itself (mod 1)
    and rho = m/n exactly, provided the margin holds.  Cycles longer than
    ceil(1/error) are invisible and fall back to the direct estimate
    (m + x)/max_iter of the orbit's state after max_iter = ceil(1/error)
    steps.

    The fallback may stop early: an orbit whose float state repeats
    without a hit never hits, and past the repeat (as in rho_direct with
    stop_on_repeat) only the leftover steps run.  The state after max_iter
    steps, and so the estimate, is bit-identical to the full loop's, and
    it still reports the nominal iterations_used = max_iter.
    """
    if not G.is_non_decreasing:
        raise _non_decreasing_required(G, "rho_constant_section")
    if not 0.0 < beta < 1.0:  # a NaN beta fails this test too
        raise InvalidSection(f"test bound beta must lie in (0, 1), got {beta}")
    if not -inf < shift < inf:  # a NaN shift fails this test too
        raise InvalidSection(f"section shift must be finite, got {shift}")
    # a subnormal error passes 0 < error < inf, but its 1/error overflows to inf
    if not (0.0 < error < inf and 1.0 / error < inf):
        raise _bad_error(error)
    max_iter = ceil(1.0 / error)
    fund = G.fundamental
    return _CSB[id(getattr(fund, "__code__", None))](fund, beta, max_iter, shift)


def rho_constant_section_exact(
    F: Lifting, alpha: Fraction | float, beta: Fraction | float, max_iter: int
) -> RotationEstimate | None:
    """Exact-rational twin of the constant-section algorithm.

    [alpha, beta] must be a true constant section of F (no tolerance padding:
    rational arithmetic has no rounding error), narrower than 1 and finite; a
    float end is taken at its binary value.  Iterates the section orbit
    F^n(alpha) through F's knots, read once; a hit certifies rho = m/n
    unconditionally.  Returns None when no cycle through the section shows up
    within max_iter iterates, a positive integer.
    """
    alpha = _fraction(alpha, "section end alpha", InvalidSection)
    width = _fraction(beta, "section end beta", InvalidSection) - alpha
    if not 0 < width < 1:  # a width of 1 or more would take the first iterate as a hit
        raise InvalidSection(f"section must be non-degenerate and narrower than 1, got width {width}")
    try:
        max_iter = index(max_iter)
    except TypeError:
        raise ValueError(f"max_iter must be a positive integer, got {max_iter!r}") from None
    if max_iter < 1:
        raise ValueError(f"max_iter must be a positive integer, got {max_iter}")
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
    states its sections builds no envelope; one that leaves them None runs
    as upper_map's lifting, which carries one grid scan per call.
    """
    if not F.is_non_decreasing:
        raise _non_decreasing_required(F, "rho_csb")
    return _rho_of_envelope(F if F.sections is not None else upper_map(F).lifting, error, tol)


def rotation_interval(
    F: Lifting, error: float = DEFAULT_ERROR, tol: float = DEFAULT_TOL, method: str = "csb"
) -> RotationInterval:
    """rot(F) = [rho of the lower map, rho of the upper map].

    With method="csb" each envelope lifting goes through the constant-section
    algorithm when it states a section wider than 2*tol and through the direct
    estimator with stop_on_repeat otherwise; method="direct" forces the plain
    n-iterate direct estimator (used for benchmarking).  Works for continuous
    liftings and for heavy (downward-jumping) ones, whose envelopes are
    continuous.
    """
    lo_env = lower_map(F)
    # a non-decreasing map is its own upper and lower envelope (for a map
    # that states no sections, one grid scan).  Each endpoint still calls its
    # estimator; with no section the upper call returns rho_direct's record
    # of the lower one's estimate, the same object, without iterating
    hi_env = lo_env if F.is_non_decreasing else upper_map(F)
    lo = _rho_of_envelope(lo_env.lifting, error, tol, method)
    hi = _rho_of_envelope(hi_env.lifting, error, tol, method)
    return tuple.__new__(RotationInterval, (lo, hi))


def _csb_section(sections, tol: float) -> tuple[float, float] | None:
    """csb's section rule: rho_constant_section's (beta, shift) for the widest section given, or None.

    The widest of the maximal constant sections (ties to the leftmost) is
    used when it is wider than 2*tol; with None the estimate falls back to
    rho_direct with stop_on_repeat.
    """
    if not 0.0 <= tol < inf:
        raise _bad_tol(tol)
    sec = widest_section(sections)
    if sec is not None:
        alpha, beta = sec
        width = beta - alpha
        if width > 2.0 * tol:
            # rotated by -(alpha + tol) the section is [-tol, width - tol]; x <= width - 2 tol keeps tol off each edge
            return width - 2.0 * tol, alpha + tol
    return None


def _rho_of_envelope(G: Lifting, error: float, tol: float, method: str = "csb") -> RotationEstimate:
    """rho of the non-decreasing G, which states its maximal constant sections: csb's section choice."""
    if method == "csb":
        call = _csb_section(G.sections, tol)
        if call is not None:
            beta, shift = call
            return rho_constant_section(G, beta, error, shift=shift)
    elif method != "direct":
        raise ValueError(f"unknown rotation-interval method {method!r}")
    elif not 0.0 <= tol < inf:
        raise _bad_tol(tol)
    # no usable section: csb still stops at a repeated float state, while
    # method="direct" times the plain n-iterate baseline
    return rho_direct(G, error, stop_on_repeat=method == "csb")
