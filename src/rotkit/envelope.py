"""Monotone upper/lower envelopes of degree-one liftings and their constant sections.

The upper map of a lifting F is the smallest non-decreasing majorant
sup{F(y) : y <= x}; the lower map is the largest non-decreasing minorant
inf{F(y) : y >= x}.  Both are again degree-one liftings, they coincide with
F exactly when F is non-decreasing, and whenever they differ they carry
non-degenerate constant sections.  Those sections are what the exact
rotation-number algorithm feeds on, so this module also extracts maximal
sections; rotnum's estimator rotates the chosen one to the origin itself.

A non-decreasing map is its own envelope: a family map states its
sections on the Lifting (source "analytic"), and a map that leaves them
None is scanned for them on every call (source "numeric").  Any other
family map registers a builder, called as builder(F, upper), that states
one envelope and its sections in closed form and computes nothing for the
other side; nothing is cached, so asking for a side twice builds it twice.
A piecewise-linear family's envelopes carry knots too: _exact_envelope_knots
of the map's rational knots, run when read.  A map with neither takes the
numeric constructor (uniform grid, running maximum, local refinement of
every flat-run boundary), source "numeric".  Every envelope lifting states
its own sections.
The lower map is the reflected upper map: with G(x) = -F(-x), the lower map
of F is x -> -G_u(-x), so the constructor runs on G and maps G's flat pieces
back.  Both paths double as cross-checks for the analytic forms.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Callable, NamedTuple

from .lifting import Lifting

GRID = 4096
SECTION_EPS = 1e-12
REFINE_XTOL = 1e-15


class NumericEnvelopeFailure(RuntimeError):
    """Grid refinement could not certify a monotone envelope to tolerance."""


class ConstantSection(NamedTuple("_Section", [("alpha", float), ("beta", float)])):
    """A closed interval [alpha, beta] on which a monotone lifting is constant.

    alpha may be negative when the section straddles an integer.  Sections
    found numerically store the refined true endpoints.  Non-finite, reversed
    and too wide pairs are rejected, by _make and _replace too.
    """

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float) -> "ConstantSection":
        if not 0.0 <= beta - alpha < 1.0:  # an inf or NaN endpoint makes the width inf, -inf or NaN
            if not (math.isfinite(alpha) and math.isfinite(beta)):
                raise ValueError(f"section endpoints must be finite, got [{alpha}, {beta}]")
            if beta < alpha:
                raise ValueError(f"empty section: [{alpha}, {beta}]")
            raise ValueError("constant section of a degree-one lifting has diameter < 1")
        return tuple.__new__(cls, (alpha, beta))

    @classmethod
    def _make(cls, iterable) -> "ConstantSection":
        return cls(*iterable)

    @property
    def width(self) -> float:
        return self.beta - self.alpha


class MonotoneEnvelope(NamedTuple):
    """A non-decreasing envelope lifting plus its maximal constant sections.

    A NamedTuple, like RotationEstimate: a non-decreasing map builds one on
    every upper_map call, and a tuple is the cheapest record to build.
    """

    lifting: Lifting
    sections: tuple[ConstantSection, ...]
    source: str  # "analytic" (stated by the map or its builder) or "numeric" (scanned or constructed)


def upper_map(F: Lifting) -> MonotoneEnvelope:
    """Smallest non-decreasing lifting above F (sup over the left half-line)."""
    if F.is_non_decreasing:
        return _self_envelope(F)
    return (F.envelope_builder or _numeric_envelope)(F, True)


def lower_map(F: Lifting) -> MonotoneEnvelope:
    """Largest non-decreasing lifting below F (inf over the right half-line)."""
    if F.is_non_decreasing:
        return _self_envelope(F)
    return (F.envelope_builder or _numeric_envelope)(F, False)


def _self_envelope(F: Lifting) -> MonotoneEnvelope:
    """A non-decreasing map is its own envelope, with its stated sections or else scanned ones."""
    if F.sections is None:
        return MonotoneEnvelope(F, tuple(find_maximal_sections(F)), "numeric")
    # tuple.__new__ skips the NamedTuple's Python-level __new__, as ConstantSection.__new__ does
    return tuple.__new__(MonotoneEnvelope, (F, F.sections, "analytic"))


def widest_section(sections: "list[ConstantSection] | tuple[ConstantSection, ...]") -> ConstantSection | None:
    """Pick the widest section; ties broken by leftmost alpha."""
    best: ConstantSection | None = None
    for sec in sections:
        if best is None or sec.width > best.width or (sec.width == best.width and sec.alpha < best.alpha):
            best = sec
    return best


# ---------------------------------------------------------------------------
# numeric envelope construction


def _refine_max(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Trisection refinement of a local maximum of f inside [lo, hi].

    Works on weakly unimodal brackets; for a jump discontinuity it converges
    to the one-sided limit from the surviving side.  Returns (x, value) of
    the best point seen.
    """
    a, b = lo, hi
    best_x = a
    best_v = f(a)
    for x in (b, 0.5 * (a + b)):
        v = f(x)
        if v > best_v:
            best_x, best_v = x, v
    while b - a > REFINE_XTOL:
        third = (b - a) / 3.0
        m1 = a + third
        m2 = b - third
        v1 = f(m1)
        v2 = f(m2)
        for x, v in ((m1, v1), (m2, v2)):
            if v > best_v:
                best_x, best_v = x, v
        if v1 < v2:
            a = m1
        else:
            b = m2
    return best_x, best_v


def _root_on_increasing(f: Callable[[float], float], target: float, lo: float, hi: float) -> float:
    """Bisection for the point where f reaches target on [lo, hi]; pre: f(lo) < target <= f(hi)."""
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sample(fund: Callable[[float], float], n: int) -> tuple[list[float], list[float]]:
    xs = [i / n for i in range(n + 1)]
    return xs, [fund(x) for x in xs]


def _flat_runs(values: list[float], env: list[float]) -> list[tuple[int, int]]:
    """Maximal index runs where the running maximum sits strictly above the map."""
    runs: list[tuple[int, int]] = []
    start = None
    for i, (v, e) in enumerate(zip(values, env)):
        off = e > v
        if off and start is None:
            start = i
        elif not off and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(values) - 1))
    return runs


def _build_pieces(fund: Callable[[float], float], n: int) -> tuple[list[float], list[float], list[float]]:
    """Flat pieces (starts, ends, levels) of the numeric upper envelope, refined."""
    xs, fs = _sample(fund, n)

    i_max = max(range(n + 1), key=fs.__getitem__)
    _, period_max = _refine_max(fund, xs[max(i_max - 1, 0)], xs[min(i_max + 1, n)])
    cur = max(period_max, fs[i_max]) - 1.0  # sup of F over y <= 0
    env = [0.0] * (n + 1)
    for i, v in enumerate(fs):
        cur = max(cur, v)
        env[i] = cur

    starts: list[float] = []
    ends: list[float] = []
    levels: list[float] = []
    for i, j in _flat_runs(fs, env):
        # flat begins at the local max that set the level, ends where the
        # map climbs back to it
        level = env[i]
        if i == 0:
            start = 0.0
        else:
            start, level = _refine_max(fund, xs[max(i - 2, 0)], xs[i])
        if j == n:
            end = 1.0
        else:
            k = j + 1
            while k < n and fund(xs[k]) < level:
                k += 1
            end = _root_on_increasing(fund, level, xs[k - 1], xs[k])
        if starts and start < ends[-1]:
            start = ends[-1]
        if end <= start:
            continue
        starts.append(start)
        ends.append(end)
        levels.append(level)
    return starts, ends, levels


def _numeric_envelope(F: Lifting, upper: bool) -> MonotoneEnvelope:
    fund = F.fundamental
    # the lower map of F is the reflected upper map of G(x) = -F(-x), which
    # is 1 - F(1 - x) on [0, 1]: G's piece [s, e] at level L is F's piece
    # [1 - e, 1 - s] at level 1 - L
    side = fund if upper else (lambda x: 1.0 - fund(1.0 - x))
    last_error = "grid exhausted"
    for n in (GRID, 4 * GRID, 16 * GRID):
        starts, ends, levels = _build_pieces(side, n)
        if not upper:
            starts, ends, levels = (
                [1.0 - x for x in reversed(ends)],
                [1.0 - x for x in reversed(starts)],
                [1.0 - lev for lev in reversed(levels)],
            )

        if not starts:
            env_fund = fund
        else:

            def env_fund(x: float, _s=starts, _e=ends, _l=levels, _f=fund, _up=upper) -> float:
                j = bisect_right(_s, x) - 1
                if j >= 0 and x <= _e[j]:
                    v = _f(x)
                    lev = _l[j]
                    return lev if (lev > v if _up else lev < v) else v
                return _f(x)

        lifting = Lifting(
            fundamental=env_fund,
            is_non_decreasing=True,
            label=f"{F.label}.{'upper' if upper else 'lower'}",
        )
        ok, last_error = _certify(lifting, F, 2 * n, upper)
        if ok:
            sections = tuple(find_maximal_sections(lifting))
            return MonotoneEnvelope(lifting._replace(sections=sections), sections, "numeric")
    raise NumericEnvelopeFailure(f"{F.label}: {last_error}")


def _certify(env: Lifting, F: Lifting, n: int, upper: bool) -> tuple[bool, str]:
    """Grid check: non-decreasing, on the correct side of F, degree-one."""
    e = env.fundamental
    f = F.fundamental
    prev = e(0.0)
    for i in range(1, n + 1):
        x = i / n
        cur = e(x)
        if cur < prev - SECTION_EPS:
            return False, f"monotonicity violated near x={x:.6g}"
        side_ok = cur >= f(x) - SECTION_EPS if upper else cur <= f(x) + SECTION_EPS
        if not side_ok:
            return False, f"envelope crosses the map near x={x:.6g}"
        prev = cur
    if abs(e(1.0) - e(0.0) - 1.0) > 1e-10:
        return False, "degree-one gluing violated"
    return True, ""


# ---------------------------------------------------------------------------
# exact envelopes of piecewise-linear maps


def _exact_envelope_knots(knots, upper: bool) -> list[tuple[Fraction, Fraction]]:
    """Rational knots of the upper (or lower) map of a continuous or heavy PL map with knots as in Lifting.knots.

    The upper map is a running maximum seeded with max y - 1, the sup of F
    over y <= 0, that leaves each flat at the rational point where a piece
    climbs back through it.  The lower map is the reflected upper map, as in
    _numeric_envelope.
    """
    knots = [(Fraction(x), Fraction(y)) for x, y in knots]
    if not upper:
        mirrored = _exact_envelope_knots([(1 - x, 1 - y) for x, y in reversed(knots)], True)
        return [(1 - x, 1 - y) for x, y in reversed(mirrored)]
    level = max(y for _, y in knots) - 1
    out = [(knots[0][0], level)]
    for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
        if y1 > level:
            # y0 <= level: the piece meets the running maximum at x0 or inside
            cross = x0 + (level - y0) * (x1 - x0) / (y1 - y0)
            if cross > out[-1][0]:
                out.append((cross, level))
            out.append((x1, y1))
            level = y1
    if out[-1][0] < knots[-1][0]:
        out.append((knots[-1][0], level))
    return out


# ---------------------------------------------------------------------------
# constant sections


def _refine_section_edge(
    fund: Callable[[float], float], anchor_value: float, inside: float, outside: float, exact: bool
) -> float:
    """Locate the edge of {x : fund(x) == anchor_value} between inside and outside."""
    lo, hi = inside, outside
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        v = fund(mid)
        on = v == anchor_value if exact else abs(v - anchor_value) <= SECTION_EPS
        if on:
            lo = mid
        else:
            hi = mid
    return lo


def find_maximal_sections(F: Lifting) -> list[ConstantSection]:
    """All inclusion-maximal constant sections of a non-decreasing lifting within one period.

    Grid scan for runs of (near-)equal samples, then bisection refinement of
    both endpoints; a run hugging x=1 merges with a level-minus-one run
    hugging x=0 into a single section represented with a negative alpha.
    Returns [] when the lifting is strictly increasing on the grid.

    Endpoints at transversal crossings resolve to ~1e-13; where the lifting
    leaves its level tangentially (a smooth local extremum) the endpoint is
    only float-determined to sqrt(ulp / curvature), a few 1e-9 for the
    sine-based family.  Sections narrower than one grid cell are invisible.
    """
    fund = F.fundamental
    xs, fs = _sample(fund, GRID)

    runs: list[tuple[int, int]] = []
    i = 0
    while i < GRID:
        if abs(fs[i + 1] - fs[i]) <= SECTION_EPS:
            # extend while the cumulative variation stays inside the band
            j = i
            lo_v = hi_v = fs[i]
            while j < GRID:
                nv = fs[j + 1]
                new_lo = nv if nv < lo_v else lo_v
                new_hi = nv if nv > hi_v else hi_v
                if new_hi - new_lo > SECTION_EPS:
                    break
                lo_v, hi_v = new_lo, new_hi
                j += 1
            runs.append((i, j))
            i = j + 1
        else:
            i += 1

    sections: list[ConstantSection] = []
    levels: list[float] = []
    for i, j in runs:
        mid = (i + j) // 2
        v = fs[mid]
        exact_run = all(fs[k] == v for k in range(i, j + 1))
        if i == 0:
            alpha = 0.0
        else:
            alpha = _refine_section_edge(fund, v, xs[i], xs[i - 1], exact_run)
        if j == GRID:
            beta = 1.0
        else:
            beta = _refine_section_edge(fund, v, xs[j], xs[j + 1], exact_run)
        if beta > alpha:
            sections.append(ConstantSection(alpha, beta))
            levels.append(v)

    # the runs come in grid order and only an edge run's refinement gives alpha 0.0
    # (beta 1.0): the x=1 run one level above the x=0 run joins it across the origin
    if sections and sections[0].alpha == 0.0 and sections[-1].beta == 1.0:
        if abs(levels[-1] - levels[0] - 1.0) <= SECTION_EPS:
            last = sections.pop()
            sections[0] = ConstantSection(last.alpha - 1.0, sections[0].beta)
    return sections
