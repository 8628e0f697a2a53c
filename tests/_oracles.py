"""Independent oracles used by the tests.

Nothing in here calls the estimator code paths it is used to check: the
direct-sweep oracle re-implements the plain iteration with its own
floor/fraction handling (plus cycle extrapolation, which is bit-identical
because a float orbit that revisits a state repeats forever), the Simo
oracle sorts the iterate indices and scans every adjacent pair, the
first-repeat scan looks float states up in a dict, the
section-orbit oracle runs the constant-section loop to the end with no
shortcut (on a section rotated to the origin by _shifted, written out here),
the exact certifier iterates in rational arithmetic only, and the envelope
oracle reads a piecewise-linear map's envelopes off its knots.  The
hand-written Fraction twins of the piecewise-linear families and their
envelopes check the twins the library derives from rational knots.  The
staircase CSV oracle formats every field of every row with an f-string, as
the writer did before it reused each plateau's text, and the mu-grid oracle
accumulates the step in a Python loop, as mu_grid did before it used
itertools.  evaluate applies a
lifting's gluing rule in floats, and tau is the pwl family's triangle wave as
a function: the references the family maps are compared against.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction

import pytest

from rotkit.lifting import Lifting


def evaluate(F: Lifting, x: float) -> float:
    """The lifting at any finite x, by the gluing rule F(x) = F|[0,1](x - floor(x)) + floor(x)."""
    whole = math.floor(x)
    return F.fundamental(x - whole) + whole


def tau(x: float) -> float:
    """Triangle wave on [0, 1]: 4x, then 2 - 4x, then 4(x - 1); range [-1, 1]."""
    if x <= 0.25:
        return 4.0 * x
    if x <= 0.75:
        return 2.0 - 4.0 * x
    return 4.0 * (x - 1.0)


def direct_value_oracle(fund, error: float) -> float:
    """Alg-1 value F^n(0)/n with n = ceil(1/error), via first-repeat extrapolation.

    Bit-identical to running the plain loop: once the float state x repeats,
    the continuation is forced, so the final (m, x) pair is reconstructed
    exactly from the recorded prefix.  Includes the same floor(F(0))
    normalization the library applies.
    """
    n_max = math.ceil(1.0 / error)
    k0 = math.floor(fund(0.0))
    if k0:
        inner = fund

        def fund(x, _f=inner, _k=k0):  # noqa: F811 - deliberate shadowing
            return _f(x) - _k

    xs = [0.0]
    ms = [0]
    seen = {0.0: 0}
    x = 0.0
    m = 0
    for n in range(1, n_max + 1):
        x = fund(x)
        if not 0.0 <= x < 1.0:
            s = math.floor(x)
            m += s
            x -= s
        if x in seen:
            n1 = seen[x]
            q = n - n1
            k = m - ms[n1]
            j, r = divmod(n_max - n1, q)
            return (ms[n1 + r] + j * k + xs[n1 + r]) / n_max + k0
        seen[x] = n
        xs.append(x)
        ms.append(m)
    return (m + x) / n_max + k0


def simo_oracle(fund, n: int) -> tuple:
    """Simo's orbit-sorting estimator with the index sort first and a full tie scan.

    Iterates F^1(0) .. F^n(0) with its own floor/fraction handling (after the
    same floor(F(0)) normalization, through a wrapper closure), stably sorts
    the iterate indices by fractional part, and scans adjacent pairs: the
    first pair closer than 1e-14 gives ("cycle", rotation, i, j) with i < j;
    otherwise adjacent pairs bound the rotation number and the result is
    ("bracket", rho_min, rho_max).
    """
    k0 = math.floor(fund(0.0))
    if k0:
        inner = fund

        def fund(x, _f=inner, _k=k0):  # noqa: F811 - deliberate shadowing
            return _f(x) - _k

    alphas = [0.0] * (n + 1)
    ks = [0] * (n + 1)
    x = 0.0
    m = 0
    for i in range(1, n + 1):
        x = fund(x)
        if not 0.0 <= x < 1.0:
            s = math.floor(x)
            m += s
            x -= s
        alphas[i] = x
        ks[i] = m

    order = sorted(range(n + 1), key=alphas.__getitem__)
    for t in range(n):
        i0 = order[t]
        i1 = order[t + 1]
        if abs(alphas[i1] - alphas[i0]) <= 1e-14:
            i, j = (i0, i1) if i0 < i1 else (i1, i0)
            return "cycle", Fraction(ks[j] - ks[i], j - i) + k0, i, j

    rho_min = 0.0
    rho_max = 1.0
    for t in range(n):
        i0 = order[t]
        i1 = order[t + 1]
        rho_aux = (ks[i1] - ks[i0]) / (i1 - i0)
        if i1 > i0:
            if rho_aux > rho_min:
                rho_min = rho_aux
        else:
            if rho_aux < rho_max:
                rho_max = rho_aux
    return "bracket", rho_min + k0, rho_max + k0


def first_repeat(fund, n: int) -> tuple[int, int] | None:
    """(i, j): the first iterate j <= n whose float state equals that of an earlier iterate i.

    Plain dict scan over the fractional parts of F^0(0) .. F^n(0), after the
    same floor(F(0)) normalization the library applies; j - i is the period
    of the float cycle and i its pre-period.  None when no state repeats.
    """
    k0 = math.floor(fund(0.0))
    seen = {0.0: 0}
    x = 0.0
    for j in range(1, n + 1):
        x = fund(x) - k0
        x -= math.floor(x)
        if x in seen:
            return seen[x], j
        seen[x] = j
    return None


def _shifted(fund, shift):
    """x -> G(x + shift) - shift for G with fundamental fund, via G's gluing rule."""

    def g(x):
        y = x + shift
        s = math.floor(y)
        return fund(y - s) + s - shift

    return g


def section_orbit_oracle(fund, beta: float, error: float) -> tuple:
    """Plain constant-section loop: every iterate up to ceil(1/error), no cycle test.

    Returns (kind, value, m, n, iterations_used) as the estimator reports
    them: the first iterate with fractional part <= beta gives the exact
    m/n, otherwise the direct value after max_iter steps.
    """
    max_iter = math.ceil(1.0 / error)
    x = 0.0
    m = 0
    for n in range(1, max_iter + 1):
        x = fund(x)
        if not 0.0 <= x < 1.0:
            s = math.floor(x)
            m += s
            x -= s
        if x <= beta:
            return "exact", m / n, m, n, n
    return "approx", (m + x) / max_iter, None, None, max_iter


def exact_section_certificate(
    fund_exact, beta: Fraction, max_iter: int
) -> tuple[int, int] | None:
    """Exact-rational section-orbit certificate for a map flat on [0, beta].

    Iterates x_{n} = fund(x_{n-1}) in Fractions from 0; the first n with
    frac(x_n) <= beta proves rho = m/n.  Returns (m, n) or None.
    """
    x = Fraction(0)
    m = 0
    for n in range(1, max_iter + 1):
        v = fund_exact(x)
        whole = v.numerator // v.denominator
        m += whole
        x = v - whole
        if x <= beta:
            return m, n
    return None


def knots_exact_oracle(knots):
    """Exact F|[0,1] of the PL map through the rational knots (x_0, y_0), ..., (x_k, y_k), by a scan of its pieces."""

    def fund_exact(q: Fraction) -> Fraction:
        for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
            if q <= x1:
                return y0 + (q - x0) * (y1 - y0) / (x1 - x0)
        return knots[-1][1]

    return fund_exact


def random_flat_pl_lifting(rng: random.Random, pieces: int = 5):
    """Random rational non-decreasing PL lifting, flat on [0, beta], given by its knots.

    Returns (lifting, beta, xs, ys) where xs/ys are the float breakpoints of
    the fundamental restriction (np.interp-ready).  Needs numpy: the test
    that asks for it is skipped without it.
    """
    np = pytest.importorskip("numpy")
    beta = Fraction(rng.randint(5, 55), 100)
    y0 = Fraction(rng.randint(-40, 140), 100)
    inner = sorted(rng.sample(range(1, 40), pieces - 1))
    total = 40
    knots_x = [Fraction(0), beta]
    for t in inner:
        knots_x.append(beta + (1 - beta) * t / total)
    knots_x.append(Fraction(1))
    rises = [Fraction(rng.randint(0, 20), 1) for _ in range(pieces)]
    scale = Fraction(1) / sum(rises) if sum(rises) else Fraction(0)
    knots_y = [y0, y0]
    acc = y0
    for r in rises:
        acc += r * scale
        knots_y.append(acc)
    # degree-one gluing: last knot must sit at y0 + 1
    knots_y[-1] = y0 + 1

    knots = list(zip(knots_x, knots_y))
    xs = [float(q) for q in knots_x]
    ys = [float(q) for q in knots_y]

    def fund(x: float) -> float:
        return float(np.interp(x, xs, ys))

    lifting = Lifting(
        fundamental=fund,
        is_non_decreasing=True,
        label="random-pl",
        knots=lambda: knots,
    )
    return lifting, beta, xs, ys


def ell_of_n(xs, ys, n_max: int, grid: int = 4096) -> list[int]:
    """ell(n) = min over a grid of floor(F^n(x) - x) for n = 1..n_max.

    Vectorized over the grid; the map is evaluated through its breakpoint
    interpolation, not through the library's evaluator.  Needs numpy.
    """
    np = pytest.importorskip("numpy")
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    x0 = np.linspace(0.0, 1.0, grid, endpoint=False)
    x = x0.copy()
    shift = np.zeros_like(x)
    ells = []
    for _ in range(n_max):
        v = np.interp(x, xs, ys)
        w = np.floor(v)
        shift += w
        x = v - w
        ells.append(int(np.floor(x + shift - x0).min()))
    return ells


def pl_lifting(xs: list[float], ys: list[float]) -> Lifting:
    """Continuous PL lifting through the knots (xs, ys), xs from 0 to 1, ys[-1] = ys[0] + 1.

    Evaluated by its own segment lookup, about four times faster than
    np.interp on one float.
    """

    def fund(x: float) -> float:
        i = min(bisect_right(xs, x), len(xs) - 1)
        x0, x1, y0, y1 = xs[i - 1], xs[i], ys[i - 1], ys[i]
        return y0 + (x - x0) * (y1 - y0) / (x1 - x0)

    return Lifting(fundamental=fund, is_non_decreasing=False, label=f"pl({xs}, {ys})")


def random_pl_lifting(rng: random.Random, knots: int):
    """Random non-monotone pl_lifting with `knots` interior knots.

    Knots sit on the 1/50 grid, so they are at least 0.02 apart; the value at
    knot x is x plus an offset in [-0.8, 0.8], the same offset at 0 and 1
    (degree-one gluing).  Returns (lifting, xs, ys), the knots including 0
    and 1.
    """
    while True:
        xs = [0.0] + [k / 50 for k in sorted(rng.sample(range(1, 50), knots))] + [1.0]
        offsets = [rng.randint(-80, 80) / 100 for _ in range(knots + 1)]
        ys = [x + r for x, r in zip(xs, offsets + offsets[:1])]
        if any(b < a for a, b in zip(ys, ys[1:])):
            return pl_lifting(xs, ys), xs, ys


def pl_envelope_oracle(fund, xs, ys, x: float, upper: bool) -> float:
    """Envelope of a continuous or heavy PL lifting at x in [0, 1], from its knots.

    Floats in, floats out, or Fractions in, Fractions out.  ys[-1] may be the
    left limit at 1, above fund(1) = ys[0] + 1.  The sup of F over y <= x is the largest of max F - 1 (all y <= 0), the
    knot values on [0, x] and F(x); the inf over y >= x mirrors it with
    min F + 1 (all y >= 1) and the knots on [x, 1].
    """
    if upper:
        return max(max(ys) - 1, *(y for k, y in zip(xs, ys) if k <= x), fund(x))
    return min(min(ys) + 1, *(y for k, y in zip(xs, ys) if k >= x), fund(x))


# ---------------------------------------------------------------------------
# hand-written exact twins of the piecewise-linear families


def fmu_exact_oracle(mu: Fraction):
    """(4/3)q + mu on [0, 3/4], mu + 1 above."""

    def fund_exact(q: Fraction) -> Fraction:
        if q > Fraction(3, 4):
            return mu + 1
        return Fraction(4, 3) * q + mu

    return fund_exact


def tau_exact_oracle(q: Fraction) -> Fraction:
    if q <= Fraction(1, 4):
        return 4 * q
    if q <= Fraction(3, 4):
        return 2 - 4 * q
    return 4 * (q - 1)


def pwl_exact_oracle(omega: Fraction, c: Fraction):
    def fund_exact(q: Fraction) -> Fraction:
        return q + omega - c * tau_exact_oracle(q)

    return fund_exact


def disc_exact_oracle(omega: Fraction, c: Fraction):
    def fund_exact(q: Fraction) -> Fraction:
        frac = q - (q.numerator // q.denominator)
        return q + omega + c * frac

    return fund_exact


def counterexample_exact_oracle(q: Fraction) -> Fraction:
    if q <= Fraction(1, 10):
        return q + Fraction(1, 5)
    if q <= Fraction(3, 10):
        return q / 2 + Fraction(1, 4)
    if q <= Fraction(2, 5):
        return 7 * q - Fraction(17, 10)
    if q <= Fraction(4, 5):
        return q / 4 + 1
    return Fraction(6, 5)


def _clamped_oracle(branch, x_lo, lo, x_hi, hi):
    def fund(q):
        if q <= x_lo:
            return lo
        if q <= x_hi:
            return branch(q)
        return hi

    return fund


def pwl_envelope_exact_oracles(omega: Fraction, c: Fraction):
    """(upper, lower) exact envelopes of the pwl map for c > 1/4, with their flats' ends (xu, xl).

    The upper map is flat at t(3/4) - 1 up to xu, where the middle branch of
    slope 1 + 4c climbs to it, follows t to 3/4 and stays at t(3/4); the
    lower map stays at t(1/4) up to 1/4, follows t to xl, where t reaches
    t(1/4) + 1, and stays there.
    """
    t = pwl_exact_oracle(omega, c)
    xu = (12 * c - 1) / (4 * (1 + 4 * c))
    xl = (5 + 4 * c) / (4 * (1 + 4 * c))
    quarter, three_quarters = Fraction(1, 4), Fraction(3, 4)
    peak, trough = t(three_quarters), t(quarter)
    upper = _clamped_oracle(t, xu, peak - 1, three_quarters, peak)
    lower = _clamped_oracle(t, quarter, trough, xl, trough + 1)
    return upper, lower, xu, xl


def disc_envelope_exact_oracles(omega: Fraction, c: Fraction):
    """(upper, lower) exact envelopes of the disc map for c > 0, with their flats' ends (qu, pl).

    Both follow the line (1 + c)q + omega: the upper map is flat at the left
    limit omega + c up to qu, the lower one at omega + 1 beyond pl.
    """
    qu = c / (1 + c)
    pl = 1 / (1 + c)

    def line(q):
        return (1 + c) * q + omega

    upper = _clamped_oracle(line, qu, omega + c, 1, line(1))
    lower = _clamped_oracle(line, 0, line(0), pl, omega + 1)
    return upper, lower, qu, pl


def mu_grid_oracle(step: float) -> list[float]:
    """The staircase's mu grid as a Python loop: count - 1 accumulated steps after 0.0, then 1.0."""
    count = max(round(1.0 / step), 1)
    grid = [0.0] * count
    mu = 0.0
    for i in range(1, count):
        mu += step
        grid[i] = mu
    grid.append(1.0)
    return grid


def staircase_csv_oracle(rows) -> str:
    """The staircase CSV, header included, with every row formatted field by field."""
    lines = ["mu,rho,kind,m,n,error_bound,iterations\n"]
    lines += [
        f"{mu:.17g},{rho:.17g},{kind},{'' if m is None else m},{'' if n is None else n},"
        f"{'' if err is None else format(err, '.17g')},{iterations}\n"
        for mu, rho, kind, m, n, err, iterations in rows
    ]
    return "".join(lines)
