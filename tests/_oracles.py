"""Independent oracles used by the tests.

Nothing in here calls the estimator code paths it is used to check: the
direct-sweep oracle re-implements the plain iteration with its own
floor/fraction handling (plus cycle extrapolation, which is bit-identical
because a float orbit that revisits a state repeats forever), the Simo
oracle sorts the iterate indices and scans every adjacent pair, the
section-orbit oracle runs the constant-section loop to the end with no
shortcut (on a section rotated to the origin by _shifted, written out here),
and the exact certifier iterates in rational arithmetic only.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from rotkit.lifting import Lifting


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


def random_flat_pl_lifting(rng: random.Random, pieces: int = 5):
    """Random rational non-decreasing PL lifting, flat on [0, beta].

    Returns (lifting, beta, xs, ys) where xs/ys are the float breakpoints of
    the fundamental restriction (np.interp-ready).
    """
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

    xq = knots_x
    yq = knots_y

    def fund_exact(q: Fraction) -> Fraction:
        for i in range(len(xq) - 1):
            if q <= xq[i + 1]:
                x0, x1 = xq[i], xq[i + 1]
                y0_, y1_ = yq[i], yq[i + 1]
                if x1 == x0:
                    return y1_
                return y0_ + (q - x0) * (y1_ - y0_) / (x1 - x0)
        return yq[-1]

    xs = [float(q) for q in xq]
    ys = [float(q) for q in yq]

    def fund(x: float) -> float:
        return float(np.interp(x, xs, ys))

    lifting = Lifting(
        fundamental=fund,
        is_non_decreasing=True,
        label="random-pl",
        fundamental_exact=fund_exact,
    )
    return lifting, beta, xs, ys


def ell_of_n(xs, ys, n_max: int, grid: int = 4096) -> list[int]:
    """ell(n) = min over a grid of floor(F^n(x) - x) for n = 1..n_max.

    Vectorized over the grid; the map is evaluated through its breakpoint
    interpolation, not through the library's evaluator.
    """
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
