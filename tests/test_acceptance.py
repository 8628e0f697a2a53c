"""Acceptance suite: one test per criterion, at the stated tolerances.

The full-scale staircase (step 1e-5, error 1e-6, tol 1e-10) is computed once
and shared.  Each test prints a PASS line when its criterion holds; pytest -v
gives the per-criterion verdict either way.
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from rotkit import (
    PeriodicOrbitDetected,
    counterexample_map,
    disc_standard,
    evaluate_exact,
    f_mu,
    pwl_standard,
    rho_constant_section_exact,
    rho_csb,
    rho_direct,
    rho_simo,
    rotation_interval,
    standard_map,
)
from rotkit.families import GOLDEN_MEAN
from rotkit.sweep import SweepConfig, devils_staircase, invert_staircase, mu_grid
from _oracles import direct_value_oracle, ell_of_n, knots_exact_oracle, random_flat_pl_lifting

ERROR = 1e-6
TOL = 1e-10
STEP = 1e-5
TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def staircase_full():
    cfg = SweepConfig(mu_step=STEP, error=ERROR, tol=TOL, algorithm="csb", workers=1)
    start = time.perf_counter()
    rows = devils_staircase(cfg)
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_01_staircase_exactness_and_speed(staircase_full):
    rows, csb_seconds = staircase_full
    assert len(rows) == 100_001

    fallbacks = [r for r in rows if r.kind != "exact"]
    assert [r.mu for r in fallbacks] == [0.0, 1.0]
    assert abs(fallbacks[0].rho - 0.0) < ERROR
    assert abs(fallbacks[1].rho - 1.0) < ERROR + 1e-12

    assert csb_seconds < 60.0

    # direct timing on a deterministic subsample, projected to the full grid;
    # every direct cell costs the same ceil(1/error) iterations
    grid = mu_grid(SweepConfig(mu_step=STEP))
    sample = grid[::5000]
    start = time.perf_counter()
    for mu in sample:
        rho_direct(f_mu(mu), ERROR)
    direct_projected = (time.perf_counter() - start) / len(sample) * len(grid)
    ratio = direct_projected / csb_seconds
    assert ratio >= 100.0
    print(
        f"\nACCEPTANCE 1: PASS - 2 fallbacks (mu=0, mu=1); csb {csb_seconds:.2f}s; "
        f"direct projected {direct_projected:.0f}s; ratio {ratio:.0f}x"
    )


def test_criterion_01b_staircase_monotone_and_plateau(staircase_full):
    rows, _ = staircase_full
    for a, b in zip(rows, rows[1:]):
        slack = (a.error_bound or 0.0) + (b.error_bound or 0.0)
        assert a.rho <= b.rho + slack
    half = [r.mu for r in rows if r.kind == "exact" and Fraction(r.m, r.n) == Fraction(1, 2)]
    assert half
    idx = [round(mu / STEP) for mu in half]
    assert idx == list(range(idx[0], idx[0] + len(idx)))
    print(f"\nACCEPTANCE 1b: PASS - staircase monotone; 1/2 plateau spans {len(half)} grid points")


def test_criterion_02_tangency_guard():
    mu_star = 819 / 3124 - 1e-16
    est = rho_csb(f_mu(mu_star), ERROR, TOL)
    assert (est.m, est.n) != (2, 5)
    assert abs(est.value - 0.3983) < 1e-3

    F_exact = f_mu(Fraction(819, 3124))
    x = Fraction(3, 4)
    for _ in range(5):
        x = evaluate_exact(F_exact, x)
    assert x == Fraction(3, 4) + 2  # F^5 maps the section start to itself + 2
    v = Fraction(0)
    for _ in range(5):
        v = evaluate_exact(F_exact, v)
    assert v == Fraction(7, 4)
    cert = rho_constant_section_exact(F_exact, Fraction(3, 4), Fraction(1), 100)
    assert cert is not None and (cert.m, cert.n) == (2, 5)
    print(
        f"\nACCEPTANCE 2: PASS - float estimate {est.value:.6f} (kind={est.kind}, not 2/5); "
        "exact oracle certifies F^5(0) = 7/4 and rho = 2/5"
    )


def test_criterion_03_counterexample_fallback():
    C = counterexample_map()
    est = rho_csb(C, ERROR, TOL)
    assert est.kind == "approx"
    assert abs(est.value - 1.0 / 3.0) < ERROR

    x = Fraction(1, 10)
    for _ in range(3):
        x = evaluate_exact(C, x)
    assert x == Fraction(11, 10)
    y = Fraction(9, 10)  # a point of the section K = [0.8, 1]
    for _ in range(3):
        y = evaluate_exact(C, y)
    assert y == Fraction(7, 4)
    print(f"\nACCEPTANCE 3: PASS - fallback estimate {est.value:.8f} within 1e-6 of 1/3; cycle exact")


def _robust_certified_maps(count, seed, margin=Fraction(1, 10**6)):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        F, beta, xs, ys = random_flat_pl_lifting(rng)
        fund_exact = knots_exact_oracle(F.knots())
        x = Fraction(0)
        m = 0
        verdict = None
        for n in range(1, 3001):
            v = fund_exact(x)
            w = v.numerator // v.denominator
            m += w
            x = v - w
            gap = x - beta
            if gap <= 0:
                verdict = (m, n) if -gap >= margin else None
                break
            if gap < margin:  # fragile near-miss: float twin may diverge
                verdict = None
                break
        if verdict is not None:
            found.append((F, Fraction(verdict[0], verdict[1]), xs, ys))
    return found


def test_criterion_04_error_bound_suite():
    maps = _robust_certified_maps(50, seed=2024)
    for F, rho, xs, ys in maps:
        fund = F.fundamental
        rho_f = float(rho)
        x = 0.0
        m = 0
        for n in range(1, 10_001):
            x = fund(x)
            if not 0.0 <= x < 1.0:
                s = math.floor(x)
                m += s
                x -= s
            assert abs(rho_f - (m + x) / n) < 1.0 / n
        for n, ell in enumerate(ell_of_n(xs, ys, 100, grid=4096), start=1):
            assert Fraction(ell, n) <= rho <= Fraction(ell + 1, n)
    print("\nACCEPTANCE 4: PASS - 50 certified liftings satisfy both error bounds")


def test_criterion_05_interval_structure():
    for a in (0.25, 0.7, 1.0):
        ri = rotation_interval(standard_map(0, a), ERROR, TOL)
        assert ri.lower.value == 0.0 and ri.upper.value == 0.0

    residues = []
    for a in (2.0, 4.0, TWO_PI):
        ri = rotation_interval(standard_map(0, a), ERROR, TOL)
        resid = abs(ri.lower.value + ri.upper.value)
        residues.append(resid)
        assert resid < 2 * ERROR

    ri = rotation_interval(disc_standard(0, TWO_PI), ERROR, TOL)
    assert abs(ri.lower.value) < ERROR
    assert abs(ri.upper.value - 1.0) < ERROR

    for a in (1.0, math.pi / 2):
        ri = rotation_interval(pwl_standard(0, a), ERROR, TOL)
        assert ri.lower.value == ri.upper.value
    print(
        "\nACCEPTANCE 5: PASS - degenerate/symmetric/full intervals as required "
        f"(symmetry residues {['%.2e' % r for r in residues]})"
    )


def test_criterion_06_algorithm_agreement(staircase_full):
    rows, _ = staircase_full

    # validate the cycle-extrapolating oracle against the plain loop where
    # the plain loop is affordable, then apply it to the whole grid
    for r in rows[::5000]:
        plain = rho_direct(f_mu(r.mu), ERROR).value
        assert direct_value_oracle(f_mu(r.mu).fundamental, ERROR) == plain

    worst = 0.0
    for r in rows:
        direct_value = direct_value_oracle(f_mu(r.mu).fundamental, ERROR)
        gap = abs(r.rho - direct_value)
        if gap > worst:
            worst = gap
        assert gap <= 1e-6

    checked = 0
    for r in rows[::10]:
        slack = (r.error_bound or 0.0) + 1e-12
        try:
            br = rho_simo(f_mu(r.mu), 1000)
        except PeriodicOrbitDetected as hit:
            assert abs(float(hit.rotation) - r.rho) <= slack
            checked += 1
            continue
        if br.rho_min <= br.rho_max:
            assert br.rho_min - slack <= r.rho <= br.rho_max + slack
            checked += 1
    assert checked > 9000
    print(f"\nACCEPTANCE 6: PASS - max |csb - direct| = {worst:.3e} over 100001 cells; "
          f"sorting-bracket consistent on {checked} subsampled cells")


def test_criterion_07_tongue_sanity():
    error = 1e-4
    for family in (standard_map, pwl_standard):
        for a in [i * (4.0 * math.pi) / 16 for i in range(17)]:
            ri = rotation_interval(family(0.0, a), error, TOL)
            lo = ri.lower.value - ri.lower.error_bound
            hi = ri.upper.value + ri.upper.error_bound
            assert lo <= 0.0 <= hi

    for omega in [i / 10 for i in range(11)]:
        ri = rotation_interval(standard_map(omega, 0.0), error, TOL)
        lo = ri.lower.value - ri.lower.error_bound
        hi = ri.upper.value + ri.upper.error_bound
        member = lo <= GOLDEN_MEAN <= hi
        assert member == (abs(omega - GOLDEN_MEAN) <= error + 1e-12)
    print("\nACCEPTANCE 7: PASS - 0-tongue contains the Omega=0 line; a=0 row is the rigid predicate")


def test_criterion_08_inversion_conditioning():
    res = invert_staircase(GOLDEN_MEAN, 1e-6, max_bisections=200, error=ERROR, tol=TOL)
    assert res.status == "ill_conditioned"
    assert res.bisections <= 200

    res_half = invert_staircase(0.5, 1e-6, max_bisections=200, error=ERROR, tol=TOL)
    assert res_half.status == "ok"
    assert res_half.bisections < 50
    print(
        f"\nACCEPTANCE 8: PASS - golden target ill-conditioned after {res.bisections} bisections "
        f"(bracket {res.bracket_width:.2e}); 1/2 found in {res_half.bisections} bisections"
    )


def test_criterion_09_thread_determinism(tmp_path):
    args = [
        sys.executable,
        "-m",
        "rotkit",
        "staircase",
        "--mu-step",
        "1e-4",
        "--error",
        "1e-6",
        "--tol",
        "1e-10",
    ]
    out1 = tmp_path / "t1.csv"
    out8 = tmp_path / "t8.csv"
    r1 = subprocess.run(args + ["--threads", "1", "--out", str(out1)], capture_output=True)
    r8 = subprocess.run(args + ["--threads", "8", "--out", str(out8)], capture_output=True)
    assert r1.returncode == 0 and r8.returncode == 0
    b1 = out1.read_bytes()
    b8 = out8.read_bytes()
    assert b1 == b8
    print(f"\nACCEPTANCE 9: PASS - {len(b1)} CSV bytes identical for --threads 1 and 8")
