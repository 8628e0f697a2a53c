import gc
import io
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest

from rotkit.families import f_mu
from rotkit.rotnum import PeriodicOrbitDetected, rho_csb, rho_direct, rho_simo
from rotkit.sweep import (
    BENCH_HEADER,
    INTERVAL_HEADER,
    STAIRCASE_CHUNK,
    STAIRCASE_HEADER,
    TONGUE_HEADER,
    IntervalRow,
    Rows,
    StaircaseRow,
    SweepConfig,
    TongueCell,
    UsageError,
    _pool_size,
    _staircase_call,
    _staircase_cell,
    arnold_tongue,
    benchmark,
    devils_staircase,
    invert_staircase,
    mu_grid,
    rotation_interval_graph,
    write_interval_csv,
    write_staircase_csv,
    write_tongue_csv,
)
from _oracles import mu_grid_oracle, staircase_csv_oracle

FAST = dict(error=1e-4, tol=1e-10)


def _cfg(**kw):
    base = dict(family="fmu", mu_step=1e-3, algorithm="csb", workers=1, **FAST)
    base.update(kw)
    return SweepConfig(**base)


def test_mu_grid_endpoints_exact():
    grid = mu_grid(_cfg(mu_step=1e-3))
    assert len(grid) == 1001
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert all(b > a for a, b in zip(grid, grid[1:]))


@pytest.mark.parametrize(
    "lo, hi, step, expected",
    [
        (0.0, 1.0, 3.0, [0.0, 1.0]),  # round(1/3) = 0 steps: 0 is still kept
        (0.0, 1.0, 1.5, [0.0, 1.0]),
        (0.0, 1.0, 1.0, [0.0, 1.0]),
        (0.0, 1.0, 0.5, [0.0, 0.5, 1.0]),
    ],
)
def test_mu_grid_keeps_both_ends(lo, hi, step, expected):
    # the grid always spans f_mu's domain [lo, hi] = [0, 1]
    grid = mu_grid(_cfg(mu_step=step))
    assert grid == expected and (grid[0], grid[-1]) == (lo, hi)


def _ranged_mu_grid(lo, hi, step):
    """The mu grid as built from a [lo, hi] range, before the range was fixed to [0, 1]."""
    count = round((hi - lo) / step)
    if count == 0 and hi > lo:
        count = 1
    grid = [lo] * max(count, 0)
    mu = lo
    for i in range(1, count):
        mu += step
        grid[i] = mu
    grid.append(hi)
    return grid


# the last step is 1e-4 stretched as perfbench/run.py:mu_step stretches it at seed 3
@pytest.mark.parametrize("step", [1e-5, 1e-4, 1e-3, 0.3, 1.5, 3.0, 1e-4 * (1.0 + 4e-6 * random.Random(3).random())])
def test_mu_grid_is_the_ranged_grid_over_0_1_bit_for_bit(step):
    grid = mu_grid(_cfg(mu_step=step))
    assert [mu.hex() for mu in grid] == [mu.hex() for mu in _ranged_mu_grid(0.0, 1.0, step)]


@pytest.mark.parametrize("step", [1e-3, 1e-4, 1e-5, 1 / 3, 0.4, 0.7, 3.0])
def test_mu_grid_is_the_accumulating_loop_bit_for_bit(step):
    grid = mu_grid(_cfg(mu_step=step))
    assert [mu.hex() for mu in grid] == [mu.hex() for mu in mu_grid_oracle(step)]


def test_config_has_no_mu_range():
    with pytest.raises(TypeError):
        SweepConfig(mu_min=0.0)
    with pytest.raises(TypeError):
        SweepConfig(mu_max=1.0)


def test_config_names_one_algorithm():
    # a sweep runs one algorithm; only benchmark takes a list
    assert SweepConfig().algorithm == "csb"
    with pytest.raises(TypeError):
        SweepConfig(algorithms=("csb",))


def _validate_every_sweep(cfg):
    """validate(problem) of each sweep, on cfg with a family that sweep takes."""
    for problem in ("staircase", "interval", "tongue"):
        cfg._replace(family="fmu" if problem == "staircase" else "pwl").validate(problem)


@pytest.mark.parametrize("field, value", [("tol", math.nan), ("tol", math.inf), ("error", math.inf), ("error", math.nan)])
def test_config_rejects_non_finite_error_and_tol(field, value):
    with pytest.raises(UsageError):
        _validate_every_sweep(_cfg(**{field: value}))


@pytest.mark.parametrize("field", ["mu_step", "omega", "omega_min", "omega_max", "a_min", "a_max"])
def test_config_rejects_non_finite_grid_values(field):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(UsageError, match=field):
            _validate_every_sweep(_cfg(**{field: value}))


@pytest.mark.parametrize(
    "overrides, match",
    [
        (dict(mu_step=1e-12), "mu grid"),
        (dict(mu_step=5e-324), "mu grid"),
        (dict(mu_step=1e-300), "mu grid"),  # a finite ratio far past the budget
        (dict(mu_step=1e-8), "mu grid"),  # 10**8 + 1 cells, one too many
        (dict(a_steps=100_000, omega_steps=100_000), r"\(a, omega\) grid"),
        (dict(a_steps=10**8 + 1, omega_steps=1), r"\(a, omega\) grid"),
        (dict(error=1e-12), "iterates"),
        (dict(error=5e-324), "iterates"),
        (dict(simo_n=1), "simo_n"),
        (dict(simo_n=10**7 + 1), "simo_n"),
        (dict(omega_min=0.5, omega_max=0.25), "empty parameter range"),
        (dict(a_min=1.0, a_max=0.0), "empty parameter range"),
        (dict(algorithm="bogus"), "unknown algorithm 'bogus'"),
        (dict(workers=0), "worker count must be positive"),
        (dict(algorithm="csb,direct"), "unknown algorithm 'csb,direct'"),
    ],
)
def test_config_rejects_budgets_that_could_never_finish(overrides, match):
    with pytest.raises(UsageError, match=match):
        _validate_every_sweep(_cfg(**overrides))


def test_config_budgets_admit_their_limits():
    # exactly 10**8 cells, ceil(1/error) = 10**9 iterates and simo_n in [2, 10**7] are allowed
    _validate_every_sweep(_cfg(mu_step=1.0 / (10**8 - 1)))
    _validate_every_sweep(_cfg(a_steps=10**4, omega_steps=10**4))
    _validate_every_sweep(_cfg(error=1e-9))
    for simo_n in (2, 10**7):
        _validate_every_sweep(_cfg(simo_n=simo_n))


def test_each_sweep_budgets_only_the_grid_it_builds(monkeypatch, tmp_path):
    # a 20000 x 20000 (a, omega) grid is over budget, but only a tongue builds it
    import rotkit.sweep as sweep
    from rotkit.cli import main

    sizes = []
    monkeypatch.setattr(sweep, "_run_ordered", lambda worker, tasks, workers: sizes.append(len(tasks)) or [])
    out = str(tmp_path / "bench.csv")
    assert main(["bench", "--problem", "interval", "--steps", "20000", "--algorithm", "csb", "--out", out]) == 0
    assert main(["bench", "--problem", "staircase", "--steps", "20000", "--mu-step", "0.5", "--algorithm", "csb", "--out", out]) == 0
    assert devils_staircase(SweepConfig(mu_step=0.5, error=1e-3, a_steps=20000, omega_steps=20000)) == []
    assert devils_staircase(SweepConfig(mu_step=0.5, error=1e-3, a_steps=0)) == []
    tongue = SweepConfig(family="pwl", a_steps=2, omega_steps=2, mu_step=1e-9, error=1e-3)
    assert arnold_tongue(tongue, Fraction(1, 2)) == []
    assert sizes == [20000, 3, 3, 3, 4]
    # benchmark checks every selected problem's grid before the first one runs
    with pytest.raises(UsageError, match=r"a 20000 x 20000 \(a, omega\) grid exceeds 100000000 cells"):
        benchmark(SweepConfig(family="pwl", mu_step=0.5, a_steps=20000, omega_steps=20000), problems=("staircase", "tongue"))
    assert sizes == [20000, 3, 3, 3, 4]


def test_interval_graph_budget_counts_a_steps_alone(monkeypatch):
    # an interval graph runs one omega line, whatever omega_steps says; a tongue runs them all
    import rotkit.sweep as sweep

    sizes = []
    monkeypatch.setattr(sweep, "_run_ordered", lambda worker, tasks, workers: sizes.append(len(tasks)) or [])
    assert SweepConfig().omega_steps == 512
    assert rotation_interval_graph(SweepConfig(family="pwl", a_steps=200_000)) == []
    assert rotation_interval_graph(SweepConfig(family="pwl", a_steps=7, omega_steps=0)) == []
    assert sizes == [200_000, 7]
    with pytest.raises(UsageError, match=r"a 200000 x 512 \(a, omega\) grid"):
        arnold_tongue(SweepConfig(family="pwl", a_steps=200_000), Fraction(1, 2))
    with pytest.raises(UsageError, match=r"a 100000001 x 1 \(a, omega\) grid"):
        rotation_interval_graph(SweepConfig(family="pwl", a_steps=10**8 + 1))
    with pytest.raises(UsageError, match="at least one point"):
        rotation_interval_graph(SweepConfig(family="pwl", a_steps=0))
    assert sizes == [200_000, 7]


def test_each_sweep_checks_only_the_ranges_it_reads():
    # a tongue and an interval graph build no mu grid; a staircase builds no (a, omega) grid
    tongue = dict(family="pwl", a_steps=2, omega_steps=2, error=1e-3)
    for overrides in (dict(mu_step=0.0), dict(mu_step=-1.0)):
        assert len(arnold_tongue(SweepConfig(**tongue, **overrides), Fraction(1, 2))) == 4
        for omega_range in (dict(omega_min=1.0, omega_max=0.0), dict(omega_min=-1e308, omega_max=1e308)):
            interval = SweepConfig(family="pwl", a_steps=2, error=1e-3, **omega_range, **overrides)
            assert [r.status for r in rotation_interval_graph(interval)] == ["ok", "ok"]
    for overrides in (
        dict(a_min=1.0, a_max=0.0),
        dict(a_min=-1.0),
        dict(omega_min=1.0, omega_max=0.0),
        dict(omega_min=-1e308, omega_max=1e308),
    ):
        assert len(devils_staircase(_cfg(mu_step=0.5, **overrides))) == 3
    # and each still rejects the ranges and steps it does read
    for overrides in (dict(mu_step=0.0), dict(mu_step=-1.0)):
        with pytest.raises(UsageError, match="mu_step must be positive"):
            devils_staircase(_cfg(**overrides))
    with pytest.raises(UsageError, match="empty parameter range"):
        arnold_tongue(SweepConfig(**tongue, omega_min=1.0, omega_max=0.0), Fraction(1, 2))
    with pytest.raises(UsageError, match="empty parameter range"):
        rotation_interval_graph(SweepConfig(family="pwl", a_steps=2, error=1e-3, a_min=1.0, a_max=0.0))


_SWEEPS = {
    "staircase": devils_staircase,
    "interval": rotation_interval_graph,
    "tongue": lambda cfg: arnold_tongue(cfg, Fraction(1, 2)),
}


def _small(problem, **overrides):
    """A small valid config of the problem's sweep, with the overrides applied."""
    if problem == "staircase":
        return SweepConfig(mu_step=0.5, error=1e-3)._replace(**overrides)
    return SweepConfig(family="pwl", a_steps=2, omega_steps=2, error=1e-3)._replace(**overrides)


def _no_sweep_runs(monkeypatch):
    import rotkit.sweep as sweep

    monkeypatch.setattr(sweep, "_run_ordered", lambda *args: pytest.fail("a sweep reached its cells"))


# configs one sweep rejects, each with a value benchmark hands that sweep unchanged
# (benchmark runs a staircase as fmu, sets each algorithm of its list and marks interval or tongue simo n/a)
@pytest.mark.parametrize(
    "problem, overrides",
    [
        ("staircase", dict(mu_step=0.0)),
        ("staircase", dict(mu_step=-1.0)),
        ("staircase", dict(mu_step=1e-8)),
        ("staircase", dict(mu_step=math.nan)),
        ("staircase", dict(a_max=math.inf)),
        ("staircase", dict(error=0.0)),
        ("staircase", dict(error=1e-12)),
        ("staircase", dict(tol=-1.0)),
        ("staircase", dict(tol=math.inf)),
        ("staircase", dict(simo_n=1, algorithm="simo")),
        ("staircase", dict(algorithm="")),
        ("staircase", dict(algorithm="bogus")),
        ("staircase", dict(workers=0)),
        ("staircase", dict(simo_n=1000.5, algorithm="simo")),
        ("staircase", dict(workers=1.5)),
        ("interval", dict(family="fmu")),
        ("interval", dict(a_min=1.0, a_max=0.0)),
        ("interval", dict(a_steps=0)),
        ("interval", dict(a_steps=10**8 + 1)),
        ("interval", dict(a_steps=2.5)),
        ("interval", dict(omega=math.nan)),
        ("interval", dict(error=math.nan)),
        ("tongue", dict(family="fmu")),
        ("tongue", dict(omega_min=1.0, omega_max=0.0)),
        ("tongue", dict(omega_steps=0)),
        ("tongue", dict(a_steps=2.5)),
        ("tongue", dict(omega_steps=2.0)),
        ("tongue", dict(a_steps=20000, omega_steps=20000)),
        ("tongue", dict(omega_max=math.inf)),
        ("tongue", dict(simo_n=10**7 + 1)),
        ("interval", dict(a_min=-1.0)),
        ("tongue", dict(a_min=-1.0)),
        ("tongue", dict(omega_min=-1e308, omega_max=1e308)),
    ],
)
def test_every_entry_point_rejects_a_bad_config_with_validates_message(problem, overrides, monkeypatch):
    _small(problem).validate(problem)
    cfg = _small(problem, **overrides)
    with pytest.raises(UsageError) as expected:
        cfg.validate(problem)
    _no_sweep_runs(monkeypatch)
    with pytest.raises(UsageError) as raised:
        _SWEEPS[problem](cfg)
    assert str(raised.value) == str(expected.value)
    with pytest.raises(UsageError) as raised:
        benchmark(cfg, problems=(problem,), algorithms=(cfg.algorithm,))
    assert str(raised.value) == str(expected.value)


def test_counts_accept_numpy_integers():
    # operator.index accepts any integer type
    np = pytest.importorskip("numpy")
    simo = _small("staircase", algorithm="simo", simo_n=np.int64(50), workers=np.int32(1))
    assert devils_staircase(simo) == devils_staircase(simo._replace(simo_n=50, workers=1))
    tongue = _small("tongue", a_steps=np.int64(2), omega_steps=np.int16(2))
    assert arnold_tongue(tongue, Fraction(1, 2)) == arnold_tongue(_small("tongue"), Fraction(1, 2))


@pytest.mark.parametrize(
    "problem, overrides, message",
    [
        ("interval", dict(a_min=-1.0), "a must be non-negative, got -1.0"),
        ("tongue", dict(a_min=-1.0), "a must be non-negative, got -1.0"),
        ("tongue", dict(omega_min=-1e308, omega_max=1e308), "omega range -1e+308:1e+308 is wider than the largest float"),
        ("staircase", dict(algorithm="simo", simo_n=1000.5), "simo_n must be an integer, got 1000.5"),
        ("staircase", dict(workers=1.5), "workers must be an integer, got 1.5"),
        ("tongue", dict(a_steps=2.5), "a_steps must be an integer, got 2.5"),
        ("tongue", dict(omega_steps=2.0), "omega_steps must be an integer, got 2.0"),
    ],
    ids=["interval-a", "tongue-a", "tongue-omega-range", "simo_n", "workers", "a_steps", "omega_steps"],
)
def test_cell_preconditions_are_checked_before_the_grid(problem, overrides, message):
    # unchecked, the first cell's build_lifting raises InvalidParam, _linspace
    # steps by inf, or a float count fails inside the sweep with a bare TypeError
    with pytest.raises(UsageError) as raised:
        _small(problem, **overrides).validate(problem)
    assert str(raised.value) == message


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf, Fraction(10**400), Fraction(-(10**400), 3)])
def test_tongue_rejects_a_non_finite_target(target, monkeypatch):
    # a Fraction past the float range would overflow where a cell compares it in floats
    cfg = _small("tongue")
    _no_sweep_runs(monkeypatch)
    for run in (
        lambda: arnold_tongue(cfg, target),
        lambda: benchmark(cfg, problems=("staircase", "tongue"), algorithms=("csb", "simo"), target=target),
    ):
        with pytest.raises(UsageError, match="tongue target must be finite"):
            run()


def test_benchmark_checks_the_family_and_grid_of_an_na_row(monkeypatch):
    # a simo interval or tongue row runs no sweep, but its config is checked as a csb run's
    _no_sweep_runs(monkeypatch)
    for problem, overrides, match in (
        ("interval", dict(family="fmu"), "interval graphs are defined for"),
        ("tongue", dict(family="fmu"), "tongues are defined for"),
        ("interval", dict(a_steps=0), "at least one point"),
        ("tongue", dict(a_steps=20000, omega_steps=20000), r"\(a, omega\) grid"),
    ):
        with pytest.raises(UsageError, match=match):
            benchmark(_small(problem, **overrides), problems=("staircase", problem), algorithms=("simo",))


def test_invert_rejects_iterate_budget(monkeypatch):
    import rotkit.sweep as sweep

    monkeypatch.setattr(sweep, "rho_csb", lambda *args: pytest.fail("an estimate ran"))
    with pytest.raises(UsageError, match="iterates"):
        invert_staircase(0.5, 1e-3, error=1e-12)


@pytest.mark.parametrize("budget", [2.5, 2.0, "3"])
def test_invert_rejects_a_budget_that_is_not_an_integer(budget, monkeypatch):
    # 2.5 raised a bare TypeError from range
    import rotkit.sweep as sweep

    monkeypatch.setattr(sweep, "rho_csb", lambda *args: pytest.fail("an estimate ran"))
    with pytest.raises(UsageError, match=f"max_bisections must be an integer, got {budget!r}"):
        invert_staircase(0.5, 1e-6, max_bisections=budget)


def test_pool_size_is_clamped(monkeypatch):
    import rotkit.sweep as sweep

    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 4)
    assert _pool_size(1000, 10_000) == 4
    assert _pool_size(8, 3) == 3
    assert _pool_size(2, 10) == 2
    assert _pool_size(8, 0) == 1
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: None)
    assert _pool_size(8, 100) == 1


def test_staircase_rows_and_fallbacks():
    rows = devils_staircase(_cfg())
    assert len(rows) == 1001
    assert rows[0].kind == "approx" and abs(rows[0].rho) < 1e-4
    assert rows[-1].kind == "approx" and abs(rows[-1].rho - 1.0) < 1e-4
    exact = sum(r.kind == "exact" for r in rows)
    assert exact >= 995  # everything but the tangency windows
    for r in rows:
        if r.kind == "exact":
            assert r.rho == r.m / r.n
            assert r.error_bound is None
        else:
            assert r.error_bound is not None


def test_staircase_monotone_within_bounds():
    rows = devils_staircase(_cfg(mu_step=1e-2))
    for a, b in zip(rows, rows[1:]):
        slack = (a.error_bound or 0.0) + (b.error_bound or 0.0)
        assert a.rho <= b.rho + slack


def test_staircase_algorithms_agree():
    cfg_csb = _cfg(mu_step=1e-2)
    cfg_dir = _cfg(mu_step=1e-2, algorithm="direct")
    rows_c = devils_staircase(cfg_csb)
    rows_d = devils_staircase(cfg_dir)
    for rc, rd in zip(rows_c, rows_d):
        assert abs(rc.rho - rd.rho) <= 1e-4


def test_staircase_simo_rows():
    rows = devils_staircase(_cfg(mu_step=0.05, algorithm="simo", simo_n=500))
    assert len(rows) == 21
    # plateau points close onto cycles and come back exact via detection
    assert any(r.kind == "exact" for r in rows)
    for r in rows:
        if r.kind == "approx":
            assert r.error_bound is not None and r.error_bound >= 0.0
    # at simo_n = 2 five of the nine orbits end in a bracket: the row is its midpoint and half-width
    rows = devils_staircase(_cfg(mu_step=0.125, error=1e-3, algorithm="simo", simo_n=2))
    brackets = [r for r in rows if r.kind == "approx"]
    assert len(rows) == 9 and len(brackets) == 5
    for r in brackets:
        br = rho_simo(f_mu(r.mu), 2)
        mid, half = 0.5 * (br.rho_min + br.rho_max), 0.5 * (br.rho_max - br.rho_min)
        assert (r.rho, r.m, r.n, r.error_bound, r.iterations) == (mid, None, None, half, 2)


def _library_row(cfg: SweepConfig, mu: float) -> StaircaseRow:
    """mu's staircase row by the library path: rho_csb, rho_direct or rho_simo of f_mu(mu)."""
    F = f_mu(mu)
    if cfg.algorithm == "simo":
        try:
            rho_min, rho_max, _ = rho_simo(F, cfg.simo_n)
        except PeriodicOrbitDetected as hit:
            m, n = hit.rotation.numerator, hit.rotation.denominator
            return StaircaseRow(mu, m / n, "exact", m, n, None, cfg.simo_n)
        half = 0.5 * (rho_max - rho_min)
        return StaircaseRow(mu, 0.5 * (rho_min + rho_max), "approx", None, None, half, cfg.simo_n)
    est = rho_csb(F, cfg.error, cfg.tol) if cfg.algorithm == "csb" else rho_direct(F, cfg.error)
    err = None if est.kind == "exact" else est.error_bound
    return StaircaseRow(mu, est.value, est.kind, est.m, est.n, err, est.iterations_used)


# f_mu's section is 1/4 wide: from tol = 1/8 on, csb falls back to rho_direct
STAIRCASE_TOLS = (0.0, 1e-10, math.nextafter(0.125, 0.0), 0.125, 0.3)
MU_819 = 819 / 3124
EDGE_MUS = (0.0, -0.0, 1.0, 5e-324, math.nextafter(1.0, 0.0), 0.75, math.nextafter(MU_819, 0.0), MU_819,
            math.nextafter(MU_819, 1.0))


@pytest.mark.parametrize("tol", STAIRCASE_TOLS)
@pytest.mark.parametrize("algorithm", ["csb", "direct", "simo"])
def test_staircase_cell_equals_the_library_path_at_edge_mus(algorithm, tol):
    # repr prints every float exactly, a zero's sign too: the rows agree bit for bit
    cfg = _cfg(algorithm=algorithm, tol=tol, simo_n=300)
    call = _staircase_call(cfg)
    assert (call.beta is None) == (algorithm != "csb" or tol >= 0.125)
    for mu in EDGE_MUS:
        # the cell returns a plain tuple in StaircaseRow's field order
        row = _staircase_cell((call, mu))
        assert type(row) is tuple and repr(row) == repr(tuple(_library_row(cfg, mu)))


@pytest.mark.parametrize(
    "algorithm, tol",
    [("csb", tol) for tol in STAIRCASE_TOLS] + [("direct", 1e-10), ("direct", 0.3), ("simo", 1e-10), ("simo", 0.3)],
)
@pytest.mark.parametrize("mu_step", [1e-3, 1e-4])
def test_staircase_rows_equal_the_library_path_bit_for_bit(mu_step, algorithm, tol):
    # the plain direct loop runs every iterate: a coarser error keeps its grid cheap
    cfg = _cfg(mu_step=mu_step, algorithm=algorithm, tol=tol, error=1e-2 if algorithm == "direct" else 1e-4, simo_n=200)
    rows = devils_staircase(cfg)
    assert repr(rows) == repr([_library_row(cfg, mu) for mu in mu_grid(cfg)])


def test_staircase_worker_determinism():
    rows1 = devils_staircase(_cfg(workers=1))
    rows2 = devils_staircase(_cfg(workers=2))
    assert rows1 == rows2


# one small sweep of each kind, keyed by name: (sweep, config, record type)
SWEEPS = {
    "staircase": (devils_staircase, dict(mu_step=1e-2), StaircaseRow),
    "simo": (devils_staircase, dict(mu_step=1e-2, algorithm="simo", simo_n=200), StaircaseRow),
    "interval": (rotation_interval_graph, dict(family="pwl", a_min=0.0, a_max=2.0, a_steps=5, error=1e-3), IntervalRow),
    "tongue": (
        lambda cfg: arnold_tongue(cfg, Fraction(1, 2)),
        dict(family="pwl", a_min=0.0, a_max=4.0, a_steps=4, omega_steps=4, error=1e-3),
        TongueCell,
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_one_two_and_eight_workers_return_equal_rows(name):
    sweep, kw, _ = SWEEPS[name]
    rows = [sweep(_cfg(workers=workers, **kw)) for workers in (1, 2, 8)]
    assert rows[0] == rows[1] == rows[2] and len(rows[0]) > 1
    assert [row.tuples for row in rows[1:]] == [rows[0].tuples] * 2


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_rows_read_like_the_list_of_records_they_stand_for(name):
    sweep, kw, cls = SWEEPS[name]
    rows = sweep(_cfg(**kw))
    assert type(rows) is Rows and all(type(t) is tuple for t in rows.tuples)
    records = [cls(*t) for t in rows.tuples]
    n = len(records)
    assert len(rows) == n > 1
    # iterates twice, each time handing out records
    assert list(rows) == list(rows) == records
    assert all(type(r) is cls for r in rows)
    for i in range(-n, n):
        assert type(rows[i]) is cls and rows[i] == records[i]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            rows[i]
    for part in (slice(None), slice(1, -1), slice(None, None, -2), slice(3, 1), slice(-2, None)):
        got = rows[part]
        assert type(got) is list and got == records[part] and all(type(r) is cls for r in got)
    assert rows == records and records == rows and not rows != records
    assert rows == Rows(cls, list(rows.tuples))
    assert rows != records[:-1] and rows != tuple(records) and rows != records + records[:1]
    assert repr(rows) == repr(records)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(rows, protocol))
        assert type(back) is list and back == records and all(type(r) is cls for r in back)


@pytest.mark.parametrize("name", ["staircase", "simo", "tongue"])
def test_stored_staircase_and_tongue_rows_are_untracked_by_the_collector(name):
    # their fields are all atomic (floats, ints, str, bool, None), and a plain
    # tuple of atomic fields is untracked at a collection; a tuple subclass never is
    sweep, kw, _ = SWEEPS[name]
    rows = sweep(_cfg(**kw))
    gc.collect()
    assert rows.tuples and not any(gc.is_tracked(t) for t in rows.tuples)


def test_staircase_rejects_a_circle_family():
    with pytest.raises(UsageError, match="fmu family"):
        devils_staircase(_cfg(family="pwl"))


def test_interval_graph_monotone_family_degenerate():
    cfg = _cfg(family="standard", a_min=0.0, a_max=1.0, a_steps=5)
    rows = rotation_interval_graph(cfg)
    for r in rows:
        assert r.status == "ok"
        assert r.lo.value == 0.0 and r.hi.value == 0.0


def test_interval_graph_disc_and_rigid():
    cfg = _cfg(family="disc", a_min=2 * math.pi, a_max=2 * math.pi, a_steps=1)
    (row,) = rotation_interval_graph(cfg)
    assert abs(row.lo.value) < 1e-4 and abs(row.hi.value - 1.0) < 1e-4

    cfg = _cfg(family="pwl", omega=0.5, a_min=0.0, a_max=0.0, a_steps=1)
    (row,) = rotation_interval_graph(cfg)
    assert abs(row.lo.value - 0.5) < 1e-4 and abs(row.hi.value - 0.5) < 1e-4


def test_interval_graph_family_validation():
    with pytest.raises(UsageError):
        rotation_interval_graph(_cfg(family="fmu"))
    with pytest.raises(UsageError):
        rotation_interval_graph(_cfg(family="disc", algorithm="simo"))


def test_tongue_zero_omega_line_and_rigid_row():
    cfg = _cfg(
        family="standard",
        a_min=0.0,
        a_max=4.0,
        a_steps=3,
        omega_min=0.0,
        omega_max=0.0,
        omega_steps=1,
    )
    cells = arnold_tongue(cfg, 0.0)
    assert all(c.member for c in cells)

    cfg = _cfg(
        family="pwl",
        a_min=0.0,
        a_max=0.0,
        a_steps=1,
        omega_min=0.0,
        omega_max=1.0,
        omega_steps=11,
    )
    target = 0.6180339887498949
    cells = arnold_tongue(cfg, target)
    for c in cells:
        assert c.member == (abs(c.omega - target) <= 1e-4 + 1e-12)


def test_tongue_symmetry_under_omega_negation():
    cfg = _cfg(
        family="pwl",
        a_min=0.0,
        a_max=9.0,
        a_steps=4,
        omega_min=-0.2,
        omega_max=0.2,
        omega_steps=5,
    )
    cells = arnold_tongue(cfg, 0.0)
    by_key = {(round(c.a, 12), round(c.omega, 12)): c.member for c in cells}
    for (a, om), member in by_key.items():
        assert by_key[(a, round(-om, 12))] == member


def test_tongue_exact_membership_is_rational():
    # rot(T(0.5, 9)) = [-1/2, 3/2] with both endpoints exact: membership of
    # 1/2 is decided by rational comparison
    cfg = _cfg(family="pwl", a_min=9.0, a_max=9.0, a_steps=1, omega_min=0.5, omega_max=0.5, omega_steps=1)
    (cell,) = arnold_tongue(cfg, Fraction(1, 2))
    assert cell.status == "ok"
    assert cell.member is True
    assert cell.lo == -0.5 and cell.hi == 1.5
    assert cell.lo_err == 0.0 and cell.hi_err == 0.0


def test_tongue_integer_membership_equals_the_fraction_comparison(monkeypatch):
    # the cell compares the exact endpoints' raw pairs (m, n) with the target
    # in integers; the Fraction comparison of the reduced endpoints is the reference
    from rotkit import sweep
    from rotkit.rotnum import RotationEstimate, RotationInterval

    pairs = [(-3, 2), (-2, 4), (-1, 2), (0, 1), (0, 3), (1, 2), (2, 4), (3, 1), (7, 2), (14, 4), (15, 4)]
    targets = [Fraction(7, 2), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(11, 3)]
    cfg = _cfg(family="pwl")
    seen = set()
    for lo_m, lo_n in pairs:
        for hi_m, hi_n in pairs:
            ri = RotationInterval(RotationEstimate.exact(lo_m, lo_n), RotationEstimate.exact(hi_m, hi_n))
            monkeypatch.setattr(sweep, "_interval_or_none", lambda cfg, a, omega, ri=ri: ri)
            for target in targets:
                cell = TongueCell(*sweep._tongue_cell((cfg, 0.0, 0.0, target)))  # a plain tuple in TongueCell's field order
                want = Fraction(lo_m, lo_n) <= target <= Fraction(hi_m, hi_n)
                assert cell.member is want, (lo_m, lo_n, hi_m, hi_n, target)
                seen.add((want, target == Fraction(lo_m, lo_n), target == Fraction(hi_m, hi_n)))
    # members and non-members, and equality at the lower end, the upper end and both
    assert {(True, True, False), (True, False, True), (True, True, True), (True, False, False), (False, False, False)} <= seen


def test_invert_rational_target_and_vacuous_eps():
    res = invert_staircase(0.5, 1e-3, error=1e-4)
    assert res.status == "ok"
    assert res.bisections < 50
    assert abs(res.rho - 0.5) <= 1e-3

    res = invert_staircase(0.5, 0.499, max_bisections=5, error=1e-4)
    assert res.status == "ok" and res.bisections == 1


def test_invert_golden_ill_conditioned():
    res = invert_staircase((math.sqrt(5.0) - 1.0) / 2.0, 1e-6, max_bisections=200, error=1e-4)
    assert res.status == "ill_conditioned"
    assert res.bisections <= 200
    assert res.bracket_width < 1e-9
    # a budget of three bisections runs out with the bracket 1/8 wide
    res = invert_staircase(0.4, 1e-12, max_bisections=3, error=1e-3)
    assert (res.status, res.bisections, res.bracket_width) == ("ill_conditioned", 3, 0.125)


def test_invert_validation():
    with pytest.raises(UsageError):
        invert_staircase(1.5, 1e-3)
    with pytest.raises(UsageError):
        invert_staircase(0.5, 0.0)
    for budget in (0, -5):
        with pytest.raises(UsageError, match="max_bisections"):
            invert_staircase(0.5, 1e-3, max_bisections=budget)


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_invert_rejects_non_finite_eps(eps):
    with pytest.raises(UsageError, match="eps"):
        invert_staircase(0.5, eps, error=1e-4)


def test_benchmark_rows():
    # grid dense enough that per-cell estimator cost dominates the two
    # max_iter fallbacks at mu = 0 and mu = 1
    cfg = _cfg(mu_step=2e-3, simo_n=1000)
    rows = benchmark(cfg, problems=("staircase",), algorithms=("direct", "simo", "csb"))
    by_alg = {r.algorithm: r for r in rows}
    assert set(by_alg) == {"direct", "simo", "csb"}
    assert all(r.status == "ok" for r in rows)
    assert by_alg["csb"].seconds < by_alg["direct"].seconds
    assert by_alg["csb"].seconds < by_alg["simo"].seconds

    cfg = _cfg(family="standard", a_min=0.0, a_max=2.0, a_steps=3)
    rows = benchmark(cfg, problems=("interval",), algorithms=("direct", "simo", "csb"))
    by_alg = {r.algorithm: r for r in rows}
    assert by_alg["simo"].status == "n/a" and by_alg["simo"].seconds is None
    assert by_alg["direct"].status == "ok" and by_alg["csb"].status == "ok"

    cfg = _cfg(family="pwl", a_steps=2, omega_steps=2, error=1e-3)
    rows = benchmark(cfg, problems=("tongue",), algorithms=("csb", "simo"))
    assert [(r.problem, r.family, r.algorithm, r.status) for r in rows] == [
        ("tongue", "pwl", "csb", "ok"),
        ("tongue", "pwl", "simo", "n/a"),
    ]
    assert rows[0].seconds > 0.0 and rows[1].seconds is None


def test_benchmark_validation():
    with pytest.raises(UsageError):
        benchmark(_cfg(), problems=("staircase",), algorithms=())
    with pytest.raises(UsageError):
        benchmark(_cfg(), problems=("nonsense",))
    # a simo-only interval benchmark runs no sweep, so the family is checked up front
    with pytest.raises(UsageError, match="defined for"):
        benchmark(_cfg(family="fmu"), problems=("interval",), algorithms=("simo",))


def test_csv_headers_and_roundtrip():
    rows = devils_staircase(_cfg(mu_step=0.25))
    buf = io.StringIO()
    write_staircase_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(STAIRCASE_HEADER)
    assert len(lines) == len(rows) + 1
    # 17-significant-digit floats round-trip losslessly
    first = lines[1].split(",")
    assert float(first[0]) == rows[0].mu
    assert float(first[1]) == rows[0].rho

    cfg = _cfg(family="disc", a_min=1.0, a_max=2.0, a_steps=2)
    buf = io.StringIO()
    failures = write_interval_csv(rotation_interval_graph(cfg), buf)
    assert failures == 0
    assert buf.getvalue().splitlines()[0] == ",".join(INTERVAL_HEADER)

    cfg = _cfg(family="pwl", a_min=0.0, a_max=1.0, a_steps=2, omega_min=0.0, omega_max=0.0, omega_steps=1)
    buf = io.StringIO()
    failures = write_tongue_csv(arnold_tongue(cfg, 0.0), buf)
    assert failures == 0
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(TONGUE_HEADER)
    assert all(line.split(",")[2] in ("0", "1") for line in lines[1:])


def test_staircase_writer_matches_the_field_by_field_oracle():
    # the writer formats an exact row's text after mu once per (m, n, iterations)
    # and reuses it; the oracle formats every field of every row
    csb = devils_staircase(_cfg(mu_step=1e-3))
    simo = devils_staircase(_cfg(mu_step=1e-2, algorithm="simo", simo_n=500))
    direct = devils_staircase(_cfg(mu_step=0.25, algorithm="direct"))
    exact = [r for r in csb if r.kind == "exact"]
    # plateaus: many rows share (m, n, iterations) at different mu
    assert len({(r.m, r.n, r.iterations) for r in exact}) < len(exact) // 4
    # one (m, n) with two iteration counts: csb reports the hit's n, simo its simo_n
    simo_pairs = {(r.m, r.n) for r in simo if r.kind == "exact"}
    assert any((r.m, r.n) in simo_pairs for r in exact)
    # the cells' plain tuples, in StaircaseRow's field order
    edges = [
        _staircase_cell((_staircase_call(_cfg(algorithm=algorithm)), mu))
        for algorithm in ("csb", "simo", "direct")
        for mu in (-0.0, 5e-324, math.nextafter(1.0, 0.0))
    ]
    # exact rows at a negative zero and a subnormal mu, next to the cached text of their plateau
    moved = [r._replace(mu=mu) for r in exact[:3] for mu in (-0.0, 5e-324)]
    for rows in (csb, simo, direct, edges, [*csb, *simo, *moved, *edges, *direct]):
        buf = io.StringIO()
        write_staircase_csv(rows, buf)
        assert buf.getvalue() == staircase_csv_oracle(rows)
    assert {StaircaseRow(*r).kind for r in [*csb, *simo, *direct, *edges]} == {"exact", "approx"}
    assert staircase_csv_oracle(moved[:2]).splitlines()[1].startswith("-0,")

    # hand-built rows: a negative m and rho, and an iteration count past any machine integer
    hand = [
        StaircaseRow(0.25, -2 / 3, "exact", -2, 3, None, 10**30),
        StaircaseRow(0.5, -2 / 3, "exact", -2, 3, None, 10**30),
        StaircaseRow(0.75, -1.5, "approx", None, None, 5e-324, 10**30),
        StaircaseRow(1.0, math.inf, "approx", None, None, None, -(10**30)),
    ]
    buf = io.StringIO()
    write_staircase_csv(hand + exact[:2] + hand, buf)
    assert buf.getvalue() == staircase_csv_oracle(hand + exact[:2] + hand)
    assert buf.getvalue().splitlines()[1] == "0.25,-0.66666666666666663,exact,-2,3,,1000000000000000000000000000000"

    # the writer reuses the previous exact row's text while (m, n, iterations)
    # repeats and writes STAIRCASE_CHUNK rows at a time
    approx = [r for r in [*csb, *simo, *direct] if r.kind == "approx"]
    a, b = exact[100], exact[-100]
    assert (a.m, a.n) != (b.m, b.n)
    recurring = [a, b, a, a._replace(mu=0.5), approx[0], a, b, b, approx[1], approx[2], b, a]
    twin = next(r for r in simo if r.kind == "exact" and (r.m, r.n) in {(e.m, e.n) for e in exact})
    csb_twin = next(r for r in exact if (r.m, r.n) == (twin.m, twin.n))
    assert csb_twin.iterations != twin.iterations
    mixed = [csb_twin, twin, csb_twin, twin, twin, csb_twin]
    chunk = STAIRCASE_CHUNK
    filler = (exact * (3 * chunk // len(exact) + 1))[: 2 * chunk + 7]
    for edge in (chunk, 2 * chunk):
        # approx rows on both sides of each chunk edge, between rows of one plateau
        filler[edge - 2 : edge + 2] = [approx[0], approx[1], approx[2], approx[0]]
    filler[chunk - 3] = filler[chunk + 2] = a
    assert len(filler) > 2 * chunk
    for rows in (recurring, mixed, filler, filler[:chunk], filler[: chunk + 1], recurring + mixed + filler):
        want = staircase_csv_oracle(rows)
        for given in (rows, (r for r in rows), iter(rows)):
            buf = io.StringIO()
            write_staircase_csv(given, buf)
            assert buf.getvalue() == want


def test_staircase_tasks_are_a_sized_view_made_as_read(monkeypatch):
    # the sweep hands _run_ordered a view of (call, mu) tasks, not a list: each
    # iteration makes them afresh around one shared call, and the view pickles
    # as the list a pool would move
    import rotkit.sweep as sweep

    cfg = _cfg(mu_step=1e-3)
    seen = []
    real = sweep._run_ordered
    monkeypatch.setattr(sweep, "_run_ordered", lambda worker, tasks, workers: seen.append(tasks) or real(worker, tasks, workers))
    rows = devils_staircase(cfg)
    (tasks,) = seen
    grid = mu_grid(cfg)
    assert not isinstance(tasks, list)
    assert len(tasks) == len(grid) == len(rows)
    first, second = list(tasks), list(tasks)
    call = first[0][0]
    assert call == _staircase_call(cfg)
    assert first == second == [(call, mu) for mu in grid]
    assert {id(head) for head, _ in first + second} == {id(call)}
    assert [float.hex(mu) for _, mu in first] == [float.hex(mu) for mu in grid]
    as_list = pickle.dumps(first, pickle.HIGHEST_PROTOCOL)
    as_view = pickle.dumps(tasks, pickle.HIGHEST_PROTOCOL)
    assert pickle.loads(as_view) == first
    assert abs(len(as_view) - len(as_list)) <= 0.01 * len(as_list)


def test_staircase_sweep_holds_no_task_list():
    # a sweep's peak traced memory stays close to the rows it returns: a list
    # of one (call, mu) tuple per cell, alive through the sweep, reads about 1.35
    devils_staircase(_cfg(mu_step=0.25))  # the kernels compile outside the trace
    tracemalloc.start()
    try:
        rows = devils_staircase(SweepConfig(mu_step=1e-4, error=1e-5))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 10_001
    assert peak / retained <= 1.15


def test_failed_cells_are_flagged_and_counted():
    rows = [
        IntervalRow(a=1.0, omega=0.0, lo=None, hi=None, status="error"),
    ]
    buf = io.StringIO()
    failures = write_interval_csv(rows, buf)
    assert failures == 1
    assert "error" in buf.getvalue().splitlines()[1]


def test_bench_header():
    assert BENCH_HEADER == ["problem", "family", "algorithm", "seconds", "status"]
