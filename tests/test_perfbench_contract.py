"""The benchmark tracer wraps rotkit names given as strings: each must still exist.

perfbench/tracer.py skips a name it cannot find and only notes it on stderr,
so a refactor that drops a traced name would silently lose a layer or the
per-endpoint fidelity check.  This test loads the tracer by file path, without
importing the benchmark harness, and resolves every name it lists.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

from rotkit.cli import main

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# listed by the tracer but gone from rotkit: the csb kernel applies the
# section shift itself, so there is no reparametrization call to time
KNOWN_MISSING = {("rotkit.rotnum", "reparametrize_to_zero")}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load_tracer()
    names = [(mod, attr) for mod, attr, _, _ in tracer.SPANS if (mod, attr) not in KNOWN_MISSING]
    names += list(tracer.ESTIMATORS)
    missing = [f"{mod}.{attr}" for mod, attr in names if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


def test_no_section_endpoints_reach_the_traced_direct_estimator(monkeypatch):
    # the tracer classifies and digests each endpoint from the calls it sees on
    # rotkit.rotnum.rho_direct: one call per no-section endpoint, two (one per
    # endpoint) for a non-decreasing cell, in grid order
    from fractions import Fraction

    import rotkit.rotnum as rotnum
    from rotkit.envelope import lower_map, upper_map, widest_section
    from rotkit.families import build_lifting
    from rotkit.sweep import SweepConfig, _linspace, arnold_tongue

    assert ("rotkit.rotnum", "rho_direct") in _load_tracer().ESTIMATORS
    seen = []
    real = rotnum.rho_direct

    def recorder(G, error, **kwargs):
        seen.append(G.label)
        return real(G, error, **kwargs)

    monkeypatch.setattr(rotnum, "rho_direct", recorder)
    tol = 1e-10
    for family in ("standard", "pwl", "disc"):
        cfg = SweepConfig(family=family, a_min=0.0, a_max=2.0, a_steps=3, omega_steps=3, error=1e-3, tol=tol)
        expected = []
        nondecreasing = 0
        for a in _linspace(cfg.a_min, cfg.a_max, cfg.a_steps):
            for omega in _linspace(cfg.omega_min, cfg.omega_max, cfg.omega_steps):
                F = build_lifting((family, omega, a))
                no_section = [
                    env.lifting.label
                    for env in (lower_map(F), upper_map(F))
                    if (sec := widest_section(env.sections)) is None or sec.width <= 2.0 * tol
                ]
                if F.is_non_decreasing and no_section:
                    assert no_section == [F.label, F.label]
                    nondecreasing += 1
                expected += no_section
        seen.clear()
        arnold_tongue(cfg, Fraction(1, 2))
        assert seen == expected
        assert nondecreasing >= cfg.omega_steps  # at least the a = 0 row


@pytest.mark.parametrize(
    "algorithm, tol, traced",
    [
        ("csb", 1e-10, ("rotkit.rotnum", "rho_constant_section")),
        ("csb", 0.0, ("rotkit.rotnum", "rho_constant_section")),
        ("csb", 0.125, ("rotkit.sweep", "rho_direct")),  # f_mu's section is 1/4 wide: no usable section
        ("csb", 0.3, ("rotkit.sweep", "rho_direct")),
        ("direct", 1e-10, ("rotkit.sweep", "rho_direct")),
        ("simo", 1e-10, ("rotkit.sweep", "rho_simo")),
    ],
)
def test_each_staircase_endpoint_reaches_one_traced_estimator(algorithm, tol, traced, monkeypatch):
    # the tracer classifies and digests each staircase endpoint from the calls
    # it sees on the estimator attributes it wraps: every cell must call exactly
    # one of them, once, in grid order.  A csb cell must look
    # rho_constant_section up on rotkit.rotnum, where the tracer wraps it
    from rotkit.sweep import SweepConfig, devils_staircase, mu_grid

    estimators = _load_tracer().ESTIMATORS
    assert traced in estimators
    seen = []
    for mod, attr in estimators:
        module = importlib.import_module(mod)

        def recorder(F, *args, _real=getattr(module, attr), _name=(mod, attr), **kwargs):
            seen.append((_name, F.fundamental.__defaults__[0]))  # f_mu's step binds mu
            return _real(F, *args, **kwargs)

        monkeypatch.setattr(module, attr, recorder)
    cfg = SweepConfig(mu_step=1e-2, error=1e-3, tol=tol, algorithm=algorithm, simo_n=200)
    rows = devils_staircase(cfg)
    assert seen == [(traced, mu) for mu in mu_grid(cfg)]
    assert [r.mu for r in rows] == mu_grid(cfg)


def test_each_tongue_cell_builds_each_envelope_side_once_through_the_traced_names(monkeypatch):
    # the tracer times rotkit.rotnum.upper_map and lower_map as its "maps" group
    # (envelope.maps_us); a refactor that stopped calling them there would leave
    # that metric quietly empty.  A non-monotone cell calls each once, and each
    # call runs the lifting's builder for its one side; a non-decreasing cell
    # is its own envelope, taken once through lower_map.
    from fractions import Fraction

    import rotkit.rotnum as rotnum
    import rotkit.sweep as sweep
    from rotkit.sweep import SweepConfig, arnold_tongue

    maps = {(mod, attr) for mod, attr, _, group in _load_tracer().SPANS if group == "maps"}
    assert maps == {("rotkit.rotnum", "upper_map"), ("rotkit.rotnum", "lower_map")}
    events = []

    def counted(name, real):
        def wrapper(*args):
            events.append(name)
            return real(*args)

        return wrapper

    def counted_builder(builder):
        def wrapper(F, upper):
            events.append(("builder", upper))
            return builder(F, upper)

        return wrapper

    real_build = sweep.build_lifting

    def build(params):
        F = real_build(params)
        events.append(("cell", F.is_non_decreasing))
        return F._replace(envelope_builder=counted_builder(F.envelope_builder))

    monkeypatch.setattr(sweep, "build_lifting", build)
    for name in ("upper_map", "lower_map"):
        monkeypatch.setattr(rotnum, name, counted(name, getattr(rotnum, name)))
    for family in ("standard", "pwl", "disc"):
        events.clear()
        cfg = SweepConfig(family=family, a_min=0.0, a_max=9.0, a_steps=4, omega_steps=3, error=1e-3)
        assert all(c.status == "ok" for c in arnold_tongue(cfg, Fraction(1, 2)))
        cells = [e[1] for e in events if e[0] == "cell"]
        assert len(cells) == 12 and 0 < sum(cells) < 12
        expected = []
        for non_decreasing in cells:
            # a non-decreasing map states its sections and has no builder: it is its own envelope
            expected += [("cell", non_decreasing), "lower_map"]
            if not non_decreasing:
                expected += [("builder", False), "upper_map", ("builder", True)]
        assert events == expected


def test_sweeps_hand_the_harness_sized_reiterable_picklable_readable_rows():
    # perfbench/child.py keeps the rows passed to write_*_csv, takes their
    # len (the tracer), iterates them after main returns and reads these
    # attributes; a worker pool pickles rows and estimates
    import pickle
    from fractions import Fraction

    from rotkit.rotnum import RotationEstimate
    from rotkit.sweep import StaircaseRow, SweepConfig, TongueCell, arnold_tongue, devils_staircase

    stairs = devils_staircase(SweepConfig(mu_step=0.25, error=1e-3))
    simo = devils_staircase(SweepConfig(mu_step=0.25, algorithm="simo", simo_n=50))
    tongue = arnold_tongue(SweepConfig(family="pwl", a_steps=2, omega_steps=2, error=1e-3), Fraction(1, 2))
    for rows, cls in ((stairs, StaircaseRow), (simo, StaircaseRow), (tongue, TongueCell)):
        records = list(rows)
        assert len(rows) == len(records) > 0
        assert all(type(r) is cls for r in records)
        assert list(rows) == records  # re-iterable
        back = pickle.loads(pickle.dumps(rows))
        assert type(back) is list and back == records and all(type(r) is cls for r in back)
    for r in [*stairs, *simo]:
        assert isinstance(r.kind, str) and isinstance(r.rho, float) and isinstance(r.iterations, int)
    for c in tongue:
        assert c.status == "ok"
        assert all(isinstance(v, float) for v in (c.lo, c.hi, c.lo_err, c.hi_err))
    for est in (RotationEstimate("exact", 0.5, 0.0, 7, 2, 4), RotationEstimate("approx", 0.1, 1e-3, 1000)):
        back = pickle.loads(pickle.dumps(est))
        assert back == est and type(back) is RotationEstimate
        assert (back.kind, back.value, back.error_bound, back.iterations_used, back.m, back.n) == tuple(est)


def test_staircase_csv_text():
    import io

    from rotkit.sweep import StaircaseRow, write_staircase_csv

    rows = [
        StaircaseRow(mu=0.5, rho=0.6296296296296297, kind="exact", m=17, n=27, error_bound=None, iterations=27),
        StaircaseRow(mu=0.1, rho=1 / 3, kind="approx", m=None, n=None, error_bound=1e-05, iterations=100000),
    ]
    buf = io.StringIO()
    write_staircase_csv(rows, buf)
    assert buf.getvalue() == (
        "mu,rho,kind,m,n,error_bound,iterations\n"
        "0.5,0.62962962962962965,exact,17,27,,27\n"
        "0.10000000000000001,0.33333333333333331,approx,,,1.0000000000000001e-05,100000\n"
    )


def test_interval_csv_text():
    import io

    from rotkit.rotnum import RotationEstimate
    from rotkit.sweep import IntervalRow, write_interval_csv

    rows = [
        IntervalRow(1e-05, -0.0, RotationEstimate.exact(1, 2), RotationEstimate("approx", 0.1, 5e-324, 10), "ok"),
        IntervalRow(0.1, 3.31, None, None, "error"),
    ]
    # the writer reads any iterable of rows by position, one-shot generators
    # too, and counts the failed cells in the pass that writes them
    for given in (rows, [tuple(r) for r in rows], iter(rows), (r for r in rows)):
        buf = io.StringIO()
        assert write_interval_csv(given, buf) == 1
        assert buf.getvalue() == (
            "a,omega,lo,lo_kind,lo_err,hi,hi_kind,hi_err\n"
            "1.0000000000000001e-05,-0,0.5,exact,0,0.10000000000000001,approx,4.9406564584124654e-324\n"
            "0.10000000000000001,3.3100000000000001,,error,,,error,\n"
        )


def test_tongue_csv_text():
    import io

    from rotkit.sweep import TongueCell, write_tongue_csv

    rows = [
        TongueCell(0.1, -0.0, True, 0.5, 0.5, 0.0, 0.0, "ok"),
        TongueCell(1e-05, 5e-324, False, 0.1, 0.25, 1e-04, 1e-04, "ok"),
        TongueCell(2.0, 3.31, None, None, None, None, None, "error"),
    ]
    # the writer reads any iterable of rows by position, one-shot generators
    # too, and counts the failed cells in the pass that writes them
    for given in (rows, [tuple(r) for r in rows], iter(rows), (r for r in rows)):
        buf = io.StringIO()
        assert write_tongue_csv(given, buf) == 1
        assert buf.getvalue() == (
            "a,omega,member,lo,hi\n"
            "0.10000000000000001,-0,1,0.5,0.5\n"
            "1.0000000000000001e-05,4.9406564584124654e-324,0,0.10000000000000001,0.25\n"
            "2,3.3100000000000001,error,,\n"
        )


def test_benchmark_csv_text():
    import io

    from rotkit.sweep import BenchmarkRow, write_benchmark_csv

    rows = [
        BenchmarkRow("staircase", "fmu", "direct", 0.1, "ok"),
        BenchmarkRow("tongue", "standard", "simo", None, "n/a"),
        BenchmarkRow("interval", "disc", "csb", 5e-324, "ok"),
    ]
    buf = io.StringIO()
    write_benchmark_csv(rows, buf)
    assert buf.getvalue() == (
        "problem,family,algorithm,seconds,status\n"
        "staircase,fmu,direct,0.10000000000000001,ok\n"
        "tongue,standard,simo,,n/a\n"
        "interval,disc,csb,4.9406564584124654e-324,ok\n"
    )


def test_invert_csv_text():
    import io

    from rotkit.sweep import InvertResult, write_invert_csv

    buf = io.StringIO()
    write_invert_csv(InvertResult("ok", 0.5, 0.5, 1, 1.0), 0.5, 1e-05, buf)
    write_invert_csv(InvertResult("ill_conditioned", 0.1, -0.0, 200, 5e-324), 0.1, 1e-05, buf)
    assert buf.getvalue() == (
        "target,eps,status,mu,rho,bisections,bracket_width\n"
        "0.5,1.0000000000000001e-05,ok,0.5,0.5,1,1\n"
        "target,eps,status,mu,rho,bisections,bracket_width\n"
        "0.10000000000000001,1.0000000000000001e-05,ill_conditioned,0.10000000000000001,-0,200,4.9406564584124654e-324\n"
    )


def test_stamped_cells_and_captured_rows_see_each_cell_once_in_grid_order(tmp_path, monkeypatch):
    # perfbench/child.py --stamp replaces sweep._staircase_cell and
    # sweep._tongue_cell with a one-argument wrapper, and keeps the rows main
    # hands to rotkit.cli.write_*_csv; both must see every cell once
    import rotkit.cli as cli
    import rotkit.sweep as sweep
    from rotkit.sweep import SweepConfig, _linspace, mu_grid

    for cell, writer, argv, point, grid in (
        (
            "_staircase_cell",
            "write_staircase_csv",
            ["staircase", "--mu-step", "0.125", "--error", "1e-3"],
            lambda row: row.mu,
            mu_grid(SweepConfig(mu_step=0.125)),
        ),
        (
            "_tongue_cell",
            "write_tongue_csv",
            ["tongue", "--family", "pwl", "--rho", "1/2", "--steps", "3", "--error", "1e-3"],
            lambda row: (row.a, row.omega),
            [(a, omega) for a in _linspace(0.0, 4.0 * math.pi, 3) for omega in _linspace(0.0, 1.0, 3)],
        ),
    ):
        recorded, written = [], []
        real_cell, real_writer = getattr(sweep, cell), getattr(cli, writer)

        def recorder(task, _real=real_cell):
            row = _real(task)
            recorded.append(row)
            return row

        def capture(rows, stream, _real=real_writer):
            written.append(rows)
            return _real(rows, stream)

        monkeypatch.setattr(sweep, cell, recorder)
        monkeypatch.setattr(cli, writer, capture)
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
        # the cells return plain tuples; the writer gets a sized, re-iterable
        # sequence of the same rows as records, which the child reads after main
        (rows,) = written
        records = list(rows)
        assert len(rows) == len(recorded) and list(rows) == records == recorded
        assert all(type(row) is tuple for row in recorded)
        assert [point(row) for row in records] == grid


def test_every_sweep_calls_the_stamped_cell_names_once_per_cell_in_grid_order(monkeypatch):
    # perfbench/child.py --stamp times a run's slices by replacing
    # sweep._staircase_cell and sweep._tongue_cell with wrappers: a sweep that
    # stopped calling those module attributes would silently leave one slice.
    # A staircase task is (call, mu), its estimator call resolved once per
    # sweep and shared by every task; a tongue task is (cfg, a, omega, target)
    from fractions import Fraction

    import rotkit.sweep as sweep
    from rotkit.sweep import SweepConfig, _linspace, _staircase_call, arnold_tongue, devils_staircase, mu_grid

    staircases = [
        SweepConfig(mu_step=0.125, error=1e-3, tol=tol, algorithm=algorithm)
        for algorithm, tol in (("csb", 1e-10), ("csb", 0.2), ("direct", 1e-10), ("simo", 1e-10))
    ]
    runs = [
        ("_staircase_cell", cfg, _staircase_call(cfg), devils_staircase, [(mu,) for mu in mu_grid(cfg)])
        for cfg in staircases
    ]
    target = Fraction(1, 2)
    tongue_grid = [(a, omega, target) for a in _linspace(0.0, 4.0 * math.pi, 3) for omega in _linspace(0.0, 1.0, 3)]
    tongue = SweepConfig(family="pwl", a_steps=3, omega_steps=3, error=1e-3)
    runs.append(("_tongue_cell", tongue, tongue, lambda cfg: arnold_tongue(cfg, target), tongue_grid))
    for cell, cfg, head, run, grid in runs:
        expected = run(cfg)
        calls = []
        for name in ("_staircase_cell", "_tongue_cell"):

            def counted(task, _name=name, _real=getattr(sweep, name)):
                calls.append((_name, task))
                return _real(task)

            monkeypatch.setattr(sweep, name, counted)
        assert run(cfg) == expected
        assert calls == [(cell, (head, *point)) for point in grid]
        assert len({id(task[0]) for _, task in calls}) == 1  # one shared call or config object
        monkeypatch.undo()
