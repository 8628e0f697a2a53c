import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rotkit.cli import main, parse_rho
from rotkit.families import GOLDEN_MEAN


def test_parse_rho_forms():
    assert parse_rho("2/5") == Fraction(2, 5)
    assert parse_rho("0.25") == 0.25
    assert parse_rho("golden") == GOLDEN_MEAN
    assert parse_rho(" GOLDEN ") == GOLDEN_MEAN


def test_parse_rho_rejects_non_finite_and_zero_denominator():
    from rotkit.sweep import UsageError

    for text in ("nan", "inf", "-inf", "1/0"):
        with pytest.raises(UsageError):
            parse_rho(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["staircase", "--mu-step", "0.25", "--tol", "nan"],
        ["staircase", "--mu-step", "0.25", "--error", "inf"],
        ["staircase", "--mu-step", "0.25", "--error", "nan"],
        ["invert", "--rho", "1/2", "--error", "inf"],
        ["invert", "--rho", "1/2", "--tol", "nan"],
        ["tongue", "--family", "pwl", "--steps", "2", "--rho", "nan"],
        ["tongue", "--family", "pwl", "--steps", "2", "--rho", "inf"],
        ["invert", "--rho", "nan"],
    ],
)
def test_non_finite_inputs_exit_one(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("rotkit: error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["interval", "--family", "standard", "--steps", "2", "--omega", "inf"],
        ["interval", "--family", "pwl", "--steps", "2", "--omega", "nan"],
        ["interval", "--family", "disc", "--steps", "2", "--a-range", "0:inf"],
        ["staircase", "--mu-step", "inf"],
        ["staircase", "--mu-step", "nan"],
        ["tongue", "--family", "pwl", "--steps", "2", "--omega-range", "nan:1"],
        ["invert", "--rho", "1/2", "--eps", "nan"],
        ["invert", "--rho", "1/2", "--eps", "inf"],
    ],
)
def test_non_finite_sweep_parameters_exit_one(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("rotkit: error: ") and err.count("\n") == 1
    assert not out.exists()


def test_staircase_csv_output(tmp_path):
    out = tmp_path / "stairs.csv"
    code = main(
        ["staircase", "--mu-step", "0.05", "--error", "1e-4", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "mu,rho,kind,m,n,error_bound,iterations"
    assert len(lines) == 22
    assert lines[1].startswith("0,")


def test_staircase_step_wider_than_range_keeps_both_ends(tmp_path):
    out = tmp_path / "wide.csv"
    assert main(["staircase", "--mu-step", "3", "--error", "1e-3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]


def test_import_leaves_multiprocessing_out():
    # the pool's module is imported only when a sweep starts a pool
    import rotkit

    env = {**os.environ, "PYTHONPATH": str(Path(rotkit.__file__).resolve().parents[1])}
    code = "import sys, rotkit.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_threads_are_byte_identical(tmp_path):
    out1 = tmp_path / "t1.csv"
    out8 = tmp_path / "t8.csv"
    base = ["staircase", "--mu-step", "0.002", "--error", "1e-4"]
    assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(base + ["--threads", "8", "--out", str(out8)]) == 0
    assert out1.read_bytes() == out8.read_bytes()


def test_threads_env_fallback(tmp_path, monkeypatch):
    out = tmp_path / "env.csv"
    monkeypatch.setenv("ROTKIT_THREADS", "2")
    assert main(["staircase", "--mu-step", "0.05", "--error", "1e-4", "--out", str(out)]) == 0
    monkeypatch.setenv("ROTKIT_THREADS", "not-a-number")
    assert main(["staircase", "--mu-step", "0.05", "--error", "1e-4", "--out", str(out)]) == 1


def test_invert_does_not_read_threads_env(tmp_path, monkeypatch):
    # invert starts no pool, so a bad ROTKIT_THREADS is none of its business
    monkeypatch.setenv("ROTKIT_THREADS", "x")
    out = tmp_path / "inv.csv"
    assert main(["invert", "--rho", "1/2", "--eps", "1e-3", "--error", "1e-4", "--out", str(out)]) == 0
    assert ",ok," in out.read_text().splitlines()[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["invert", "--rho", "1/2", "--eps", "1e-3", "--error", "1e-3", "--threads", "2"],
        ["invert", "--rho", "1/2", "--eps", "1e-3", "--error", "1e-3", "--simo-iters", "1"],
        ["interval", "--family", "disc", "--steps", "2", "--error", "1e-3", "--simo-iters", "50"],
        ["tongue", "--family", "pwl", "--steps", "2", "--error", "1e-3", "--simo-iters", "50"],
    ],
)
def test_options_a_command_would_ignore_are_usage_errors(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_interval_cli(tmp_path):
    out = tmp_path / "iv.csv"
    code = main(
        [
            "interval",
            "--family",
            "disc",
            "--omega",
            "0",
            "--a-range",
            "0:6.283185307179586",
            "--steps",
            "4",
            "--error",
            "1e-4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a,omega,lo,lo_kind,lo_err,hi,hi_kind,hi_err"
    assert len(lines) == 5


def test_tongue_cli(tmp_path):
    out = tmp_path / "tg.csv"
    code = main(
        [
            "tongue",
            "--family",
            "pwl",
            "--rho",
            "0",
            "--a-range",
            "0:8",
            "--omega-range",
            "0:0.4",
            "--steps",
            "3",
            "--error",
            "1e-4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a,omega,member,lo,hi"
    assert len(lines) == 10


def test_invert_cli(tmp_path):
    out = tmp_path / "inv.csv"
    code = main(
        ["invert", "--rho", "1/2", "--eps", "1e-3", "--error", "1e-4", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "target,eps,status,mu,rho,bisections,bracket_width"
    assert ",ok," in lines[1]


def test_bench_cli(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(
        [
            "bench",
            "--problem",
            "staircase",
            "--mu-step",
            "0.01",
            "--error",
            "1e-4",
            "--algorithm",
            "direct,csb",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "problem,family,algorithm,seconds,status"
    assert len(lines) == 3


def test_failed_cells_exit_two(tmp_path, monkeypatch):
    from rotkit.sweep import IntervalRow
    import rotkit.cli as cli

    def fake_graph(cfg):
        return [IntervalRow(a=1.0, omega=0.0, lo=None, hi=None, status="error")]

    monkeypatch.setattr(cli, "rotation_interval_graph", fake_graph)
    out = tmp_path / "fail.csv"
    code = main(["interval", "--family", "standard", "--steps", "1", "--out", str(out)])
    assert code == 2
    assert "error" in out.read_text()


def test_oversized_tol_does_not_abort_tongue(tmp_path):
    # a section wider than 2*tol is still used when width + 2*tol >= 1
    base = ["tongue", "--family", "standard", "--steps", "3", "--a-range", "10:12", "--error", "1e-3"]
    big = tmp_path / "big.csv"
    small = tmp_path / "small.csv"
    assert main([*base, "--tol", "0.3", "--out", str(big)]) == 0
    assert main([*base, "--tol", "1e-10", "--out", str(small)]) == 0
    big_rows = big.read_text().splitlines()
    small_rows = small.read_text().splitlines()
    assert len(big_rows) == len(small_rows) == 10
    for b, s in zip(big_rows[1:], small_rows[1:]):
        a_b, omega_b, member_b, lo_b, hi_b = b.split(",")
        a_s, omega_s, member_s, lo_s, hi_s = s.split(",")
        assert (a_b, omega_b, member_b) == (a_s, omega_s, member_s)
        assert abs(float(lo_b) - float(lo_s)) <= 2e-3
        assert abs(float(hi_b) - float(hi_s)) <= 2e-3


def test_invert_rejects_non_positive_budget(tmp_path, capsys):
    out = tmp_path / "inv.csv"
    assert main(["invert", "--rho", "1/2", "--max-bisections", "-5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("rotkit: error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_out_exits_one(where, tmp_path, capsys, monkeypatch):
    import rotkit.sweep as sweep

    cells = []
    for name in ("rho_csb", "rotation_interval"):
        monkeypatch.setattr(sweep, name, lambda *args, **kwargs: cells.append(args))
    out = tmp_path if where == "directory" else tmp_path / "no-such-dir" / "x.csv"
    for argv in (
        ["invert", "--rho", "1/2", "--error", "1e-4"],
        ["tongue", "--family", "standard", "--rho", "1/2", "--steps", "4", "--error", "1e-3"],
    ):
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("rotkit: error: ") and err.count("\n") == 1
    assert cells == []  # the output is checked before any cell runs


@pytest.mark.parametrize(
    "argv",
    [
        ["staircase", "--mu-step", "1e-12"],
        ["staircase", "--error", "1e-12"],
        ["staircase", "--algorithm", "simo", "--simo-iters", "1"],
        ["tongue", "--family", "pwl", "--rho", "1/2", "--steps", "100000"],
        ["interval", "--family", "disc", "--error", "1e-12"],
        ["invert", "--rho", "1/2", "--error", "1e-12"],
        ["bench", "--problem", "staircase", "--steps", "100000"],
    ],
)
def test_budgets_exit_one_before_allocating(argv, tmp_path, capsys, monkeypatch):
    import rotkit.sweep as sweep

    def no_allocation(*args, **kwargs):
        raise AssertionError("a grid or a cell was built")

    for name in ("mu_grid", "_linspace", "_run_ordered", "rho_csb", "f_mu"):
        monkeypatch.setattr(sweep, name, no_allocation)
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("rotkit: error: ") and err.count("\n") == 1
    assert not out.exists()


def test_interval_grid_budget_counts_one_omega_line(tmp_path, monkeypatch):
    # an interval graph has a_steps cells: 200,000 points pass the 10**8-cell budget
    import rotkit.sweep as sweep

    sizes = []
    monkeypatch.setattr(sweep, "_run_ordered", lambda worker, tasks, workers: sizes.append(len(tasks)) or [])
    assert main(["interval", "--family", "disc", "--steps", "200000", "--out", str(tmp_path / "x.csv")]) == 0
    assert sizes == [200_000]


def test_usage_error_keeps_existing_out(tmp_path, capsys):
    out = tmp_path / "keep.csv"
    out.write_text("earlier output\n")
    for argv in (
        ["tongue", "--family", "pwl", "--steps", "0"],
        ["interval", "--family", "pwl", "--steps", "2", "--a-range=-1:1"],
    ):
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("rotkit: error: ")
    assert out.read_text() == "earlier output\n"


@pytest.mark.parametrize("command", ["tongue", "interval"])
def test_failing_cell_is_flagged_and_sweep_completes(command, tmp_path, capsys):
    # at a ~ 5e16 the pwl section width rounds to 1.0, which ConstantSection rejects
    out = tmp_path / "cells.csv"
    argv = [command, "--family", "pwl", "--steps", "3", "--error", "1e-2"]
    if command == "tongue":
        argv += ["--rho", "1/2"]
    assert main([*argv, "--a-range", "0:1e17", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == (9 if command == "tongue" else 3)
    failed = [r for r in rows if ",error," in r]
    assert failed and all(not r.startswith("0,") for r in failed)
    # a negative a is still a usage error: one line, exit 1
    assert main([*argv, "--a-range=-1:1", "--out", str(tmp_path / "neg.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("rotkit: error: a must be non-negative") and err.count("\n") == 1


def test_usage_errors_exit_one():
    assert main(["staircase", "--mu-step", "-1"]) == 1
    assert main(["interval", "--family", "nope"]) == 1
    assert main(["interval", "--family", "disc", "--a-range", "oops"]) == 1
    assert main(["staircase", "--algorithm", ""]) == 1
    assert main(["tongue", "--family", "pwl", "--rho", "0", "--steps", "0"]) == 1


def test_module_entry_point(tmp_path):
    out = tmp_path / "m.csv"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "rotkit",
            "staircase",
            "--mu-step",
            "0.1",
            "--error",
            "1e-3",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.read_text().startswith("mu,rho,kind")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
