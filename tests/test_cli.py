import argparse
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rotkit.cli import _attach_negative_values, build_parser, main, parse_rho
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


def test_import_leaves_csv_out():
    # the writers format each line themselves
    import rotkit

    env = {**os.environ, "PYTHONPATH": str(Path(rotkit.__file__).resolve().parents[1])}
    code = "import sys, rotkit.cli; print('csv' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "base",
    [
        pytest.param(["staircase", "--mu-step", "0.002", "--error", "1e-4"], id="staircase"),
        pytest.param(["interval", "--family", "standard", "--steps", "24", "--error", "1e-4"], id="interval"),
        pytest.param(
            ["tongue", "--family", "pwl", "--rho", "1/2", "--steps", "6", "--error", "1e-4"],
            id="tongue-half",
        ),
        pytest.param(
            ["tongue", "--family", "standard", "--rho", "golden", "--steps", "6", "--error", "1e-4"],
            id="tongue-golden",
        ),
    ],
)
def test_threads_are_byte_identical(base, tmp_path):
    # pooled tasks carry the SweepConfig and, for a tongue, a Fraction or float target
    out1 = tmp_path / "t1.csv"
    out8 = tmp_path / "t8.csv"
    assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(base + ["--threads", "8", "--out", str(out8)]) == 0
    assert out1.read_bytes() == out8.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["staircase", "--mu-step", "0.05", "--error", "1e-4"],
        ["invert", "--rho", "1/2", "--eps", "1e-3", "--error", "1e-4"],
    ],
    ids=["staircase", "invert"],
)
def test_threads_env_is_not_read(argv, tmp_path, monkeypatch):
    # --threads is the one worker setting: ROTKIT_THREADS, even a malformed one, changes nothing
    plain, env = tmp_path / "plain.csv", tmp_path / "env.csv"
    assert main([*argv, "--out", str(plain)]) == 0
    monkeypatch.setenv("ROTKIT_THREADS", "not-a-number")
    assert main([*argv, "--out", str(env)]) == 0
    assert env.read_bytes() == plain.read_bytes()


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


@pytest.mark.parametrize("where", ["directory", "missing-parent", "empty"])
def test_unwritable_out_exits_one(where, tmp_path, capsys, monkeypatch):
    import rotkit.sweep as sweep

    cells = []
    for name in ("rho_csb", "rotation_interval"):
        monkeypatch.setattr(sweep, name, lambda *args, **kwargs: cells.append(args))
    out = {"directory": str(tmp_path), "missing-parent": str(tmp_path / "no-such-dir" / "x.csv"), "empty": ""}[where]
    for argv in (
        ["invert", "--rho", "1/2", "--error", "1e-4"],
        ["tongue", "--family", "standard", "--rho", "1/2", "--steps", "4", "--error", "1e-3"],
    ):
        assert main([*argv, "--out", out]) == 1
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
        ["bench", "--problem", "tongue", "--steps", "100000"],
        ["bench", "--problem", "staircase,bogus", "--algorithm", "direct", "--mu-step", "1e-3", "--error", "1e-5"],
        ["bench", "--problem", ","],
        ["staircase", "--algorithm", "csb,direct"],
        ["interval", "--family", "pwl", "--a-range", "-1:1"],
        ["tongue", "--family", "pwl", "--a-range", "-1:1", "--threads", "2"],
        ["tongue", "--family", "pwl", "--rho", "1/2", "--steps", "3", "--omega-range", "-1e308:1e308"],
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


@pytest.mark.parametrize(
    "command, options, fields, rest",
    [
        (
            "staircase",
            "--mu-step 0.125 --algorithm direct --simo-iters 77",
            dict(family="fmu", mu_step=0.125, simo_n=77, algorithm="direct"),
            (),
        ),
        (
            "interval",
            "--family pwl --omega 0.3 --a-range 1:2 --steps 7 --algorithm direct",
            dict(family="pwl", omega=0.3, a_min=1.0, a_max=2.0, a_steps=7, algorithm="direct"),
            (),
        ),
        (
            "tongue",
            "--family disc --rho 2/5 --a-range 1:2 --omega-range 0.25:0.75 --steps 7 --algorithm direct",
            dict(
                family="disc",
                a_min=1.0,
                a_max=2.0,
                a_steps=7,
                omega_min=0.25,
                omega_max=0.75,
                omega_steps=7,
                algorithm="direct",
            ),
            (Fraction(2, 5),),
        ),
        (
            "bench",
            "--problem interval,tongue --family pwl --algorithm csb,direct --mu-step 0.125 --omega 0.3"
            " --a-range 1:2 --omega-range 0.25:0.75 --steps 7 --rho 1/3 --simo-iters 77",
            dict(
                family="pwl",
                mu_step=0.125,
                omega=0.3,
                a_min=1.0,
                a_max=2.0,
                a_steps=7,
                omega_min=0.25,
                omega_max=0.75,
                omega_steps=7,
                simo_n=77,
            ),
            (("interval", "tongue"), ("csb", "direct"), Fraction(1, 3)),
        ),
    ],
)
def test_every_option_reaches_the_sweep_config(command, options, fields, rest, tmp_path, monkeypatch):
    # the SweepConfig main hands to the sweep when every option is away from its default
    import dataclasses

    import rotkit.cli as cli
    from rotkit.sweep import SweepConfig

    seen = []
    monkeypatch.setattr(cli, "devils_staircase", lambda cfg: seen.append((cfg,)) or [])
    monkeypatch.setattr(cli, "rotation_interval_graph", lambda cfg: seen.append((cfg,)) or [])
    monkeypatch.setattr(cli, "arnold_tongue", lambda cfg, target: seen.append((cfg, target)) or [])
    monkeypatch.setattr(cli, "benchmark", lambda cfg, problems, algorithms, target: seen.append((cfg, problems, algorithms, target)) or [])
    argv = [command, *options.split(), "--error", "1e-3", "--tol", "1e-9", "--out", str(tmp_path / "x.csv")]
    expected = SweepConfig(error=1e-3, tol=1e-9, workers=3, **fields)
    monkeypatch.setenv("ROTKIT_THREADS", "5")
    assert main([*argv, "--threads", "3"]) == 0
    assert main(argv) == 0  # without --threads, one worker: ROTKIT_THREADS is not read
    assert seen == [(expected, *rest), (dataclasses.replace(expected, workers=1), *rest)]


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


@pytest.mark.parametrize("command", ["tongue", "interval"])
def test_numeric_failure_in_the_lifting_build_flags_the_cell(command, tmp_path, capsys, monkeypatch):
    import rotkit.sweep as sweep
    from rotkit.envelope import NumericEnvelopeFailure

    real, calls = sweep.build_lifting, [0]

    def failing_second_build(params):
        calls[0] += 1
        if calls[0] == 2:
            raise NumericEnvelopeFailure("injected")
        return real(params)

    monkeypatch.setattr(sweep, "build_lifting", failing_second_build)
    out = tmp_path / "cells.csv"
    argv = [command, "--family", "standard", "--steps", "2", "--error", "1e-2", "--out", str(out)]
    if command == "tongue":
        argv += ["--rho", "1/2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == ""
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == (4 if command == "tongue" else 2)
    assert [i for i, r in enumerate(rows) if ",error," in r] == [1]


def test_bench_family_takes_only_circle_families(tmp_path, capsys):
    # the staircase problem ignores --family; fmu is not a choice
    out = tmp_path / "bench.csv"
    argv = ["bench", "--problem", "staircase", "--mu-step", "0.5", "--error", "1e-2", "--out", str(out)]
    assert main([*argv, "--family", "fmu"]) == 1
    assert "invalid choice: 'fmu'" in capsys.readouterr().err
    assert not out.exists()
    assert main([*argv, "--family", "disc"]) == 0


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


@pytest.mark.parametrize(
    "spaced",
    [
        ["tongue", "--family", "disc", "--steps", "2", "--error", "1e-2", "--rho", "-1/2", "--omega-range", "-3:-2"],
        ["tongue", "--family", "pwl", "--steps", "2", "--error", "1e-2", "--rho", "-.5", "--a-range", "0:1"],
        ["interval", "--family", "standard", "--steps", "2", "--error", "1e-2", "--omega", "-2.6"],
        ["interval", "--family", "disc", "--steps", "2", "--error", "1e-2", "--omega", "-1"],
    ],
)
def test_negative_values_parse_with_a_space(spaced, tmp_path, capsys):
    # "--rho -1/2" reads as "--rho=-1/2": same exit code and bytes
    joined = []
    for token in spaced:
        if token.startswith("-") and not token.startswith("--") and joined:
            joined[-1] += "=" + token
        else:
            joined.append(token)
    assert joined != spaced
    codes, outputs = [], []
    for argv in (spaced, joined):
        out = tmp_path / "out.csv"
        codes.append(main([*argv, "--out", str(out)]))
        outputs.append(out.read_bytes())
        assert capsys.readouterr().err == ""
    assert codes[0] == codes[1] and outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["interval", "--family", "pwl", "--steps", "2", "--a-range", "-1:1"], "a must be non-negative"),
        (["staircase", "--mu-step", "0.5", "--error", "-1e-6"], "error must be positive"),
        (["staircase", "--mu-step", "-0.5"], "mu_step"),
    ],
)
def test_spaced_negative_values_reach_validation(argv, message, tmp_path, capsys):
    # a spaced negative value is the option's value, rejected by its own check
    assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("rotkit: error: ") and message in err and err.count("\n") == 1


def test_help_and_dash_values_keep_their_meaning(capsys):
    # "--help" keeps its meaning before a negative token, and "--out -" is stdout
    assert main(["tongue", "--help", "-3"]) == 0
    assert "usage: rotkit tongue" in capsys.readouterr().out
    assert main(["staircase", "--mu-step", "0.5", "--error", "1e-2", "--out", "-"]) == 0
    assert capsys.readouterr().out.startswith("mu,rho,kind")


def test_negative_values_parse_with_a_space_from_the_command_line(tmp_path):
    # main() with no argv reads sys.argv, through the same joining
    import rotkit

    out = tmp_path / "t.csv"
    argv = ["tongue", "--family", "disc", "--steps", "2", "--error", "1e-2", "--rho", "-1/2", "--omega-range", "-3:-2"]
    env = {**os.environ, "PYTHONPATH": str(Path(rotkit.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "rotkit", *argv, "--out", str(out)], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[0] == "a,omega,member,lo,hi"


REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("option, value", [("--omega", "0:1"), ("--omega-r", "0:1"), ("--omega", "-2.6")])
def test_abbreviated_options_are_usage_errors(option, value, tmp_path, capsys):
    # tongue has only --omega-range; prefix matching used to read all three as it
    out = tmp_path / "t.csv"
    assert main(["tongue", "--family", "disc", "--steps", "2", option, value, "--out", str(out)]) == 1
    assert "unrecognized arguments: " + option in capsys.readouterr().err
    assert not out.exists()


def _rotkit_options() -> set:
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {option for parser in subcommands.choices.values() for option in parser._option_string_actions}


def test_option_spellings_in_the_repo_are_full_names():
    # an option spelled by a prefix of a longer one would now be rejected;
    # the abbreviations of the test above are the only ones on purpose
    options = _rotkit_options()
    on_purpose = {"--omega-r"}
    files = [REPO / "README.md", *sorted((REPO / "tests").glob("*.py")), *sorted((REPO / "perfbench").iterdir())]
    for path in files:
        if not path.is_file():
            continue
        for token in set(re.findall(r"--[a-z][a-z0-9-]*", path.read_text())) - options - on_purpose:
            assert not any(option.startswith(token) for option in options), (path.name, token)


def _load(name: str, path: Path, monkeypatch):
    # registered while the test runs: dataclasses and run.py's "from child import" look it up
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _perfbench_command_lines(monkeypatch) -> list:
    _load("child", REPO / "perfbench" / "child.py", monkeypatch)
    run = _load("perfbench_run", REPO / "perfbench" / "run.py", monkeypatch)
    lines = []
    for name in run.WORKLOAD_NAMES:
        for scale in run.SCALES:
            for seed in (0, 1):
                workload = run.make_workload(name, seed, scale)
                lines += [shlex.join(job.argv) for job in (*workload.jobs, *workload.pooled)]
    return lines


def test_command_lines_of_the_readme_and_perfbench_parse(monkeypatch):
    readme = re.findall(r"^rotkit ((?:staircase|interval|tongue|invert|bench)\b.*)$", (REPO / "README.md").read_text(), re.M)
    golden = json.loads((REPO / "perfbench" / "golden.json").read_text())
    lines = [*readme, *golden, *_perfbench_command_lines(monkeypatch)]
    assert len(readme) >= 5 and len(golden) >= 5
    for line in lines:
        args = build_parser().parse_args(_attach_negative_values(shlex.split(line)))
        assert args.command == line.split()[0], line
