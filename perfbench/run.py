"""Reference benchmark for rotkit: two sweep workloads, outside-in trace, output checks.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a rotkit checkout (it needs ``src/rotkit``).  Each
sweep is a fresh child process that calls ``rotkit.cli.main`` with ``--out``
set to a file under ``.perfbench_work/``; one caller, each sweep waits for the
previous one (a closed loop).  Seed 0 is the reference grid; any other seed
changes every float input of a grid but keeps its cell count and its work mix
(see ``mu_step`` and ``tongue_period``).

With ``--trace 0`` the run repeats the workload for ``--seconds`` and reports
the end-to-end metrics; the sweep time is summed over slices of the grid, each
at the fastest of the run's passes (see ``fastest_slices``), and also given in
reference seconds, which do not follow the host's speed (see
``measure_end_to_end``).  With ``--trace 1`` it alternates an untraced and a
traced sweep and reports the per-layer metrics; the traced sweep must
reproduce the untraced rows exactly.  Without ``--trace`` it does both; without
``--workload`` it runs every workload.  Every metric is printed as
``workload  name  value  unit``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Outputs are checked on every sweep: seed-0 CSVs against the SHA-256 digests in
``golden.json``; at other seeds, the first output of a grid is re-certified
(staircase rows in exact rational arithmetic) and pinned in
``.perfbench_work/pins.json``, and later sweeps must match it byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from child import reference_ns

HERE = Path(__file__).resolve().parent
SRC = Path("src")
WORK = Path(".perfbench_work")
CHILD_LIMIT_S = 150.0  # a child still running after this is killed and the run fails
STRETCH_MAX = 4e-6  # keeps round(1/step) for steps down to 1e-5
REFERENCE_SLICES = 30  # reference-loop pseudo-slices after each timed sweep
# A reference second is 1e7 iterates of child.reference_ns's loop: one second
# on a host where the loop takes REFERENCE_NS ns an iterate.
REFERENCE_NS = 100.0

# name -> unit, for every metric the benchmark prints
END_TO_END = {
    "cells_per_ref_s": "1/ref_s",
    "setup_s": "s",
    "cpu_ref_s": "ref_s",
    "peak_rss_mb": "MB",
    "exact_share": "share",
    "output_ok": "bool",
}
PER_LAYER = {
    "families.build_us.p50": "us",
    "families.build_us.p99": "us",
    "envelope.maps_us.p50": "us",
    "envelope.maps_us.p99": "us",
    "envelope.reparam_us.p50": "us",
    "envelope.section_ratio": "share",
    **{f"rotnum.{p}.{k}": u for p in ("csb_hit", "csb_exhaust", "direct", "simo") for k, u in (("s", "s"), ("iters", "count"), ("ns_per_iter", "ns"))},
    "rotnum.endpoints.csb_hit": "count",
    "rotnum.endpoints.csb_exhaust": "count",
    "rotnum.endpoints.no_section": "count",
    "rotnum.iter_yield": "share",
    "sweep.csv_us_per_row": "us",
    "sweep.csv_bytes": "bytes",
    "sweep.cell_us.p50": "us",
    "sweep.cell_us.p99": "us",
    "sweep.cell_us.max": "us",
    "sweep.cell_us.n": "count",
    "sweep.pool.overhead_s": "s",
    "sweep.pool.efficiency": "share",
    "sweep.pool.pickle_bytes": "bytes",
    "families.self_share": "share",
    "envelope.self_share": "share",
    "rotnum.self_share": "share",
    "sweep.self_share": "share",
    "workload.nondecreasing_share": "share",
    "trace.overhead": "ratio",
    "trace.coverage": "share",
    "host.calib_ns_per_iter": "ns",
}
# printed, but not in the JSON: failed_share is carried as "failed" / "attempted",
# and the unscaled times follow the host's speed (see measure_end_to_end)
EXTRA_UNITS = {"failed_share": "share", "cells_per_s": "1/s", "cpu_s": "s", "reference_ns_per_iter": "ns"}


class BenchError(RuntimeError):
    """The benchmark could not run (missing sources, a hung or crashed child)."""


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Job:
    """One rotkit command; a workload pass runs its jobs one after another."""

    label: str
    argv: tuple[str, ...]
    certify: bool = False  # re-derive exact staircase rows in rational arithmetic
    extra: tuple[str, ...] = ()  # additional child options (self-tests only)

    @property
    def key(self) -> str:
        """Identifies the expected output: the arguments minus the worker count."""
        args = list(self.argv)
        if "--threads" in args:
            i = args.index("--threads")
            del args[i : i + 2]
        return " ".join(args)


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    pooled: tuple[Job, ...] = ()  # the same jobs with two workers, run by the traced mode for pool metrics


SCALES = {
    # staircase step and error, simo step and iterates, tongue steps and error
    "full": dict(step="1e-4", stair_error="1e-5", simo_step="1e-3", simo_iters="1000", steps=16, error="1e-4"),
    "tiny": dict(step="1e-2", stair_error="1e-4", simo_step="1e-2", simo_iters="200", steps=3, error="1e-3"),
}

WORKLOAD_NAMES = ("staircase", "tongue")


def mu_step(step: str, seed: int) -> str:
    """The staircase's --mu-step, stretched by a seed-drawn factor below 1 + STRETCH_MAX.

    Every mu but 0 moves, by up to 0.4 of a step at the end of the grid, while
    round(1/step) and so the cell count stay the same, and both tangency
    cells, mu = 0 and mu = 1, stay on the grid.  (mu may not leave [0, 1], so
    the grid cannot simply be shifted without losing one of them, and that
    cell is a tenth of the sweep's time.)
    """
    if not seed:
        return step
    return repr(float(step) * (1.0 + STRETCH_MAX * random.Random(seed).random()))


def tongue_period(seed: int) -> int:
    """Whole periods by which the seed moves the tongue's omega axis and target.

    F + k lifts the same circle map as F, so every omega and every float
    rounding changes while the dynamics stay those of the reference grid.
    A fraction of a step does not work here: the tongue's cost is its
    fallback endpoints, and even shifts of 1e-9 of a step moved their count
    from 262 to between 206 and 238.  Up to 8 periods it stays within 257-262;
    at 16 the lost float precision already drops it to 239.
    """
    return random.Random(seed).randint(1, 8) if seed else 0


def _staircase_job(label: str, step: str, tail: tuple[str, ...]) -> Job:
    return Job(label, ("staircase", "--mu-step", step, *tail), certify=True)


def make_workload(name: str, seed: int, scale: str = "full") -> Workload:
    s = SCALES[scale]
    stair_tail = ("--error", s["stair_error"], "--tol", "1e-10")
    if name == "staircase":
        one = _staircase_job("staircase", mu_step(s["step"], seed), stair_tail)
        two = replace(one, label="staircase-2w", argv=one.argv + ("--threads", "2"))
        simo_tail = ("--algorithm", "simo", "--simo-iters", s["simo_iters"])
        simo = _staircase_job("staircase-simo", mu_step(s["simo_step"], seed), simo_tail)
        return Workload(name, (one, simo), pooled=(two,))
    if name == "tongue":
        k = tongue_period(seed)
        steps = str(s["steps"])
        shifted = ("--omega-range", f"{k}:{k + 1}") if k else ()
        jobs = tuple(
            Job(f"tongue-{fam}", ("tongue", "--family", fam, "--rho", f"{2 * k + 1}/2", "--steps", steps, "--error", s["error"], *shifted))
            for fam in ("standard", "pwl", "disc")
        )
        return Workload(name, jobs)
    raise BenchError(f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}")


# ---------------------------------------------------------------------------
# child processes


@dataclass
class ChildRun:
    job: Job
    summary: dict
    csv_bytes: bytes
    rss_mb: float
    spawn_ns: int

    @property
    def wall_s(self) -> float:
        return (self.summary["done_ns"] - self.summary["parsed_ns"]) / 1e9

    @property
    def setup_s(self) -> float:
        return (self.summary["parsed_ns"] - self.spawn_ns) / 1e9


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.resolve()), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env.pop("ROTKIT_THREADS", None)
    return env


def run_child(
    job: Job,
    *,
    stamp: bool = False,
    reference: int = 0,
    trace: bool = False,
    setup_only: bool = False,
    pickle_sizes: bool = False,
) -> ChildRun:
    """Run one job in a fresh process and wait for it; kills its process group on timeout."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    result, out = tmp / "result.json", tmp / "out.csv"
    for p in (result, out):
        p.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result), *job.extra]
    cmd += ["--stamp"] * stamp + ["--reference", str(reference)] * bool(reference) + ["--trace"] * trace + ["--setup-only"] * setup_only + ["--pickle-sizes"] * pickle_sizes
    cmd += ["--", *job.argv, "--out", str(out)]
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, env=_child_env(), stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], CHILD_LIMIT_S)
        finally:
            os.close(fd)
        if not ready:
            os.killpg(proc.pid, signal.SIGKILL)
        _, status, _ = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        raise
    if not ready:
        raise BenchError(f"{job.label}: child still running after {CHILD_LIMIT_S:.0f} s, killed")
    if not result.exists():
        raise BenchError(f"{job.label}: child exited with {proc.returncode} and no result")
    summary = json.loads(result.read_text())
    if summary["rc"] not in (0, 2) or (summary["rc"] == 2 and not summary["failed"]):
        raise BenchError(f"{job.label}: rotkit exited with {summary['rc']}")
    return ChildRun(
        job=job,
        summary=summary,
        csv_bytes=b"" if setup_only else out.read_bytes(),
        rss_mb=summary["peak_rss_mb"],
        spawn_ns=spawn_ns,
    )


# ---------------------------------------------------------------------------
# output checks


STAIRCASE_HEADER = ["mu", "rho", "kind", "m", "n", "error_bound", "iterations"]
SECTION = (Fraction(3, 4), Fraction(1))  # the constant section of every f_mu


def certify_staircase(text: str) -> str | None:
    """Re-derive each exact row with the rational twin; None if all agree, else the first problem.

    Approximate rows are checked too when the twin finds a cycle within
    10,000 iterates: the cycle's rotation number must lie within the row's
    error bound.
    """
    from rotkit.families import f_mu
    from rotkit.rotnum import rho_constant_section_exact

    rows = csv.reader(io.StringIO(text))
    if next(rows, None) != STAIRCASE_HEADER:
        return "staircase CSV header changed"
    for i, row in enumerate(rows, 1):
        if len(row) != len(STAIRCASE_HEADER):
            return f"row {i}: {len(row)} fields"
        mu, rho, kind, m, n, err, _ = row
        F = f_mu(Fraction(float(mu)))
        if kind == "exact":
            m, n = int(m), int(n)
            if float(rho) != m / n:
                return f"row {i}: rho {rho} is not {m}/{n}"
            cert = rho_constant_section_exact(F, *SECTION, 2 * n + 10)
            if cert is None or cert.as_fraction != Fraction(m, n):
                return f"row {i} (mu={mu}): exact {m}/{n} not certified, twin gives {cert and cert.as_fraction}"
        elif kind == "approx":
            cert = rho_constant_section_exact(F, *SECTION, 10_000)
            if cert is not None and abs(float(cert.as_fraction) - float(rho)) > float(err):
                return f"row {i} (mu={mu}): {rho} +- {err} misses the certified {cert.as_fraction}"
        else:
            return f"row {i}: unknown kind {kind!r}"
    return None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class OutputCheck:
    """Expected CSV digests: golden at seed 0, pinned after a first certified output otherwise."""

    def __init__(self, golden: dict[str, str], pins_path: Path):
        self.golden = golden
        self.pins_path = pins_path
        self.pins = json.loads(pins_path.read_text()) if pins_path.exists() else {}
        self.pending: dict[str, tuple[str, ChildRun]] = {}  # first output of a grid not yet pinned
        self.problems: list[str] = []

    def check(self, run: ChildRun) -> bool:
        """Compare one output with the golden or pinned digest, or with this run's first output."""
        job, digest = run.job, sha256(run.csv_bytes)
        want = self.golden.get(job.key) or self.pins.get(job.key)
        if want is None:
            want = self.pending.setdefault(job.key, (digest, run))[0]
        if digest != want:
            self.problems.append(f"{job.label}: CSV digest {digest[:12]} differs from expected {want[:12]}")
            return False
        return True

    def settle(self) -> bool:
        """Certify the first output of each new grid and pin it; False if one fails."""
        ok = True
        for key, (digest, run) in self.pending.items():
            problem = None
            if run.summary["failed"]:
                problem = f"{run.summary['failed']} failed cells"
            elif run.job.certify:
                problem = certify_staircase(run.csv_bytes.decode())
            if problem:
                self.problems.append(f"{run.job.label}: {problem}")
                ok = False
            else:
                self.pins[key] = digest
        self.pending.clear()
        tmp = self.pins_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.pins, indent=1, sort_keys=True))
        os.replace(tmp, self.pins_path)
        return ok


# ---------------------------------------------------------------------------
# measurement


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _pct(sorted_ns: list[int], q: float) -> float:
    """Nearest-rank percentile of nanosecond samples, in microseconds."""
    if not sorted_ns:
        return 0.0
    return sorted_ns[min(len(sorted_ns) - 1, max(0, math.ceil(q * len(sorted_ns)) - 1))] / 1e3


def calibrate(iters: int = 200_000, repeats: int = 5) -> float:
    """ns per iterate of the reference loop in the benchmark process, median of repeats; logged only."""
    return statistics.median(reference_ns(iters) for _ in range(repeats))


@dataclass
class Pass:
    runs: list[ChildRun] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.runs)


class Session:
    """One benchmark invocation: runs passes, checks every output, keeps the time budget."""

    def __init__(self, seconds: float, check: OutputCheck):
        self.seconds = seconds
        self.check = check
        self.ok = True
        self.attempted = 0
        self.failed = 0

    def run_pass(self, jobs, **kw) -> Pass:
        p = Pass()
        for job in jobs:
            run = run_child(job, **kw)
            self.ok &= self.check.check(run)
            self.attempted += run.summary["cells"]
            self.failed += run.summary["failed"]
            p.runs.append(run)
        return p

    def repeat(self, step, start: float, at_least: int = 1) -> list:
        """Call step() until another call would overrun the time budget, and at least at_least times."""
        results, durations = [], []
        while True:
            t = time.monotonic()
            results.append(step())
            durations.append(time.monotonic() - t)
            if len(results) >= at_least and time.monotonic() - start + statistics.median(durations) > self.seconds:
                return results


def fastest_slices(runs: list[ChildRun]) -> tuple[float, float]:
    """(wall, CPU) seconds of one job, each grid slice timed at the fastest of its passes.

    The host's speed changes by up to 1.9x in phases of about a minute, and
    even inside a slow phase about a fifth of 70 ms intervals run at full
    speed.  A median over passes follows the phases; the fastest time of
    each slice, summed over the slices, stays close to the unhindered sweep.
    Every pass sweeps the same cells, so slice k covers the same work in each.
    """
    bounds = [r.summary["slices"] for r in runs]
    if len({len(b) for b in bounds}) != 1:
        raise BenchError(f"{runs[0].job.label}: passes reported different slice counts")
    wall = cpu = 0
    for k in range(len(bounds[0]) - 1):
        wall += min(b[k + 1][0] - b[k][0] for b in bounds)
        cpu += min(b[k + 1][1] - b[k][1] for b in bounds)
    return wall / 1e9, cpu / 1e9 + _median([r.summary["children_cpu_s"] for r in runs])


def fastest_reference(runs: list[ChildRun]) -> list[float]:
    """ns per iterate of each reference pseudo-slice of one job, at the fastest of its passes.

    The same estimator as fastest_slices, on a loop whose work never changes:
    it reads how fast the host ran for the sweeps of this run.
    """
    return [min(col) for col in zip(*(r.summary["reference_ns"] for r in runs))]


def measure_end_to_end(wl: Workload, session: Session) -> dict[str, float]:
    """End-to-end metrics; the times are given in reference seconds as well as in seconds.

    The host's speed moves by up to 1.8x for minutes at a time, longer than a
    run.  The reference loop slows down with it, so a time divided by the
    loop's time per iterate (measured in the same children, by the same
    estimator) stays put; in ten-minute traces its spread was a quarter to a
    fifth of the unscaled one.  The reference loop is not rotkit code, so a change to
    rotkit moves the scaled times fully.
    """
    start = time.monotonic()
    run_child(wl.jobs[0], setup_only=True)  # warm-up: byte-compiles on a fresh checkout

    # three passes at least, so that every slice has a choice of timings
    passes = session.repeat(lambda: session.run_pass(wl.jobs, stamp=True, reference=REFERENCE_SLICES), start, at_least=3)
    by_job = [list(runs) for runs in zip(*(p.runs for p in passes))]
    per_job = [fastest_slices(runs) for runs in by_job]
    ref_ns = statistics.fmean(x for runs in by_job for x in fastest_reference(runs))
    to_ref = REFERENCE_NS / ref_ns  # reference seconds per second
    wall = sum(w for w, _ in per_job)
    cpu = sum(c for _, c in per_job)
    last = passes[-1].runs
    cells = sum(r.summary["cells"] for r in last)
    endpoints = sum(r.summary["endpoints"] for r in last)
    return {
        "cells_per_ref_s": cells / (wall * to_ref),
        "setup_s": _median([r.setup_s for p in passes for r in p.runs]),
        "cpu_ref_s": cpu * to_ref,
        "cells_per_s": cells / wall,
        "cpu_s": cpu,
        "reference_ns_per_iter": ref_ns,
        "peak_rss_mb": max(_median([r.rss_mb for r in runs]) for runs in by_job),
        "exact_share": sum(r.summary["exact"] for r in last) / endpoints if endpoints else 0.0,
    }


def _fidelity(untraced: Pass, traced: Pass) -> list[str]:
    problems = []
    for u, t in zip(untraced.runs, traced.runs):
        tr = t.summary["trace"]
        if tr["estimates_digest"] != u.summary["rows_digest"]:
            problems.append(f"{u.job.label}: traced estimates differ from the untraced rows")
        if t.csv_bytes != u.csv_bytes:
            problems.append(f"{u.job.label}: traced CSV differs from the untraced CSV")
        if tr["missing"]:  # not fatal: the time falls into the caller's self time
            sys.stderr.write(f"perfbench: {u.job.label}: trace could not wrap {', '.join(tr['missing'])}\n")
    return problems


def _layer_metrics(traced: Pass, untraced: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass (its jobs merged)."""
    trs = [r.summary["trace"] for r in traced.runs]
    wall_ns = traced.wall_s * 1e9
    samples = {g: sorted(x for tr in trs for x in tr["samples"][g]) for g in trs[0]["samples"]}
    paths = {p: {k: sum(tr["paths"][p][k] for tr in trs) for k in ("endpoints", "ns", "iters")} for p in trs[0]["paths"]}
    self_ns = {layer: sum(tr["self_ns"][layer] for tr in trs) for layer in trs[0]["self_ns"]}
    all_iters = sum(p["iters"] for p in paths.values())
    sectioned = paths["csb_hit"]["endpoints"] + paths["csb_exhaust"]["endpoints"]
    envelope_endpoints = sectioned + paths["direct"]["endpoints"]
    liftings = [sum(tr["liftings"][i] for tr in trs) for i in (0, 1)]
    csv_rows = sum(tr["csv_rows"] for tr in trs)
    m = {
        "families.build_us.p50": _pct(samples["build"], 0.50),
        "families.build_us.p99": _pct(samples["build"], 0.99),
        "envelope.maps_us.p50": _pct(samples["maps"], 0.50),
        "envelope.maps_us.p99": _pct(samples["maps"], 0.99),
        "envelope.reparam_us.p50": _pct(samples["reparam"], 0.50),
        "envelope.section_ratio": sectioned / envelope_endpoints if envelope_endpoints else 0.0,
        "rotnum.endpoints.csb_hit": paths["csb_hit"]["endpoints"],
        "rotnum.endpoints.csb_exhaust": paths["csb_exhaust"]["endpoints"],
        "rotnum.endpoints.no_section": paths["direct"]["endpoints"],
        "rotnum.iter_yield": sum(tr["exact_iters"] for tr in trs) / all_iters if all_iters else 0.0,
        "sweep.csv_us_per_row": sum(samples["csv"]) / 1e3 / csv_rows if csv_rows else 0.0,
        "sweep.csv_bytes": sum(len(r.csv_bytes) for r in traced.runs),
        "sweep.cell_us.p50": _pct(samples["cell"], 0.50),
        "sweep.cell_us.p99": _pct(samples["cell"], 0.99),
        "sweep.cell_us.max": samples["cell"][-1] / 1e3 if samples["cell"] else 0.0,
        "sweep.cell_us.n": len(samples["cell"]),
        "workload.nondecreasing_share": liftings[0] / liftings[1] if liftings[1] else 0.0,
        "trace.overhead": traced.wall_s / untraced.wall_s,
        "trace.coverage": sum(self_ns.values()) / wall_ns,
    }
    for name, p in paths.items():
        m[f"rotnum.{name}.s"] = p["ns"] / 1e9
        m[f"rotnum.{name}.iters"] = p["iters"]
        m[f"rotnum.{name}.ns_per_iter"] = p["ns"] / p["iters"] if p["iters"] else 0.0
    for layer, ns in self_ns.items():
        m[f"{layer}.self_share"] = ns / wall_ns
    return m


def measure_per_layer(wl: Workload, session: Session) -> tuple[dict[str, float], list[str]]:
    start = time.monotonic()
    calib = calibrate()
    pool = bool(wl.pooled)

    def step():
        pooled = session.run_pass(wl.pooled) if pool else None
        untraced = session.run_pass(wl.jobs)
        traced = session.run_pass(wl.jobs, trace=True, pickle_sizes=pool)
        return pooled, untraced, traced

    rounds = session.repeat(step, start)
    problems = [msg for _, u, t in rounds for msg in _fidelity(u, t)]
    per_round = [_layer_metrics(t, u) for _, u, t in rounds]
    metrics = {name: _median([m[name] for m in per_round]) for name in per_round[0]}
    metrics["host.calib_ns_per_iter"] = calib
    if pool:
        pooled_wall = _median([p.wall_s for p, _, _ in rounds])
        serial_wall = _median([u.runs[0].wall_s for _, u, _ in rounds])  # the pooled job's one-worker sweep
        metrics["sweep.pool.overhead_s"] = pooled_wall - serial_wall / 2
        metrics["sweep.pool.efficiency"] = serial_wall / (2 * pooled_wall)
        metrics["sweep.pool.pickle_bytes"] = rounds[-1][2].runs[0].summary["trace"]["pickle_bytes"]
    else:
        metrics.update({"sweep.pool.overhead_s": 0.0, "sweep.pool.efficiency": 0.0, "sweep.pool.pickle_bytes": 0})
    return metrics, problems


# ---------------------------------------------------------------------------
# command line


def _units(name: str) -> str:
    return END_TO_END.get(name) or PER_LAYER.get(name) or EXTRA_UNITS[name]


def default_check() -> OutputCheck:
    return OutputCheck(json.loads((HERE / "golden.json").read_text()), WORK / "pins.json")


def run_workload(wl: Workload, seconds: float, trace: int | None, check: OutputCheck):
    """Measure one workload; returns (correct, attempted, failed, metrics, problems)."""
    session = Session(seconds, check)
    metrics: dict[str, float] = {}
    problems: list[str] = []
    if trace in (None, 0):
        metrics.update(measure_end_to_end(wl, session))
    if trace in (None, 1):
        layer, problems = measure_per_layer(wl, session)
        metrics.update(layer)
    session.ok &= check.settle()
    if trace in (None, 0):
        metrics["output_ok"] = 1.0 if session.ok else 0.0
    metrics["failed_share"] = session.failed / session.attempted
    correct = session.ok and not problems
    return correct, session.attempted, session.failed, metrics, check.problems + problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", help=f"one of {', '.join(WORKLOAD_NAMES)}, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None, help="0: end-to-end, 1: per-layer; default both")
    ap.add_argument("--scale", choices=tuple(SCALES), default="full", help="tiny grids are for the self-tests")
    args = ap.parse_args(argv)
    if not (SRC / "rotkit" / "cli.py").is_file():
        sys.stderr.write("perfbench: run from the root of a rotkit checkout (src/rotkit/cli.py not found)\n")
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    sys.path.insert(0, str(SRC.resolve()))
    WORK.mkdir(exist_ok=True)
    correct, attempted, failed, out = True, 0, 0, {}
    try:
        for name in names:
            wl = make_workload(name, args.seed, args.scale)
            ok, att, fail, metrics, problems = run_workload(wl, args.seconds, args.trace, default_check())
            correct &= ok
            attempted += att
            failed += fail
            for msg in problems:
                print(f"{name:<15} PROBLEM {msg}")
            for metric, value in metrics.items():
                print(f"{name:<15} {metric:<30} {value:>16.8g} {_units(metric)}")
                if metric not in EXTRA_UNITS:
                    key = metric if len(names) == 1 else f"{name}/{metric}"
                    out[key] = {"value": value, "unit": _units(metric)}
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(WORK / "tmp", ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
