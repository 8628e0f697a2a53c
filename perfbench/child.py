"""One benchmark child: runs a rotkit command through ``rotkit.cli.main``.

    python3 perfbench/child.py --result R.json [--stamp] [--reference K] [--trace]
                               [--setup-only] [--pickle-sizes] [--fail-cell K] -- <rotkit arguments>

The parent puts ``src`` on PYTHONPATH.  The child marks the moment the
arguments are parsed (end of set-up) and the moment ``main`` returns, keeps a
reference to the rows handed to the CSV writer, and after ``main`` returns,
outside the timed region, writes a JSON summary of those rows (and of the
trace, with ``--trace``) to R.json.  The exit code is rotkit's.

``--stamp`` reads the wall and CPU clocks after every grid cell of a
single-process sweep (about 0.2 us a cell) and reports them at SLICES
boundaries, so the parent can time each slice of the grid on its own.

``--reference K`` runs K pseudo-slices of the reference loop (``reference_ns``)
after ``main`` returns, in the same process and so most likely on the same
core, and reports each one's ns per iterate.  The parent measures the host's
speed with them the way it measures the sweep.

``--fail-cell K`` makes the K-th lifting construction raise the envelope
failure that a tongue cell reports as a failed cell; only the harness
self-tests use it.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import math
import resource
import sys
import time

SLICES = 1000
REFERENCE_ITERS = 10_000  # one pseudo-slice of the reference loop, about 1 ms


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _clocks() -> tuple[int, int]:
    return _now(), time.process_time_ns()


def reference_ns(iters: int) -> float:
    """ns per iterate of a fixed stdlib floor/fraction loop, the host-speed reference."""
    floor, clock = math.floor, time.perf_counter_ns
    x, m = 0.1, 0
    start = clock()
    for _ in range(iters):
        x = x * 1.3 + 0.2
        s = floor(x)
        m += s
        x -= s
    return (clock() - start) / iters


def peak_rss_mb() -> float:
    """Peak resident set of this program since exec.

    ru_maxrss would also count the pages shared with the parent before exec,
    so it grows with the parent; VmHWM belongs to the exec'd image alone.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def slice_bounds(start, walls, cpus, end) -> list:
    """start, the (wall, cpu) stamp that closes each of up to SLICES equal runs of cells, and end.

    The last cell closes a slice too, so writing the CSV is a slice of its own.
    """
    n = len(walls)
    cuts = sorted({n * j // SLICES for j in range(1, SLICES + 1)} - {0})
    return [start, *((walls[c - 1], cpus[c - 1]) for c in cuts), end]


def endpoint_records(command: str, rows) -> list[str]:
    """One line per orbit endpoint: kind, value bits and the iteration count or error bits."""
    if command == "staircase":
        return [f"{r.kind} {r.rho.hex()} {r.iterations}" for r in rows]
    out = []
    for c in rows:
        if c.status != "ok":
            continue
        for value, err in ((c.lo, c.lo_err), (c.hi, c.hi_err)):
            out.append(f"{'exact' if err == 0.0 else 'approx'} {value.hex()} {err.hex()}")
    return out


def estimate_records(command: str, estimates) -> list[str]:
    """The same lines built from what the traced estimators returned."""
    if command == "staircase":
        return [f"{kind} {value.hex()} {iters}" for kind, value, _, iters in estimates]
    return [f"{kind} {value.hex()} {err.hex()}" for kind, value, err, _ in estimates]


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _parse(argv: list[str]) -> tuple[argparse.Namespace, list[str]]:
    split = argv.index("--")
    p = argparse.ArgumentParser(prog="child.py")
    p.add_argument("--result", required=True)
    p.add_argument("--stamp", action="store_true")
    p.add_argument("--reference", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--pickle-sizes", action="store_true")
    p.add_argument("--fail-cell", type=int, default=None)
    return p.parse_args(argv[:split]), argv[split + 1 :]


def main(argv: list[str]) -> int:
    opts, rotkit_argv = _parse(argv)
    import rotkit.cli as cli
    import rotkit.rotnum as rotnum
    import rotkit.sweep as sweep

    marks: dict[str, tuple[int, int]] = {}
    real_run = cli._run

    def run(args):
        marks["parsed"] = _clocks()
        return 0 if opts.setup_only else real_run(args)

    cli._run = run

    written: list = []
    for name in ("write_staircase_csv", "write_tongue_csv"):
        real = getattr(cli, name)

        def capture(rows, stream, _real=real):
            written.append(rows)
            return _real(rows, stream)

        setattr(cli, name, capture)

    if opts.fail_cell is not None:
        from rotkit.envelope import NumericEnvelopeFailure

        real_build, calls = sweep.build_lifting, [0]

        def failing_build(params):
            calls[0] += 1
            if calls[0] == opts.fail_cell:
                raise NumericEnvelopeFailure("failure injected by the benchmark self-test")
            return real_build(params)

        sweep.build_lifting = failing_build

    walls, cpus = array.array("q"), array.array("q")  # 16 bytes a cell, so the stamps barely move peak RSS
    if opts.stamp:
        for name in ("_staircase_cell", "_tongue_cell"):
            real = getattr(sweep, name, None)
            if real is not None:

                def stamped(task, _real=real):
                    row = _real(task)
                    walls.append(_now())
                    cpus.append(time.process_time_ns())
                    return row

                setattr(sweep, name, stamped)

    tracer = None
    if opts.trace:
        from tracer import Tracer

        tracer = Tracer(rotnum.PeriodicOrbitDetected)
        tracer.install({"rotkit.cli": cli, "rotkit.sweep": sweep, "rotkit.rotnum": rotnum})

    rc = cli.main(rotkit_argv)
    marks["done"] = _clocks()
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    rss_mb = peak_rss_mb()

    command = rotkit_argv[0]
    rows = [r for batch in written for r in batch]
    records = endpoint_records(command, rows)
    summary = {
        "rc": rc,
        "parsed_ns": marks["parsed"][0] if "parsed" in marks else None,
        "done_ns": marks["done"][0],
        "children_cpu_s": children.ru_utime + children.ru_stime,
        "peak_rss_mb": rss_mb,
        "cells": len(rows),
        "failed": sum(1 for r in rows if getattr(r, "status", "ok") != "ok"),
        "endpoints": len(records),
        "exact": sum(1 for line in records if line.startswith("exact ")),
        "rows_digest": _digest(records),
    }
    if opts.stamp and "parsed" in marks:
        summary["slices"] = slice_bounds(marks["parsed"], walls, cpus, marks["done"])
    if opts.reference:
        reference_ns(REFERENCE_ITERS // 4)  # warm-up
        summary["reference_ns"] = [reference_ns(REFERENCE_ITERS) for _ in range(opts.reference)]
    if tracer is not None:
        summary["trace"] = tracer.summary(opts.pickle_sizes)
        summary["trace"]["estimates_digest"] = _digest(estimate_records(command, tracer.estimates))
    with open(opts.result, "w") as fh:
        json.dump(summary, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
