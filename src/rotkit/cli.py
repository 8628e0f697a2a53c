"""Command-line front end for the sweep engine.

Subcommands: staircase, interval, tongue, invert, bench.  Every sweep writes
plot-ready CSV to --out (default stdout).  Exit codes: 0 success, 1 usage
error or an --out that cannot be written, 2 when some grid cells failed
(failures are flagged in-file and the sweep continues).
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import re
import sys
from contextlib import nullcontext
from fractions import Fraction

from .families import CIRCLE_FAMILIES, GOLDEN_MEAN, InvalidParam
from .sweep import (
    SweepConfig,
    UsageError,
    arnold_tongue,
    benchmark,
    devils_staircase,
    invert_staircase,
    rotation_interval_graph,
    write_benchmark_csv,
    write_interval_csv,
    write_invert_csv,
    write_staircase_csv,
    write_tongue_csv,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def parse_rho(text: str) -> "float | Fraction":
    """Accept p/q, a decimal, or the word 'golden' ((sqrt 5 - 1)/2)."""
    if text.strip().lower() == "golden":
        return GOLDEN_MEAN
    if "/" in text:
        try:
            return Fraction(text)
        except ZeroDivisionError as exc:
            raise UsageError(f"rotation number {text!r} has a zero denominator") from exc
    value = float(text)
    if not math.isfinite(value):
        raise UsageError(f"rotation number must be finite, got {text!r}")
    return value


def _parse_range(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise UsageError(f"range must look like lo:hi, got {text!r}")
    return float(lo), float(hi)


_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join "--option -1/2" into "--option=-1/2".

    argparse reads a token that starts with "-" as an option unless it is a
    plain negative number, so the spaced forms "--rho -1/2", "--omega-range
    -3:-2" and "--error -1e-6" would fail with "expected one argument".  A
    token that starts with "-" and a digit or "." after a long option other
    than --help is that option's value, attached with "=".
    """
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and not "--help".startswith(prev) and _NEGATIVE_VALUE.match(token):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def _threads(args: argparse.Namespace) -> int:
    if args.threads is not None:
        return args.threads
    env = os.environ.get("ROTKIT_THREADS")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"ROTKIT_THREADS must be an integer, got {env!r}") from exc
    return 1


def build_parser() -> _Parser:
    # no prefix matching: "--omega" on tongue must not become "--omega-range"
    parser = _Parser(prog="rotkit", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--error", type=float, default=1e-6, help="estimator error target (default 1e-6)")
    common.add_argument("--tol", type=float, default=1e-10, help="rounding-error guard (default 1e-10)")
    common.add_argument("--out", default="-", help="output CSV path, - for stdout")
    pooled = argparse.ArgumentParser(add_help=False)
    pooled.add_argument("--threads", type=int, default=None, help="workers (default $ROTKIT_THREADS or 1)")
    simo = argparse.ArgumentParser(add_help=False)
    simo.add_argument("--simo-iters", type=int, default=1000, help="iterates for the sorting estimator")

    st = sub.add_parser("staircase", parents=[common, pooled, simo], help="Devil's staircase of the fmu family", allow_abbrev=False)
    st.add_argument("--mu-step", type=float, default=1e-5)
    st.add_argument("--algorithm", default="csb", help="csb, direct or simo")

    iv = sub.add_parser("interval", parents=[common, pooled], help="rotation interval as a function of a", allow_abbrev=False)
    iv.add_argument("--family", choices=CIRCLE_FAMILIES, required=True)
    iv.add_argument("--omega", type=float, default=0.0)
    iv.add_argument("--a-range", default=f"0:{4 * math.pi}")
    iv.add_argument("--steps", type=int, default=512)
    iv.add_argument("--algorithm", default="csb", help="csb or direct")

    tg = sub.add_parser("tongue", parents=[common, pooled], help="Arnold tongue membership grid over (a, omega)", allow_abbrev=False)
    tg.add_argument("--family", choices=CIRCLE_FAMILIES, required=True)
    tg.add_argument("--rho", default="0", help="target rotation number: p/q, decimal or golden")
    tg.add_argument("--a-range", default=f"0:{4 * math.pi}")
    tg.add_argument("--omega-range", default="0:1")
    tg.add_argument("--steps", type=int, default=512, help="grid points per axis")
    tg.add_argument("--algorithm", default="csb", help="csb or direct")

    inv = sub.add_parser("invert", parents=[common], help="find mu with rho(F_mu) near a target", allow_abbrev=False)
    inv.add_argument("--rho", required=True, help="target rotation number: p/q, decimal or golden")
    inv.add_argument("--eps", type=float, default=1e-6)
    inv.add_argument("--max-bisections", type=int, default=200)

    be = sub.add_parser("bench", parents=[common, pooled, simo], help="time the selected algorithms on a problem", allow_abbrev=False)
    be.add_argument("--problem", default="staircase", help="comma list of staircase,interval,tongue")
    be.add_argument("--family", choices=CIRCLE_FAMILIES, default="standard")
    be.add_argument("--algorithm", default="direct,simo,csb")
    be.add_argument("--mu-step", type=float, default=1e-3)
    be.add_argument("--omega", type=float, default=0.0)
    be.add_argument("--a-range", default=f"0:{4 * math.pi}")
    be.add_argument("--omega-range", default="0:1")
    be.add_argument("--steps", type=int, default=32)
    be.add_argument("--rho", default="1/2")

    return parser


def _out_stream(path: str):
    if path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", newline="")


def _check_out(path: str) -> None:
    """Raise the OSError that opening --out would, before the sweep; creates and truncates nothing."""
    if path == "-":
        return
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _config(args: argparse.Namespace) -> SweepConfig:
    """The SweepConfig of a sweep subcommand, from the options it defines; SweepConfig's defaults fill the rest."""
    fields = {
        "error": args.error,
        "tol": args.tol,
        "algorithms": tuple(a.strip() for a in args.algorithm.split(",") if a.strip()),
        "workers": _threads(args),
    }
    for option, field in (("family", "family"), ("mu_step", "mu_step"), ("omega", "omega"), ("simo_iters", "simo_n")):
        if option in args:
            fields[field] = getattr(args, option)
    if "a_range" in args:
        fields["a_min"], fields["a_max"] = _parse_range(args.a_range)
        fields["a_steps"] = args.steps
    if "omega_range" in args:
        fields["omega_min"], fields["omega_max"] = _parse_range(args.omega_range)
        fields["omega_steps"] = args.steps
    return SweepConfig(**fields)


def _run(args: argparse.Namespace) -> int:
    _check_out(args.out)
    if args.command == "invert":
        target = float(parse_rho(args.rho))
        result = invert_staircase(
            target, args.eps, args.max_bisections, error=args.error, tol=args.tol
        )
        with _out_stream(args.out) as out:
            write_invert_csv(result, target, args.eps, out)
        return 0

    # sweeps and writers are looked up when called, not from a table built at import:
    # perfbench and the tests patch these names on this module
    cfg = _config(args)
    if args.command == "staircase":
        rows, write = devils_staircase(cfg), write_staircase_csv
    elif args.command == "interval":
        rows, write = rotation_interval_graph(cfg), write_interval_csv
    elif args.command == "tongue":
        rows, write = arnold_tongue(cfg, parse_rho(args.rho)), write_tongue_csv
    else:
        problems = tuple(p.strip() for p in args.problem.split(",") if p.strip())
        rows, write = benchmark(cfg, problems=problems, target=parse_rho(args.rho)), write_benchmark_csv
    with _out_stream(args.out) as out:
        failures = write(rows, out)  # the interval and tongue writers count failed cells
    return 2 if failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
        return _run(args)
    except SystemExit as exc:  # argparse --help (0) or usage error (1)
        code = exc.code if isinstance(exc.code, int) else 1
        return code
    except (UsageError, InvalidParam, ValueError, OSError) as exc:
        sys.stderr.write(f"rotkit: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
