"""Parameter sweeps over the map families, with deterministic CSV emission.

Each sweep runs the one algorithm its SweepConfig names; only benchmark,
which times algorithms side by side, takes a list of them (and of problems).
Each sweep opens with SweepConfig.validate(problem), the one check of its
preconditions.  Grid cells are independent pure computations, so sweeps
parallelize over a process pool; results are collected in grid order and the
emitted CSV is byte-identical for any worker count.  Floats are printed with
up to 17 significant digits (lossless round-trip).  The writers format each
CSV line directly and stream the lines out, without the csv module: no field
ever needs quoting, so the bytes are the ones csv.writer would write.  The
staircase writer builds an exact row's format once per (m, n, iterations)
and reuses it along the plateau, where only mu changes; it formats and
writes a bounded chunk of rows at a time, with one % per chunk.

A cell's task is a shared head followed by its grid point.  An interval
graph's is (cfg, a) (omega is cfg.omega) and a tongue's (cfg, a, omega,
target), where the target is the Fraction or float the caller passed.  A
staircase's is (call, mu): every cell makes the same one estimator call,
resolved once per sweep into a StaircaseCall (csb's section rule on f_mu's
stated section, the error and simo_n), and mu_grid keeps every mu in f_mu's
domain [0, 1].  So the cell builds f_mu's record itself, with no check and
no knots: its fundamental is a function made in C from the step's code
object, with no Python frame, and the kernels still write that step in.
Its rows are bit for bit those of rho_csb, rho_direct or rho_simo on
f_mu(mu), the library path.  The mu grid is built by C-level iterators
(itertools.accumulate and repeat), with no Python loop.  The staircase's
tasks are not held in a list: a sized view zips the call with the grid, so
each task is made as its cell reads it, and a pool gets the same chunks of
(call, mu) tuples a list would give it.  A pooled chunk of tasks pickles the
shared head once.

A cell returns a plain tuple in its record's field order, and a sweep returns
its list of tuples wrapped in Rows, a read-only sequence of records
(StaircaseRow, IntervalRow or TongueCell): a record is built, in C, only
when a row is read, and list(rows) gives the list of records.  The writers
read a Rows' tuples by position, so the CLI writes every CSV without
building a record.  A plain tuple of atomic fields, as every staircase and
tongue row is, is one the cyclic collector untracks; a tuple subclass never
is.  Every other record is a typing.NamedTuple.
"""

from __future__ import annotations

import math
import operator
import os
import sys
import time
from fractions import Fraction
from functools import partial
from itertools import accumulate, islice, repeat
from types import FunctionType
from typing import IO, Collection, Iterable, NamedTuple

from . import rotnum
from .families import _FMU, _FMU_SECTIONS, CIRCLE_FAMILIES, InvalidParam, build_lifting, f_mu
from .lifting import Lifting
from .rotnum import (
    DEFAULT_ERROR,
    DEFAULT_SIMO_N,
    DEFAULT_TOL,
    PeriodicOrbitDetected,
    RotationEstimate,
    RotationInterval,
    _csb_section,
    rho_csb,
    rho_direct,
    rho_simo,
    rotation_interval,
)
from .envelope import NumericEnvelopeFailure

STAIRCASE_HEADER = ["mu", "rho", "kind", "m", "n", "error_bound", "iterations"]
INTERVAL_HEADER = ["a", "omega", "lo", "lo_kind", "lo_err", "hi", "hi_kind", "hi_err"]
TONGUE_HEADER = ["a", "omega", "member", "lo", "hi"]
BENCH_HEADER = ["problem", "family", "algorithm", "seconds", "status"]

ALGORITHMS = ("direct", "simo", "csb")

# budgets a sweep must fit before any grid or orbit is allocated
MAX_GRID_CELLS = 10**8
MAX_ITERATES = 10**9  # ceil(1/error) iterates per estimate
MAX_SIMO_N = 10**7


class UsageError(ValueError):
    """Bad sweep configuration (empty grid, unknown algorithm, ...)."""


class SweepConfig(NamedTuple):
    """Grid and estimator settings of a sweep, which runs the one algorithm (of ALGORITHMS) it names."""

    family: str = "fmu"
    mu_step: float = 1e-5
    omega: float = 0.0
    omega_min: float = 0.0
    omega_max: float = 1.0
    omega_steps: int = 512
    a_min: float = 0.0
    a_max: float = 4.0 * math.pi
    a_steps: int = 512
    error: float = DEFAULT_ERROR
    tol: float = DEFAULT_TOL
    simo_n: int = DEFAULT_SIMO_N
    algorithm: str = "csb"
    workers: int = 1

    def validate(self, problem: str, target: "float | Fraction | None" = None) -> None:
        """Raise UsageError unless the sweep problem ("staircase", "interval" or "tongue") can run and finish.

        The one check of a sweep's preconditions, run by each sweep and, for
        every run, by benchmark before the first.  All sweeps need finite
        floats, error > 0, tol >= 0, ceil(1/error) <= MAX_ITERATES, simo_n in
        [2, MAX_SIMO_N], workers >= 1 and an algorithm in ALGORITHMS.  A
        staircase (fmu, mu over [0, 1]) reads mu_step; an interval graph (a
        CIRCLE_FAMILIES family, not simo) reads a_min >= 0, a_max and a_steps;
        a tongue also omega_min, omega_max (a range whose width is a float),
        omega_steps and a target within float range.  Each grid has 1 to
        MAX_GRID_CELLS cells.  The counts read (simo_n, workers, a_steps,
        omega_steps) must be integers: operator.index must accept them, as it
        does a NumPy integer.
        """
        for name in ("mu_step", "omega", "omega_min", "omega_max", "a_min", "a_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise UsageError(f"{name} must be finite, got {value}")
        if not (math.isfinite(self.error) and math.isfinite(self.tol)):
            raise UsageError("error and tol must be finite")
        if self.error <= 0.0 or self.tol < 0.0:
            raise UsageError("error must be positive and tol non-negative")
        _check_iterates(self.error)
        if not 2 <= _count(self, "simo_n") <= MAX_SIMO_N:
            raise UsageError(f"simo_n must lie in [2, {MAX_SIMO_N}], got {self.simo_n}")
        if self.algorithm not in ALGORITHMS:
            raise UsageError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        if _count(self, "workers") < 1:
            raise UsageError("worker count must be positive")
        if problem == "staircase":
            if self.mu_step <= 0.0:
                raise UsageError("mu_step must be positive")
            steps = 1.0 / self.mu_step
            # the first test keeps round() away from huge and infinite ratios
            if steps >= MAX_GRID_CELLS or round(steps) + 1 > MAX_GRID_CELLS:
                raise UsageError(f"mu_step {self.mu_step} gives a mu grid of more than {MAX_GRID_CELLS} cells")
            if self.family != "fmu":
                raise UsageError("the staircase sweep is defined for the fmu family")
            return
        if problem not in ("interval", "tongue"):
            raise UsageError(f"unknown sweep problem {problem!r}")
        tongue = problem == "tongue"
        # NaN fails the comparison; a Fraction target is compared in floats when an interval is inexact
        if tongue and target is not None and not abs(target) <= sys.float_info.max:
            raise UsageError(f"tongue target must be finite, got {target}")
        if self.a_min < 0.0:  # every circle family rejects a < 0; a_max - a_min <= a_max cannot overflow
            raise UsageError(f"a must be non-negative, got {self.a_min}")
        if self.a_max < self.a_min or (tongue and self.omega_max < self.omega_min):
            raise UsageError("empty parameter range")
        if tongue and not math.isfinite(self.omega_max - self.omega_min):
            raise UsageError(f"omega range {self.omega_min}:{self.omega_max} is wider than the largest float")
        a_steps = _count(self, "a_steps")
        omega_steps = _count(self, "omega_steps") if tongue else 1  # an interval graph is one omega line
        if a_steps < 1 or omega_steps < 1:
            raise UsageError("grids need at least one point")
        if a_steps * omega_steps > MAX_GRID_CELLS:
            raise UsageError(f"a {self.a_steps} x {omega_steps} (a, omega) grid exceeds {MAX_GRID_CELLS} cells")
        if self.family not in CIRCLE_FAMILIES:
            raise UsageError(f"{'tongues' if tongue else 'interval graphs'} are defined for {', '.join(CIRCLE_FAMILIES)}")
        if self.algorithm == "simo":
            raise UsageError("the sorting estimator does not apply to rotation intervals (rho outside [0,1])")


def _count(cfg: SweepConfig, name: str) -> int:
    """The integer value of a count field; a float, even a whole one, is a UsageError."""
    value = getattr(cfg, name)
    try:
        return operator.index(value)
    except TypeError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None


def _check_iterates(error: float) -> None:
    """Reject a positive error whose ceil(1/error) iterates exceed MAX_ITERATES."""
    if error > 0.0 and 1.0 / error > MAX_ITERATES:
        raise UsageError(f"error {error} asks for more than {MAX_ITERATES} iterates per estimate")


class StaircaseRow(NamedTuple):
    mu: float
    rho: float
    kind: str
    m: int | None
    n: int | None
    error_bound: float | None
    iterations: int


class IntervalRow(NamedTuple):
    a: float
    omega: float
    lo: RotationEstimate | None
    hi: RotationEstimate | None
    status: str  # "ok" or "error"


class TongueCell(NamedTuple):
    a: float
    omega: float
    member: bool | None
    lo: float | None
    hi: float | None
    lo_err: float | None
    hi_err: float | None
    status: str


class Rows:
    """A sweep's rows: a read-only sequence of cls records, stored as plain tuples.

    len, iteration and an index read the tuples and build each record with
    tuple.__new__, in C; a slice is a list of records.  repr, == and pickling
    are those of the list of records it stands for.
    """

    __slots__ = ("cls", "tuples")

    def __init__(self, cls: type, tuples: list[tuple]) -> None:
        self.cls = cls
        self.tuples = tuples

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self):
        return map(partial(tuple.__new__, self.cls), self.tuples)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(Rows(self.cls, self.tuples[index]))
        return tuple.__new__(self.cls, self.tuples[index])

    def __eq__(self, other) -> bool:
        return list(self) == other

    def __repr__(self) -> str:
        return repr(list(self))

    def __reduce__(self):
        return list, (list(self),)


def _tuples(rows: Iterable[tuple]) -> Iterable[tuple]:
    """What a writer reads by position: a Rows' stored tuples, or any other iterable of rows as it is."""
    return rows.tuples if isinstance(rows, Rows) else rows


class InvertResult(NamedTuple):
    status: str  # "ok" or "ill_conditioned"
    mu: float
    rho: float
    bisections: int
    bracket_width: float


class BenchmarkRow(NamedTuple):
    problem: str
    family: str
    algorithm: str
    seconds: float | None
    status: str  # "ok" or "n/a"


# ---------------------------------------------------------------------------
# grids and the worker pool


def mu_grid(cfg: SweepConfig) -> list[float]:
    """Accumulated-step grid {0, step, 2 step, ...} over f_mu's domain, with 1 appended exactly.

    Accumulation (rather than i*step) reproduces the classic sweep loop; the
    index-multiplication grid lands inside the tolerance deadband of the
    plateau-edge tangency at mu = 3/4 and would force a spurious fallback.
    Every point lies in [0, 1], so a staircase cell skips f_mu's check: the
    last sum adds count - 1 steps, at most 1 - step/2 exactly, and its
    roundings, half an ulp each, total under 4e-17/step, less than step/2
    for every step that validate admits (more than 1e-8).
    """
    count = max(round(1.0 / cfg.mu_step), 1)  # round() gives 0 for a step more than twice the domain
    # 0.0 and count - 1 running sums, each the float addition mu + step
    grid = list(accumulate(repeat(cfg.mu_step, count - 1), initial=0.0))
    grid.append(1.0)
    return grid


def _linspace(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [lo]
    h = (hi - lo) / (steps - 1)
    pts = [lo + i * h for i in range(steps - 1)]
    pts.append(hi)
    return pts


def _pool_size(workers: int, n_tasks: int) -> int:
    """Worker processes worth starting: no more than the CPUs or the tasks."""
    return max(1, min(workers, os.cpu_count() or 1, n_tasks))


def _run_ordered(worker, tasks: Collection, workers: int) -> list:
    """worker(task) for each task, in order; tasks is sized and iterable, a list or a _StaircaseTasks."""
    workers = _pool_size(workers, len(tasks))
    if workers == 1:
        return [worker(t) for t in tasks]
    from multiprocessing import Pool  # imported here: a one-worker run never pays for it

    chunk = max(1, len(tasks) // (workers * 8))
    with Pool(processes=workers) as pool:
        return pool.map(worker, tasks, chunksize=chunk)


# ---------------------------------------------------------------------------
# Devil's staircase


class StaircaseCall(NamedTuple):
    """The one estimator call every cell of a staircase sweep makes, resolved once per sweep.

    beta and shift are rho_constant_section's arguments for f_mu's stated
    section, by csb's section rule, or None: the algorithm is not csb, or
    the section is no wider than 2*tol and csb falls back to rho_direct
    with stop_on_repeat.  Every task of the sweep holds the same object, so
    a pooled chunk pickles it once.
    """

    algorithm: str
    error: float
    beta: float | None
    shift: float | None
    simo_n: int


def _staircase_call(cfg: SweepConfig) -> StaircaseCall:
    beta = shift = None
    if cfg.algorithm == "csb":
        call = _csb_section(_FMU_SECTIONS, cfg.tol)
        if call is not None:
            beta, shift = call
    return StaircaseCall(cfg.algorithm, cfg.error, beta, shift, cfg.simo_n)


class _StaircaseTasks:
    """A staircase's tasks, (call, mu) for each mu of the grid, each made as it is read.

    A sized, re-iterable view: len is the grid's, and each iteration zips the
    one shared call with the grid, so no per-cell tuple outlives its cell.
    Pool.map chunks and pickles the same (call, mu) tuples a list would hold,
    and the view itself pickles as that list.
    """

    __slots__ = ("call", "grid")

    def __init__(self, call: StaircaseCall, grid: list[float]) -> None:
        self.call = call
        self.grid = grid

    def __len__(self) -> int:
        return len(self.grid)

    def __iter__(self):
        return zip(repeat(self.call), self.grid)

    def __reduce__(self):
        return list, (list(self),)


# what f_mu's step factory, _FMU.make, gives its fundamental: the step's code and globals
_FMU_CODE = _FMU.code
_FMU_GLOBALS = _FMU.make.__globals__


def _staircase_cell(task: tuple[StaircaseCall, float]) -> tuple:
    # f_mu's record, built here with no check (mu_grid keeps every mu in [0, 1])
    # and no knots, then one estimator call; the row is a plain tuple in
    # StaircaseRow's field order.  The fundamental is _FMU.make(mu)'s twin, made
    # by FunctionType from the same code object, so the kernels still write the
    # step in; it and the lifting are built in C (tuple.__new__ skips the
    # NamedTuple's Python-level __new__), so a cell runs no Python frame but its
    # own, the estimator's and the kernel's
    (algorithm, error, beta, shift, simo_n), mu = task
    fund = FunctionType(_FMU_CODE, _FMU_GLOBALS, "f_mu", (mu,))
    F = tuple.__new__(Lifting, (fund, True, "F_mu", None, None, _FMU_SECTIONS))
    if beta is not None:
        # looked up on rotnum at each call, where perfbench's tracer wraps it
        kind, value, error_bound, iterations, m, n = rotnum.rho_constant_section(F, beta, error, shift=shift)
    elif algorithm == "simo":
        # Simo's estimate: the cycle's exact rotation number, or the bracket's midpoint and half-width
        try:
            rho_min, rho_max, _ = rho_simo(F, simo_n)
        except PeriodicOrbitDetected as hit:
            m, n = hit.rotation.as_integer_ratio()
            return mu, m / n, "exact", m, n, None, simo_n
        return mu, 0.5 * (rho_min + rho_max), "approx", None, None, 0.5 * (rho_max - rho_min), simo_n
    else:
        # direct, or csb with no usable section, whose fallback stops at a repeated state as rho_csb's does
        kind, value, error_bound, iterations, m, n = rho_direct(F, error, stop_on_repeat=algorithm == "csb")
    return mu, value, kind, m, n, None if kind == "exact" else error_bound, iterations


def devils_staircase(cfg: SweepConfig) -> Rows:
    """Rotation number of the staircase family over the mu grid, in mu order, as StaircaseRow records."""
    cfg.validate("staircase")
    tasks = _StaircaseTasks(_staircase_call(cfg), mu_grid(cfg))
    return Rows(StaircaseRow, _run_ordered(_staircase_cell, tasks, cfg.workers))


# ---------------------------------------------------------------------------
# rotation-interval graphs and Arnold tongues

# what one cell's numerics can raise once the config is valid (for example a
# section whose width rounds to 1 at a huge coefficient): the cell is flagged
_CELL_FAILURES = (NumericEnvelopeFailure, ValueError)


def _interval_or_none(cfg: SweepConfig, a: float, omega: float) -> RotationInterval | None:
    """Rotation interval of an interval or tongue cell, None when its numerics fail.

    A failure in the lifting build flags the cell too; InvalidParam stays a usage error.
    """
    try:
        F = build_lifting((cfg.family, omega, a))
        return rotation_interval(F, cfg.error, cfg.tol, method=cfg.algorithm)
    except InvalidParam:
        raise
    except _CELL_FAILURES:
        return None


def _interval_cell(task: tuple[SweepConfig, float]) -> tuple:
    # a plain tuple in IntervalRow's field order
    cfg, a = task
    ri = _interval_or_none(cfg, a, cfg.omega)
    if ri is None:
        return a, cfg.omega, None, None, "error"
    lo, hi = ri
    return a, cfg.omega, lo, hi, "ok"


def rotation_interval_graph(cfg: SweepConfig) -> Rows:
    """Rotation-interval endpoints as a function of a, at fixed omega, as IntervalRow records."""
    cfg.validate("interval")
    tasks = [(cfg, a) for a in _linspace(cfg.a_min, cfg.a_max, cfg.a_steps)]
    return Rows(IntervalRow, _run_ordered(_interval_cell, tasks, cfg.workers))


def _tongue_cell(task: tuple[SweepConfig, float, float, float | Fraction]) -> tuple:
    # a plain tuple in TongueCell's field order
    cfg, a, omega, target = task
    ri = _interval_or_none(cfg, a, omega)
    if ri is None:
        return a, omega, None, None, None, None, None, "error"
    lo, hi = ri
    if isinstance(target, Fraction) and lo.kind == "exact" == hi.kind:
        # lo.m/lo.n <= p/q <= hi.m/hi.n in integers: every n and q is positive, so
        # the cross-products order as the fractions do, with no Fraction built
        p, q = target.numerator, target.denominator
        member = lo.m * q <= p * lo.n and p * hi.n <= hi.m * q
    else:
        t = float(target)  # an inexact interval is compared in floats, also for a Fraction target
        member = (lo.value - lo.error_bound) <= t <= (hi.value + hi.error_bound)
    return a, omega, member, lo.value, hi.value, lo.error_bound, hi.error_bound, "ok"


def arnold_tongue(cfg: SweepConfig, target: "float | Fraction") -> Rows:
    """Membership grid of the target rotation number over (a, omega), as TongueCell records.

    When both interval endpoints are exact and the target is rational the
    membership test is an exact rational comparison; otherwise the interval
    is inflated by the endpoint error bounds.  Cells are emitted in row-major
    (a outer, omega inner) order.
    """
    cfg.validate("tongue", target)
    tasks = [
        (cfg, a, omega, target)
        for a in _linspace(cfg.a_min, cfg.a_max, cfg.a_steps)
        for omega in _linspace(cfg.omega_min, cfg.omega_max, cfg.omega_steps)
    ]
    return Rows(TongueCell, _run_ordered(_tongue_cell, tasks, cfg.workers))


# ---------------------------------------------------------------------------
# staircase inversion


def invert_staircase(
    target: float,
    eps: float,
    max_bisections: int = 200,
    error: float = DEFAULT_ERROR,
    tol: float = DEFAULT_TOL,
) -> InvertResult:
    """Bisect on mu for rho(F_mu) within eps of the target.

    The staircase is non-decreasing in mu with rho(F_0) = 0 and rho(F_1) = 1,
    so plain bisection converges onto a mode-locked plateau for rational
    targets.  Irrational targets are expected to exhaust the budget (or stall
    at float resolution) and come back ill_conditioned with the final bracket
    width; that is a documented outcome, not a failure.
    """
    if not 0.0 < target < 1.0:
        raise UsageError("target must lie strictly inside (0, 1)")
    if not (math.isfinite(eps) and eps > 0.0):
        raise UsageError(f"eps must be positive and finite, got {eps}")
    try:
        max_bisections = operator.index(max_bisections)
    except TypeError:
        raise UsageError(f"max_bisections must be an integer, got {max_bisections!r}") from None
    if max_bisections < 1:
        raise UsageError(f"max_bisections must be at least 1, got {max_bisections}")
    _check_iterates(error)
    lo, hi = 0.0, 1.0
    rho_mid = math.nan
    for k in range(1, max_bisections + 1):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return InvertResult("ill_conditioned", mid, rho_mid, k - 1, hi - lo)
        est = rho_csb(f_mu(mid), error, tol)
        rho_mid = est.value
        if abs(est.value - target) <= eps:
            return InvertResult("ok", mid, est.value, k, hi - lo)
        if est.value < target:
            lo = mid
        else:
            hi = mid
    return InvertResult("ill_conditioned", 0.5 * (lo + hi), rho_mid, max_bisections, hi - lo)


# ---------------------------------------------------------------------------
# three-algorithm benchmark


def benchmark(
    cfg: SweepConfig,
    problems: Iterable[str] = ("staircase",),
    algorithms: Iterable[str] = ("csb",),
    target: "float | Fraction" = Fraction(1, 2),
) -> list[BenchmarkRow]:
    """Wall-clock seconds per algorithm per problem at the configured grids.

    Each run is cfg with the problem's family and one of the algorithms
    (cfg.algorithm is not read).  The orbit-sorting estimator is only defined
    for rotation numbers in [0, 1], so interval and tongue problems mark it
    n/a.  Every run's config is validated before the first run starts.
    """
    problems, algorithms = tuple(problems), tuple(algorithms)
    if not problems:
        raise UsageError("select at least one benchmark problem")
    if not algorithms:
        raise UsageError("select at least one algorithm")
    sweeps = {"staircase": devils_staircase, "interval": rotation_interval_graph, "tongue": lambda c: arnold_tongue(c, target)}
    runs = []  # (problem, algorithm, config, n/a); an n/a row keeps a csb config, checked but never run
    for problem in problems:
        if problem not in sweeps:
            raise UsageError(f"unknown benchmark problem {problem!r}")
        family = "fmu" if problem == "staircase" else cfg.family
        for alg in algorithms:
            na = problem != "staircase" and alg == "simo"
            sub = cfg._replace(family=family, algorithm="csb" if na else alg)
            sub.validate(problem, target)
            runs.append((problem, alg, sub, na))
    rows: list[BenchmarkRow] = []
    for problem, alg, sub, na in runs:
        if na:
            rows.append(BenchmarkRow(problem, sub.family, alg, None, "n/a"))
            continue
        start = time.perf_counter()
        sweeps[problem](sub)
        rows.append(BenchmarkRow(problem, sub.family, alg, time.perf_counter() - start, "ok"))
    return rows


# ---------------------------------------------------------------------------
# CSV emission
#
# Every field is a .17g float, an int, "" or a fixed word (exact, approx,
# error, ok, n/a, ill_conditioned, or a validated family, problem or
# algorithm name), so none needs quoting.


def _header(names: list[str]) -> str:
    return ",".join(names) + "\n"


# rows a staircase writer formats with one % and writes at once: memory stays bounded for any grid
STAIRCASE_CHUNK = 1024

# an approx row's format; its error bound comes preformatted, "" when it has none
_APPROX_LINE = "%.17g,%.17g,%s,%s,%s,%s,%d\n"


def write_staircase_csv(rows: Iterable[tuple], stream: IO[str]) -> None:
    """Emit staircase rows; an exact row's format is built once per (m, n, iterations).

    An exact row's rho is m / n and its error bound empty, so the rows of a
    plateau share one format, "%.17g" for mu followed by their common text.
    A row whose (m, n, iterations) is the previous exact row's reuses its
    format; any other exact row looks it up by that triple.  Each chunk of
    STAIRCASE_CHUNK rows joins its rows' formats and applies them with one %
    to the chunk's values, then is written, so no more than a chunk is held.
    """
    stream.write(_header(STAIRCASE_HEADER))
    formats: dict[tuple[int, int, int], str] = {}
    rows = iter(_tuples(rows))
    fmt = last_m = last_n = last_iterations = None  # the previous exact row's format and triple
    while True:
        fmts = []
        add_fmt = fmts.append
        values = []
        add_value = values.append
        for mu, rho, kind, m, n, err, iterations in islice(rows, STAIRCASE_CHUNK):
            if kind == "exact":
                if m != last_m or n != last_n or iterations != last_iterations:
                    last_m, last_n, last_iterations = m, n, iterations
                    key = (m, n, iterations)
                    fmt = formats.get(key)
                    if fmt is None:
                        # the text after mu holds no "%" to escape: a %.17g float is digits,
                        # a sign, ".", "e", "inf" or "nan", and a %d integer digits and a sign
                        fmt = formats[key] = "%.17g" + ",%.17g,exact,%d,%d,,%d\n" % (rho, m, n, iterations)
                add_fmt(fmt)
                add_value(mu)
            else:
                add_fmt(_APPROX_LINE)
                values += (
                    mu, rho, kind, "" if m is None else m, "" if n is None else n,
                    "" if err is None else "%.17g" % err, iterations,
                )
        if not fmts:
            return
        stream.write("".join(fmts) % tuple(values))


def write_interval_csv(rows: Iterable[tuple], stream: IO[str]) -> int:
    """Emit interval rows; returns the number of failed cells, counted as they are written."""
    stream.write(_header(INTERVAL_HEADER))
    write = stream.write
    failed = 0
    for a, omega, lo, hi, status in _tuples(rows):
        if status == "ok":
            write(
                f"{a:.17g},{omega:.17g},{lo.value:.17g},{lo.kind},{lo.error_bound:.17g},"
                f"{hi.value:.17g},{hi.kind},{hi.error_bound:.17g}\n"
            )
        else:
            failed += 1
            write(f"{a:.17g},{omega:.17g},,error,,,error,\n")
    return failed


def write_tongue_csv(rows: Iterable[tuple], stream: IO[str]) -> int:
    """Emit tongue cells, member as 0 or 1; returns the number of failed cells, counted as they are written."""
    stream.write(_header(TONGUE_HEADER))
    write = stream.write
    failed = 0
    for a, omega, member, lo, hi, _, _, status in _tuples(rows):
        if status == "ok":
            write(f"{a:.17g},{omega:.17g},{member:d},{lo:.17g},{hi:.17g}\n")
        else:
            failed += 1
            write(f"{a:.17g},{omega:.17g},error,,\n")
    return failed


def write_benchmark_csv(rows: Iterable[BenchmarkRow], stream: IO[str]) -> None:
    stream.write(_header(BENCH_HEADER))
    stream.writelines(
        f"{problem},{family},{algorithm},{'' if seconds is None else format(seconds, '.17g')},{status}\n"
        for problem, family, algorithm, seconds, status in rows
    )


def write_invert_csv(result: InvertResult, target: float, eps: float, stream: IO[str]) -> None:
    status, mu, rho, bisections, bracket_width = result
    stream.write(_header(["target", "eps", "status", "mu", "rho", "bisections", "bracket_width"]))
    stream.write(f"{target:.17g},{eps:.17g},{status},{mu:.17g},{rho:.17g},{bisections},{bracket_width:.17g}\n")
