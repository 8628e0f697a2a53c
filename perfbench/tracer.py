"""Outside-in tracer: wraps rotkit's public functions where their callers look them up.

Every wrapper records one span on a stack, so each call's self time is its
duration minus the time its wrapped callees took.  Self time is summed per
layer; the layers are rotkit's modules.  rotkit's sources are not touched: the
wrappers replace attributes in the calling module's namespace
(``rotkit.sweep.f_mu``, ``rotkit.rotnum.upper_map``, ...), which is where the
calls resolve at run time.  A name that a later version of rotkit no longer
has is skipped and listed in ``missing``; its time then falls into the
caller's self time.

Besides times, the tracer keeps what the orbit estimators returned, in call
order, so a traced run can be checked against the rows of an untraced one.
It only traces a single-process sweep: the wrappers are closures and cannot
be pickled into a worker pool.
"""

from __future__ import annotations

import pickle
import time

# (module, attribute, layer, group).  Groups "build", "maps" and "reparam" are
# summed per grid cell; "cell" closes a cell; "csv" is one sample per call.
SPANS = (
    ("rotkit.cli", "devils_staircase", "sweep", None),
    ("rotkit.cli", "arnold_tongue", "sweep", None),
    ("rotkit.cli", "write_staircase_csv", "sweep", "csv"),
    ("rotkit.cli", "write_tongue_csv", "sweep", "csv"),
    ("rotkit.sweep", "_run_ordered", "sweep", None),
    ("rotkit.sweep", "_staircase_cell", "sweep", "cell"),
    ("rotkit.sweep", "_tongue_cell", "sweep", "cell"),
    ("rotkit.sweep", "f_mu", "families", "build"),
    ("rotkit.sweep", "build_lifting", "families", "build"),
    ("rotkit.sweep", "rho_csb", "rotnum", None),
    ("rotkit.sweep", "rotation_interval", "rotnum", None),
    ("rotkit.rotnum", "upper_map", "envelope", "maps"),
    ("rotkit.rotnum", "lower_map", "envelope", "maps"),
    ("rotkit.rotnum", "widest_section", "envelope", "reparam"),
    ("rotkit.rotnum", "reparametrize_to_zero", "envelope", "reparam"),
)

# Orbit estimators: each call is one endpoint, classified by the path it took.
ESTIMATORS = (
    ("rotkit.rotnum", "rho_constant_section"),
    ("rotkit.rotnum", "rho_direct"),
    ("rotkit.sweep", "rho_direct"),
    ("rotkit.sweep", "rho_simo"),
)

LAYERS = ("families", "envelope", "rotnum", "sweep")
PATHS = ("csb_hit", "csb_exhaust", "direct", "simo")
CELL_GROUPS = ("build", "maps", "reparam")


class Tracer:
    """Span stack, per-layer self time, per-cell samples and per-path counts."""

    def __init__(self, periodic_exc: type) -> None:
        self.periodic_exc = periodic_exc  # how rho_simo reports a cycle
        self.clock = time.perf_counter_ns
        self._stack = [0]  # callee time accumulated under each open span
        self._cell_acc = dict.fromkeys(CELL_GROUPS, 0)
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.samples: dict[str, list[int]] = {g: [] for g in (*CELL_GROUPS, "cell", "csv")}
        self.paths = {p: {"endpoints": 0, "ns": 0, "iters": 0} for p in PATHS}
        self.estimates: list[tuple[str, float, float, int]] = []
        self.exact_iters = 0  # iterates spent on endpoints that came out exact
        self.liftings = [0, 0]  # [non-decreasing, all] liftings built
        self.csv_rows = 0
        self.pool_calls: list[tuple] = []
        self.missing: list[str] = []

    def install(self, modules: dict) -> None:
        """Wrap every listed name that exists in the given {name: module} map."""
        for mod_name, attr, layer, group in SPANS:
            self._patch(modules[mod_name], attr, lambda real, a=attr, l=layer, g=group: self._span(real, a, l, g))
        for mod_name, attr in ESTIMATORS:
            self._patch(modules[mod_name], attr, self._estimator)

    def _patch(self, module, attr: str, make) -> None:
        real = getattr(module, attr, None)
        if real is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, make(real))

    def _enter(self) -> int:
        self._stack.append(0)
        return self.clock()

    def _leave(self, start: int, layer: str) -> int:
        dur = self.clock() - start
        inner = self._stack.pop()
        self._stack[-1] += dur
        self.self_ns[layer] += dur - inner
        return dur

    def _span(self, real, name: str, layer: str, group: str | None):
        def wrapper(*args, **kwargs):
            start = self._enter()
            try:
                result = real(*args, **kwargs)
            finally:
                dur = self._leave(start, layer)
                if group == "cell":
                    self._close_cell(dur)
                elif group == "csv":
                    self.samples["csv"].append(dur)
                elif group is not None:
                    self._cell_acc[group] += dur
            self._observe(name, args, result)
            return result

        return wrapper

    def _estimator(self, real):
        name = real.__name__

        def wrapper(*args, **kwargs):
            result = cycle = None
            start = self._enter()
            try:
                result = real(*args, **kwargs)
                return result
            except self.periodic_exc as exc:
                cycle = exc
                raise
            finally:
                dur = self._leave(start, "rotnum")
                path, record = _classify(name, args, kwargs, result, cycle)
                if path is not None:
                    slot = self.paths[path]
                    slot["endpoints"] += 1
                    slot["ns"] += dur
                    slot["iters"] += record[3]
                    if record[0] == "exact":
                        self.exact_iters += record[3]
                    self.estimates.append(record)

        return wrapper

    def _close_cell(self, dur: int) -> None:
        self.samples["cell"].append(dur)
        for group in CELL_GROUPS:
            if self._cell_acc[group]:
                self.samples[group].append(self._cell_acc[group])
                self._cell_acc[group] = 0

    def _observe(self, name: str, args: tuple, result) -> None:
        if name in ("f_mu", "build_lifting"):
            self.liftings[0] += bool(result.is_non_decreasing)
            self.liftings[1] += 1
        elif name.startswith("write_"):
            self.csv_rows += len(args[0])
        elif name == "_run_ordered":
            self.pool_calls.append((args[1], result))

    def summary(self, pickle_sizes: bool) -> dict:
        out = {
            "self_ns": self.self_ns,
            "samples": self.samples,
            "paths": self.paths,
            "exact_iters": self.exact_iters,
            "liftings": self.liftings,
            "csv_rows": self.csv_rows,
            "missing": self.missing,
        }
        if pickle_sizes:
            # computed, not observed: the bytes a pool would move for these tasks and rows
            out["pickle_bytes"] = sum(
                len(pickle.dumps(tasks, pickle.HIGHEST_PROTOCOL)) + len(pickle.dumps(rows, pickle.HIGHEST_PROTOCOL))
                for tasks, rows in self.pool_calls
            )
        return out


def _classify(name, args, kwargs, result, cycle):
    """(path, (kind, value, error_bound, iterations)) of one estimator call, or (None, None)."""
    if name == "rho_simo":
        n = args[1] if len(args) > 1 else kwargs.get("n", 1000)
        if cycle is not None:
            rot = cycle.rotation
            return "simo", ("exact", rot.numerator / rot.denominator, 0.0, n)
        if result is None:
            return None, None
        half = 0.5 * (result.rho_max - result.rho_min)
        return "simo", ("approx", 0.5 * (result.rho_min + result.rho_max), half, n)
    if result is None:
        return None, None
    record = (result.kind, result.value, result.error_bound, result.iterations_used)
    if name == "rho_direct":
        return "direct", record
    return ("csb_hit" if result.kind == "exact" else "csb_exhaust"), record
