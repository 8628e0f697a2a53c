"""Self-tests of the benchmark harness on tiny grids.

    python3 perfbench/selftest.py

Run from the root of a rotkit checkout.  Checks that every metric declared in
BENCHMARK.json is printed with its unit, that a corrupted CSV turns
``output_ok`` to 0, that a forced failed cell is counted in ``failed_share``,
that a traced run which disagrees with the untraced rows is rejected, and
that the benchmark refuses to run without the rotkit sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, "src")

import run  # noqa: E402

SCRATCH = run.WORK / "selftest"


def _bench(*args: str, cwd: str = ".") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _fresh_check() -> run.OutputCheck:
    pins = SCRATCH / "pins.json"
    pins.unlink(missing_ok=True)
    return run.OutputCheck({}, pins)


class HarnessSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        cls.declared = json.loads(Path("BENCHMARK.json").read_text())

    def _assert_printed(self, proc, section: str):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        declared = {m["name"]: m["unit"] for m in self.declared[section]}
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, unit in declared.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            self.assertIsInstance(result["metrics"][name]["value"], (int, float), name)
            printed = [ln.split() for ln in lines[:-1] if ln.split()[1:2] == [name]]
            self.assertEqual(len(printed), 1, name)
            self.assertEqual(printed[0][3], unit, name)

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in ("staircase", "tongue"):
            base = ("--workload", workload, "--seed", "4", "--seconds", "1", "--scale", "tiny")
            self._assert_printed(_bench(*base, "--trace", "0"), "end_to_end")
            self._assert_printed(_bench(*base, "--trace", "1"), "per_layer")

    def test_corrupted_csv_turns_output_ok_to_zero(self):
        wl = run.make_workload("staircase", 9, "tiny")
        check = _fresh_check()
        good = run.run_child(wl.jobs[0])
        self.assertTrue(check.check(good))
        self.assertTrue(check.settle())

        # forge one exact row consistently (rho = m/n still holds), so only the rational twin can tell
        lines = good.csv_bytes.decode().splitlines()
        i, (mu, _, kind, m, n, err, iters) = next(
            (k, row) for k, row in enumerate(ln.split(",") for ln in lines) if row[2] == "exact" and int(row[3]) + 1 < int(row[4])
        )
        m = int(m) + 1
        forged = f"{m}/{n}"
        lines[i] = ",".join([mu, format(m / int(n), ".17g"), kind, str(m), n, err, iters])
        bad = replace(good, csv_bytes=("\n".join(lines) + "\n").encode())
        self.assertFalse(check.check(bad), "a pinned digest must reject a changed CSV")

        fresh = _fresh_check()
        fresh.check(bad)
        self.assertFalse(fresh.settle(), f"certification must reject the forged row {forged}")

        pinned = _fresh_check()
        pinned.pins[wl.jobs[0].key] = run.sha256(bad.csv_bytes)
        correct, _, _, metrics, problems = run.run_workload(wl, 0.5, 0, pinned)
        self.assertFalse(correct)
        self.assertEqual(metrics["output_ok"], 0.0)
        self.assertTrue(problems)

    def test_forced_failed_cell_is_counted(self):
        wl = run.make_workload("tongue", 0, "tiny")
        job = replace(wl.jobs[1], extra=("--fail-cell", "2"))
        wl = replace(wl, jobs=(job,))
        correct, attempted, failed, metrics, _ = run.run_workload(wl, 0.5, 0, _fresh_check())
        self.assertGreaterEqual(failed, 1)
        self.assertEqual(failed * run.SCALES["tiny"]["steps"] ** 2, attempted)  # one failed cell per pass
        self.assertAlmostEqual(metrics["failed_share"], failed / attempted)
        self.assertFalse(correct)
        self.assertEqual(metrics["output_ok"], 0.0)

    def test_trace_that_disagrees_with_untraced_rows_is_rejected(self):
        job = run.make_workload("staircase", 2, "tiny").jobs[1]  # the simo sweep
        untraced = run.Pass([run.run_child(job)])
        traced = run.Pass([run.run_child(job, trace=True)])
        self.assertEqual(run._fidelity(untraced, traced), [])
        traced.runs[0].summary["trace"]["estimates_digest"] = "0" * 64
        self.assertTrue(run._fidelity(untraced, traced))

    def test_refuses_to_run_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir()
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "staircase", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
