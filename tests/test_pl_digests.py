"""Piecewise-linear interval and tongue CSVs stay byte-identical.

perfbench/golden.json reaches the pwl and disc families only through one
tongue each at omega in [0, 1].  These SHA-256 digests pin their interval
graphs at omega 0 and 3.31 (floor(F(0)) = 3 there) and their tongues at
omega in [3, 4]; every refactor of the piecewise-linear families must keep
these bytes.  Each command runs through the CLI in-process.
"""

import hashlib
import shlex

import pytest

from rotkit.cli import main

INTERVAL = "interval --family {} --steps 64 --error 1e-5 --omega {}"
TONGUE = "tongue --family {} --rho 7/2 --steps 16 --error 1e-4 --omega-range 3:4"
DIGESTS = {
    INTERVAL.format("pwl", 0): "86b3093deb6dd7423b156fdb9f99aa97c4132117c642a6f4015f0a4b26bcbaea",
    INTERVAL.format("pwl", 3.31): "2f41b1fe75d289bec36ae821a0af39e0172dda84a84b6b4f54f8a882cf9be206",
    INTERVAL.format("disc", 0): "7f4ecbc4b659f636dc66e8c3f9138aaa351a5218a520fd779a5c6b9a3cb9a07f",
    INTERVAL.format("disc", 3.31): "3aea708ca8926aa20f4750feb2299714f48aead0236f111edb1a1d33476b0df3",
    TONGUE.format("pwl"): "15ce88436f8a8a8a0aab132710464d9cab11422cb99850648339f239fd6a0751",
    TONGUE.format("disc"): "6200ad931f2f2a553e00aed49422b211df88fd15998cbd22c64ba6071c15f312",
}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_pl_output_matches_recorded_digest(command, tmp_path):
    out = tmp_path / "out.csv"
    assert main([*shlex.split(command), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[command]
