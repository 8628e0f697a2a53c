"""CLI outputs that neither perfbench/golden.json nor test_pl_digests.py pins stay byte-identical.

These SHA-256 digests cover a float and a golden tongue target, three
tongues on the shifted grid omega in [3, 4] around rho 7/2, an interval
graph at omega 0.3, the paper-scale csb staircase (100,001 rows at step 1e-5,
about 1.5 s), the direct estimator on an interval graph and on the
staircase, the sorting estimator at the largest allowed --simo-iters (10^7,
whose full stored orbit took about 2 s and 260 MB), and a rational and an
irrational inversion.  Each command runs through the CLI in-process.
"""

import hashlib
import shlex

import pytest

from rotkit.cli import main

DIGESTS = {
    "tongue --family standard --rho golden --steps 8 --error 1e-4":
        "2631f031db4b0cab7fa7d304e07a1b71d4bd539dcdddb23e0f1a987c289e211e",
    "tongue --family pwl --rho 0.5 --steps 8 --error 1e-4":
        "179ae6bd1eff4999bc6bb2d2908a2b1d9afcf53bc9a9197bf120da1213e7fedd",
    # shifted grids, the shape of a nonzero perfbench seed: floor(F(0)) = 3, not 0
    "tongue --family standard --rho 7/2 --omega-range 3:4 --steps 16 --error 1e-4":
        "4ba2a0d084d653a37ef2d28b0b2d0b06280c83eeb9df46dfae160808b7b2c0ce",
    "tongue --family pwl --rho 7/2 --omega-range 3:4 --steps 16 --error 1e-4":
        "15ce88436f8a8a8a0aab132710464d9cab11422cb99850648339f239fd6a0751",
    "tongue --family disc --rho 7/2 --omega-range 3:4 --steps 16 --error 1e-4":
        "6200ad931f2f2a553e00aed49422b211df88fd15998cbd22c64ba6071c15f312",
    "interval --family standard --omega 0.3 --steps 64 --error 1e-5":
        "176a3f3b12f925c2ed0bda1cd19ac3c523690fb5a74e9f9ef6df39ed137906ad",
    "interval --family pwl --algorithm direct --steps 16 --error 1e-4":
        "36f79edaa4d69add885873b13f65f71abb9eff081d78d6c253593379bc55208e",
    # the paper-scale reference staircase: 100,001 rows, 369 distinct exact tails
    "staircase --mu-step 1e-5 --error 1e-6 --tol 1e-10":
        "b513c3fc04141cec9109da1a0543835745c0bf5692b4278b4b0c6f659a0372a5",
    "staircase --algorithm direct --mu-step 1e-2 --error 1e-4":
        "10e24038aa8fb8e0ace667ab83d91c7a5847eda31e8e561d386dd176869c7312",
    "staircase --algorithm simo --simo-iters 10000000 --mu-step 0.5":
        "dbbf88f6970019abe5123b8c6ca70fdb235d54ad79a1745e45f0fbfd07764127",
    "invert --rho 1/3 --error 1e-5": "0dc8be4cbf06710eadec1e7f19f6be4657d960f5a104360cc9174dc88340a974",
    "invert --rho golden --error 1e-5": "e2ec880210c80f59aaeca3b0446d59b4db3ad797ccb3fefbdf6cc0d3d23df443",
}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_output_matches_recorded_digest(command, tmp_path):
    out = tmp_path / "out.csv"
    assert main([*shlex.split(command), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[command]
