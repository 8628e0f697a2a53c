"""Default-schema CSVs of the benchmark's reference commands stay byte-identical.

perfbench/golden.json maps each reference command line to the SHA-256 of the
CSV it writes.  Every refactor of the families, envelopes or estimators must
keep these bytes; this test runs each command through the CLI in-process.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from rotkit.cli import main

GOLDEN = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_reference_output_matches_golden_digest(command, tmp_path):
    out = tmp_path / "out.csv"
    assert main([*shlex.split(command), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[command]
