"""The benchmark tracer wraps rotkit names given as strings: each must still exist.

perfbench/tracer.py skips a name it cannot find and only notes it on stderr,
so a refactor that drops a traced name would silently lose a layer or the
per-endpoint fidelity check.  This test loads the tracer by file path, without
importing the benchmark harness, and resolves every name it lists.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# listed by the tracer but gone from rotkit: the csb kernel applies the
# section shift itself, so there is no reparametrization call to time
KNOWN_MISSING = {("rotkit.rotnum", "reparametrize_to_zero")}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load_tracer()
    names = [(mod, attr) for mod, attr, _, _ in tracer.SPANS if (mod, attr) not in KNOWN_MISSING]
    names += list(tracer.ESTIMATORS)
    missing = [f"{mod}.{attr}" for mod, attr in names if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []
