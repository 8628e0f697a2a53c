"""rotkit imports nothing outside the standard library.

Every absolute import in src/rotkit, at any depth (a function-level import
counts too), must name a standard-library module; relative imports stay
inside the package.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rotkit"


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_rotkit_imports_only_the_standard_library():
    sources = sorted(SRC.rglob("*.py"))
    assert len(sources) >= 8
    outside = {
        f"{path.relative_to(SRC)}: {name}"
        for path in sources
        for name in _absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    }
    assert not outside
