"""The README's Library example runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs(capsys):
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", library, flags=re.S)
    exec(compile(code, f"{README}:Library", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[1] == "exact 3 7"  # as its comment says
