"""README's Python snippets run as written, from the repository root."""
import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 2
    monkeypatch.chdir(ROOT)  # the rover block loads a map by its path in the repository
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:  # the rover block uses the first block's imports
            exec(compile(block, "README.md", "exec"), namespace)
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("True "), lines[1]
