"""The README's Python quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} quick start", "exec"), {"__name__": "quick_start"})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == code.count("print(")
    assert "(20, 20)" in out[2]
