"""The README's Python quick start runs as written."""

import re
from pathlib import Path

from backflow.cli import GridSpec, parse_config
from backflow.spinchain import SpinChainSpec

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} quick start", "exec"), {"__name__": "quick_start"})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == code.count("print(")
    assert "(20, 20)" in out[2]


def test_config_example_parses(tmp_path):
    """The example config of "Config files are flat INI" resolves to the run
    it spells out."""
    section = README.read_text().split("Config files are flat INI", 1)[1]
    path = tmp_path / "example.ini"
    path.write_text(re.search(r"```ini\n(.*?)```", section, re.S).group(1))
    cfg = parse_config(path)
    assert cfg.preset.kind == "surface"
    assert cfg.preset.model == SpinChainSpec(sites=8, exchange=1.0, probe_exchange=1.0, field=0.01)
    assert cfg.preset.t_grid == cfg.preset.tprime_grid == GridSpec(0.0, 3.0, 40)
    assert (cfg.out_dir, cfg.fmt) == ("results", "csv")
