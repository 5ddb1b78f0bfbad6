"""Regenerate the golden outputs of every CLI preset.

Each preset runs through ``backflow.cli.run`` with JSON tables, which keep
full double precision. Its outputs are stored in ``<preset>.npz`` beside
this script: one array per table column, named ``surface/<column>`` and
``profile/<column>``, and the summary as JSON text under ``summary``.
``tests/test_golden.py`` compares fresh runs against these files.

Run from the repository root:

    PYTHONPATH=src python tests/reference/generate.py

The files are the data behind a check. A change that regenerates them
says which values moved, by how much and why.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from backflow import cli

HERE = Path(__file__).resolve().parent
PRESETS = ("fig3", "fig2a", "fig2b", "fig2c", "semigroup", "bell-check")


def run_preset(name: str, out_dir: Path) -> dict[str, np.ndarray]:
    """Run a preset into ``out_dir`` and read its outputs back as arrays."""
    cfg = cli.RunConfig(preset=cli.PRESETS[name], out_dir=str(out_dir), fmt="json")
    status = cli.run(cfg)
    if status != cli.EXIT_OK:
        raise RuntimeError(f"preset {name} exited with status {status}")
    outputs = {"summary": np.array((out_dir / "summary.json").read_text())}
    for table in ("surface", "profile"):
        path = out_dir / f"{table}.json"
        if not path.exists():
            continue
        records = json.loads(path.read_text())
        for column in records[0]:
            outputs[f"{table}/{column}"] = np.array([r[column] for r in records])
    return outputs


def main() -> None:
    for name in PRESETS:
        with tempfile.TemporaryDirectory() as tmp:
            np.savez_compressed(HERE / f"{name}.npz", **run_preset(name, Path(tmp)))
        print(f"wrote {name}.npz")


if __name__ == "__main__":
    main()
