"""The three benchmark workloads: their sizes and the processes of one repetition.

One repetition of a workload is a fixed list of processes run one after
another. Each process is either the unmodified CLI (``python -m backflow``)
or ``worker.py``, which drives the public API; a traced repetition runs the
same list with ``worker.py`` installing the tracer in every process. The
sizes are scaled so that one repetition takes a few seconds on one core,
which lets every run repeat each workload several times; see README.md for
the full-size figures and why each workload exists.

This module is imported by the measuring process, which must stay small:
a child's peak resident set, as ``wait4`` reports it, includes the
high-water mark of the process that spawned it. So nothing here imports
numpy; the output checks run in a process of their own (``checks.py``).
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference"

FIG3_CHAIN = dict(sites=8, exchange=1.0, probe_exchange=1.0, field=0.01)
FIG3_GRID = (0.0, 3.0, 5)

FIG2B = dict(omega0_1=1.0, delta1=1.0, omega0_2=9.0, delta2=1.0, r=1.0)
MODES = 256
MODES_WINDOW = 40.0
MODES_CALLS = 40
MODES_RANGE = (0.0, 3.0)

NM_CHAIN = dict(sites=7, exchange=1.0, probe_exchange=1.0, field=0.01)
NM_PAIR_GRID = (3, 2)
NM_TIMES = (0.0, 3.0, 40)


@dataclass
class Process:
    """One process of a repetition and the number of operations it performs."""

    argv: list[str]
    operations: int


def _cli(rep_dir: Path, traced: bool, args: list[str]) -> Process:
    if traced:
        trace_file = rep_dir / "trace-0.json"
        return Process([sys.executable, str(WORKER), "cli", str(trace_file), *args], 1)
    return Process([sys.executable, "-m", "backflow", *args], 1)


def _worker(rep_dir: Path, traced: bool, args: list[str], operations: int) -> Process:
    argv = [sys.executable, str(WORKER), *args]
    if traced:
        argv += ["--trace", str(rep_dir / "trace-0.json")]
    return Process(argv, operations)


def _write_ini(path: Path, scenario: dict, grid: tuple, out: Path) -> None:
    lo, hi, count = grid
    lines = ["[scenario]", *(f"{k} = {v}" for k, v in scenario.items())]
    for name in ("t_grid", "tprime_grid"):
        lines += [f"[{name}]", f"min = {lo!r}", f"max = {hi!r}", f"count = {count}"]
    lines += ["[output]", f"path = {out}", "format = csv"]
    path.write_text("\n".join(lines) + "\n")


class Fig3:
    """Probe on the 8-site XX chain (D = 512) through the CLI fig3 preset."""

    name = "fig3"
    sizes = dict(D=2 ** (FIG3_CHAIN["sites"] + 1), sites=FIG3_CHAIN["sites"],
                 t_count=FIG3_GRID[2], tprime_count=FIG3_GRID[2],
                 points=FIG3_GRID[2] ** 2, cli_processes=1)

    def processes(self, rep_dir: Path, seed: int, rep: int, traced: bool) -> list[Process]:
        ini = rep_dir / "fig3.ini"
        _write_ini(ini, {"preset": "fig3"}, FIG3_GRID, rep_dir / "fig3")
        return [_cli(rep_dir, traced, ["run", str(ini)])]


class Modes256:
    """Explicit 256-mode dephasing model: evaluate_point at seeded (t, t')."""

    name = "modes256"
    sizes = dict(D=2 * MODES, modes=MODES, calls=MODES_CALLS)

    def processes(self, rep_dir: Path, seed: int, rep: int, traced: bool) -> list[Process]:
        rng = random.Random(f"modes256:{seed}:{rep}")
        points = [[rng.uniform(*MODES_RANGE), rng.uniform(*MODES_RANGE)]
                  for _ in range(MODES_CALLS)]
        inp = rep_dir / "points.json"
        inp.write_text(json.dumps({"points": points}))
        out = rep_dir / "modes256-out.json"
        return [_worker(rep_dir, traced, ["modes256", str(inp), str(out)], MODES_CALLS)]


class NmMax:
    """Backflow measure maximized over antipodal Bloch pairs on a 7-site chain."""

    name = "nm-max"
    sizes = dict(D=2 ** (NM_CHAIN["sites"] + 1), sites=NM_CHAIN["sites"],
                 pairs=NM_PAIR_GRID[0] * NM_PAIR_GRID[1], t_count=NM_TIMES[2])

    def processes(self, rep_dir: Path, seed: int, rep: int, traced: bool) -> list[Process]:
        out = rep_dir / "nm-max-out.json"
        return [_worker(rep_dir, traced, ["nm-max", str(out)], self.sizes["pairs"])]


WORKLOADS = {w.name: w for w in (Fig3(), Modes256(), NmMax())}
