"""Tests of the benchmark itself: repeatable call counts, checks that catch
wrong outputs, and refusal to run without the package.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import checks
import run
import workloads

SCRATCH = run.OUT / "tests"


@pytest.fixture
def scratch(request):
    path = SCRATCH / request.node.name.replace("[", "-").replace("]", "")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _traced_counts(name: str, rep_dir: Path) -> dict[str, int]:
    workload, deadline = workloads.WORKLOADS[name], perf_counter() + 170.0
    rep = run.run_repetition(workload, rep_dir, seed=11, rep=0, traced=True,
                             env=run.child_env(), deadline=deadline)
    run.check_repetitions(workload, [rep], run.child_env(), rep_dir / "checks.txt", deadline)
    assert rep["failed"] == 0, rep["problems"]
    return {k: v[0] for k, v in run.merge_traces(rep_dir)["stats"].items()}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_two_traced_runs_give_identical_counts(name, scratch):
    first = _traced_counts(name, scratch / "a")
    second = _traced_counts(name, scratch / "b")
    assert first == second
    assert sum(first.values()) > 0


def test_fig3_counts_follow_the_grid(scratch):
    """Rows evolve both states once (t > 0), points evolve two operators each."""
    n = workloads.FIG3_GRID[2]
    counts = _traced_counts("fig3", scratch / "rep")
    assert counts["witness.EigenPropagator.evolve"] == 2 * (n - 1) + 2 * n * n
    assert counts["linalg.unitary_at"] == n
    assert counts["linalg.partial_trace"] == 4 * n + 2 * n * n
    assert counts["linalg.trace_norm"] == n + 3 * n * n


def _write_csv(path: Path, cols: dict[str, np.ndarray]) -> None:
    names = list(cols)
    lines = [",".join(names)]
    for i in range(len(cols[names[0]])):
        lines.append(",".join(
            str(cols[c][i]) if c == "class" else f"{cols[c][i]:.17g}" for c in names
        ))
    path.write_text("\n".join(lines) + "\n")


def test_chain_check_catches_a_perturbed_column_and_label(scratch):
    reference = workloads.REFERENCE / "fig3_surface.csv"
    cols = checks.read_table(reference)
    _write_csv(scratch / "surface.csv", cols)
    assert checks.check_chain_surface(scratch, workloads.FIG3_CHAIN, reference) == []

    bad = {k: v.copy() for k, v in cols.items()}
    bad["B"][7] += 1e-9
    _write_csv(scratch / "surface.csv", bad)
    assert checks.check_chain_surface(scratch, workloads.FIG3_CHAIN, reference)

    bad = {k: v.copy() for k, v in cols.items()}
    bad["class"][7] = checks.GUARANTEED if bad["class"][7] != checks.GUARANTEED else checks.INCONCLUSIVE
    _write_csv(scratch / "surface.csv", bad)
    assert checks.check_chain_surface(scratch, workloads.FIG3_CHAIN, reference)


def test_chain_oracle_rejects_a_wrong_chain(scratch):
    reference = workloads.REFERENCE / "fig3_surface.csv"
    _write_csv(scratch / "surface.csv", checks.read_table(reference))
    other = {**workloads.FIG3_CHAIN, "field": 0.02}
    assert checks.check_chain_surface(scratch, other, reference)


def test_dephasing_check_catches_a_perturbed_point():
    freqs, probs = checks.discrete_modes(workloads.FIG2B, workloads.MODES, workloads.MODES_WINDOW)
    k = lambda x: checks.discrete_k(freqs, probs, x)  # noqa: E731
    lo, hi, n = 0.0, 3.0, 7
    t, tp = np.repeat(np.linspace(lo, hi, n), n), np.tile(np.linspace(lo, hi, n), n)
    cols = {"t": t, "tprime": tp, **checks.witness_columns(k, t, tp)}
    cols["class"] = checks.expected_labels(cols["D_t"], cols["F"], cols["B"])[0]
    assert checks.check_witness_points(cols, k, "s") == []
    cols["deltaD"] = cols["deltaD"].copy()
    cols["deltaD"][3] += 1e-10
    assert checks.check_witness_points(cols, k, "s")


def test_nm_max_oracle_reproduces_the_recorded_measure():
    pairs = [((0.0, 0.0), (np.pi, np.pi)), ((0.0, np.pi), (np.pi, 0.0)),
             ((np.pi / 2, 0.0), (np.pi / 2, np.pi)), ((np.pi / 2, np.pi), (np.pi / 2, 0.0)),
             ((np.pi, 0.0), (0.0, np.pi)), ((np.pi, np.pi), (0.0, 0.0))]
    value, pair = checks.nm_max_oracle(workloads.NM_CHAIN, np.linspace(*workloads.NM_TIMES), pairs)
    assert abs(value - checks.NM_MEASURE) <= checks.TOL
    assert pair == checks.NM_ARGMAX


def test_refuses_to_run_without_the_package(scratch):
    shutil.copytree(workloads.HERE, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
