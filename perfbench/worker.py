"""Child process of the benchmark: drives the package's public API.

    worker.py env                          versions and the imported package path
    worker.py setup WORKLOAD               build WORKLOAD's scenario, print the time
    worker.py modes256 IN OUT [--trace F]  evaluate_point at the points in IN
    worker.py nm-max OUT [--trace F]       nm_measure_maximized over the pair grid
    worker.py cli F ARGS...                backflow.cli.main(ARGS) with tracing

With ``--trace F`` (always for ``cli``) the per-layer tracer is installed
after the import and its statistics and spans are written to F at exit.
"""

from __future__ import annotations

import json
import platform
import sys
from time import perf_counter

import numpy as np

import backflow
import workloads as wl
from tracer import Tracer


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "backflow": backflow.__version__,
        "backflow_file": backflow.__file__,
    }


def _setup(workload: str) -> None:
    """Everything between a fresh interpreter and a scenario ready to evaluate."""
    if workload == "fig3":
        backflow.spin_chain_scenario(backflow.SpinChainSpec(**wl.FIG3_CHAIN))
    elif workload == "modes256":
        dist = backflow.DoubleLorentzian(**wl.FIG2B)
        backflow.full_model(backflow.discretize(dist, modes=wl.MODES, window=wl.MODES_WINDOW))
    elif workload == "nm-max":
        spec = backflow.SpinChainSpec(**wl.NM_CHAIN)
        (th1, ph1), (th2, ph2) = sorted(backflow.bloch_pair_grid(*wl.NM_PAIR_GRID))[0]
        backflow.spin_chain_scenario(
            spec, (backflow.pure_qubit(th1, ph1), backflow.pure_qubit(th2, ph2))
        )
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    print(repr(perf_counter()))


def _modes256(inp: str, out: str) -> None:
    points = json.loads(open(inp).read())["points"]
    dist = backflow.DoubleLorentzian(**wl.FIG2B)
    sc = backflow.full_model(backflow.discretize(dist, modes=wl.MODES, window=wl.MODES_WINDOW))
    rows, latencies = [], []
    for t, tp in points:
        start = perf_counter()
        p = backflow.evaluate_point(sc, tp, t)
        latencies.append(1000.0 * (perf_counter() - start))
        rows.append([p.t, p.tprime, p.d_t, p.d_next, p.forecast, p.influence,
                     p.delta_d, p.lower, p.upper, p.label.value])
    with open(out, "w") as fh:
        json.dump({"rows": rows, "latencies_ms": latencies}, fh)


def _nm_max(out: str, tracer: Tracer | None) -> None:
    spec = backflow.SpinChainSpec(**wl.NM_CHAIN)
    pairs = backflow.bloch_pair_grid(*wl.NM_PAIR_GRID)
    times = np.linspace(*wl.NM_TIMES)
    stamps: list[float] = []

    def make_scenario(r1, r2):
        stamps.append(perf_counter())
        return backflow.spin_chain_scenario(spec, (r1, r2))

    value, pair = backflow.nm_measure_maximized(make_scenario, times, pairs)
    stamps.append(perf_counter())
    if tracer is not None:
        # One span per pair, from its scenario build to the next one.
        parent = next(s[0] for s in tracer.spans if s[2] == "blp.nm_measure_maximized")
        for start, end in zip(stamps, stamps[1:]):
            tracer.add_span("nm-max.pair", start, end, parent)
    latencies = [1000.0 * (b - a) for a, b in zip(stamps, stamps[1:])]
    with open(out, "w") as fh:
        json.dump({"measure": value, "pair": pair, "pairs": pairs,
                   "latencies_ms": latencies}, fh)


def main(argv: list[str]) -> int:
    command, *args = argv
    if command == "env":
        print(json.dumps(_environment()))
        return 0
    if command == "setup":
        _setup(args[0])
        return 0
    trace_file = None
    if command == "cli":
        trace_file, *args = args
    elif "--trace" in args:
        i = args.index("--trace")
        trace_file = args[i + 1]
        del args[i : i + 2]
    tracer = None
    if trace_file is not None:
        tracer = Tracer()
        tracer.install()
    try:
        if command == "cli":
            from backflow import cli

            return cli.main(args)
        if command == "modes256":
            _modes256(*args)
        elif command == "nm-max":
            _nm_max(*args, tracer=tracer)
        else:
            raise SystemExit(f"unknown command {command!r}")
        return 0
    finally:
        if tracer is not None:
            tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
