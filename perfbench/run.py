"""Benchmark of the witness pipeline, end to end and by layer.

    python3 perfbench/run.py --workload fig3 --seed 1 --seconds 38 --trace 0

Repeats one workload (or ``all``) in fresh processes for ``--seconds``,
checks every output against an independent oracle outside the timed
region, and prints the end-to-end metrics (``--trace 0``) or, from one
extra traced repetition, the per-layer metrics (``--trace 1``). The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record of each run, with
the environment, sizes, seed, per-repetition values and spans, is written
under ``.perfbench_out/results/``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

import tracer
from workloads import HERE, WORKER, WORKLOADS

ROOT = HERE.parent
CHECKER = HERE / "checks.py"
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = 1
SETUP_PROBES = 5
RUN_BUDGET_S = 170.0  # every run must end within 180 s



class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    """Pinned environment of every child process."""
    env = dict(os.environ)
    env.pop("BACKFLOW_WORKERS", None)  # measure the default (serial) path
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], env: dict, log: Path, timeout: float) -> tuple[int, float, float, float]:
    """Run one process to completion: (exit code, start, end, peak RSS in MiB)."""
    with log.open("wb") as fh:
        start = perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss / 1024.0


def source_fingerprint() -> dict:
    """Git commit when available, and a digest of the package sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def environment(env: dict) -> dict:
    """Versions and settings recorded with every result; fails if the package is missing."""
    if not (ROOT / "src" / "backflow" / "__init__.py").is_file():
        raise BenchmarkError(f"no package sources under {ROOT / 'src'}")
    log = OUT / f"env-{os.getpid()}.txt"
    try:
        code, _, _, _ = spawn([sys.executable, str(WORKER), "env"], env, log, 60.0)
        output = log.read_text()
    finally:
        log.unlink(missing_ok=True)
    if code != 0:
        raise BenchmarkError(f"cannot import the package:\n{output[-2000:]}")
    info = json.loads(output.strip().splitlines()[-1])
    if not Path(info["backflow_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchmarkError(f"imported {info['backflow_file']}, not the checkout's package")
    return {
        **info,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "backflow_workers": None,
        **source_fingerprint(),
    }


def measure_setup(name: str, env: dict, log: Path, deadline: float) -> float:
    """Fresh interpreter to a ready scenario, in a process of its own."""
    code, start, _, _ = spawn([sys.executable, str(WORKER), "setup", name], env, log,
                              deadline - perf_counter())
    if code != 0:
        raise BenchmarkError(f"setup of {name} failed:\n{log.read_text()[-2000:]}")
    return float(log.read_text().strip().splitlines()[-1]) - start


def run_repetition(workload, rep_dir: Path, seed: int, rep: int, traced: bool, env: dict,
                   deadline: float) -> dict:
    """One repetition: its processes back to back. Its outputs stay in rep_dir until
    check_repetitions has read them."""
    rep_dir.mkdir(parents=True)
    procs = workload.processes(rep_dir, seed, rep, traced)
    runs = [
        spawn(p.argv, env, rep_dir / f"log-{i}.txt", deadline - perf_counter())
        for i, p in enumerate(procs)
    ]
    return {
        "dir": rep_dir, "procs": procs, "runs": runs,
        "wall_s": runs[-1][2] - runs[0][1],
        "peak_rss_mib": max(r[3] for r in runs),
        "attempted": sum(p.operations for p in procs), "failed": 0,
        "latencies_ms": [], "problems": [],
    }


def check_repetitions(workload, reps: list[dict], env: dict, log: Path, deadline: float) -> None:
    """Check the outputs of the repetitions in one checks.py process, outside the
    measuring window, and fill in their failed operations and call latencies."""
    code, _, _, _ = spawn([sys.executable, str(CHECKER), workload.name,
                           *(str(r["dir"]) for r in reps)], env, log, deadline - perf_counter())
    try:
        checked = json.loads(log.read_text().strip().splitlines()[-1]) if code == 0 else None
    except (IndexError, json.JSONDecodeError):
        checked = None
    if checked is None or len(checked) != len(reps):
        checked = [None] * len(reps)
    for rep, rep_checked in zip(reps, checked):
        procs = rep.pop("procs")
        if rep_checked is None or len(rep_checked) != len(procs):
            rep_checked = [[None, [f"output checks broke: {log.read_text()[-1000:]}"], None]
                           ] * len(procs)
        for i, (proc, (code, start, end, _), (failed, problems, latencies)) in enumerate(
            zip(procs, rep.pop("runs"), rep_checked)
        ):
            if code != 0:
                failed, latencies = None, []
                text = (rep["dir"] / f"log-{i}.txt").read_text()[-1000:]
                problems = [f"exit code {code}: {text}"]
            rep["failed"] += proc.operations if failed is None else failed
            rep["problems"] += [f"process {i}: {p}" for p in problems]
            # A CLI process is itself the operation; workers time their own calls.
            rep["latencies_ms"] += [1000.0 * (end - start)] if latencies is None else latencies
        rep.pop("dir")


def merge_traces(rep_dir: Path) -> dict:
    """Sum the per-process statistics and collect the spans of a traced repetition."""
    stats = {name: [0, 0.0, 0.0] for name in tracer.NAMES}
    spans = []
    for i, path in enumerate(sorted(rep_dir.glob("trace-*.json"))):
        data = json.loads(path.read_text())
        for name, values in data["stats"].items():
            stats[name] = [a + b for a, b in zip(stats[name], values)]
        spans += [[f"{i}.{sid}", f"{i}.{parent}", name, start, end]
                  for sid, parent, name, start, end in data["spans"]]
    return {"stats": stats, "spans": spans}


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float) -> dict:
    metrics = {}
    for name, (count, busy, self_time) in trace["stats"].items():
        metrics[f"{name}.count"] = (count, "count")
        metrics[f"{name}.busy_s"] = (busy, "s")
        metrics[f"{name}.self_s"] = (self_time, "s")
    lookups = trace["stats"]["witness.EigenPropagator.unitary"][0]
    built = trace["stats"]["linalg.unitary_at"][0]
    metrics["witness.unitary_cache.hit_ratio"] = (1.0 - built / lookups if lookups else 0.0,
                                                  "ratio")
    point_ms = [1000.0 * (end - start) for _, _, name, start, end in trace["spans"]
                if name == "witness.evaluate_point"]
    # The 39th of the 40-quantile cut points is the 97.5th percentile.
    tail = statistics.quantiles(point_ms, n=40)[38] if len(point_ms) > 1 else 0.0
    metrics["witness.evaluate_point.p97_5_ms"] = (tail, "ms")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict, record: dict,
                 started: float) -> dict:
    workload = WORKLOADS[name]
    deadline = started + RUN_BUDGET_S
    work = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup, reps, rounds = [], [], []
        window_start = perf_counter()
        while True:
            t0 = perf_counter()
            reps.append(run_repetition(workload, work / f"rep-{len(reps)}", seed, len(reps),
                                       False, env, deadline))
            # Set-up probes follow every other repetition, so that they see the
            # same machine state as the repetitions.
            if not trace and len(reps) % 2 == 1:
                setup.append(measure_setup(name, env, work / f"setup-{len(setup)}.txt",
                                           deadline))
            rounds.append(perf_counter() - t0)
            # The window holds whole rounds: one more is started only if at
            # least half of a round of median length fits inside it, so that
            # a run takes --seconds on average.
            typical = statistics.median(rounds)
            if (perf_counter() - window_start + typical / 2 > seconds
                    or perf_counter() + typical > deadline):
                break
        while not trace and len(setup) < SETUP_PROBES:
            setup.append(measure_setup(name, env, work / f"setup-{len(setup)}.txt", deadline))
        traced = None
        if trace:
            rep_dir = work / "traced"
            traced = run_repetition(workload, rep_dir, seed, len(reps), True, env, deadline)
            traced["trace"] = merge_traces(rep_dir)
        check_repetitions(workload, reps + ([traced] if traced else []), env,
                          work / "checks.txt", deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [r["wall_s"] for r in reps]
    latencies = [x for r in reps for x in r["latencies_ms"]]
    all_reps = reps + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in all_reps)
    failed = sum(r["failed"] for r in all_reps)
    if trace:
        metrics = layer_metrics(traced["trace"], traced["wall_s"], statistics.median(walls))
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "call_ms_p50": (statistics.median(latencies), "ms"),
            "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in reps), "MiB"),
        }
    samples = {"wall_s": len(walls), "setup_s": len(setup), "call_ms_p50": len(latencies),
               "peak_rss_mib": len(reps)}
    record["workloads"][name] = {
        "sizes": {**workload.sizes, "repetitions": len(reps)},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "setup_s": setup,
        "repetitions": [{k: v for k, v in r.items() if k != "latencies_ms"} for r in reps],
        "call_latencies_ms": latencies,
        "traced": traced,
    }
    for k, (v, u) in metrics.items():
        n = f"  (n={samples[k]})" if k in samples else ""
        print(f"{name:<12} {k:<44} {v:>14.6g} {u}{n}")
    print(f"{name:<12} {'failed_frac':<44} {failed / attempted:>14.6g} ratio"
          f"  (attempted={attempted})")
    for problem in [p for r in all_reps for p in r["problems"]][:20]:
        print(f"{name:<12} check failed: {problem}", file=sys.stderr)
    return {"metrics": metrics, "attempted": attempted, "failed": failed}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit, so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = perf_counter()
    env = child_env()
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    record = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "workloads": {}}
    try:
        record["environment"] = environment(env)
        results = {}
        for name in names:
            # With "all", each workload gets a time budget of its own.
            start = started if len(names) == 1 else perf_counter()
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), env,
                                         record, start)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    results_dir = OUT / "results"
    results_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"record: {path.relative_to(ROOT)}")

    prefix = len(names) > 1
    metrics = {
        (f"{name}.{k}" if prefix else k): {"value": v, "unit": u}
        for name, res in results.items() for k, (v, u) in res["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
