"""Independent output checks for the benchmark workloads.

Nothing here imports the package under test. The dephasing qubit is
checked against its dephasing function k(t) = sum_m p_m exp(i w_m t) over
an independently rebuilt mode grid, evaluated vectorised over all written
points; the chain probe against the
single-excitation transfer amplitude f(t) of an (N+1)x(N+1) hopping
matrix (Bose, PRL 91, 207901 (2003)) and against a surface recorded from
the code at the commit that introduced the benchmark. Every check
returns a list of problems; an empty list means the output passed.

    checks.py WORKLOAD REP_DIR...

checks the outputs of one or more repetitions, in a process of its own so
that the measuring process stays small. It prints one JSON list with, for
each REP_DIR, a list with an entry [failed operations, problems, per-call
latencies in ms or null] for each process of the repetition; ``failed`` is
null when the check itself broke.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np

import workloads as wl

TOL = 1e-12
CLASS_EPS = 1e-9  # the package's default classification margin
RISE_TOL = 1e-10  # the package's default growth-detection tolerance

IMPOSSIBLE = "IncreaseImpossible"
GUARANTEED = "GuaranteedIncrease"
INCONCLUSIVE = "Inconclusive"

SURFACE_NUMBERS = ("t", "tprime", "D_t", "D_tplus", "F", "B", "deltaD", "lower", "upper")


# --------------------------------------------------------------------------
# reading tables
# --------------------------------------------------------------------------


def read_table(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CSV table written by the CLI."""
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        raw = {c: [] for c in reader.fieldnames or ()}
        for row in reader:
            for c, v in row.items():
                raw[c].append(v)
    return {
        c: np.array(v, dtype=object if c == "class" else float) for c, v in raw.items()
    }


def _max_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, float) - np.asarray(b, float)), initial=0.0))


def compare(name: str, got, want, tol: float = TOL) -> list[str]:
    got = np.asarray(got, float)
    want = np.asarray(want, float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    if not np.all(np.isfinite(got)):
        return [f"{name}: non-finite values"]
    dev = _max_dev(got, want)
    return [] if dev <= tol else [f"{name}: deviation {dev:.3e} exceeds {tol:.0e}"]


# --------------------------------------------------------------------------
# dephasing qubit: k(t) of the discretized mode grid
# --------------------------------------------------------------------------


def discrete_modes(params: dict, modes: int, window: float) -> tuple[np.ndarray, np.ndarray]:
    """Uniform frequency grid over a double Lorentzian, weights renormalized."""
    lo = min(params["omega0_1"] - window * params["delta1"],
             params["omega0_2"] - window * params["delta2"])
    hi = max(params["omega0_1"] + window * params["delta1"],
             params["omega0_2"] + window * params["delta2"])
    freqs = np.linspace(lo, hi, modes)
    r = params["r"]
    density = sum(
        w * d / ((freqs - c) ** 2 + d**2)
        for w, c, d in ((1.0, params["omega0_1"], params["delta1"]),
                        (r, params["omega0_2"], params["delta2"]))
    )
    return freqs, density / density.sum()


def discrete_k(freqs: np.ndarray, probs: np.ndarray, t) -> np.ndarray:
    t = np.asarray(t, float)
    return np.exp(1j * np.multiply.outer(t, freqs)) @ probs


def expected_labels(d_t, forecast, influence, eps: float = CLASS_EPS):
    """Classification of B against D -+ F, and where it is numerically ambiguous.

    A point is ambiguous when B, D or F lies within a few tolerances of a
    threshold, so that deviations inside the column tolerance could flip it.
    """
    d_t, forecast, influence = (np.asarray(x, float) for x in (d_t, forecast, influence))
    lower_thr = d_t - forecast - eps
    upper_thr = d_t + forecast + eps
    degenerate = (influence <= eps) & (d_t <= eps) & (forecast <= eps)
    labels = np.where(
        influence < lower_thr, IMPOSSIBLE,
        np.where(influence > upper_thr, GUARANTEED,
                 np.where(degenerate, IMPOSSIBLE, INCONCLUSIVE)),
    ).astype(object)
    margin = 4 * TOL
    ambiguous = (
        (np.abs(influence - lower_thr) <= margin)
        | (np.abs(influence - upper_thr) <= margin)
        | (np.abs(np.maximum(np.maximum(influence, d_t), forecast) - eps) <= margin)
    )
    return labels, ambiguous


def _compare_labels(name: str, got, want, ambiguous) -> list[str]:
    got = np.asarray(got, dtype=object)
    if got.shape != want.shape:
        return [f"{name}: {got.size} labels, expected {want.size}"]
    bad = int(np.sum((got != want) & ~ambiguous))
    return [] if bad == 0 else [f"{name}: {bad} labels differ from the oracle"]


def witness_columns(k, t, tprime) -> dict[str, np.ndarray]:
    """Every witness column of the optimal +/- pair from k alone."""
    kt, ktp, knext = k(t), k(tprime), k(np.asarray(t) + np.asarray(tprime))
    d_t = np.abs(kt)
    forecast = np.abs(kt * ktp)
    influence = np.abs(knext - kt * ktp)
    delta_d = np.abs(knext) - d_t
    return {
        "D_t": d_t, "D_tplus": d_t + delta_d, "F": forecast, "B": influence,
        "deltaD": delta_d, "lower": influence - forecast - d_t,
        "upper": influence + forecast - d_t,
    }


def check_witness_points(cols: dict[str, np.ndarray], k, where: str) -> list[str]:
    """Recompute D, F, B, deltaD, the window and the label at every point."""
    want = witness_columns(k, cols["t"], cols["tprime"])
    problems = []
    for name, values in want.items():
        problems += compare(f"{where} {name}", cols[name], values)
    labels, ambiguous = expected_labels(want["D_t"], want["F"], want["B"])
    problems += _compare_labels(f"{where} class", cols["class"], labels, ambiguous)
    return problems


# --------------------------------------------------------------------------
# probe on the XX chain: single-excitation oracle and recorded reference
# --------------------------------------------------------------------------


def transfer_amplitude(chain: dict, t) -> np.ndarray:
    """|f(t)| = |<1_0| exp(-i H_1 t) |1_0>| in the one-excitation sector.

    H = -2 J0 (XX + YY)_{01} - 2 J sum (XX + YY)_{n,n+1} - 2 B sum_{n>=1} Z_n
    hops one excitation between neighbours with amplitude -4 J0 / -4 J and,
    relative to an excitation on the probe, shifts it by +4 B on the chain.
    """
    n = chain["sites"] + 1
    h = np.zeros((n, n))
    h[0, 1] = h[1, 0] = -4.0 * chain["probe_exchange"]
    for i in range(1, n - 1):
        h[i, i + 1] = h[i + 1, i] = -4.0 * chain["exchange"]
    h[np.arange(1, n), np.arange(1, n)] = 4.0 * chain["field"]
    w, v = np.linalg.eigh(h)
    t = np.asarray(t, float)
    return np.abs(np.exp(-1j * np.multiply.outer(t, w)) @ (v[0] * v[0]))


def check_chain_surface(out_dir: Path, chain: dict, reference: Path) -> list[str]:
    """Chain surface against the recorded reference and the transfer oracle."""
    got = read_table(out_dir / "surface.csv")
    want = read_table(reference)
    problems = []
    for name in SURFACE_NUMBERS:
        problems += compare(f"surface {name}", got.get(name, np.zeros(0)), want[name])
    if problems:
        return problems
    if not np.array_equal(got["class"], want["class"]):
        problems.append("surface class differs from the reference")
    problems += compare("D_t vs |f(t)|", got["D_t"], transfer_amplitude(chain, got["t"]))
    problems += compare(
        "D_tplus vs |f(t+t')|", got["D_tplus"],
        transfer_amplitude(chain, got["t"] + got["tprime"]),
    )
    return problems


def accumulated_increase(values) -> float:
    steps = np.diff(np.asarray(values, float))
    return float(np.sum(steps[steps > RISE_TOL]))


def nm_max_oracle(chain: dict, times, pairs) -> tuple[float, tuple]:
    """Largest accumulated increase over antipodal pure pairs, from |f| alone.

    For the pair at polar angle theta and its antipode the probe distance is
    sqrt(|f|^2 sin^2 theta + |f|^4 cos^2 theta): coherences shrink by |f|,
    the population difference by |f|^2. Ties resolve to the first pair in
    sorted order, as in the package.
    """
    f = transfer_amplitude(chain, times)
    best, best_pair = -np.inf, None
    for pair in sorted(pairs):
        theta = pair[0][0]
        d = np.sqrt(f**2 * np.sin(theta) ** 2 + f**4 * np.cos(theta) ** 2)
        value = accumulated_increase(d)
        if value > best:
            best, best_pair = value, pair
    return best, best_pair


# --------------------------------------------------------------------------
# one repetition's outputs, per workload
# --------------------------------------------------------------------------

# Recorded from the package when the benchmark was introduced.
NM_MEASURE = 1.109459161996685
NM_ARGMAX = ((1.5707963267948966, 0.0), (1.5707963267948966, 3.141592653589793))


def _cli_result(problems: list[str]):
    return (1 if problems else 0), problems, None


def _fig3(rep_dir: Path):
    reference = wl.REFERENCE / "fig3_surface.csv"
    return [lambda: _cli_result(check_chain_surface(rep_dir / "fig3", wl.FIG3_CHAIN, reference))]


def _modes256(rep_dir: Path):
    def check():
        points = json.loads((rep_dir / "points.json").read_text())["points"]
        result = json.loads((rep_dir / "modes256-out.json").read_text())
        rows = result["rows"]
        if len(rows) != len(points):
            return len(points), [f"{len(rows)} points written, expected {len(points)}"], None
        freqs, probs = discrete_modes(wl.FIG2B, wl.MODES, wl.MODES_WINDOW)
        failed, problems = 0, []
        for (t, tp), row in zip(points, rows):
            cols = {c: np.array([v], dtype=object if c == "class" else float)
                    for c, v in zip(SURFACE_NUMBERS + ("class",), row)}
            bad = compare("point t, t'", row[:2], [t, tp])
            bad += check_witness_points(cols, lambda x: discrete_k(freqs, probs, x),
                                        f"point ({t}, {tp})")
            failed += bool(bad)
            problems += bad
        return failed, problems, result["latencies_ms"]

    return [check]


def _nm_max(rep_dir: Path):
    def check():
        result = json.loads((rep_dir / "nm-max-out.json").read_text())
        value = result["measure"]
        pair = tuple(tuple(p) for p in result["pair"])
        grid = [(tuple(p1), tuple(p2)) for p1, p2 in result["pairs"]]
        oracle, oracle_pair = nm_max_oracle(wl.NM_CHAIN, np.linspace(*wl.NM_TIMES), grid)
        problems = compare("measure vs recorded", [value], [NM_MEASURE])
        problems += compare("measure vs |f| oracle", [value], [oracle])
        if pair != NM_ARGMAX or pair != oracle_pair:
            problems.append(f"argmax pair {pair} differs from {NM_ARGMAX}")
        pairs = wl.NmMax.sizes["pairs"]
        if len(grid) != pairs:
            problems.append(f"{len(grid)} pairs scanned, expected {pairs}")
        return (pairs if problems else 0), problems, result["latencies_ms"]

    return [check]


CHECKS = {"fig3": _fig3, "modes256": _modes256, "nm-max": _nm_max}


def check_repetition(name: str, rep_dir: Path) -> list:
    results = []
    for check in CHECKS[name](rep_dir):
        try:
            results.append(list(check()))
        except Exception as exc:  # noqa: BLE001 - a missing or unreadable output fails its process
            results.append([None, [f"{type(exc).__name__}: {exc}"], None])
    return results


def main(argv: list[str]) -> int:
    name, *rep_dirs = argv
    print(json.dumps([check_repetition(name, Path(d)) for d in rep_dirs]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
