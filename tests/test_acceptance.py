"""Acceptance suite: one test per criterion, at the stated tolerances.

The preset surfaces are produced through the CLI (the deliverable's outer
interface) and read back from its CSV output; scenario-level checks go
through the library API. Expensive artifacts are session fixtures shared
across criteria.
"""

import csv
import json
import time

import numpy as np
import pytest

from backflow import linalg, spinchain, states, witness
from backflow.cli import main as cli_main
from backflow.dephasing import (
    DoubleLorentzian,
    SingleLorentzian,
    analytic_witnesses,
    discretize,
    full_model,
    tcl_coefficients,
)
from backflow.spinchain import SpinChainSpec
from backflow.states import BipartiteState
from backflow.witness import Classification, ScenarioPair, evaluate_point

from conftest import (
    chain_transfer_amplitude_direct,
    chain_witnesses_direct,
    double_lorentzian_k_direct,
)

BOUND_TOL = 1e-9
CLASS_EPS = 1e-9


def _report(num: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {status}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def _load_surface_csv(out_dir):
    with open(out_dir / "surface.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for raw in reader:
            row = {k: (v if k == "class" else float(v)) for k, v in raw.items()}
            rows.append(row)
    return rows


def _load_summary(out_dir):
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


def _run_preset(tmp_path_factory, name):
    out = tmp_path_factory.mktemp(f"accept_{name.replace('-', '_')}")
    started = time.monotonic()
    code = cli_main(["run", "--preset", name, "--out", str(out)])
    elapsed = time.monotonic() - started
    assert code == 0, f"preset {name} exited with {code}"
    return out, elapsed


@pytest.fixture(scope="session")
def fig2a_run(tmp_path_factory):
    out, _ = _run_preset(tmp_path_factory, "fig2a")
    return _load_surface_csv(out), _load_summary(out)


@pytest.fixture(scope="session")
def fig2b_run(tmp_path_factory):
    out, _ = _run_preset(tmp_path_factory, "fig2b")
    return _load_surface_csv(out), _load_summary(out)


@pytest.fixture(scope="session")
def semigroup_run(tmp_path_factory):
    out, _ = _run_preset(tmp_path_factory, "semigroup")
    return _load_surface_csv(out), _load_summary(out)


@pytest.fixture(scope="session")
def fig2c_run(tmp_path_factory):
    out, _ = _run_preset(tmp_path_factory, "fig2c")
    return _load_surface_csv(out), _load_summary(out)


@pytest.fixture(scope="session")
def fig3_run(tmp_path_factory):
    out, elapsed = _run_preset(tmp_path_factory, "fig3")
    print(f"\nfig3 preset (512-dim, 40x40 grid) completed in {elapsed:.1f}s")
    return _load_surface_csv(out), _load_summary(out)


@pytest.fixture(scope="session")
def random_scenario_points():
    """200 randomized small scenarios: dS=2, dE <= 8, random Hamiltonians,
    product initial states (environments equal on half of them)."""
    rng = np.random.default_rng(42)
    points = []
    for i in range(200):
        de = int(rng.integers(2, 9))
        eig = linalg.hermitian_eigensystem(linalg.random_hermitian(2 * de, rng))
        env1 = states.random_density(de, rng)
        env2 = env1 if i % 2 == 0 else states.random_density(de, rng)
        s1 = BipartiteState(np.kron(states.random_density(2, rng), env1), 2, de)
        s2 = BipartiteState(np.kron(states.random_density(2, rng), env2), 2, de)
        sc = ScenarioPair(state1=s1, state2=s2, propagator=eig)
        for t, tp in rng.uniform(0.0, 2.5, size=(4, 2)):
            points.append(evaluate_point(sc, float(tp), float(t), eps=CLASS_EPS))
    return points


@pytest.fixture(scope="session")
def equivalence_points():
    """Explicit 256-mode model vs the closed discrete-k formulas, 20x20 grid."""
    env = discretize(
        DoubleLorentzian(omega0_1=1.0, delta1=1.0, omega0_2=9.0, delta2=1.0, r=1.0),
        modes=256,
        window=40.0,
    )
    sc = full_model(env)
    grid = np.linspace(0.0, 3.0, 20)
    records = []
    for t in grid:
        for tp in grid:
            point = evaluate_point(sc, float(tp), float(t), eps=CLASS_EPS)
            expected = analytic_witnesses(env, float(tp), float(t))
            records.append((point, expected))
    return records


def _csv_bound_excess(rows):
    worst = 0.0
    for row in rows:
        worst = max(worst, row["lower"] - row["deltaD"], row["deltaD"] - row["upper"])
    return worst


def test_criterion_1_bound_sandwich(fig2a_run, fig2b_run, fig3_run, random_scenario_points):
    started = time.monotonic()
    worst = 0.0
    for rows, _ in (fig2a_run, fig2b_run, fig3_run):
        worst = max(worst, _csv_bound_excess(rows))
    for p in random_scenario_points:
        worst = max(worst, p.lower - p.delta_d, p.delta_d - p.upper)
    elapsed = time.monotonic() - started
    _report(
        1,
        worst <= BOUND_TOL,
        f"worst bound excess {worst:.3e} over {len(random_scenario_points)} random points "
        f"plus three preset grids (checked in {elapsed:.1f}s)",
    )


def test_criterion_2_semigroup(semigroup_run):
    rows, summary = semigroup_run
    max_b = max(row["B"] for row in rows)
    d_err = max(abs(row["D_t"] - np.exp(-row["t"])) for row in rows)
    dist = SingleLorentzian(omega0=1.0, delta=1.0)
    ts = np.linspace(0.0, 3.0, 50)
    coeff_err = max(
        max(abs(tcl_coefficients(dist, t)[0] - 0.5), abs(tcl_coefficients(dist, t)[1] - 0.5))
        for t in ts
    )
    ok = max_b <= 1e-12 and d_err <= 1e-12 and coeff_err <= 1e-12 and summary["measure"] == 0.0
    _report(
        2,
        ok,
        f"max|B|={max_b:.2e}, exponential-decay error {d_err:.2e}, "
        f"rate error {coeff_err:.2e}, measure {summary['measure']}",
    )


def test_criterion_3_analytic_full_equivalence(equivalence_points):
    worst = 0.0
    for point, (d_t, forecast, influence, delta_d) in equivalence_points:
        worst = max(
            worst,
            abs(point.d_t - d_t),
            abs(point.forecast - forecast),
            abs(point.influence - influence),
            abs(point.delta_d - delta_d),
        )
    _report(
        3,
        worst <= 1e-9,
        f"worst deviation {worst:.3e} across {len(equivalence_points)} grid points (M=256)",
    )


FIG2C_TPRIME = 0.3


def _excess_over_upper(params, r, ts, tprime):
    """B - (D + F) of the optimal +/- pair on the fig2c spectrum, from the
    independent closed-form k(t): D = |k(t)|, F = |k(t)k(t')|,
    B = |k(t+t') - k(t)k(t')|."""

    def k(t):
        return double_lorentzian_k_direct(
            t, params["omega0_1"], params["delta1"], params["omega0_2"], params["delta2"], r
        )

    kt, ktp, knext = k(ts), k(tprime), k(ts + tprime)
    return np.abs(knext - kt * ktp) - np.abs(kt) - np.abs(kt * ktp)


def _crossing_ratio(params, ts, tprime, iterations=60):
    """Root in r of max_t [B - (D + F)] on the grid ts, by bisection on [0, 1]."""
    lo, hi = 0.0, 1.0
    assert _excess_over_upper(params, lo, ts, tprime).max() <= 0.0
    assert _excess_over_upper(params, hi, ts, tprime).max() > 0.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if _excess_over_upper(params, mid, ts, tprime).max() > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_criterion_4_markov_transition(fig2a_run, fig2b_run, fig2c_run):
    rows_a, summary_a = fig2a_run
    ok_a = (
        summary_a["classification_counts"]["GuaranteedIncrease"] == 0
        and summary_a["measure"] == 0.0
    )
    rows_b, summary_b = fig2b_run
    above_b = sum(
        1 for row in rows_b if row["B"] > row["D_t"] + row["F"] + CLASS_EPS
    )
    ok_b = above_b >= 1 and summary_b["measure"] > 0.0

    _, summary_c = fig2c_run
    by_r = {entry["r"]: entry for entry in summary_c["per_ratio"]}
    ok_c_zero = by_r[0.0]["max_influence"] <= 1e-12
    # With equal widths d, |k(t)|^2 ~ e^{-2dt}(1 + r^2 + 2r cos((w2 - w1)t)) never
    # grows while r^2 + ((w2 - w1)/d) r - 1 <= 0, and then the lower edge of the
    # window gives B <= D + F: no ratio up to r_BLP can be certified.
    params = summary_c["parameters"]
    width = params["delta1"]
    gap = (params["omega0_2"] - params["omega0_1"]) / width
    r_blp = (np.sqrt(gap * gap + 4.0) - gap) / 2.0
    certified = [r for r, entry in sorted(by_r.items()) if entry["points_above_upper"] > 0]
    ok_c_necessity = params["delta2"] == width and all(r > r_blp for r in certified)

    grid = summary_c["t_grid"]
    ts = np.linspace(grid["min"], grid["max"], grid["count"])
    mismatched = []
    for r, entry in sorted(by_r.items()):
        excess = _excess_over_upper(params, r, ts, summary_c["tprime"])
        count = int(np.sum(excess > summary_c["class_eps"]))
        if (
            entry["points_above_upper"] != count
            or abs(entry["max_excess_over_upper"] - float(excess.max())) > 1e-12
        ):
            mismatched.append(r)
    ok_c_oracle = not mismatched

    fine = np.linspace(grid["min"], grid["max"], 30001)
    r_star = _crossing_ratio(params, fine, FIG2C_TPRIME)
    ok_c_transition = (
        summary_c["tprime"] == FIG2C_TPRIME
        and 0.40 < r_star < 0.45
        and any(r > r_star for r in by_r)
        and all((by_r[r]["points_above_upper"] > 0) == (r > r_star) for r in by_r)
    )

    detail = (
        f"fig2a clean={ok_a}, fig2b above-threshold points={above_b} "
        f"measure={summary_b['measure']:.4f}, fig2c r=0 max|B|={by_r[0.0]['max_influence']:.1e}"
        f"; fig2c r_BLP={r_blp:.4f}, r*={r_star:.4f} at t'={FIG2C_TPRIME}, "
        f"first certified ratio {certified[0] if certified else None}"
    )
    if not ok_c_necessity:
        detail += f"; certified ratios at or below r_BLP: {[r for r in certified if r <= r_blp]}"
    if mismatched:
        detail += f"; counts or excess off the closed form for r in {mismatched}"
    if not ok_c_transition:
        detail += f"; certified ratios {certified} at t'={summary_c['tprime']} do not switch on at r*"
    _report(
        4,
        ok_a and ok_b and ok_c_zero and ok_c_necessity and ok_c_oracle and ok_c_transition,
        detail,
    )


def test_criterion_5_spin_chain(fig3_run):
    rows, summary = fig3_run
    assert len(rows) == 1600
    certified_early = [
        row
        for row in rows
        if row["class"] == Classification.GUARANTEED_INCREASE.value
        and row["t"] + row["tprime"] < 3.0
    ]
    worst = _csv_bound_excess(rows)
    ok = len(certified_early) >= 1 and worst <= BOUND_TOL
    _report(
        5,
        ok,
        f"{len(certified_early)} certified-increase points with J(t+t')<3, "
        f"worst bound excess {worst:.3e} over 1600 points",
    )


def test_fig3_distances_match_transfer_amplitude(fig3_run):
    """D(t) and D(t + t') of the 512-dimensional run against |f| of the
    9-dimensional single-excitation sector, on every point."""
    rows, summary = fig3_run
    chain = summary["parameters"]
    assert chain == dict(sites=8, exchange=1.0, probe_exchange=1.0, field=0.01)
    t = np.array([row["t"] for row in rows])
    tprime = np.array([row["tprime"] for row in rows])
    d_t = np.array([row["D_t"] for row in rows])
    d_next = np.array([row["D_tplus"] for row in rows])
    assert len(rows) == 1600
    worst = max(
        float(np.max(np.abs(d_t - chain_transfer_amplitude_direct(t, **chain)))),
        float(np.max(np.abs(d_next - chain_transfer_amplitude_direct(t + tprime, **chain)))),
    )
    assert worst <= 1e-12, f"worst deviation from |f| is {worst:.3e}"


def test_fig3_witnesses_match_free_fermions(fig3_run):
    """D(t), D(t + t'), F and B of the 512-dimensional run against the
    46-dimensional free-fermion propagation, on every point."""
    rows, summary = fig3_run
    chain = summary["parameters"]
    t = np.array([row["t"] for row in rows]).reshape(40, 40)
    tprime = np.array([row["tprime"] for row in rows]).reshape(40, 40)
    assert np.all(t == t[:, :1]) and np.all(tprime == tprime[:1])
    expected = chain_witnesses_direct(t[:, 0], tprime[0], **chain)
    worst = {}
    for column, oracle in zip(("D_t", "D_tplus", "F", "B"), expected):
        got = np.array([row[column] for row in rows]).reshape(40, 40)
        worst[column] = float(np.max(np.abs(got - oracle)))
    assert max(worst.values()) <= 1e-12, f"worst deviations from free fermions: {worst}"


def test_criterion_6_correlation_decomposition():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    split = states.decompose(BipartiteState(np.outer(bell, bell.conj()), 2, 2))
    bell_err = abs(split.correlation_norm() - 1.5)

    rng = np.random.default_rng(7)
    worst = 0.0
    dims = [(2, 2), (2, 3), (2, 4), (3, 3), (4, 2)]
    for i in range(100):
        ds, de = dims[i % len(dims)]
        joint = BipartiteState(states.random_density(ds * de, rng), ds, de)
        s = states.decompose(joint)
        product = linalg.tensor_product(s.system, s.environment)
        worst = max(
            worst,
            abs(s.correlation_norm() - 2.0 * linalg.trace_distance(product, joint.op)),
        )
    ok = bell_err <= 1e-12 and worst <= 1e-10
    _report(6, ok, f"Bell norm error {bell_err:.2e}, worst identity error {worst:.2e}")


def test_criterion_7_necessity_sufficiency(
    fig2a_run, fig2b_run, semigroup_run, fig3_run, random_scenario_points, equivalence_points
):
    checked = 0
    bad_sufficiency = 0
    bad_necessity = 0
    guaranteed = Classification.GUARANTEED_INCREASE.value
    impossible = Classification.INCREASE_IMPOSSIBLE.value
    for rows, _ in (fig2a_run, fig2b_run, semigroup_run, fig3_run):
        for row in rows:
            checked += 1
            if row["class"] == guaranteed and not row["deltaD"] > 0:
                bad_sufficiency += 1
            if row["deltaD"] > 0 and row["class"] == impossible:
                bad_necessity += 1
    for p in random_scenario_points + [pt for pt, _ in equivalence_points]:
        checked += 1
        if p.label is Classification.GUARANTEED_INCREASE and not p.delta_d > 0:
            bad_sufficiency += 1
        if p.delta_d > 0 and p.label is Classification.INCREASE_IMPOSSIBLE:
            bad_necessity += 1
    ok = bad_sufficiency == 0 and bad_necessity == 0
    _report(
        7,
        ok,
        f"{checked} points checked; {bad_sufficiency} sufficiency and "
        f"{bad_necessity} necessity violations",
    )


def test_criterion_8_weak_bound_dominates(fig3_run):
    rows, _ = fig3_run
    max_delta_by_t: dict[float, float] = {}
    for row in rows:
        key = row["t"]
        max_delta_by_t[key] = max(max_delta_by_t.get(key, -np.inf), row["deltaD"])
    sc = spinchain.scenario(
        SpinChainSpec(sites=8, exchange=1.0, probe_exchange=1.0, field=0.01)
    )
    worst_margin = np.inf
    for t, max_delta in max_delta_by_t.items():
        cap = witness.weak_upper_bound(sc, t)
        worst_margin = min(worst_margin, cap - max_delta)
    _report(
        8,
        worst_margin >= -BOUND_TOL,
        f"min(weak bound - max delta) = {worst_margin:.3e} over {len(max_delta_by_t)} rows",
    )
