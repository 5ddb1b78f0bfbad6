"""Scenario runner: presets or config files in, CSV/JSON tables out.

A run produces three files in the output directory: a surface table (one
row per evaluated (t, t') point), a profile table (reduced distance along
the t grid with growth-interval flags) and a summary.json with the
measure, classification counts and the worst bound violation (zero on any
successful run, since evaluation aborts on violations).

Exit codes: 0 success, 1 config error, 2 invariant violation. Configs are
flat INI files whose sections mirror the run options; see the README for
the format.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import blp, linalg, spinchain, states, witness
from .blp import MonotonicityProfile, increasing_intervals
from .dephasing import (
    DoubleLorentzian,
    SingleLorentzian,
    analytic_surface,
    analytic_witnesses,
    dephasing_function,
    discretize,
    full_model,
    tcl_coefficients,
)
from .spinchain import SpinChainSpec
from .witness import InvariantViolation, WitnessSurface

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_INVARIANT = 2

SURFACE_COLUMNS = ("t", "tprime", "D_t", "D_tplus", "F", "B", "deltaD", "lower", "upper", "class")
PROFILE_COLUMNS = ("t", "D", "interval_flag")
SWEEP_COLUMNS = ("t", "r", "B", "upper")


class ConfigError(ValueError):
    """Unusable configuration or command line."""


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"grid count must be >= 1, got {self.count}")
        if self.lo < 0:
            raise ConfigError(f"grid minimum must be nonnegative, got {self.lo}")
        if self.hi < self.lo:
            raise ConfigError(f"grid maximum {self.hi} is below minimum {self.lo}")

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)

    def as_dict(self) -> dict:
        return {"min": self.lo, "max": self.hi, "count": self.count}


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; grids left as None fall back to the scenario's defaults."""

    scenario: dict
    t_grid: GridSpec | None = None
    tprime_grid: GridSpec | None = None
    class_eps: float = witness.DEFAULT_CLASS_EPS
    rise_tol: float = blp.DEFAULT_RISE_TOL
    out_dir: str = "out"
    fmt: str = "csv"


DEFAULT_GRID = GridSpec(0.0, 3.0, 50)
FIG3_GRID = GridSpec(0.0, 3.0, 40)
SWEEP_RATIOS = tuple(round(0.05 * i, 2) for i in range(21))
SWEEP_TPRIME = 0.3
BELL_CHECK_SEED = 20240317


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    kind: str  # "analytic" | "chain" | "sweep" | "check"
    params: dict = field(default_factory=dict)
    t_grid: GridSpec = DEFAULT_GRID
    tprime_grid: GridSpec = DEFAULT_GRID


PRESETS: dict[str, Preset] = {
    "semigroup": Preset(
        name="semigroup",
        description="single Lorentzian (center=width): memoryless reference, "
        "exponential distance decay, influence term identically zero",
        kind="analytic",
        params={"model": "single_lorentzian", "omega0": 1.0, "delta": 1.0},
    ),
    "fig2a": Preset(
        name="fig2a",
        description="double Lorentzian, equal centers, width ratio 10, r=1: "
        "influence stays below the lower threshold (Markovian)",
        kind="analytic",
        params={
            "model": "double_lorentzian",
            "omega0_1": 1.0, "delta1": 1.0, "omega0_2": 1.0, "delta2": 10.0, "r": 1.0,
        },
    ),
    "fig2b": Preset(
        name="fig2b",
        description="double Lorentzian, centers 1 and 9 at common width, r=1: "
        "influence exceeds the upper threshold (non-Markovian)",
        kind="analytic",
        params={
            "model": "double_lorentzian",
            "omega0_1": 1.0, "delta1": 1.0, "omega0_2": 9.0, "delta2": 1.0, "r": 1.0,
        },
    ),
    "fig2c": Preset(
        name="fig2c",
        description=f"transition sweep over the component ratio r in {{0, 0.05, ..., 1}} "
        f"at fixed t' = {SWEEP_TPRIME} (centers 1 and 9, common width)",
        kind="sweep",
        params={"omega0_1": 1.0, "delta1": 1.0, "omega0_2": 9.0, "delta2": 1.0},
    ),
    "fig3": Preset(
        name="fig3",
        description="probe qubit on an 8-site XX chain, J0/J=1, B/J=0.01: "
        "thresholds crossed well inside the recurrence time",
        kind="chain",
        params={
            "model": "spin_chain",
            "sites": 8, "exchange": 1.0, "probe_exchange": 1.0, "field": 0.01,
        },
        t_grid=FIG3_GRID,
        tprime_grid=FIG3_GRID,
    ),
    "bell-check": Preset(
        name="bell-check",
        description="correlation-split oracle: maximally entangled pair and "
        "random joint states, norm identity checked",
        kind="check",
    ),
}


# --------------------------------------------------------------------------
# config parsing
# --------------------------------------------------------------------------

_KNOWN_SECTIONS = {"scenario", "t_grid", "tprime_grid", "tolerances", "output"}
_MODEL_KEYS = {
    "single_lorentzian": {"omega0", "delta"},
    "double_lorentzian": {"omega0_1", "delta1", "omega0_2", "delta2", "r"},
    "spin_chain": {"sites", "exchange", "probe_exchange", "field"},
}


def _parse_float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as a number") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{where}: {raw!r} is not a finite number")
    return value


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as an integer") from exc


def _parse_grid(section: configparser.SectionProxy, name: str) -> GridSpec:
    keys = set(section.keys())
    if keys != {"min", "max", "count"}:
        raise ConfigError(f"[{name}] must define exactly min, max, count (got {sorted(keys)})")
    return GridSpec(
        lo=_parse_float(section["min"], f"[{name}] min"),
        hi=_parse_float(section["max"], f"[{name}] max"),
        count=_parse_int(section["count"], f"[{name}] count"),
    )


def parse_config(path: str | Path) -> RunConfig:
    """Read a run configuration from a flat INI file."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    unknown = set(cp.sections()) - _KNOWN_SECTIONS
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    if "scenario" not in cp:
        raise ConfigError("config must have a [scenario] section")
    scenario = dict(cp["scenario"])

    t_grid = _parse_grid(cp["t_grid"], "t_grid") if "t_grid" in cp else None
    tprime_grid = _parse_grid(cp["tprime_grid"], "tprime_grid") if "tprime_grid" in cp else None

    class_eps = witness.DEFAULT_CLASS_EPS
    rise_tol = blp.DEFAULT_RISE_TOL
    if "tolerances" in cp:
        tol = cp["tolerances"]
        extra = set(tol.keys()) - {"class_eps", "rise_tol"}
        if extra:
            raise ConfigError(f"unknown tolerance keys: {sorted(extra)}")
        if "class_eps" in tol:
            class_eps = _parse_float(tol["class_eps"], "[tolerances] class_eps")
        if "rise_tol" in tol:
            rise_tol = _parse_float(tol["rise_tol"], "[tolerances] rise_tol")
        for key, value in (("class_eps", class_eps), ("rise_tol", rise_tol)):
            if value < 0:
                raise ConfigError(f"[tolerances] {key} must be nonnegative, got {value}")

    out_dir = "out"
    fmt = "csv"
    if "output" in cp:
        out = cp["output"]
        extra = set(out.keys()) - {"path", "format"}
        if extra:
            raise ConfigError(f"unknown output keys: {sorted(extra)}")
        out_dir = out.get("path", out_dir)
        fmt = out.get("format", fmt)
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output format must be csv or json, got {fmt!r}")

    return RunConfig(
        scenario=scenario, t_grid=t_grid, tprime_grid=tprime_grid,
        class_eps=class_eps, rise_tol=rise_tol, out_dir=out_dir, fmt=fmt,
    )


# --------------------------------------------------------------------------
# scenario resolution
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Job:
    name: str
    kind: str
    params: dict
    t_grid: GridSpec
    tprime_grid: GridSpec


def _num(params: dict, key: str, where: str) -> float:
    if key not in params:
        raise ConfigError(f"{where}: missing parameter {key!r}")
    value = params[key]
    return value if isinstance(value, (int, float)) else _parse_float(value, f"{where} {key}")


def _resolve_job(cfg: RunConfig) -> _Job:
    scenario = dict(cfg.scenario)
    if "preset" in scenario:
        name = scenario.pop("preset")
        if scenario:
            raise ConfigError(f"preset runs take no extra scenario keys: {sorted(scenario)}")
        if name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r}; run list-presets to see choices")
        preset = PRESETS[name]
        return _Job(
            name=name, kind=preset.kind, params=dict(preset.params),
            t_grid=cfg.t_grid or preset.t_grid,
            tprime_grid=cfg.tprime_grid or preset.tprime_grid,
        )
    if "model" not in scenario:
        raise ConfigError("scenario needs either 'preset' or 'model'")
    model = scenario["model"]
    if model not in _MODEL_KEYS:
        raise ConfigError(f"unknown model {model!r}; choose from {sorted(_MODEL_KEYS)}")
    extra = set(scenario) - _MODEL_KEYS[model] - {"model"}
    if extra:
        raise ConfigError(f"unknown parameters for {model}: {sorted(extra)}")
    kind = "chain" if model == "spin_chain" else "analytic"
    return _Job(
        name=model, kind=kind, params=scenario,
        t_grid=cfg.t_grid or DEFAULT_GRID,
        tprime_grid=cfg.tprime_grid or DEFAULT_GRID,
    )


def _build_distribution(params: dict, where: str):
    model = params.get("model")
    if model == "single_lorentzian":
        return SingleLorentzian(
            omega0=_num(params, "omega0", where), delta=_num(params, "delta", where)
        )
    if model == "double_lorentzian":
        return DoubleLorentzian(
            omega0_1=_num(params, "omega0_1", where), delta1=_num(params, "delta1", where),
            omega0_2=_num(params, "omega0_2", where), delta2=_num(params, "delta2", where),
            r=_num(params, "r", where),
        )
    raise ConfigError(f"{where}: not a frequency-distribution model: {model!r}")


def _build_chain_spec(params: dict, where: str) -> SpinChainSpec:
    sites = params.get("sites")
    sites = sites if isinstance(sites, int) else _parse_int(str(sites), f"{where} sites")
    try:
        return SpinChainSpec(
            sites=sites,
            exchange=_num(params, "exchange", where),
            probe_exchange=_num(params, "probe_exchange", where),
            field=_num(params, "field", where),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# --------------------------------------------------------------------------
# output writers
# --------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _surface_rows(surface: WitnessSurface) -> list[list]:
    rows = []
    for p in surface.iter_points():
        rows.append([
            p.t, p.tprime, p.d_t, p.d_next, p.forecast, p.influence,
            p.delta_d, p.lower, p.upper, p.label.value,
        ])
    return rows


def _write_table(path: Path, columns: tuple[str, ...], rows: list[list], fmt: str) -> Path:
    """Write rows as CSV (15 significant digits) or JSON records."""
    out = path.with_suffix(".csv" if fmt == "csv" else ".json")
    if fmt == "csv":
        with out.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    else:
        records = [dict(zip(columns, row)) for row in rows]
        with out.open("w") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")
    return out


def _write_summary(out_dir: Path, summary: dict) -> Path:
    path = out_dir / "summary.json"
    with path.open("w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _profile_rows(profile: MonotonicityProfile) -> list[list]:
    flags = profile.flags()
    return [
        [float(t), float(v), int(f)]
        for t, v, f in zip(profile.times, profile.values, flags)
    ]


# --------------------------------------------------------------------------
# job execution
# --------------------------------------------------------------------------


def _run_surface_job(job: _Job, cfg: RunConfig, out_dir: Path) -> dict:
    ts = job.t_grid.points()
    tps = job.tprime_grid.points()
    if job.kind == "analytic":
        dist = _build_distribution(job.params, f"scenario {job.name}")
        surface = analytic_surface(dist, ts, tps, eps=cfg.class_eps)
    else:
        spec = _build_chain_spec(job.params, f"scenario {job.name}")
        scenario = spinchain.scenario(spec)
        surface = witness.evaluate_surface(scenario, ts, tps, eps=cfg.class_eps)
    profile = increasing_intervals(ts, surface.row_distances(), cfg.rise_tol)
    measure = profile.total_increase()

    _write_table(out_dir / "surface", SURFACE_COLUMNS, _surface_rows(surface), cfg.fmt)
    _write_table(out_dir / "profile", PROFILE_COLUMNS, _profile_rows(profile), cfg.fmt)
    return {
        "scenario": job.name,
        "parameters": {k: v for k, v in job.params.items() if k != "model"},
        "points": len(ts) * len(tps),
        "classification_counts": surface.classification_counts(),
        "max_bound_violation": surface.max_bound_violation(),
        "measure": measure,
        "growth_intervals": [list(iv) for iv in profile.interval_times()],
        "t_grid": job.t_grid.as_dict(),
        "tprime_grid": job.tprime_grid.as_dict(),
        "class_eps": cfg.class_eps,
        "rise_tol": cfg.rise_tol,
    }


def _run_sweep_job(job: _Job, cfg: RunConfig, out_dir: Path) -> dict:
    """Influence versus the upper threshold while the component ratio ramps up."""
    ts = job.t_grid.points()
    tprime = SWEEP_TPRIME
    base = job.params
    centres = {k: _num(base, k, "sweep") for k in ("omega0_1", "delta1", "omega0_2", "delta2")}
    rows: list[list] = []
    per_ratio: list[dict] = []
    for r in SWEEP_RATIOS:
        dist = DoubleLorentzian(**centres, r=r)
        # D = |k(t)|, F = |k(t)k(t')|, B = |k(t+t') - k(t)k(t')|, as in analytic_witnesses.
        k_t = dephasing_function(dist, ts)
        k_step = k_t * dephasing_function(dist, tprime)
        influence = np.abs(dephasing_function(dist, ts + tprime) - k_step)
        upper = np.abs(k_t) + np.abs(k_step)
        rows.extend(
            [t, r, b, u] for t, b, u in zip(ts.tolist(), influence.tolist(), upper.tolist())
        )
        per_ratio.append({
            "r": r, "max_influence": float(influence.max()),
            "max_excess_over_upper": float((influence - upper).max()),
            "points_above_upper": int(np.count_nonzero(influence > upper + cfg.class_eps)),
        })
    _write_table(out_dir / "surface", SWEEP_COLUMNS, rows, cfg.fmt)

    # Profile along t for the final ratio, where the transition is fully developed.
    profile = increasing_intervals(ts, np.abs(k_t), cfg.rise_tol)
    _write_table(out_dir / "profile", PROFILE_COLUMNS, _profile_rows(profile), cfg.fmt)
    return {
        "scenario": job.name,
        "parameters": {k: v for k, v in base.items() if k != "model"},
        "tprime": tprime,
        "ratios": list(SWEEP_RATIOS),
        "per_ratio": per_ratio,
        "profile_ratio": SWEEP_RATIOS[-1],
        "measure": profile.total_increase(),
        "t_grid": job.t_grid.as_dict(),
        "class_eps": cfg.class_eps,
        "rise_tol": cfg.rise_tol,
    }


def _run_check_job(job: _Job, cfg: RunConfig, out_dir: Path) -> dict:
    """Correlation-split oracle: exact values on the maximally entangled pair,
    norm identity on random joint states."""
    bell_vec = np.zeros(4, dtype=complex)
    bell_vec[0] = bell_vec[3] = 1.0 / np.sqrt(2.0)
    bell = states.BipartiteState(np.outer(bell_vec, bell_vec.conj()), 2, 2)
    split = states.decompose(bell)
    norm = split.correlation_norm()
    marginal_err = max(
        float(np.max(np.abs(split.system - np.eye(2) / 2))),
        float(np.max(np.abs(split.environment - np.eye(2) / 2))),
    )
    identity_err = abs(
        norm - 2.0 * linalg.trace_distance(
            linalg.tensor_product(split.system, split.environment), bell.op
        )
    )
    try:
        worst_random = _check_correlation_split(np.random.default_rng(BELL_CHECK_SEED))
    except AssertionError as exc:
        raise InvariantViolation(f"correlation split failed on random states: {exc}") from exc
    summary = {
        "scenario": job.name,
        "bell_correlation_norm": norm,
        "bell_norm_error": abs(norm - 1.5),
        "bell_marginal_error": marginal_err,
        "bell_identity_error": identity_err,
        "random_identity_worst_error": worst_random,
    }
    ok = (
        abs(norm - 1.5) <= 1e-12
        and marginal_err <= 1e-12
        and identity_err <= 1e-10
        and worst_random <= 1e-10
    )
    summary["pass"] = bool(ok)
    if not ok:
        raise InvariantViolation(f"correlation-split oracle failed: {summary}")
    return summary


def run(cfg: RunConfig) -> int:
    """Execute a run; returns the process exit status."""
    job = _resolve_job(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if job.kind in ("analytic", "chain"):
            summary = _run_surface_job(job, cfg, out_dir)
        elif job.kind == "sweep":
            summary = _run_sweep_job(job, cfg, out_dir)
        elif job.kind == "check":
            summary = _run_check_job(job, cfg, out_dir)
        else:
            raise ConfigError(f"unknown job kind {job.kind!r}")
    except InvariantViolation as exc:
        _write_summary(out_dir, {"scenario": job.name, "error": str(exc)})
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    _write_summary(out_dir, summary)
    return EXIT_OK


def list_presets() -> str:
    lines = [f"{name:<11} {preset.description}" for name, preset in PRESETS.items()]
    return "\n".join(lines)


# --------------------------------------------------------------------------
# audit: the invariant battery behind `backflow audit`
# --------------------------------------------------------------------------


def _check_trace_norm_triangle(rng):
    for _ in range(30):
        dim = int(rng.integers(2, 9))
        a = linalg.random_hermitian(dim, rng)
        b = linalg.random_hermitian(dim, rng)
        na, nb = linalg.trace_norm(a), linalg.trace_norm(b)
        nd = linalg.trace_norm(a - b)
        assert abs(na - nb) <= nd + 1e-10, "lower triangle bound failed"
        assert nd <= na + nb + 1e-10, "upper triangle bound failed"


def _check_contractivity(rng):
    for _ in range(20):
        ds, de = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        m1 = states.random_density(ds * de, rng)
        m2 = states.random_density(ds * de, rng)
        reduced = linalg.trace_distance(
            linalg.partial_trace(m1, ds, de), linalg.partial_trace(m2, ds, de)
        )
        assert reduced <= linalg.trace_distance(m1, m2) + 1e-10, "partial trace expanded distance"


def _check_unitary_invariance(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        r1 = states.random_density(dim, rng)
        r2 = states.random_density(dim, rng)
        eig = linalg.hermitian_eigensystem(linalg.random_hermitian(dim, rng))
        u = linalg.unitary_at(eig, float(rng.uniform(0.1, 2.0)))
        before = linalg.trace_distance(r1, r2)
        after = linalg.trace_distance(linalg.conjugate(u, r1), linalg.conjugate(u, r2))
        assert abs(before - after) <= 1e-10, "conjugation changed the distance"


def _check_correlation_split(rng) -> float:
    """Reconstruction, traceless marginals and the norm identity on random
    joint states; returns the worst norm-identity error."""
    worst = 0.0
    for ds, de in ((2, 2), (2, 3), (3, 3)):
        for _ in range(8):
            joint = states.BipartiteState(states.random_density(ds * de, rng), ds, de)
            split = states.decompose(joint)
            recon = float(np.max(np.abs(split.reconstruct() - joint.op)))
            assert recon <= 1e-12, f"reconstruction error {recon}"
            for keep in ("system", "environment"):
                marg = linalg.partial_trace(split.correlation, ds, de, keep)
                assert float(np.max(np.abs(marg))) <= 1e-12, "correlation marginal not zero"
            lhs = split.correlation_norm()
            rhs = 2.0 * linalg.trace_distance(
                linalg.tensor_product(split.system, split.environment), joint.op
            )
            worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-10, f"norm identity failed: error {worst:.3e}"
    return worst


def _random_scenario(rng) -> witness.ScenarioPair:
    ds = 2
    de = int(rng.integers(2, 9))
    eig = linalg.hermitian_eigensystem(linalg.random_hermitian(ds * de, rng))
    env1 = states.random_density(de, rng)
    env2 = env1 if rng.uniform() < 0.5 else states.random_density(de, rng)
    s1 = states.BipartiteState(
        linalg.tensor_product(states.random_density(ds, rng), env1), ds, de
    )
    s2 = states.BipartiteState(
        linalg.tensor_product(states.random_density(ds, rng), env2), ds, de
    )
    return witness.ScenarioPair(state1=s1, state2=s2, propagator=eig)


def _check_bound_window(rng):
    for _ in range(25):
        sc = _random_scenario(rng)
        for _ in range(3):
            t = float(rng.uniform(0.0, 2.0))
            tp = float(rng.uniform(0.0, 2.0))
            p = witness.evaluate_point(sc, tp, t)  # raises on a window escape
            assert p.lower - 1e-9 <= p.delta_d <= p.upper + 1e-9
            assert p.d_t - p.forecast >= -1e-9, "forecast exceeded current distance"
            assert 0.0 <= p.influence <= 2.0 + 1e-12


def _check_exponential_reference(rng):
    dist = SingleLorentzian(omega0=1.0, delta=1.0)
    ts = np.linspace(0.0, 3.0, 25)
    surface = analytic_surface(dist, ts, ts)
    worst_b = max(p.influence for p in surface.iter_points())
    assert worst_b <= 1e-12, f"influence should vanish, got {worst_b}"
    d_err = float(np.max(np.abs(surface.row_distances() - np.exp(-ts))))
    assert d_err <= 1e-12, f"distance should decay exponentially, error {d_err}"
    for t in (0.1, 1.0, 2.5):
        eps_t, gamma_t = tcl_coefficients(dist, t)
        assert abs(eps_t - 0.5) <= 1e-12 and abs(gamma_t - 0.5) <= 1e-12
    profile = increasing_intervals(ts, surface.row_distances())
    assert profile.total_increase() == 0.0


def _check_closed_form_vs_model(rng):
    env = discretize(SingleLorentzian(omega0=1.0, delta=1.0), modes=64, window=20.0)
    sc = full_model(env)
    for t in (0.3, 0.9):
        for tp in (0.0, 0.7):
            point = witness.evaluate_point(sc, tp, t)
            d_t, forecast, influence, delta_d = analytic_witnesses(env, tp, t)
            assert abs(point.d_t - d_t) <= 1e-9
            assert abs(point.forecast - forecast) <= 1e-9
            assert abs(point.influence - influence) <= 1e-9
            assert abs(point.delta_d - delta_d) <= 1e-9


def _check_chain_conservation(rng):
    spec = SpinChainSpec(sites=4, exchange=1.0, probe_exchange=1.0, field=0.01)
    sc = spinchain.scenario(spec)
    h = spinchain.build_hamiltonian(spec)
    total_z = sum(spinchain.pauli_site("z", n, spec.sites + 1) for n in range(spec.sites + 1))
    comm = h @ total_z - total_z @ h
    assert float(np.max(np.abs(comm))) <= 1e-10, "magnetization not conserved"
    e0 = float(np.trace(h @ sc.state1.op).real)
    for t in (0.5, 1.5):
        s1, s2 = witness.evolve_pair(sc, t)
        assert abs(float(np.trace(h @ s1.op).real) - e0) <= 1e-9, "energy drifted"
        purity = float(np.trace(s1.op @ s1.op).real)
        assert abs(purity - 1.0) <= 1e-9, "purity drifted"
        d_t = witness.reduced_distance(sc, t)
        f = witness.forecast_distance(sc, 0.8, t)
        assert f <= d_t + 1e-9, "forecast above current distance"


AUDIT_CHECKS = (
    ("trace-norm triangle inequality", _check_trace_norm_triangle),
    ("distance contracts under partial trace", _check_contractivity),
    ("distance invariant under conjugation", _check_unitary_invariance),
    ("correlation split: reconstruction and norm identity", _check_correlation_split),
    ("two-sided bound window on random scenarios", _check_bound_window),
    ("exponential-decay reference model", _check_exponential_reference),
    ("closed form agrees with the explicit mode model", _check_closed_form_vs_model),
    ("spin chain conservation laws", _check_chain_conservation),
)


def run_audit(out=None) -> int:
    """Run the invariant battery, print one line per check."""
    out = out if out is not None else sys.stdout
    rng = np.random.default_rng(7)
    failures = 0
    for name, check in AUDIT_CHECKS:
        try:
            check(rng)
        except Exception as exc:  # noqa: BLE001 - report any failure and keep going
            failures += 1
            print(f"FAIL  {name}: {exc}", file=out)
        else:
            print(f"PASS  {name}", file=out)
    print(f"{len(AUDIT_CHECKS) - failures}/{len(AUDIT_CHECKS)} checks passed", file=out)
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


# --------------------------------------------------------------------------
# command line
# --------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="backflow",
        description="Trace-distance witnesses and non-Markovianity measures.",
    )
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="execute a config file or a named preset")
    run_p.add_argument("config", nargs="?", help="path to an INI run configuration")
    run_p.add_argument("--preset", help="named preset (see list-presets)")
    run_p.add_argument("--out", help="output directory (default: out)")
    run_p.add_argument("--format", choices=("csv", "json"), help="table format (default: csv)")
    sub.add_parser("list-presets", help="show available presets")
    sub.add_parser("audit", help="run the invariant battery and print pass/fail")
    return parser


def _cmd_run(args) -> int:
    if args.config and args.preset:
        raise ConfigError("give either a config file or --preset, not both")
    if args.config:
        cfg = parse_config(args.config)
    elif args.preset:
        cfg = RunConfig(scenario={"preset": args.preset})
    else:
        raise ConfigError("run needs a config file or --preset")
    if args.out:
        cfg = RunConfig(**{**cfg.__dict__, "out_dir": args.out})
    if args.format:
        cfg = RunConfig(**{**cfg.__dict__, "fmt": args.format})
    return run(cfg)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list-presets":
            print(list_presets())
            return EXIT_OK
        if args.command == "audit":
            return run_audit()
        raise ConfigError("no command given; try run, list-presets or audit")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
