"""Scenario runner: presets or config files in, CSV/JSON tables out.

A run produces three files in the output directory: a surface table (one
row per evaluated (t, t') point), a profile table (reduced distance along
the t grid with growth-interval flags) and a summary.json with the
measure, classification counts and the worst bound violation (zero on any
successful run, since evaluation aborts on violations). A run first
removes the tables of either format that an earlier run left, and writes
each file to a temporary name and renames it into place, so the directory
never pairs a summary with stale or half-written tables.

Exit codes: 0 success, 1 config error, 2 invariant violation. Configs are
flat INI files whose sections mirror the run options; see the README for
the format.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import blp, linalg, spinchain, states, witness
from .blp import MonotonicityProfile, increasing_intervals
from .dephasing import (
    DiagonalPropagator,
    DoubleLorentzian,
    SingleLorentzian,
    analytic_surface,
    analytic_witnesses,
    discretize,
    full_model,
    tcl_coefficients,
)
from .spinchain import SpinChainSpec
from .witness import InvariantViolation

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_INVARIANT = 2

SURFACE_COLUMNS = ("t", "tprime", "D_t", "D_tplus", "F", "B", "deltaD", "lower", "upper", "class")
PROFILE_COLUMNS = ("t", "D", "interval_flag")
SWEEP_COLUMNS = ("t", "r", "B", "upper")
_INCREASE = witness.Classification.GUARANTEED_INCREASE.value


class ConfigError(ValueError):
    """Unusable configuration or command line."""


@dataclass(frozen=True)
class GridSpec:
    """``count`` times from ``lo`` to ``hi``, checked by ``linalg._require_surface_grid``."""

    lo: float
    hi: float
    count: int

    def __post_init__(self):
        name = f"grid of {self.count} points on [{self.lo}, {self.hi}]"
        linalg._require_times((self.lo, self.hi), name)  # before np.linspace can warn
        linalg._require_surface_grid(self.points(), name)

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)

    def as_dict(self) -> dict:
        return {"min": self.lo, "max": self.hi, "count": self.count}


DEFAULT_GRID = GridSpec(0.0, 3.0, 50)
FIG3_GRID = GridSpec(0.0, 3.0, 40)
SWEEP_RATIOS = tuple(round(0.05 * i, 2) for i in range(21))
SWEEP_TPRIME = 0.3
BELL_CHECK_SEED = 20240317

# INI `model = ...` names of the dataclasses a config file can build.
_MODELS = {
    "single_lorentzian": SingleLorentzian,
    "double_lorentzian": DoubleLorentzian,
    "spin_chain": SpinChainSpec,
}


@dataclass(frozen=True)
class Preset:
    """What a run evaluates: the model, its grids and the kind of job.

    ``surface`` evaluates the (t, t') grid, in closed form for a frequency
    distribution and by explicit evolution for a chain; ``sweep`` ramps the
    component ratio of a double Lorentzian; ``check`` runs the
    correlation-split oracle and has no model. The grids' last times must
    have a finite sum, ``linalg._require_step_sum``, as the library
    requires of every t + t'."""

    name: str
    description: str
    kind: str  # "surface" | "sweep" | "check"
    model: SingleLorentzian | DoubleLorentzian | SpinChainSpec | None = None
    t_grid: GridSpec = DEFAULT_GRID
    tprime_grid: GridSpec = DEFAULT_GRID

    def __post_init__(self):
        linalg._require_step_sum(self.t_grid.points(), self.tprime_grid.points())


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs: the resolved scenario plus tolerances and output."""

    preset: Preset
    class_eps: float = witness.DEFAULT_CLASS_EPS
    rise_tol: float = blp.DEFAULT_RISE_TOL
    out_dir: str = "out"
    fmt: str = "csv"

    def __post_init__(self):
        linalg._require_times(self.class_eps, "class_eps")
        linalg._require_times(self.rise_tol, "rise_tol")
        if not self.out_dir:
            raise ValueError("output path must not be empty")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"output format must be csv or json, got {self.fmt!r}")


PRESETS: dict[str, Preset] = {
    "semigroup": Preset(
        name="semigroup",
        description="single Lorentzian (center=width): memoryless reference, "
        "exponential distance decay, influence term identically zero",
        kind="surface",
        model=SingleLorentzian(omega0=1.0, delta=1.0),
    ),
    "fig2a": Preset(
        name="fig2a",
        description="double Lorentzian, equal centers, width ratio 10, r=1: "
        "influence stays below the lower threshold (Markovian)",
        kind="surface",
        model=DoubleLorentzian(omega0_1=1.0, delta1=1.0, omega0_2=1.0, delta2=10.0, r=1.0),
    ),
    "fig2b": Preset(
        name="fig2b",
        description="double Lorentzian, centers 1 and 9 at common width, r=1: "
        "influence exceeds the upper threshold (non-Markovian)",
        kind="surface",
        model=DoubleLorentzian(omega0_1=1.0, delta1=1.0, omega0_2=9.0, delta2=1.0, r=1.0),
    ),
    "fig2c": Preset(
        name="fig2c",
        description=f"transition sweep over the component ratio r in {{0, 0.05, ..., 1}} "
        f"at fixed t' = {SWEEP_TPRIME} (centers 1 and 9, common width)",
        kind="sweep",
        # r is replaced by each ratio of the sweep; the profile uses the last one
        model=DoubleLorentzian(omega0_1=1.0, delta1=1.0, omega0_2=9.0, delta2=1.0, r=1.0),
    ),
    "fig3": Preset(
        name="fig3",
        description="probe qubit on an 8-site XX chain, J0/J=1, B/J=0.01: "
        "thresholds crossed well inside the recurrence time",
        kind="surface",
        model=SpinChainSpec(sites=8, exchange=1.0, probe_exchange=1.0, field=0.01),
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

# The field that each INI key sets: of GridSpec in a grid section, else of RunConfig.
_GRID_KEYS = {"min": "lo", "max": "hi", "count": "count"}
_RUN_KEYS = {
    "tolerances": {"class_eps": "class_eps", "rise_tol": "rise_tol"},
    "output": {"path": "out_dir", "format": "fmt"},
}
# Sections a kind of job has no use for: the sweep runs at the fixed
# SWEEP_TPRIME, and the check job evaluates no grid and no tolerance.
_UNUSED_SECTIONS = {"sweep": {"tprime_grid"}, "check": {"t_grid", "tprime_grid", "tolerances"}}
# How a value is read for a field of each declared type.
_PARSERS = {"int": (int, "an integer"), "float": (float, "a number"), "str": (str, "text")}


def _read_section(section, where: str, record, keys: dict, required: bool) -> dict:
    """The fields of ``record`` that an INI ``section`` sets, each value parsed
    by the field's declared type; ``keys`` maps each INI key to its field. A
    key not in ``keys`` is an error, and so is a missing one if ``required``.
    The record's own checks judge the values."""
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ConfigError(f"{where} has unknown keys {unknown}")
    missing = [key for key in keys if key not in section]
    if required and missing:
        raise ConfigError(f"{where} must define exactly {', '.join(keys)}; missing {missing}")
    declared = {f.name: f.type for f in fields(record)}
    values = {}
    for key, raw in section.items():
        parse, what = _PARSERS[declared[keys[key]]]
        try:
            values[keys[key]] = parse(raw)
        except ValueError:
            raise ConfigError(f"{where} {key}: cannot parse {raw!r} as {what}") from None
    return values


def _parse_scenario(scenario: dict, grids: dict) -> Preset:
    """Resolve `[scenario]` into the preset it names, or into a surface run of
    the model it spells out; a model needs every field of its dataclass."""
    if "preset" in scenario:
        name = scenario.pop("preset")
        if scenario:
            raise ConfigError(f"preset runs take no extra scenario keys: {sorted(scenario)}")
        if name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r}; run list-presets to see choices")
        return replace(PRESETS[name], **grids)
    if "model" not in scenario:
        raise ConfigError("scenario needs either 'preset' or 'model'")
    name = scenario.pop("model")
    if name not in _MODELS:
        raise ConfigError(f"unknown model {name!r}; choose from {sorted(_MODELS)}")
    model = _MODELS[name]
    keys = {f.name: f.name for f in fields(model)}
    values = _read_section(scenario, f"[scenario] model {name}", model, keys, required=True)
    return Preset(name, f"{name} from a config file", "surface", model(**values), **grids)


def parse_config(path: str | Path) -> RunConfig:
    """Read a run configuration from a flat UTF-8 INI file, values taken
    literally. A file that is unreadable, not INI, or has a key, section or
    value the run cannot read raises ConfigError; a value that the config's
    records reject raises their ValueError."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        # one line: configparser's messages span several
        raise ConfigError(f"cannot read config file {path}: {' '.join(str(exc).split())}") from exc
    unknown = set(cp.sections()) - {"scenario", "t_grid", "tprime_grid", *_RUN_KEYS}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    if "scenario" not in cp:
        raise ConfigError("config must have a [scenario] section")
    grids = {
        name: GridSpec(**_read_section(cp[name], f"[{name}]", GridSpec, _GRID_KEYS, required=True))
        for name in ("t_grid", "tprime_grid") if name in cp
    }
    preset = _parse_scenario(dict(cp["scenario"]), grids)
    unused = sorted(_UNUSED_SECTIONS.get(preset.kind, set()) & set(cp.sections()))
    if unused:
        listed = ", ".join(f"[{name}]" for name in unused)
        raise ConfigError(f"preset {preset.name} does not use the section(s) {listed}")
    settings = {}
    for name, keys in _RUN_KEYS.items():
        if name in cp:
            settings.update(_read_section(cp[name], f"[{name}]", RunConfig, keys, required=False))
    return RunConfig(preset, **settings)


# --------------------------------------------------------------------------
# output writers
# --------------------------------------------------------------------------


def _write_atomically(path: Path, text: str, newline: str | None = None) -> Path:
    """Write ``text`` beside ``path`` under a temporary name, then rename it
    into place, so a reader sees the old file or the new one, never a part."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", newline=newline) as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def _write_table(path: Path, names: tuple[str, ...], columns, fmt: str) -> Path:
    """Write columns of one shape, one row per entry in C order, as CSV (15
    significant digits) or JSON records."""
    rows = zip(*(np.ravel(c).tolist() for c in columns))
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(names)
        for row in rows:
            writer.writerow([f"{v:.15g}" if isinstance(v, float) else v for v in row])
        return _write_atomically(path.with_suffix(".csv"), buf.getvalue(), newline="")
    records = [dict(zip(names, row)) for row in rows]
    return _write_atomically(path.with_suffix(".json"), json.dumps(records, indent=1) + "\n")


def _write_summary(out_dir: Path, summary: dict) -> Path:
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    return _write_atomically(out_dir / "summary.json", text)


def _remove_tables(out_dir: Path) -> None:
    """Delete the tables of either format that an earlier run left behind."""
    for name in ("surface.csv", "surface.json", "profile.csv", "profile.json"):
        (out_dir / name).unlink(missing_ok=True)


def _profile_columns(profile: MonotonicityProfile) -> tuple:
    return profile.times, profile.values, profile.flags().astype(int)


# --------------------------------------------------------------------------
# job execution
# --------------------------------------------------------------------------


def _run_surface_job(cfg: RunConfig, out_dir: Path) -> dict:
    preset = cfg.preset
    ts = preset.t_grid.points()
    tps = preset.tprime_grid.points()
    if isinstance(preset.model, SpinChainSpec):
        scenario = spinchain.scenario(preset.model)
        surface = witness.evaluate_surface(scenario, ts, tps, eps=cfg.class_eps)
    else:
        surface = analytic_surface(preset.model, ts, tps, eps=cfg.class_eps)
    profile = increasing_intervals(ts, surface.d_t, cfg.rise_tol)

    t, tprime = np.meshgrid(ts, tps, indexing="ij")
    d_t = np.broadcast_to(surface.d_t[:, None], t.shape)
    columns = (t, tprime, d_t, surface.d_next, surface.forecast, surface.influence,
               surface.delta_d, surface.lower, surface.upper, surface.labels)
    _write_table(out_dir / "surface", SURFACE_COLUMNS, columns, cfg.fmt)
    _write_table(out_dir / "profile", PROFILE_COLUMNS, _profile_columns(profile), cfg.fmt)
    return {
        "scenario": preset.name,
        "parameters": asdict(preset.model),
        "points": len(ts) * len(tps),
        "classification_counts": surface.classification_counts(),
        "max_bound_violation": surface.max_bound_violation(),
        "measure": profile.total_increase(),
        "growth_intervals": [list(iv) for iv in profile.interval_times()],
        "t_grid": preset.t_grid.as_dict(),
        "tprime_grid": preset.tprime_grid.as_dict(),
        "class_eps": cfg.class_eps,
        "rise_tol": cfg.rise_tol,
    }


def _run_sweep_job(cfg: RunConfig, out_dir: Path) -> dict:
    """Influence versus the upper threshold while the component ratio ramps up;
    every point's window is checked, and the GuaranteedIncrease labels are
    counted per ratio."""
    preset = cfg.preset
    ts = preset.t_grid.points()
    tprime = SWEEP_TPRIME
    columns: list[tuple] = []
    per_ratio: list[dict] = []
    for r in SWEEP_RATIOS:
        surface = analytic_surface(replace(preset.model, r=r), ts, [tprime], cfg.class_eps)
        influence, upper = surface.influence[:, 0], surface.d_t + surface.forecast[:, 0]
        columns.append((ts, np.full_like(ts, r), influence, upper))
        per_ratio.append({
            "r": r, "max_influence": float(influence.max()),
            "max_excess_over_upper": float((influence - upper).max()),
            "points_above_upper": surface.classification_counts()[_INCREASE],
        })
    # one row per (r, t), r-major
    _write_table(out_dir / "surface", SWEEP_COLUMNS, np.concatenate(columns, axis=1), cfg.fmt)

    # Profile along t for the final ratio, where the transition is fully developed.
    profile = increasing_intervals(ts, surface.d_t, cfg.rise_tol)
    _write_table(out_dir / "profile", PROFILE_COLUMNS, _profile_columns(profile), cfg.fmt)
    parameters = asdict(preset.model)
    del parameters["r"]
    return {
        "scenario": preset.name,
        "parameters": parameters,
        "tprime": tprime,
        "ratios": list(SWEEP_RATIOS),
        "per_ratio": per_ratio,
        "profile_ratio": SWEEP_RATIOS[-1],
        "measure": profile.total_increase(),
        "t_grid": preset.t_grid.as_dict(),
        "class_eps": cfg.class_eps,
        "rise_tol": cfg.rise_tol,
    }


def _run_check_job(cfg: RunConfig, out_dir: Path) -> dict:
    """Correlation-split oracle: exact values on the maximally entangled pair,
    norm identity on random joint states. It writes no tables."""
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
    worst_random = _check_correlation_split(np.random.default_rng(BELL_CHECK_SEED))
    summary = {
        "scenario": cfg.preset.name,
        "bell_correlation_norm": norm,
        "bell_norm_error": abs(norm - 1.5),
        "bell_marginal_error": marginal_err,
        "bell_identity_error": identity_err,
        "random_identity_worst_error": worst_random,
    }
    # _check_correlation_split has already required worst_random <= 1e-10
    _require(abs(norm - 1.5) <= 1e-12, f"Bell correlation norm {norm!r} is not 1.5 to 1e-12")
    _require(marginal_err <= 1e-12, f"Bell marginals are {marginal_err:.3e} off I/2, above 1e-12")
    _require(identity_err <= 1e-10, f"Bell norm identity is {identity_err:.3e} off, above 1e-10")
    summary["pass"] = True
    return summary


def run(cfg: RunConfig) -> int:
    """Execute a run; returns the process exit status."""
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"cannot make output directory {out_dir}: {exc.strerror}") from exc
    _remove_tables(out_dir)
    try:
        if cfg.preset.kind == "surface":
            summary = _run_surface_job(cfg, out_dir)
        elif cfg.preset.kind == "sweep":
            summary = _run_sweep_job(cfg, out_dir)
        else:
            summary = _run_check_job(cfg, out_dir)
    except InvariantViolation as exc:
        _write_summary(out_dir, {"scenario": cfg.preset.name, "error": str(exc)})
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    _write_summary(out_dir, summary)
    return EXIT_OK


# --------------------------------------------------------------------------
# audit: the invariant battery behind `backflow audit`
# --------------------------------------------------------------------------


def _require(ok: bool, message: str) -> None:
    """Audit check that survives ``python -O``, unlike ``assert``."""
    if not ok:
        raise InvariantViolation(message)


def _check_trace_norm_triangle(rng):
    for _ in range(30):
        dim = int(rng.integers(2, 9))
        a = linalg.random_hermitian(dim, rng)
        b = linalg.random_hermitian(dim, rng)
        na, nb = linalg.trace_norm(a), linalg.trace_norm(b)
        nd = linalg.trace_norm(a - b)
        _require(abs(na - nb) <= nd + 1e-10, "lower triangle bound failed")
        _require(nd <= na + nb + 1e-10, "upper triangle bound failed")


def _check_contractivity(rng):
    for _ in range(20):
        ds, de = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        m1 = states.random_density(ds * de, rng)
        m2 = states.random_density(ds * de, rng)
        reduced = linalg.trace_distance(
            linalg.partial_trace(m1, ds, de), linalg.partial_trace(m2, ds, de)
        )
        full = linalg.trace_distance(m1, m2)
        _require(reduced <= full + 1e-10, "partial trace expanded distance")


def _check_unitary_invariance(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        r1 = states.random_density(dim, rng)
        r2 = states.random_density(dim, rng)
        eig = linalg.hermitian_eigensystem(linalg.random_hermitian(dim, rng))
        u = linalg.unitary_at(eig, float(rng.uniform(0.1, 2.0)))
        before = linalg.trace_distance(r1, r2)
        after = linalg.trace_distance(linalg.conjugate(u, r1), linalg.conjugate(u, r2))
        _require(abs(before - after) <= 1e-10, "conjugation changed the distance")


def _check_correlation_split(rng) -> float:
    """Reconstruction, traceless marginals and the norm identity on random
    joint states; returns the worst norm-identity error."""
    worst = 0.0
    for ds, de in ((2, 2), (2, 3), (3, 3)):
        for _ in range(8):
            joint = states.BipartiteState(states.random_density(ds * de, rng), ds, de)
            split = states.decompose(joint)
            recon = float(np.max(np.abs(split.reconstruct() - joint.op)))
            _require(recon <= 1e-12, f"reconstruction error {recon}")
            for keep in ("system", "environment"):
                marg = linalg.partial_trace(split.correlation, ds, de, keep)
                _require(float(np.max(np.abs(marg))) <= 1e-12, "correlation marginal not zero")
            lhs = split.correlation_norm()
            rhs = 2.0 * linalg.trace_distance(
                linalg.tensor_product(split.system, split.environment), joint.op
            )
            worst = max(worst, abs(lhs - rhs))
    _require(worst <= 1e-10, f"norm identity failed: error {worst:.3e}")
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


def _check_spectral_reduction(rng):
    """The eigenbasis reduced state against the dense evolve-then-trace path,
    the time homogeneity that the witnesses rely on, and the forecast at
    every (t, t') against the dense product of that t's system operator and
    the evolved environment marginal. The dense path conjugates by
    ``linalg.unitary_at`` of each propagator's spectrum, U(t) =
    diag(exp(i rates t)) for the diagonal family, not by ``evolve``."""
    for _ in range(10):
        ds, de = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        mat = linalg.random_hermitian(ds * de, rng)
        times = np.concatenate([[0.0], rng.uniform(0.0, 3.0, size=4)])
        eig = linalg.hermitian_eigensystem(linalg.random_hermitian(ds * de, rng))
        systems = np.stack([linalg.random_hermitian(ds, rng) for _ in times])
        rates = rng.normal(size=ds * de)
        diagonal = linalg.HermitianEigenSystem(-rates, np.eye(ds * de))
        for prop, spectrum in ((witness.EigenPropagator(eig), eig),
                               (DiagonalPropagator(rates), diagonal)):
            name = type(prop).__name__
            us = [linalg.unitary_at(spectrum, t) for t in times]
            evolved = [linalg.conjugate(u, mat) for u in us]
            dense = [linalg.partial_trace(m, ds, de) for m in evolved]
            err = float(np.max(np.abs(prop.reduced(mat, times, ds, de) - dense)))
            _require(err <= 1e-12, f"{name} reduced state is {err:.3e} off")
            shifted = prop.reduced(evolved[1], times, ds, de)
            err = float(np.max(np.abs(shifted - prop.reduced(mat, times[1] + times, ds, de))))
            _require(err <= 1e-12, f"{name} is {err:.3e} off time homogeneity")
            forecasts = prop.forecast(systems, mat, times, times, ds, de)
            for t, m, s, got in zip(times, evolved, systems, forecasts):
                product = linalg.tensor_product(s, linalg.partial_trace(m, ds, de, "environment"))
                dense = [linalg.partial_trace(linalg.conjugate(u, product), ds, de) for u in us]
                err = float(np.max(np.abs(got - dense)))
                _require(err <= 1e-12, f"{name} forecast is {err:.3e} off at t={t:.3g}")


def _check_bound_window(rng):
    for _ in range(25):
        sc = _random_scenario(rng)
        for _ in range(3):
            t = float(rng.uniform(0.0, 2.0))
            tp = float(rng.uniform(0.0, 2.0))
            p = witness.evaluate_point(sc, tp, t)  # raises on a window escape
            _require(p.d_t - p.forecast >= -1e-9, "forecast exceeded current distance")
            _require(0.0 <= p.influence <= 2.0 + 1e-12, "influence outside [0, 2]")


def _check_exponential_reference(rng):
    dist = SingleLorentzian(omega0=1.0, delta=1.0)
    ts = np.linspace(0.0, 3.0, 25)
    surface = analytic_surface(dist, ts, ts)
    worst_b = float(np.max(surface.influence))
    _require(worst_b <= 1e-12, f"influence should vanish, got {worst_b}")
    d_err = float(np.max(np.abs(surface.d_t - np.exp(-ts))))
    _require(d_err <= 1e-12, f"distance should decay exponentially, error {d_err}")
    for t in (0.1, 1.0, 2.5):
        eps_t, gamma_t = tcl_coefficients(dist, t)
        rate_err = max(abs(eps_t - 0.5), abs(gamma_t - 0.5))
        _require(rate_err <= 1e-12, f"rates ({eps_t}, {gamma_t}) should both be 0.5")
    profile = increasing_intervals(ts, surface.d_t)
    _require(profile.total_increase() == 0.0, "measure should vanish")


def _check_closed_form_vs_model(rng):
    env = discretize(SingleLorentzian(omega0=1.0, delta=1.0), modes=64, window=20.0)
    sc = full_model(env)
    for t in (0.3, 0.9):
        for tp in (0.0, 0.7):
            p = witness.evaluate_point(sc, tp, t)
            got = (p.d_t, p.forecast, p.influence, p.delta_d)
            err = max(abs(a - b) for a, b in zip(got, analytic_witnesses(env, tp, t)))
            _require(err <= 1e-9, f"point ({t}, {tp}) is {err:.3e} off the closed form")


def _check_chain_conservation(rng):
    spec = SpinChainSpec(sites=4, exchange=1.0, probe_exchange=1.0, field=0.01)
    sc = spinchain.scenario(spec)
    h = spinchain.build_hamiltonian(spec)
    total_z = sum(spinchain.pauli_site("z", n, spec.sites + 1) for n in range(spec.sites + 1))
    comm = h @ total_z - total_z @ h
    _require(float(np.max(np.abs(comm))) <= 1e-10, "magnetization not conserved")
    e0 = float(np.trace(h @ sc.state1.op).real)
    for t in (0.5, 1.5):
        s1, s2 = witness.evolve_pair(sc, t)
        _require(abs(float(np.trace(h @ s1.op).real) - e0) <= 1e-9, "energy drifted")
        purity = float(np.trace(s1.op @ s1.op).real)
        _require(abs(purity - 1.0) <= 1e-9, "purity drifted")
        p = witness.evaluate_point(sc, 0.8, t)
        _require(p.forecast <= p.d_t + 1e-9, "forecast above current distance")


def _check_block_propagator(rng):
    """The chain's propagator on its subspace against the full-space one."""
    spec = SpinChainSpec(sites=4, exchange=1.0, probe_exchange=0.8, field=0.05)
    de = 2**spec.sites
    sc = spinchain.scenario(spec)
    blocks = sc.propagator
    full = witness.EigenPropagator(linalg.hermitian_eigensystem(spinchain.build_hamiltonian(spec)))
    inside = np.zeros(spec.dim, dtype=bool)
    inside[blocks.support] = True
    mat = linalg.random_hermitian(spec.dim, rng) * np.outer(inside, inside)
    times = np.concatenate([[0.0], rng.uniform(0.0, 3.0, size=4)])
    for op in (sc.state1.op - sc.state2.op, mat):
        for t in times:
            err = float(np.max(np.abs(blocks.evolve(op, t) - full.evolve(op, t))))
            _require(err <= 1e-12, f"evolved operator is {err:.3e} off at t={t:.3g}")
        diff = blocks.reduced(op, times, 2, de) - full.reduced(op, times, 2, de)
        err = float(np.max(np.abs(diff)))
        _require(err <= 1e-12, f"reduced state is {err:.3e} off")
    try:
        blocks.reduced(linalg.random_hermitian(spec.dim, rng), times, 2, de)
    except InvariantViolation:
        return
    raise InvariantViolation("an operator outside the subspace was accepted")


AUDIT_CHECKS = (
    ("trace-norm triangle inequality", _check_trace_norm_triangle),
    ("distance contracts under partial trace", _check_contractivity),
    ("distance invariant under conjugation", _check_unitary_invariance),
    ("correlation split: reconstruction and norm identity", _check_correlation_split),
    ("two-sided bound window on random scenarios", _check_bound_window),
    ("exponential-decay reference model", _check_exponential_reference),
    ("closed form agrees with the explicit mode model", _check_closed_form_vs_model),
    ("spin chain conservation laws", _check_chain_conservation),
    ("eigenbasis reduced states match dense evolution", _check_spectral_reduction),
    ("block propagator matches dense evolution", _check_block_propagator),
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
    run_p.add_argument("--format", help="table format, csv or json (default: csv)")
    sub.add_parser("list-presets", help="show available presets")
    sub.add_parser("audit", help="run the invariant battery and print pass/fail")
    return parser


def _cmd_run(args) -> int:
    try:
        if args.config and args.preset:
            raise ConfigError("give either a config file or --preset, not both")
        if args.config:
            cfg = parse_config(args.config)
        elif args.preset:
            cfg = RunConfig(preset=_parse_scenario({"preset": args.preset}, {}))
        else:
            raise ConfigError("run needs a config file or --preset")
        given = {"out_dir": args.out, "fmt": args.format}.items()
        cfg = replace(cfg, **{field: value for field, value in given if value is not None})
    except ValueError as exc:
        # the one place where the records' own checks become config errors
        raise ConfigError(str(exc)) from exc
    return run(cfg)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list-presets":
            print("\n".join(f"{name:<11} {p.description}" for name, p in PRESETS.items()))
            return EXIT_OK
        if args.command == "audit":
            return run_audit()
        raise ConfigError("no command given; try run, list-presets or audit")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
