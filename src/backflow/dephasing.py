"""Single-qubit pure dephasing driven by a static frequency environment.

The qubit coherence is multiplied by a dephasing function k(t), the
Fourier transform of the environmental frequency distribution; populations
are untouched. Time is measured in units where the refractive-index
difference between the two qubit levels is 1, so every example below is
parameterized by dimensionless ratios like omega0/delta.

Besides the closed forms, the module builds a finite-dimensional
realization of the same dynamics (qubit plus M discrete frequency modes
under a diagonal unitary), which the general witness machinery can evolve
directly. The two routes must agree, which makes them mutually validating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import linalg, witness
from .states import BipartiteState, plus_minus_pair, validate_density_matrix
from .witness import ScenarioPair, WitnessPoint, WitnessSurface

PROB_TOL = 1e-12
SINGULAR_TOL = 1e-12
DEFAULT_MODES = 2048
DEFAULT_WINDOW = 40.0


class SingularPointError(ArithmeticError):
    """The dephasing function vanishes, so the time-local rates diverge."""


@dataclass(frozen=True)
class SingleLorentzian:
    """Lorentzian frequency distribution: center omega0, width delta."""

    omega0: float
    delta: float

    def __post_init__(self):
        if not math.isfinite(self.omega0):
            raise ValueError(f"center must be finite, got {self.omega0}")
        if not 0 < self.delta < math.inf:
            raise ValueError(f"width must be positive and finite, got {self.delta}")


@dataclass(frozen=True)
class DoubleLorentzian:
    """Two Lorentzian components; r weights the second relative to the first."""

    omega0_1: float
    delta1: float
    omega0_2: float
    delta2: float
    r: float

    def __post_init__(self):
        if not (math.isfinite(self.omega0_1) and math.isfinite(self.omega0_2)):
            raise ValueError(f"centers must be finite, got ({self.omega0_1}, {self.omega0_2})")
        if not (0 < self.delta1 < math.inf and 0 < self.delta2 < math.inf):
            raise ValueError(
                f"widths must be positive and finite, got ({self.delta1}, {self.delta2})"
            )
        linalg._require_times(self.r, "component ratio")


@dataclass(frozen=True, eq=False)
class Discrete:
    """Finitely many frequencies with probabilities summing to one."""

    freqs: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.freqs, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if f.ndim != 1 or p.shape != f.shape or f.size == 0:
            raise ValueError("freqs and probs must be matching nonempty 1-d arrays")
        if not np.all(np.isfinite(f)):
            raise ValueError("frequencies must be finite")
        if not np.all(p >= 0):
            raise ValueError("probabilities must be nonnegative")
        total = float(p.sum())
        if not abs(total - 1.0) <= PROB_TOL:
            raise ValueError(f"probabilities sum to {total:.15g}, expected 1")
        object.__setattr__(self, "freqs", f)
        object.__setattr__(self, "probs", p)


FrequencyDistribution = Union[SingleLorentzian, DoubleLorentzian, Discrete]


def _lines(dist: FrequencyDistribution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centers, widths and weights of the Lorentzian lines that make up
    ``dist``; a discrete frequency is a line of zero width."""
    if isinstance(dist, SingleLorentzian):
        return np.array([dist.omega0]), np.array([dist.delta]), np.ones(1)
    if isinstance(dist, DoubleLorentzian):
        return (np.array([dist.omega0_1, dist.omega0_2]), np.array([dist.delta1, dist.delta2]),
                np.array([1.0, dist.r]) / (1.0 + dist.r))
    if isinstance(dist, Discrete):
        return dist.freqs, np.zeros(dist.freqs.size), dist.probs
    raise TypeError(f"unsupported distribution type {type(dist).__name__}")


def dephasing_function(dist: FrequencyDistribution, t):
    """k(t): the coherence multiplier after time t. k(0) = 1, and |k| <= 1
    at every time it accepts.

    The weighted sum of exp((i omega_j - delta_j) t) over the lines of
    ``dist``. Accepts scalar or array times, finite and nonnegative as
    ``linalg._require_times`` checks them; others raise ValueError. A finite
    t where a phase overflows raises InvariantViolation
    (``linalg._exp_outer``), so no k it returns is NaN.
    """
    tt = linalg._require_times(t)
    centers, widths, weights = _lines(dist)
    z = 1j * centers - widths
    out = linalg._exp_outer(tt, z, float(np.abs(z).max())) @ weights
    return out if tt.ndim else complex(out)


def _log_derivative(dist: FrequencyDistribution, t: float) -> complex:
    """d/dt ln k(t): a single line's exponent at every t; for more lines the
    ratio k'/k, rejecting times where k has numerically vanished."""
    centers, widths, weights = _lines(dist)
    z = 1j * centers - widths
    if z.size == 1:
        return complex(z[0])
    e = linalg._exp_outer(np.asarray(t), z, float(np.abs(z).max()))
    k = complex(weights @ e)
    if abs(k) < SINGULAR_TOL:
        raise SingularPointError(f"dephasing function vanishes at t={t:.12g}")
    return complex(weights @ (z * e)) / k


def tcl_coefficients(dist: FrequencyDistribution, t: float) -> tuple[float, float]:
    """Unitary and decay rates (epsilon, gamma) of the time-local generator.

    epsilon drives the sigma_z rotation and gamma the coherence decay, with
    coherence evolving as d/dt ln k. A single Lorentzian gives the constant
    pair (omega0/2, delta/2); a negative gamma anywhere signals coherence
    revival. Times where |k| < 1e-12 are rejected as singular instead of
    returning huge rates; times that are not finite and nonnegative are
    rejected as bad input by ``linalg._require_times``, and a finite t where
    a phase z t overflows raises InvariantViolation (``linalg._exp_outer``).
    """
    linalg._require_times(t := float(t))
    logd = _log_derivative(dist, t)
    return 0.5 * logd.imag, -0.5 * logd.real


def apply_channel(kval: complex, rho) -> np.ndarray:
    """Dephase a qubit state: populations kept, coherences scaled by k.

    The 01 entry picks up conj(k) and the 10 entry k, matching the
    convention that level 1 accumulates the positive phase.
    """
    k = complex(kval)
    if not np.isfinite(k):
        raise ValueError(f"k must be finite, got {kval}")
    if abs(k) > 1.0 + 1e-12:
        raise ValueError(f"|k| = {abs(k):.12g} exceeds 1")
    m = validate_density_matrix(rho, name="qubit state")
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 state, got shape {m.shape}")
    return np.array(
        [[m[0, 0], np.conj(k) * m[0, 1]], [k * m[1, 0], m[1, 1]]], dtype=complex
    )


def analytic_witnesses(
    dist: FrequencyDistribution, tprime: float, t: float
) -> tuple[float, float, float, float]:
    """(d_t, forecast, influence, delta_d) for the optimal +/- initial pair.

    All four reduce to moduli of k: D = |k(t)|, F = |k(t)k(t')|,
    B = |k(t+t') - k(t)k(t')| and delta_d = |k(t+t')| - |k(t)|. Array
    times broadcast against each other and give arrays. Negative or
    non-finite times, or a sum t + t' that overflows, raise ValueError.
    """
    linalg._require_step_sum(linalg._require_times(t, "t"), linalg._require_times(tprime, "t'"))
    kt = dephasing_function(dist, t)
    ktp = dephasing_function(dist, tprime)
    knext = dephasing_function(dist, t + tprime)
    d_t = abs(kt)
    forecast = abs(kt * ktp)
    influence = abs(knext - kt * ktp)
    delta_d = abs(knext) - d_t
    return d_t, forecast, influence, delta_d


def analytic_point(
    dist: FrequencyDistribution,
    tprime: float,
    t: float,
    eps: float = witness.DEFAULT_CLASS_EPS,
) -> WitnessPoint:
    """Closed-form counterpart of witness.evaluate_point for this model: the
    one cell of ``analytic_surface`` on the grids [t] and [t']."""
    return analytic_surface(dist, [t], [tprime], eps).point(0, 0)


def analytic_surface(
    dist: FrequencyDistribution,
    t_grid,
    tprime_grid,
    eps: float = witness.DEFAULT_CLASS_EPS,
) -> WitnessSurface:
    """Closed-form witness surface over a (t, t') product grid."""
    ts = linalg._require_surface_grid(t_grid, "t grid")
    tps = linalg._require_surface_grid(tprime_grid, "t' grid")
    d_t, forecast, influence, delta_d = analytic_witnesses(dist, tps[None, :], ts[:, None])
    return WitnessSurface(ts, tps, d_t[:, 0], d_t + delta_d, forecast, influence, eps)


def frequency_density(dist: FrequencyDistribution, omega):
    """Normalized frequency density of a continuum distribution: the
    weighted sum of its normalized Lorentzian lines."""
    centers, widths, weights = _lines(dist)
    if not widths.all():
        raise TypeError("frequency_density is defined for continuum distributions only")
    w = np.asarray(omega, dtype=float)[..., None]
    return (weights * (widths / np.pi) / ((w - centers) ** 2 + widths**2)).sum(axis=-1)


def discretize(
    dist: FrequencyDistribution,
    modes: int = DEFAULT_MODES,
    window: float = DEFAULT_WINDOW,
) -> Discrete:
    """Sample a continuum distribution on a uniform frequency grid.

    The grid spans ``window`` widths beyond the outermost line center
    (line by line for double Lorentzians); weights are the density values
    renormalized to 1. Lorentzian tails decay slowly, so the continuum
    error of the resulting k is truncation-limited at roughly 2/(pi*window)
    once the grid is dense enough.
    """
    modes = linalg._require_integer(modes, "modes")
    if modes < 2:
        raise ValueError(f"need at least 2 modes, got {modes}")
    if not 0.0 < window < np.inf:  # NaN compares false, so it fails too
        raise ValueError(f"window must be positive and finite, got {window}")
    centers, widths, _ = _lines(dist)
    if not widths.all():
        raise ValueError("distribution is already discrete")
    # Python floats: an overflowing edge, offset or square gives inf, with no
    # warning. Each line's squared offset is largest at an edge of the grid, so
    # this is finite exactly where the denominators of frequency_density are.
    reach = [(c, w, float(window) * w) for c, w in zip(centers.tolist(), widths.tolist())]
    lo, hi = min(c - r for c, _, r in reach), max(c + r for c, _, r in reach)
    if not all(math.isfinite(x * x + w * w) for c, w, _ in reach for x in (lo - c, hi - c)):
        raise ValueError(f"a window of {window} widths spans {lo} to {hi}, where the squared "
                         f"offsets from lines of widths {widths.tolist()} are not finite")
    freqs = np.linspace(lo, hi, modes)
    probs = frequency_density(dist, freqs)
    return Discrete(freqs=freqs, probs=probs / probs.sum())


class DiagonalPropagator:
    """Diagonal unitary family U(t) = diag(exp(i * rates * t)).

    Time-homogeneous like the eigensystem-backed propagator, but
    conjugation is an elementwise phase twist, so no dense unitary is ever
    materialized. Only the level blocks w[a, b, e] = mat[(a, e), (b, e)] of
    an operator reach a reduced state, as the coherences c_ab(t) =
    sum_e w[a, b, e] exp(i (r_ae - r_be) t). A product pair has w[a, b, e] =
    system[a, b] pop[e], with pop its environment populations (|psi|^2).
    """

    def __init__(self, rates):
        r = np.asarray(rates, dtype=float)
        if r.ndim != 1 or r.size == 0:
            raise ValueError("rates must be a nonempty 1-d array")
        if not np.all(np.isfinite(r)):
            raise ValueError("rates must be finite")
        # bounds every rate difference, so no phase or difference overflows unseen
        self._spread = float(r.max()) - float(r.min())
        if not math.isfinite(self._spread):
            raise ValueError(f"rates must span a finite range, got {r.min()} to {r.max()}")
        self._rates, self._i_rates = r, 1j * r
        self._rate = float(np.abs(r).max())  # bounds the phases r t

    @property
    def dim(self) -> int:
        return int(self._rates.size)

    @property
    def rates(self) -> np.ndarray:
        return self._rates

    def evolve(self, mat: np.ndarray, t: float) -> np.ndarray:
        """U(t) mat U(t)^dagger; a stack of matrices is evolved in one call.
        A ValueError for a time that is not finite and nonnegative
        (``linalg._require_times``), and InvariantViolation where a phase r t
        overflows (``linalg._exp_outer``)."""
        mat = np.asarray(mat)
        if mat.shape[-2:] != (self.dim, self.dim):
            raise ValueError(f"operator shape {mat.shape} does not match dimension {self.dim}")
        p = linalg._exp_outer(linalg._require_times(float(t)), self._i_rates, self._rate)
        return mat * np.outer(p, p.conj())

    def _split(self, mat, ds: int, de: int):
        """A product pair as (system, pop): its system factor, or a stack of
        them, and environment populations, |psi|^2 for amplitudes psi. A
        dense operand as (None, blocks), its entries mat[(a, e), (b, e)] as an
        array [a, b, e]."""
        if ds * de != self.dim:
            raise ValueError(f"factors ({ds}, {de}) do not match dimension {self.dim}")
        if isinstance(mat, tuple):
            system, env = (np.asarray(f) for f in mat)
            if system.shape[-2:] == (ds, ds) and env.shape in ((de,), (de, de)):
                return system, np.abs(env) ** 2 if env.ndim == 1 else np.diagonal(env)
        elif np.shape(mat) == (self.dim, self.dim):
            return None, np.einsum("aebe->abe", np.reshape(mat, (ds, de, ds, de)))
        raise ValueError(f"operator shapes do not match factors ({ds}, {de})")

    def _coherences(self, w, times, ds: int, de: int) -> np.ndarray:
        """c[..., a, b] = sum_e w[a, b, e] exp(i (r_ae - r_be) t) at every t of
        ``times``, a 1-d w standing for w[e] at every (a, b). w is Hermitian in
        (a, b), so exponentials are taken for a < b only: c_ba = conj(c_ab),
        and c_aa = sum_e w[a, a, e] does not turn."""
        ts = np.asarray(times, dtype=float)
        i_rates = self._i_rates.reshape(ds, de)
        c = np.empty(ts.shape + (ds, ds), dtype=complex)
        np.einsum("...aa->...a", c)[...] = w.sum() if w.ndim == 1 else np.einsum("aae->a", w)
        for a in range(ds - 1):
            # shape (..., ds - a - 1, de)
            turns = linalg._exp_outer(ts, i_rates[a] - i_rates[a + 1:], self._spread)
            row = turns @ w if w.ndim == 1 else np.einsum("...be,be->...b", turns, w[a, a + 1:])
            c[..., a, a + 1:] = row
            c[..., a + 1:, a] = row.conj()
        return c

    def reduced(self, mat, times, ds: int, de: int) -> np.ndarray:
        """Tr_E[U(t) mat U(t)^dagger] at every t of ``times``, with shape
        ``np.shape(times) + (ds, ds)``: the coherences of the level blocks of a
        Hermitian ``mat``, or ``system * c`` for a product pair, with c those of
        its populations, one (T, de) @ (de,) product per level pair a < b. A
        stack of system factors against one environment shares c and gives
        shape ``system.shape[:-2] + np.shape(times) + (ds, ds)``."""
        system, w = self._split(mat, ds, de)
        c = self._coherences(w, times, ds, de)
        if system is None:
            return c
        if system.ndim > 2:
            system = system.reshape(system.shape[:-2] + (1,) * (c.ndim - 2) + (ds, ds))
        return system * c

    def forecast(self, systems, mat, ts, tprimes, ds: int, de: int) -> np.ndarray:
        """Tr_E[U(t') (systems[k] (x) Tr_S[U(t) mat U(t)^dagger]) U(t')^dagger]
        at t = ts[k] and every t' of ``tprimes``, with shape (T, T', ds, ds):
        systems[k] times the coherences c(t') of the environment populations
        pop[e] = sum_a mat[(a, e), (a, e)] of a Hermitian ``mat``, tr(system)
        times those of the factor for a product pair. A diagonal U moves no
        population, so one c serves every t and ``ts`` sets only the shape."""
        system, w = self._split(mat, ds, de)
        if system is not None and system.ndim > 2:
            raise ValueError(f"forecast takes one system factor, got shape {system.shape}")
        pop = np.einsum("aae->e", w) if system is None else np.trace(system) * w
        systems = np.asarray(systems)
        if systems.shape != np.shape(ts) + (ds, ds):
            raise ValueError(f"systems of shape {systems.shape} do not match times and factors")
        return systems[..., None, :, :] * self._coherences(pop, tprimes, ds, de)


def full_model(
    env: Discrete,
    pair: tuple[np.ndarray, np.ndarray] | None = None,
) -> ScenarioPair:
    """Qubit plus discrete frequency modes as an explicit scenario.

    The environment starts in the pure superposition with amplitudes
    sqrt(p_m); the joint evolution only phases level 1 of the qubit
    (rates 0 on level 0, omega_m on level 1), reproducing the channel with
    the discrete k. Default initial pair: the +/- states. Both states share
    one environment factor, the amplitude vector sqrt(p), checked once.
    """
    modes = int(env.freqs.size)
    if 2 * modes > linalg.DENSE_DIM_CAP:
        raise ValueError(
            f"total dimension 2 * {modes} = {2 * modes} exceeds cap {linalg.DENSE_DIM_CAP}"
        )
    if pair is None:
        pair = plus_minus_pair()
    state1, state2 = BipartiteState.products(pair, np.sqrt(env.probs))
    rates = np.concatenate([np.zeros(modes), env.freqs])
    return ScenarioPair(state1=state1, state2=state2, propagator=DiagonalPropagator(rates))
