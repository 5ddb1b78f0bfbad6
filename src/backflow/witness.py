"""Finite-time trace-distance witnesses for a pair of evolving total states.

Given two joint system-environment states and a unitary propagator, three
scalars govern the distinguishability of the reduced states over a step
from t to t + t': the current distance D(t), the distance F the pair would
reach if the totals at t were replaced by products sharing one
environmental state, and the trace-norm weight B of everything that
replacement discards (correlations and environmental differences). The
change of the reduced distance is always confined to the window

    B - F - D(t)  <=  D(t + t') - D(t)  <=  B + F - D(t),

so B above D + F certifies an increase (non-Markovian behaviour) while B
below D - F rules one out; in between nothing can be concluded.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from . import linalg, states
from .linalg import HermitianEigenSystem
from .states import BipartiteState

DEFAULT_CLASS_EPS = 1e-9
BOUND_TOL = 1e-9
UNITARY_CACHE_SIZE = 128


class Classification(str, Enum):
    GUARANTEED_INCREASE = "GuaranteedIncrease"
    INCREASE_IMPOSSIBLE = "IncreaseImpossible"
    INCONCLUSIVE = "Inconclusive"


class InvariantViolation(RuntimeError):
    """A computed point escaped its two-sided bound beyond tolerance."""


class EigenPropagator:
    """One-parameter unitary group U(t) = exp(-i H t) from an eigensystem of H.

    Time-homogeneous: the step operator between t and t + t' is U(t').
    Unitaries are cached per distinct time so grid sweeps reuse them; the
    cache is cleared wholesale when it outgrows ``UNITARY_CACHE_SIZE``.
    """

    def __init__(self, eig: HermitianEigenSystem):
        self._eig = eig
        self._cache: dict[float, np.ndarray] = {}

    @property
    def dim(self) -> int:
        return self._eig.dim

    @property
    def eigensystem(self) -> HermitianEigenSystem:
        return self._eig

    def unitary(self, t: float) -> np.ndarray:
        key = float(t)
        u = self._cache.get(key)
        if u is None:
            u = linalg.unitary_at(self._eig, key)
            if len(self._cache) >= UNITARY_CACHE_SIZE:
                self._cache.clear()
            self._cache[key] = u
        return u

    def evolve(self, mat: np.ndarray, t: float) -> np.ndarray:
        u = self.unitary(t)
        return u @ mat @ u.conj().T


@dataclass(frozen=True, eq=False)
class ScenarioPair:
    """Two initial total states plus a shared propagator.

    ``propagator`` is anything with ``dim`` and ``evolve(mat, t)``; a bare
    HermitianEigenSystem of a total Hamiltonian is wrapped automatically.
    """

    state1: BipartiteState
    state2: BipartiteState
    propagator: object

    def __post_init__(self):
        if (self.state1.ds, self.state1.de) != (self.state2.ds, self.state2.de):
            raise ValueError(
                f"states have mismatched factors: ({self.state1.ds}, {self.state1.de})"
                f" vs ({self.state2.ds}, {self.state2.de})"
            )
        prop = self.propagator
        if isinstance(prop, HermitianEigenSystem):
            prop = EigenPropagator(prop)
            object.__setattr__(self, "propagator", prop)
        if not hasattr(prop, "evolve") or not hasattr(prop, "dim"):
            raise TypeError("propagator must expose 'evolve(mat, t)' and 'dim'")
        if prop.dim != self.state1.dim:
            raise ValueError(
                f"propagator dimension {prop.dim} does not match state dimension {self.state1.dim}"
            )

    @property
    def ds(self) -> int:
        return self.state1.ds

    @property
    def de(self) -> int:
        return self.state1.de


@dataclass(frozen=True)
class WitnessPoint:
    """One (t, t') evaluation: distances, bounds and the classification.

    ``lower``/``upper`` bound delta_d; their width (the ``gap``) equals
    2 * forecast, the region where the witnesses are silent.
    """

    t: float
    tprime: float
    d_t: float
    d_next: float
    forecast: float
    influence: float
    delta_d: float
    lower: float
    upper: float
    label: Classification

    @property
    def gap(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True, eq=False)
class WitnessSurface:
    """Witness points on a (t, t') product grid, t-major."""

    t_grid: np.ndarray
    tprime_grid: np.ndarray
    points: tuple[tuple[WitnessPoint, ...], ...]

    def __post_init__(self):
        if len(self.points) != len(self.t_grid):
            raise ValueError("row count does not match t grid")
        if any(len(row) != len(self.tprime_grid) for row in self.points):
            raise ValueError("column count does not match t' grid")

    def iter_points(self) -> Iterator[WitnessPoint]:
        for row in self.points:
            yield from row

    def classification_counts(self) -> dict[str, int]:
        counts = {c.value: 0 for c in Classification}
        for p in self.iter_points():
            counts[p.label.value] += 1
        return counts

    def row_distances(self) -> np.ndarray:
        """D(t) per t-grid row."""
        return np.array([row[0].d_t for row in self.points])

    def max_bound_violation(self, tol: float = BOUND_TOL) -> float:
        """Largest excess of delta_d beyond its window, after tolerance.

        Zero on any surface that evaluated successfully, since point
        construction aborts on a violation.
        """
        worst = 0.0
        for p in self.iter_points():
            worst = max(worst, p.lower - tol - p.delta_d, p.delta_d - p.upper - tol)
        return max(worst, 0.0)


def classify_values(
    influence: float, d_t: float, forecast: float, eps: float = DEFAULT_CLASS_EPS
) -> Classification:
    """Place B against the thresholds D -+ F with margin ``eps``.

    The fully degenerate case B = D = F = 0 (identical states) sits on the
    lower boundary and is classified IncreaseImpossible by convention.
    """
    if influence < d_t - forecast - eps:
        return Classification.INCREASE_IMPOSSIBLE
    if influence > d_t + forecast + eps:
        return Classification.GUARANTEED_INCREASE
    if influence <= eps and d_t <= eps and forecast <= eps:
        return Classification.INCREASE_IMPOSSIBLE
    return Classification.INCONCLUSIVE


def classify(point: WitnessPoint, eps: float = DEFAULT_CLASS_EPS) -> Classification:
    return classify_values(point.influence, point.d_t, point.forecast, eps)


def checked_point(
    t: float,
    tprime: float,
    d_t: float,
    d_next: float,
    forecast: float,
    influence: float,
    eps: float = DEFAULT_CLASS_EPS,
) -> WitnessPoint:
    """Assemble a point from its distances, enforcing the bound window.

    Written so that a non-finite value fails the check as well: NaN
    compares false against both edges.
    """
    delta_d = d_next - d_t
    lower = influence - forecast - d_t
    upper = influence + forecast - d_t
    if not (lower - BOUND_TOL <= delta_d <= upper + BOUND_TOL):
        raise InvariantViolation(
            f"bound violated at t={t:.12g}, t'={tprime:.12g}: "
            f"delta_d={delta_d:.6e} outside [{lower:.6e}, {upper:.6e}]"
        )
    return WitnessPoint(
        t=float(t), tprime=float(tprime), d_t=d_t, d_next=d_next,
        forecast=forecast, influence=influence, delta_d=delta_d,
        lower=lower, upper=upper,
        label=classify_values(influence, d_t, forecast, eps),
    )


def evolve_pair(sc: ScenarioPair, t: float) -> tuple[BipartiteState, BipartiteState]:
    """Both total states at time t; valid density operators by construction."""
    op1, op2 = _evolved_ops(sc, t)
    if t == 0:
        return sc.state1, sc.state2
    return (
        BipartiteState(op1, sc.ds, sc.de),
        BipartiteState(op2, sc.ds, sc.de),
    )


def _evolved_ops(sc: ScenarioPair, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Evolved total operators without density re-validation.

    Conjugation by a unitary cannot break Hermiticity, trace or positivity
    beyond floating-point dust, so internal sweeps skip the eigenvalue
    check that BipartiteState construction would repeat at every time.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if t == 0:
        return sc.state1.op, sc.state2.op
    return sc.propagator.evolve(sc.state1.op, t), sc.propagator.evolve(sc.state2.op, t)


@dataclass(frozen=True, eq=False)
class _Row:
    """Everything reusable across the t' sweep at a fixed t.

    ``x_forecast`` and ``x_influence`` add up to the difference of the two
    total states at t; propagating and reducing each part separately gives
    F, B and (from their sum) the distance at t + t' in one pass.
    """

    t: float
    split1: states.CorrelationDecomposition
    split2: states.CorrelationDecomposition
    d_t: float
    x_forecast: np.ndarray
    x_influence: np.ndarray


def _build_row(sc: ScenarioPair, t: float, env_label: int = 1) -> _Row:
    if env_label not in (1, 2):
        raise ValueError(f"env_label must be 1 or 2, got {env_label}")
    op1, op2 = _evolved_ops(sc, t)
    split1 = states.correlation_split(op1, sc.ds, sc.de)
    split2 = states.correlation_split(op2, sc.ds, sc.de)
    d_t = linalg.trace_distance(split1.system, split2.system)
    env_diff = split1.environment - split2.environment
    chi_diff = split1.correlation - split2.correlation
    if env_label == 1:
        x_forecast = linalg.tensor_product(split1.system - split2.system, split1.environment)
        x_influence = linalg.tensor_product(split2.system, env_diff) + chi_diff
    else:
        x_forecast = linalg.tensor_product(split1.system - split2.system, split2.environment)
        x_influence = linalg.tensor_product(split1.system, env_diff) + chi_diff
    return _Row(
        t=t, split1=split1, split2=split2, d_t=d_t,
        x_forecast=x_forecast, x_influence=x_influence,
    )


def _reduced_after(sc: ScenarioPair, mat: np.ndarray, tprime: float) -> np.ndarray:
    return linalg.partial_trace(sc.propagator.evolve(mat, tprime), sc.ds, sc.de, "system")


def _point_from_row(
    sc: ScenarioPair, row: _Row, tprime: float, eps: float = DEFAULT_CLASS_EPS
) -> WitnessPoint:
    if tprime < 0:
        raise ValueError(f"time step must be nonnegative, got {tprime}")
    reduced_forecast = _reduced_after(sc, row.x_forecast, tprime)
    reduced_influence = _reduced_after(sc, row.x_influence, tprime)
    return checked_point(
        row.t, tprime, row.d_t,
        d_next=0.5 * linalg.trace_norm(reduced_forecast + reduced_influence),
        forecast=0.5 * linalg.trace_norm(reduced_forecast),
        influence=0.5 * linalg.trace_norm(reduced_influence),
        eps=eps,
    )


def reduced_distance(sc: ScenarioPair, t: float) -> float:
    """Trace distance between the two reduced system states at time t."""
    op1, op2 = _evolved_ops(sc, t)
    return linalg.trace_distance(
        linalg.partial_trace(op1, sc.ds, sc.de, "system"),
        linalg.partial_trace(op2, sc.ds, sc.de, "system"),
    )


def forecast_distance(sc: ScenarioPair, tprime: float, t: float, env_label: int = 1) -> float:
    """Distance at t + t' if the totals at t were products with a common
    environment (the one from the branch picked by ``env_label``).

    Contractive: at most D(t), with equality at t' = 0.
    """
    row = _build_row(sc, t, env_label)
    if tprime < 0:
        raise ValueError(f"time step must be nonnegative, got {tprime}")
    return 0.5 * linalg.trace_norm(_reduced_after(sc, row.x_forecast, tprime))


def correlation_influence(sc: ScenarioPair, tprime: float, t: float, env_label: int = 1) -> float:
    """Trace-norm weight, at t + t', of what the product replacement drops:
    correlations present at t and the difference of environmental states.

    Lies in [0, 2]; zero whenever correlations and environment differences
    have no effect on the reduced pair.
    """
    row = _build_row(sc, t, env_label)
    if tprime < 0:
        raise ValueError(f"time step must be nonnegative, got {tprime}")
    return 0.5 * linalg.trace_norm(_reduced_after(sc, row.x_influence, tprime))


def distance_change(sc: ScenarioPair, tprime: float, t: float) -> float:
    """D(t + t') - D(t)."""
    row = _build_row(sc, t)
    if tprime < 0:
        raise ValueError(f"time step must be nonnegative, got {tprime}")
    reduced = _reduced_after(sc, row.x_forecast + row.x_influence, tprime)
    return 0.5 * linalg.trace_norm(reduced) - row.d_t


def weak_upper_bound(sc: ScenarioPair, t: float) -> float:
    """t'-independent cap on the distance change from time t onward.

    Sum of each branch's distance to its own product of marginals plus the
    distance between the environmental states; dominates delta_d for every
    t'. Equals half the correlation norms plus the environment distance.
    """
    op1, op2 = _evolved_ops(sc, t)
    split1 = states.correlation_split(op1, sc.ds, sc.de)
    split2 = states.correlation_split(op2, sc.ds, sc.de)
    term1 = 0.5 * linalg.trace_norm(split1.correlation)
    term2 = 0.5 * linalg.trace_norm(split2.correlation)
    term3 = linalg.trace_distance(split1.environment, split2.environment)
    return term1 + term2 + term3


def evaluate_point(
    sc: ScenarioPair,
    tprime: float,
    t: float,
    eps: float = DEFAULT_CLASS_EPS,
    env_label: int = 1,
) -> WitnessPoint:
    """All witnesses at one (t, t'), with bounds checked and classified."""
    return _point_from_row(sc, _build_row(sc, t, env_label), tprime, eps)


def _require_grid(grid, name: str) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d array")
    if g[0] < 0:
        raise ValueError(f"{name} must be nonnegative")
    if g.size > 1 and np.any(np.diff(g) <= 0):
        raise ValueError(f"{name} must be strictly ascending")
    return g


def evaluate_surface(
    sc: ScenarioPair,
    t_grid,
    tprime_grid,
    eps: float = DEFAULT_CLASS_EPS,
    env_label: int = 1,
) -> WitnessSurface:
    """Witness points over the full (t, t') product grid.

    Per-t quantities (reduced states, environments, correlations) are
    computed once per row and reused across the t' sweep.
    """
    ts = _require_grid(t_grid, "t grid")
    tps = _require_grid(tprime_grid, "t' grid")

    def eval_row(t: float) -> tuple[WitnessPoint, ...]:
        # A row holds several full-dimension operators; building it inside a
        # call frees it on return, so only one row is alive at a time.
        row = _build_row(sc, t, env_label)
        return tuple(_point_from_row(sc, row, tp, eps) for tp in tps)

    return WitnessSurface(t_grid=ts, tprime_grid=tps, points=tuple(eval_row(t) for t in ts))
