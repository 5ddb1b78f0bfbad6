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

No correlation split is needed: the reduced images of the total difference
at t are the reduced differences g at t + t', the forecast f is the reduced
image of (rho_S1 - rho_S2) (x) rho_E, and B = |g - f| / 2. The propagator
gives both for a whole (t, t') grid, ``reduced`` at the distinct times t
and t + t' and ``forecast`` every f, with no product or environment
marginal formed in full; a product state reaches both as its factor pair,
and two sharing one environment factor take one ``reduced`` call, on
(rho_S1 - rho_S2, rho_E). D(t), g, f and g - f take one batched trace norm.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, fields
from enum import Enum

import numpy as np

from . import linalg, states
from .linalg import HermitianEigenSystem
from .states import BipartiteState

DEFAULT_CLASS_EPS = 1e-9
BOUND_TOL = 1e-9
# Weight an operator may have outside a propagator's subspace, relative to
# its largest entry, before it is rejected.
SUPPORT_TOL = 1e-12


class Classification(str, Enum):
    GUARANTEED_INCREASE = "GuaranteedIncrease"
    INCREASE_IMPOSSIBLE = "IncreaseImpossible"
    INCONCLUSIVE = "Inconclusive"


class InvariantViolation(RuntimeError):
    """A computed point escaped its two-sided bound beyond tolerance."""


def _positions(indices: np.ndarray, dim: int, name: str) -> np.ndarray:
    """Position of each of ``dim`` basis indices in ``indices``, -1 outside;
    ValueError unless ``indices`` is a 1-d array of distinct integers below ``dim``."""
    position = np.full(dim, -1)
    valid = indices.ndim == 1 and indices.dtype.kind in "iu"
    if valid and np.all((indices >= 0) & (indices < dim)):
        position[indices] = np.arange(indices.size)
    if not valid or np.count_nonzero(position >= 0) != indices.size:  # a repeat takes one slot
        raise ValueError(f"{name} must list distinct indices below {dim}")
    return position


class EigenPropagator:
    """exp(-i H t) on an H-invariant subspace made of conserved-charge blocks.

    The subspace is spanned by the basis vectors ``support`` of the
    ``dim``-dimensional space, and ``eig`` is H restricted to it, rows and
    columns in the order of ``support``. A bare eigensystem of the full H
    is the one-block case: the support is the whole space. Operators enter
    by an index gather onto the support; one with weight outside it raises
    InvariantViolation, because the subspace evolution would drop that part.
    A product given as its (system, environment) pair is gathered and
    checked from the factors alone.
    Time-homogeneous: the step operator between t and t + t' is U(t').
    Reduced states are computed in the eigenbasis; the partial-trace
    kernels they need are built on first use. ``forecast`` evolves the
    support block to every t at once and reduces the products with its
    environment marginals through the same gather, so they are checked too.
    """

    def __init__(self, eig: HermitianEigenSystem, support=None, dim: int | None = None):
        self._eig = eig
        s = np.arange(eig.dim) if support is None else np.asarray(support)
        dim = eig.dim if dim is None else int(dim)
        if s.size != eig.dim:
            raise ValueError(f"support must list {eig.dim} basis indices, got {s.size}")
        self._support, self._dim, self._position = s, dim, _positions(s, dim, "support")
        self._kernels: dict[tuple[int, int, int], np.ndarray] = {}

    @classmethod
    def from_blocks(cls, blocks, dim: int) -> EigenPropagator:
        """Propagator on H-invariant blocks of a ``dim``-dimensional space,
        each a pair (basis indices, H restricted to them), one eigensystem each.

        Its eigensystem, support and position map are read-only, so a shared
        propagator cannot be corrupted by a caller."""
        eigs = [linalg.hermitian_eigensystem(h) for _, h in blocks]
        support = np.concatenate([b for b, _ in blocks])
        vectors = np.zeros((support.size, support.size), dtype=complex)
        start = 0
        for e in eigs:
            vectors[start : start + e.dim, start : start + e.dim] = e.vectors
            start += e.dim
        values = np.concatenate([e.values for e in eigs])
        order = np.argsort(values, kind="stable")
        eig = HermitianEigenSystem(values=values[order], vectors=vectors[:, order])
        prop = cls(eig, support, dim)
        for a in (eig.values, eig.vectors, prop._support, prop._position):
            a.flags.writeable = False
        return prop

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def support(self) -> np.ndarray:
        """Basis indices spanning the subspace, in the eigensystem's row order."""
        return self._support

    @property
    def eigensystem(self) -> HermitianEigenSystem:
        """H restricted to the subspace."""
        return self._eig

    def unitary(self, t: float) -> np.ndarray:
        """U(t) on the subspace, in the basis ``support``."""
        return linalg.unitary_at(self._eig, t)

    def _gather(self, mat, de: int | None = None) -> np.ndarray:
        """The support rows and columns of ``mat``, of each matrix of a stack,
        or of the product of a (system, environment) pair or pair of stacks,
        system[a_i, a_j] * env[e_i, e_j] for (a_i, e_i) = divmod(support_i, de)
        (psi[e_i] * conj(psi[e_j]) for amplitudes psi). An environment narrower
        than ``de`` holds only the environment indices the support reaches."""
        if isinstance(mat, tuple):
            system, env = mat = tuple(np.asarray(f, dtype=complex) for f in mat)
            position = self._position.reshape(-1, de)  # [a, e]
            a, e = np.divmod(self._support, de)
            if env.shape[-1] != de:  # on the environment indices the support reaches only
                reached, e = np.unique(e, return_inverse=True)
                position = position[:, reached]
            if system.shape[-2:] != (len(position),) * 2 or env.shape[-1] != position.shape[1]:
                raise ValueError(f"factor shapes do not match dimension {self._dim}")
            inside = system[..., a[:, None], a]
            if env.ndim == 1:  # amplitudes psi, standing for psi psi^dagger
                inside *= np.multiply.outer(env[e], env[e].conj())
            else:
                inside *= env[..., e[:, None], e]
            outside = position.ravel() < 0
        else:
            mat = np.asarray(mat)
            if mat.shape[-2:] != (self._dim, self._dim):
                raise ValueError(f"operator shape {mat.shape} does not match dimension {self._dim}")
            inside = mat[..., self._support[:, None], self._support]
            outside = self._position < 0
        rows, cols = linalg.magnitude_maxima(mat)
        out = np.maximum(*(m[..., outside].max(-1, initial=0.0) for m in (rows, cols)))
        if np.any(out > SUPPORT_TOL * rows.max(-1)):
            raise InvariantViolation(
                f"operator has weight {float(np.max(out)):.3e} outside the propagator's "
                f"{self._support.size}-dimensional subspace"
            )
        return inside

    def evolve(self, mat: np.ndarray, t: float) -> np.ndarray:
        """U(t) mat U(t)^dagger; a stack of matrices is evolved in one call."""
        inside = self._gather(mat)
        u = self.unitary(t)
        out = np.zeros(inside.shape[:-2] + (self._dim, self._dim), dtype=complex)
        out[..., self._support[:, None], self._support] = u @ inside @ u.conj().T
        return out

    def _kernel(self, a: int, b: int, ds: int) -> np.ndarray:
        """G^{ab}_{ij} = sum_e M_{ae,i} conj(M_{be,j}) for the dim x n mode
        matrix M (the eigenvector rows at the support positions, zero rows
        outside); stored for a <= b only."""
        if a > b:
            return self._kernel(b, a, ds).conj().T
        key = (ds, a, b)
        if key not in self._kernels:
            modes = np.vstack([self._eig.vectors, np.zeros(self._eig.dim)])
            v = modes[self._position.reshape(ds, -1)]  # position -1 reads the zero row
            kernel = v[a].T @ v[b].conj()
            kernel.flags.writeable = False  # shared by every later call
            self._kernels[key] = kernel
        return self._kernels[key]

    def reduced(self, mat, times, ds: int, de: int) -> np.ndarray:
        """Tr_E[U(t) mat U(t)^dagger] at every t of ``times``; ``mat`` may be
        a (system, environment) product pair, or a pair of stacks (1-d times).

        With mat~ = V^dagger mat V on the subspace and phi = exp(-i w t),
        entry (a, b) is phi^T (mat~ o G^{ab}) conj(phi): one product over the
        whole time grid per entry. Returns shape ``np.shape(times) + (ds, ds)``.
        """
        if ds * de != self._dim:
            raise ValueError(f"factors ({ds}, {de}) do not match dimension {self._dim}")
        v = self._eig.vectors
        x = v.conj().T @ self._gather(mat, de) @ v
        phi = np.exp(-1j * np.multiply.outer(np.asarray(times, dtype=float), self._eig.values))
        conj = phi.conj()
        out = np.empty(x.shape[:-2] + phi.shape[:-1] + (ds, ds), dtype=complex)
        for a in range(ds):
            for b in range(ds):
                out[..., a, b] = np.einsum("...i,...i", phi @ (x * self._kernel(a, b, ds)), conj)
        return out

    def forecast(self, systems, mat, ts, tprimes, ds: int, de: int) -> np.ndarray:
        """Tr_E[U(t') (systems[k] (x) Tr_S[U(t) mat U(t)^dagger]) U(t')^dagger]
        for t = ts[k] and every t' of ``tprimes``, with shape (T, T', ds, ds);
        ``mat`` may be a (system, environment) product pair.

        The support block of ``mat`` is evolved to every t as one stack. Its
        environment marginals stay on the environment indices the support
        reaches: level a adds the block entries at the positions of the rows
        (a, e), a zero row standing for rows outside. ``reduced`` takes them.
        """
        if ds * de != self._dim or np.shape(systems) != np.shape(ts) + (ds, ds):
            raise ValueError(f"systems of shape {np.shape(systems)} do not match times and factors")
        v = self._eig.vectors
        phi = np.exp(-1j * np.multiply.outer(np.asarray(ts, dtype=float), self._eig.values))
        x = v.conj().T @ self._gather(mat, de) @ v
        modes = np.vstack([v, np.zeros(len(v))])  # position -1 reads the zero row
        levels = self._position.reshape(ds, de)[:, np.unique(self._support % de)]
        rho = modes @ (x * phi[..., :, None] * phi[..., None, :].conj()) @ modes.conj().T
        rho = sum(rho[..., p[:, None], p] for p in levels)  # Tr_S; frees the evolved block
        return self.reduced((systems, rho), tprimes, ds, de)


@dataclass(frozen=True, eq=False)
class ScenarioPair:
    """Two initial total states plus a shared propagator.

    ``propagator`` is anything with

    - ``dim``, the total dimension;
    - ``evolve(mat, t)``, U(t) mat U(t)^dagger;
    - ``reduced(mat, times, ds, de)``, Tr_E[U(t) mat U(t)^dagger] at every
      t of ``times``, with shape ``np.shape(times) + (ds, ds)``;
    - ``forecast(systems, mat, ts, tprimes, ds, de)``, shape (T, T', ds, ds):
      Tr_E[U(t') (systems[k] (x) Tr_S[U(t) mat U(t)^dagger]) U(t')^dagger]
      at t = ts[k] and every t' of ``tprimes``.

    ``reduced`` and ``forecast`` take a product state as its factor pair:
    ``mat`` is then the tuple (system, environment), and stands for their
    Kronecker product. The environment may be 1-d, a pure state's
    amplitudes psi standing for psi psi^dagger.

    A bare HermitianEigenSystem of a total Hamiltonian is wrapped
    automatically. The propagator must be time-homogeneous,
    ``reduced(evolve(X, t), t', ...) == reduced(X, t + t', ...)``: the
    witnesses read the state at t + t' from the initial states.
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
        if not all(hasattr(prop, name) for name in ("dim", "evolve", "reduced", "forecast")):
            raise TypeError(
                "propagator must expose 'dim', 'evolve(mat, t)', 'reduced(mat, times, ds, de)' "
                "and 'forecast(systems, mat, ts, tprimes, ds, de)'"
            )
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
    """Read-only witness columns on a (t, t') product grid: ``d_t`` of shape
    (T,), the others (T, T'). It is built from the four distances, and
    check_window derives ``delta_d``, the window and the ``labels``
    (Classification values), so no surface holds a cell outside its window.
    """

    t_grid: np.ndarray
    tprime_grid: np.ndarray
    d_t: np.ndarray
    d_next: np.ndarray
    forecast: np.ndarray
    influence: np.ndarray
    eps: InitVar[float] = DEFAULT_CLASS_EPS
    delta_d: np.ndarray = field(init=False)
    lower: np.ndarray = field(init=False)
    upper: np.ndarray = field(init=False)
    labels: np.ndarray = field(init=False)

    def __post_init__(self, eps: float):
        given = (getattr(self, f.name) for f in fields(self) if f.init)
        ts, tps, d_t, *cells = (np.array(column, dtype=float) for column in given)
        if d_t.shape != ts.shape or any(c.shape != ts.shape + tps.shape for c in cells):
            raise ValueError("columns do not match the (t, t') grid")
        window = check_window(ts[:, None], tps, d_t[:, None], *cells, eps)
        for f, column in zip(fields(self), (ts, tps, d_t, *cells, *window)):
            column.flags.writeable = False
            object.__setattr__(self, f.name, column)

    def point(self, i: int, j: int) -> WitnessPoint:
        """The cell at t_grid[i], tprime_grid[j]."""
        cells = (self.d_next, self.forecast, self.influence, self.delta_d, self.lower, self.upper)
        return WitnessPoint(float(self.t_grid[i]), float(self.tprime_grid[j]), float(self.d_t[i]),
                            *(float(c[i, j]) for c in cells), Classification(self.labels[i, j]))

    def classification_counts(self) -> dict[str, int]:
        return {c.value: int(np.count_nonzero(self.labels == c.value)) for c in Classification}

    def max_bound_violation(self) -> float:
        """Largest excess of delta_d beyond its window, after BOUND_TOL.

        Zero on any surface that evaluated successfully, since its
        construction aborts on a violation.
        """
        excess = np.maximum(self.lower - BOUND_TOL - self.delta_d,
                            self.delta_d - self.upper - BOUND_TOL)
        return float(np.max(excess, initial=0.0))


# Labels by the code classify_values computes.
_LABELS = (Classification.INCONCLUSIVE, Classification.GUARANTEED_INCREASE,
           Classification.INCREASE_IMPOSSIBLE)
_LABEL_VALUES = np.array([c.value for c in _LABELS])


def classify_values(influence, d_t, forecast, eps: float = DEFAULT_CLASS_EPS):
    """Place B against the thresholds D -+ F with margin ``eps``.

    The fully degenerate case B = D = F = 0 (identical states) sits on the
    lower boundary and is classified IncreaseImpossible by convention.
    Scalars give a Classification; arrays give an array of Classification
    values, cell by cell the same as for scalars. ``eps`` must be finite and
    nonnegative.
    """
    if not 0.0 <= eps < np.inf:
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")
    impossible = influence < d_t - forecast - eps
    increase = influence > d_t + forecast + eps
    degenerate = (influence <= eps) & (d_t <= eps) & (forecast <= eps)
    # ``a > b`` is "a and not b" for Python bools and boolean arrays alike:
    # the lower threshold wins over the upper one, both over the degenerate case.
    code = (increase > impossible) + 2 * (impossible | (degenerate > increase))
    return _LABEL_VALUES[code] if isinstance(code, np.ndarray) else _LABELS[code]


def classify(point: WitnessPoint, eps: float = DEFAULT_CLASS_EPS) -> Classification:
    return classify_values(point.influence, point.d_t, point.forecast, eps)


def check_window(t, tprime, d_t, d_next, forecast, influence, eps: float = DEFAULT_CLASS_EPS):
    """delta_d, the window [lower, upper] and the label, from the distances:
    floats give floats, broadcasting arrays give columns. A delta_d outside
    its window raises InvariantViolation naming the first such (t, t'); NaN
    compares false against both edges, so a non-finite value fails too."""
    delta_d = d_next - d_t
    lower = influence - forecast - d_t
    upper = influence + forecast - d_t
    # np.asarray: np.all costs twice as much on the Python bool that floats give
    inside = np.asarray((lower - BOUND_TOL <= delta_d) & (delta_d <= upper + BOUND_TOL))
    if not inside.all():
        cell = np.unravel_index(np.argmin(inside), inside.shape)
        at = [np.broadcast_to(x, inside.shape)[cell] for x in (t, tprime, delta_d, lower, upper)]
        raise InvariantViolation(
            "bound violated at t={:.12g}, t'={:.12g}: delta_d={:.6e} outside [{:.6e}, {:.6e}]"
            .format(*at)
        )
    return delta_d, lower, upper, classify_values(influence, d_t, forecast, eps)


def evolve_pair(sc: ScenarioPair, t: float) -> tuple[BipartiteState, BipartiteState]:
    """Both total states at time t; valid density operators by construction."""
    if _require_times(t) == 0:
        return sc.state1, sc.state2
    return tuple(
        BipartiteState(sc.propagator.evolve(s.op, t), sc.ds, sc.de) for s in (sc.state1, sc.state2)
    )


def _require_times(times, name: str = "time") -> np.ndarray:
    """Times as a float array, rejecting non-finite and negative entries."""
    ts = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise ValueError(f"{name} must be finite, got {times}")
    if np.any(ts < 0):
        raise ValueError(f"{name} must be nonnegative, got {times}")
    return ts


def _operand(state: BipartiteState):
    """What a propagator reads of a state: a product as its factor pair."""
    return state.factors or state.op


def _reduced_differences(sc: ScenarioPair, times: np.ndarray) -> np.ndarray:
    """rho_S1 - rho_S2 at every t of ``times`` by linearity, with no total
    difference formed: one call on (system1 - system2, environment) for two
    products sharing one environment factor, else two reduced states."""
    reduce = sc.propagator.reduced
    f1, f2 = sc.state1.factors, sc.state2.factors
    if f1 and f2 and f1[1] is f2[1]:
        return reduce((f1[0] - f2[0], f1[1]), times, sc.ds, sc.de)
    r1, r2 = (reduce(_operand(s), times, sc.ds, sc.de) for s in (sc.state1, sc.state2))
    return r1 - r2


def _grid_norms(sc: ScenarioPair, ts, tprimes, diffs) -> np.ndarray:
    """Half trace norms on the grid ``ts`` x ``tprimes``, shape (T, 1 + 3 T'):
    for each t, D(t), then d_next, forecast and influence for every t'.

    ``diffs`` are the reduced differences at the times [t, t + t'...] of
    each row. The forecast images f, with the environment of ``state1``,
    take one propagator call for the whole grid, and D(t), g, f and g - f
    one batched trace norm.
    """
    f = sc.propagator.forecast(diffs[:, 0], _operand(sc.state1), ts, tprimes, sc.ds, sc.de)
    return 0.5 * linalg.trace_norm(np.concatenate([diffs, f, diffs[:, 1:] - f], axis=1))


def reduced_distance(sc: ScenarioPair, t):
    """Trace distance between the two reduced system states at time t.

    Array times give an array, from one reduced-state call per state and
    one batched trace norm.
    """
    ts = _require_times(t)
    dist = 0.5 * linalg.trace_norm(_reduced_differences(sc, ts).reshape(-1, sc.ds, sc.ds))
    return float(dist[0]) if ts.ndim == 0 else dist.reshape(ts.shape)


def forecast_distance(sc: ScenarioPair, tprime: float, t: float) -> float:
    """Distance at t + t' if the totals at t were products with a common
    environment, that of ``state1``; swap the pair for the other environment.

    Contractive: at most D(t), with equality at t' = 0.
    """
    return evaluate_point(sc, tprime, t).forecast


def correlation_influence(sc: ScenarioPair, tprime: float, t: float) -> float:
    """Trace-norm weight, at t + t', of what the product replacement drops:
    correlations present at t and the difference of environmental states.

    Lies in [0, 2]; zero whenever correlations and environment differences
    have no effect on the reduced pair.
    """
    return evaluate_point(sc, tprime, t).influence


def distance_change(sc: ScenarioPair, tprime: float, t: float) -> float:
    """D(t + t') - D(t)."""
    return evaluate_point(sc, tprime, t).delta_d


def weak_upper_bound(sc: ScenarioPair, t: float) -> float:
    """t'-independent cap on the distance change from time t onward.

    Sum of each branch's distance to its own product of marginals plus the
    distance between the environmental states; dominates delta_d for every
    t'. Equals half the correlation norms plus the environment distance.
    """
    split1, split2 = (states.decompose(s) for s in evolve_pair(sc, t))
    term1 = 0.5 * linalg.trace_norm(split1.correlation)
    term2 = 0.5 * linalg.trace_norm(split2.correlation)
    term3 = linalg.trace_distance(split1.environment, split2.environment)
    return term1 + term2 + term3


def evaluate_point(
    sc: ScenarioPair, tprime: float, t: float, eps: float = DEFAULT_CLASS_EPS
) -> WitnessPoint:
    """All witnesses at one (t, t'), with bounds checked and classified.

    The forecast takes the environment of ``state1``; swap the pair for the
    other environment.
    """
    ts, tps = _require_times(t).reshape(1), _require_times(tprime, "time step").reshape(1)
    diffs = _reduced_differences(sc, np.concatenate([ts, ts + tps]))
    # Python floats: the window check costs less on them than on 1-element arrays
    d_t, d_next, forecast, influence = _grid_norms(sc, ts, tps, diffs[None])[0].tolist()
    window = check_window(t, tps[0], d_t, d_next, forecast, influence, eps)
    return WitnessPoint(float(t), float(tps[0]), d_t, d_next, forecast, influence, *window)


def _require_grid(grid, name: str) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d array")
    _require_times(g, name)
    if np.any(np.diff(g) <= 0):
        raise ValueError(f"{name} must be strictly ascending")
    return g


def evaluate_surface(
    sc: ScenarioPair, t_grid, tprime_grid, eps: float = DEFAULT_CLASS_EPS
) -> WitnessSurface:
    """Witness columns over the full (t, t') product grid.

    One reduced-differences call at the distinct times [t, t + t'...], one
    forecast call and one batched trace norm cover the whole grid. The
    forecast takes the environment of ``state1``; swap the pair for the
    other environment.
    """
    ts = _require_grid(t_grid, "t grid")
    tps = _require_grid(tprime_grid, "t' grid")
    times = np.concatenate([ts[:, None], ts[:, None] + tps], axis=1)
    distinct, inverse = np.unique(times, return_inverse=True)
    diffs = _reduced_differences(sc, distinct)[inverse.reshape(times.shape)]
    norms = _grid_norms(sc, ts, tps, diffs)
    d_next, forecast, influence = norms[:, 1:].reshape(ts.size, 3, tps.size).transpose(1, 0, 2)
    return WitnessSurface(ts, tps, norms[:, 0], d_next, forecast, influence, eps)
