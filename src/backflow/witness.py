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
(rho_S1 - rho_S2, rho_E), as ``states._shared_environment`` decides.
D(t), g, f and g - f take one batched trace norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from . import linalg, states
from .linalg import HermitianEigenSystem, InvariantViolation
from .states import BipartiteState

# Margin by which B must clear a threshold D -+ F to be placed beyond it.
CLASS_EPS = 1e-9
BOUND_TOL = 1e-9
# Weight an operator may have outside a propagator's subspace, relative to
# its largest entry, before it is rejected.
SUPPORT_TOL = 1e-12


class Classification(str, Enum):
    GUARANTEED_INCREASE = "GuaranteedIncrease"
    INCREASE_IMPOSSIBLE = "IncreaseImpossible"
    INCONCLUSIVE = "Inconclusive"


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


@dataclass(frozen=True, eq=False)
class _Layout:
    """Where a propagator's support rows sit in one split of its space into
    ds x de: each row's level a and environment index e, and for an
    environment kept on the indices the support reaches only, each row's
    place among those and the support position of each (a, reached e); and
    the stack of partial-trace kernels G^{ab}_{ij} = sum_e M_{ae,i} conj(M_{be,j})
    for a <= b, row by row, for the dim x n mode matrix M (the eigenvector
    rows at the support positions, zero rows outside)."""

    level: np.ndarray
    env: np.ndarray
    narrow: np.ndarray
    levels: np.ndarray  # (ds, reached), -1 off the support
    narrow_outside: np.ndarray
    kernels: np.ndarray


class EigenPropagator:
    """exp(-i H t) on an H-invariant subspace.

    The subspace is spanned by the basis vectors ``support`` of the
    ``dim``-dimensional space, and ``eig`` is H restricted to it, rows and
    columns in the order of ``support``. A bare eigensystem of the full H
    is the case where the support is the whole space. Operators enter
    by an index gather onto the support; one with weight outside it raises
    InvariantViolation, because the subspace evolution would drop that part.
    A product given as its (system, environment) pair is gathered and
    checked from the factors alone.
    Time-homogeneous: the step operator between t and t + t' is U(t').
    Reduced states are computed in the eigenbasis, on the eigenmodes an
    operand reaches; the gather layout and partial-trace kernels of a split
    ds x de are built on its first use. ``forecast`` evolves the support
    block to every t at once and reduces the products with its environment
    marginals through the same gather, so they are checked too.
    """

    def __init__(self, eig: HermitianEigenSystem, support=None, dim: int | None = None):
        self._eig = eig
        s = np.arange(eig.dim) if support is None else np.asarray(support)
        dim = eig.dim if dim is None else linalg._require_integer(dim, "dim")
        if s.size != eig.dim:
            raise ValueError(f"support must list {eig.dim} basis indices, got {s.size}")
        self._support, self._dim, self._position = s, dim, _positions(s, dim, "support")
        self._position.flags.writeable = False
        self._outside = self._position < 0
        # the eigenvector rows at the support positions, then a zero row that
        # position -1 reads for the rows outside
        self._modes = np.vstack([eig.vectors, np.zeros(eig.dim)])
        self._vh = np.ascontiguousarray(eig.vectors.conj().T)
        self._minus_iw = -1j * eig.values
        self._rate = float(np.abs(eig.values).max(initial=0.0))  # bounds the phases w t
        self._layouts: dict[int, _Layout] = {}

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
        """U(t) on the subspace, in the basis ``support``: ``linalg.unitary_at``,
        with its ValueError for a bad time and InvariantViolation where a
        phase w t overflows."""
        return linalg.unitary_at(self._eig, t)

    def _layout(self, ds: int, de: int) -> _Layout:
        """The layout of the split ds x de, built with its kernels on first use."""
        if ds * de != self._dim:
            raise ValueError(f"factors ({ds}, {de}) do not match dimension {self._dim}")
        if ds not in self._layouts:
            level, env = np.divmod(self._support, de)
            reached = np.bincount(env, minlength=de) > 0  # np.unique imports numpy.ma
            position = self._position.reshape(ds, de)
            levels = position[:, reached]
            v = self._modes[position]
            pairs = [(a, b) for a in range(ds) for b in range(a, ds)]
            # filled in place: stacking a list of them peaks 0.2 MiB higher on nm-max
            kernels = np.empty((len(pairs), self._eig.dim, self._eig.dim), dtype=complex)
            for kernel, (a, b) in zip(kernels, pairs):
                np.matmul(v[a].T, v[b].conj(), out=kernel)
            layout = _Layout(level, env, (np.cumsum(reached) - 1)[env], levels,
                             levels.ravel() < 0, kernels)
            for array in vars(layout).values():
                array.flags.writeable = False  # shared by every later call
            self._layouts[ds] = layout
        return self._layouts[ds]

    def _gather(self, mat, layout: _Layout | None = None) -> np.ndarray:
        """The support rows and columns of ``mat``, of each matrix of a stack,
        or of the product of a (system, environment) pair or pair of stacks,
        system[a_i, a_j] * env[e_i, e_j] for the level a_i and environment
        index e_i of support row i in ``layout`` (psi[e_i] * conj(psi[e_j])
        for amplitudes psi). An environment narrower than the split's holds
        only the environment indices the support reaches."""
        if isinstance(mat, tuple):
            system, env = mat = tuple(np.asarray(f, dtype=complex) for f in mat)
            ds = len(layout.levels)
            e, outside = layout.env, self._outside
            if env.shape[-1] != self._dim // ds:
                e, outside = layout.narrow, layout.narrow_outside
            if system.shape[-2:] != (ds, ds) or env.shape[-1] * ds != outside.size:
                raise ValueError(f"factor shapes do not match dimension {self._dim}")
            a = layout.level
            inside = system[..., a[:, None], a]
            if env.ndim == 1:  # amplitudes psi, standing for psi psi^dagger
                psi = env[e]
                inside *= np.multiply.outer(psi, psi.conj())
            else:
                inside *= env[..., e[:, None], e]
        else:
            mat = np.asarray(mat)
            if mat.shape[-2:] != (self._dim, self._dim):
                raise ValueError(f"operator shape {mat.shape} does not match dimension {self._dim}")
            inside = mat[..., self._support[:, None], self._support]
            outside = self._outside
        maxima = linalg.magnitude_maxima(mat)
        out = maxima[..., outside].max(-1, initial=0.0)
        if (out > SUPPORT_TOL * maxima.max(-1)).any():
            raise InvariantViolation(
                f"operator has weight {float(np.max(out)):.3e} outside the propagator's "
                f"{self._support.size}-dimensional subspace"
            )
        return inside

    def _rotated(self, mat, layout: _Layout):
        """x = V^dagger mat V on the eigenmodes ``mat`` reaches, and those
        modes: a slice of all of them, or the indices of the modes whose row
        or column of x is not exactly zero in some matrix of a stack, the
        rule of ``linalg.nonzero_block``. A dropped mode adds nothing to a
        reduced state."""
        x = self._vh @ self._gather(mat, layout) @ self._eig.vectors
        kept = linalg._nonzero_mask(x)
        keep = slice(None) if kept.all() else np.flatnonzero(kept)
        return x[..., keep, :][..., keep], keep

    def evolve(self, mat: np.ndarray, t: float) -> np.ndarray:
        """U(t) mat U(t)^dagger; a stack of matrices is evolved in one call."""
        inside = self._gather(mat)
        u = self.unitary(t)
        out = np.zeros(inside.shape[:-2] + (self._dim, self._dim), dtype=complex)
        out[..., self._support[:, None], self._support] = u @ inside @ u.conj().T
        return out

    def reduced(self, mat, times, ds: int, de: int) -> np.ndarray:
        """Tr_E[U(t) mat U(t)^dagger] at every t of ``times`` for a Hermitian
        ``mat``; it may be a (system, environment) product pair, or a pair of
        stacks (1-d times).

        With x = V^dagger mat V on the eigenmodes ``mat`` reaches and
        phi = exp(-i w t) on them, entry (a, b) is phi^T (x o G^{ab}) conj(phi):
        one product over the whole time grid per entry a <= b, and entry
        (b, a) is its conjugate. Returns shape ``np.shape(times) + (ds, ds)``.
        """
        layout = self._layout(ds, de)
        x, keep = self._rotated(mat, layout)
        phi = linalg._exp_outer(np.asarray(times, dtype=float), self._minus_iw[keep], self._rate)
        conj = phi.conj()
        kernels = iter(layout.kernels[:, keep][..., keep])
        out = np.empty(x.shape[:-2] + phi.shape[:-1] + (ds, ds), dtype=complex)
        for a in range(ds):
            for b in range(a, ds):
                out[..., a, b] = np.einsum("...i,...i", phi @ (x * next(kernels)), conj)
            out[..., a + 1 :, a] = out[..., a, a + 1 :].conj()
        return out

    def forecast(self, systems, mat, ts, tprimes, ds: int, de: int) -> np.ndarray:
        """Tr_E[U(t') (systems[k] (x) Tr_S[U(t) mat U(t)^dagger]) U(t')^dagger]
        for t = ts[k] and every t' of ``tprimes``, with shape (T, T', ds, ds);
        ``mat`` may be a (system, environment) product pair.

        The support block of ``mat`` is evolved to every t as one stack, on
        the eigenmodes it reaches. Its environment marginals stay on the
        environment indices the support reaches: level a adds the block
        entries at the positions of the rows (a, e), a zero row standing for
        rows outside. ``reduced`` takes them.
        """
        layout = self._layout(ds, de)
        if np.shape(systems) != np.shape(ts) + (ds, ds):
            raise ValueError(f"systems of shape {np.shape(systems)} do not match times and factors")
        x, keep = self._rotated(mat, layout)
        phi = linalg._exp_outer(np.asarray(ts, dtype=float), self._minus_iw[keep], self._rate)
        modes = self._modes[:, keep]
        rho = modes @ (x * phi[..., :, None] * phi[..., None, :].conj()) @ modes.conj().T
        rho = sum(rho[..., p[:, None], p] for p in layout.levels)  # Tr_S; frees the evolved block
        return self.reduced((systems, rho), tprimes, ds, de)


@dataclass(frozen=True, eq=False)
class ScenarioPair:
    """Two initial total states plus a shared propagator.

    ``propagator`` is anything with

    - ``dim``, the total dimension;
    - ``evolve(mat, t)``, U(t) mat U(t)^dagger;
    - ``reduced(mat, times, ds, de)``, Tr_E[U(t) mat U(t)^dagger] at every
      t of ``times`` for a Hermitian ``mat``, with shape
      ``np.shape(times) + (ds, ds)``;
    - ``forecast(systems, mat, ts, tprimes, ds, de)``, shape (T, T', ds, ds):
      Tr_E[U(t') (systems[k] (x) Tr_S[U(t) mat U(t)^dagger]) U(t')^dagger]
      at t = ts[k] and every t' of ``tprimes``.

    ``reduced`` and ``forecast`` take a product state as its factor pair:
    ``mat`` is then the tuple (system, environment), and stands for their
    Kronecker product. The environment may be 1-d, a pure state's
    amplitudes psi standing for psi psi^dagger. ``nm_measure_maximized``
    passes a stack of system factors against one environment to
    ``reduced``, for 1-d times, and takes shape
    ``system.shape[:-2] + np.shape(times) + (ds, ds)`` back.

    A bare HermitianEigenSystem of a total Hamiltonian is wrapped
    automatically. The propagator must be time-homogeneous,
    ``reduced(evolve(X, t), t', ...) == reduced(X, t + t', ...)``: the
    witnesses read the state at t + t' from the initial states.

    The package's propagators check the time of ``evolve`` with
    ``linalg._require_times``. Their ``reduced`` and ``forecast`` check no
    time: they are kernels, given only times that an entry point
    (``reduced_distance``, ``evaluate_point``, ``evaluate_surface``,
    ``nm_measure_maximized``) has already checked.
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
        if not (hasattr(prop, "dim") and hasattr(prop, "evolve") and hasattr(prop, "reduced")
                and hasattr(prop, "forecast")):
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

    - ``d_t`` and ``d_next`` are the reduced distances D(t) and D(t + t');
      ``delta_d`` is D(t + t') - D(t).
    - ``forecast`` F is the distance at t + t' had the totals at t been
      products with a common environment, that of ``state1`` (swap the pair
      for the other environment). Contractive: at most D(t), with equality
      at t' = 0.
    - ``influence`` B is the trace-norm weight, at t + t', of what that
      replacement drops: the correlations present at t and the difference of
      the environmental states. It lies in [0, 2], and is zero whenever they
      have no effect on the reduced pair.

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
    (Classification values, at the margin ``CLASS_EPS``), so no surface holds
    a cell outside its window.
    """

    t_grid: np.ndarray
    tprime_grid: np.ndarray
    d_t: np.ndarray
    d_next: np.ndarray
    forecast: np.ndarray
    influence: np.ndarray
    delta_d: np.ndarray = field(init=False)
    lower: np.ndarray = field(init=False)
    upper: np.ndarray = field(init=False)
    labels: np.ndarray = field(init=False)

    def __post_init__(self):
        given = (getattr(self, f.name) for f in fields(self) if f.init)
        ts, tps, d_t, *cells = (np.array(column, dtype=float) for column in given)
        if d_t.shape != ts.shape or any(c.shape != ts.shape + tps.shape for c in cells):
            raise ValueError("columns do not match the (t, t') grid")
        window = check_window(ts[:, None], tps, d_t[:, None], *cells)
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


def classify_values(influence, d_t, forecast):
    """Place B against the thresholds D -+ F with the fixed margin ``CLASS_EPS``.

    The fully degenerate case B = D = F = 0 (identical states) sits on the
    lower boundary and is classified IncreaseImpossible by convention.
    Scalars give a Classification; arrays give an array of Classification
    values, cell by cell the same as for scalars.
    """
    impossible = influence < d_t - forecast - CLASS_EPS
    increase = influence > d_t + forecast + CLASS_EPS
    degenerate = (influence <= CLASS_EPS) & (d_t <= CLASS_EPS) & (forecast <= CLASS_EPS)
    # ``a > b`` is "a and not b" for Python bools and boolean arrays alike:
    # the lower threshold wins over the upper one, both over the degenerate case.
    code = (increase > impossible) + 2 * (impossible | (degenerate > increase))
    return _LABEL_VALUES[code] if isinstance(code, np.ndarray) else _LABELS[code]


def check_window(t, tprime, d_t, d_next, forecast, influence):
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
    return delta_d, lower, upper, classify_values(influence, d_t, forecast)


def evolve_pair(sc: ScenarioPair, t: float) -> tuple[BipartiteState, BipartiteState]:
    """Both total states at time t; valid density operators by construction."""
    if linalg._require_times(t) == 0:
        return sc.state1, sc.state2
    return tuple(
        BipartiteState(sc.propagator.evolve(s.op, t), sc.ds, sc.de) for s in (sc.state1, sc.state2)
    )


def _operand(state: BipartiteState):
    """What a propagator reads of a state: a product as its factor pair."""
    return state.factors or state.op


def _reduced_differences(sc: ScenarioPair, times: np.ndarray) -> np.ndarray:
    """rho_S1 - rho_S2 at every t of ``times`` by linearity, with no total
    difference formed: one call on (system1 - system2, environment) for two
    products sharing one environment factor, else two reduced states."""
    reduce = sc.propagator.reduced
    env = states._shared_environment(sc.state1, sc.state2)
    if env is not None:
        return reduce((sc.state1.system() - sc.state2.system(), env), times, sc.ds, sc.de)
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
    return _half_norms(np.concatenate([diffs, f, diffs[:, 1:] - f], axis=1))


def _half_norms(ops: np.ndarray) -> np.ndarray:
    """Half trace norms of a stack of reduced operators; one that ``linalg.trace_norm``
    rejects, not finite or not Hermitian, is an InvariantViolation, not a bad input."""
    try:
        return 0.5 * linalg.trace_norm(ops)
    except ValueError as exc:
        raise InvariantViolation(f"reduced operators are not finite and Hermitian: {exc}") from exc


def reduced_distance(sc: ScenarioPair, t):
    """Trace distance between the two reduced system states at time t.

    Array times give an array, from the reduced-state calls of
    ``_reduced_differences`` and one batched trace norm.
    """
    ts = linalg._require_times(t)
    dist = _half_norms(_reduced_differences(sc, ts).reshape(-1, sc.ds, sc.ds))
    return float(dist[0]) if ts.ndim == 0 else dist.reshape(ts.shape)


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


def evaluate_point(sc: ScenarioPair, tprime: float, t: float) -> WitnessPoint:
    """All witnesses at one (t, t'), with bounds checked and classified.

    The forecast takes the environment of ``state1``; swap the pair for the
    other environment.
    """
    ts = linalg._require_times(t).reshape(1)
    tps = linalg._require_times(tprime, "time step").reshape(1)
    # summed as Python floats: an overflow gives inf, which the check rejects, with no warning
    linalg._require_times(step := ts.item() + tps.item(), "t + t'")
    diffs = _reduced_differences(sc, np.array([ts.item(), step]))
    # Python floats: the window check costs less on them than on 1-element arrays
    d_t, d_next, forecast, influence = _grid_norms(sc, ts, tps, diffs[None])[0].tolist()
    window = check_window(t, tps[0], d_t, d_next, forecast, influence)
    return WitnessPoint(float(t), float(tps[0]), d_t, d_next, forecast, influence, *window)


def evaluate_surface(sc: ScenarioPair, t_grid, tprime_grid) -> WitnessSurface:
    """Witness columns over the full (t, t') product grid.

    One reduced-differences call at the distinct times [t, t + t'...], one
    forecast call and one batched trace norm cover the whole grid. The
    forecast takes the environment of ``state1``; swap the pair for the
    other environment.
    """
    ts = linalg._require_surface_grid(t_grid, "t grid")
    tps = linalg._require_surface_grid(tprime_grid, "t' grid")
    linalg._require_step_sum(ts, tps)
    times = np.concatenate([ts[:, None], ts[:, None] + tps], axis=1)
    distinct, inverse = np.unique(times, return_inverse=True)
    diffs = _reduced_differences(sc, distinct)[inverse.reshape(times.shape)]
    norms = _grid_norms(sc, ts, tps, diffs)
    d_next, forecast, influence = norms[:, 1:].reshape(ts.size, 3, tps.size).transpose(1, 0, 2)
    return WitnessSurface(ts, tps, norms[:, 0], d_next, forecast, influence)
