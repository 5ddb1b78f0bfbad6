"""Non-Markovianity as accumulated trace-distance increase.

The measure sums D(b_k) - D(a_k) over the maximal intervals (a_k, b_k)
where the reduced trace distance grows along a sampled time grid, then
maximizes over initial state pairs. Grid sampling makes every reported
value a lower estimate of the true measure; interval endpoints are grid
indices, with no sub-grid refinement.

The maximization needs scenarios whose two states are products with one
shared environment factor rho_E. The reduced dynamics is then a linear map
Lambda_t on the qubit alone (Wissmann et al., PRA 86, 062108, 2012), found
by one propagator call on the Pauli basis against rho_E. The map is checked
for Hermiticity once and kept as the real Bloch coordinates of its images,
so a pair costs one matrix-vector product with its four real coefficients
and the closed-form qubit norm. The map is reused while the scenarios share
one propagator object and rho_E, which ``states._shared_environment``
decides for every pair of states here.

One private rule, ``_rises``, finds the rising runs of a curve and sums
them: ``increasing_intervals`` and ``MonotonicityProfile.total_increase``
use it, and so does every pair of the maximization, which checks its time
grid once and builds no profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linalg, witness
from .states import _shared_environment, pure_qubit
from .witness import ScenarioPair

# A step of the distance counts as a rise only above this, so that rounding
# jitter cannot fabricate growth.
RISE_TOL = 1e-10
# I, sigma_x, sigma_y and sigma_z: a Hermitian basis of the qubit's operators
_PAULI_BASIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                         [[1, 0], [0, -1]]], dtype=complex)
_PAULI_BASIS.flags.writeable = False

BlochAngles = tuple[float, float]
BlochPair = tuple[BlochAngles, BlochAngles]


@dataclass(frozen=True, eq=False)
class MonotonicityProfile:
    """Sampled distance curve with its detected growth intervals.

    Intervals are (start, stop) index pairs, disjoint and ordered; between
    consecutive samples inside one, the curve rises by more than ``RISE_TOL``.
    """

    times: np.ndarray
    values: np.ndarray
    intervals: tuple[tuple[int, int], ...]

    def total_increase(self) -> float:
        """Sum of rises over the detected intervals; the measure for this curve,
        summed as ``_rises`` sums it."""
        return _increase(self.values.tolist(), self.intervals)

    def interval_times(self) -> tuple[tuple[float, float], ...]:
        return tuple((float(self.times[a]), float(self.times[b])) for a, b in self.intervals)

    def flags(self) -> np.ndarray:
        """Boolean mask: sample lies inside some growth interval."""
        mask = np.zeros(self.times.shape, dtype=bool)
        for a, b in self.intervals:
            mask[a : b + 1] = True
        return mask


def increasing_intervals(times, values) -> MonotonicityProfile:
    """Detect maximal runs of strict increase along a sampled curve.

    A step counts as an increase only when it exceeds the fixed ``RISE_TOL``,
    so numerical jitter cannot fabricate growth. Consecutive rising steps
    merge into one interval. ``times`` is a time grid, as
    ``linalg._require_grid`` checks it: 1-d, finite, nonnegative and strictly
    ascending, or empty. Values must be finite: a NaN compares false both
    ways, so it would hide a rise. The runs and their sum follow ``_rises``,
    the one rule of the measure.
    """
    ts = linalg._require_grid(times, "times")
    vs = np.asarray(values, dtype=float)
    if vs.shape != ts.shape:
        raise ValueError(f"times and values must match, got {ts.shape} vs {vs.shape}")
    intervals, _ = _rises(vs)
    return MonotonicityProfile(times=ts, values=vs, intervals=intervals)


def _rises(values: np.ndarray) -> tuple[tuple[tuple[int, int], ...], float]:
    """The maximal runs of a 1-d float curve whose steps each rise by more
    than ``RISE_TOL``, as (start, stop) index pairs in order, and the sum of
    values[stop] - values[start] over them, in that order and in Python
    floats. A non-finite value raises ValueError."""
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    # A run of rising steps i..j-1 starts at edge i and stops at edge j of the
    # mask padded with False at both ends.
    rising = np.zeros(values.size + 1, dtype=bool)
    rising[1:-1] = values[1:] - values[:-1] > RISE_TOL
    edges = np.flatnonzero(rising[1:] != rising[:-1]).tolist()
    intervals = tuple(zip(edges[::2], edges[1::2]))
    return intervals, _increase(values.tolist(), intervals)


def _increase(values: list[float], intervals) -> float:
    """Sum of values[b] - values[a] over the intervals (a, b), in their order."""
    total = 0.0
    for a, b in intervals:
        total += values[b] - values[a]
    return total


def nm_measure_fixed_pair(sc: ScenarioPair, times) -> float:
    """Accumulated distance increase for one scenario along a time grid."""
    profile = distance_profile(sc, times)
    return profile.total_increase()


def distance_profile(sc: ScenarioPair, times) -> MonotonicityProfile:
    """Reduced trace distance sampled along ``times``, a time grid checked by
    ``linalg._require_grid`` before any distance is computed, with growth
    intervals above ``RISE_TOL``."""
    ts = linalg._require_grid(times, "times")
    return increasing_intervals(ts, witness.reduced_distance(sc, ts))


def bloch_pair_grid(n_theta: int, n_phi: int) -> list[BlochPair]:
    """Initial pairs on a Bloch-sphere lattice: each lattice state with its
    antipode, since optimal pairs for distance-based measures are
    orthogonal. An odd ``n_theta`` puts the equator on the lattice.
    """
    for name, count in (("n_theta", n_theta), ("n_phi", n_phi)):
        if linalg._require_integer(count, name) < 1:
            raise ValueError(f"lattice must have at least one point per axis, {name} = {count}")
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    points = [(float(th), float(ph)) for th in thetas for ph in phis]
    return [
        ((th, ph), (float(np.pi - th), float((ph + np.pi) % (2.0 * np.pi))))
        for th, ph in points
    ]


def nm_measure_maximized(
    make_scenario: Callable[[np.ndarray, np.ndarray], ScenarioPair],
    times,
    pairs: Sequence[BlochPair],
) -> tuple[float, BlochPair]:
    """Largest fixed-pair measure over a sampled set of initial pairs.

    ``make_scenario`` turns two 2x2 initial system states into a scenario,
    whose states must be products s1 (x) rho_E and s2 (x) rho_E sharing one
    environment factor; any other scenario raises ValueError. The reduced
    dynamics is then a linear map Lambda_t on the qubit alone, so the pairs
    are measured through it: one propagator ``reduced`` call on the stack of
    (I, sigma_x, sigma_y, sigma_z) against rho_E gives Lambda_t on that basis
    over the whole time grid. The map passes ``linalg.require_hermitian`` once,
    where a rejection is an InvariantViolation, since the map is computed, and
    is kept as the Bloch coordinates of its images; a pair writes
    s1 - s2 = sum_k c_k B_k with real c_k, and one product of the coordinates
    with the c_k gives those of Lambda_t(s1 - s2), normed in closed form as in
    ``linalg.trace_norm``. The map is reused while the scenarios keep
    the same propagator object and the environment of the ``state1`` it was
    built from, else rebuilt; nothing outlives the call.

    ``times`` is a time grid, checked once by ``linalg._require_grid``, before
    the first scenario is built: 1-d, finite, nonnegative and strictly
    ascending, or empty. Each pair's distances then go straight to
    ``_rises``, the rule of ``increasing_intervals`` and
    ``MonotonicityProfile.total_increase``, at ``RISE_TOL``; no
    profile is built per pair.

    ``make_scenario`` is called once per pair, and each pair is measured
    before the next one is built. The result is a lower estimate of the
    measure (grid approximation). Pairs are scanned in lexicographic angle
    order and replaced only on a strict improvement, so ties resolve to the
    smallest angles.
    """
    if not pairs:
        raise ValueError("need at least one initial pair")
    ts = linalg._require_grid(times, "times")
    best_value = -np.inf
    best_pair: BlochPair | None = None
    source = bloch = None
    for pair in sorted(pairs):
        (th1, ph1), (th2, ph2) = pair
        sc = make_scenario(pure_qubit(th1, ph1), pure_qubit(th2, ph2))
        env = _shared_environment(sc.state1, sc.state2)
        if sc.ds != 2 or env is None:
            raise ValueError(
                "the measure is maximized through the qubit's reduced map, which needs both "
                "states to be products of a qubit factor and one shared environment factor"
            )
        same_map = source is not None and sc.propagator is source.propagator
        if not (same_map and _shared_environment(sc.state1, source.state1) is not None):
            source = sc
            images = sc.propagator.reduced((_PAULI_BASIS, env), ts, 2, sc.de)
            try:
                images = linalg.require_hermitian(images, "qubit map")
            except ValueError as exc:  # a computed map, not a bad input
                raise witness.InvariantViolation(str(exc)) from exc
            # row 4 i + j: coordinate j of the four images at ts[i]
            bloch = np.moveaxis(linalg._bloch_coordinates(images), 0, -1).reshape(-1, 4)
        # Hermitian: d01 = conj(d10)
        (d00, _), (d10, d11) = (sc.state1.system() - sc.state2.system()).tolist()
        coefficients = ((d00.real + d11.real) / 2, d10.real, d10.imag, (d00.real - d11.real) / 2)
        distances = 0.5 * linalg._qubit_norm((bloch @ coefficients).reshape(-1, 4))
        _, value = _rises(distances)
        if value > best_value:
            best_value = value
            best_pair = pair
    assert best_pair is not None
    return best_value, best_pair
