"""Non-Markovianity as accumulated trace-distance increase.

The measure sums D(b_k) - D(a_k) over the maximal intervals (a_k, b_k)
where the reduced trace distance grows along a sampled time grid, then
maximizes over initial state pairs. Grid sampling makes every reported
value a lower estimate of the true measure; interval endpoints are grid
indices, with no sub-grid refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import witness
from .states import pure_qubit
from .witness import ScenarioPair

DEFAULT_RISE_TOL = 1e-10

BlochAngles = tuple[float, float]
BlochPair = tuple[BlochAngles, BlochAngles]


@dataclass(frozen=True, eq=False)
class MonotonicityProfile:
    """Sampled distance curve with its detected growth intervals.

    Intervals are (start, stop) index pairs, disjoint and ordered; between
    consecutive samples inside one, the curve rises by more than the rise
    tolerance used at detection.
    """

    times: np.ndarray
    values: np.ndarray
    intervals: tuple[tuple[int, int], ...]

    def total_increase(self) -> float:
        """Sum of rises over the detected intervals; the measure for this curve."""
        return float(sum(self.values[b] - self.values[a] for a, b in self.intervals))

    def interval_times(self) -> tuple[tuple[float, float], ...]:
        return tuple((float(self.times[a]), float(self.times[b])) for a, b in self.intervals)

    def flags(self) -> np.ndarray:
        """Boolean mask: sample lies inside some growth interval."""
        mask = np.zeros(self.times.shape, dtype=bool)
        for a, b in self.intervals:
            mask[a : b + 1] = True
        return mask


def increasing_intervals(times, values, rise_tol: float = DEFAULT_RISE_TOL) -> MonotonicityProfile:
    """Detect maximal runs of strict increase along a sampled curve.

    A step counts as an increase only when it exceeds ``rise_tol``, so
    numerical jitter cannot fabricate growth. Consecutive rising steps
    merge into one interval. Non-finite times or values are rejected: a NaN
    compares false both ways, so it would pass the ascending check or hide
    a rise. ``rise_tol`` must be finite and nonnegative.
    """
    if not 0.0 <= rise_tol < np.inf:
        raise ValueError(f"rise_tol must be finite and nonnegative, got {rise_tol}")
    ts = np.asarray(times, dtype=float)
    vs = np.asarray(values, dtype=float)
    if ts.ndim != 1 or vs.shape != ts.shape:
        raise ValueError(f"times and values must match, got {ts.shape} vs {vs.shape}")
    if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(vs))):
        raise ValueError("times and values must be finite")
    if ts.size > 1 and np.any(np.diff(ts) <= 0):
        raise ValueError("times must be strictly ascending")
    rising = np.diff(vs) > rise_tol if ts.size > 1 else np.zeros(0, dtype=bool)
    intervals: list[tuple[int, int]] = []
    start = None
    for i, up in enumerate(rising):
        if up and start is None:
            start = i
        elif not up and start is not None:
            intervals.append((start, i))
            start = None
    if start is not None:
        intervals.append((start, len(rising)))
    return MonotonicityProfile(times=ts, values=vs, intervals=tuple(intervals))


def nm_measure_fixed_pair(sc: ScenarioPair, times) -> float:
    """Accumulated distance increase for one scenario along a time grid."""
    profile = distance_profile(sc, times)
    return profile.total_increase()


def distance_profile(sc: ScenarioPair, times) -> MonotonicityProfile:
    """Reduced trace distance sampled along ``times``, with growth intervals
    above ``DEFAULT_RISE_TOL``; for another tolerance, pass the distances to
    ``increasing_intervals``."""
    ts = np.asarray(times, dtype=float)
    return increasing_intervals(ts, witness.reduced_distance(sc, ts))


def bloch_pair_grid(n_theta: int, n_phi: int) -> list[BlochPair]:
    """Initial pairs on a Bloch-sphere lattice: each lattice state with its
    antipode, since optimal pairs for distance-based measures are
    orthogonal. An odd ``n_theta`` puts the equator on the lattice.
    """
    if n_theta < 1 or n_phi < 1:
        raise ValueError("lattice must have at least one point per axis")
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

    ``make_scenario`` turns two 2x2 initial system states into a scenario.
    The result is a lower estimate of the measure (grid approximation).
    Pairs are scanned in lexicographic angle order and replaced only on a
    strict improvement, so ties resolve to the smallest angles.
    """
    if not pairs:
        raise ValueError("need at least one initial pair")
    best_value = -np.inf
    best_pair: BlochPair | None = None
    for pair in sorted(pairs):
        (th1, ph1), (th2, ph2) = pair
        sc = make_scenario(pure_qubit(th1, ph1), pure_qubit(th2, ph2))
        value = nm_measure_fixed_pair(sc, times)
        if value > best_value:
            best_value = value
            best_pair = pair
    assert best_pair is not None
    return best_value, best_pair
