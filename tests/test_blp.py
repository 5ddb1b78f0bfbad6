import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backflow import blp, linalg, spinchain
from backflow.blp import (
    bloch_pair_grid,
    distance_profile,
    increasing_intervals,
    nm_measure_fixed_pair,
    nm_measure_maximized,
)
from backflow.dephasing import (
    DiagonalPropagator,
    DoubleLorentzian,
    SingleLorentzian,
    dephasing_function,
    discretize,
    full_model,
)
from backflow.spinchain import SpinChainSpec
from backflow.states import BipartiteState, pure_qubit
from backflow.witness import EigenPropagator, InvariantViolation, ScenarioPair, reduced_distance

from conftest import PHASE_OVERFLOW, chain_transfer_amplitude_direct

SPLIT_CENTERS = DoubleLorentzian(omega0_1=1.0, delta1=1.0, omega0_2=9.0, delta2=1.0, r=1.0)


class TestIncreasingIntervals:
    def test_monotone_decreasing_has_none(self):
        times = np.arange(5.0)
        profile = increasing_intervals(times, [1.0, 0.8, 0.5, 0.3, 0.1])
        assert profile.intervals == ()
        assert profile.total_increase() == 0.0
        assert not profile.flags().any()

    def test_two_rises(self):
        times = np.arange(5.0)
        profile = increasing_intervals(times, [1.0, 0.4, 0.6, 0.5, 0.7])
        assert profile.intervals == ((1, 2), (3, 4))
        assert profile.total_increase() == pytest.approx(0.4, abs=1e-15)
        np.testing.assert_array_equal(profile.flags(), [False, True, True, True, True])

    def test_merges_consecutive_rises(self):
        profile = increasing_intervals(np.arange(6.0), [0.5, 0.1, 0.2, 0.3, 0.4, 0.2])
        assert profile.intervals == ((1, 4),)
        assert profile.total_increase() == pytest.approx(0.3, abs=1e-15)

    def test_rise_at_the_end(self):
        profile = increasing_intervals(np.arange(3.0), [0.5, 0.2, 0.9])
        assert profile.intervals == ((1, 2),)

    def test_rise_tolerance_filters_jitter(self):
        values = [0.5, 0.5 + 1e-12, 0.5, 0.5 + 1e-12]
        profile = increasing_intervals(np.arange(4.0), values)
        assert profile.intervals == ()

    def test_a_rise_counts_only_above_the_tolerance(self):
        # steps from 0.0 are exact: one of RISE_TOL, then one a float above it
        above = np.nextafter(blp.RISE_TOL, np.inf)
        profile = increasing_intervals(np.arange(4.0), [0.0, blp.RISE_TOL, 0.0, above])
        assert profile.intervals == ((2, 3),)
        assert profile.total_increase() == above

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            increasing_intervals([0.0, 1.0], [1.0, 2.0, 3.0])

    def test_non_ascending_times(self):
        with pytest.raises(ValueError, match="ascending"):
            increasing_intervals([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_times_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            increasing_intervals([0.0, bad, 2.0], [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            increasing_intervals([0.0, 1.0, 2.0], [0.1, bad, 0.3])

    def test_matches_a_stepwise_scan(self, rng):
        def scan(values):
            intervals, start = [], None
            for i, up in enumerate(np.diff(values) > blp.RISE_TOL):
                if up and start is None:
                    start = i
                elif not up and start is not None:
                    intervals.append((start, i))
                    start = None
            return tuple(intervals) + (((start, len(values) - 1),) if start is not None else ())

        # in units of RISE_TOL, steps of exactly one unit sit on the boundary
        for n in [0, 1, 2, 3, 8, 40] * 5:
            for unit in (0.1, blp.RISE_TOL):
                values = rng.integers(0, 3, size=n) * unit
                got = increasing_intervals(np.arange(float(n)), values).intervals
                assert got == scan(values)
                assert all(type(i) is int for pair in got for i in pair)

    def test_split_centers_coherence_revives(self):
        ts = np.linspace(0.0, 3.0, 100)
        profile = increasing_intervals(ts, np.abs(dephasing_function(SPLIT_CENTERS, ts)))
        assert len(profile.intervals) >= 1


class TestFixedPairMeasure:
    def test_single_lorentzian_is_markovian(self):
        env = discretize(SingleLorentzian(1.0, 1.0), modes=64, window=20.0)
        sc = full_model(env)
        assert nm_measure_fixed_pair(sc, np.linspace(0.0, 3.0, 40)) == 0.0

    def test_equal_centers_is_markovian(self):
        # the mode comb must be dense enough to push its recurrence past the
        # grid, else aliasing fabricates revivals the continuum does not have
        dist = DoubleLorentzian(1.0, 1.0, 1.0, 10.0, 1.0)
        env = discretize(dist, modes=512, window=20.0)
        sc = full_model(env)
        assert nm_measure_fixed_pair(sc, np.linspace(0.0, 3.0, 40)) == 0.0

    def test_pipeline_matches_closed_form(self):
        # the discrete environment makes both routes share the same k exactly
        env = discretize(SPLIT_CENTERS, modes=96, window=20.0)
        sc = full_model(env)
        ts = np.linspace(0.0, 3.0, 60)
        from_pipeline = nm_measure_fixed_pair(sc, ts)
        closed = increasing_intervals(ts, np.abs(dephasing_function(env, ts))).total_increase()
        assert from_pipeline == pytest.approx(closed, abs=1e-9)
        assert from_pipeline > 0

    def test_profile_flags_mark_growth(self):
        env = discretize(SPLIT_CENTERS, modes=96, window=20.0)
        sc = full_model(env)
        ts = np.linspace(0.0, 2.0, 40)
        profile = distance_profile(sc, ts)
        assert profile.flags().sum() > 0

    def test_refinement_never_loses_more_than_tolerance(self):
        ts_coarse = np.linspace(0.0, 3.0, 31)
        ts_fine = np.linspace(0.0, 3.0, 61)  # nested: every coarse point included
        vals = lambda ts: np.abs(dephasing_function(SPLIT_CENTERS, ts))
        coarse = increasing_intervals(ts_coarse, vals(ts_coarse)).total_increase()
        fine = increasing_intervals(ts_fine, vals(ts_fine)).total_increase()
        assert fine >= coarse - len(ts_fine) * blp.RISE_TOL

    def test_chain_profile_matches_transfer_amplitude(self):
        # a state at polar angle theta paired with its antipode keeps |f| of its coherence
        # and |f|^2 of its population difference: D = sqrt(|f|^2 s^2 + |f|^4 c^2)
        chain = dict(sites=4, exchange=1.0, probe_exchange=0.7, field=0.05)
        spec = SpinChainSpec(**chain)
        ts = np.linspace(0.0, 4.0, 33)
        f = chain_transfer_amplitude_direct(ts, **chain)
        for (th1, ph1), (th2, ph2) in bloch_pair_grid(5, 2):
            sc = spinchain.scenario(spec, pair=(pure_qubit(th1, ph1), pure_qubit(th2, ph2)))
            expected = np.sqrt(f**2 * np.sin(th1) ** 2 + f**4 * np.cos(th1) ** 2)
            np.testing.assert_allclose(
                distance_profile(sc, ts).values, expected, rtol=0, atol=1e-12
            )


class TestPairGrid:
    def test_each_pair_is_a_state_and_its_antipode(self):
        pairs = bloch_pair_grid(3, 4)
        assert len(pairs) == 12
        for (th1, ph1), (th2, ph2) in pairs:
            assert th2 == pytest.approx(np.pi - th1, abs=1e-12)
            assert (ph2 - ph1) % (2 * np.pi) == pytest.approx(np.pi, abs=1e-12)

    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            bloch_pair_grid(0, 4)
        for counts, name in (((2.5, 2), "n_theta"), ((float("nan"), 2), "n_theta"),
                             ((2, 2.0), "n_phi")):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                bloch_pair_grid(*counts)


class TestMaximizedMeasure:
    def test_identical_pairs_give_zero(self):
        env = discretize(SPLIT_CENTERS, modes=48, window=15.0)
        make = lambda r1, r2: full_model(env, pair=(r1, r2))
        pairs = [((0.7, 0.3), (0.7, 0.3)), ((1.2, 2.0), (1.2, 2.0))]
        value, _ = nm_measure_maximized(make, np.linspace(0.0, 2.0, 20), pairs)
        assert value == 0.0

    def test_dephasing_maximum_on_the_equator(self):
        env = discretize(SPLIT_CENTERS, modes=48, window=15.0)
        make = lambda r1, r2: full_model(env, pair=(r1, r2))
        ts = np.linspace(0.0, 2.0, 30)
        value, best = nm_measure_maximized(make, ts, bloch_pair_grid(5, 4))
        assert best[0][0] == pytest.approx(np.pi / 2, abs=1e-12)
        # the +/- pair attains the same maximum: D(t) = |k(t)| for every
        # equatorial pair of a state and its antipode
        closed = increasing_intervals(ts, np.abs(dephasing_function(env, ts))).total_increase()
        assert value == pytest.approx(closed, abs=1e-9)
        plus_minus_value = nm_measure_fixed_pair(
            full_model(env), ts
        )
        assert value == pytest.approx(plus_minus_value, abs=1e-12)

    def test_spin_chain_equator_dominates_poles(self):
        spec = SpinChainSpec(sites=3, exchange=1.0, probe_exchange=1.0, field=0.01)
        make = lambda r1, r2: spinchain.scenario(spec, pair=(r1, r2))
        ts = np.linspace(0.0, 2.0, 25)
        equatorial = [((np.pi / 2, 0.0), (np.pi / 2, np.pi))]
        polar = [((0.0, 0.0), (np.pi, np.pi))]
        eq_value, _ = nm_measure_maximized(make, ts, equatorial)
        polar_value, _ = nm_measure_maximized(make, ts, polar)
        assert eq_value >= polar_value - 1e-12

    def test_benchmark_chain_value_and_equatorial_argmax(self):
        """The inputs of the benchmark's nm-max workload: 7 sites, field
        0.01, the 6-pair lattice and 40 times up to 3. The value was recorded
        when that workload was introduced. A denser lattice ties on the
        equator, so only this lattice's argmax is pinned."""
        spec = SpinChainSpec(sites=7, exchange=1.0, probe_exchange=1.0, field=0.01)
        make = lambda r1, r2: spinchain.scenario(spec, pair=(r1, r2))
        value, best = nm_measure_maximized(make, np.linspace(0.0, 3.0, 40), bloch_pair_grid(3, 2))
        assert value == pytest.approx(1.109459161996685, abs=1e-12)
        assert best == ((np.pi / 2, 0.0), (np.pi / 2, np.pi))

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            nm_measure_maximized(lambda a, b: None, [0.0, 1.0], [])

    @pytest.mark.parametrize("times, match", [
        ([0.0, 1.0, 1.0], "strictly ascending"),
        ([0.0, 2.0, 1.0], "strictly ascending"),
        ([0.0, np.nan, 2.0], "finite"),
        ([0.0, np.inf], "finite"),
        ([-1.0, 0.0, 1.0], "nonnegative"),
        ([[0.0, 1.0]], "1-d"),
    ])
    def test_grid_checked_before_any_scenario(self, times, match):
        calls = []

        def make(r1, r2):
            calls.append((r1, r2))
            raise AssertionError("a scenario was built")

        with pytest.raises(ValueError, match=match):
            nm_measure_maximized(make, times, bloch_pair_grid(3, 2))
        assert calls == []

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_overflowing_phases_give_an_invariant_violation(self, action):
        # the phases are computed, so their overflow is no bad input; distance_profile agrees
        spec = SpinChainSpec(sites=3)
        make = lambda r1, r2: spinchain.scenario(spec, (r1, r2))
        times = [0.0, 1.0, 1e308]
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(InvariantViolation, match=PHASE_OVERFLOW):
                nm_measure_maximized(make, times, bloch_pair_grid(3, 2))
            with pytest.raises(InvariantViolation, match=PHASE_OVERFLOW):
                distance_profile(spinchain.scenario(spec), times)

    def test_makes_no_increasing_intervals_call(self, monkeypatch):
        """The grid is checked once and each pair's curve goes straight to
        the shared rise rule: no per-pair profile or interval detection."""
        def forbidden(*args, **kwargs):
            raise AssertionError("called per pair")

        monkeypatch.setattr(blp, "increasing_intervals", forbidden)
        monkeypatch.setattr(blp, "MonotonicityProfile", forbidden)
        spec = SpinChainSpec(sites=3, exchange=1.0, probe_exchange=1.0, field=0.01)
        value, _ = nm_measure_maximized(lambda r1, r2: spinchain.scenario(spec, (r1, r2)),
                                        np.linspace(0.0, 3.0, 40), bloch_pair_grid(3, 2))
        assert value > 0


def recorded_profiles(monkeypatch):
    """The distance curves ``nm_measure_maximized`` hands to ``blp._rises``,
    pair by pair in scan order. Calls from anywhere else, such as the
    tests' own ``increasing_intervals``, are not recorded."""
    curves = []
    rises = blp._rises

    def recording(values):
        if sys._getframe(1).f_code is nm_measure_maximized.__code__:
            curves.append(np.array(values))
        return rises(values)

    monkeypatch.setattr(blp, "_rises", recording)
    return curves


class ScaledBloch:
    """A propagator whose reduced map keeps the identity and scales sigma_x,
    sigma_y and sigma_z by ``scale[i]`` at the i-th time, so that an antipodal
    pair's distance curve is |scale|."""

    dim = 4
    evolve = forecast = None  # the measure calls ``reduced`` only

    def __init__(self, scale):
        self.scale = scale

    def reduced(self, mat, times, ds, de):
        basis, _ = mat
        factors = np.stack([np.ones_like(self.scale)] + [self.scale] * 3)
        return factors[:, :, None, None] * basis[:, None]


# steps of a curve: rises and falls, and plateaus whose jitter is within the
# rise tolerance, at it or just above it. The large steps are quotients by a
# prime, since Hypothesis favours floats whose sums are exact.
CURVE_STEPS = st.lists(
    st.one_of(st.integers(-30000, 30000).map(lambda k: k / 100003), st.floats(-2e-10, 2e-10),
              st.sampled_from([0.0, blp.RISE_TOL, -blp.RISE_TOL])),
    max_size=40,
)


class TestSharedRiseRule:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(steps=CURVE_STEPS)
    def test_per_pair_totals_equal_the_profile_total(self, steps):
        """Each pair's total in the maximization, read as the value of a
        one-pair call, equals bit for bit the total of ``increasing_intervals``
        on that pair's curve, and the sum over its intervals in numpy floats,
        the rule it replaced."""
        scale = np.cumsum([0.0, *steps])  # crosses binades, so sums can round apart
        ts = np.arange(scale.size, dtype=float)
        prop = ScaledBloch(scale)
        env = np.array([1.0, 0.0])
        make = lambda r1, r2: ScenarioPair(*BipartiteState.products((r1, r2), env), prop)
        for pair in [((np.pi / 2, 0.0), (np.pi / 2, np.pi)), ((0.0, 0.0), (np.pi, np.pi)),
                     ((1.0, 0.5), (np.pi - 1.0, 0.5 + np.pi))]:
            with pytest.MonkeyPatch.context() as mp:
                curves = recorded_profiles(mp)
                value, _ = nm_measure_maximized(make, ts, [pair])
            (curve,) = curves
            profile = increasing_intervals(ts, curve)
            assert value == profile.total_increase()
            assert value == float(sum(curve[b] - curve[a] for a, b in profile.intervals))

    def test_rule_rejects_a_non_finite_curve(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="values must be finite"):
                blp._rises(np.array([0.1, bad, 0.3]))


def counted_reduced(monkeypatch, cls):
    """A list that grows by one on every ``cls.reduced`` call."""
    calls = []
    reduced = cls.reduced

    def counting(self, *args):
        calls.append(args)
        return reduced(self, *args)

    monkeypatch.setattr(cls, "reduced", counting)
    return calls


def random_bloch_pairs(rng, count):
    angles = rng.uniform([0.0, 0.0, 0.0, 0.0], [np.pi, 2 * np.pi, np.pi, 2 * np.pi], (count, 4))
    return [((a, b), (c, d)) for a, b, c, d in angles.tolist()]


class TestQubitMap:
    """The maximized measure reads every pair off the qubit's reduced map,
    built by one propagator call per environment."""

    @pytest.mark.parametrize("model", ["chain-4", "chain-7", "modes-48"])
    def test_equals_the_per_pair_reduced_distance(self, rng, monkeypatch, model):
        if model.startswith("chain"):
            spec = SpinChainSpec(sites=int(model[-1]), exchange=1.0, probe_exchange=0.7, field=0.3)
            make = lambda r1, r2: spinchain.scenario(spec, pair=(r1, r2))
        else:
            env = discretize(SPLIT_CENTERS, modes=48, window=15.0)
            make = lambda r1, r2: full_model(env, pair=(r1, r2))
        ts = np.linspace(0.0, 3.0, 30)
        pairs = random_bloch_pairs(rng, 8)
        curves = recorded_profiles(monkeypatch)
        value, _ = nm_measure_maximized(make, ts, pairs)
        assert len(curves) == len(pairs)
        for curve, ((th1, ph1), (th2, ph2)) in zip(curves, sorted(pairs)):
            sc = make(pure_qubit(th1, ph1), pure_qubit(th2, ph2))
            np.testing.assert_allclose(curve, reduced_distance(sc, ts), rtol=0, atol=1e-12)
        per_pair = max(increasing_intervals(ts, c).total_increase() for c in curves)
        assert value == per_pair

    def test_one_propagator_call_per_environment(self, monkeypatch):
        spec = SpinChainSpec(sites=7, exchange=1.0, probe_exchange=1.0, field=0.01)
        ts, pairs = np.linspace(0.0, 3.0, 40), bloch_pair_grid(3, 2)
        calls = counted_reduced(monkeypatch, EigenPropagator)
        nm_measure_maximized(lambda r1, r2: spinchain.scenario(spec, (r1, r2)), ts, pairs)
        assert len(calls) == 1
        basis, env = calls[0][0]
        assert basis.shape == (4, 2, 2) and env.shape == (2**7,)
        # an environment that changes between pairs rebuilds the map at each change
        psi = np.zeros(2**7)
        psi[0] = psi[1] = np.sqrt(0.5)
        envs = iter([psi, psi, np.eye(1, 2**7)[0]] * 2)
        propagator = spinchain._block_propagator(spec)

        def switching(r1, r2):
            state1, state2 = BipartiteState.products((r1, r2), next(envs))
            return ScenarioPair(state1, state2, propagator)

        calls.clear()
        nm_measure_maximized(switching, ts, pairs)
        assert len(calls) == 4
        # full_model builds a new propagator per pair, so each pair builds its map
        env = discretize(SPLIT_CENTERS, modes=48, window=15.0)
        calls = counted_reduced(monkeypatch, DiagonalPropagator)
        nm_measure_maximized(lambda r1, r2: full_model(env, pair=(r1, r2)), ts, pairs)
        assert len(calls) == len(pairs)

    def test_equal_environments_need_not_be_one_array(self, rng):
        spec = SpinChainSpec(sites=4, exchange=1.0, probe_exchange=1.0, field=0.01)
        env = np.eye(1, 2**4)[0]
        propagator = spinchain._block_propagator(spec)

        def apart(r1, r2):
            return ScenarioPair(BipartiteState.product(r1, env), BipartiteState.product(r2, env),
                                propagator)

        ts, pairs = np.linspace(0.0, 2.0, 20), random_bloch_pairs(rng, 4)
        shared = nm_measure_maximized(lambda r1, r2: spinchain.scenario(spec, (r1, r2)), ts, pairs)
        assert nm_measure_maximized(apart, ts, pairs) == shared

    def test_no_map_without_one_shared_environment(self, rng):
        spec = SpinChainSpec(sites=3, exchange=1.0, probe_exchange=1.0, field=0.01)
        propagator = spinchain._block_propagator(spec)
        other = np.zeros(2**3)
        other[1] = 1.0

        def dense(r1, r2):
            sc = spinchain.scenario(spec, (r1, r2))
            return ScenarioPair(BipartiteState(sc.state1.op, 2, 8),
                                BipartiteState(sc.state2.op, 2, 8), propagator)

        def different(r1, r2):
            sc = spinchain.scenario(spec, (r1, r2))
            return ScenarioPair(sc.state1, BipartiteState.product(r2, other), propagator)

        for make in (dense, different):
            with pytest.raises(ValueError, match="shared environment factor"):
                nm_measure_maximized(make, [0.0, 1.0], bloch_pair_grid(3, 2))

    def test_antipodal_equatorial_pairs_tie_exactly(self, monkeypatch):
        """The benchmark pins the argmax of the 6-pair lattice, where the
        equatorial pair and its swap tie: their curves must be equal bit for
        bit, so that the first one in scan order wins."""
        spec = SpinChainSpec(sites=7, exchange=1.0, probe_exchange=1.0, field=0.01)
        curves = recorded_profiles(monkeypatch)
        pairs = bloch_pair_grid(3, 2)
        nm_measure_maximized(lambda r1, r2: spinchain.scenario(spec, (r1, r2)),
                             np.linspace(0.0, 3.0, 40), pairs)
        by_pair = dict(zip(sorted(pairs), curves))
        forward = by_pair[((np.pi / 2, 0.0), (np.pi / 2, np.pi))]
        assert np.array_equal(forward, by_pair[((np.pi / 2, np.pi), (np.pi / 2, 0.0))])
        assert forward.max() > 0.5

    def test_bloch_form_equals_the_explicit_delta_stack(self, monkeypatch):
        """Each pair's curve, read off the map's Bloch coordinates, against
        half the trace norm of sum_k c_k Lambda_t(B_k) formed as matrices."""
        spec = SpinChainSpec(sites=7, exchange=1.0, probe_exchange=1.0, field=0.01)
        ts, pairs = np.linspace(0.0, 3.0, 40), bloch_pair_grid(9, 8)
        make = lambda r1, r2: spinchain.scenario(spec, (r1, r2))
        curves = recorded_profiles(monkeypatch)
        nm_measure_maximized(make, ts, pairs)
        images = spinchain._block_propagator(spec).reduced(
            (blp._PAULI_BASIS, np.eye(1, 2**7)[0]), ts, 2, 2**7)
        assert len(curves) == len(pairs)
        for curve, ((th1, ph1), (th2, ph2)) in zip(curves, sorted(pairs)):
            d = pure_qubit(th1, ph1) - pure_qubit(th2, ph2)
            coefficients = [(d[0, 0] + d[1, 1]).real / 2, d[1, 0].real, d[1, 0].imag,
                            (d[0, 0] - d[1, 1]).real / 2]
            delta = sum(c * image for c, image in zip(coefficients, images))
            np.testing.assert_allclose(curve, 0.5 * linalg.trace_norm(delta), rtol=0, atol=1e-12)

    def test_the_map_is_checked_for_hermiticity(self):
        """The Hermiticity check of each pair's difference moved to the map
        the pairs are read from: a map with an anti-Hermitian part fails."""
        spec = SpinChainSpec(sites=4, exchange=1.0, probe_exchange=1.0, field=0.01)
        inner = spinchain._block_propagator(spec)

        def skewed_reduced(*args):
            return inner.reduced(*args) + 0.5e-6 * np.array([[0, 1], [-1, 0]])

        skewed = SimpleNamespace(dim=inner.dim, evolve=inner.evolve, reduced=skewed_reduced,
                                 forecast=inner.forecast)

        def make(r1, r2):
            sc = spinchain.scenario(spec, (r1, r2))
            return ScenarioPair(sc.state1, sc.state2, skewed)

        with pytest.raises(InvariantViolation, match="not Hermitian: defect 1.000e-06"):
            nm_measure_maximized(make, np.linspace(0.0, 2.0, 20), bloch_pair_grid(3, 2))
