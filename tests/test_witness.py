import re
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backflow import cli, linalg, spinchain, states, witness
from backflow.dephasing import DiagonalPropagator
from backflow.states import BipartiteState
from backflow.witness import (
    Classification,
    EigenPropagator,
    ScenarioPair,
    classify,
    classify_values,
    correlation_influence,
    distance_change,
    evaluate_point,
    evaluate_surface,
    evolve_pair,
    forecast_distance,
    reduced_distance,
    weak_upper_bound,
)

from conftest import PHASE_OVERFLOW, random_density_direct, random_hermitian_direct


def random_scenario(rng, ds=2, de=3, equal_env=False):
    eig = linalg.hermitian_eigensystem(random_hermitian_direct(ds * de, rng))
    env1 = random_density_direct(de, rng)
    env2 = env1 if equal_env else random_density_direct(de, rng)
    s1 = BipartiteState(np.kron(random_density_direct(ds, rng), env1), ds, de)
    s2 = BipartiteState(np.kron(random_density_direct(ds, rng), env2), ds, de)
    return ScenarioPair(state1=s1, state2=s2, propagator=eig)


class TestScenarioPair:
    def test_wraps_bare_eigensystem(self, rng):
        sc = random_scenario(rng)
        assert isinstance(sc.propagator, EigenPropagator)

    def test_rejects_mismatched_factors(self, rng):
        s1 = BipartiteState(random_density_direct(4, rng), 2, 2)
        s2 = BipartiteState(random_density_direct(4, rng), 4, 1)
        eig = linalg.hermitian_eigensystem(random_hermitian_direct(4, rng))
        with pytest.raises(ValueError, match="factors"):
            ScenarioPair(state1=s1, state2=s2, propagator=eig)

    def test_rejects_mismatched_propagator(self, rng):
        s1 = BipartiteState(random_density_direct(4, rng), 2, 2)
        s2 = BipartiteState(random_density_direct(4, rng), 2, 2)
        eig = linalg.hermitian_eigensystem(random_hermitian_direct(6, rng))
        with pytest.raises(ValueError, match="dimension"):
            ScenarioPair(state1=s1, state2=s2, propagator=eig)


class TestEvolvePair:
    def test_time_zero_returns_initial(self, rng):
        sc = random_scenario(rng)
        s1, s2 = evolve_pair(sc, 0.0)
        np.testing.assert_array_equal(s1.op, sc.state1.op)
        np.testing.assert_array_equal(s2.op, sc.state2.op)

    def test_negative_time_rejected(self, rng):
        with pytest.raises(ValueError, match="nonnegative"):
            evolve_pair(random_scenario(rng), -0.1)

    def test_purity_preserved(self, rng):
        sc = random_scenario(rng)
        for t in (0.4, 1.7):
            s1, _ = evolve_pair(sc, t)
            purity0 = np.trace(sc.state1.op @ sc.state1.op).real
            assert np.trace(s1.op @ s1.op).real == pytest.approx(purity0, abs=1e-11)

    def test_composition(self, rng):
        sc = random_scenario(rng)
        t, tp = 0.6, 0.9
        s1_mid, _ = evolve_pair(sc, t)
        stepped = sc.propagator.evolve(s1_mid.op, tp)
        s1_full, _ = evolve_pair(sc, t + tp)
        assert np.max(np.abs(stepped - s1_full.op)) <= 1e-10


class TestForecast:
    def test_zero_step_equals_distance(self, rng):
        for _ in range(5):
            sc = random_scenario(rng)
            t = float(rng.uniform(0, 2))
            assert forecast_distance(sc, 0.0, t) == pytest.approx(
                reduced_distance(sc, t), abs=1e-12
            )

    def test_never_exceeds_current_distance(self, rng):
        for _ in range(10):
            sc = random_scenario(rng)
            t, tp = rng.uniform(0, 2, size=2)
            assert forecast_distance(sc, float(tp), float(t)) <= reduced_distance(
                sc, float(t)
            ) + 1e-9

    def test_swapped_environment_label(self, rng):
        sc = random_scenario(rng)
        swapped = ScenarioPair(state1=sc.state2, state2=sc.state1, propagator=sc.propagator)
        # either branch's environment gives a valid forecast: contractive,
        # equal at t'=0; the swapped pair takes that of state2
        for pair in (sc, swapped):
            assert forecast_distance(pair, 0.0, 0.8) == pytest.approx(
                reduced_distance(sc, 0.8), abs=1e-12
            )
            assert forecast_distance(pair, 0.5, 0.8) <= reduced_distance(
                sc, 0.8
            ) + 1e-9


class TestInfluence:
    def test_zero_for_uncorrelated_equal_environments(self, rng):
        sc = random_scenario(rng, equal_env=True)
        # at t=0 both totals are products with the same environment
        for tp in (0.0, 0.7, 1.9):
            assert correlation_influence(sc, tp, 0.0) <= 1e-12

    def test_range(self, rng):
        for _ in range(10):
            sc = random_scenario(rng)
            t, tp = rng.uniform(0, 2, size=2)
            b = correlation_influence(sc, float(tp), float(t))
            assert -1e-12 <= b <= 2.0 + 1e-12


class TestBoundWindow:
    def test_sandwich_on_random_scenarios(self, rng):
        for _ in range(25):
            sc = random_scenario(rng, de=int(rng.integers(2, 5)))
            t, tp = rng.uniform(0, 2, size=2)
            p = evaluate_point(sc, float(tp), float(t))
            assert p.lower - 1e-9 <= p.delta_d <= p.upper + 1e-9
            assert p.delta_d == pytest.approx(p.d_next - p.d_t, abs=1e-12)
            assert p.lower == pytest.approx(p.influence - p.forecast - p.d_t, abs=1e-15)
            assert p.upper == pytest.approx(p.influence + p.forecast - p.d_t, abs=1e-15)
            assert p.gap == pytest.approx(2 * p.forecast, abs=1e-12)

    def test_delta_matches_direct_distances(self, rng):
        sc = random_scenario(rng)
        t, tp = 0.5, 1.1
        direct = reduced_distance(sc, t + tp) - reduced_distance(sc, t)
        assert distance_change(sc, tp, t) == pytest.approx(direct, abs=1e-10)

    def test_lower_threshold_nonnegative(self, rng):
        for _ in range(10):
            sc = random_scenario(rng)
            t, tp = rng.uniform(0, 2, size=2)
            p = evaluate_point(sc, float(tp), float(t))
            assert p.d_t - p.forecast >= -1e-9


class TestClassify:
    def test_below_lower_threshold(self):
        assert classify_values(0.0, 0.5, 0.3) is Classification.INCREASE_IMPOSSIBLE

    def test_above_upper_threshold(self):
        assert classify_values(1.0, 0.2, 0.1) is Classification.GUARANTEED_INCREASE

    def test_between_thresholds(self):
        assert classify_values(0.5, 0.5, 0.2) is Classification.INCONCLUSIVE

    def test_degenerate_all_zero(self):
        assert classify_values(0.0, 0.0, 0.0) is Classification.INCREASE_IMPOSSIBLE

    def test_zero_margin_allowed(self):
        assert classify_values(1.0, 0.2, 0.1, eps=0.0) is Classification.GUARANTEED_INCREASE

    @pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf])
    def test_bad_margin_rejected(self, bad, rng):
        # NaN would label every cell Inconclusive, -1 and inf IncreaseImpossible
        problem = "nonnegative" if bad < 0 else "finite"
        with pytest.raises(ValueError, match=f"^eps must be {problem}, got"):
            classify_values(0.5, 0.5, 0.2, eps=bad)
        with pytest.raises(ValueError, match=f"^eps must be {problem}, got"):
            evaluate_surface(random_scenario(rng), [0.0, 0.5], [0.0, 0.5], eps=bad)

    def test_on_point(self, rng):
        sc = random_scenario(rng)
        p = evaluate_point(sc, 0.5, 0.5)
        assert classify(p) is p.label

    @staticmethod
    def rule(influence, d_t, forecast, eps):
        """The classification rule as scalar if-statements."""
        if influence < d_t - forecast - eps:
            return Classification.INCREASE_IMPOSSIBLE
        if influence > d_t + forecast + eps:
            return Classification.GUARANTEED_INCREASE
        if influence <= eps and d_t <= eps and forecast <= eps:
            return Classification.INCREASE_IMPOSSIBLE
        return Classification.INCONCLUSIVE

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        cells=st.lists(
            st.tuples(
                st.floats(-0.5, 2.5),
                st.floats(-0.5, 2.5),
                st.floats(-0.5, 2.5),
                st.sampled_from(["free", "lower", "upper", "zero"]),
            ),
            min_size=1,
            max_size=12,
        ),
        eps=st.sampled_from([0.0, 1e-12, witness.DEFAULT_CLASS_EPS, 0.1]),
    )
    def test_array_labels_match_scalar_calls(self, cells, eps):
        """Columns are labelled cell by cell as scalars are, also with B
        exactly at D - F - eps or D + F + eps and on the all-zero cell."""
        values = []
        for b, d, f, kind in cells:
            if kind == "zero":
                b = d = f = 0.0
            elif kind == "lower":
                b = d - f - eps
            elif kind == "upper":
                b = d + f + eps
            values.append((b, d, f))
        influence, d_t, forecast = np.array(values).T
        labels = classify_values(influence, d_t, forecast, eps)
        assert labels.shape == (len(cells),)
        for label, (b, d, f) in zip(labels.tolist(), values):
            scalar = classify_values(b, d, f, eps)
            assert isinstance(scalar, Classification)
            assert scalar is self.rule(b, d, f, eps)
            assert label == scalar.value


class TestDegeneratePair:
    def test_identical_states_all_zero(self, rng):
        rho = BipartiteState(
            np.kron(random_density_direct(2, rng), random_density_direct(3, rng)), 2, 3
        )
        eig = linalg.hermitian_eigensystem(random_hermitian_direct(6, rng))
        sc = ScenarioPair(state1=rho, state2=rho, propagator=eig)
        p = evaluate_point(sc, 0.8, 0.6)
        assert p.d_t <= 1e-12 and p.forecast <= 1e-12 and p.influence <= 1e-12
        assert p.label is Classification.INCREASE_IMPOSSIBLE


class TestWeakUpperBound:
    def test_zero_for_products_with_equal_environments(self, rng):
        sc = random_scenario(rng, equal_env=True)
        assert weak_upper_bound(sc, 0.0) <= 1e-12

    def test_equals_correlation_norms_plus_environment_distance(self, rng):
        sc = random_scenario(rng)
        t = 0.9
        s1, s2 = evolve_pair(sc, t)
        split1, split2 = states.decompose(s1), states.decompose(s2)
        expected = (
            0.5 * linalg.trace_norm(split1.correlation)
            + 0.5 * linalg.trace_norm(split2.correlation)
            + linalg.trace_distance(split1.environment, split2.environment)
        )
        # equivalently, each correlation half-norm is the distance to the product
        alt = (
            linalg.trace_distance(s1.op, np.kron(split1.system, split1.environment))
            + linalg.trace_distance(s2.op, np.kron(split2.system, split2.environment))
            + linalg.trace_distance(split1.environment, split2.environment)
        )
        assert expected == pytest.approx(alt, abs=1e-10)
        assert weak_upper_bound(sc, t) == pytest.approx(expected, abs=1e-12)

    def test_dominates_distance_change(self, rng):
        sc = random_scenario(rng)
        for t in (0.0, 0.5, 1.3):
            cap = weak_upper_bound(sc, t)
            for tp in np.linspace(0.0, 2.0, 9):
                assert distance_change(sc, float(tp), t) <= cap + 1e-9


class TestSurface:
    def test_single_point_grid(self, rng):
        sc = random_scenario(rng)
        surf = evaluate_surface(sc, [0.7], [0.3])
        assert surf.point(0, 0) == evaluate_point(sc, 0.3, 0.7)
        assert evaluate_point(sc, np.float64(0.3), np.array(0.7)) == surf.point(0, 0)
        assert evaluate_point(sc, np.array(0.3), np.float64(0.7)) == surf.point(0, 0)
        assert surf.classification_counts()[surf.point(0, 0).label.value] == 1

    def test_grid_shape_and_rows(self, rng):
        sc = random_scenario(rng)
        ts = np.linspace(0, 1, 4)
        tps = np.linspace(0, 1, 3)
        surf = evaluate_surface(sc, ts, tps)
        assert surf.d_t.shape == (4,) and surf.labels.shape == (4, 3)
        np.testing.assert_allclose(surf.d_t, [reduced_distance(sc, t) for t in ts], atol=1e-12)
        assert surf.max_bound_violation() == 0.0

    def test_points_match_evaluate_point(self, rng):
        """Every cell against its own evaluation. A row's batched products
        may round differently from a one-point batch, so values agree to
        1e-14; t, t' and the label exactly."""
        sc = random_scenario(rng)
        ts = np.linspace(0.1, 1.3, 3)
        tps = np.linspace(0.0, 0.9, 4)
        surf = evaluate_surface(sc, ts, tps)
        for i, t in enumerate(ts):
            for j, tp in enumerate(tps):
                got = asdict(surf.point(i, j))
                want = asdict(evaluate_point(sc, float(tp), float(t)))
                assert got.pop("label") is want.pop("label")
                assert (got.pop("t"), got.pop("tprime")) == (want.pop("t"), want.pop("tprime"))
                assert got == pytest.approx(want, rel=0, abs=1e-14)

    @staticmethod
    def window_columns(rng):
        """Columns of a 3 x 4 grid whose changes sit inside their windows."""
        d_t = rng.uniform(0.2, 1.0, size=3)
        forecast = rng.uniform(0.0, 1.0, size=(3, 4)) * d_t[:, None]
        influence = rng.uniform(0.0, 1.0, size=(3, 4))
        d_next = d_t[:, None] + influence - d_t[:, None]  # delta_d = B - D, mid-window
        return np.linspace(0, 1, 3), np.linspace(0, 2, 4), d_t, d_next, forecast, influence

    @pytest.mark.parametrize("spoil", [5.0, np.nan], ids=["outside", "nan"])
    def test_column_check_names_the_failing_cell(self, rng, spoil):
        ts, tps, d_t, d_next, forecast, influence = self.window_columns(rng)
        witness.WitnessSurface(ts, tps, d_t, d_next, forecast, influence)
        d_next[1, 2] += spoil
        message = f"bound violated at t={ts[1]:.12g}, t'={tps[2]:.12g}: delta_d="
        with pytest.raises(witness.InvariantViolation, match=re.escape(message)):
            witness.WitnessSurface(ts, tps, d_t, d_next, forecast, influence)

    def test_columns_are_read_only(self, rng):
        surf = witness.WitnessSurface(*self.window_columns(rng))
        for name in ("t_grid", "tprime_grid", "d_t", "d_next", "forecast", "influence",
                     "delta_d", "lower", "upper", "labels"):
            column = getattr(surf, name)
            with pytest.raises(ValueError, match="read-only"):
                column[(0,) * column.ndim] = column[(0,) * column.ndim]

    def test_rejects_bad_grids(self, rng):
        sc = random_scenario(rng)
        with pytest.raises(ValueError, match="ascending"):
            evaluate_surface(sc, [1.0, 0.5], [0.0])
        with pytest.raises(ValueError, match="nonnegative"):
            evaluate_surface(sc, [-1.0, 0.5], [0.0])
        with pytest.raises(ValueError):
            evaluate_surface(sc, [], [0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_times(self, rng, bad):
        sc = random_scenario(rng)
        with pytest.raises(ValueError, match="finite"):
            evaluate_surface(sc, [0.0, bad], [0.0])
        with pytest.raises(ValueError, match="finite"):
            evaluate_surface(sc, [0.0], [0.0, bad])

    @pytest.mark.parametrize("bad, problem", [(np.nan, "finite"), (np.inf, "finite"),
                                              (-np.inf, "finite"), (-0.1, "nonnegative")])
    def test_point_rejects_bad_times(self, rng, bad, problem):
        sc = random_scenario(rng)
        with pytest.raises(ValueError, match=f"^time must be {problem}"):
            evaluate_point(sc, 0.3, bad)
        with pytest.raises(ValueError, match=f"^time step must be {problem}"):
            evaluate_point(sc, bad, 0.7)


class TestStepOverflow:
    """A sum t + t' that overflows is rejected where the step times are
    formed, with no overflow warning (warnings are errors here)."""

    def test_point(self, rng):
        with pytest.raises(ValueError, match=re.escape("t + t' must be finite, got inf")):
            evaluate_point(random_scenario(rng), 1e308, 1e308)

    def test_surface(self, rng):
        with pytest.raises(ValueError, match=re.escape("t + t' must be finite, got inf")):
            evaluate_surface(random_scenario(rng), [0.0, 1e308], [0.0, 1e308])


class NanPropagator:
    """Delegates to a propagator, but its reduced states are NaN, as an
    overflowing phase exp(-i w t) makes them."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def reduced(self, mat, times, ds, de):
        return np.full_like(self.inner.reduced(mat, times, ds, de), np.nan)


class TestNonFiniteReducedStates:
    def test_norm_step_raises_invariant_violation(self, rng):
        sc = random_scenario(rng)
        sc = ScenarioPair(sc.state1, sc.state2, NanPropagator(sc.propagator))
        for evaluate in (lambda: reduced_distance(sc, [0.0, 0.5]), lambda: reduced_distance(sc, 0.5),
                         lambda: evaluate_surface(sc, [0.0, 0.5], [0.0, 0.5]),
                         lambda: evaluate_point(sc, 0.5, 0.5)):
            with pytest.raises(witness.InvariantViolation, match="not finite and Hermitian"):
                evaluate()


class TestPhaseOverflow:
    """Phases exp(-i w t) that overflow at a finite t raise the one
    InvariantViolation of linalg._exp_outer, and no numpy warning on the
    way (each test turns warnings into errors itself)."""

    def test_eigen_propagator(self, rng):
        sc = random_scenario(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for evaluate in (lambda: evaluate_point(sc, 0.0, 1e308),
                             lambda: evaluate_surface(sc, [0.0, 1e308], [0.0]),
                             lambda: reduced_distance(sc, 1e308)):
                with pytest.raises(witness.InvariantViolation, match=PHASE_OVERFLOW):
                    evaluate()

    def test_diagonal_propagator(self, rng):
        rates = rng.normal(scale=3.0, size=6)
        s1, s2 = BipartiteState.products((random_density_direct(2, rng),
                                          random_density_direct(2, rng)),
                                         random_density_direct(3, rng))
        sc = ScenarioPair(s1, s2, DiagonalPropagator(rates))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(witness.InvariantViolation, match=PHASE_OVERFLOW):
                evaluate_point(sc, 0.0, 1e308)
            with pytest.raises(witness.InvariantViolation, match=PHASE_OVERFLOW):
                evaluate_point(sc, 1e308, 0.0)

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_dense_evolution(self, action):
        # the same library error whether numpy warnings abort or pass unseen
        sc = spinchain.scenario(spinchain.SpinChainSpec(sites=3))
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            for evaluate in (lambda: weak_upper_bound(sc, 1e308),
                             lambda: evolve_pair(sc, 1e308),
                             lambda: sc.propagator.evolve(sc.state1.op, 1e308)):
                with pytest.raises(witness.InvariantViolation, match=PHASE_OVERFLOW):
                    evaluate()


class TestReducedDistance:
    def test_array_times_match_scalar_calls(self, rng):
        sc = random_scenario(rng)
        ts = np.array([0.0, 0.4, 1.3, 2.2])
        got = reduced_distance(sc, ts)
        assert got.shape == ts.shape
        np.testing.assert_allclose(got, [reduced_distance(sc, t) for t in ts], atol=1e-14)
        assert isinstance(reduced_distance(sc, 0.4), float)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_times(self, rng, bad):
        sc = random_scenario(rng)
        with pytest.raises(ValueError, match="finite"):
            reduced_distance(sc, bad)
        with pytest.raises(ValueError, match="finite"):
            reduced_distance(sc, [0.0, bad])

    def test_rejects_negative_times(self, rng):
        with pytest.raises(ValueError, match="nonnegative"):
            reduced_distance(random_scenario(rng), [0.5, -0.1])


class TestEigenPropagator:
    def test_stacked_evolve_matches_single_calls(self, rng):
        prop = EigenPropagator(linalg.hermitian_eigensystem(random_hermitian_direct(6, rng)))
        a, b = random_density_direct(6, rng), random_density_direct(6, rng)
        stacked = prop.evolve(np.stack([a, b]), 0.7)
        np.testing.assert_allclose(stacked[0], prop.evolve(a, 0.7), rtol=0, atol=1e-15)
        np.testing.assert_allclose(stacked[1], prop.evolve(b, 0.7), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("diagonal", [False, True], ids=["eigen", "diagonal"])
    def test_evolve_rejects_wrong_operator_shapes(self, rng, diagonal):
        if diagonal:
            prop = DiagonalPropagator(np.arange(4.0))
        else:
            prop = EigenPropagator(linalg.hermitian_eigensystem(random_hermitian_direct(4, rng)))
        for shape in [(1, 4), (4,), (4, 5), (5, 5), (2, 4, 3)]:
            with pytest.raises(ValueError, match=re.escape(f"operator shape {shape} does not")):
                prop.evolve(np.ones(shape), 0.3)
        stack = np.stack([random_density_direct(4, rng) for _ in range(3)])
        evolved = prop.evolve(stack, 0.3)
        assert evolved.shape == (3, 4, 4)
        for got, mat in zip(evolved, stack):
            np.testing.assert_allclose(got, prop.evolve(mat, 0.3), rtol=0, atol=1e-15)

    def test_factor_mismatch_rejected(self, rng):
        prop = EigenPropagator(linalg.hermitian_eigensystem(random_hermitian_direct(6, rng)))
        with pytest.raises(ValueError, match="factors"):
            prop.reduced(random_hermitian_direct(6, rng), [0.0], 2, 2)


class TestReducedStates:
    """The eigenbasis path of both propagators against evolve-then-trace."""

    @pytest.mark.parametrize("diagonal", [False, True], ids=["eigen", "diagonal"])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        ds=st.integers(2, 4),
        de=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
        times=st.lists(st.floats(0.0, 5.0), min_size=0, max_size=4),
    )
    def test_matches_dense_partial_trace(self, diagonal, ds, de, seed, times):
        rng = np.random.default_rng(seed)
        dim = ds * de
        if diagonal:
            prop = DiagonalPropagator(rng.normal(scale=3.0, size=dim))
        else:
            prop = EigenPropagator(linalg.hermitian_eigensystem(random_hermitian_direct(dim, rng)))
        mat = random_hermitian_direct(dim, rng)
        ts = np.array([0.0, *times])
        dense = np.array([linalg.partial_trace(prop.evolve(mat, t), ds, de) for t in ts])
        got = prop.reduced(mat, ts, ds, de)
        assert got.shape == (ts.size, ds, ds)
        assert np.max(np.abs(got - dense)) <= 1e-12
        np.testing.assert_allclose(prop.reduced(mat, ts[-1], ds, de), dense[-1], rtol=0, atol=1e-12)


class TestRowPrimitives:
    """The forecast of both propagators against the reduction of the dense
    product it stands for, at each t of one stacked call."""

    @pytest.mark.parametrize("diagonal", [False, True], ids=["eigen", "diagonal"])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        ds=st.integers(2, 4),
        de=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
        times=st.lists(st.floats(0.0, 5.0), min_size=0, max_size=3),
        tprimes=st.lists(st.floats(0.0, 5.0), min_size=0, max_size=3),
    )
    def test_forecast_matches_the_dense_product(self, diagonal, ds, de, seed, times, tprimes):
        rng = np.random.default_rng(seed)
        dim = ds * de
        if diagonal:
            prop = DiagonalPropagator(rng.normal(scale=3.0, size=dim))
        else:
            prop = EigenPropagator(linalg.hermitian_eigensystem(random_hermitian_direct(dim, rng)))
        mat = random_hermitian_direct(dim, rng)  # correlated: not a product
        ts, tps = np.array([0.0, *times]), np.array([0.0, *tprimes])
        systems = np.stack([random_hermitian_direct(ds, rng) for _ in ts])
        got = prop.forecast(systems, mat, ts, tps, ds, de)
        assert got.shape == (ts.size, tps.size, ds, ds)
        for t, system, row in zip(ts, systems, got):
            env = linalg.partial_trace(prop.evolve(mat, t), ds, de, keep="environment")
            want = prop.reduced(np.kron(system, env), tps, ds, de)
            assert np.max(np.abs(row - want)) <= 1e-12

    @pytest.mark.parametrize("diagonal", [False, True], ids=["eigen", "diagonal"])
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        ds=st.integers(2, 4),
        de=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
        times=st.lists(st.floats(0.0, 5.0), min_size=0, max_size=3),
    )
    def test_product_pair_matches_its_kronecker_product(self, diagonal, ds, de, seed, times):
        rng = np.random.default_rng(seed)
        dim = ds * de
        if diagonal:
            prop = DiagonalPropagator(rng.normal(scale=3.0, size=dim))
        else:
            prop = EigenPropagator(linalg.hermitian_eigensystem(random_hermitian_direct(dim, rng)))
        pair = (random_hermitian_direct(ds, rng), random_hermitian_direct(de, rng))
        dense = np.kron(*pair)
        ts = np.array([0.0, *times])
        got = prop.reduced(pair, ts, ds, de)
        assert np.max(np.abs(got - prop.reduced(dense, ts, ds, de))) <= 1e-12
        systems = np.stack([random_hermitian_direct(ds, rng) for _ in ts])
        got = prop.forecast(systems, pair, ts, ts, ds, de)
        assert np.max(np.abs(got - prop.forecast(systems, dense, ts, ts, ds, de))) <= 1e-12

    @pytest.mark.parametrize("diagonal", [False, True], ids=["eigen", "diagonal"])
    def test_product_pair_rejects_mismatched_factors(self, rng, diagonal):
        prop = (
            DiagonalPropagator(rng.normal(size=6)) if diagonal
            else EigenPropagator(linalg.hermitian_eigensystem(random_hermitian_direct(6, rng)))
        )
        with pytest.raises(ValueError, match="match"):
            prop.reduced((np.eye(2), np.eye(2)), [0.5], 2, 3)

    def test_protocol_needs_a_forecast(self, rng):
        class NoForecast:
            dim = 4

            def evolve(self, mat, t):
                return mat

            def reduced(self, mat, times, ds, de):
                raise NotImplementedError

        s = BipartiteState(random_density_direct(4, rng), 2, 2)
        with pytest.raises(TypeError, match="forecast"):
            ScenarioPair(state1=s, state2=s, propagator=NoForecast())


class TestInfluenceShortcut:
    """F, B and D(t + t') of a row against the paper's definitions, built
    densely from the correlation split of the states at t."""

    @pytest.mark.parametrize("env_branch", [1, 2])
    @pytest.mark.parametrize("diagonal", [False, True], ids=["eigen", "diagonal"])
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        ds=st.integers(2, 4),
        de=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
        t=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
        tprime=st.floats(0.0, 3.0),
    )
    def test_matches_dense_definition(self, env_branch, diagonal, ds, de, seed, t, tprime):
        rng = np.random.default_rng(seed)
        dim = ds * de
        if diagonal:
            prop = DiagonalPropagator(rng.normal(scale=3.0, size=dim))
        else:
            prop = EigenPropagator(linalg.hermitian_eigensystem(random_hermitian_direct(dim, rng)))
        sc = ScenarioPair(
            state1=BipartiteState(random_density_direct(dim, rng), ds, de),
            state2=BipartiteState(random_density_direct(dim, rng), ds, de),
            propagator=prop,
        )
        s1 = states.correlation_split(prop.evolve(sc.state1.op, t), ds, de)
        s2 = states.correlation_split(prop.evolve(sc.state2.op, t), ds, de)
        kept, other = (s1, s2) if env_branch == 1 else (s2, s1)
        x_forecast = np.kron(s1.system - s2.system, kept.environment)
        x_influence = (
            np.kron(other.system, s1.environment - s2.environment)
            + s1.correlation - s2.correlation
        )

        def weight(x):
            return 0.5 * linalg.trace_norm(linalg.partial_trace(prop.evolve(x, tprime), ds, de))

        # the forecast keeps the environment of state1: swap the pair for state2's
        pair = sc if env_branch == 1 else ScenarioPair(sc.state2, sc.state1, prop)
        p = evaluate_point(pair, tprime, t)
        assert abs(p.forecast - weight(x_forecast)) <= 1e-12
        assert abs(p.influence - weight(x_influence)) <= 1e-12
        assert abs(p.d_next - reduced_distance(sc, t + tprime)) <= 1e-12


class TestCheckedPoint:
    def test_escape_raises(self):
        # D rises from 0.2 to 0.9, but B + F - D(t) caps the rise at 0
        with pytest.raises(witness.InvariantViolation, match="bound violated"):
            witness.check_window(0.1, 0.2, d_t=0.2, d_next=0.9, forecast=0.1, influence=0.1)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        de=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        t=st.floats(0.0, 3.0),
        tprime=st.floats(0.0, 3.0),
        equal_env=st.booleans(),
    )
    def test_window_holds_on_random_scenarios(self, de, seed, t, tprime, equal_env):
        sc = random_scenario(np.random.default_rng(seed), de=de, equal_env=equal_env)
        p = evaluate_point(sc, tprime, t)
        assert p.lower - witness.BOUND_TOL <= p.delta_d <= p.upper + witness.BOUND_TOL
        assert p.forecast <= p.d_t + 1e-9
        assert 0.0 <= p.influence <= 2.0 + 1e-12


class TestChargeBlocks:
    """The block path against the one-block, full-space path of the same H."""

    @staticmethod
    def blocked_hamiltonian(rng, dim, n_charges):
        """Random H with no weight between charges, blocks scattered by a
        random basis permutation."""
        charges = rng.permutation(np.arange(dim) % n_charges)
        h = random_hermitian_direct(dim, rng) * (charges[:, None] == charges[None, :])
        return h, charges

    @staticmethod
    def block_propagator(h, charges, allowed):
        """Propagator of H on its blocks of the charges in ``allowed``."""
        s = np.concatenate([np.flatnonzero(charges == c) for c in sorted(allowed)])
        return EigenPropagator(linalg.hermitian_eigensystem(h[np.ix_(s, s)]), s, len(h))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        ds=st.integers(2, 3),
        de=st.integers(2, 4),
        n_charges=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        times=st.lists(st.floats(0.0, 5.0), min_size=0, max_size=4),
    )
    def test_matches_one_block_path(self, ds, de, n_charges, seed, times):
        rng = np.random.default_rng(seed)
        dim = ds * de
        h, charges = self.blocked_hamiltonian(rng, dim, n_charges)
        allowed = set(rng.choice(n_charges, size=rng.integers(1, n_charges + 1), replace=False))
        blocks = self.block_propagator(h, charges, allowed)
        full = EigenPropagator(linalg.hermitian_eigensystem(h))
        inside = np.isin(charges, list(allowed))
        assert sorted(blocks.support) == list(np.flatnonzero(inside))
        mask = inside[:, None] & inside[None, :]
        mats = np.stack([random_hermitian_direct(dim, rng) * mask for _ in range(2)])
        ts = np.array([0.0, *times])
        for t in ts:
            assert np.max(np.abs(blocks.evolve(mats, t) - full.evolve(mats, t))) <= 1e-12
        got = blocks.reduced(mats[0], ts, ds, de)
        assert np.max(np.abs(got - full.reduced(mats[0], ts, ds, de))) <= 1e-12

    def test_weight_outside_the_subspace_raises(self, rng):
        h, charges = self.blocked_hamiltonian(rng, 8, 3)
        allowed = {int(charges[0])}
        prop = self.block_propagator(h, charges, allowed)
        stray = np.zeros((8, 8), dtype=complex)
        stray[prop.support[0], prop.support[0]] = 1.0
        outside = int(np.flatnonzero(charges != charges[0])[0])
        stray[outside, prop.support[0]] = stray[prop.support[0], outside] = 1e-9
        with pytest.raises(witness.InvariantViolation, match="outside"):
            prop.evolve(stray, 0.5)
        with pytest.raises(witness.InvariantViolation, match="outside"):
            prop.reduced(stray, [0.5], 2, 4)
        with pytest.raises(witness.InvariantViolation, match="outside"):
            prop.forecast(np.stack([np.eye(2)] * 2), stray, [0.0, 0.5], [0.5], 2, 4)
        stray[outside, prop.support[0]] = stray[prop.support[0], outside] = 1e-13
        prop.reduced(stray, [0.5], 2, 4)  # below the tolerance: dropped

    def test_product_pair_is_checked_by_its_factors(self, rng):
        """The block of system level 0 holds |0><0| (x) rho_E; any coherence
        of the system factor reaches outside it, in a state and in a
        forecast's product of a system operator and the environment marginal."""
        ds, de = 2, 3
        charges = np.arange(ds * de) // de
        h = random_hermitian_direct(ds * de, rng) * (charges[:, None] == charges)
        prop = self.block_propagator(h, charges, {0})
        env = random_density_direct(de, rng)
        inside = (np.diag([1.0, 0.0]).astype(complex), env)
        got = prop.reduced(inside, [0.0, 0.8], ds, de)
        assert np.max(np.abs(got - prop.reduced(np.kron(*inside), [0.0, 0.8], ds, de))) <= 1e-15
        for coherence, accepted in ((1e-9, False), (1e-13, True)):
            system = np.array([[1.0, coherence], [coherence, 0.0]], dtype=complex)
            systems = np.stack([inside[0], system])
            if accepted:
                prop.reduced((system, env), [0.8], ds, de)
                prop.forecast(inside[0][None], (system, env), [0.8], [0.8], ds, de)
                prop.forecast(systems, inside, [0.0, 0.8], [0.8], ds, de)
                continue
            with pytest.raises(witness.InvariantViolation, match="outside"):
                prop.reduced((system, env), [0.8], ds, de)
            with pytest.raises(witness.InvariantViolation, match="outside"):
                prop.forecast(inside[0][None], (system, env), [0.8], [0.8], ds, de)
            with pytest.raises(witness.InvariantViolation, match="outside"):
                prop.forecast(systems, inside, [0.0, 0.8], [0.8], ds, de)

    def test_forecast_checks_a_marginal_on_part_of_the_environment(self, rng):
        """A subspace reaching environment indices 0 and 1 only: the product
        of a system operator with the marginal, kept on those two indices, is
        checked at the row (1, 1) outside the subspace."""
        ds, de = 2, 3
        h = random_hermitian_direct(ds * de, rng)
        block = np.array([0, 1, 3])  # (a, e) = (0, 0), (0, 1), (1, 0)
        eig = linalg.hermitian_eigensystem(h[np.ix_(block, block)])
        prop = EigenPropagator(eig, block, ds * de)
        env = np.zeros((de, de), dtype=complex)
        env[:2, :2] = random_density_direct(2, rng)
        mat = (np.diag([1.0, 0.0]).astype(complex), env)
        for level_one, accepted in ((1e-9, False), (1e-13, True)):
            systems = np.stack([np.diag([1.0, level_one])] * 2).astype(complex)
            if accepted:
                got = prop.forecast(systems, mat, [0.0, 0.8], [0.0, 0.8], ds, de)
                for t, row in zip([0.0, 0.8], got):
                    marginal = linalg.partial_trace(prop.evolve(np.kron(*mat), t), ds, de,
                                                    keep="environment")
                    want = prop.reduced(np.kron(systems[0], marginal), [0.0, 0.8], ds, de)
                    assert np.max(np.abs(row - want)) <= 1e-12
                continue
            with pytest.raises(witness.InvariantViolation, match="outside"):
                prop.forecast(systems, mat, [0.0, 0.8], [0.0, 0.8], ds, de)

    def test_dense_eigensystem_drops_no_mode(self, monkeypatch):
        """On the audit's random scenarios, whose eigenvectors are dense,
        ``reduced`` keeps every mode, for a state, a difference and a factor
        pair, and matches the dense evolve-then-trace path."""
        rng = np.random.default_rng(2024)
        times = np.array([0.0, 0.3, 1.1, 2.5])
        sizes = []
        exp = np.exp

        def recording_exp(x, *args, **kwargs):
            sizes.append(np.size(x))
            return exp(x, *args, **kwargs)

        for _ in range(10):
            sc = cli._random_scenario(rng)
            prop, ds, de = sc.propagator, sc.ds, sc.de
            s1 = sc.state1
            for mat, dense in ((s1.op, s1.op), (s1.op - sc.state2.op, s1.op - sc.state2.op),
                               ((s1.system(), s1.environment()), s1.op)):
                sizes.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(np, "exp", recording_exp)
                    got = prop.reduced(mat, times, ds, de)
                assert sizes == [times.size * prop.dim]
                want = [linalg.partial_trace(prop.evolve(dense, t), ds, de) for t in times]
                assert np.max(np.abs(got - want)) <= 1e-12

    supports = [[0, 0], [0, 6], [-1, 2], [0, 1, 2], [0.0, 1.0], [0.5, 1.0], [True, False]]

    @pytest.mark.parametrize(
        "support, dim, match",
        [(s, 6, "support") for s in supports]
        + [([0, 1], 2.7, "dim must be an integer"), ([0, 1], np.nan, "dim must be an integer")],
        ids=[f"support{i}" for i in range(len(supports))] + ["dim2.7", "dim-nan"],
    )
    def test_rejects_bad_support(self, rng, support, dim, match):
        eig = linalg.hermitian_eigensystem(random_hermitian_direct(2, rng))
        with pytest.raises(ValueError, match=match):
            EigenPropagator(eig, support, dim)


def amplitude_block_propagator(rng, ds, de, n_charges, inside):
    """Random H on blocks of random charges over the indices (a, e) with e in
    ``inside``; the other indices are left out of the subspace, so an
    environment with amplitudes on ``inside`` only stays in it."""
    dim = ds * de
    on = np.isin(np.arange(dim) % de, inside)
    charges = np.where(on, rng.integers(1, n_charges + 1, size=dim), 0)
    h = random_hermitian_direct(dim, rng) * (charges[:, None] == charges)
    s = np.concatenate([np.flatnonzero(charges == c) for c in np.unique(charges[on])])
    return EigenPropagator(linalg.hermitian_eigensystem(h[np.ix_(s, s)]), s, dim)


class TestAmplitudeEnvironment:
    """A product with the environment as amplitudes psi against the same
    product with psi psi^dagger, through both propagators."""

    @pytest.mark.parametrize("diagonal", [False, True], ids=["eigen-blocks", "diagonal"])
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        ds=st.integers(2, 3),
        de=st.integers(2, 5),
        n_charges=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        times=st.lists(st.floats(0.0, 5.0), min_size=0, max_size=3),
    )
    def test_matches_the_density_matrix(self, diagonal, ds, de, n_charges, seed, times):
        rng = np.random.default_rng(seed)
        inside = np.flatnonzero(rng.random(de) < 0.7)
        inside = inside if inside.size else np.array([0])
        if diagonal:
            prop = DiagonalPropagator(rng.normal(scale=3.0, size=ds * de))
        else:
            prop = amplitude_block_propagator(rng, ds, de, n_charges, inside)
        psi = np.zeros(de, dtype=complex)
        psi[inside] = rng.normal(size=inside.size) + 1j * rng.normal(size=inside.size)
        psi /= np.linalg.norm(psi)
        system = random_density_direct(ds, rng)
        pure = BipartiteState.product(system, psi)
        dense = BipartiteState.product(system, np.outer(psi, psi.conj()))
        ts = np.array([0.0, *times])
        got = prop.reduced(pure.factors, ts, ds, de)
        assert np.max(np.abs(got - prop.reduced(dense.factors, ts, ds, de))) <= 1e-12
        deltas = np.stack([random_hermitian_direct(ds, rng) for _ in ts])
        got = prop.forecast(deltas, pure.factors, ts, ts, ds, de)
        assert np.max(np.abs(got - prop.forecast(deltas, dense.factors, ts, ts, ds, de))) <= 1e-12
        for t in ts:
            assert np.max(np.abs(prop.evolve(pure.op, t) - prop.evolve(dense.op, t))) <= 1e-12

    def test_weight_outside_the_support_raises(self, rng):
        ds, de = 2, 4
        prop = amplitude_block_propagator(rng, ds, de, 2, np.array([0, 1, 2]))
        psi = np.array([0.6, 0.8, 0.0, 0.0], dtype=complex)
        system = random_density_direct(ds, rng)
        prop.reduced((system, psi), [0.5], ds, de)  # inside: accepted
        psi[3] = 1e-6
        with pytest.raises(witness.InvariantViolation, match="outside"):
            prop.reduced((system, psi), [0.5], ds, de)
        with pytest.raises(witness.InvariantViolation, match="outside"):
            prop.forecast(system[None], (system, psi), [0.5], [0.5], ds, de)


class CountingPropagator:
    """Delegates to a propagator and counts the witnesses' ``reduced`` calls;
    the inner propagator's own calls are not counted."""

    def __init__(self, inner):
        self.inner, self.reduced_calls = inner, 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def reduced(self, mat, times, ds, de):
        self.reduced_calls += 1
        return self.inner.reduced(mat, times, ds, de)


class TestOneCallDifference:
    """Two products sharing one environment factor, one array or equal
    arrays, take one reduced-state call on (rho_S1 - rho_S2, rho_E); any
    other pair takes two."""

    @staticmethod
    def pairs(rng, diagonal, ds=2, de=3):
        if diagonal:
            prop = DiagonalPropagator(rng.normal(scale=3.0, size=ds * de))
        else:
            prop = EigenPropagator(
                linalg.hermitian_eigensystem(random_hermitian_direct(ds * de, rng))
            )
        systems = [random_density_direct(ds, rng) for _ in range(2)]
        psi = rng.normal(size=de) + 1j * rng.normal(size=de)
        shared = BipartiteState.products(systems, psi / np.linalg.norm(psi))
        dense = [BipartiteState(s.op, ds, de) for s in shared]
        return prop, shared, dense

    @pytest.mark.parametrize("diagonal", [False, True], ids=["eigen", "diagonal"])
    def test_reduced_calls_per_witness(self, rng, diagonal):
        prop, shared, dense = self.pairs(rng, diagonal)
        ts = np.linspace(0.0, 2.0, 4)
        for states_, calls in ((shared, 1), (dense, 2)):
            for evaluate in (
                lambda sc: reduced_distance(sc, ts),
                lambda sc: evaluate_point(sc, 0.4, 0.9),
                lambda sc: evaluate_surface(sc, ts, ts),
            ):
                sc = ScenarioPair(*states_, propagator=CountingPropagator(prop))
                evaluate(sc)
                assert sc.propagator.reduced_calls == calls

    @pytest.mark.parametrize("diagonal", [False, True], ids=["eigen", "diagonal"])
    def test_equals_the_two_call_path(self, rng, diagonal):
        prop, shared, dense = self.pairs(rng, diagonal)
        ts = np.linspace(0.0, 3.0, 7)
        one = witness._reduced_differences(ScenarioPair(*shared, propagator=prop), ts)
        two = witness._reduced_differences(ScenarioPair(*dense, propagator=prop), ts)
        assert np.max(np.abs(one - two)) <= 1e-14
        separate = BipartiteState.product(shared[1].system(), shared[1].factors[1])
        apart = ScenarioPair(shared[0], separate, propagator=CountingPropagator(prop))
        assert np.max(np.abs(witness._reduced_differences(apart, ts) - one)) <= 1e-14
        assert apart.propagator.reduced_calls == 1  # equal environments share the one call

    @pytest.mark.parametrize("diagonal", [False, True], ids=["eigen", "diagonal"])
    def test_different_environments_take_two_calls(self, rng, diagonal):
        prop, shared, dense = self.pairs(rng, diagonal)
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        other = BipartiteState.product(shared[1].system(), psi / np.linalg.norm(psi))
        ts = np.linspace(0.0, 3.0, 7)
        sc = ScenarioPair(shared[0], other, propagator=CountingPropagator(prop))
        got = witness._reduced_differences(sc, ts)
        assert sc.propagator.reduced_calls == 2
        dense_other = BipartiteState(other.op, 2, 3)
        want = witness._reduced_differences(ScenarioPair(dense[0], dense_other, propagator=prop), ts)
        assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize("diagonal", [False, True], ids=["eigen", "diagonal"])
    def test_swapped_pair_gives_the_exact_negation(self, rng, diagonal):
        prop, shared, _ = self.pairs(rng, diagonal)
        ts = np.linspace(0.0, 3.0, 7)
        forward = witness._reduced_differences(ScenarioPair(*shared, propagator=prop), ts)
        back = witness._reduced_differences(ScenarioPair(*shared[::-1], propagator=prop), ts)
        assert np.array_equal(forward, -back)
