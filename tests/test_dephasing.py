import re
import tracemalloc
import warnings

import numpy as np
import pytest

from backflow import blp, linalg, witness
from backflow.cli import GridSpec
from backflow.dephasing import (
    DiagonalPropagator,
    Discrete,
    DoubleLorentzian,
    SingleLorentzian,
    SingularPointError,
    analytic_point,
    analytic_surface,
    analytic_witnesses,
    apply_channel,
    dephasing_function,
    discretize,
    frequency_density,
    full_model,
    tcl_coefficients,
)
from backflow.spinchain import SpinChainSpec
from backflow.states import plus_minus_pair
from backflow.witness import Classification

from conftest import PHASE_OVERFLOW, random_density_direct, random_hermitian_direct

SINGLE = SingleLorentzian(omega0=1.0, delta=1.0)
EQUAL_CENTERS = DoubleLorentzian(omega0_1=1.0, delta1=1.0, omega0_2=1.0, delta2=10.0, r=1.0)
SPLIT_CENTERS = DoubleLorentzian(omega0_1=1.0, delta1=1.0, omega0_2=9.0, delta2=1.0, r=1.0)


class TestDephasingFunction:
    def test_normalized_at_zero(self):
        discrete = Discrete(freqs=np.array([0.5, 2.0]), probs=np.array([0.25, 0.75]))
        for dist in (SINGLE, EQUAL_CENTERS, SPLIT_CENTERS, discrete):
            assert dephasing_function(dist, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_single_closed_form(self):
        expected = np.exp(-1.0) * (np.cos(1.0) + 1j * np.sin(1.0))
        assert dephasing_function(SINGLE, 1.0) == pytest.approx(expected, abs=1e-15)

    def test_double_reduces_to_first_branch_at_r_zero(self):
        dist = DoubleLorentzian(omega0_1=1.0, delta1=1.0, omega0_2=9.0, delta2=2.0, r=0.0)
        for t in (0.3, 1.0, 2.4):
            assert dephasing_function(dist, t) == pytest.approx(
                dephasing_function(SingleLorentzian(1.0, 1.0), t), abs=1e-15
            )

    def test_modulus_bounded(self, rng):
        discrete = Discrete(
            freqs=rng.normal(size=7), probs=np.full(7, 1 / 7)
        )
        ts = np.linspace(0.0, 5.0, 40)
        for dist in (SINGLE, EQUAL_CENTERS, SPLIT_CENTERS, discrete):
            assert np.max(np.abs(dephasing_function(dist, ts))) <= 1.0 + 1e-12

    def test_array_matches_scalar(self):
        ts = np.array([0.0, 0.5, 1.5])
        vec = dephasing_function(SPLIT_CENTERS, ts)
        for i, t in enumerate(ts):
            assert vec[i] == pytest.approx(dephasing_function(SPLIT_CENTERS, float(t)), abs=1e-15)

    def test_semigroup_composition_single(self, rng):
        for _ in range(10):
            t, tp = rng.uniform(0, 3, size=2)
            assert dephasing_function(SINGLE, t + tp) == pytest.approx(
                dephasing_function(SINGLE, t) * dephasing_function(SINGLE, tp), abs=1e-14
            )


class TestPhaseOverflow:
    """Phases that overflow at a finite t raise the InvariantViolation of
    linalg._exp_outer; tests/test_linalg.py checks every entry point."""

    def test_analytic_surface_gives_an_invariant_violation(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(witness.InvariantViolation, match=PHASE_OVERFLOW):
                analytic_surface(SPLIT_CENTERS, [0.0, 1e308], [0.0])

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_dense_evolution_gives_an_invariant_violation(self, action):
        sc = full_model(discretize(SPLIT_CENTERS, modes=16))
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(witness.InvariantViolation, match=PHASE_OVERFLOW):
                sc.propagator.evolve(sc.state1.op, 1e308)


class TestDistributionValidation:
    def test_positive_widths_required(self):
        with pytest.raises(ValueError):
            SingleLorentzian(omega0=1.0, delta=0.0)
        with pytest.raises(ValueError):
            DoubleLorentzian(1.0, 1.0, 2.0, -1.0, 1.0)

    def test_nonnegative_ratio(self):
        with pytest.raises(ValueError):
            DoubleLorentzian(1.0, 1.0, 2.0, 1.0, -0.2)

    def test_discrete_normalization(self):
        with pytest.raises(ValueError, match="sum"):
            Discrete(freqs=np.array([1.0, 2.0]), probs=np.array([0.6, 0.5]))
        with pytest.raises(ValueError, match="nonnegative"):
            Discrete(freqs=np.array([1.0, 2.0]), probs=np.array([1.2, -0.2]))


class TestChannel:
    def test_identity_at_k_one(self, rng):
        from conftest import random_density_direct

        rho = random_density_direct(2, rng)
        np.testing.assert_allclose(apply_channel(1.0, rho), rho, atol=1e-15)

    def test_full_dephasing_kills_coherence(self):
        plus, _ = plus_minus_pair()
        np.testing.assert_allclose(apply_channel(0.0, plus), np.eye(2) / 2, atol=1e-15)

    def test_distance_equals_k_modulus(self):
        # oracle: the difference of the channeled pair is off-diagonal with
        # magnitude |k|, so its eigenvalues are +-|k|
        plus, minus = plus_minus_pair()
        for k in (0.9, 0.3 + 0.4j, np.exp(1j * 0.7) * 0.5):
            diff = apply_channel(k, plus) - apply_channel(k, minus)
            oracle = np.linalg.eigvalsh(diff)
            np.testing.assert_allclose(oracle, [-abs(k), abs(k)], atol=1e-14)
            assert linalg.trace_distance(
                apply_channel(k, plus), apply_channel(k, minus)
            ) == pytest.approx(abs(k), abs=1e-12)

    def test_composition(self, rng):
        from conftest import random_density_direct

        rho = random_density_direct(2, rng)
        k1, k2 = 0.7 * np.exp(0.3j), 0.6 * np.exp(-1.1j)
        np.testing.assert_allclose(
            apply_channel(k2, apply_channel(k1, rho)), apply_channel(k1 * k2, rho), atol=1e-14
        )

    def test_rejects_amplifying_k(self):
        plus, _ = plus_minus_pair()
        with pytest.raises(ValueError, match="exceeds"):
            apply_channel(1.1, plus)

    @pytest.mark.parametrize("kval", [complex("nan"), complex(0.5, float("nan")), float("nan")])
    def test_rejects_non_finite_k(self, kval):
        # |NaN| > 1 is false, so the amplification check alone would pass it
        plus, _ = plus_minus_pair()
        with pytest.raises(ValueError, match="k must be finite"):
            apply_channel(kval, plus)

    def test_rejects_invalid_state(self):
        with pytest.raises(ValueError):
            apply_channel(0.5, np.eye(2))  # trace 2
        with pytest.raises(ValueError, match="2x2"):
            apply_channel(0.5, np.eye(3) / 3)


class TestTclCoefficients:
    def test_single_lorentzian_constant(self):
        for t in (0.0, 0.5, 2.0, 10.0):
            eps, gamma = tcl_coefficients(SINGLE, t)
            assert eps == 0.5 and gamma == 0.5

    def test_single_lorentzian_constant_where_k_vanishes(self):
        # one line: its exponent at every t, never a singular point
        for t in (40.0, 800.0):
            assert abs(dephasing_function(SINGLE, t)) < 1e-12
            assert tcl_coefficients(SINGLE, t) == (0.5, 0.5)

    def test_double_lorentzian_singular_where_k_vanishes(self):
        for dist in (EQUAL_CENTERS, SPLIT_CENTERS):
            assert abs(dephasing_function(dist, 40.0)) < 1e-12
            with pytest.raises(SingularPointError):
                tcl_coefficients(dist, 40.0)

    def test_one_frequency_discrete_constant(self):
        for omega in (0.7, -3.1, 2.0):
            env = Discrete(freqs=np.array([omega]), probs=np.array([1.0]))
            for t in (0.0, 0.3, 40.0, 800.0):
                eps, gamma = tcl_coefficients(env, t)
                assert eps == pytest.approx(omega / 2, rel=1e-15)
                assert gamma == pytest.approx(0.0, abs=1e-15)

    def test_equal_centers_closed_form(self):
        d1, d2, r = 1.0, 10.0, 1.0
        for t in (0.1, 0.5, 1.0, 2.5):
            eps, gamma = tcl_coefficients(EQUAL_CENTERS, t)
            expected_gamma = (d1 * np.exp(-d1 * t) + r * d2 * np.exp(-d2 * t)) / (
                2 * (np.exp(-d1 * t) + r * np.exp(-d2 * t))
            )
            assert eps == pytest.approx(0.5, abs=1e-12)
            assert gamma == pytest.approx(expected_gamma, abs=1e-12)
            assert gamma > 0

    def test_finite_difference_cross_check(self):
        # central differences of ln k at step 1e-5
        h = 1e-5
        discrete = Discrete(freqs=np.array([0.4, 1.3, 2.2]), probs=np.array([0.2, 0.5, 0.3]))
        for dist in (EQUAL_CENTERS, SPLIT_CENTERS, discrete):
            for t in (0.2, 0.8, 1.7):
                logd_fd = (
                    np.log(dephasing_function(dist, t + h))
                    - np.log(dephasing_function(dist, t - h))
                ) / (2 * h)
                eps, gamma = tcl_coefficients(dist, t)
                assert eps == pytest.approx(0.5 * logd_fd.imag, abs=1e-6)
                assert gamma == pytest.approx(-0.5 * logd_fd.real, abs=1e-6)

    def test_negative_rate_where_distance_revives(self):
        ts = np.linspace(0.01, 3.0, 200)
        gammas = np.array([tcl_coefficients(SPLIT_CENTERS, t)[1] for t in ts])
        assert np.min(gammas) < 0

    def test_singular_point_rejected(self):
        # |k| for the split-centers pair vanishes where cos(4t) does
        with pytest.raises(SingularPointError):
            tcl_coefficients(SPLIT_CENTERS, np.pi / 8)


class TestAnalyticWitnesses:
    def test_single_lorentzian_influence_vanishes(self, rng):
        for _ in range(20):
            t, tp = rng.uniform(0, 3, size=2)
            _, _, influence, _ = analytic_witnesses(SINGLE, float(tp), float(t))
            assert influence <= 1e-14

    def test_zero_step(self):
        for dist in (SINGLE, EQUAL_CENTERS, SPLIT_CENTERS):
            d_t, forecast, influence, delta = analytic_witnesses(dist, 0.0, 0.9)
            assert forecast == pytest.approx(d_t, abs=1e-15)
            assert influence == 0.0
            assert delta == 0.0

    def test_equal_centers_stays_below_lower_threshold(self):
        ts = np.linspace(0.0, 3.0, 40)
        worst = -np.inf
        for t in ts:
            for tp in ts:
                d_t, forecast, influence, _ = analytic_witnesses(EQUAL_CENTERS, tp, t)
                worst = max(worst, influence - (d_t - forecast))
        assert worst <= 1e-12  # equality only on the t' = 0 boundary

    def test_split_centers_exceed_upper_threshold_somewhere(self):
        surf = analytic_surface(SPLIT_CENTERS, np.linspace(0, 3, 40), np.linspace(0, 3, 40))
        counts = surf.classification_counts()
        assert counts[Classification.GUARANTEED_INCREASE.value] > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_surface_rejects_non_finite_times(self, bad):
        with pytest.raises(ValueError, match="finite"):
            analytic_surface(SINGLE, [0.0, bad], [0.0])
        with pytest.raises(ValueError, match="finite"):
            analytic_surface(SINGLE, [0.0], [0.0, bad])

    def test_semigroup_surface_classifications(self):
        ts = np.linspace(0.0, 3.0, 20)
        surf = analytic_surface(SINGLE, ts, ts)
        for point in (surf.point(i, j) for i in range(ts.size) for j in range(ts.size)):
            if point.tprime > 0:
                assert point.label is Classification.INCREASE_IMPOSSIBLE
            else:
                # at t' = 0 the bounds collapse onto the boundary
                assert point.label is Classification.INCONCLUSIVE
        assert surf.max_bound_violation() == 0.0

    def test_step_overflow_raises(self):
        # t + t' overflows: rejected before k(t + t') is formed, with no warning
        for tprime, t in ((1e308, 1e308), (np.array([0.0, 1e308]), np.array([[1.0], [1e308]]))):
            with pytest.raises(ValueError, match=re.escape("t + t' must be finite")):
                analytic_witnesses(SPLIT_CENTERS, tprime, t)
        with pytest.raises(ValueError, match=re.escape("t + t' must be finite")):
            analytic_surface(SPLIT_CENTERS, [0.0, 1e308], [0.0, 1e308])


class TestDiscretize:
    def test_probabilities_normalized(self):
        env = discretize(SINGLE, modes=512, window=30.0)
        assert env.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert env.freqs.shape == (512,)

    def test_window_coverage(self):
        env = discretize(SPLIT_CENTERS, modes=64, window=10.0)
        assert env.freqs[0] == pytest.approx(1.0 - 10.0, abs=1e-12)
        assert env.freqs[-1] == pytest.approx(9.0 + 10.0, abs=1e-12)

    def test_too_few_modes_rejected(self):
        with pytest.raises(ValueError, match="modes"):
            discretize(SINGLE, modes=1)
        for modes in (16.5, float("nan"), 2.0):
            with pytest.raises(ValueError, match="modes must be an integer"):
                discretize(SINGLE, modes=modes)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            discretize(SINGLE, modes=16, window=0.0)

    @pytest.mark.parametrize("window", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_window_rejected(self, window):
        with pytest.raises(ValueError, match="window must be positive and finite"):
            discretize(SINGLE, modes=16, window=window)

    @pytest.mark.parametrize("action", ["error", "ignore"])
    @pytest.mark.parametrize("dist", [
        DoubleLorentzian(1e308, 1.0, -1e308, 1.0, 1.0),
        SingleLorentzian(0.0, 1e307),
        SingleLorentzian(0.0, 1e200),
        SingleLorentzian(0.0, 1e160),
        DoubleLorentzian(0.0, 1e160, 1.0, 1.0, 1.0),
    ], ids=["centers", "width", "square-1e200", "square-1e160", "square-double"])
    def test_overflowing_span_rejected(self, dist, action):
        # rejected before the grid is formed, naming the window and the widths,
        # with no overflow warning: a finite span can still overflow the squared
        # offsets of frequency_density
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(ValueError, match=r"^a window of 40\.0 widths spans .*, where the "
                               r"squared offsets from lines of widths \[.*\] are not finite$"):
                discretize(dist, modes=8)

    @pytest.mark.parametrize("action", ["error", "ignore"])
    @pytest.mark.parametrize("width", [1e-170, 1e-200])
    def test_underflowing_squares_rejected(self, width, action):
        # a grid point on the center divides by 0^2 + width^2 = 0: rejected in
        # frequency_density, naming the widths, with no divide-by-zero warning
        message = (r"^a denominator \(omega - omega_j\)\^2 \+ delta_j\^2 underflows to zero "
                   rf"for lines of widths \[{width}\]$")
        dist = SingleLorentzian(0.0, width)
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(ValueError, match=message):
                discretize(dist, modes=9)
            with pytest.raises(ValueError, match=message):
                frequency_density(dist, 0.0)

    @pytest.mark.parametrize("action", ["error", "ignore"])
    @pytest.mark.parametrize("dist, omega, at", [
        (SingleLorentzian(0.0, 1.0), 1e200, "1e+200"),
        (SingleLorentzian(0.0, 1.0), np.inf, "inf"),
        (SingleLorentzian(0.0, 1.0), -np.inf, "-inf"),
        (SingleLorentzian(0.0, 1.0), np.nan, "nan"),
        (SingleLorentzian(0.0, 1.0), [0.0, 1.0, 1e200], "1e+200"),
        (SingleLorentzian(0.0, 1e200), 0.0, "0.0"),
        (DoubleLorentzian(0.0, 1.0, 1e300, 1.0, 1.0), -1e10, "-10000000000.0"),
    ], ids=["far", "inf", "minus-inf", "nan", "array", "wide-line", "far-line"])
    def test_non_finite_denominators_rejected(self, dist, omega, at, action):
        # a far or non-finite omega, or a line too wide, overflows (omega - omega_j)^2 +
        # delta_j^2: rejected, naming the first such omega, with no overflow warning
        message = (rf"^at omega = {re.escape(at)}, the denominators \(omega - omega_j\)\^2 "
                   r"\+ delta_j\^2 of lines of widths \[.*\] are not finite$")
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(ValueError, match=message):
                frequency_density(dist, omega)

    def test_large_finite_squares_accepted(self):
        # 40 widths of 1e152 square to 1.6e307: finite, so accepted as before
        env = discretize(SingleLorentzian(0.0, 1e152), modes=8)
        assert np.all(env.probs > 0)

    def test_discrete_input_rejected(self):
        env = discretize(SINGLE, modes=16, window=10.0)
        with pytest.raises(ValueError, match="already discrete"):
            discretize(env, modes=16)

    def test_density_rejects_discrete(self):
        env = Discrete(freqs=np.array([0.5, 2.0]), probs=np.array([0.25, 0.75]))
        with pytest.raises(TypeError, match="continuum"):
            frequency_density(env, 0.0)

    def test_density_mixture_weights(self):
        # component weights 1/(1+r) and r/(1+r) on normalized Lorentzians
        dist = DoubleLorentzian(0.0, 1.0, 10.0, 2.0, r=3.0)
        at_first_center = frequency_density(dist, 0.0)
        expected = 0.25 / (np.pi * 1.0) + 0.75 * (2.0 / np.pi) / (100.0 + 4.0)
        assert at_first_center == pytest.approx(expected, abs=1e-15)

    def test_continuum_convergence_default_window(self):
        # truncation-limited: the tail mass outside 40 widths is ~2/(pi*40)
        env = discretize(SINGLE, modes=2048, window=40.0)
        ts = np.linspace(0.0, 3.0, 61)
        err = np.abs(dephasing_function(env, ts) - dephasing_function(SINGLE, ts))
        assert np.max(err) <= 2.2e-2

    def test_continuum_convergence_wide_window(self):
        env = discretize(SINGLE, modes=4096, window=320.0)
        ts = np.linspace(0.0, 3.0, 61)
        err = np.abs(dephasing_function(env, ts) - dephasing_function(SINGLE, ts))
        assert np.max(err) <= 2e-3


class TestDiagonalPropagator:
    def test_matches_dense_conjugation(self, rng):
        rates = rng.normal(size=5)
        prop = DiagonalPropagator(rates)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        t = 0.83
        u = np.diag(np.exp(1j * rates * t))
        np.testing.assert_allclose(prop.evolve(m, t), u @ m @ u.conj().T, atol=1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rates_rejected(self, bad):
        with pytest.raises(ValueError, match="rates must be finite"):
            DiagonalPropagator(np.array([0.0, 1.0, bad, 2.0]))

    def test_rates_spanning_an_infinite_range_rejected(self):
        # every difference r_ae - r_be must be a finite float
        with pytest.raises(ValueError, match="rates must span a finite range"):
            DiagonalPropagator(np.array([-1e308, 0.0, 1e308]))

    def test_overflowing_phases_give_an_invariant_violation(self):
        sc = full_model(discretize(SPLIT_CENTERS, modes=64, window=20.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(witness.InvariantViolation, match=PHASE_OVERFLOW):
                witness.evaluate_point(sc, 0.0, 1e308)

    def test_forecast_rejects_mismatched_factors(self, rng):
        prop = DiagonalPropagator(rng.normal(size=6))
        mat = np.eye(6, dtype=complex) / 6
        with pytest.raises(ValueError, match="factors"):
            prop.forecast(np.eye(3)[None], mat, [0.5], [0.1], 2, 3)
        with pytest.raises(ValueError, match="factors"):
            prop.forecast(np.eye(2)[None], np.eye(4), [0.5], [0.1], 2, 3)
        with pytest.raises(ValueError, match="factors"):
            prop.forecast(np.eye(2)[None], mat, [0.5], [0.1], 2, 2)
        with pytest.raises(ValueError, match="times"):
            prop.forecast(np.stack([np.eye(2)] * 2), mat, [0.5], [0.1], 2, 3)

    @pytest.mark.parametrize("env_kind", ["amplitudes", "density"])
    def test_reduced_on_a_system_stack_equals_the_member_calls(self, rng, env_kind):
        """A stack of system factors against one environment, as the
        maximized measure passes the qubit's Pauli basis: bit for bit the
        member calls, with the stack's axis first."""
        prop = DiagonalPropagator(rng.normal(scale=3.0, size=2 * 6))
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi /= np.linalg.norm(psi)
        env = psi if env_kind == "amplitudes" else random_density_direct(6, rng)
        stack = np.stack([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        for times in (np.linspace(0.0, 3.0, 7), np.linspace(0.0, 3.0, 6).reshape(2, 3)):
            got = prop.reduced((stack, env), times, 2, 6)
            assert got.shape == (4,) + times.shape + (2, 2)
            for member, image in zip(stack, got):
                assert np.array_equal(image, prop.reduced((member, env), times, 2, 6))
        with pytest.raises(ValueError, match="one system factor"):
            prop.forecast(np.eye(2)[None] / 2, (stack, env), [0.5], [0.1], 2, 6)


class TestFullModel:
    def setup_method(self):
        self.env = discretize(SPLIT_CENTERS, modes=128, window=20.0)
        self.scenario = full_model(self.env)

    def test_reduced_state_matches_channel(self):
        plus, _ = plus_minus_pair()
        for t in (0.0, 0.4, 1.6):
            s1, _ = witness.evolve_pair(self.scenario, t)
            expected = apply_channel(dephasing_function(self.env, t), plus)
            assert np.max(np.abs(s1.system() - expected)) <= 1e-10

    def test_witnesses_match_discrete_closed_forms(self):
        for t in (0.2, 0.9, 1.8):
            for tp in (0.0, 0.5, 1.4):
                p = witness.evaluate_point(self.scenario, tp, t)
                d_t, forecast, influence, delta = analytic_witnesses(self.env, tp, t)
                assert p.d_t == pytest.approx(d_t, abs=1e-9)
                assert p.forecast == pytest.approx(forecast, abs=1e-9)
                assert p.influence == pytest.approx(influence, abs=1e-9)
                assert p.delta_d == pytest.approx(delta, abs=1e-9)

    def test_environment_branches_stay_equal(self):
        for t in (0.3, 1.1, 2.7):
            s1, s2 = witness.evolve_pair(self.scenario, t)
            assert linalg.trace_distance(s1.environment(), s2.environment()) <= 1e-10

    def test_point_forms_no_product_and_evolves_no_state(self, monkeypatch):
        """A row reads the environment marginal and the forecast from their
        factors: no np.kron, no np.outer, no dense evolve."""
        calls = []

        def recording(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(np, "kron", recording("kron", np.kron))
        monkeypatch.setattr(np, "outer", recording("outer", np.outer))
        monkeypatch.setattr(
            DiagonalPropagator, "evolve", recording("evolve", DiagonalPropagator.evolve)
        )
        sc = self.scenario
        for pair in (sc, witness.ScenarioPair(sc.state2, sc.state1, sc.propagator)):
            witness.evaluate_point(pair, 0.7, 1.3)
        assert calls == []

    def test_point_allocates_less_than_one_environment_array(self):
        """A 256-mode point reads only the environment populations: its peak
        allocation stays below one 256 x 256 complex array (1 MiB)."""
        sc = full_model(discretize(SPLIT_CENTERS, modes=256, window=40.0))
        witness.evaluate_point(sc, 0.7, 1.3)  # warm-up
        tracemalloc.start()
        try:
            witness.evaluate_point(sc, 0.7, 1.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 256 * 16

    def test_default_modes_surface_matches_the_closed_form(self):
        """fig2b's model at the default 2,048 modes on a 40 x 40 grid: every
        cell agrees with the closed form on the same discrete environment,
        with identical labels, and the whole surface peaks below 32 MiB."""
        env = discretize(SPLIT_CENTERS)
        sc = full_model(env)
        grid = np.linspace(0.0, 3.0, 40)
        tracemalloc.start()
        try:
            got = witness.evaluate_surface(sc, grid, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        want = analytic_surface(env, grid, grid)
        for column in ("d_t", "d_next", "forecast", "influence", "delta_d", "lower", "upper"):
            assert np.max(np.abs(getattr(got, column) - getattr(want, column))) <= 1e-12
        assert np.array_equal(got.labels, want.labels)
        assert peak < 32 * 2**20

    def test_default_modes_surface_peaks_below_12_mib(self):
        """The surface's coherences hold one exponential per mode, time and
        level pair a < b: at 2,048 modes the 40 x 40 grid peaks below 12 MiB."""
        sc = full_model(discretize(SPLIT_CENTERS))
        grid = np.linspace(0.0, 3.0, 40)
        witness.evaluate_surface(sc, grid, grid)  # warm-up
        tracemalloc.start()
        try:
            witness.evaluate_surface(sc, grid, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_exponentials_only_for_level_pairs_above_the_diagonal(self, monkeypatch, rng):
        """A product pair takes T * dE * ds(ds - 1)/2 complex exponentials:
        768 for a 256-mode point (t, t + t' in ``reduced``, t' in ``forecast``),
        as c_aa needs none and c_ba is the conjugate of c_ab."""
        sizes = []
        exp = np.exp

        def recording_exp(x, *args, **kwargs):
            sizes.append(np.size(x))
            return exp(x, *args, **kwargs)

        sc = full_model(discretize(SPLIT_CENTERS, modes=256, window=40.0))
        monkeypatch.setattr(np, "exp", recording_exp)
        witness.evaluate_point(sc, 0.7, 1.3)
        assert sum(sizes) == 3 * 256 * 1
        ds, de, times = 3, 5, [0.0, 0.4, 1.1, 2.0]
        prop = DiagonalPropagator(rng.normal(size=ds * de))
        system = random_hermitian_direct(ds, rng)
        for env in (rng.normal(size=de), random_density_direct(de, rng)):
            sizes.clear()
            prop.reduced((system, env), times, ds, de)
            prop.forecast(np.stack([system] * 2), (system, env), [0.2, 0.5], times, ds, de)
            assert sum(sizes) == 2 * len(times) * de * ds * (ds - 1) // 2

    def test_model_allocates_only_its_environment_factor(self):
        """At the default 2,048 modes the states stay factor pairs and the
        environment stays its amplitude vector (32 KiB): set-up forms no
        2048 x 2048 environment matrix (64 MiB) and no 4096 x 4096 state."""
        env = discretize(SPLIT_CENTERS, modes=2048, window=40.0)
        tracemalloc.start()
        try:
            full_model(env)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_environment_validated_once_and_shared(self, monkeypatch):
        """Both states hold one environment factor, the amplitude vector
        sqrt(p), checked by its norm: no modes x modes matrix is factorised."""
        modes = 16
        sizes = []
        cholesky = np.linalg.cholesky

        def recording_cholesky(a, *args, **kwargs):
            sizes.append(a.shape[-1])
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", recording_cholesky)
        sc = full_model(discretize(SPLIT_CENTERS, modes=modes, window=20.0))
        assert sizes.count(modes) == 0
        assert sc.state1.factors[1] is sc.state2.factors[1]

    def test_any_mode_count_past_the_dense_cap(self):
        """2,049 and 5,000 modes make 4,098 and 10,000 dimensions, past
        linalg.DENSE_DIM_CAP: the model builds, and its surface and measure match
        the closed form on the same discrete environment, while its states refuse
        to form their total operator or environment matrix, before allocating."""
        grid = np.linspace(0.0, 3.0, 6)
        for modes in (2049, 5000):
            env = Discrete(freqs=np.linspace(-20.0, 20.0, modes), probs=np.full(modes, 1 / modes))
            sc = full_model(env)
            got, want = witness.evaluate_surface(sc, grid, grid), analytic_surface(env, grid, grid)
            for column in ("d_t", "d_next", "forecast", "influence", "delta_d", "lower", "upper"):
                assert np.max(np.abs(getattr(got, column) - getattr(want, column))) <= 1e-12
            assert np.array_equal(got.labels, want.labels)
            # the measure over pairs that include the equatorial one, whose distance is |k|
            times = np.linspace(0.0, 3.0, 40)
            value, _ = blp.nm_measure_maximized(
                lambda r1, r2: full_model(env, (r1, r2)), times, blp.bloch_pair_grid(3, 1))
            closed = blp.increasing_intervals(times, np.abs(dephasing_function(env, times)))
            assert value > 0.1
            assert value == pytest.approx(closed.total_increase(), abs=1e-12)
            for form in (lambda: sc.state1.op, sc.state2.environment):
                tracemalloc.start()
                try:
                    with pytest.raises(ValueError, match=f"^cannot form the .* state: dimension "
                                       f"{2 * modes} exceeds DENSE_DIM_CAP = 4096$"):
                        form()
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < modes * 16  # below one environment row

    def test_non_finite_point_raises(self):
        # a non-finite time is bad input, rejected where it enters
        env = Discrete(freqs=np.array([1.0]), probs=np.array([1.0]))
        for dist, tprime, t in ((env, 0.1, np.inf), (SPLIT_CENTERS, 0.1, np.inf),
                                (SPLIT_CENTERS, np.inf, 0.1), (SPLIT_CENTERS, 0.1, np.nan)):
            with pytest.raises(ValueError, match="finite"):
                analytic_point(dist, tprime, t)
        for t in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                tcl_coefficients(SPLIT_CENTERS, t)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SingleLorentzian(1.0, np.nan),
        lambda: DoubleLorentzian(1.0, 1.0, 9.0, 1.0, np.nan),
        lambda: SpinChainSpec(2, exchange=np.nan),
        lambda: Discrete(np.array([np.nan, 1.0]), np.array([0.5, 0.5])),
        lambda: GridSpec(0.0, np.nan, 3),
        lambda: SingleLorentzian(np.inf, 1.0),
        lambda: DoubleLorentzian(1.0, np.inf, 9.0, 1.0, 1.0),
        lambda: SpinChainSpec(2, field=np.inf),
        lambda: Discrete(np.array([1.0, 2.0]), np.array([np.nan, 1.0])),
        lambda: GridSpec(np.inf, np.inf, 3),
    ],
    ids=[
        "single-delta-nan", "double-r-nan", "chain-exchange-nan", "discrete-freq-nan",
        "grid-max-nan", "single-omega0-inf", "double-delta1-inf", "chain-field-inf",
        "discrete-prob-nan", "grid-min-inf",
    ],
)
def test_non_finite_parameters_rejected(build):
    with pytest.raises(ValueError):
        build()
