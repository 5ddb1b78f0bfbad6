import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backflow import linalg, states
from backflow.states import BipartiteState, decompose, plus_minus_pair, pure_qubit

from conftest import random_density_direct


def bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return BipartiteState(np.outer(v, v.conj()), 2, 2)


class TestBipartiteState:
    def test_accepts_valid(self, rng):
        s = BipartiteState(random_density_direct(6, rng), 2, 3)
        assert s.dim == 6
        assert s.system().shape == (2, 2)
        assert s.environment().shape == (3, 3)

    def test_rejects_wrong_shape(self, rng):
        with pytest.raises(ValueError, match="shape"):
            BipartiteState(random_density_direct(4, rng), 2, 3)

    def test_rejects_non_hermitian(self):
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        m[0, 1] = 0.3
        with pytest.raises(ValueError, match="Hermitian"):
            BipartiteState(m, 2, 2)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            BipartiteState(np.eye(4), 2, 2)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="negative"):
            BipartiteState(m, 2, 2)


class TestDecompose:
    def test_product_state_has_zero_correlation(self, rng):
        a = random_density_direct(2, rng)
        b = random_density_direct(3, rng)
        split = decompose(BipartiteState(np.kron(a, b), 2, 3))
        np.testing.assert_allclose(split.system, a, atol=1e-12)
        np.testing.assert_allclose(split.environment, b, atol=1e-12)
        assert np.max(np.abs(split.correlation)) <= 1e-12

    def test_bell_state(self):
        split = decompose(bell_state())
        np.testing.assert_allclose(split.system, np.eye(2) / 2, atol=1e-14)
        np.testing.assert_allclose(split.environment, np.eye(2) / 2, atol=1e-14)
        # oracle: chi = bell - I/4 has eigenvalues {3/4, -1/4 x3}
        oracle = np.sort(np.linalg.eigvalsh(split.correlation))
        np.testing.assert_allclose(oracle, [-0.25, -0.25, -0.25, 0.75], atol=1e-14)
        assert split.correlation_norm() == pytest.approx(1.5, abs=1e-12)

    def test_classically_correlated(self):
        m = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        split = decompose(BipartiteState(m, 2, 2))
        # oracle: difference from I/4 is diag(1/4, -1/4, -1/4, 1/4)
        oracle = np.sort(np.linalg.eigvalsh(m - np.eye(4) / 4))
        np.testing.assert_allclose(oracle, [-0.25, -0.25, 0.25, 0.25], atol=1e-15)
        assert split.correlation_norm() == pytest.approx(1.0, abs=1e-12)

    def test_invariants_on_random_states(self, rng):
        for ds, de in ((2, 2), (2, 4), (3, 3)):
            for _ in range(10):
                joint = BipartiteState(random_density_direct(ds * de, rng), ds, de)
                split = decompose(joint)
                assert np.max(np.abs(split.reconstruct() - joint.op)) <= 1e-12
                for keep in ("system", "environment"):
                    marg = linalg.partial_trace(split.correlation, ds, de, keep)
                    assert np.max(np.abs(marg)) <= 1e-12
                assert linalg.hermiticity_defect(split.correlation) == 0.0
                assert abs(np.trace(split.correlation)) <= 1e-12
                norm = split.correlation_norm()
                assert norm <= 2.0 + 1e-12
                product = linalg.tensor_product(split.system, split.environment)
                assert norm == pytest.approx(
                    2 * linalg.trace_distance(product, joint.op), abs=1e-10
                )

    def test_rejects_non_state(self):
        with pytest.raises(TypeError):
            decompose(np.eye(4) / 4)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(ds=st.integers(2, 4), de=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_split_identities_hold_on_random_states(self, ds, de, seed):
        joint = BipartiteState(random_density_direct(ds * de, np.random.default_rng(seed)), ds, de)
        split = decompose(joint)
        assert np.max(np.abs(split.reconstruct() - joint.op)) <= 1e-12
        for keep in ("system", "environment"):
            assert np.max(np.abs(linalg.partial_trace(split.correlation, ds, de, keep))) <= 1e-12
        product = linalg.tensor_product(split.system, split.environment)
        distance = linalg.trace_distance(product, joint.op)
        assert abs(split.correlation_norm() - 2 * distance) <= 1e-10


class TestPureQubit:
    def test_north_pole(self):
        np.testing.assert_allclose(pure_qubit(0.0, 1.2), np.diag([1.0, 0.0]), atol=1e-15)

    def test_plus_state(self):
        np.testing.assert_allclose(pure_qubit(np.pi / 2, 0.0), np.full((2, 2), 0.5), atol=1e-15)

    def test_minus_state(self):
        expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
        np.testing.assert_allclose(pure_qubit(np.pi / 2, np.pi), expected, atol=1e-15)

    def test_rank_one_unit_trace(self, rng):
        for _ in range(10):
            rho = pure_qubit(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-13)


class TestPlusMinusPair:
    def test_trace_distance_one(self):
        p, m = plus_minus_pair()
        assert linalg.trace_distance(p, m) == pytest.approx(1.0, abs=1e-14)

    def test_sum_is_identity(self):
        p, m = plus_minus_pair()
        np.testing.assert_allclose(p + m, np.eye(2), atol=1e-15)

    def test_off_diagonals(self):
        p, m = plus_minus_pair()
        assert p[0, 1] == pytest.approx(0.5, abs=1e-15)
        assert m[0, 1] == pytest.approx(-0.5, abs=1e-15)


def test_random_density_is_valid(rng):
    for dim in (2, 5):
        rho = states.random_density(dim, rng)
        states.validate_density_matrix(rho)
