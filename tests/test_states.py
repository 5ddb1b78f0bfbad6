import re

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

    @pytest.mark.parametrize("ds, de, name", [(2.0, 2, "ds"), (2, np.nan, "de"), (2, "2", "de")])
    def test_rejects_non_integer_factors(self, ds, de, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            BipartiteState(np.eye(4) / 4, ds, de)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            BipartiteState(np.eye(4), 2, 2)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="negative"):
            BipartiteState(m, 2, 2)
        # eigenvalues 1.3 and -0.3 on rows 0 and 3, zero rows in between
        m = np.zeros((4, 4), dtype=complex)
        m[np.ix_([0, 3], [0, 3])] = [[0.5, 0.8], [0.8, 0.5]]
        with pytest.raises(ValueError, match="negative"):
            BipartiteState(m, 2, 2)


class TestProductState:
    def test_equals_the_validated_product(self, rng):
        rho_s, rho_e = random_density_direct(2, rng), random_density_direct(3, rng)
        s = BipartiteState.product(rho_s, rho_e)
        assert (s.ds, s.de) == (2, 3)
        assert np.max(np.abs(s.op - np.kron(rho_s, rho_e))) <= 1e-15
        assert np.array_equal(s.op, s.op.conj().T)
        assert np.max(np.abs(BipartiteState(s.op, 2, 3).op - s.op)) == 0.0

    def test_op_is_the_kronecker_product_of_the_factors(self, rng):
        rho_s, rho_e = random_density_direct(3, rng), random_density_direct(4, rng)
        s = BipartiteState.product(rho_s, rho_e)
        assert np.array_equal(s.op, np.kron(*s.factors))
        assert s.op is s.op  # formed once, on first access

    def test_marginals_are_the_factors_without_forming_op(self, rng, monkeypatch):
        rho_s, rho_e = random_density_direct(2, rng), random_density_direct(5, rng)
        s = BipartiteState.product(rho_s, rho_e)

        def refuse(*args):
            raise AssertionError("the product was formed")

        monkeypatch.setattr(linalg, "tensor_product", refuse)
        assert s.system() is s.factors[0] and s.environment() is s.factors[1]
        np.testing.assert_allclose(s.system(), rho_s, rtol=0, atol=1e-15)
        np.testing.assert_allclose(s.environment(), rho_e, rtol=0, atol=1e-15)
        assert s.dim == 10
        with pytest.raises(ValueError, match="read-only"):
            s.system()[0, 0] = 1.0

    def test_products_share_one_environment_factor(self, rng, monkeypatch):
        systems = [random_density_direct(2, rng) for _ in range(3)]
        rho_e = random_density_direct(4, rng)
        names = []
        validate = states._hermitian_factor

        def recording_validate(m, name="state", *args, **kwargs):
            names.append(name)
            return validate(m, name, *args, **kwargs)

        monkeypatch.setattr(states, "_hermitian_factor", recording_validate)
        made = BipartiteState.products(systems, rho_e)
        assert names.count("environment factor") == 1
        assert all(s.factors[1] is made[0].factors[1] for s in made)
        for s, rho_s in zip(made, systems):
            single = BipartiteState.product(rho_s, rho_e)
            assert np.array_equal(s.factors[0], single.factors[0])
            assert np.array_equal(s.factors[1], single.factors[1])
        with pytest.raises(ValueError, match="read-only"):
            made[0].factors[1][0, 0] = 1.0

    def test_factors_are_the_hermitian_parts_their_checks_formed(self, rng, monkeypatch):
        """No second Hermitian part is formed: each factor is the check's
        own, equal bit for bit to (m + m^dagger)/2, with the zero rows and
        columns the check drops put back and the diagonal that a larger
        factor's positivity check shifts restored."""
        monkeypatch.setattr(linalg, "hermitian_part", None)
        drift = 1e-12j * rng.normal(size=(3, 3))
        factors = [pure_qubit(0.0, 0.4), pure_qubit(0.9, 2.1) + drift[:2, :2],
                   random_density_direct(3, rng) + drift, np.diag([0.0, 0.25, 0.75])]
        for m in factors:
            want = (m + m.conj().T) / 2.0
            as_system = BipartiteState.product(m, np.eye(2) / 2).factors[0]
            as_environment = BipartiteState.product(np.eye(2) / 2, m).factors[1]
            for factor in (as_system, as_environment):
                assert np.array_equal(factor, want)
                assert not factor.flags.writeable

    def test_products_reject_a_bad_system_factor(self, rng):
        with pytest.raises(ValueError, match="system factor .*trace"):
            BipartiteState.products([np.eye(2) / 2, np.eye(2)], np.eye(3) / 3)

    def test_a_general_state_has_no_factors(self, rng):
        s = BipartiteState(random_density_direct(6, rng), 2, 3)
        assert s.factors is None

    @pytest.mark.parametrize("factor", ["system", "environment"])
    @pytest.mark.parametrize(
        "defect, message",
        [
            ("negative", "negative eigenvalue"),
            ("non-Hermitian", "not Hermitian"),
            ("nan", "not Hermitian"),
            ("trace", "trace"),
        ],
    )
    def test_rejects_a_bad_factor_by_name(self, rng, factor, defect, message):
        good = {"system": random_density_direct(2, rng), "environment": np.eye(3) / 3}
        bad = good[factor].astype(complex)
        if defect == "negative":
            bad = np.diag([1.5, -0.5] + [0.0] * (len(bad) - 2)).astype(complex)
        elif defect == "non-Hermitian":
            bad[0, 1] += 0.1
        elif defect == "nan":
            bad[0, 0] = np.nan
        else:
            bad = 2.0 * bad
        good[factor] = bad
        with pytest.raises(ValueError, match=f"{factor} factor .*{message}"):
            BipartiteState.product(good["system"], good["environment"])


def random_amplitudes(de, rng):
    psi = rng.normal(size=de) + 1j * rng.normal(size=de)
    return psi / np.linalg.norm(psi)


class TestAmplitudeEnvironment:
    """A pure environment given as its amplitudes psi against the same
    environment given as the matrix psi psi^dagger."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(ds=st.integers(1, 3), de=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_density_matrix(self, ds, de, seed):
        rng = np.random.default_rng(seed)
        psi = random_amplitudes(de, rng)
        systems = [random_density_direct(ds, rng) for _ in range(2)]
        pure = BipartiteState.products(systems, psi)
        dense = BipartiteState.products(systems, np.outer(psi, psi.conj()))
        for a, b in zip(pure, dense):
            assert (a.ds, a.de) == (b.ds, b.de) == (ds, de)
            assert a.factors[1].shape == (de,)
            assert np.max(np.abs(a.environment() - b.environment())) <= 1e-12
            assert np.max(np.abs(a.op - b.op)) <= 1e-12
            assert np.array_equal(a.system(), b.system())

    def test_amplitudes_are_kept_read_only_and_shared(self, rng):
        psi = random_amplitudes(4, rng)
        made = BipartiteState.products([np.eye(2) / 2, pure_qubit(0.3, 0.1)], psi)
        assert made[0].factors[1] is made[1].factors[1]
        np.testing.assert_array_equal(made[0].factors[1], psi)
        with pytest.raises(ValueError, match="read-only"):
            made[0].factors[1][0] = 1.0
        psi[0] = 0.0  # the caller's array is not the factor
        assert made[0].factors[1][0] != 0.0

    def test_validates_no_matrix(self, rng, monkeypatch):
        """The amplitudes are checked by their norm alone: only the system
        factor goes through the density-matrix check."""
        names = []
        validate = states._hermitian_factor

        def recording_validate(m, name="state", *args, **kwargs):
            names.append(name)
            return validate(m, name, *args, **kwargs)

        monkeypatch.setattr(states, "_hermitian_factor", recording_validate)
        BipartiteState.product(np.eye(2) / 2, random_amplitudes(64, rng))
        assert names == ["system factor"]

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(lambda psi: np.where(np.arange(psi.size) == 1, np.nan, psi), id="nan"),
            pytest.param(lambda psi: np.where(np.arange(psi.size) == 1, np.inf, psi), id="inf"),
            pytest.param(lambda psi: psi * np.sqrt(1.0 + 2.0 * linalg.TRACE_TOL), id="norm-high"),
            pytest.param(lambda psi: psi * np.sqrt(1.0 - 2.0 * linalg.TRACE_TOL), id="norm-low"),
            pytest.param(lambda psi: np.complex128(1.0), id="0-d"),
            pytest.param(lambda psi: np.ones((2, 2, 2)) / 8.0, id="3-d"),
        ],
    )
    def test_rejects_bad_amplitudes(self, rng, bad):
        psi = bad(random_amplitudes(4, rng))
        with pytest.raises(ValueError, match="environment factor"):
            BipartiteState.products([np.eye(2) / 2], psi)


class TestSharedEnvironment:
    """``_shared_environment`` on the five kinds of pair: the states of one
    ``products`` call, products of equal or of different environment
    arrays, two dense states, and a product with a dense state."""

    @staticmethod
    def pair(kind, rng):
        psi, systems = random_amplitudes(4, rng), (np.eye(2) / 2, pure_qubit(0.3, 0.1))
        one = BipartiteState.products(systems, psi)
        dense = [BipartiteState(s.op, 2, 4) for s in one]
        other = random_amplitudes(4, rng) if kind == "different-arrays" else psi.copy()
        return {
            "same-array": one,
            "equal-arrays": [one[0], BipartiteState.product(systems[1], other)],
            "different-arrays": [one[0], BipartiteState.product(systems[1], other)],
            "dense": dense,
            "product-and-dense": [one[0], dense[1]],
        }[kind]

    @pytest.mark.parametrize("kind, shared", [
        ("same-array", True), ("equal-arrays", True), ("different-arrays", False),
        ("dense", False), ("product-and-dense", False),
    ])
    def test_returns_the_first_states_environment_or_none(self, rng, kind, shared):
        state1, state2 = self.pair(kind, rng)
        for first, second in ((state1, state2), (state2, state1)):
            got = states._shared_environment(first, second)
            assert got is (first.factors[1] if shared else None)
        if kind == "equal-arrays":
            assert state1.factors[1] is not state2.factors[1]

    def test_one_array_is_not_compared(self, rng, monkeypatch):
        state1, state2 = self.pair("same-array", rng)
        monkeypatch.setattr(np, "array_equal", lambda *args: pytest.fail("arrays compared"))
        assert states._shared_environment(state1, state2) is state1.factors[1]


def _non_finite(bad, where):
    m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    if where == "diagonal":
        m[0, 0] = bad
    elif where == "off-diagonal":
        m[0, 1] = m[1, 0] = bad
    else:
        m[:] = bad
    return m


NON_FINITE_CHECKS = {
    "validate_density_matrix": states.validate_density_matrix,
    "BipartiteState": lambda m: BipartiteState(m, 2, 2),
    "trace_norm": linalg.trace_norm,
    "hermitian_eigensystem": linalg.hermitian_eigensystem,
}


@pytest.mark.parametrize("check", NON_FINITE_CHECKS)
@pytest.mark.parametrize("where", ["diagonal", "off-diagonal", "everywhere"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_fail_the_hermiticity_check(check, where, bad):
    """NaN and inf make the Hermiticity defect NaN or infinite, which must
    fail the entry check with a plain ValueError, before any solver runs."""
    with pytest.raises(ValueError, match="Hermitian") as info:
        NON_FINITE_CHECKS[check](_non_finite(bad, where))
    assert not isinstance(info.value, np.linalg.LinAlgError)


def test_validation_reads_only_the_nonzero_block(monkeypatch):
    """A polarized environment is checked on its one nonzero entry, and a
    NaN in a row that is otherwise zero still fails the Hermiticity check."""
    shapes = []
    require = linalg.require_hermitian

    def recording_require(m, name="matrix"):
        shapes.append(np.shape(m))
        return require(m, name)

    monkeypatch.setattr(linalg, "require_hermitian", recording_require)
    polarized = np.zeros((128, 128), dtype=complex)
    polarized[0, 0] = 1.0
    states.validate_density_matrix(polarized)
    assert shapes == [(1, 1)]
    padded = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    padded[3, 2] = np.nan
    with pytest.raises(ValueError, match="Hermitian"):
        states.validate_density_matrix(padded)


class TestPositivity:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(2, 8),
        zeros=st.integers(0, 4),
        factor=st.sampled_from([-10.0, -2.0, -0.5, 0.0, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_accepted_exactly_above_minus_psd_tol(self, n, zeros, factor, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        smallest = factor * linalg.PSD_TOL
        rest = rng.uniform(0.1, 1.0, n - 1)
        values = np.concatenate([[smallest], rest * (1.0 - smallest) / rest.sum()])
        block = (q * values) @ q.conj().T
        # the block sits on scattered rows among exactly zero ones
        rows = np.sort(rng.choice(n + zeros, size=n, replace=False))
        rho = np.zeros((n + zeros, n + zeros), dtype=complex)
        rho[np.ix_(rows, rows)] = block
        if smallest >= -linalg.PSD_TOL:
            states.validate_density_matrix(rho)
            return
        with pytest.raises(ValueError, match="negative eigenvalue") as info:
            states.validate_density_matrix(rho)
        assert float(str(info.value).split()[-1]) == pytest.approx(smallest, rel=1e-3)


def general_qubit_check(m, name="state"):
    """The general rule on a 2 x 2 matrix: ``linalg.require_hermitian``, the
    trace, and the smallest eigenvalue of H by ``eigvalsh``."""
    sym = linalg.require_hermitian(m, name)
    tr = complex(np.trace(m))
    if not abs(tr - 1.0) <= linalg.TRACE_TOL:
        raise ValueError(f"{name} has trace {tr:.12g}, expected 1")
    smallest = float(np.linalg.eigvalsh(sym)[0])
    if not smallest >= -linalg.PSD_TOL:
        raise ValueError(f"{name} has negative eigenvalue {smallest:.3e}")
    return sym


def _qubit_with_smallest(smallest):
    """A rotated 2 x 2 Hermitian matrix of unit trace and smallest eigenvalue
    ``smallest``."""
    q = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    return (q * [1.0 - smallest, smallest]) @ q.conj().T


def _shifted(where, shift):
    """A valid qubit state with ``shift`` added to one entry."""
    m = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    m[where] += shift
    return m


# (id, matrix, accepted by both rules)
QUBIT_CASES = [
    *[(f"{bad} at {where}", _shifted(where, bad), False)
      for where in [(0, 0), (0, 1), (1, 1)] for bad in (np.nan, np.inf, -np.inf)],
    ("defect 5e-11", _shifted((0, 1), 5e-11), True),
    ("defect 2e-10", _shifted((0, 1), 2e-10), False),
    ("trace 1+2e-9", _shifted((1, 1), 2e-9), False),
    ("trace 1-2e-9", _shifted((1, 1), -2e-9), False),
    ("trace 1+5e-10", _shifted((1, 1), 5e-10), True),
    ("smallest -5e-10", _qubit_with_smallest(-5e-10), True),
    ("smallest -2e-9", _qubit_with_smallest(-2e-9), False),
    ("smallest 0", _qubit_with_smallest(0.0), True),
    ("|0><0|", np.diag([1.0, 0.0]).astype(complex), True),
    ("|1><1|", np.diag([0.0, 1.0]).astype(complex), True),
]


class TestQubitCheck:
    """A 2 x 2 matrix is checked from its four entries in closed form; the
    closed form keeps the general rule's verdicts and messages."""

    @pytest.mark.parametrize("m, accepted", [case[1:] for case in QUBIT_CASES],
                             ids=[case[0] for case in QUBIT_CASES])
    def test_agrees_with_the_general_rule(self, m, accepted):
        if accepted:
            general_qubit_check(m)
            assert states.validate_density_matrix(m) is not None
            return
        with pytest.raises(ValueError) as general:
            general_qubit_check(m)
        with pytest.raises(ValueError) as closed_form:
            states.validate_density_matrix(m)
        prefix = lambda info: re.match(r"\D*", str(info.value)).group()
        assert prefix(closed_form) == prefix(general)

    def test_skips_the_general_path(self, monkeypatch):
        for name in ("require_hermitian", "nonzero_block"):
            monkeypatch.setattr(linalg, name, None)
        for m in (pure_qubit(0.0, 0.0), pure_qubit(np.pi, 0.0), pure_qubit(1.1, 0.4)):
            states.validate_density_matrix(m)

    def test_hermitian_part_is_bit_exact_and_read_only(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = random_density_direct(2, rng)
            m = m + 5e-12 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            m = m / np.trace(m).real
            factor, trace = states._hermitian_factor(m, "system factor")
            want = (m + m.conj().T) / 2.0
            assert factor.tobytes() == want.tobytes()
            assert trace == np.trace(want).real
            assert not factor.flags.writeable


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
                chi = split.correlation
                assert np.max(np.abs(chi - chi.conj().T)) == 0.0
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

    def test_equals_the_outer_product_of_its_amplitudes(self, rng):
        for theta, phi in rng.uniform([-10.0, -10.0], [10.0, 10.0], (200, 2)).tolist():
            amp = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
            rho = pure_qubit(theta, phi)
            np.testing.assert_allclose(rho, np.outer(amp, amp.conj()), rtol=0, atol=1e-15)
            assert np.array_equal(rho, rho.conj().T)  # Hermitian exactly, real diagonal

    @pytest.mark.parametrize("theta, phi, name", [
        (np.inf, 0.0, "theta"), (-np.inf, 0.0, "theta"), (np.nan, 0.0, "theta"),
        (0.0, np.inf, "phi"), (0.0, np.nan, "phi"),
    ])
    def test_non_finite_angles_rejected(self, theta, phi, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            pure_qubit(theta, phi)


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
