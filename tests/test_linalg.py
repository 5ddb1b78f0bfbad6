import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backflow import linalg, states

from conftest import random_density_direct, random_hermitian_direct

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def ket(*amps):
    v = np.array(amps, dtype=complex)
    return v / np.linalg.norm(v)


def proj(vec):
    return np.outer(vec, vec.conj())


BELL = proj(ket(1, 0, 0, 1))


class TestTensorProduct:
    def test_identity(self):
        np.testing.assert_array_equal(linalg.tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_order(self):
        # |0><0| (x) |1><1| lands on |01>, i.e. flat index 1
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        np.testing.assert_array_equal(
            linalg.tensor_product(p0, p1), np.diag([0.0, 1.0, 0.0, 0.0])
        )

    def test_single_flip(self):
        # (sigma_x (x) I)|00> = |10>
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0
        flipped = linalg.tensor_product(SX, np.eye(2)) @ state
        expected = np.zeros(4, dtype=complex)
        expected[2] = 1.0
        np.testing.assert_allclose(flipped, expected)


class TestPartialTrace:
    def test_product_state_factorizes(self, rng):
        a = random_density_direct(2, rng)
        b = random_density_direct(3, rng)
        joint = np.kron(a, b)
        np.testing.assert_allclose(linalg.partial_trace(joint, 2, 3, "system"), a, atol=1e-13)
        np.testing.assert_allclose(linalg.partial_trace(joint, 2, 3, "environment"), b, atol=1e-13)

    def test_scaled_by_traced_factor(self, rng):
        a = random_density_direct(2, rng)
        b = random_hermitian_direct(3, rng)  # trace != 1 in general
        joint = np.kron(a, b)
        np.testing.assert_allclose(
            linalg.partial_trace(joint, 2, 3, "system"), a * np.trace(b), atol=1e-12
        )

    def test_bell_marginal_is_maximally_mixed(self):
        np.testing.assert_allclose(
            linalg.partial_trace(BELL, 2, 2, "system"), np.eye(2) / 2, atol=1e-15
        )
        np.testing.assert_allclose(
            linalg.partial_trace(BELL, 2, 2, "environment"), np.eye(2) / 2, atol=1e-15
        )

    def test_matches_index_sum_oracle(self, rng):
        m = random_hermitian_direct(4, rng)
        # direct sum over all basis pairs
        expected = np.zeros((2, 2), dtype=complex)
        for a in range(2):
            for b in range(2):
                for e in range(2):
                    expected[a, b] += m[a * 2 + e, b * 2 + e]
        np.testing.assert_allclose(linalg.partial_trace(m, 2, 2, "system"), expected, atol=1e-14)
        assert np.trace(linalg.partial_trace(m, 2, 2, "system")) == pytest.approx(
            np.trace(m), abs=1e-12
        )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            linalg.partial_trace(np.eye(4), 2, 3)
        with pytest.raises(ValueError):
            linalg.partial_trace(np.eye(4), 2, 2, keep="both")


class TestMagnitudeMaxima:
    def test_product_pair_matches_the_dense_product(self, rng):
        a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        b = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        dense = np.abs(np.kron(a, b))
        for got, want in zip(linalg.magnitude_maxima((a, b)), (dense.max(1), dense.max(0))):
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    def test_pair_of_stacks_matches_each_dense_product(self, rng):
        a = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        b = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        rows, cols = linalg.magnitude_maxima((a, b))
        assert rows.shape == cols.shape == (3, 8)
        for k in range(3):
            dense = np.abs(np.kron(a[k], b[k]))
            np.testing.assert_allclose(rows[k], dense.max(1), rtol=1e-15, atol=0)
            np.testing.assert_allclose(cols[k], dense.max(0), rtol=1e-15, atol=0)


class TestTraceNorm:
    def test_zero(self):
        assert linalg.trace_norm(np.zeros((3, 3))) == 0.0

    def test_diagonal(self):
        assert linalg.trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0, abs=1e-12)

    def test_bell_minus_mixed(self):
        # eigenvalues of the difference, by a brute-force oracle
        diff = BELL - np.eye(4) / 4
        oracle = np.sort(np.linalg.eigvalsh(diff))
        np.testing.assert_allclose(oracle, [-0.25, -0.25, -0.25, 0.75], atol=1e-14)
        assert linalg.trace_norm(diff) == pytest.approx(1.5, abs=1e-12)

    def test_zero_padding_leaves_norm_unchanged(self, rng):
        for _ in range(20):
            dim = int(rng.integers(1, 7))
            a = random_hermitian_direct(dim, rng)
            where = np.sort(rng.choice(dim + 9, size=dim, replace=False))
            padded = np.zeros((dim + 9, dim + 9), dtype=complex)
            padded[np.ix_(where, where)] = a
            assert abs(linalg.trace_norm(padded) - linalg.trace_norm(a)) <= 1e-15
        assert linalg.trace_norm(np.zeros((9, 9), dtype=complex)) == 0.0

    def test_nonzero_block_first_equals_the_dense_eigenvalue_sum(self, rng):
        for _ in range(20):
            dim = int(rng.integers(1, 7))
            where = np.sort(rng.choice(dim + 9, size=dim, replace=False))
            padded = np.zeros((dim + 9, dim + 9), dtype=complex)
            padded[np.ix_(where, where)] = random_hermitian_direct(dim, rng)
            padded[where[0], where[-1]] += 1e-12  # dust below the tolerance
            dense = np.sum(np.abs(np.linalg.eigvalsh((padded + padded.conj().T) / 2)))
            assert abs(linalg.trace_norm(padded) - dense) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, "anti-Hermitian"])
    @pytest.mark.parametrize("inside", [True, False], ids=["in-block", "in-zero-rows"])
    def test_padded_matrix_still_rejects(self, rng, bad, inside):
        padded = np.zeros((8, 8), dtype=complex)
        padded[np.ix_([1, 4], [1, 4])] = random_hermitian_direct(2, rng)
        i, j = (1, 4) if inside else (6, 2)
        if bad == "anti-Hermitian":
            padded[i, j] += 1e-3
        else:
            padded[i, j] = bad
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.trace_norm(padded)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))
        # the Hermitian part of this one is zero; the check still sees the input
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.trace_norm(np.array([[0.0, 1e-3], [-1e-3, 0.0]]))

    def test_absorbs_tiny_defect(self):
        m = np.diag([1.0, -1.0]).astype(complex)
        m[0, 1] = 1e-12  # below the rejection tolerance
        assert linalg.trace_norm(m) == pytest.approx(2.0, abs=1e-11)

    def test_stack_matches_single_calls(self, rng):
        stack = np.stack([
            np.stack([random_hermitian_direct(3, rng) for _ in range(4)]) for _ in range(2)
        ])
        stack[1, 2] = 0.0  # an all-zero member
        got = linalg.trace_norm(stack)
        assert got.shape == (2, 4)
        for idx in np.ndindex(2, 4):
            assert abs(got[idx] - linalg.trace_norm(stack[idx])) <= 1e-14
        assert got[1, 2] == 0.0
        assert isinstance(linalg.trace_norm(stack[0, 0]), float)
        assert linalg.trace_norm(np.zeros((0, 2, 2))).shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, "anti-Hermitian"])
    def test_stack_rejects_one_bad_member(self, rng, bad):
        # inf - inf is NaN: rejected, with no RuntimeWarning (warnings are errors here)
        for shape, member in (((3,), (1,)), ((2, 3), (1, 2))):
            stack = np.stack([random_hermitian_direct(2, rng) for _ in np.ndindex(shape)])
            stack = stack.reshape(shape + (2, 2))
            if bad == "anti-Hermitian":
                stack[member + (0, 1)] += 1e-3
            else:
                stack[member + (0, 0)] = bad
            where = re.escape(f"matrix {member} of the stack is not Hermitian")
            with pytest.raises(ValueError, match=where):
                linalg.trace_norm(stack)

    def test_stack_needs_square_members(self):
        with pytest.raises(ValueError, match="square"):
            linalg.trace_norm(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError, match="square"):
            linalg.trace_norm(np.zeros(4))

    def test_triangle_inequality(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 10))
            a = random_hermitian_direct(dim, rng)
            b = random_hermitian_direct(dim, rng)
            na, nb, nd = linalg.trace_norm(a), linalg.trace_norm(b), linalg.trace_norm(a - b)
            assert abs(na - nb) <= nd + 1e-10
            assert nd <= na + nb + 1e-10


def _eigenvalue_norms(h):
    return np.abs(np.linalg.eigvalsh(h)).sum(-1)


class TestQubitTraceNorm:
    """The closed form max(|tr H|, hypot(h00 - h11, 2|h01|)) of a 2 x 2 stack
    against the sum of absolute eigenvalues."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.lists(st.integers(1, 4), min_size=0, max_size=2),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.integers(-150, 150),
    )
    def test_matches_the_eigenvalue_sum(self, shape, seed, exponent):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(*shape, 2, 2)) + 1j * rng.normal(size=(*shape, 2, 2))
        h = (a + np.conj(np.swapaxes(a, -1, -2))) * 10.0**exponent
        got, want = linalg.trace_norm(h), _eigenvalue_norms(h)
        assert np.shape(got) == np.shape(want)
        assert np.all(np.abs(got - want) <= 1e-14 * want)

    def test_special_matrices(self, rng):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        cases = {
            "zero": np.zeros((2, 2)),
            "degenerate": np.diag([-0.7, -0.7]),
            "rank-one": np.outer(v, v.conj()),
            "traceless": np.array([[0.3, 0.4 - 0.2j], [0.4 + 0.2j, -0.3]]),
        }
        stack = np.stack(list(cases.values())).astype(complex)
        np.testing.assert_allclose(linalg.trace_norm(stack), [0.0, 1.4, np.vdot(v, v).real,
                                                               2 * np.sqrt(0.09 + 0.2)],
                                   rtol=1e-14, atol=0)
        assert linalg.trace_norm(stack)[0] == 0.0
        for h in cases.values():
            assert abs(linalg.trace_norm(h) - _eigenvalue_norms(h)) <= 1e-14 * _eigenvalue_norms(h)

    @pytest.mark.parametrize("scale", [1e150, 1e-150, 1e300, 1e-300])
    def test_extreme_entries_neither_overflow_nor_underflow(self, rng, scale):
        # hypot(h00 - h11, 2|h01|) never squares an entry
        a = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
        h = (a + np.conj(np.swapaxes(a, -1, -2))) / 8
        got = linalg.trace_norm(h * scale)
        assert np.all(np.isfinite(got)) and np.all(got > 0)
        np.testing.assert_allclose(got / scale, _eigenvalue_norms(h), rtol=1e-14, atol=0)

    def test_single_matrix_gives_a_float(self):
        # an empty (0, 2, 2) stack is test_stack_matches_single_calls' case
        got = linalg.trace_norm(np.array([[1.0, 2j], [-2j, -1.0]]))
        assert isinstance(got, float) and got == pytest.approx(2 * np.sqrt(5), rel=1e-14)


def test_hermitian_part_copies_and_matches_the_direct_sum(rng):
    """(A + A^dagger) / 2 bit for bit, without writing into A, whatever its
    memory order; require_hermitian gives the same on a Hermitian stack."""
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    for m in (a, np.asfortranarray(a), a[::-1, ::-1]):
        kept = m.copy()
        assert np.array_equal(linalg.hermitian_part(m), (kept + kept.conj().T) / 2.0)
        assert np.array_equal(m, kept)
    h = np.stack([random_hermitian_direct(3, rng) for _ in range(4)])
    h[:, 0, 1] += 1e-12  # a defect below the tolerance, halved away
    fortran = np.asfortranarray(h)
    want = (h + np.conj(np.swapaxes(h, -1, -2))) / 2.0
    assert np.array_equal(linalg.require_hermitian(fortran), want)
    assert np.array_equal(fortran, h)


def _with_defect(defect: float) -> np.ndarray:
    """A density matrix plus 0.5j * defect in every entry, so that
    max|A - A^dagger| is exactly ``defect`` (NaN for NaN)."""
    return np.array([[0.5, 0.1], [0.1, 0.5]]) + 0.5j * defect * np.ones((2, 2))


HERMITICITY_CHECKS = {
    "trace_norm": linalg.trace_norm,
    "trace_norm stack member": lambda m: linalg.trace_norm(np.stack([_with_defect(0.0), m])),
    "validate_density_matrix": states.validate_density_matrix,
    "hermitian_eigensystem": linalg.hermitian_eigensystem,
}


@pytest.mark.parametrize("check", HERMITICITY_CHECKS)
@pytest.mark.parametrize("factor", [1.0, 2.0, np.nan], ids=["at-tol", "twice-tol", "nan"])
def test_hermiticity_tolerance_boundary(check, factor):
    """Every caller of require_hermitian accepts a defect exactly at
    HERMITICITY_TOL and rejects twice that, and NaN."""
    m = _with_defect(factor * linalg.HERMITICITY_TOL)
    defect = np.max(np.abs(m - m.conj().T))
    assert defect == factor * linalg.HERMITICITY_TOL or np.isnan(factor)
    if factor == 1.0:
        HERMITICITY_CHECKS[check](m)
        return
    where = r" \(1,\) of the stack" if check.endswith("member") else ""
    with pytest.raises(ValueError, match=f"{where} is not Hermitian: defect .* exceeds 1.0e-10"):
        HERMITICITY_CHECKS[check](m)


class TestTraceDistance:
    def test_identical_states(self, rng):
        rho = random_density_direct(4, rng)
        assert linalg.trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        assert linalg.trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_pure_vs_maximally_mixed(self):
        assert linalg.trace_distance(np.diag([1.0, 0.0]), np.eye(2) / 2) == pytest.approx(
            0.5, abs=1e-14
        )

    def test_contractive_under_partial_trace(self, rng):
        for _ in range(20):
            m1 = random_density_direct(6, rng)
            m2 = random_density_direct(6, rng)
            full = linalg.trace_distance(m1, m2)
            reduced = linalg.trace_distance(
                linalg.partial_trace(m1, 2, 3), linalg.partial_trace(m2, 2, 3)
            )
            assert reduced <= full + 1e-10

    def test_unitarily_invariant(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 8))
            r1 = random_density_direct(dim, rng)
            r2 = random_density_direct(dim, rng)
            eig = linalg.hermitian_eigensystem(random_hermitian_direct(dim, rng))
            u = linalg.unitary_at(eig, 0.73)
            assert linalg.trace_distance(
                linalg.conjugate(u, r1), linalg.conjugate(u, r2)
            ) == pytest.approx(linalg.trace_distance(r1, r2), abs=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            linalg.trace_distance(np.eye(2), np.eye(3))


class TestEigensystem:
    def test_identity(self):
        eig = linalg.hermitian_eigensystem(np.eye(3))
        np.testing.assert_allclose(eig.values, np.ones(3))

    def test_sigma_x(self):
        eig = linalg.hermitian_eigensystem(SX)
        np.testing.assert_allclose(eig.values, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_and_orthonormality(self, rng):
        a = random_hermitian_direct(8, rng)
        eig = linalg.hermitian_eigensystem(a)
        assert np.all(np.diff(eig.values) >= 0)
        residual = np.max(np.abs(eig.reconstruct() - a))
        assert residual <= 1e-9 * np.max(np.abs(a))
        gram = eig.vectors.conj().T @ eig.vectors
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-9

    def test_rejects_non_hermitian(self, rng):
        bad = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.hermitian_eigensystem(bad)


class TestUnitaryAt:
    def test_t_zero_is_identity(self, rng):
        eig = linalg.hermitian_eigensystem(random_hermitian_direct(5, rng))
        np.testing.assert_allclose(linalg.unitary_at(eig, 0.0), np.eye(5), atol=1e-12)

    def test_sigma_z_quarter_period(self):
        eig = linalg.hermitian_eigensystem(SZ)
        u = linalg.unitary_at(eig, np.pi / 2)
        np.testing.assert_allclose(u, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]),
                                   atol=1e-12)

    def test_group_property(self, rng):
        eig = linalg.hermitian_eigensystem(random_hermitian_direct(6, rng))
        for _ in range(5):
            t1, t2 = rng.uniform(0, 2, size=2)
            lhs = linalg.unitary_at(eig, t1 + t2)
            rhs = linalg.unitary_at(eig, t2) @ linalg.unitary_at(eig, t1)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_unitarity(self, rng):
        eig = linalg.hermitian_eigensystem(random_hermitian_direct(6, rng))
        u = linalg.unitary_at(eig, 1.37)
        assert np.max(np.abs(u @ u.conj().T - np.eye(6))) <= 1e-9


class TestConjugate:
    def test_identity(self, rng):
        m = random_hermitian_direct(3, rng)
        np.testing.assert_allclose(linalg.conjugate(np.eye(3), m), m)

    def test_sigma_x_flips(self):
        np.testing.assert_allclose(
            linalg.conjugate(SX, np.diag([1.0, 0.0])), np.diag([0.0, 1.0]), atol=1e-15
        )

    def test_preserves_trace_and_hermiticity(self, rng):
        eig = linalg.hermitian_eigensystem(random_hermitian_direct(5, rng))
        u = linalg.unitary_at(eig, 0.9)
        m = random_hermitian_direct(5, rng)
        out = linalg.conjugate(u, m)
        assert np.trace(out) == pytest.approx(np.trace(m), abs=1e-12)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linalg.conjugate(np.eye(2), np.eye(3))


def test_roundtrip_tensor_then_trace(rng):
    a = random_density_direct(3, rng)
    b = random_density_direct(2, rng)
    joint = linalg.tensor_product(a, b)
    np.testing.assert_allclose(linalg.partial_trace(joint, 3, 2, "system"), a, atol=1e-13)
    np.testing.assert_allclose(linalg.partial_trace(joint, 3, 2, "environment"), b, atol=1e-13)
