"""Dense complex linear algebra for bipartite quantum systems.

Everything operates on plain complex numpy arrays. Bipartite spaces use a
fixed basis order: the system factor is always the first (slow) tensor
index, so an index pair (a, e) maps to the flat row a * dE + e. All
functions are pure; arrays passed in are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

# Anti-Hermitian drift below HERMITICITY_TOL is absorbed silently; above it
# the input is rejected so that eigensolvers never see garbage.
HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-9
TRACE_TOL = 1e-9
EIG_RESIDUAL_TOL = 1e-9
# Largest total dimension a model may store densely: one complex matrix of
# this size takes 256 MiB, and a point holds several.
DENSE_DIM_CAP = 4096


def as_complex_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got array of shape {m.shape}")
    return m


def hermitian_part(a) -> np.ndarray:
    """(A + A^dagger) / 2."""
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    return (m + m.conj().T) / 2.0


def hermiticity_defect(a) -> float:
    """Largest entrywise magnitude of A - A^dagger."""
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m - m.conj().T)))


def require_hermitian(a, tol: float = HERMITICITY_TOL, name: str = "matrix") -> np.ndarray:
    """Return the Hermitian part of ``a``, rejecting defects above ``tol``."""
    defect = hermiticity_defect(a)
    if defect > tol:
        raise ValueError(f"{name} is not Hermitian: defect {defect:.3e} exceeds {tol:.1e}")
    return hermitian_part(a)


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the first factor on the slow index."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def partial_trace(
    m, ds: int, de: int, keep: Literal["system", "environment"] = "system"
) -> np.ndarray:
    """Trace out one factor of a (ds*de) x (ds*de) matrix.

    ``keep="system"`` sums over the environment indices and returns a
    ds x ds matrix; ``keep="environment"`` the converse. The trace of the
    input is preserved exactly up to floating-point summation.
    """
    m = as_complex_matrix(m)
    if ds < 1 or de < 1:
        raise ValueError(f"factor dimensions must be positive, got ({ds}, {de})")
    if m.shape != (ds * de, ds * de):
        raise ValueError(
            f"matrix shape {m.shape} does not match factor dimensions ({ds}, {de})"
        )
    r = m.reshape(ds, de, ds, de)
    if keep == "system":
        return np.einsum("aebe->ab", r)
    if keep == "environment":
        return np.einsum("aeaf->ef", r)
    raise ValueError(f"keep must be 'system' or 'environment', got {keep!r}")


def trace_norm(a, tol: float = HERMITICITY_TOL) -> float:
    """Sum of absolute eigenvalues of the Hermitian part of ``a``.

    The input is symmetrized before eigensolving; an anti-Hermitian defect
    above ``tol`` is rejected rather than silently absorbed.
    """
    sym = require_hermitian(a, tol)
    if sym.size == 0:
        return 0.0
    return float(np.sum(np.abs(np.linalg.eigvalsh(sym))))


def trace_distance(r1, r2) -> float:
    """Half the trace norm of r1 - r2; in [0, 1] for density operators."""
    m1 = as_complex_matrix(r1)
    m2 = as_complex_matrix(r2)
    if m1.shape != m2.shape:
        raise ValueError(f"shape mismatch: {m1.shape} vs {m2.shape}")
    return 0.5 * trace_norm(m1 - m2)


@dataclass(frozen=True, eq=False)
class HermitianEigenSystem:
    """Eigendecomposition A = V diag(values) V^dagger, values ascending."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.conj().T


def hermitian_eigensystem(a, tol: float = HERMITICITY_TOL) -> HermitianEigenSystem:
    """Eigendecompose a Hermitian matrix, verifying the reconstruction.

    Raises ValueError if the solver does not converge or if the
    reconstruction residual exceeds EIG_RESIDUAL_TOL * max|A|.
    """
    sym = require_hermitian(a, tol)
    try:
        values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigensolver failed on {sym.shape[0]}-dim matrix: {exc}") from exc
    residual = float(np.max(np.abs((vectors * values) @ vectors.conj().T - sym)))
    scale = max(float(np.max(np.abs(sym))), np.finfo(float).tiny)
    if residual > EIG_RESIDUAL_TOL * scale:
        raise ValueError(
            f"eigendecomposition residual {residual:.3e} exceeds "
            f"{EIG_RESIDUAL_TOL:.1e} * max|A| = {EIG_RESIDUAL_TOL * scale:.3e}"
        )
    return HermitianEigenSystem(values=values, vectors=vectors)


def unitary_at(eig: HermitianEigenSystem, t: float) -> np.ndarray:
    """exp(-i H t) from the eigensystem of H (hbar = 1)."""
    phases = np.exp(-1j * eig.values * float(t))
    return (eig.vectors * phases) @ eig.vectors.conj().T


def conjugate(u, m) -> np.ndarray:
    """U M U^dagger."""
    u = as_complex_matrix(u)
    m = as_complex_matrix(m)
    if u.shape[1] != m.shape[0] or m.shape[1] != u.shape[1]:
        raise ValueError(f"cannot conjugate shape {m.shape} by shape {u.shape}")
    return u @ m @ u.conj().T


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Gaussian random Hermitian matrix, for tests and self-checks."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2.0
