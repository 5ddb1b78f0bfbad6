"""Dense complex linear algebra for bipartite quantum systems.

Everything operates on plain complex numpy arrays. Bipartite spaces use a
fixed basis order: the system factor is always the first (slow) tensor
index, so an index pair (a, e) maps to the flat row a * dE + e. A product
A (x) B is passed as the pair (A, B) where a function says so. All
functions are pure; arrays passed in are never mutated.

The package's one rule for times lives here too: every time, time step and
grid a public function takes passes ``_require_times`` (finite and
nonnegative) or ``_require_grid`` (also 1-d and strictly ascending). So
does its one rule for phases: every exp(t z) is formed by ``_exp_outer``,
which raises InvariantViolation where one overflows at a finite t.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Literal

import numpy as np

# Tolerances are constants, not parameters a call may override. So are the two
# that shape the results, the classification margin ``witness.CLASS_EPS`` and
# the rise tolerance ``blp.RISE_TOL``, which summary.json records.
# require_hermitian absorbs anti-Hermitian drift up to HERMITICITY_TOL and
# rejects more, so that eigensolvers never see garbage.
HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-9
TRACE_TOL = 1e-9
EIG_RESIDUAL_TOL = 1e-9
# Largest total dimension of a state whose total operator or pure environment's
# matrix is formed densely (``BipartiteState.op`` and ``.environment()``, which
# ``decompose``, ``evolve_pair`` and ``weak_upper_bound`` read), or of a chain:
# one complex matrix of this size takes 256 MiB. The witnesses read a product
# state as its factors, so they take one of any size.
DENSE_DIM_CAP = 4096


class InvariantViolation(RuntimeError):
    """A computed value broke a property the library guarantees: a phase
    exp(t z) that overflows at a finite t, a reduced operator that is not
    Hermitian, or a point outside its two-sided bound beyond tolerance."""


def _require_integer(value, name: str) -> int:
    """``value`` as an int; a ValueError naming ``name`` unless it is one."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _require_times(times, name: str = "time") -> np.ndarray:
    """Times, or a tolerance, as a float array; a ValueError naming ``name``
    unless every entry is finite and nonnegative. A single time is checked
    as a Python float, faster than by array reductions. The message shows
    the float array, which numpy summarises when it is long."""
    ts = np.asarray(times, dtype=float)
    if ts.ndim:
        finite, negative = np.all(np.isfinite(ts)), np.any(ts < 0)
    else:
        finite, negative = math.isfinite(x := float(ts)), x < 0
    if not finite:
        raise ValueError(f"{name} must be finite, got {ts}")
    if negative:
        raise ValueError(f"{name} must be nonnegative, got {ts}")
    return ts


def _require_grid(grid, name: str) -> np.ndarray:
    """A time grid as a 1-d float array of times, strictly ascending; empty
    is allowed. A ValueError naming ``name`` otherwise."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array, got shape {g.shape}")
    _require_times(g, name)
    if not (g[1:] > g[:-1]).all():
        raise ValueError(f"{name} must be strictly ascending")
    return g


def _require_surface_grid(grid, name: str) -> np.ndarray:
    """A time grid of a (t, t') surface: ``_require_grid``, and nonempty."""
    g = _require_grid(grid, name)
    if not g.size:
        raise ValueError(f"{name} must be a nonempty 1-d array")
    return g


def _require_step_sum(t, tprime) -> None:
    """A ValueError unless the largest of the checked times ``t`` plus the
    largest of ``tprime`` is finite, and with it every step time t + t'; on
    ascending grids that is the last t plus the last t'. The sum is of Python
    floats, so an overflow gives inf, with no warning."""
    _require_times(np.max(t, initial=0.0).item() + np.max(tprime, initial=0.0).item(), "t + t'")


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
    h = np.conjugate(m.T, order="C")  # a new contiguous adjoint, summed and halved in place
    h += m
    h /= 2.0
    return h


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    """(A + A^dagger) / 2 of a square matrix, or of each matrix of a stack of
    shape ``(..., n, n)``: the one check that an input is Hermitian enough
    to eigensolve.

    A defect max|A - A^dagger| above HERMITICITY_TOL, or NaN, is rejected
    with a ValueError that names the failing member of a stack. One maximum,
    which propagates NaN, checks the whole stack; only a rejected stack is
    reduced member by member."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    adjoint = np.conjugate(np.swapaxes(m, -1, -2), order="C")  # new and contiguous
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which the check rejects
        gap = np.abs(m - adjoint)
    if not gap.max(initial=0.0) <= HERMITICITY_TOL:
        defect = gap.max(axis=(-2, -1), initial=0.0)
        bad = np.flatnonzero(~(defect <= HERMITICITY_TOL))
        index = tuple(int(i) for i in np.unravel_index(bad[0], defect.shape))
        where = f" {index} of the stack" if index else ""
        raise ValueError(
            f"{name}{where} is not Hermitian: defect {float(defect[index]):.3e} "
            f"exceeds {HERMITICITY_TOL:.1e}"
        )
    adjoint += m
    adjoint /= 2.0
    return adjoint


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


def magnitude_maxima(m) -> np.ndarray:
    """Largest entry magnitude in row i or column i of ``m``, for each index i,
    or of each matrix of a stack; its maximum over i is the largest entry.

    A product passed as its factor pair, or a pair of stacks, is read from the
    factors, whose row and whose column maxima multiply to the product's. A
    1-d ``m`` is a pure state's amplitudes psi and stands for psi psi^dagger,
    whose row and column maxima are both |psi| max|psi|; against such an
    environment the product is formed once, from the larger of each system
    index's row and column maxima."""
    if isinstance(m, tuple):
        (s_rows, s_cols), (e_rows, e_cols) = map(_row_column_maxima, m)
        if e_rows is e_cols:  # max(a e, b e) = max(a, b) e for e >= 0, exactly
            p = np.maximum(s_rows, s_cols)[..., :, None] * e_rows[..., None, :]
        else:
            p = np.maximum(s_rows[..., :, None] * e_rows[..., None, :],
                           s_cols[..., :, None] * e_cols[..., None, :])
        return p.reshape(p.shape[:-2] + (-1,))
    return np.maximum(*_row_column_maxima(m))


def _row_column_maxima(m) -> tuple[np.ndarray, np.ndarray]:
    """Largest entry magnitude of each row and of each column of ``m``; for
    amplitudes psi, one array |psi| max|psi| standing for both."""
    mag = np.abs(m)
    if mag.ndim == 1:
        return (mag * mag.max(),) * 2
    return mag.max(-1), mag.max(-2)


def _nonzero_mask(m: np.ndarray) -> np.ndarray:
    """Mask of the indices i whose row i or column i is not exactly zero in
    ``m``, or in some matrix of a stack of shape ``(..., n, n)``."""
    keep = m.any(axis=-1) | m.any(axis=-2)
    return keep if keep.ndim == 1 else keep.reshape(-1, m.shape[-1]).any(axis=0)


def nonzero_block(m: np.ndarray) -> np.ndarray:
    """The block of indices i whose row i or column i is not exactly zero.

    For a Hermitian matrix the dropped part only adds zero eigenvalues.
    When every index is kept the input itself is returned, not a copy.
    """
    keep = _nonzero_mask(m)
    return m if keep.all() else m[np.ix_(keep, keep)]


# Rows: Re and Im of h00, h01, h10 and h11; columns: tr H, z, x and y. On a
# finite H every product is exact, so tr H and z are h00 +- h11 rounded once.
_BLOCH = np.zeros((8, 4))
_BLOCH[[0, 6, 0, 6, 4, 5], [0, 0, 1, 1, 2, 3]] = 1.0, 1.0, 1.0, -1.0, 2.0, 2.0
_BLOCH.flags.writeable = False


def _bloch_coordinates(h: np.ndarray) -> np.ndarray:
    """Real (tr H, z, x, y) of a finite Hermitian 2 x 2 H, or of each of a
    stack, on a new last axis: H = (tr H + z sigma_z + x sigma_x + y sigma_y)/2."""
    return h.reshape(h.shape[:-2] + (4,)).view(float) @ _BLOCH


def _qubit_norm(bloch: np.ndarray) -> np.ndarray:
    """Trace norm max(|tr H|, r), r = hypot(z, |x + iy|), of H from its Bloch
    coordinates, on a C-contiguous last axis. |x + iy| is numpy's complex abs
    of a view of (x, y), so it equals 2|h01| exactly; np.hypot may round apart."""
    r = np.hypot(bloch[..., 1], np.abs(bloch[..., 2:].view(complex)[..., 0]))
    return np.maximum(np.abs(bloch[..., 0]), r)


def trace_norm(a):
    """Sum of absolute eigenvalues of the Hermitian part H of ``a``, which
    passes ``require_hermitian`` first. A 2 x 2 H is normed in closed form from
    its Bloch coordinates; a larger one is eigensolved. A single matrix gives a
    float; its check and norm see only its rows and columns that are not exactly
    zero, as a dropped index, zero in row and column, adds no defect and a zero
    eigenvalue. A stack of shape ``(..., n, n)`` gives an array of shape
    ``(...)``, checked per matrix.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if m.ndim == 2:
        m = nonzero_block(m)
    sym = require_hermitian(m)
    if sym.shape[-1] == 2:
        norms = _qubit_norm(_bloch_coordinates(sym))
    elif sym.size:
        norms = np.abs(np.linalg.eigvalsh(sym)).sum(axis=-1)
    else:
        norms = np.zeros(sym.shape[:-2])
    return norms if m.ndim > 2 else float(norms)


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


def hermitian_eigensystem(a) -> HermitianEigenSystem:
    """Eigendecompose a Hermitian matrix, verifying the reconstruction.

    Raises ValueError if the solver does not converge or if the
    reconstruction residual exceeds EIG_RESIDUAL_TOL * max|A|.
    """
    sym = require_hermitian(as_complex_matrix(a))
    try:
        values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigensolver failed on {sym.shape[0]}-dim matrix: {exc}") from exc
    eig = HermitianEigenSystem(values=values, vectors=vectors)
    residual = float(np.max(np.abs(eig.reconstruct() - sym)))
    scale = max(float(np.max(np.abs(sym))), np.finfo(float).tiny)
    if residual > EIG_RESIDUAL_TOL * scale:
        raise ValueError(
            f"eigendecomposition residual {residual:.3e} exceeds "
            f"{EIG_RESIDUAL_TOL:.1e} * max|A| = {EIG_RESIDUAL_TOL * scale:.3e}"
        )
    return eig


def _exp_outer(times: np.ndarray, exponents: np.ndarray, rate: float) -> np.ndarray:
    """exp(t z) for every t of ``times``, on the leading axes, and z of
    ``exponents``, where each part of each product t z is at most |t| ``rate``
    in size and its real part is not positive. Every phase of the package is
    formed here.

    While the sum of all |t|, times ``rate``, is a finite float, no product
    t z can overflow; that test costs Python scalars only. Otherwise the same
    products are formed with numpy's overflow and invalid warnings silenced,
    and a phase that is not finite raises InvariantViolation naming the
    largest |t|, with or without warnings turned into errors.
    """
    if math.isfinite(rate * sum(map(abs, times.ravel().tolist()))):
        return np.exp(np.multiply.outer(times, exponents))
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(np.multiply.outer(times, exponents))
    if not np.isfinite(phases).all():  # |t z| grows with |t|: the largest |t| overflows
        raise InvariantViolation(f"phase exp(t z) overflows at t = {np.abs(times).max():.12g}")
    return phases


def unitary_at(eig: HermitianEigenSystem, t: float) -> np.ndarray:
    """exp(-i H t) from the eigensystem of H (hbar = 1). A time that is not
    finite and nonnegative is a ValueError (``_require_times``); a finite t
    where a phase w t overflows is an InvariantViolation (``_exp_outer``)."""
    rate = float(np.abs(eig.values).max(initial=0.0))
    phases = _exp_outer(_require_times(float(t)), -1j * eig.values, rate)
    return (eig.vectors * phases) @ eig.vectors.conj().T


def conjugate(u, m) -> np.ndarray:
    """U M U^dagger."""
    u = as_complex_matrix(u)
    m = as_complex_matrix(m)
    if u.shape[1] != m.shape[0] or m.shape[1] != u.shape[1]:
        raise ValueError(f"cannot conjugate shape {m.shape} by shape {u.shape}")
    return u @ m @ u.conj().T


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian random Hermitian matrix, for tests and self-checks."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0
