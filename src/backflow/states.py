"""Density operators and the correlation split of bipartite states.

A joint state splits as rho_SE = rho_S (x) rho_E + chi, where chi is
traceless over each factor and carries all correlations between the two.
The qubit basis is fixed globally as H -> |0>, V -> |1>, and |0> is the
+1 eigenstate of sigma_z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import HERMITICITY_TOL, PSD_TOL, TRACE_TOL


def validate_density_matrix(rho, name: str = "state") -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the input array.

    Positive means that the Hermitian part H has no eigenvalue below -PSD_TOL.
    A 2 x 2 matrix is checked from its four entries, read once as Python
    scalars, with the smallest eigenvalue (tr H - r)/2, r = hypot(h00 - h11,
    2|h01|). A larger one is read past the trace on its rows and columns that
    are not exactly zero, which add no Hermiticity defect and zero eigenvalues
    (NaN and inf count as nonzero and fail ``linalg.require_hermitian``); it
    passes when H plus PSD_TOL on the diagonal has a Cholesky factor, and only
    a rejected one is eigensolved, to report its negative eigenvalue.
    """
    m = linalg.as_complex_matrix(rho)
    _checked_block(m, name)
    return m


def _checked_block(m: np.ndarray, name: str) -> tuple[np.ndarray, float]:
    """The checks of ``validate_density_matrix`` on a complex matrix ``m``;
    returns the Hermitian part H of its nonzero block, as it was checked,
    and the trace of H."""
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if m.shape == (2, 2):
        return _checked_qubit(m, name)
    sym = linalg.require_hermitian(linalg.nonzero_block(m), name)
    tr = complex(np.trace(m))
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValueError(f"{name} has trace {tr:.12g}, expected 1")
    diagonal = sym.diagonal().copy()
    sym.flat[:: len(sym) + 1] += PSD_TOL
    try:
        np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(sym)[0]) - PSD_TOL
        raise ValueError(f"{name} has negative eigenvalue {smallest:.3e}") from None
    sym.flat[:: len(sym) + 1] = diagonal  # H again, exactly
    return sym, tr.real


def _checked_qubit(m: np.ndarray, name: str) -> tuple[np.ndarray, float]:
    """``_checked_block`` on a 2 x 2 ``m`` in Python scalars, with the general
    path's tolerances and messages; H equals (m + m^dagger)/2 bit for bit."""
    (a, b), (c, d) = m.tolist()
    gaps = (abs(a - a.conjugate()), abs(b - c.conjugate()), abs(d - d.conjugate()))
    if not (gaps[0] <= HERMITICITY_TOL and gaps[1] <= HERMITICITY_TOL
            and gaps[2] <= HERMITICITY_TOL):  # NaN fails too
        defect = float(np.max(gaps))  # NaN wherever it sits; max() depends on the order
        raise ValueError(f"{name} is not Hermitian: defect {defect:.3e} "
                         f"exceeds {HERMITICITY_TOL:.1e}")
    tr = a + d
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValueError(f"{name} has trace {tr:.12g}, expected 1")
    h00, h11 = a.real, d.real
    h01 = complex((b.real + c.real) / 2, (b.imag - c.imag) / 2)
    h10 = complex((c.real + b.real) / 2, (c.imag - b.imag) / 2)
    smallest = (h00 + h11 - math.hypot(h00 - h11, 2 * abs(h01))) / 2
    if not smallest >= -PSD_TOL:
        raise ValueError(f"{name} has negative eigenvalue {smallest:.3e}")
    return np.array([[h00, h01], [h10, h11]], dtype=complex), h00 + h11


def _hermitian_factor(factor, name: str) -> tuple[np.ndarray, float]:
    """A checked density operator as its Hermitian part, read-only: the one
    the check formed, with the zero rows and columns it dropped put back;
    and the trace of that part, as checked."""
    m = linalg.as_complex_matrix(factor)
    sym, tr = _checked_block(m, name)
    if sym.shape != m.shape:
        keep = linalg._nonzero_mask(m)
        sym, block = np.zeros_like(m), sym
        sym[np.ix_(keep, keep)] = block
    sym.flags.writeable = False
    return sym, tr


class BipartiteState:
    """A total density operator tagged with its factor dimensions.

    A product state keeps its two validated factors as ``factors``, the
    environment as a matrix or as a pure state's amplitude vector, and forms
    ``op`` only on first access; for any other state ``factors`` is None.
    Above ``linalg.DENSE_DIM_CAP`` total dimensions a product state works as
    its factors only: ``op`` and a pure environment's matrix raise ValueError.
    """

    def __init__(self, op, ds: int, de: int):
        ds, de = linalg._require_integer(ds, "ds"), linalg._require_integer(de, "de")
        if ds < 1 or de < 1:
            raise ValueError(f"factor dimensions must be positive, got ({ds}, {de})")
        m = linalg.as_complex_matrix(op)
        if m.shape != (ds * de, ds * de):
            raise ValueError(f"operator shape {m.shape} does not match factors ({ds}, {de})")
        validate_density_matrix(m, name="bipartite state")
        self._op, self.ds, self.de, self.factors = m, ds, de, None

    @classmethod
    def product(cls, system, environment) -> BipartiteState:
        """The product state system (x) environment: the one-state case of
        ``products``."""
        return cls.products([system], environment)[0]

    @classmethod
    def products(cls, systems, environment) -> list[BipartiteState]:
        """One product state s (x) environment per system factor s, each
        validated by its factors, all sharing one environment factor.

        Each system factor is checked as a density operator and kept,
        read-only, as its Hermitian part. The environment is checked once,
        however many states share it: a 2-d one like a system factor, a 1-d
        one, a pure state's amplitudes psi standing for psi psi^dagger, for
        finite entries and unit norm in O(de), and kept read-only as given.
        A Kronecker product of Hermitian matrices is Hermitian, and its
        eigenvalues are the products of the factors' eigenvalues, so it is
        positive when both factors are; only its trace, the product of the
        two traces, is checked again. No (ds*de)-dimensional operator is
        formed or checked.
        """
        env = np.array(environment, dtype=complex)
        if env.ndim == 2:
            env, env_trace = _hermitian_factor(env, "environment factor")
        elif env.ndim == 1:
            env_trace = complex(np.vdot(env, env))  # later products stay in Python scalars
        else:
            raise ValueError(f"environment factor must be 1-d or 2-d, got shape {env.shape}")
        if not abs(env_trace - 1.0) <= TRACE_TOL:  # NaN and inf fail too
            raise ValueError(f"environment factor has trace {env_trace:.12g}, expected 1")
        env.flags.writeable = False
        out = []
        for system in systems:
            factor, factor_trace = _hermitian_factor(system, "system factor")
            tr = factor_trace * env_trace
            if not abs(tr - 1.0) <= TRACE_TOL:
                raise ValueError(f"product state has trace {tr:.12g}, expected 1")
            state = object.__new__(cls)
            state._op, state.factors = None, (factor, env)
            state.ds, state.de = len(factor), len(env)
            out.append(state)
        return out

    @property
    def op(self) -> np.ndarray:
        if self._op is None:
            self._require_dense("total operator")
            self._op = linalg.tensor_product(self.factors[0], self.environment())
        return self._op

    def _require_dense(self, what: str) -> None:
        """A ValueError naming ``linalg.DENSE_DIM_CAP`` before a product state
        above it forms ``what`` as a dense array; it works as its factors."""
        if self.dim > linalg.DENSE_DIM_CAP:
            raise ValueError(f"cannot form the {what} of a {self.ds} x {self.de} product state: "
                             f"dimension {self.dim} exceeds DENSE_DIM_CAP = {linalg.DENSE_DIM_CAP}")

    @property
    def dim(self) -> int:
        return self.ds * self.de

    def system(self) -> np.ndarray:
        if self.factors:
            return self.factors[0]
        return linalg.partial_trace(self.op, self.ds, self.de, "system")

    def environment(self) -> np.ndarray:
        if self.factors:
            env = self.factors[1]
            if env.ndim == 2:
                return env
            self._require_dense("environment matrix")
            return np.outer(env, env.conj())
        return linalg.partial_trace(self.op, self.ds, self.de, "environment")


def _shared_environment(state1: BipartiteState, state2: BipartiteState) -> np.ndarray | None:
    """The environment factor that two product states share, as one array or
    equal arrays; None otherwise. Identity is tested first, so the states of
    one ``products`` call compare no arrays."""
    e1, e2 = state1.factors and state1.factors[1], state2.factors and state2.factors[1]
    shared = e1 is not None and e2 is not None and (e1 is e2 or np.array_equal(e1, e2))
    return e1 if shared else None


@dataclass(frozen=True, eq=False)
class CorrelationDecomposition:
    """Marginals plus the traceless correlation remainder of a joint state.

    system (x) environment + correlation reconstructs the input, and the
    correlation term has vanishing partial trace over either factor.
    """

    system: np.ndarray
    environment: np.ndarray
    correlation: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return linalg.tensor_product(self.system, self.environment) + self.correlation

    def correlation_norm(self) -> float:
        """Trace norm of the correlation term; at most 2."""
        return linalg.trace_norm(self.correlation)


def correlation_split(op: np.ndarray, ds: int, de: int) -> CorrelationDecomposition:
    """Split a (ds*de)-dimensional operator into product-of-marginals plus
    correlations, without validating it as a density operator."""
    rho_s = linalg.partial_trace(op, ds, de, "system")
    rho_e = linalg.partial_trace(op, ds, de, "environment")
    # Conjugation chains leave ~1e-16 anti-Hermitian dust; symmetrizing here
    # keeps the advertised invariants literally assertable.
    chi = linalg.hermitian_part(op - linalg.tensor_product(rho_s, rho_e))
    return CorrelationDecomposition(system=rho_s, environment=rho_e, correlation=chi)


def decompose(state: BipartiteState) -> CorrelationDecomposition:
    """Split a joint state into product-of-marginals plus correlations."""
    if not isinstance(state, BipartiteState):
        raise TypeError("decompose expects a BipartiteState")
    return correlation_split(state.op, state.ds, state.de)


def pure_qubit(theta: float, phi: float) -> np.ndarray:
    """Projector onto cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.

    Built from ``math`` trig on Python floats, entry by entry as the outer
    product of the amplitudes (c, x + iy), x + iy = e^{i phi} s, with its
    conjugate: c^2, c (x - iy), (x + iy) c and x^2 + y^2. A non-finite angle
    raises ValueError naming it.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    x, y = math.cos(phi) * s, math.sin(phi) * s
    return np.array([[c * c, complex(c * x, -(c * y))], [complex(x * c, y * c), x * x + y * y]])


def plus_minus_pair() -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto (|0> +- |1>)/sqrt(2); their trace distance is 1."""
    return pure_qubit(np.pi / 2.0, 0.0), pure_qubit(np.pi / 2.0, np.pi)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (Wishart construction)."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real
