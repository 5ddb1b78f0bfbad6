"""Density operators and the correlation split of bipartite states.

A joint state splits as rho_SE = rho_S (x) rho_E + chi, where chi is
traceless over each factor and carries all correlations between the two.
The qubit basis is fixed globally as H -> |0>, V -> |1>, and |0> is the
+1 eigenstate of sigma_z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import PSD_TOL, TRACE_TOL


def validate_density_matrix(rho, name: str = "state") -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the input array.

    Only the nonzero rows and columns are read past the trace: a dropped
    index has a zero row and column, so it adds no Hermiticity defect and a
    zero eigenvalue, while NaN and inf count as nonzero and fail
    ``linalg.require_hermitian``. Positive means the Hermitian part of that
    block plus PSD_TOL on the diagonal has a Cholesky factor; only a
    rejected state is eigensolved, to report its negative eigenvalue.
    """
    m = linalg.as_complex_matrix(rho)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    shifted = linalg.require_hermitian(linalg.nonzero_block(m), name)
    tr = complex(np.trace(m))
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValueError(f"{name} has trace {tr:.12g}, expected 1")
    shifted.flat[:: len(shifted) + 1] += PSD_TOL
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(shifted)[0]) - PSD_TOL
        raise ValueError(f"{name} has negative eigenvalue {smallest:.3e}") from None
    return m


class BipartiteState:
    """A total density operator tagged with its factor dimensions.

    A product state keeps its two validated factors as ``factors`` and forms
    ``op`` only on first access; for any other state ``factors`` is None.
    """

    def __init__(self, op, ds: int, de: int):
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

        Each factor is checked as a density operator and kept, read-only, as
        its Hermitian part; the environment is checked and symmetrized once,
        however many states share it. A Kronecker product of Hermitian
        matrices is Hermitian, and its eigenvalues are the products of the
        factors' eigenvalues, so it is positive when both factors are; only
        its trace, the product of the two traces, is checked again. No
        (ds*de)-dimensional operator is formed or checked.
        """
        env = linalg.hermitian_part(validate_density_matrix(environment, "environment factor"))
        env.flags.writeable = False
        out = []
        for system in systems:
            factor = linalg.hermitian_part(validate_density_matrix(system, "system factor"))
            factor.flags.writeable = False
            tr = complex(np.trace(factor) * np.trace(env))
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
            self._op = linalg.tensor_product(*self.factors)
        return self._op

    @property
    def dim(self) -> int:
        return self.ds * self.de

    def system(self) -> np.ndarray:
        if self.factors:
            return self.factors[0]
        return linalg.partial_trace(self.op, self.ds, self.de, "system")

    def environment(self) -> np.ndarray:
        if self.factors:
            return self.factors[1]
        return linalg.partial_trace(self.op, self.ds, self.de, "environment")


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
    """Projector onto cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    amp = np.array(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], dtype=complex
    )
    return np.outer(amp, amp.conj())


def plus_minus_pair() -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto (|0> +- |1>)/sqrt(2); their trace distance is 1."""
    return pure_qubit(np.pi / 2.0, 0.0), pure_qubit(np.pi / 2.0, np.pi)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (Wishart construction)."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real
