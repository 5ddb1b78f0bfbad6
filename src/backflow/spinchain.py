"""Probe qubit exchange-coupled to a finite XX chain in a transverse field.

Site 0 is the open system; sites 1..N form the environment. Nearest
neighbours couple through sigma_x sigma_x + sigma_y sigma_y exchange (J0
for the probe bond, J inside the chain) and the transverse field acts on
the environment sites only. Total sigma_z magnetization is conserved.
Units: hbar = 1, times are naturally reported as J*t; |0> is the +1
eigenstate of sigma_z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import BipartiteState, plus_minus_pair
from .witness import EigenPropagator, ScenarioPair

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

DIM_CAP = 4096


@dataclass(frozen=True)
class SpinChainSpec:
    """Chain geometry and couplings: N environment sites, J, J0 and field B."""

    sites: int
    exchange: float = 1.0
    probe_exchange: float = 1.0
    field: float = 0.0

    def __post_init__(self):
        if self.sites < 1:
            raise ValueError(f"need at least one environment site, got {self.sites}")
        if self.exchange <= 0:
            raise ValueError(f"chain exchange must be positive, got {self.exchange}")
        if self.dim > DIM_CAP:
            raise ValueError(
                f"total dimension 2^{self.sites + 1} = {self.dim} exceeds cap {DIM_CAP}"
            )

    @property
    def dim(self) -> int:
        return 2 ** (self.sites + 1)


def pauli_site(axis: str, site: int, total: int) -> np.ndarray:
    """Pauli operator on one site of a chain, identity elsewhere.

    Site 0 occupies the slowest tensor index, matching the bipartite
    convention with the probe as the system factor.
    """
    if axis not in PAULI:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    if not 0 <= site < total:
        raise ValueError(f"site {site} out of range for {total} sites")
    left = np.eye(2**site, dtype=complex)
    right = np.eye(2 ** (total - site - 1), dtype=complex)
    return np.kron(np.kron(left, PAULI[axis]), right)


def _xx_bond(site: int, total: int) -> np.ndarray:
    """sigma_x sigma_x + sigma_y sigma_y on the adjacent pair (site, site+1)."""
    core = np.kron(PAULI["x"], PAULI["x"]) + np.kron(PAULI["y"], PAULI["y"])
    left = np.eye(2**site, dtype=complex)
    right = np.eye(2 ** (total - site - 2), dtype=complex)
    return np.kron(np.kron(left, core), right)


def build_hamiltonian(spec: SpinChainSpec) -> np.ndarray:
    """Dense Hamiltonian of the probe-plus-chain system.

    -2*J0 on the probe bond, -2*J on each chain bond, -2*B sigma_z on each
    environment site (the probe feels no field).
    """
    total = spec.sites + 1
    h = -2.0 * spec.probe_exchange * _xx_bond(0, total)
    for n in range(1, spec.sites):
        h = h - 2.0 * spec.exchange * _xx_bond(n, total)
    if spec.field != 0.0:
        for n in range(1, spec.sites + 1):
            h = h - 2.0 * spec.field * pauli_site("z", n, total)
    return h


def scenario(
    spec: SpinChainSpec, pair: tuple[np.ndarray, np.ndarray] | None = None
) -> ScenarioPair:
    """Initial pair (default: the +/- probe states) against a polarized chain.

    Both branches start as products with every environment spin in |0>, so
    all correlations seen later are built by the interaction. The
    propagator holds one dense eigensystem of the Hamiltonian, shared
    across the whole time grid.
    """
    if pair is None:
        pair = plus_minus_pair()
    de = 2**spec.sites
    env = np.zeros((de, de), dtype=complex)
    env[0, 0] = 1.0
    state1 = BipartiteState(linalg.tensor_product(pair[0], env), 2, de)
    state2 = BipartiteState(linalg.tensor_product(pair[1], env), 2, de)
    eig = linalg.hermitian_eigensystem(build_hamiltonian(spec))
    return ScenarioPair(state1=state1, state2=state2, propagator=EigenPropagator(eig))
