"""Probe qubit exchange-coupled to a finite XX chain in a transverse field.

Site 0 is the open system; sites 1..N form the environment. Nearest
neighbours couple through sigma_x sigma_x + sigma_y sigma_y exchange (J0
for the probe bond, J inside the chain) and the transverse field acts on
the environment sites only. Total sigma_z magnetization is conserved.
Units: hbar = 1, times are naturally reported as J*t; |0> is the +1
eigenstate of sigma_z.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import BipartiteState, plus_minus_pair
from .witness import EigenPropagator, InvariantViolation, ScenarioPair, _positions

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class SpinChainSpec:
    """Chain geometry and couplings: N environment sites, J, J0 and field B."""

    sites: int
    exchange: float = 1.0
    probe_exchange: float = 1.0
    field: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "sites", linalg._require_integer(self.sites, "sites"))
        if not self.sites >= 1:
            raise ValueError(f"need at least one environment site, got {self.sites}")
        cap = linalg.DENSE_DIM_CAP
        # compares exponents, so a huge site count never builds 2^(sites + 1)
        if self.sites + 1 >= cap.bit_length():
            raise ValueError(f"total dimension 2^{self.sites + 1} exceeds cap {cap}")
        if not self.exchange > 0:
            raise ValueError(f"chain exchange must be positive, got {self.exchange}")
        # H's Gershgorin radius on one excitation; J0 first, as max keeps it against a NaN
        radius = 8 * max(abs(self.probe_exchange), self.exchange) + 2 * self.sites * abs(self.field)
        if not math.isfinite(radius):
            raise ValueError(f"couplings (J, J0, B) = ({self.exchange}, {self.probe_exchange}, "
                             f"{self.field}) give H a bound {radius} that is not finite")

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


def _occupations(index, width: int) -> np.ndarray:
    """Bit table: [i, n] is 1 when site n of basis state index[i] is excited;
    site 0 is the top of ``width`` bits."""
    return (np.asarray(index)[:, None] >> np.arange(width)[::-1]) & 1


def hamiltonian_block(spec: SpinChainSpec, basis) -> np.ndarray:
    """H restricted to the basis states ``basis``, rows and columns in that order.

    -2*J0 on the probe bond, -2*J on each chain bond, -2*B sigma_z on each
    environment site (the probe feels no field). Written from the hopping
    rule: sigma_x sigma_x + sigma_y sigma_y links the basis states whose
    bits n and n+1 differ, with amplitude 2, by flipping both bits. A hop
    from a listed state to an unlisted one raises InvariantViolation: the
    block would not be closed under H, and its evolution would lose weight.
    A basis that is not a 1-d array of distinct integer indices below the
    dimension raises ValueError.
    """
    total, basis = spec.sites + 1, np.asarray(basis)
    position = _positions(basis, spec.dim, "basis")
    bits = _occupations(basis, total)
    h = np.zeros((basis.size, basis.size), dtype=complex)
    for n in range(spec.sites):
        amplitude = -4.0 * (spec.exchange if n else spec.probe_exchange)
        if not amplitude:
            continue
        hop = np.flatnonzero(bits[:, n] != bits[:, n + 1])
        partner = position[basis[hop] ^ (3 << (total - 2 - n))]
        if np.any(partner < 0):
            raise InvariantViolation(f"bond {n} hops out of the {basis.size}-state block")
        h[hop, partner] = amplitude
    zeeman = (-2.0 * spec.field * (1 - 2 * bits[:, n]) for n in range(1, total))
    h[np.diag_indices(basis.size)] = sum(zeeman)
    return h


def build_hamiltonian(spec: SpinChainSpec) -> np.ndarray:
    """Dense Hamiltonian of the probe-plus-chain system: the full-space case
    of ``hamiltonian_block``."""
    return hamiltonian_block(spec, np.arange(spec.dim))


def excitations(count: int) -> np.ndarray:
    """Number of excited spins (|1> factors) in each of ``count`` basis states."""
    return _occupations(np.arange(count), max(count - 1, 0).bit_length()).sum(axis=1)


def scenario(
    spec: SpinChainSpec, pair: tuple[np.ndarray, np.ndarray] | None = None
) -> ScenarioPair:
    """Initial pair (default: the +/- probe states) against a polarized chain.

    Both branches start as products with every environment spin in |0>, so
    all correlations seen later are built by the interaction. The chain
    conserves the number of excitations, and the propagator works on the
    states of at most two excitations (46 of 512 dimensions on 8 sites),
    with one eigensystem of H per charge shared across the whole time grid.
    That block of H is written straight from the hopping rule, and the
    states stay factor pairs, so no total operator is formed.

    The environment is passed as its amplitude vector e_0, one read-only
    array that both states share; a call pays for its two system factors
    and one O(2^N) build and norm check of e_0. The propagator depends on
    the chain alone, so scenarios on equal specs share one read-only object.
    """
    if pair is None:
        pair = plus_minus_pair()
    polarized = np.zeros(2**spec.sites, dtype=complex)
    polarized[0] = 1.0
    state1, state2 = BipartiteState.products(pair, polarized)
    return ScenarioPair(state1=state1, state2=state2, propagator=_block_propagator(spec))


@functools.lru_cache(maxsize=8)
def _block_propagator(spec: SpinChainSpec) -> EigenPropagator:
    """Propagator of the chain on its states of at most two excitations.

    The polarized environment carries no excitation and a probe state adds
    at most one, so the states stay in charges 0 and 1; a row operator
    Delta_S (x) rho_E(t) pairs an environment marginal of at most one
    excitation with a probe operator that adds at most one more. Whatever
    falls outside is rejected when a propagator call gathers it, and
    ``hamiltonian_block`` checks that H hops nowhere out of these states.
    The support lists the charges in order, and each charge is eigensolved
    on its own (1 + 9 + 36 states on 8 sites), each with the residual check
    of ``hermitian_eigensystem``. So every eigenvector is exactly zero
    outside its charge, and ``reduced`` contracts only over the modes of the
    charges an operand reaches. The values are sorted ascending across the
    charges, a stable sort that keeps each charge's own order.
    Memoised, so the eigensystem and the kernels that ``reduced`` fills in
    are computed once per chain; the arrays built here are read-only, as
    the propagator is shared.
    """
    charges = excitations(spec.dim)
    sectors = [np.flatnonzero(charges == q) for q in range(3)]
    support = np.concatenate(sectors)
    values = np.zeros(support.size)
    vectors = np.zeros((support.size, support.size), dtype=complex)
    start = 0
    for sector in sectors:
        block = linalg.hermitian_eigensystem(hamiltonian_block(spec, sector))
        stop = start + block.dim
        values[start:stop], vectors[start:stop, start:stop] = block.values, block.vectors
        start = stop
    # Python's sort is stable too; np.argsort(kind="stable") adds 0.08 MiB to nm-max's peak RSS
    order = sorted(range(values.size), key=values.__getitem__)
    eig = linalg.HermitianEigenSystem(values[order], vectors[:, order])
    for array in (support, eig.values, eig.vectors):
        array.flags.writeable = False
    return EigenPropagator(eig, support, spec.dim)
