import numpy as np
import pytest

from backflow import spinchain

# The one message of an overflowing phase, linalg._exp_outer's, at t = 1e308.
PHASE_OVERFLOW = r"^phase exp\(t z\) overflows at t = 1e\+308$"


@pytest.fixture(autouse=True)
def cold_block_propagator():
    """The chain's block propagator is memoised for the whole process; every
    test starts without it, so none depends on the order the tests run in."""
    spinchain._block_propagator.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240311)


def random_density_direct(dim, rng):
    """Independent density-matrix generator for oracle-side computations."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian_direct(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def double_lorentzian_k_direct(t, omega1, delta1, omega2, delta2, r):
    """Independent closed-form k(t) of the two-Lorentzian spectrum:
    (e^{(i w1 - d1) t} + r e^{(i w2 - d2) t}) / (1 + r), scalar or array t."""
    t = np.asarray(t, dtype=float)
    return (np.exp((1j * omega1 - delta1) * t) + r * np.exp((1j * omega2 - delta2) * t)) / (1.0 + r)


def chain_hopping_matrix_direct(sites, exchange, probe_exchange, field):
    """(N+1)x(N+1) single-excitation hopping matrix of the probe on an XX
    chain (Bose, PRL 91, 207901 (2003)): -4 J0 on the probe bond, -4 J on
    each chain bond and +4 B on each chain site, relative to an excitation
    on the probe."""
    n = sites + 1
    h = np.zeros((n, n))
    h[0, 1] = h[1, 0] = -4.0 * probe_exchange
    for i in range(1, n - 1):
        h[i, i + 1] = h[i + 1, i] = -4.0 * exchange
    h[np.arange(1, n), np.arange(1, n)] = 4.0 * field
    return h


def chain_hamiltonian_direct(sites, exchange, probe_exchange, field):
    """Probe-plus-chain Hamiltonian as a Kronecker sum over the sites:
    -2 J0 (XX + YY) on the probe bond, -2 J (XX + YY) on each chain bond,
    then -2 B Z on each chain site, site 0 on the slowest index."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    total = sites + 1

    def embed(op, site, width):
        left, right = np.eye(2**site), np.eye(2 ** (total - site - width))
        return np.kron(np.kron(left, op), right)

    bond = np.kron(x, x) + np.kron(y, y)
    h = -2.0 * probe_exchange * embed(bond, 0, 2)
    for n in range(1, sites):
        h = h - 2.0 * exchange * embed(bond, n, 2)
    for n in range(1, total):
        h = h - 2.0 * field * embed(z, n, 1)
    return h


def chain_transfer_amplitude_direct(t, sites, exchange, probe_exchange, field):
    """|f(t)| = |<1_0| exp(-i H_1 t) |1_0>| for the probe on an XX chain,
    with H_1 the single-excitation hopping matrix. Scalar or array t.
    """
    w, v = np.linalg.eigh(chain_hopping_matrix_direct(sites, exchange, probe_exchange, field))
    phases = np.exp(-1j * np.multiply.outer(np.asarray(t, dtype=float), w))
    return np.abs(phases @ np.abs(v[0]) ** 2)


def _norm2_direct(m):
    """Trace norm of a stack of 2x2 Hermitian matrices [[a, b], [b*, d]]:
    twice the larger of |mean eigenvalue| and the half gap, in closed form."""
    a, d, b = m[..., 0, 0].real, m[..., 1, 1].real, m[..., 0, 1]
    return np.maximum(np.abs(a + d), np.sqrt((a - d) ** 2 + 4.0 * np.abs(b) ** 2))


def chain_witnesses_direct(t, tprime, sites, exchange, probe_exchange, field):
    """D(t), D(t + t'), F and B of the +/- probe pair on a polarised XX chain,
    each of shape (len(t), len(tprime)), from free fermions.

    Under the Jordan-Wigner map the chain is free fermions (Lieb, Schultz
    and Mattis, Ann. Phys. 16, 407 (1961)); nearest-neighbour hopping never
    reorders them, so the amplitude between excitation pairs i < j and
    k < l is the 2x2 determinant u_ik u_jl - u_il u_jk of the single-particle
    u = exp(-i h t). The pair and every witness operator live in the sectors
    with at most two excitations, 1 + (N+1) + (N+1)N/2 states, where U(t)
    is blockdiag(1, u, det) up to a common phase. The witnesses follow the
    definitions with the environment of branch 1: F from
    (rho_S1 - rho_S2) (x) rho_E1, B from rho_S2 (x) (rho_E1 - rho_E2) plus
    the difference of the correlations, D(t + t') from their sum.
    """
    n = sites + 1
    singles = [(k,) for k in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    basis = [()] + singles + pairs
    probe = np.array([int(0 in b) for b in basis])
    envs = sorted({tuple(k for k in b if k) for b in basis}, key=lambda e: (len(e), e))
    env = np.array([envs.index(tuple(k for k in b if k)) for b in basis])
    pos = -np.ones((2, len(envs)), dtype=int)
    pos[probe, env] = np.arange(len(basis))
    w, v = np.linalg.eigh(chain_hopping_matrix_direct(sites, exchange, probe_exchange, field))
    pi, pj = np.array(pairs).T

    def unitary(time):
        u = (v * np.exp(-1j * w * time)) @ v.conj().T
        big = np.zeros((len(basis), len(basis)), dtype=complex)
        big[0, 0] = 1.0
        big[1 : 1 + n, 1 : 1 + n] = u
        big[1 + n :, 1 + n :] = (
            u[pi[:, None], pi] * u[pj[:, None], pj] - u[pi[:, None], pj] * u[pj[:, None], pi]
        )
        return big

    def system(rho):
        out = np.zeros(rho.shape[:-2] + (2, 2), dtype=complex)
        for a in range(2):
            for b in range(2):
                both = (pos[a] >= 0) & (pos[b] >= 0)
                out[..., a, b] = rho[..., pos[a][both], pos[b][both]].sum(-1)
        return out

    def environment(rho):
        out = np.zeros((len(envs), len(envs)), dtype=complex)
        for a in range(2):
            there = np.flatnonzero(pos[a] >= 0)
            out[np.ix_(there, there)] += rho[np.ix_(pos[a][there], pos[a][there])]
        return out

    def product(rho_s, rho_e):
        # rho_E of states with at most one excitation has none on env pairs,
        # so the product stays inside the basis
        assert not np.any(rho_e[np.array([len(e) == 2 for e in envs])])
        return rho_s[probe[:, None], probe] * rho_e[env[:, None], env]

    plus, minus = np.zeros(len(basis)), np.zeros(len(basis))
    plus[0] = minus[0] = plus[1] = 1.0 / np.sqrt(2.0)
    minus[1] = -1.0 / np.sqrt(2.0)
    steps = np.array([unitary(tp) for tp in np.asarray(tprime, dtype=float)])
    d_t, d_next, forecast, influence = (np.empty((len(t), len(tprime))) for _ in range(4))
    for row, time in enumerate(np.asarray(t, dtype=float)):
        u = unitary(time)
        rho1 = u @ np.outer(plus, plus) @ u.conj().T
        rho2 = u @ np.outer(minus, minus) @ u.conj().T
        s1, s2, e1, e2 = system(rho1), system(rho2), environment(rho1), environment(rho2)
        x_f = product(s1 - s2, e1)
        x_i = product(s2, e1 - e2) + (rho1 - product(s1, e1)) - (rho2 - product(s2, e2))
        d_t[row] = 0.5 * _norm2_direct(s1 - s2)
        f = system(steps @ x_f @ steps.conj().transpose(0, 2, 1))
        b = system(steps @ x_i @ steps.conj().transpose(0, 2, 1))
        forecast[row], influence[row] = 0.5 * _norm2_direct(f), 0.5 * _norm2_direct(b)
        d_next[row] = 0.5 * _norm2_direct(f + b)
    return d_t, d_next, forecast, influence
