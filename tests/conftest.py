import numpy as np
import pytest


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


def chain_transfer_amplitude_direct(t, sites, exchange, probe_exchange, field):
    """|f(t)| = |<1_0| exp(-i H_1 t) |1_0>| for the probe on an XX chain.

    H_1 is the (N+1)x(N+1) single-excitation hopping matrix (Bose, PRL 91,
    207901 (2003)): -4 J0 on the probe bond, -4 J on each chain bond and
    +4 B on each chain site, relative to an excitation on the probe.
    Scalar or array t.
    """
    n = sites + 1
    h = np.zeros((n, n))
    h[0, 1] = h[1, 0] = -4.0 * probe_exchange
    for i in range(1, n - 1):
        h[i, i + 1] = h[i + 1, i] = -4.0 * exchange
    h[np.arange(1, n), np.arange(1, n)] = 4.0 * field
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * np.multiply.outer(np.asarray(t, dtype=float), w))
    return np.abs(phases @ np.abs(v[0]) ** 2)
