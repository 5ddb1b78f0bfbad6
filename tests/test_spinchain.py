import numpy as np
import pytest

from backflow import linalg, witness
from backflow.linalg import DENSE_DIM_CAP
from backflow.spinchain import (
    PAULI,
    SpinChainSpec,
    build_hamiltonian,
    pauli_site,
    scenario,
)
from backflow.states import pure_qubit
from backflow.witness import evolve_pair, reduced_distance


class TestPauliSite:
    def test_single_site(self):
        np.testing.assert_array_equal(pauli_site("z", 0, 1), PAULI["z"])

    def test_product_of_neighbours(self):
        lhs = pauli_site("x", 0, 2) @ pauli_site("x", 1, 2)
        np.testing.assert_array_equal(lhs, np.kron(PAULI["x"], PAULI["x"]))

    def test_same_site_anticommutes_across_sites_commutes(self):
        x0 = pauli_site("x", 0, 2)
        y0 = pauli_site("y", 0, 2)
        y1 = pauli_site("y", 1, 2)
        assert np.max(np.abs(x0 @ y0 + y0 @ x0)) <= 1e-14
        assert np.max(np.abs(x0 @ y1 - y1 @ x0)) <= 1e-14

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            pauli_site("x", 2, 2)
        with pytest.raises(ValueError, match="axis"):
            pauli_site("w", 0, 2)


class TestHamiltonian:
    def test_single_bond_spectrum(self):
        # probe coupled to one site, no field: eigenvalues {-4, 0, 0, 4} at J0=1
        spec = SpinChainSpec(sites=1, exchange=1.0, probe_exchange=1.0, field=0.0)
        h = build_hamiltonian(spec)
        expected = -2.0 * (
            np.kron(PAULI["x"], PAULI["x"]) + np.kron(PAULI["y"], PAULI["y"])
        )
        np.testing.assert_allclose(h, expected, atol=1e-14)
        np.testing.assert_allclose(np.linalg.eigvalsh(h), [-4.0, 0.0, 0.0, 4.0], atol=1e-12)

    def test_field_only_on_environment(self):
        spec = SpinChainSpec(sites=1, exchange=1.0, probe_exchange=0.0, field=1.0)
        h = build_hamiltonian(spec)
        np.testing.assert_allclose(h, -2.0 * np.kron(np.eye(2), PAULI["z"]), atol=1e-14)

    def test_hermitian(self):
        spec = SpinChainSpec(sites=4, exchange=1.0, probe_exchange=0.7, field=0.05)
        assert linalg.hermiticity_defect(build_hamiltonian(spec)) <= 1e-12

    def test_total_magnetization_conserved(self):
        spec = SpinChainSpec(sites=4, exchange=1.0, probe_exchange=1.0, field=0.01)
        h = build_hamiltonian(spec)
        total_z = sum(pauli_site("z", n, 5) for n in range(5))
        comm = h @ total_z - total_z @ h
        assert np.max(np.abs(comm)) <= 1e-10

    def test_dimension_cap(self):
        # checked on the spec alone, before any matrix is allocated
        assert SpinChainSpec(sites=11).dim == DENSE_DIM_CAP
        for sites in (12, 10**9):
            with pytest.raises(ValueError, match="cap"):
                SpinChainSpec(sites=sites)

    def test_invalid_couplings(self):
        with pytest.raises(ValueError):
            SpinChainSpec(sites=0)
        with pytest.raises(ValueError):
            SpinChainSpec(sites=2, exchange=0.0)


class TestScenario:
    def setup_method(self):
        self.spec = SpinChainSpec(sites=3, exchange=1.0, probe_exchange=1.0, field=0.01)
        self.scenario = scenario(self.spec)

    def test_initially_orthogonal_probes(self):
        assert reduced_distance(self.scenario, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_initially_uncorrelated(self):
        from backflow.states import decompose

        for state in (self.scenario.state1, self.scenario.state2):
            split = decompose(state)
            assert np.max(np.abs(split.correlation)) <= 1e-14

    def test_energy_conserved(self):
        h = build_hamiltonian(self.spec)
        for state0 in (self.scenario.state1, self.scenario.state2):
            e0 = np.trace(h @ state0.op).real
            for t in (0.7, 2.1):
                s1, s2 = evolve_pair(self.scenario, t)
                evolved = s1 if state0 is self.scenario.state1 else s2
                assert np.trace(h @ evolved.op).real == pytest.approx(e0, abs=1e-9)

    def test_purity_conserved(self):
        for t in (0.5, 1.9):
            s1, s2 = evolve_pair(self.scenario, t)
            for s in (s1, s2):
                assert np.trace(s.op @ s.op).real == pytest.approx(1.0, abs=1e-9)

    def test_bound_window_holds(self, rng):
        for _ in range(6):
            t, tp = rng.uniform(0.0, 2.5, size=2)
            p = witness.evaluate_point(self.scenario, float(tp), float(t))
            assert p.lower - 1e-9 <= p.delta_d <= p.upper + 1e-9

    def test_custom_pair(self):
        pair = (pure_qubit(0.0, 0.0), pure_qubit(np.pi, 0.0))
        sc = scenario(self.spec, pair=pair)
        assert reduced_distance(sc, 0.0) == pytest.approx(1.0, abs=1e-12)
