import tracemalloc

import numpy as np
import pytest

from backflow import dephasing, linalg, spinchain, states, witness
from backflow.linalg import DENSE_DIM_CAP
from backflow.spinchain import (
    PAULI,
    SpinChainSpec,
    build_hamiltonian,
    excitations,
    hamiltonian_block,
    pauli_site,
    scenario,
)
from backflow.states import pure_qubit
from backflow.witness import evolve_pair, reduced_distance

from conftest import chain_hamiltonian_direct, random_density_direct


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
        h = build_hamiltonian(spec)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12

    def test_total_magnetization_conserved(self):
        spec = SpinChainSpec(sites=4, exchange=1.0, probe_exchange=1.0, field=0.01)
        h = build_hamiltonian(spec)
        total_z = sum(pauli_site("z", n, 5) for n in range(5))
        comm = h @ total_z - total_z @ h
        assert np.max(np.abs(comm)) <= 1e-10

    @pytest.mark.parametrize("sites", range(1, 8))
    def test_equals_kronecker_sum(self, sites):
        rng = np.random.default_rng(sites)
        couplings = [
            (rng.uniform(0.1, 2.0), rng.normal(), rng.normal()),
            (rng.uniform(0.1, 2.0), 0.0, rng.normal()),
            (rng.uniform(0.1, 2.0), rng.normal(), 0.0),
            (rng.uniform(0.1, 2.0), rng.normal(), -abs(rng.normal())),
        ]
        for exchange, probe_exchange, field in couplings:
            spec = SpinChainSpec(sites, exchange, probe_exchange, field)
            oracle = chain_hamiltonian_direct(sites, exchange, probe_exchange, field)
            assert np.array_equal(build_hamiltonian(spec), oracle)

    def test_dimension_cap(self):
        # checked on the spec alone, before any matrix is allocated
        assert SpinChainSpec(sites=11).dim == DENSE_DIM_CAP
        for sites in (12, 10**9):
            with pytest.raises(ValueError, match="cap"):
                SpinChainSpec(sites=sites)

    @pytest.mark.parametrize("sites", [8.0, 2.5, "3", None])
    def test_non_integer_sites_rejected(self, sites):
        with pytest.raises(ValueError, match="integer"):
            SpinChainSpec(sites=sites)

    def test_integer_like_sites_become_int(self):
        spec = SpinChainSpec(sites=np.int64(3))
        assert type(spec.sites) is int and spec.dim == 16

    def test_invalid_couplings(self):
        with pytest.raises(ValueError):
            SpinChainSpec(sites=0)
        with pytest.raises(ValueError):
            SpinChainSpec(sites=2, exchange=0.0)

    @pytest.mark.parametrize(
        "couplings",
        [dict(exchange=1e308), dict(probe_exchange=-1e308), dict(field=1e308),
         dict(field=-1e307), dict(probe_exchange=np.nan), dict(field=np.nan)],
        ids=["exchange", "probe-exchange", "field", "field-times-sites", "probe-nan", "field-nan"],
    )
    def test_couplings_that_overflow_h_rejected(self, couplings):
        # H's bound 8 max(|J|, |J0|) + 2 N |B| must be finite; 1e307 overflows once
        # it is multiplied by 2 N = 20
        with pytest.raises(ValueError, match="not finite"):
            SpinChainSpec(sites=10, **couplings)
        # the largest couplings whose bound stays finite are accepted
        SpinChainSpec(sites=10, exchange=1e307, probe_exchange=-1e307, field=1e306)


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


class TestChargeBlocks:
    def test_fig3_pair_reaches_two_excitations(self):
        sc = scenario(SpinChainSpec(sites=8, exchange=1.0, probe_exchange=1.0, field=0.01))
        assert sc.propagator.support.size == 1 + 9 + 36

    def test_seven_site_chain_with_a_bloch_pair(self):
        spec = SpinChainSpec(sites=7, exchange=1.0, probe_exchange=1.0, field=0.01)
        sc = scenario(spec, pair=(pure_qubit(0.4, 1.0), pure_qubit(np.pi - 0.4, 1.0 + np.pi)))
        assert sc.propagator.support.size == 1 + 8 + 28

    def test_no_full_eigensolve_and_no_full_unitary(self, monkeypatch):
        spec = SpinChainSpec(sites=8, exchange=1.0, probe_exchange=1.0, field=0.01)
        sizes = {"eigh": [], "unitary": []}
        eigh, unitary_at = np.linalg.eigh, linalg.unitary_at

        def recording_eigh(a, *args, **kwargs):
            sizes["eigh"].append(a.shape[-1])
            return eigh(a, *args, **kwargs)

        def recording_unitary(eig, t):
            u = unitary_at(eig, t)
            sizes["unitary"].append(u.shape[-1])
            return u

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(linalg, "unitary_at", recording_unitary)
        witness.evaluate_surface(scenario(spec), [0.0, 0.5, 1.0], [0.0, 0.7])
        # one eigensolve per charge 0, 1 and 2 of the 46 states, none above 46
        assert sizes["eigh"] == [1, 9, 36]
        # the forecast evolves the support block straight from the eigensystem
        assert sizes["unitary"] == []

    @pytest.mark.parametrize("sites", range(2, 11))
    def test_eigenvectors_are_exactly_charge_pure(self, sites):
        """Each eigenvector is exactly zero outside one charge, where one
        eigensolve of the whole support leaks 1e-18 to 6e-17 into the others
        on 3, 8, 9 and 10 sites, and the assembled eigensystem, values
        ascending, reconstructs H."""
        spec = SpinChainSpec(sites, exchange=1.0, probe_exchange=1.0, field=0.01)
        prop = spinchain._block_propagator(spec)
        eig, charges = prop.eigensystem, excitations(spec.dim)[prop.support]
        mode_charges = charges[np.argmax(np.abs(eig.vectors), axis=0)]
        assert np.all((charges[:, None] == mode_charges) | (eig.vectors == 0))
        assert np.all(np.diff(eig.values) >= 0)
        h = hamiltonian_block(spec, prop.support)
        assert np.max(np.abs(eig.reconstruct() - h)) <= 1e-12 * np.max(np.abs(h))

    def test_product_pair_reduced_on_the_modes_it_reaches(self, monkeypatch):
        """A Bloch pair on the 7-site chain holds at most one excitation, so
        ``reduced`` takes its exponentials on the 1 + 8 modes of charges 0
        and 1 only, not on all 37 of the support."""
        spec = SpinChainSpec(sites=7, exchange=1.0, probe_exchange=1.0, field=0.01)
        sc = scenario(spec, pair=(pure_qubit(0.4, 1.0), pure_qubit(np.pi - 0.4, 1.0 + np.pi)))
        times = np.linspace(0.0, 3.0, 40)
        sizes = []
        exp = np.exp

        def recording_exp(x, *args, **kwargs):
            sizes.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", recording_exp)
        got = reduced_distance(sc, times)
        assert sc.propagator.support.size == 37
        assert sizes == [times.size * 9]
        monkeypatch.undo()
        full = witness.EigenPropagator(linalg.hermitian_eigensystem(build_hamiltonian(spec)))
        ref = witness.ScenarioPair(sc.state1, sc.state2, full)
        assert np.max(np.abs(got - reduced_distance(ref, times))) <= 1e-12

    @pytest.mark.parametrize("env_branch", [1, 2])
    def test_row_makes_no_evolve_and_no_dense_product(self, monkeypatch, env_branch):
        """No correlation split, no evolve of a total operator and no
        D x D Kronecker product: rows read the states as factor pairs."""
        spec = SpinChainSpec(sites=4, exchange=1.0, probe_exchange=0.8, field=0.05)
        sc = scenario(spec)
        if env_branch == 2:
            sc = witness.ScenarioPair(sc.state2, sc.state1, sc.propagator)
        calls = {"split": 0, "evolve": 0, "products": []}
        split, evolve, tensor_product = (
            states.correlation_split, sc.propagator.evolve, linalg.tensor_product
        )

        def recording_split(*args):
            calls["split"] += 1
            return split(*args)

        def recording_evolve(mat, t):
            calls["evolve"] += 1
            return evolve(mat, t)

        def recording_product(a, b):
            out = tensor_product(a, b)
            calls["products"].append(out.shape)
            return out

        monkeypatch.setattr(states, "correlation_split", recording_split)
        monkeypatch.setattr(sc.propagator, "evolve", recording_evolve)
        monkeypatch.setattr(linalg, "tensor_product", recording_product)
        witness.evaluate_surface(sc, [0.0, 0.5, 1.0, 1.5], [0.0, 0.7])
        assert calls == {"split": 0, "evolve": 0, "products": []}


class TestSharedPropagator:
    """Scenarios on one chain share their block propagator; only the pair is
    computed per call."""

    SPEC = dict(sites=5, exchange=1.0, probe_exchange=0.8, field=0.02)

    def test_equal_specs_share_one_propagator_and_solve_once(self, monkeypatch):
        first = scenario(SpinChainSpec(**self.SPEC))
        calls = []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            calls.append(a.shape[-1])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        pair = (pure_qubit(0.4, 1.0), pure_qubit(np.pi - 0.4, 1.0 + np.pi))
        second = scenario(SpinChainSpec(**self.SPEC), pair)
        assert second.propagator is first.propagator
        assert calls == []

    def test_a_rebuilt_propagator_gives_identical_distances(self):
        times = np.linspace(0.0, 3.0, 25)
        shared = scenario(SpinChainSpec(**self.SPEC))
        before = reduced_distance(shared, times)
        spinchain._block_propagator.cache_clear()
        rebuilt = scenario(SpinChainSpec(**self.SPEC))
        assert rebuilt.propagator is not shared.propagator
        np.testing.assert_array_equal(reduced_distance(rebuilt, times), before)

    def test_other_chains_and_charges_get_their_own(self):
        """Another chain gets its own propagator; the charges are fixed by
        the chain, so a pair reaching fewer of them shares it."""
        shared = scenario(SpinChainSpec(**self.SPEC)).propagator
        other_field = scenario(SpinChainSpec(**{**self.SPEC, "field": 0.03})).propagator
        ground = np.diag([1.0, 0.0])
        ground_pair = scenario(SpinChainSpec(**self.SPEC), (ground, ground)).propagator
        assert other_field is not shared and ground_pair is shared
        n = self.SPEC["sites"] + 1
        assert other_field.support.size == 1 + n + n * (n - 1) // 2

    def test_shared_arrays_are_read_only(self):
        sc = scenario(SpinChainSpec(**self.SPEC))
        reduced_distance(sc, np.linspace(0.0, 1.0, 3))  # fills the kernels
        prop = sc.propagator
        layouts = [array for layout in prop._layouts.values() for array in vars(layout).values()]
        assert layouts
        for array in (prop.eigensystem.values, prop.eigensystem.vectors, prop.support,
                      prop._position, *layouts):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_both_states_share_one_read_only_polarized_environment(self):
        sc = scenario(SpinChainSpec(**self.SPEC))
        env = sc.state1.factors[1]
        np.testing.assert_array_equal(env, np.eye(1, 2 ** self.SPEC["sites"])[0])
        with pytest.raises(ValueError, match="read-only"):
            env[0] = 0
        assert sc.state2.factors[1] is env


class TestFixedCharges:
    """The chain's propagator on charges 0, 1 and 2 against the full-space
    propagator of the dense H, for pairs reaching all or fewer of them."""

    TIMES = np.linspace(0.0, 3.0, 13)
    T_GRID, TPRIME_GRID = [0.0, 0.6, 1.7], [0.0, 0.4, 1.1]
    COLUMNS = ("d_t", "d_next", "forecast", "influence", "delta_d", "lower", "upper")

    @staticmethod
    def pairs(rng):
        def pure():
            return pure_qubit(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2 * np.pi))

        ground = np.diag([1.0, 0.0])
        return [
            (pure(), pure()),
            (pure(), pure()),
            (random_density_direct(2, rng), random_density_direct(2, rng)),
            (random_density_direct(2, rng), random_density_direct(2, rng)),
            (ground, ground),
        ]

    @pytest.mark.parametrize("sites", [3, 4])
    def test_matches_the_full_space_propagator(self, sites):
        rng = np.random.default_rng(300 + sites)
        spec = SpinChainSpec(sites, exchange=1.0, probe_exchange=0.8, field=0.05)
        full = witness.EigenPropagator(linalg.hermitian_eigensystem(build_hamiltonian(spec)))
        shared = scenario(spec).propagator
        for pair in self.pairs(rng):
            sc = scenario(spec, pair)
            assert sc.propagator is shared
            ref = witness.ScenarioPair(sc.state1, sc.state2, full)
            got = reduced_distance(sc, self.TIMES)
            np.testing.assert_allclose(got, reduced_distance(ref, self.TIMES), rtol=0, atol=1e-12)
            surface = witness.evaluate_surface(sc, self.T_GRID, self.TPRIME_GRID)
            expected = witness.evaluate_surface(ref, self.T_GRID, self.TPRIME_GRID)
            for name in self.COLUMNS:
                np.testing.assert_allclose(
                    getattr(surface, name), getattr(expected, name), rtol=0, atol=1e-12
                )
        assert shared.support.size < spec.dim


class TestHamiltonianBlocks:
    @pytest.mark.parametrize("sites", range(1, 9))
    def test_every_charge_block_equals_the_dense_block(self, sites):
        rng = np.random.default_rng(100 + sites)
        for _ in range(3):
            spec = SpinChainSpec(sites, rng.uniform(0.1, 2.0), rng.normal(), rng.normal())
            h = build_hamiltonian(spec)
            charges = excitations(spec.dim)
            for q in range(sites + 2):
                b = np.flatnonzero(charges == q)
                assert np.array_equal(hamiltonian_block(spec, b), h[np.ix_(b, b)])
            perm = rng.permutation(spec.dim)
            assert np.array_equal(hamiltonian_block(spec, perm), h[np.ix_(perm, perm)])

    def test_block_not_closed_under_hopping_raises(self):
        spec = SpinChainSpec(sites=3, exchange=1.0, probe_exchange=0.5, field=0.1)
        one_excitation = np.flatnonzero(excitations(spec.dim) == 1)
        with pytest.raises(witness.InvariantViolation, match="hops out"):
            hamiltonian_block(spec, one_excitation[:-1])
        # without the probe bond the probe's own states form closed blocks
        decoupled = SpinChainSpec(sites=3, exchange=1.0, probe_exchange=0.0, field=0.1)
        h = build_hamiltonian(decoupled)
        probe_up = one_excitation[one_excitation >= 8]
        assert np.array_equal(hamiltonian_block(decoupled, probe_up), h[np.ix_(probe_up, probe_up)])

    @pytest.mark.parametrize(
        "basis", [[0, 0], [0, 16], [-1, 2], [[0, 1]], [0.0, 1.0], [0.5, 1.0], [True, False]]
    )
    def test_bad_basis_rejected(self, basis):
        with pytest.raises(ValueError, match="basis"):
            hamiltonian_block(SpinChainSpec(sites=3), basis)

    def test_scenario_matches_the_dense_charge_blocks(self):
        """The support holds the states of at most two excitations, and each
        charge's block of the eigensystem is the eigensystem of the dense H
        on that charge, bit for bit."""
        spec = SpinChainSpec(sites=6, exchange=1.0, probe_exchange=0.7, field=0.03)
        prop = scenario(spec).propagator
        s, eig = prop.support, prop.eigensystem
        charges = excitations(spec.dim)
        np.testing.assert_array_equal(np.sort(s), np.flatnonzero(charges <= 2))
        h = build_hamiltonian(spec)
        for q in range(3):
            rows = np.flatnonzero(charges[s] == q)
            cols = np.flatnonzero(eig.vectors[rows].any(axis=0))
            dense = linalg.hermitian_eigensystem(h[np.ix_(s[rows], s[rows])])
            np.testing.assert_array_equal(eig.values[cols], dense.values)
            np.testing.assert_array_equal(eig.vectors[np.ix_(rows, cols)], dense.vectors)


def _peak_bytes(fn):
    """Peak traced allocation of one call, after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


FIG3_SPEC = SpinChainSpec(sites=8, exchange=1.0, probe_exchange=1.0, field=0.01)
DENSE_ARRAY_BYTES = 512 * 512 * 16  # one 512 x 512 complex array, 4 MiB


def test_fig3_scenario_allocates_no_dense_array():
    """States stay factor pairs and H is built per charge block: set-up
    peaks well below the 512 x 512 arrays it used to form. The memo is
    cleared inside the measured call, so the block build is counted."""

    def cold_scenario():
        spinchain._block_propagator.cache_clear()
        return scenario(FIG3_SPEC)

    assert _peak_bytes(cold_scenario) < 6 * 2**20


def test_fig3_row_allocates_less_than_one_dense_array():
    """A 40-point fig3 row forms no total operator: its peak stays below
    one 512 x 512 complex array."""
    sc = scenario(FIG3_SPEC)
    tps = np.linspace(0.0, 3.0, 40)  # the fig3 preset's t' grid
    peak = _peak_bytes(lambda: witness.evaluate_surface(sc, [1.5], tps))
    assert peak < DENSE_ARRAY_BYTES


def test_fig3_surface_keeps_the_marginals_on_the_support():
    """The 40 x 40 fig3 surface keeps each environment marginal on the 37
    environment indices its 46-dimensional support reaches: its peak stays
    below 16 MiB, where a stack of 40 full 256 x 256 marginals takes 40 MiB."""
    sc = scenario(FIG3_SPEC)
    grid = np.linspace(0.0, 3.0, 40)  # the fig3 preset's grid
    assert _peak_bytes(lambda: witness.evaluate_surface(sc, grid, grid)) < 16 * 2**20


def test_setup_makes_no_dense_eigensolve_and_no_kronecker_sum(monkeypatch):
    """Positivity checks factorise instead of eigensolving; H needs no np.kron."""
    calls = {"eigvalsh": 0, "kron": 0}
    eigvalsh, kron = np.linalg.eigvalsh, np.kron

    def recording_eigvalsh(*args, **kwargs):
        calls["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    def recording_kron(*args, **kwargs):
        calls["kron"] += 1
        return kron(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    monkeypatch.setattr(np, "kron", recording_kron)
    spec = SpinChainSpec(sites=6, exchange=1.0, probe_exchange=0.9, field=0.01)
    build_hamiltonian(spec)
    assert calls["kron"] == 0
    dist = dephasing.DoubleLorentzian(1.0, 1.0, 9.0, 1.0, 1.0)
    dephasing.full_model(dephasing.discretize(dist, modes=128))
    scenario(spec)
    assert calls["eigvalsh"] == 0
