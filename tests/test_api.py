"""The public API is the listed set of names: a change to it shows up here."""

import backflow

PUBLIC_API = {
    "BipartiteState", "Classification", "CorrelationDecomposition", "DiagonalPropagator",
    "Discrete", "DoubleLorentzian", "EigenPropagator", "HermitianEigenSystem",
    "InvariantViolation", "MonotonicityProfile", "ScenarioPair", "SingleLorentzian",
    "SingularPointError", "SpinChainSpec", "WitnessPoint", "WitnessSurface",
    "analytic_point", "analytic_surface", "analytic_witnesses", "apply_channel",
    "bloch_pair_grid", "build_hamiltonian", "classify_values", "conjugate", "decompose",
    "dephasing_function", "discretize", "distance_profile", "evaluate_point",
    "evaluate_surface", "evolve_pair", "frequency_density", "full_model",
    "hermitian_eigensystem", "hermitian_part", "increasing_intervals",
    "nm_measure_fixed_pair", "nm_measure_maximized", "partial_trace", "pauli_site",
    "plus_minus_pair", "pure_qubit", "random_density", "reduced_distance",
    "spin_chain_scenario", "tcl_coefficients", "tensor_product", "trace_distance",
    "trace_norm", "unitary_at", "validate_density_matrix", "weak_upper_bound",
}


def test_all_is_the_listed_api():
    assert sorted(backflow.__all__) == sorted(PUBLIC_API)
    assert len(backflow.__all__) == len(PUBLIC_API)  # no name listed twice


def test_every_public_name_resolves():
    for name in backflow.__all__:
        assert hasattr(backflow, name), name
