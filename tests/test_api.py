"""The public API is the listed set of names: a change to it shows up here."""

import inspect

import backflow
from backflow import cli

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


MODULES = {module.__name__ for module in vars(backflow).values() if inspect.ismodule(module)}


def _public_callables():
    """Every public function of the package and of its command line, each
    public class (its constructor) and each public method defined on one."""
    names = [(backflow, name) for name in backflow.__all__]
    names += [(cli, name) for name, obj in vars(cli).items()
              if not name.startswith("_") and getattr(obj, "__module__", None) == cli.__name__]
    for module, name in names:
        obj = getattr(module, name)
        if not callable(obj) or inspect.isclass(obj) and issubclass(obj, Exception):
            continue  # an exception takes the message alone
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in inspect.getmembers(obj, callable):
                if not attr.startswith("_") and getattr(member, "__module__", "") in MODULES:
                    yield f"{name}.{attr}", member


def test_no_public_parameter_is_a_tolerance():
    """Tolerances are module constants: no public call takes one."""
    found = [
        (name, parameter)
        for name, obj in _public_callables()
        for parameter in inspect.signature(obj).parameters
        if parameter == "eps" or parameter.endswith(("_eps", "_tol"))
    ]
    assert found == []
