"""Trace-distance witnesses for memory effects in open quantum systems.

The library evolves pairs of joint system-environment states, splits off
the correlations they build up, and bounds the change of the reduced trace
distance over finite time steps from both sides. Crossing the resulting
thresholds certifies Markovian or non-Markovian behaviour; the accumulated
increase gives the usual backflow measure. Two worked models ship with the
package: a photonic dephasing qubit with closed-form dynamics and a probe
spin on a finite XX chain, cross-validated against each other through the
general machinery.
"""

from .blp import (
    MonotonicityProfile,
    bloch_pair_grid,
    distance_profile,
    increasing_intervals,
    nm_measure_fixed_pair,
    nm_measure_maximized,
)
from .dephasing import (
    DiagonalPropagator,
    Discrete,
    DoubleLorentzian,
    SingleLorentzian,
    SingularPointError,
    analytic_point,
    analytic_surface,
    analytic_witnesses,
    apply_channel,
    dephasing_function,
    discretize,
    frequency_density,
    full_model,
    tcl_coefficients,
)
from .linalg import (
    HermitianEigenSystem,
    conjugate,
    hermitian_eigensystem,
    hermitian_part,
    partial_trace,
    tensor_product,
    trace_distance,
    trace_norm,
    unitary_at,
)
from .spinchain import SpinChainSpec, build_hamiltonian, pauli_site
from .spinchain import scenario as spin_chain_scenario
from .states import (
    BipartiteState,
    CorrelationDecomposition,
    decompose,
    plus_minus_pair,
    pure_qubit,
    random_density,
    validate_density_matrix,
)
from .witness import (
    Classification,
    EigenPropagator,
    InvariantViolation,
    ScenarioPair,
    WitnessPoint,
    WitnessSurface,
    classify_values,
    evaluate_point,
    evaluate_surface,
    evolve_pair,
    reduced_distance,
    weak_upper_bound,
)

__all__ = [
    "BipartiteState",
    "Classification",
    "CorrelationDecomposition",
    "DiagonalPropagator",
    "Discrete",
    "DoubleLorentzian",
    "EigenPropagator",
    "HermitianEigenSystem",
    "InvariantViolation",
    "MonotonicityProfile",
    "ScenarioPair",
    "SingleLorentzian",
    "SingularPointError",
    "SpinChainSpec",
    "WitnessPoint",
    "WitnessSurface",
    "analytic_point",
    "analytic_surface",
    "analytic_witnesses",
    "apply_channel",
    "bloch_pair_grid",
    "build_hamiltonian",
    "classify_values",
    "conjugate",
    "decompose",
    "dephasing_function",
    "discretize",
    "distance_profile",
    "evaluate_point",
    "evaluate_surface",
    "evolve_pair",
    "frequency_density",
    "full_model",
    "hermitian_eigensystem",
    "hermitian_part",
    "increasing_intervals",
    "nm_measure_fixed_pair",
    "nm_measure_maximized",
    "partial_trace",
    "pauli_site",
    "plus_minus_pair",
    "pure_qubit",
    "random_density",
    "reduced_distance",
    "spin_chain_scenario",
    "tcl_coefficients",
    "tensor_product",
    "trace_distance",
    "trace_norm",
    "unitary_at",
    "validate_density_matrix",
    "weak_upper_bound",
]

__version__ = "0.1.0"
