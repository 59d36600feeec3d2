"""Qubit tomography with weak-meter readout.

Closed-form and simulated transfer matrices for three measurement
models (single meter, two sequential meters, parameterized circuit),
Fisher-information figures of merit averaged over the state space,
linear-inversion and maximum-likelihood estimators, and a
seeded experiment harness.
"""
from .core import (
    HADAMARD,
    PAULI_EIGENSTATE_LABELS,
    PAULI_EIGENSTATES,
    SIGMA,
    QuadratureRule,
    bloch_from_state,
    check_density,
    density_from_bloch,
    fidelity,
    make_quadrature,
    state_from_angles,
)
from .single import (
    NonInformativeCouplingError,
    estimate_sz,
    fisher_inverse_single,
    max_error_single,
    probabilities_single,
    qttf_single,
    two_design_average,
)
from .model import (
    MeterModel,
    NonInvertibleModelError,
    OptimizationResult,
    SingularInformationError,
    delta_from_transfer,
    fisher_from_transfer,
    fisher_matrix_form,
    kraus_transfer,
    qttf_from_transfer,
    simulate_meter_process,
)
from .twometer import (
    REFERENCE_COUPLINGS,
    TwoMeterModel,
    joint_unitary,
    optimize_two_meter,
    qttf_two_meter,
)
from .circuit import (
    REFERENCE_OPTIMUM,
    build_circuit,
    circuit_unitary,
    optimize_circuit,
    qttf_circuit,
    u3,
)
from .estimators import (
    LinearInversionResult,
    MleConfig,
    MleResult,
    linear_inversion,
    log_likelihood,
    radial_clip,
    rho_r_mle,
    saturated_mle,
)
from .harness import (
    DEFAULT_SEED,
    ExperimentReport,
    IdentityReport,
    binomial_variance_identity,
    estimator_variance_identity,
    run_full_experiment,
    run_single_experiment,
    variance_vs_fisher_scan,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "SIGMA",
    "HADAMARD",
    "PAULI_EIGENSTATES",
    "PAULI_EIGENSTATE_LABELS",
    "QuadratureRule",
    "make_quadrature",
    "state_from_angles",
    "density_from_bloch",
    "bloch_from_state",
    "check_density",
    "fidelity",
    # single meter
    "NonInformativeCouplingError",
    "probabilities_single",
    "estimate_sz",
    "fisher_inverse_single",
    "qttf_single",
    "max_error_single",
    "two_design_average",
    # shared meter-process model and error pipeline
    "MeterModel",
    "kraus_transfer",
    "simulate_meter_process",
    "SingularInformationError",
    "fisher_from_transfer",
    "fisher_matrix_form",
    "delta_from_transfer",
    "qttf_from_transfer",
    "OptimizationResult",
    # two-meter model
    "REFERENCE_COUPLINGS",
    "TwoMeterModel",
    "joint_unitary",
    "qttf_two_meter",
    "optimize_two_meter",
    # circuit model
    "REFERENCE_OPTIMUM",
    "u3",
    "build_circuit",
    "circuit_unitary",
    "qttf_circuit",
    "optimize_circuit",
    # estimators
    "NonInvertibleModelError",
    "LinearInversionResult",
    "linear_inversion",
    "radial_clip",
    "MleConfig",
    "MleResult",
    "saturated_mle",
    "rho_r_mle",
    "log_likelihood",
    # harness
    "DEFAULT_SEED",
    "ExperimentReport",
    "run_single_experiment",
    "run_full_experiment",
    "variance_vs_fisher_scan",
    "IdentityReport",
    "binomial_variance_identity",
    "estimator_variance_identity",
]
