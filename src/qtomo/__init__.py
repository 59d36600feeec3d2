"""Qubit tomography with weak-meter readout.

Closed-form and simulated transfer matrices for three measurement
models (single meter, two sequential meters, parameterized circuit),
Fisher-information figures of merit averaged over the state space,
linear-inversion and maximum-likelihood estimators, and a
seeded experiment harness.

`import qtomo` loads no submodule.  The first read of a public name
imports the submodule that defines it and binds the name here (PEP 562),
so a program pays only for the layers it uses; submodules such as
`qtomo.harness` resolve the same way.
"""
import importlib

__version__ = "0.1.0"

# Each submodule and the public names the package takes from it.
_EXPORTS = {
    "core": (
        "SIGMA", "PAULI_EIGENSTATES", "PAULI_EIGENSTATE_LABELS",
        "QuadratureRule", "make_quadrature", "state_from_angles",
        "density_from_bloch", "bloch_from_state", "check_density", "fidelity",
    ),
    "single": (
        "NonInformativeCouplingError", "probabilities_single", "estimate_sz",
        "fisher_inverse_single", "qttf_single", "max_error_single",
    ),
    # the shared meter-process model and error pipeline
    "model": (
        "MeterModel", "SingularInformationError", "NonInvertibleModelError",
        "fisher_from_transfer", "delta_from_transfer", "qttf_from_transfer",
        "OptimizationResult",
    ),
    "twometer": (
        "REFERENCE_COUPLINGS", "TwoMeterModel", "qttf_two_meter", "optimize_two_meter",
    ),
    "circuit": (
        "REFERENCE_OPTIMUM", "build_circuit", "qttf_circuit", "optimize_circuit",
    ),
    "estimators": (
        "LinearInversionResult", "linear_inversion", "radial_clip", "MleResult",
        "saturated_mle", "rho_r_mle", "log_likelihood",
    ),
    "harness": (
        "DEFAULT_SEED", "run_single_experiment", "run_full_experiment",
        "variance_vs_fisher_scan",
    ),
}
_SUBMODULES = frozenset({*_EXPORTS, "identities", "cli"})
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
