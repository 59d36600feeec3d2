"""Public names: every export resolves, and the benchmark's imports exist.

perfbench/ drives qtomo through the names checked here; its own smoke
test is slow and runs outside this suite, so a deletion that breaks the
benchmark must fail here first.
"""
import dataclasses
import importlib
import inspect

import pytest

import qtomo

MODULES = (
    "core", "single", "model", "twometer", "circuit", "estimators", "harness", "identities"
)

# (module, name) pairs the benchmark under perfbench/ imports or calls.
BENCHMARK_NAMES = (
    ("model", "default_rule"),
    ("model", "delta_surface"),
    ("twometer", "transfer_matrix"),
    ("", "REFERENCE_COUPLINGS"),
    ("", "REFERENCE_OPTIMUM"),
    ("", "TwoMeterModel"),
    ("", "build_circuit"),
    ("", "qttf_two_meter"),
    ("", "qttf_circuit"),
    ("", "optimize_two_meter"),
    ("", "rho_r_mle"),
    ("", "linear_inversion"),
    ("", "variance_vs_fisher_scan"),
    ("", "state_from_angles"),
    ("", "bloch_from_state"),
    ("", "PAULI_EIGENSTATES"),
    ("cli", "main"),
    ("cli", "identity_suite"),
)


# The package's public surface: production paths and the types they return.
# Oracles that only checks call stay private in their modules.
PUBLIC_NAMES = {
    "__version__",
    # core
    "SIGMA", "HADAMARD", "PAULI_EIGENSTATES", "PAULI_EIGENSTATE_LABELS",
    "QuadratureRule", "make_quadrature", "state_from_angles",
    "density_from_bloch", "bloch_from_state", "check_density", "fidelity",
    # single meter
    "NonInformativeCouplingError", "probabilities_single", "estimate_sz",
    "fisher_inverse_single", "qttf_single", "max_error_single",
    "two_design_average",
    # model
    "MeterModel", "kraus_transfer", "simulate_meter_process",
    "SingularInformationError", "fisher_from_transfer", "fisher_matrix_form",
    "delta_from_transfer", "qttf_from_transfer", "OptimizationResult",
    # two-meter model
    "REFERENCE_COUPLINGS", "TwoMeterModel", "joint_unitary", "qttf_two_meter",
    "optimize_two_meter",
    # circuit model
    "REFERENCE_OPTIMUM", "build_circuit", "circuit_unitary", "qttf_circuit",
    "optimize_circuit",
    # estimators
    "NonInvertibleModelError", "LinearInversionResult", "linear_inversion",
    "radial_clip", "MleResult", "saturated_mle", "rho_r_mle", "log_likelihood",
    # harness
    "DEFAULT_SEED", "ExperimentReport", "run_single_experiment",
    "run_full_experiment", "variance_vs_fisher_scan", "IdentityReport",
    "binomial_variance_identity", "estimator_variance_identity",
}


def test_public_surface_is_pinned():
    assert len(qtomo.__all__) == len(set(qtomo.__all__)) == 54
    assert set(qtomo.__all__) == PUBLIC_NAMES


def test_qttf_from_transfer_has_one_exact_path():
    # the quadrature average is the private oracle model._qttf_quadrature
    assert list(inspect.signature(qtomo.qttf_from_transfer).parameters) == ["tmat"]


def test_rho_r_mle_takes_its_stopping_rules_as_keywords():
    # R-rho-R's step tolerance is a module constant, not an option
    params = inspect.signature(qtomo.rho_r_mle).parameters
    assert list(params) == ["freqs", "tmat", "max_iter", "gap_tol", "likelihood_trace"]
    keywords = [name for name, p in params.items() if p.kind is p.KEYWORD_ONLY]
    assert keywords == ["max_iter", "gap_tol", "likelihood_trace"]
    assert params["max_iter"].default == 10000
    assert params["gap_tol"].default is None


@pytest.mark.parametrize(
    "cls, names",
    [
        (qtomo.harness.FullStateRow,
         ["label", "truth", "mean", "std", "fidelity", "physical_fraction"]),
        (qtomo.harness.SingleStateRow, ["label", "truth", "mean", "std", "within_3sigma"]),
        (qtomo.model.RestartOutcome,
         ["params", "value", "iterations", "converged", "evaluations", "seconds"]),
    ],
    ids=["FullStateRow", "SingleStateRow", "RestartOutcome"],
)
def test_result_fields_are_pinned(cls, names):
    # result types carry only fields that a caller reads
    assert [f.name for f in dataclasses.fields(cls)] == names


# Names the harness and CLI run in production, exported at both levels.
PRODUCTION_NAMES = (
    ("", "saturated_mle"),
    ("estimators", "saturated_mle"),
)


@pytest.mark.parametrize("module,name", PRODUCTION_NAMES)
def test_production_names_are_exported(module, name):
    mod = importlib.import_module(f"qtomo.{module}" if module else "qtomo")
    assert name in mod.__all__


@pytest.mark.parametrize("module", ("",) + MODULES)
def test_all_entries_resolve(module):
    mod = importlib.import_module(f"qtomo.{module}" if module else "qtomo")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing


@pytest.mark.parametrize("module,name", BENCHMARK_NAMES)
def test_benchmark_names_exist(module, name):
    mod = importlib.import_module(f"qtomo.{module}" if module else "qtomo")
    assert hasattr(mod, name), f"qtomo.{module}.{name}" if module else name


def test_default_rule_is_the_64x64_reference():
    # the benchmark's set-up process checks for 4096 nodes
    assert qtomo.model.default_rule().weights.size == 4096
