"""Public names: every export resolves, and the benchmark's imports exist.

perfbench/ drives qtomo through the names checked here; its own smoke
test is slow and runs outside this suite, so a deletion that breaks the
benchmark must fail here first.
"""
import importlib

import pytest

import qtomo

MODULES = ("core", "single", "model", "twometer", "circuit", "estimators", "harness")

# (module, name) pairs the benchmark under perfbench/ imports or calls.
BENCHMARK_NAMES = (
    ("model", "default_rule"),
    ("model", "delta_surface"),
    ("model", "EIGENVALUE_FLOOR"),
    ("twometer", "transfer_matrix"),
    ("twometer", "coefficients_closed_form"),
    ("twometer", "meter_unitaries"),
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
)


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
