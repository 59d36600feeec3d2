"""Public names: every export resolves, and the benchmark's imports exist.

perfbench/ drives qtomo through the names checked here; its own smoke
test is slow and runs outside this suite, so a deletion that breaks the
benchmark must fail here first.
"""
import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

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
# Oracles that only checks call live in the private module qtomo._oracles.
PUBLIC_NAMES = {
    "__version__",
    # core
    "SIGMA", "PAULI_EIGENSTATES", "PAULI_EIGENSTATE_LABELS",
    "QuadratureRule", "make_quadrature", "state_from_angles",
    "density_from_bloch", "bloch_from_state", "check_density", "fidelity",
    # single meter
    "NonInformativeCouplingError", "probabilities_single", "estimate_sz",
    "fisher_inverse_single", "qttf_single", "max_error_single",
    # model
    "MeterModel", "SingularInformationError", "NonInvertibleModelError",
    "fisher_from_transfer", "delta_from_transfer", "qttf_from_transfer",
    "OptimizationResult",
    # two-meter model
    "REFERENCE_COUPLINGS", "TwoMeterModel", "qttf_two_meter", "optimize_two_meter",
    # circuit model
    "REFERENCE_OPTIMUM", "build_circuit", "qttf_circuit", "optimize_circuit",
    # estimators
    "LinearInversionResult", "linear_inversion", "radial_clip", "MleResult",
    "saturated_mle", "rho_r_mle", "log_likelihood",
    # harness
    "DEFAULT_SEED", "run_single_experiment", "run_full_experiment",
    "variance_vs_fisher_scan",
}


def test_public_surface_is_pinned():
    assert len(qtomo.__all__) == len(set(qtomo.__all__)) == 43
    assert set(qtomo.__all__) == PUBLIC_NAMES


# Modules on production paths: none may import the oracles, and only the
# CLI may import the identity suite, the oracles' one runtime reader.
PRODUCTION_MODULES = (
    "__init__", "core", "single", "model", "twometer", "circuit", "estimators", "harness", "cli"
)


def _imported_modules(module: str) -> set:
    """Every module name a source file's import statements could bind.

    `from .x import y` counts as qtomo.x and qtomo.x.y, since y may be a
    submodule; `import a.b` counts as a.b.
    """
    tree = ast.parse(Path(qtomo.__file__).with_name(f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("qtomo" + (f".{node.module}" if node.module else "")
                    if node.level else node.module)
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_the_import_scan_sees_the_suites_imports():
    # the scan must see the imports the test below forbids elsewhere
    assert "qtomo._oracles" in _imported_modules("identities")
    assert "qtomo.identities" in _imported_modules("cli")


@pytest.mark.parametrize("module", PRODUCTION_MODULES)
def test_production_modules_do_not_import_the_oracles(module):
    imported = _imported_modules(module)
    assert "qtomo._oracles" not in imported
    if module != "cli":
        assert "qtomo.identities" not in imported


def test_qttf_from_transfer_has_one_exact_path():
    # the quadrature average is the private oracle _oracles._qttf_quadrature
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
         ["params", "value", "iterations", "converged", "evaluations", "seconds",
          "gradient_norm"]),
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
