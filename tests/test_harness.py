"""Seeded experiments, table reproduction, and variance identities."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtomo.circuit import REFERENCE_OPTIMUM, build_circuit
from qtomo.core import PAULI_EIGENSTATES, bloch_from_state, state_from_angles
from qtomo.harness import (
    DEFAULT_SEED,
    binomial_variance_identity,
    direction_fidelity,
    estimator_variance_identity,
    per_shot_variance_identity,
    run_full_experiment,
    run_single_experiment,
    variance_vs_fisher_scan,
)
from qtomo.twometer import REFERENCE_COUPLINGS, TwoMeterModel

TABLE_THETAS = (math.pi / 2, 2 * math.pi / 3, math.pi)


def test_pauli_eigenstate_set_is_the_octahedron():
    states = PAULI_EIGENSTATES
    assert len(states) == 6
    vecs = np.array([bloch_from_state(s)[1:] for s in states])
    # antipodal pairs along each axis
    np.testing.assert_allclose(sorted(np.abs(vecs).sum(axis=1)), np.ones(6), atol=1e-12)
    np.testing.assert_allclose(vecs.sum(axis=0), np.zeros(3), atol=1e-12)


def test_direction_fidelity_properties():
    truth = np.array([1.0, 0.0, 0.0, 1.0])
    aligned = np.array([1.0, 0.0, 0.0, 0.4])  # shrunk but pointing right
    assert direction_fidelity(truth, aligned) == pytest.approx(1.0, abs=1e-12)
    orthogonal = np.array([1.0, 0.7, 0.0, 0.0])
    assert direction_fidelity(truth, orthogonal) == pytest.approx(0.5, abs=1e-12)
    opposite = np.array([1.0, 0.0, 0.0, -0.2])
    assert direction_fidelity(truth, opposite) == pytest.approx(0.0, abs=1e-12)
    assert direction_fidelity(truth, np.array([1.0, 0.0, 0.0, 0.0])) == 0.5


def test_run_single_experiment_deterministic_and_labeled():
    a = run_single_experiment(math.pi / 2, seed=5)
    b = run_single_experiment(math.pi / 2, seed=5)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.mean == rb.mean and ra.std == rb.std
    assert [r.label for r in a.rows] == ["z0", "z1", "x0", "x1", "y0", "y1"]
    with pytest.raises(ValueError):
        run_single_experiment(math.pi / 2, repeats=1)


def test_single_experiment_reproduces_reference_rows():
    # 5 x 1024 shots at the three benchmark couplings: every mean lands
    # within 3 sigma of the truth at the shipped seed
    for theta in TABLE_THETAS:
        report = run_single_experiment(theta, seed=DEFAULT_SEED)
        assert all(r.within_3sigma for r in report.rows), theta


def test_z0_at_pi_is_noiseless():
    report = run_single_experiment(math.pi, seed=DEFAULT_SEED)
    row = report.rows[0]
    assert row.label == "z0"
    assert row.mean == 1.0
    assert row.std == 0.0


def test_full_experiment_exact_mode(models=None):
    model = TwoMeterModel(*REFERENCE_COUPLINGS)
    for estimator in ("mle", "linear"):
        report = run_full_experiment(model, estimator=estimator, exact=True)
        for row in report.rows:
            assert row.fidelity > 1.0 - 1e-6
            np.testing.assert_allclose(row.std, np.zeros(3))
        assert report.repeats == 1


def test_full_experiment_reproduces_reference_fidelities():
    two_meter = TwoMeterModel(*REFERENCE_COUPLINGS)
    report = run_full_experiment(two_meter, estimator="mle", seed=DEFAULT_SEED)
    assert min(r.fidelity for r in report.rows) >= 0.995
    circuit = build_circuit(REFERENCE_OPTIMUM)
    report = run_full_experiment(circuit, estimator="linear", seed=DEFAULT_SEED)
    assert min(r.fidelity for r in report.rows) >= 0.995


def test_full_experiment_mle_is_the_exact_solver(monkeypatch):
    from qtomo import estimators, harness

    calls = []

    def spy(freqs, tmat):
        calls.append(freqs)
        return estimators.saturated_mle(freqs, tmat)

    monkeypatch.setattr(harness, "saturated_mle", spy)
    report = run_full_experiment(
        TwoMeterModel(*REFERENCE_COUPLINGS), estimator="mle", repeats=2
    )
    assert len(calls) == 12  # six states, two repeats
    assert report.kind == "full/mle"


def test_full_experiment_rejects_unknown_estimator():
    with pytest.raises(ValueError):
        run_full_experiment(TwoMeterModel(*REFERENCE_COUPLINGS), estimator="map")


@pytest.mark.parametrize(
    "kwargs", [{"shots": 0}, {"repeats": 1}, {"repeats": 0}],
    ids=["shots0", "repeats1", "repeats0"],
)
def test_full_experiment_rejects_degenerate_sampling(kwargs):
    model = TwoMeterModel(*REFERENCE_COUPLINGS)
    with pytest.raises(ValueError, match="shots|repeats"):
        run_full_experiment(model, estimator="linear", **kwargs)
    # exact mode draws nothing, so shots and repeats do not apply
    report = run_full_experiment(model, estimator="linear", exact=True, **kwargs)
    assert report.repeats == 1


def test_variance_scan_single_model():
    rows = variance_vs_fisher_scan(theta=math.pi / 2, trials=400, seed=0)
    assert [r.shots for r in rows] == [100, 1000, 10000, 100000]
    assert 0.9 <= rows[-1].ratio <= 1.1
    again = variance_vs_fisher_scan(theta=math.pi / 2, trials=400, seed=0)
    assert rows == list(again) or rows == again  # deterministic


def test_variance_scan_full_model():
    model = TwoMeterModel(*REFERENCE_COUPLINGS)
    rows = variance_vs_fisher_scan(model, trials=400, seed=0)
    assert 0.9 <= rows[-1].ratio <= 1.1
    # no row may beat the bound beyond the statistical allowance; the
    # scan itself raises if that happens, so reaching here is the check
    for row in rows:
        assert row.mean_variance > 0


def test_variance_scan_argument_validation():
    with pytest.raises(ValueError):
        variance_vs_fisher_scan()
    with pytest.raises(ValueError):
        variance_vs_fisher_scan(
            TwoMeterModel(*REFERENCE_COUPLINGS), theta=1.0
        )
    with pytest.raises(ValueError):
        variance_vs_fisher_scan(theta=1.0, shot_grid=(1000, 100))


@given(
    st.floats(0.01, math.pi / 2 - 0.01),
    st.floats(0.0, math.pi),
    st.floats(0.15, math.pi),
)
@settings(max_examples=60)
def test_binomial_variance_identity_exact(a1, a2, theta):
    psi = state_from_angles(a1, a2)
    report = binomial_variance_identity(psi, theta)
    assert report.max_abs_diff < 1e-12 * max(1.0, report.rhs[0])


@given(st.integers(0, 2000), st.integers(0, 2000), st.floats(0.3, math.pi))
@settings(max_examples=50)
def test_per_shot_variance_identity(n0, n1, theta):
    if n0 + n1 < 2:
        n0 += 2
    report = per_shot_variance_identity(np.array([n0, n1]), theta)
    assert report.max_abs_diff < 1e-9 * max(1.0, report.rhs[0])


def test_per_shot_variance_needs_two_shots():
    with pytest.raises(ValueError):
        per_shot_variance_identity(np.array([1, 0]), 1.0)


def test_estimator_variance_identity_both_models():
    rng = np.random.default_rng(9)
    tmats = [
        TwoMeterModel(*REFERENCE_COUPLINGS).transfer_matrix(),
        build_circuit(REFERENCE_OPTIMUM).transfer_matrix(),
    ]
    for tmat in tmats:
        for _ in range(25):
            psi = state_from_angles(
                rng.uniform(0, math.pi / 2), rng.uniform(0, math.pi)
            )
            report = estimator_variance_identity(psi, tmat)
            assert report.max_abs_diff < 1e-10
            assert report.lhs.shape == (3,)
            np.testing.assert_allclose(report.lhs, report.rhs, atol=1e-10)
