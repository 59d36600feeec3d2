"""Acceptance gate: one test per shipped claim, one verdict line each.

Every test measures its claim at the stated tolerance and prints
`acceptance N: PASS|FAIL - detail` through the terminal reporter with
output capture suspended, so the verdict lines show without `-s`.
Runtime limits are asserted alongside the numerical claims.
"""
import json
import math
import time

import numpy as np
import pytest

from qtomo._oracles import (
    _qttf_quadrature,
    _qttf_single_quadrature,
    joint_unitary,
    kraus_transfer,
    six_state_qttf,
    six_state_transfer,
)
from qtomo.circuit import REFERENCE_OPTIMUM, build_circuit, optimize_circuit, qttf_circuit
from qtomo.cli import main
from qtomo.core import make_quadrature, state_from_angles
from qtomo.harness import (
    DEFAULT_SEED,
    run_full_experiment,
    run_single_experiment,
    variance_vs_fisher_scan,
)
from qtomo.identities import binomial_variance_identity, estimator_variance_identity
from qtomo.model import qttf_from_transfer
from qtomo.single import qttf_single
from qtomo.twometer import (
    REFERENCE_COUPLINGS,
    TwoMeterModel,
    optimize_two_meter,
    qttf_two_meter,
    transfer_matrix,
    value_and_gradient,
)

TABLE_THETAS = (math.pi / 2, 2 * math.pi / 3, math.pi)

# Literature value of the two-meter qTTF at REFERENCE_COUPLINGS.  The
# model documented here does not reproduce it (see the README); it is
# printed beside the computed value, not asserted.
LITERATURE_TWO_METER_QTTF = 17.0


@pytest.fixture
def verdict(request):
    """Collects (criterion id, ok, detail); prints the line on teardown."""
    slot = {}
    yield slot
    plugins = request.config.pluginmanager
    reporter = plugins.get_plugin("terminalreporter")
    capture = plugins.get_plugin("capturemanager")
    if slot and reporter is not None:
        status = "PASS" if slot["ok"] else "FAIL"
        with capture.global_and_fixture_disabled():
            reporter.write_line(
                f"acceptance {slot['id']}: {status} - {slot['detail']}"
            )


def test_criterion_1_single_meter_minimum_and_quadrature(verdict):
    start = time.perf_counter()
    at_pi = qttf_single(math.pi)
    thetas = np.linspace(0.1, math.pi, 51)[1:]
    rule = make_quadrature(64, 64)
    gap = max(
        abs(qttf_single(t) - _qttf_single_quadrature(t, rule)) for t in thetas
    )
    elapsed = time.perf_counter() - start
    ok = (
        abs(at_pi - 2.0 / 3.0) < 1e-9
        and gap < 1e-8
        and elapsed < 1.0
    )
    verdict.update(
        id=1, ok=ok,
        detail=f"qttf(pi)={at_pi:.12f}, max closed-vs-quadrature gap "
               f"{gap:.2e} on 50 points, {elapsed:.2f}s",
    )
    assert ok, verdict["detail"]


def trace_form_transfer(theta_a, theta_b):
    """Two-meter transfer matrix read off the Kraus operators of the joint
    unitary, E_q = K_q^dag K_q and T[q, mu] = Tr(E_q sigma_mu)/2."""
    return kraus_transfer(joint_unitary(theta_a, theta_b))


def simulated_qttf(theta_a, theta_b):
    """qTTF from the simulated process, sharing no code with qttf_two_meter:
    the six-state average on a T fitted to six 8x8 density-matrix runs."""
    return float(six_state_qttf(six_state_transfer(joint_unitary(theta_a, theta_b)))[0])


def test_criterion_2_two_meter_optimum_value(verdict):
    start = time.perf_counter()
    # (a) value at the reference couplings against the simulated process
    reference = qttf_two_meter(*REFERENCE_COUPLINGS)
    full_azimuth = make_quadrature(64, 128, alpha2_limit=2 * math.pi)
    reference_full = _qttf_quadrature(
        transfer_matrix(*REFERENCE_COUPLINGS), full_azimuth
    )
    reference_oracle = simulated_qttf(*REFERENCE_COUPLINGS)
    reference_ok = all(
        math.isclose(value, reference_oracle, rel_tol=1e-9)
        for value in (reference, reference_full)
    )

    # (b) the 20-restart best: the least restart, reproduced by the oracle,
    # stationary by the oracle's central differences and by the analytic
    # gradient, and an improvement on the reference couplings
    result = optimize_two_meter(restarts=20, seed=0)
    best = result.value
    best_oracle = simulated_qttf(*result.params)
    h = 1e-4
    gradient = [
        (simulated_qttf(*(result.params + d)) - simulated_qttf(*(result.params - d)))
        / (2 * h)
        for d in h * np.eye(2)
    ]
    grad_norm = float(np.linalg.norm(gradient))
    analytic_norm = math.hypot(*value_and_gradient(result.params.tolist())[1])
    best_ok = (
        math.isfinite(best)
        and best == min(r.value for r in result.restarts)
        and math.isclose(best, best_oracle, rel_tol=1e-9)
        and grad_norm < 1e-3
        and analytic_norm < 1e-3
        and best < reference_oracle
    )

    # (c) no worse than brute force over the optimizer's start box
    grid = np.arange(-3 * math.pi, 3 * math.pi, 0.1)
    grid_min = float(
        six_state_qttf([trace_form_transfer(a, b) for a in grid for b in grid]).min()
    )
    grid_ok = best <= grid_min

    elapsed = time.perf_counter() - start
    ok = reference_ok and best_ok and grid_ok and elapsed < 300.0
    verdict.update(
        id=2, ok=ok,
        detail=f"value at ({REFERENCE_COUPLINGS[0]}, {REFERENCE_COUPLINGS[1]}) "
               f"{reference:.6f} (full azimuth {reference_full:.6f}, "
               f"simulated six-state {reference_oracle:.6f}; literature "
               f"~{LITERATURE_TWO_METER_QTTF:.1f}, not reproduced); 20-restart "
               f"best {best:.6f} at ({result.params[0]:.3f}, "
               f"{result.params[1]:.3f}), simulated {best_oracle:.6f}, "
               f"|grad| {grad_norm:.1e} (analytic {analytic_norm:.1e}); start-box grid minimum "
               f"{grid_min:.3f}; {elapsed:.0f}s",
    )
    assert ok, verdict["detail"]


def test_criterion_3_circuit_reference_and_optimization(verdict):
    start = time.perf_counter()
    at_reference = qttf_circuit(REFERENCE_OPTIMUM)
    result = optimize_circuit(restarts=50, seed=0)
    elapsed = time.perf_counter() - start
    at_bound = sum(abs(r.value - 8.0) <= 1e-9 for r in result.restarts)
    ok = 7.5 <= at_reference <= 8.5 and result.value <= 8.5 and elapsed < 900.0
    verdict.update(
        id=3, ok=ok,
        detail=f"published params give {at_reference:.4f} (half-angle gate "
               f"reading), 50-restart best {result.value:.4f}, {at_bound} of 50 "
               f"restarts at 8 within 1e-9, {elapsed:.0f}s",
    )
    assert ok, verdict["detail"]


def test_criterion_4_single_meter_table(verdict):
    start = time.perf_counter()
    all_rows = []
    for theta in TABLE_THETAS:
        all_rows.extend(run_single_experiment(theta, seed=DEFAULT_SEED))
    z0_pi = run_single_experiment(math.pi, seed=DEFAULT_SEED)[0]
    elapsed = time.perf_counter() - start
    n_pass = sum(r.within_3sigma for r in all_rows)
    exact = z0_pi.mean == 1.0 and z0_pi.std == 0.0
    ok = n_pass == 18 and exact and elapsed < 30.0
    verdict.update(
        id=4, ok=ok,
        detail=f"{n_pass}/18 rows within 3 sigma, z0 at pi = "
               f"{z0_pi.mean:.2f} +- {z0_pi.std:.2f}, {elapsed:.1f}s",
    )
    assert ok, verdict["detail"]


def test_criterion_5_full_model_tables(verdict):
    start = time.perf_counter()
    two_meter = run_full_experiment(
        TwoMeterModel(*REFERENCE_COUPLINGS), estimator="mle", seed=DEFAULT_SEED
    )
    circuit = run_full_experiment(
        build_circuit(REFERENCE_OPTIMUM), estimator="linear", seed=DEFAULT_SEED
    )
    elapsed = time.perf_counter() - start
    min_mle = min(r.fidelity for r in two_meter)
    min_li = min(r.fidelity for r in circuit)
    ok = min_mle >= 0.995 and min_li >= 0.995 and elapsed < 60.0
    verdict.update(
        id=5, ok=ok,
        detail=f"min fidelity {min_mle:.4f} (two-meter, max-likelihood) / "
               f"{min_li:.4f} (circuit, linear inversion) over six states, "
               f"5x1024 shots, {elapsed:.1f}s",
    )
    assert ok, verdict["detail"]


def test_criterion_6_binomial_variance_and_scan(verdict):
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        psi = state_from_angles(
            rng.uniform(0, math.pi / 2), rng.uniform(0, math.pi)
        )
        theta = rng.uniform(0.1, math.pi)
        worst = max(worst, binomial_variance_identity(psi, theta).max_abs_diff)
    single_rows = variance_vs_fisher_scan(theta=math.pi / 2, trials=1000, seed=0)
    full_rows = variance_vs_fisher_scan(
        TwoMeterModel(*REFERENCE_COUPLINGS), trials=1000, seed=0
    )
    elapsed = time.perf_counter() - start
    r_single = single_rows[-1].ratio
    r_full = full_rows[-1].ratio
    ok = (
        worst < 1e-12
        and 0.9 <= r_single <= 1.1
        and 0.9 <= r_full <= 1.1
        and elapsed < 120.0
    )
    verdict.update(
        id=6, ok=ok,
        detail=f"identity max dev {worst:.2e} over 1000 draws; variance/bound "
               f"at N=1e5: {r_single:.3f} single, {r_full:.3f} full; "
               f"{elapsed:.1f}s",
    )
    assert ok, verdict["detail"]


def test_criterion_7_estimator_variance_identity(verdict):
    rng = np.random.default_rng(1)
    tmats = {
        "two-meter": TwoMeterModel(*REFERENCE_COUPLINGS).transfer_matrix(),
        "circuit": build_circuit(REFERENCE_OPTIMUM).transfer_matrix(),
    }
    worst = {}
    for name, tmat in tmats.items():
        dev = 0.0
        for _ in range(100):
            psi = state_from_angles(
                rng.uniform(0, math.pi / 2), rng.uniform(0, math.pi)
            )
            dev = max(dev, estimator_variance_identity(psi, tmat).max_abs_diff)
        worst[name] = dev
    ok = all(dev <= 1e-8 for dev in worst.values())
    verdict.update(
        id=7, ok=ok,
        detail="max deviation from diag(F^-1): "
               + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
               + " (100 states each)",
    )
    assert ok, verdict["detail"]


def test_criterion_8_coefficient_closed_forms(verdict):
    rng = np.random.default_rng(8)
    worst = 0.0
    for i in range(1000):
        if i % 20 == 0:
            ta = rng.uniform(-1, 1) * 5e-7
            tb = rng.uniform(-1, 1) * 5e-7
        else:
            ta = rng.uniform(-3 * math.pi, 3 * math.pi)
            tb = rng.uniform(-3 * math.pi, 3 * math.pi)
        closed = transfer_matrix(ta, tb)
        trace = trace_form_transfer(ta, tb)
        worst = max(worst, float(np.max(np.abs(closed - trace))))
    ok = worst <= 1e-10
    verdict.update(
        id=8, ok=ok,
        detail=f"closed-form vs Kraus-read transfer matrix: max dev "
               f"{worst:.2e} over 1000 pairs incl degenerate couplings",
    )
    assert ok, verdict["detail"]


def test_criterion_9_identity_suite_three_seeds(verdict, tmp_path):
    codes = {}
    for seed in (0, 1, 2):
        out = tmp_path / f"suite-{seed}.json"
        codes[seed] = main(
            ["check-identities", "--seed", str(seed), "--out", str(out)]
        )
        blob = json.loads(out.read_text())
        codes[seed] = (codes[seed], blob["all_pass"])
    ok = all(code == 0 and passed for code, passed in codes.values())
    verdict.update(
        id=9, ok=ok,
        detail="identity suite exit codes "
               + ", ".join(f"seed {s}: {c[0]}" for s, c in codes.items()),
    )
    assert ok, verdict["detail"]
