"""Parameterized circuit model: gates, transfer matrix, optimization."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtomo._oracles import (
    _gates,
    _qttf_quadrature,
    _u3_entries,
    circuit_unitary,
    kraus_transfer,
    simulate_meter_process,
)
from qtomo.circuit import (
    REFERENCE_OPTIMUM,
    _bloch_of_adjoint_plus,
    _bloch_of_gate_plus,
    _transfer_rows,
    build_circuit,
    optimize_circuit,
    qttf_circuit,
    value_and_gradient,
)
from qtomo.core import (
    bloch_from_state,
    density_from_bloch,
    make_quadrature,
    state_from_angles,
)
from qtomo.estimators import linear_inversion
from qtomo.model import _qttf_rows, default_rule, minimize_with_restarts, qttf_from_transfer
from qtomo.twometer import optimize_two_meter

gate_angles = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)


def u3(theta, phi, lam):
    # the full-angle gate as a 2x2 matrix of the circuit's scalar entries
    return np.array(_u3_entries(theta, phi, lam)).reshape(2, 2)


def test_u3_known_gates():
    # full-angle entries: the bit flip sits at theta = pi/2
    np.testing.assert_allclose(
        u3(math.pi / 2, 0.0, math.pi), [[0, 1], [1, 0]], atol=1e-12
    )
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    np.testing.assert_allclose(u3(math.pi / 4, 0.0, math.pi), h, atol=1e-12)
    np.testing.assert_allclose(u3(0.0, 0.0, 0.0), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(
        np.diag(u3(math.pi / 4, 0.0, 0.0)).real,
        [math.cos(math.pi / 4)] * 2,
        atol=1e-12,
    )


@given(gate_angles, gate_angles, gate_angles)
@settings(max_examples=50)
def test_u3_unitary(theta, phi, lam):
    u = u3(theta, phi, lam)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_build_circuit_validates_length():
    with pytest.raises(ValueError):
        build_circuit((0.1, 0.2, 0.3))
    with pytest.raises(ValueError):
        build_circuit(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        qttf_circuit((0.1, 0.2, 0.3))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("index", [0, 5, 11])
def test_non_finite_parameter_is_named(value, index):
    # inf raised a bare math domain error from the row builder, and NaN a
    # transfer-matrix message naming no parameter
    params = list(REFERENCE_OPTIMUM)
    params[index] = value
    message = f"circuit parameter {index} must be finite, got {value}"
    for call in (build_circuit, qttf_circuit):
        with pytest.raises(ValueError, match=message):
            call(params)


def _draw_params(rng, full_angle):
    # doubling the thetas gives the full-angle gates u3(theta, phi, lambda)
    # of the draw
    params = rng.uniform(0.0, 2 * math.pi, size=12)
    if full_angle:
        params[0::3] *= 2.0
    return params


@pytest.mark.parametrize("full_angle", [False, True])
def test_factored_transfer_matches_kraus_read_and_simulation(full_angle):
    # T from the 2x2 gate factors against the Kraus read of the compiled
    # 8x8 unitary and against 8x8 density-matrix evolution
    rng = np.random.default_rng(11)
    for _ in range(200):
        params = _draw_params(rng, full_angle)
        tmat = build_circuit(params).transfer_matrix()
        unitary = circuit_unitary(params)
        np.testing.assert_allclose(tmat, kraus_transfer(unitary), rtol=0, atol=1e-12)
        bloch = bloch_from_state(
            state_from_angles(rng.uniform(0.0, math.pi / 2), rng.uniform(0.0, math.pi))
        )
        sim = simulate_meter_process(density_from_bloch(bloch), unitary)
        np.testing.assert_allclose(tmat @ bloch, sim, rtol=0, atol=1e-12)


@pytest.mark.parametrize("full_angle", [False, True])
def test_qttf_circuit_matches_kraus_read(full_angle):
    # the qTTF's relative round-off grows with cond(T); over 3000 seeded
    # circuits the worst gap was about 3 eps cond(T)
    rng = np.random.default_rng(12)
    for _ in range(50):
        params = _draw_params(rng, full_angle)
        tmat = kraus_transfer(circuit_unitary(params))
        reference = qttf_from_transfer(tmat)
        value = qttf_circuit(params)
        allowed = 16 * np.finfo(float).eps * np.linalg.cond(tmat)
        assert abs(value - reference) <= allowed * abs(reference)


def test_block_unitary_is_unitary():
    u = circuit_unitary(REFERENCE_OPTIMUM)
    assert u.shape == (8, 8)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)
    # the same parameter check as build_circuit
    for bad in (REFERENCE_OPTIMUM[:3], np.reshape(REFERENCE_OPTIMUM, (4, 3))):
        with pytest.raises(ValueError, match="12 circuit parameters"):
            circuit_unitary(bad)


def test_circuit_unitary_stack_is_the_per_row_call():
    # a (..., 12) array builds one unitary per row, each with the bits of
    # its own call
    rng = np.random.default_rng(13)
    params = rng.uniform(0.0, 2 * math.pi, size=(30, 12))
    params[1::2, 0::3] *= 2.0
    stack = circuit_unitary(params)
    assert stack.shape == (30, 8, 8)
    for row, unitary in zip(params, stack):
        assert unitary.tobytes() == circuit_unitary(row).tobytes()
    assert circuit_unitary(params.reshape(5, 6, 12)).tobytes() == stack.tobytes()
    assert circuit_unitary(params[:1]).shape == (1, 8, 8)
    for bad in (np.zeros((3, 11)), 0.5, np.zeros((12, 3))):
        with pytest.raises(ValueError, match="12 circuit parameters"):
            circuit_unitary(bad)


def _complex_rows(params):
    # the rows in Python complex arithmetic from the gate entries: an
    # independent route to T through the amplitudes alpha_a[s], beta_b[s]
    def amplitudes(first, second):
        f00, f01, f10, f11 = first
        s00, s01, s10, s11 = second
        v0, v1 = f00 + f01, f10 + f11
        w00, w10 = s00 * v0 + s01 * v1, s10 * v0 + s11 * v1
        w01, w11 = s00 * v1 + s01 * v0, s10 * v1 + s11 * v0
        return (w00 + w10, w01 + w11), (w00 - w10, w01 - w11)

    gate_a1, gate_a2, gate_b1, gate_b2 = _gates(params)
    meter_b = []
    for b0, b1 in amplitudes(gate_b1, gate_b2):
        p0 = b0.real * b0.real + b0.imag * b0.imag
        p1 = b1.real * b1.real + b1.imag * b1.imag
        meter_b.append((p0 + p1, p0 - p1))
    rows = []
    for a0, a1 in amplitudes(gate_a1, gate_a2):
        p0 = a0.real * a0.real + a0.imag * a0.imag
        p1 = a1.real * a1.real + a1.imag * a1.imag
        cross = a0.conjugate() * a1
        for b_sum, b_diff in meter_b:
            rows.append([
                (p0 + p1) * b_sum / 64.0,
                cross.real * b_diff / 32.0,
                -cross.imag * b_diff / 32.0,
                (p0 - p1) * b_sum / 64.0,
            ])
    return rows


@pytest.mark.parametrize("full_angle", [False, True])
def test_bloch_rows_match_the_complex_rows(full_angle):
    # T from the gates' Bloch vectors against T from their complex
    # entries, to a few eps flat, on 1000 draws per gate convention over
    # magnitudes 1e-4 to 1e4.  Neither route reads a rounded sum of
    # angles, so the gap does not grow with them
    tol = 6.0 * np.finfo(float).eps
    rng = np.random.default_rng(14)
    for _ in range(1000):
        params = rng.uniform(-1.0, 1.0, size=12) * 10.0 ** rng.uniform(-4.0, 4.0)
        if full_angle:
            params[0::3] *= 2.0
        params = params.tolist()
        np.testing.assert_allclose(_transfer_rows(params), _complex_rows(params), rtol=0, atol=tol)


def test_bloch_rows_match_the_complex_rows_on_special_angles():
    # the same flat bound on 2000 draws from angles where sines and
    # cosines vanish
    tol = 6.0 * np.finfo(float).eps
    grid = [0.0, -0.0, math.pi / 2, math.pi, -math.pi, 1.5 * math.pi, 2 * math.pi, 1e-300]
    rng = np.random.default_rng(19)
    for _ in range(2000):
        params = [grid[k] for k in rng.integers(0, len(grid), size=12)]
        np.testing.assert_allclose(_transfer_rows(params), _complex_rows(params), rtol=0, atol=tol)


@given(
    st.floats(0.0, math.pi / 2), st.floats(0.0, math.pi),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=40, deadline=None)
def test_transfer_matrix_matches_simulation(a1, a2, param_seed):
    rng = np.random.default_rng(param_seed)
    params = tuple(rng.uniform(0.0, 2 * math.pi, size=12))
    model = build_circuit(params)
    bloch = bloch_from_state(state_from_angles(a1, a2))
    sim = simulate_meter_process(density_from_bloch(bloch), circuit_unitary(params))
    np.testing.assert_allclose(model.transfer_matrix() @ bloch, sim, atol=1e-12)
    assert sim.sum() == pytest.approx(1.0, abs=1e-12)
    assert sim.min() >= -1e-12


def test_transfer_column_sums():
    tmat = build_circuit(REFERENCE_OPTIMUM).transfer_matrix()
    np.testing.assert_allclose(tmat.sum(axis=0), [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_gate_convention_changes_the_model():
    # the half-angle reading of the gate triples is the one that puts the
    # published parameter set at its published error level; the full-angle
    # reading, the same set with its thetas doubled, misses it
    doubled = np.array(REFERENCE_OPTIMUM)
    doubled[0::3] *= 2.0
    half = qttf_circuit(REFERENCE_OPTIMUM)
    full = qttf_circuit(doubled)
    assert 7.5 <= half <= 8.5
    assert full > 8.6


def test_qttf_circuit_reference_value():
    value = qttf_circuit(REFERENCE_OPTIMUM)
    assert value == pytest.approx(8.0006, abs=5e-3)


# Meter A's Bloch vectors m = (1, 1, 1)/sqrt(3) and n = (0, 1, 0), and
# meter B's m' = n' = (0, 0, 1): the effects form the tetrahedral SIC.
SIC_SETTING = (
    -math.asin(1.0 / math.sqrt(3.0)), math.pi / 4, 0.0,
    0.0, -math.pi / 2, 0.0,
    1.5 * math.pi, 0.0, 0.0,
    math.pi / 2, 0.0, 0.0,
)


def test_sic_setting_reaches_the_four_outcome_bound():
    # the closed form gives 3 + 6 - 1 = 8 there, the bound of
    # tests/test_model.py::test_qttf_respects_the_four_outcome_bound; the
    # rows form and the Kraus read of the 8x8 unitary agree
    tmat = build_circuit(SIC_SETTING).transfer_matrix()
    np.testing.assert_allclose(tmat[:, 0], 0.25, rtol=0, atol=1e-15)
    axes = tmat[:, 1:] / tmat[:, :1]
    np.testing.assert_allclose(axes @ axes.T, (4 * np.eye(4) - 1) / 3, rtol=0, atol=1e-14)
    for value in (
        qttf_circuit(SIC_SETTING),
        _qttf_rows(_transfer_rows(list(SIC_SETTING))),
        qttf_from_transfer(kraus_transfer(circuit_unitary(SIC_SETTING))),
    ):
        assert abs(value - 8.0) <= 1e-12


@pytest.mark.parametrize("full_angle", [False, True])
def test_gate_bloch_vectors_match_the_gate_entries(full_angle):
    # the closed-form Bloch vectors of G|+> and G^dag|+> against the
    # states built from the complex entries of u3(theta/2, phi, lambda),
    # over magnitudes 1e-4 to 1e4: to 1e-14 flat, since the oracle reads
    # e^{i(phi + lambda)} as e^{i phi} e^{i lambda}, not from the rounded
    # sum phi + lambda
    rng = np.random.default_rng(41)
    root_half = 1.0 / math.sqrt(2.0)
    for _ in range(1000):
        scale = 10.0 ** rng.uniform(-4.0, 4.0)
        theta, phi, lam = (rng.uniform(-1.0, 1.0, size=3) * scale).tolist()
        if full_angle:
            theta *= 2.0
        gate = np.array(_u3_entries(theta / 2.0, phi, lam), dtype=complex).reshape(2, 2)
        image = bloch_from_state(gate @ [root_half, root_half])[1:]
        preimage = bloch_from_state(gate.conj().T @ [root_half, root_half])[1:]
        np.testing.assert_allclose(_bloch_of_gate_plus(theta, phi, lam), image, rtol=0, atol=1e-14)
        np.testing.assert_allclose(_bloch_of_adjoint_plus(theta, phi, lam), preimage, rtol=0, atol=1e-14)


def test_qttf_quadrature_stability():
    tmat = build_circuit(REFERENCE_OPTIMUM).transfer_matrix()
    coarse = _qttf_quadrature(tmat, make_quadrature(32, 32))
    fine = _qttf_quadrature(tmat, make_quadrature(64, 64))
    assert abs(coarse - fine) < 0.05


def test_reference_params_are_locally_optimal():
    # a local polish from the published point must not find a meaningfully
    # better value, by the quadrature average
    rule = make_quadrature(32, 32)

    def quadrature(params):
        return _qttf_quadrature(build_circuit(params).transfer_matrix(), rule)

    result = minimize_with_restarts(value_and_gradient, [np.asarray(REFERENCE_OPTIMUM)])
    assert quadrature(REFERENCE_OPTIMUM) - quadrature(result.params) < 1e-3


def test_optimize_circuit_smoke():
    result = optimize_circuit(restarts=2, seed=0)
    assert math.isfinite(result.value)
    assert result.value <= 9.0
    assert len(result.restarts) == 2
    assert len(result.params) == 12


@pytest.mark.parametrize("optimize", [optimize_two_meter, optimize_circuit],
                         ids=["two-meter", "circuit"])
@pytest.mark.parametrize(
    "kwargs, name",
    [({"restarts": 0}, "restarts"), ({"restarts": 1.5}, "restarts"),
     ({"restarts": 1, "seed": 1.5}, "seed"), ({"restarts": 1, "seed": -1}, "seed")],
    ids=["restarts-0", "restarts-float", "seed-float", "seed-negative"],
)
def test_optimizers_refuse_a_bad_count_naming_it(optimize, kwargs, name):
    # a float count or seed raised TypeError, and a negative seed numpy's
    # ValueError, which named no argument
    with pytest.raises(ValueError, match=f"^{name} must be an integer of at least"):
        optimize(**kwargs)


def test_linear_inversion_roundtrip_through_circuit():
    model = build_circuit(REFERENCE_OPTIMUM)
    bloch = bloch_from_state(state_from_angles(1.2, 0.4))
    probs = simulate_meter_process(density_from_bloch(bloch), circuit_unitary(REFERENCE_OPTIMUM))
    est = linear_inversion(probs, model.transfer_matrix())
    np.testing.assert_allclose(est.bloch, bloch, atol=1e-10)
    assert math.isfinite(np.linalg.cond(model.transfer_matrix()))


def test_simulate_requires_valid_density():
    unitary = circuit_unitary(REFERENCE_OPTIMUM)
    with pytest.raises(ValueError):
        simulate_meter_process(np.eye(2), unitary)  # trace 2


def test_exact_qttf_matches_quadrature():
    # relative gap allowed: 1e-9 plus the quadrature's own round-off,
    # which grows like eps * lambda_max * value (see test_twometer)
    rng = np.random.default_rng(0)
    rule = default_rule()
    for _ in range(50):
        tmat = build_circuit(rng.uniform(0.0, 2 * math.pi, size=12)).transfer_matrix()
        exact = qttf_from_transfer(tmat)
        quad = _qttf_quadrature(tmat, rule)
        assert abs(exact - quad) <= (1e-9 + 1e-14 * exact) * exact


def test_reference_circuit_is_near_tetrahedral():
    # T[q] = (1, n_q)/4 for a SIC POVM: unit Bloch vectors with pairwise
    # products -1/3, the geometry that makes the qTTF 8
    tmat = build_circuit(REFERENCE_OPTIMUM).transfer_matrix()
    np.testing.assert_allclose(tmat[:, 0], 0.25, atol=1e-3)
    normals = 4.0 * tmat[:, 1:]
    np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-2)
    overlaps = (normals @ normals.T)[np.triu_indices(4, 1)]
    np.testing.assert_allclose(overlaps, -1.0 / 3.0, atol=1e-2)
