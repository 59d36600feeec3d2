"""Two-meter model: coefficients, transfer matrix, Fisher error surface."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtomo._oracles import (
    SIGN_MATRIX,
    _meter_unitaries,
    _qttf_quadrature,
    fisher_matrix_form,
    joint_unitary,
    kraus_transfer,
    simulate_meter_process,
)
from qtomo.core import (
    PAULI_EIGENSTATES,
    bloch_from_state,
    density_from_bloch,
    make_quadrature,
    state_from_angles,
)
from qtomo.estimators import linear_inversion
from qtomo.model import (
    SingularInformationError,
    default_rule,
    delta_from_transfer,
    delta_surface,
    fisher_from_transfer,
    minimize_with_restarts,
    qttf_from_transfer,
)
from qtomo.single import probabilities_single
from qtomo.twometer import (
    REFERENCE_COUPLINGS,
    TwoMeterModel,
    _coefficients,
    _forward,
    _half_sinc,
    _value_and_adjoint,
    optimize_two_meter,
    qttf_two_meter,
    transfer_matrix,
    value_and_gradient,
)

coupling = st.floats(min_value=-3 * math.pi, max_value=3 * math.pi)
angles1 = st.floats(min_value=0.0, max_value=math.pi / 2)
angles2 = st.floats(min_value=0.0, max_value=math.pi)

# the qTTF at the benchmark couplings; fixed as a regression anchor for
# the whole closed-form + averaging pipeline
QTTF_AT_REFERENCE = 24.646231015


def pauli_average(tmat):
    """Six-Pauli-eigenstate mean of Tr(F^-1) by plain matrix inversion."""
    ts = tmat[:, 1:]
    total = 0.0
    for psi in PAULI_EIGENSTATES:
        p = tmat @ bloch_from_state(psi)
        total += np.trace(np.linalg.inv(ts.T @ (ts / p[:, None])))
    return total / len(PAULI_EIGENSTATES)


def test_meter_unitaries_unitary_and_joint():
    u00, u01, u10, u11 = _meter_unitaries(1.3, -0.7)
    for u in (u00, u01, u10, u11):
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(u00, np.eye(2), atol=1e-15)
    # the generators do not commute, so the joint branch is not a product
    assert np.abs(u11 - u10 @ u01).max() > 1e-3
    assert np.abs(u11 - u01 @ u10).max() > 1e-3


def _stacked_couplings(seed):
    """500 couplings in [-3 pi, 3 pi]^2, 100 with |theta| < 1e-6, and (0, 0)."""
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [
            rng.uniform(-3 * math.pi, 3 * math.pi, size=(500, 2)),
            rng.uniform(-1e-6, 1e-6, size=(100, 2)),
            np.zeros((1, 2)),
        ]
    )


def test_joint_unitary_stack_is_the_per_pair_call():
    couplings = _stacked_couplings(23)
    theta_a, theta_b = couplings.T
    joint = joint_unitary(theta_a, theta_b)
    assert joint.shape == (len(couplings), 8, 8)
    branches = _meter_unitaries(theta_a, theta_b)
    assert all(u.shape == (len(couplings), 2, 2) for u in branches)
    for i, (a, b) in enumerate(couplings.tolist()):
        assert np.array_equal(joint[i], joint_unitary(a, b))
        for stacked, single in zip(branches, _meter_unitaries(a, b)):
            assert np.array_equal(stacked[i], single)
    # a scalar coupling broadcasts against an array of the other
    mixed = joint_unitary(theta_a[:7].reshape(7, 1), 1.25)
    assert mixed.shape == (7, 1, 8, 8)
    for a, member in zip(theta_a[:7], mixed[:, 0]):
        assert np.array_equal(member, joint_unitary(float(a), 1.25))


def test_scalar_couplings_keep_their_shapes():
    assert joint_unitary(*REFERENCE_COUPLINGS).shape == (8, 8)
    assert all(u.shape == (2, 2) for u in _meter_unitaries(*REFERENCE_COUPLINGS))
    assert kraus_transfer(joint_unitary(*REFERENCE_COUPLINGS)).shape == (4, 4)
    # each scalar branch is a fresh, writable array
    u00 = _meter_unitaries(0.1, 0.2)[0]
    u00[0, 0] = 2.0
    assert _meter_unitaries(0.1, 0.2)[0][0, 0] == 1.0


def test_batched_kraus_read_matches_closed_form():
    couplings = _stacked_couplings(29)
    reads = kraus_transfer(joint_unitary(*couplings.T))
    assert reads.shape == (len(couplings), 4, 4)
    for (a, b), read in zip(couplings.tolist(), reads):
        np.testing.assert_allclose(read, transfer_matrix(a, b), rtol=0, atol=1e-12)


@given(coupling, coupling)
@settings(max_examples=100, deadline=None)
def test_coefficients_closed_vs_trace(theta_a, theta_b):
    # closed-form T against the Kraus read of the joint unitary
    closed = transfer_matrix(theta_a, theta_b)
    kraus = kraus_transfer(joint_unitary(theta_a, theta_b))
    np.testing.assert_allclose(closed, kraus, atol=1e-12)


@pytest.mark.parametrize("scale", [1e-7, 1e-9, 0.0])
def test_coefficients_at_degenerate_couplings(scale):
    # theta_C = hypot(theta_A, theta_B) -> 0 exercises the sinc limit
    closed = transfer_matrix(scale, -scale)
    kraus = kraus_transfer(joint_unitary(scale, -scale))
    np.testing.assert_allclose(closed, kraus, atol=1e-12)


def test_coefficient_swap_relations():
    """Exchanging the meters permutes the coefficient letters.

    With the sign conventions fixed by the Kraus read, b maps to
    a under the swap with flips on mu = 1, 3, and c is symmetric in mu = 0
    and antisymmetric in mu = 2, 3.
    """
    rng = np.random.default_rng(3)
    for _ in range(30):
        ta, tb = rng.uniform(-3 * math.pi, 3 * math.pi, size=2)
        a, b, c = _coefficients(ta, tb)
        a_s, _, c_s = _coefficients(tb, ta)
        assert b[0] == pytest.approx(a_s[0], abs=1e-12)
        assert b[1] == pytest.approx(-a_s[3], abs=1e-12)
        assert b[2] == pytest.approx(-a_s[2], abs=1e-12)
        assert b[3] == pytest.approx(-a_s[1], abs=1e-12)
        assert c[0] == pytest.approx(c_s[0], abs=1e-12)
        assert c[2] == pytest.approx(-c_s[2], abs=1e-12)
        assert c[3] == pytest.approx(-c_s[1], abs=1e-12)


def test_specific_coefficient_values():
    # at (pi, 0) meter B idles: a0 = 0, a3 = 1/4, b row reduces to the
    # trivial 1/8 cos structure
    a, b, c = _coefficients(math.pi, 0.0)
    assert a[0] == pytest.approx(0.0, abs=1e-12)
    assert a[3] == pytest.approx(0.25, abs=1e-12)
    assert b[1] == pytest.approx(0.0, abs=1e-12)
    assert c[2] == pytest.approx(0.0, abs=1e-12)


@given(angles1, angles2, coupling, coupling)
@settings(max_examples=60, deadline=None)
def test_transfer_matrix_matches_simulation(a1, a2, theta_a, theta_b):
    psi = state_from_angles(a1, a2)
    bloch = bloch_from_state(psi)
    model = TwoMeterModel(theta_a, theta_b)
    sim = simulate_meter_process(np.outer(psi, psi.conj()), joint_unitary(*model.params))
    np.testing.assert_allclose(model.transfer_matrix() @ bloch, sim, atol=1e-12)
    assert sim.sum() == pytest.approx(1.0, abs=1e-12)
    assert sim.min() >= -1e-12


def test_stacked_simulation_is_the_per_state_call():
    rng = np.random.default_rng(12)
    unitary = joint_unitary(*REFERENCE_COUPLINGS)
    rhos = np.array([
        np.outer(psi, psi.conj())
        for psi in (
            state_from_angles(rng.uniform(0, math.pi / 2), rng.uniform(0, math.pi))
            for _ in range(12)
        )
    ]).reshape(3, 4, 2, 2)
    sims = simulate_meter_process(rhos, unitary)
    assert sims.shape == (3, 4, 4)
    for rho, sim in zip(rhos.reshape(12, 2, 2), sims.reshape(12, 4)):
        np.testing.assert_allclose(sim, simulate_meter_process(rho, unitary),
                                   rtol=0, atol=1e-15)
    # a stack of unitaries broadcasts against the states
    other = joint_unitary(0.7, -2.1)
    mixed = simulate_meter_process(rhos[0], np.array([unitary, other] * 2))
    for rho, member, sim in zip(rhos[0], [unitary, other] * 2, mixed):
        np.testing.assert_allclose(sim, simulate_meter_process(rho, member),
                                   rtol=0, atol=1e-15)
    # one member that is not a state rejects the whole stack
    rhos[1, 2] = np.eye(2)
    with pytest.raises(ValueError, match="trace"):
        simulate_meter_process(rhos, unitary)


def test_transfer_column_sums():
    # summing outcomes must give 1 for any physical s: column 0 sums to 1,
    # the rest to 0
    tmat = transfer_matrix(*REFERENCE_COUPLINGS)
    np.testing.assert_allclose(tmat.sum(axis=0), [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_transfer_matrix_is_the_sign_pattern_sum():
    # T[:, mu] = a_mu k + b_mu l + c_mu kl (+ 1/4 in column 0), summed in
    # the same order, so the rows equal the sign-matrix form bit for bit
    rng = np.random.default_rng(4)
    for theta_a, theta_b in [(0.0, 0.0), *rng.uniform(-10.0, 10.0, size=(200, 2))]:
        a, b, c = _coefficients(theta_a, theta_b)
        expected = np.outer(SIGN_MATRIX[0], a) + np.outer(SIGN_MATRIX[1], b)
        expected += np.outer(SIGN_MATRIX[2], c)
        expected[:, 0] += 0.25
        assert np.array_equal(transfer_matrix(theta_a, theta_b), expected)


def test_numpy_scalar_couplings_give_the_float_bits():
    # the optimizer hands over np.float64 couplings; they are read as
    # Python floats, so T, the qTTF and the model carry the same bits
    rng = np.random.default_rng(12)
    for theta_a, theta_b in rng.uniform(-3 * math.pi, 3 * math.pi, size=(500, 2)):
        a, b = float(theta_a), float(theta_b)
        assert transfer_matrix(theta_a, theta_b).tobytes() == transfer_matrix(a, b).tobytes()
        value = qttf_two_meter(theta_a, theta_b)
        assert type(value) is float and value == qttf_two_meter(a, b)
    model = TwoMeterModel(np.float64(REFERENCE_COUPLINGS[0]), np.float64(REFERENCE_COUPLINGS[1]))
    assert all(type(theta) is float for theta in model.params)
    assert model.params == REFERENCE_COUPLINGS
    assert np.array_equal(model.transfer_matrix(), transfer_matrix(*REFERENCE_COUPLINGS))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_coupling_is_named(value):
    # inf raised a bare math domain error from the row builder, and NaN a
    # transfer-matrix message naming no coupling; transfer_matrix returned
    # an all-NaN 4x4 for a NaN coupling
    for name, couplings in (("theta_a", (value, 1.0)), ("theta_b", (1.0, value))):
        for call in (TwoMeterModel, qttf_two_meter, transfer_matrix):
            with pytest.raises(ValueError, match=f"coupling {name} must be finite, got {value}"):
                call(*couplings)


def test_zero_couplings_are_degenerate():
    tmat = transfer_matrix(0.0, 0.0)
    bloch = bloch_from_state(state_from_angles(0.3, 0.8))
    np.testing.assert_allclose(tmat @ bloch, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    with pytest.raises(SingularInformationError):
        fisher_from_transfer(tmat, bloch)
    assert math.isinf(qttf_two_meter(0.0, 0.0))
    assert math.isinf(_qttf_quadrature(tmat, make_quadrature(8, 8)))


@given(angles1, angles2)
@settings(max_examples=30, deadline=None)
def test_fisher_forms_agree(a1, a2):
    psi = state_from_angles(a1, a2)
    tmat = transfer_matrix(*REFERENCE_COUPLINGS)
    f_elem = fisher_from_transfer(tmat, psi)
    f_mat = fisher_matrix_form(tmat, psi)
    np.testing.assert_allclose(f_elem, f_mat, atol=1e-10)
    np.testing.assert_allclose(f_elem, f_elem.T, atol=1e-12)
    assert np.linalg.eigvalsh(f_elem).min() >= -1e-10


def test_delta_positive_and_finite_at_reference():
    tmat = transfer_matrix(*REFERENCE_COUPLINGS)
    for a1, a2 in ((0.1, 0.2), (0.7, 1.5), (1.2, 3.0)):
        value = delta_from_transfer(tmat, state_from_angles(a1, a2))
        assert math.isfinite(value) and value > 0.0


def test_delta_closed_form_matches_eigenvalue_form():
    tmat = transfer_matrix(*REFERENCE_COUPLINGS)
    rng = np.random.default_rng(3)
    direction = rng.normal(size=(3, 40))
    direction /= np.linalg.norm(direction, axis=0)
    nodes = np.vstack([np.ones(40), rng.uniform(size=40) ** (1 / 3) * direction])
    reference = delta_surface(tmat, nodes)
    values = [delta_from_transfer(tmat, nodes[:, k]) for k in range(40)]
    np.testing.assert_allclose(values, reference, rtol=1e-9)


def test_single_meter_is_the_theta_b_zero_limit():
    # at theta_B = 0 meter B learns nothing, and meter A's outcome
    # marginal is the single meter's pair (P0, P1): a check of the
    # coefficients the factored qTTF reads
    rng = np.random.default_rng(23)
    for theta in rng.uniform(0.0, 2.0 * math.pi, size=200).tolist():
        ket = rng.normal(size=2) + 1j * rng.normal(size=2)
        ket /= np.linalg.norm(ket)
        p = transfer_matrix(theta, 0.0) @ bloch_from_state(ket)
        p0, p1 = probabilities_single(ket, theta)
        assert abs(p[0] + p[1] - p0) <= 1e-15
        assert abs(p[2] + p[3] - p1) <= 1e-15


def test_delta_finite_near_singular_couplings():
    # cond(T) ~ 6e10: every per-state error is about 6.4e13, finite, and
    # their six-state average is the exact qTTF
    couplings = (2.0 * math.pi + 1e-3, 1e-3)
    tmat = transfer_matrix(*couplings)
    values = [delta_from_transfer(tmat, psi) for psi in PAULI_EIGENSTATES]
    assert all(math.isfinite(v) for v in values)
    assert np.mean(values) == pytest.approx(qttf_two_meter(*couplings), rel=1e-9)
    assert math.isinf(delta_from_transfer(transfer_matrix(0.0, 0.0), PAULI_EIGENSTATES[0]))


def test_qttf_reference_value_regression():
    assert qttf_two_meter(*REFERENCE_COUPLINGS) == pytest.approx(
        QTTF_AT_REFERENCE, abs=1e-6
    )


def test_reference_couplings_are_not_a_stationary_point():
    # the literature quotes 17.0 as the optimum at REFERENCE_COUPLINGS; in
    # this model the gradient there is far from zero, by central
    # differences and analytically, and BFGS started there descends to 19.497
    a, b = REFERENCE_COUPLINGS
    h = 1e-6
    gradient = (
        (qttf_two_meter(a + h, b) - qttf_two_meter(a - h, b)) / (2 * h),
        (qttf_two_meter(a, b + h) - qttf_two_meter(a, b - h)) / (2 * h),
    )
    assert gradient == pytest.approx((4.86, -25.63), abs=5e-3)
    assert value_and_gradient([a, b])[1] == pytest.approx((4.86, -25.63), abs=5e-3)
    result = minimize_with_restarts(value_and_gradient, [np.array(REFERENCE_COUPLINGS)])
    assert result.value == pytest.approx(19.497, abs=5e-4)
    assert list(result.params) == pytest.approx([3.378, -7.958], abs=5e-4)


def test_qttf_quadrature_convergence():
    tmat = transfer_matrix(*REFERENCE_COUPLINGS)
    coarse = _qttf_quadrature(tmat, make_quadrature(32, 32))
    fine = _qttf_quadrature(tmat, make_quadrature(64, 64))
    assert coarse == pytest.approx(fine, rel=1e-4)


def test_qttf_symmetries():
    # swapping the meters or flipping both signs relabels outcomes and
    # reflects the Bloch sphere; the average error is invariant
    for ta, tb in ((3.45, -8.42), (-2.0, 0.9), (1.7, 1.1)):
        base = qttf_two_meter(ta, tb)
        assert qttf_two_meter(tb, ta) == pytest.approx(base, rel=1e-9)
        assert qttf_two_meter(-ta, -tb) == pytest.approx(base, rel=1e-9)


def test_qttf_not_2pi_periodic():
    # the joint branch mixes the two generators, so shifting one coupling
    # by 2 pi changes the model
    base = qttf_two_meter(*REFERENCE_COUPLINGS)
    shifted = qttf_two_meter(REFERENCE_COUPLINGS[0] + 2 * math.pi, REFERENCE_COUPLINGS[1])
    assert abs(base - shifted) > 1e-2


def test_full_azimuth_quadrature_gives_same_average():
    r_half = make_quadrature(32, 32)
    r_full = make_quadrature(32, 64, alpha2_limit=2 * math.pi)
    tmat = transfer_matrix(*REFERENCE_COUPLINGS)
    v1 = _qttf_quadrature(tmat, r_half)
    v2 = _qttf_quadrature(tmat, r_full)
    assert v1 == pytest.approx(v2, rel=1e-10)


def test_model_wrapper_and_linear_inversion_roundtrip():
    model = TwoMeterModel(*REFERENCE_COUPLINGS)
    assert math.isfinite(np.linalg.cond(model.transfer_matrix()))
    bloch = bloch_from_state(state_from_angles(0.9, 2.1))
    probs = simulate_meter_process(density_from_bloch(bloch), joint_unitary(*model.params))
    est = linear_inversion(probs, model.transfer_matrix())
    np.testing.assert_allclose(est.bloch, bloch, atol=1e-10)


def test_optimize_two_meter_smoke():
    result = optimize_two_meter(restarts=3, seed=0)
    assert math.isfinite(result.value)
    assert result.value < 40.0
    assert len(result.restarts) == 3
    best = min(r.value for r in result.restarts)
    assert result.value == pytest.approx(best)
    # the objective at the winner reproduces the reported value
    assert qttf_two_meter(*result.params) == pytest.approx(result.value, rel=1e-8)


def test_qttf_from_transfer_matches_wrapper():
    tmat = transfer_matrix(1.7, -2.2)
    assert qttf_two_meter(1.7, -2.2) == pytest.approx(qttf_from_transfer(tmat), rel=1e-12)


def test_exact_qttf_matches_quadrature():
    # relative gap allowed: 1e-9 plus the quadrature's own round-off.  It
    # inverts each node's Fisher matrix through eigvalsh, whose absolute
    # error in the smallest eigenvalue is ~eps * lambda_max, so its relative
    # error grows like eps * lambda_max * value; 1e-14 * value allows
    # lambda_max up to ~50.  Near the diagonal theta_A = theta_B (value
    # ~1e10) the quadrature is off by ~4e-8 while the exact form agrees
    # with a 50-digit evaluation to ~6e-12.
    rng = np.random.default_rng(0)
    rule = default_rule()
    for _ in range(200):
        tmat = transfer_matrix(*rng.uniform(-3 * math.pi, 3 * math.pi, size=2))
        exact = qttf_from_transfer(tmat)
        quad = _qttf_quadrature(tmat, rule)
        assert abs(exact - quad) <= (1e-9 + 1e-14 * exact) * exact


def test_exact_qttf_finite_near_singular_couplings():
    # cond(T) ~ 6.4e10: below the singular limit, so the average is finite;
    # some quadrature node has Tr F^-1 above 1e12 and the rule gives inf
    couplings = (2 * math.pi + 1e-3, 1e-3)
    tmat = transfer_matrix(*couplings)
    assert 1e10 < np.linalg.cond(tmat) < 1e12
    exact = qttf_two_meter(*couplings)
    assert exact == pytest.approx(6.399e13, rel=1e-3)
    assert exact == pytest.approx(pauli_average(tmat), rel=1e-9)
    assert math.isinf(_qttf_quadrature(tmat, default_rule()))


def test_exact_qttf_of_tetrahedral_povm_is_eight():
    # SIC effects E_q = (I + n_q . sigma)/4 on a regular tetrahedron:
    # the minimal qubit tomography optimum, 9 * 4 * (1/4) - 1
    normals = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    ) / math.sqrt(3.0)
    tmat = 0.25 * np.hstack([np.ones((4, 1)), normals])
    assert qttf_from_transfer(tmat) == pytest.approx(8.0, abs=1e-12)


def _recomputed_coefficient_derivatives(ta, tb):
    """d/d theta_a and d/d theta_b of (a0..a3, b0..b3, c0..c3) in the form
    that computed its own hypot, sines and cosines, not the forward pass's."""
    tc = math.hypot(ta, tb)
    ca, sa = math.cos(ta / 2.0), math.sin(ta / 2.0)
    cb, sb = math.cos(tb / 2.0), math.sin(tb / 2.0)
    cc = math.cos(tc / 2.0)
    hs = _half_sinc(tc)
    q = (cc / 2.0 - hs) / (tc * tc)
    sd, cd = math.sin((ta - tb) / 2.0), math.cos((ta - tb) / 2.0)
    ss, cs = math.sin((ta + tb) / 2.0), math.cos((ta + tb) / 2.0)
    x = ca + tb * sb * hs + cb * cc
    y = sb * cc - tb * cb * hs
    z = sa + ta * cb * hs
    xb = cb + ta * sa * hs + ca * cc
    yb = sb + tb * ca * hs
    zb = sa * cc - ta * ca * hs
    d_a = (
        (-sa / 2.0 * x + ca * (ta * (tb * sb * q - cb * hs / 2.0) - sa / 2.0)) / 8.0,
        (ca / 2.0 * y - sa * ta * (sb * hs / 2.0 + tb * cb * q)) / 8.0,
        sb * (sa * hs + ta * (ca / 2.0 * hs + sa * q * ta)) / 8.0,
        (ca / 2.0 * z + sa * (ca / 2.0 + cb * hs + ta * ta * cb * q)) / 8.0,
        cb * sa * (hs + ta * ta * q - cc / 2.0) / 8.0,
        -sb * tb * (ca * q * ta - sa * hs / 2.0) / 8.0,
        -tb * sb * (ca / 2.0 * hs + sa * q * ta) / 8.0,
        -sb * ca * (cc / 2.0 - hs - ta * ta * q) / 8.0,
        (-2.0 * ta * hs * cs - 2.0 * cc * ss - 2.0 * sd * cd - 2.0 * sa * ca) / 32.0,
        (sb * (ca * cd - sa * sd) / 2.0 - tb * (q * ta * ss + hs * cs / 2.0)) / 8.0,
        sb * (ca * sd + sa * cd) / 16.0,
        (cb * (ca * sd + sa * cd) / 2.0 + hs * ss + ta * (q * ta * ss + hs * cs / 2.0)) / 8.0,
    )
    d_b = (
        ca * sb * (hs + tb * tb * q - cc / 2.0) / 8.0,
        sa * cb * (cc / 2.0 - hs - tb * tb * q) / 8.0,
        ta * sa * (cb / 2.0 * hs + sb * q * tb) / 8.0,
        sa * ta * (cb * q * tb - sb * hs / 2.0) / 8.0,
        (-sb / 2.0 * xb + cb * (tb * (ta * sa * q - ca * hs / 2.0) - sb / 2.0)) / 8.0,
        -(cb / 2.0 * yb + sb * (cb / 2.0 + ca * hs + tb * tb * ca * q)) / 8.0,
        -sa * (sb * hs + tb * (cb / 2.0 * hs + sb * q * tb)) / 8.0,
        -(cb / 2.0 * zb - sb * tb * (sa * hs / 2.0 + ta * ca * q)) / 8.0,
        (-2.0 * tb * hs * cs - 2.0 * cc * ss + 2.0 * sd * cd - 2.0 * sb * cb) / 32.0,
        (ca * (cb * sd - sb * cd) / 2.0 - hs * ss - tb * (q * tb * ss + hs * cs / 2.0)) / 8.0,
        sa * (cb * sd - sb * cd) / 16.0,
        (sa * (-sb * sd - cb * cd) / 2.0 + ta * (q * tb * ss + hs * cs / 2.0)) / 8.0,
    )
    return d_a, d_b


def _recomputed_value_and_gradient(theta_a, theta_b):
    """value_and_gradient with recomputed trig and the adjoint weights
    added to 0.0 one product at a time."""
    value, adjoint, _ = _value_and_adjoint(theta_a, theta_b)
    if adjoint is None:
        return value, None
    d_a, d_b = _recomputed_coefficient_derivatives(theta_a, theta_b)
    grad_a = grad_b = 0.0
    for weight, da, db in zip(adjoint, d_a, d_b):
        grad_a += weight * da
        grad_b += weight * db
    return value, [grad_a, grad_b]


def _hex(value, gradient):
    return value.hex(), None if gradient is None else [g.hex() for g in gradient]


def test_value_and_gradient_is_the_recomputing_form_to_the_bit():
    # reading the forward pass's trig and summing the 12 weighted
    # derivatives in one expression keeps every operand and its order
    rng = np.random.default_rng(45)
    couplings = np.vstack([
        rng.uniform(-3.0 * math.pi, 3.0 * math.pi, size=(1500, 2)),
        rng.uniform(-30.0, 30.0, size=(200, 2)),
        # both couplings within 1e-6 of 0, where T is singular
        rng.uniform(-1e-6, 1e-6, size=(100, 2)),
        # near (2 pi, 0), where the certificate hands T's rows the setting
        [2.0 * math.pi, 0.0] + rng.uniform(-1e-2, 1e-2, size=(200, 2)),
        [[0.0, 0.0], [1e-300, 0.0], [0.0, 5.0], [5.0, 0.0], [-0.0, 2.5]],
    ]).tolist()
    handed_over = tiny = 0
    for theta_a, theta_b in couplings:
        got = value_and_gradient([theta_a, theta_b])
        assert _hex(*got) == _hex(*_recomputed_value_and_gradient(theta_a, theta_b)), (
            theta_a, theta_b,
        )
        handed_over += _forward(theta_a, theta_b)[0] is None and got[1] is not None
        tiny += max(abs(theta_a), abs(theta_b)) < 1e-6
    assert len(couplings) >= 2000 and tiny >= 100
    # the T route's chain is reached with a finite gradient
    assert handed_over >= 50


def test_optimize_two_meter_keeps_its_seed_0_search():
    # the design benchmark's solve and the README's 20-restart row; call
    # counts depend on the platform's libm, as the README says
    single = optimize_two_meter(restarts=1, seed=0).restarts[0]
    assert (single.evaluations, single.iterations) == (12, 9)
    result = optimize_two_meter(restarts=20, seed=0)
    assert sum(r.evaluations for r in result.restarts) == 334
    assert result.value == 19.06500736921879
