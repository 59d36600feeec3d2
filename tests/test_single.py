"""Single-meter model: probabilities, estimator, error measures."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtomo._oracles import (
    HADAMARD,
    PI_1,
    _fisher_inverse_angle_form,
    _qttf_single_quadrature,
    two_design_average,
)
from qtomo.core import (
    PAULI_EIGENSTATES,
    _ket_bloch,
    bloch_from_state,
    make_quadrature,
    state_from_angles,
)
from qtomo.single import (
    NonInformativeCouplingError,
    estimate_sz,
    fisher_inverse_single,
    max_error_single,
    probabilities_single,
    qttf_single,
)

angles1 = st.floats(min_value=0.0, max_value=math.pi / 2)
angles2 = st.floats(min_value=0.0, max_value=math.pi)
couplings = st.floats(min_value=0.2, max_value=math.pi)


def _meter_circuit_probabilities(psi, theta):
    """Independent route: evolve system x meter and read the meter in x.

    The meter starts in |+>, picks up exp(-i theta) on the |1>|1> branch,
    and is measured after a Hadamard.
    """
    rho = np.kron(np.outer(psi, psi.conj()), np.full((2, 2), 0.5, dtype=complex))
    joint = np.eye(4, dtype=complex)
    phase = np.kron(PI_1, PI_1)
    joint = joint + (np.exp(-1j * theta) - 1.0) * phase
    rotated = np.kron(np.eye(2), HADAMARD)
    final = rotated @ joint @ rho @ joint.conj().T @ rotated.conj().T
    p0 = float((final[0, 0] + final[2, 2]).real)
    p1 = float((final[1, 1] + final[3, 3]).real)
    return p0, p1


@given(angles1, angles2, couplings)
@settings(max_examples=60)
def test_probabilities_match_meter_circuit(a1, a2, theta):
    psi = state_from_angles(a1, a2)
    p0, p1 = probabilities_single(psi, theta)
    q0, q1 = _meter_circuit_probabilities(psi, theta)
    assert p0 == pytest.approx(q0, abs=1e-12)
    assert p1 == pytest.approx(q1, abs=1e-12)
    assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


@given(angles1, angles2, couplings)
@settings(max_examples=60)
def test_estimate_sz_roundtrip(a1, a2, theta):
    psi = state_from_angles(a1, a2)
    p0, p1 = probabilities_single(psi, theta)
    sz = bloch_from_state(psi)[3]
    assert estimate_sz(p0, p1, theta) == pytest.approx(sz, abs=1e-9)


def test_single_meter_reads_s_z_as_ket_bloch():
    # probabilities_single and fisher_inverse_single read s_z alone, with
    # _ket_bloch's float operations for a ket and bloch_from_state's for a
    # 2x2 density matrix, and sin^2(theta/2) once: bit for bit the
    # formulas on _ket_bloch(...)[3]
    def expected(s_z, theta):
        s2 = math.sin(theta / 2.0) ** 2
        p1 = min(max(0.5 * s2 * (1.0 - s_z), 0.0), 1.0)
        fisher_inverse = math.inf if s2 < 1e-12 else 4.0 * (1.0 - p1) * p1 / s2**2
        return repr(((1.0 - p1, p1), fisher_inverse))

    rng = np.random.default_rng(21)
    thetas = [*rng.uniform(-7.0, 7.0, size=200), 0.0, math.pi, 2.0 * math.pi, 1e-7]
    for k, theta in enumerate(thetas):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = PAULI_EIGENSTATES[k % 6] if k % 4 == 0 else psi / np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        for state, s_z in ((psi, _ket_bloch(*psi.tolist())[3]),
                           (rho, float(bloch_from_state(rho)[3]))):
            got = (probabilities_single(state, theta), fisher_inverse_single(state, theta))
            assert repr(got) == expected(s_z, theta)


def test_estimate_sz_validation():
    with pytest.raises(ValueError):
        estimate_sz(0.7, 0.7, 1.0)  # probabilities do not sum to 1
    # a NaN frequency fails the sum test, which must not read NaN as a pass
    for p0, p1 in ((math.nan, 0.5), (0.5, math.nan)):
        with pytest.raises(ValueError, match=r"P0 \+ P1 = nan, expected 1"):
            estimate_sz(p0, p1, 2.0)
    with pytest.raises(ValueError, match="theta must be finite, got nan"):
        estimate_sz(0.5, 0.5, math.nan)
    with pytest.raises(NonInformativeCouplingError):
        estimate_sz(0.5, 0.5, 0.0)
    with pytest.raises(NonInformativeCouplingError):
        # 2 pi couples trivially: sin(theta/2) = 0
        estimate_sz(0.5, 0.5, 2.0 * math.pi)


def test_fisher_inverse_values():
    # equator state at the optimal coupling: 4 * (1/2) * (1/2) / 1
    psi = state_from_angles(math.pi / 4, 0.3)
    assert fisher_inverse_single(psi, math.pi) == pytest.approx(1.0, abs=1e-12)
    # z eigenstates are noise-free at theta = pi
    for psi in PAULI_EIGENSTATES[:2]:
        assert fisher_inverse_single(psi, math.pi) == pytest.approx(0.0, abs=1e-12)


@given(angles1, st.floats(0.0, math.pi), st.floats(0.0, math.pi), couplings)
@settings(max_examples=40)
def test_fisher_inverse_alpha2_independent(a1, a2a, a2b, theta):
    va = fisher_inverse_single(state_from_angles(a1, a2a), theta)
    vb = fisher_inverse_single(state_from_angles(a1, a2b), theta)
    assert va == pytest.approx(vb, abs=1e-12)


@given(angles1, angles2, couplings)
@settings(max_examples=40)
def test_fisher_inverse_angle_form_agrees(a1, a2, theta):
    psi = state_from_angles(a1, a2)
    assert fisher_inverse_single(psi, theta) == pytest.approx(
        _fisher_inverse_angle_form(a1, theta), abs=1e-10
    )


@pytest.mark.parametrize(
    "theta,expected",
    [
        (math.pi, 2.0 / 3.0),
        (math.pi / 2.0, 8.0 / 3.0),
        (2.0 * math.pi / 3.0, 4.0 / 3.0),
    ],
)
def test_qttf_landmark_values(theta, expected):
    assert qttf_single(theta) == pytest.approx(expected, abs=1e-12)


def test_qttf_closed_form_is_exact_for_coarse_quadrature():
    # the integrand is quadratic in sin^2(alpha1), so 2-point Gauss already
    # integrates it exactly
    rule = make_quadrature(2, 2)
    for theta in (0.4, 1.1, 2.2, math.pi):
        assert _qttf_single_quadrature(theta, rule) == pytest.approx(
            qttf_single(theta), abs=1e-12
        )


def test_qttf_monotone_down_to_pi():
    thetas = np.linspace(0.3, math.pi, 40)
    values = [qttf_single(t) for t in thetas]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert math.isinf(qttf_single(0.0))


def test_max_error_closed_form_matches_grid_maximum():
    grid = np.linspace(0.0, math.pi / 2.0, 4001)
    for theta in (0.5, 1.0, math.pi / 2.0, 2.0, 2.6, math.pi):
        dense = max(_fisher_inverse_angle_form(a1, theta) for a1 in grid)
        assert max_error_single(theta) == pytest.approx(dense, rel=1e-6)


def test_max_error_domain():
    assert max_error_single(math.pi) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        max_error_single(0.0)
    with pytest.raises(ValueError):
        max_error_single(3.5)


@given(couplings)
@settings(max_examples=30)
def test_two_design_average_equals_full_average(theta):
    # six Pauli eigenstates average any quadratic exactly
    assert two_design_average(theta) == pytest.approx(qttf_single(theta), abs=1e-9)
