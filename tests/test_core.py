"""Pauli algebra, state helpers, quadrature, and small linear-algebra tools."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, sqrtm

from qtomo._oracles import HADAMARD, PI_1, PI_PLUS, cnot_matrix, expm_2x2_hermitian, kron3
from qtomo.core import (
    PAULI_EIGENSTATE_LABELS,
    PAULI_EIGENSTATES,
    SIGMA,
    bloch_from_state,
    check_density,
    density_from_bloch,
    fidelity,
    make_quadrature,
    state_from_angles,
)
from qtomo.single import fisher_inverse_single, probabilities_single

angles1 = st.floats(min_value=0.0, max_value=math.pi / 2)
angles2 = st.floats(min_value=0.0, max_value=math.pi)


def test_pauli_algebra():
    for k in range(4):
        np.testing.assert_allclose(SIGMA[k] @ SIGMA[k], np.eye(2), atol=1e-15)
    # sigma_x sigma_y = i sigma_z and cyclic
    np.testing.assert_allclose(SIGMA[1] @ SIGMA[2], 1j * SIGMA[3], atol=1e-15)
    np.testing.assert_allclose(SIGMA[2] @ SIGMA[3], 1j * SIGMA[1], atol=1e-15)
    np.testing.assert_allclose(SIGMA[3] @ SIGMA[1], 1j * SIGMA[2], atol=1e-15)


def test_projectors():
    np.testing.assert_allclose(PI_PLUS @ PI_PLUS, PI_PLUS, atol=1e-15)
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    np.testing.assert_allclose(PI_PLUS @ plus, plus, atol=1e-15)
    np.testing.assert_allclose(HADAMARD @ HADAMARD, np.eye(2), atol=1e-15)


@given(angles1, angles2)
def test_state_bloch_roundtrip(a1, a2):
    psi = state_from_angles(a1, a2)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    s = bloch_from_state(psi)
    # phases c0 = e^{+i a2}, c1 = e^{-i a2} put the minus sign on s_y
    expected = np.array(
        [
            1.0,
            math.sin(2 * a1) * math.cos(2 * a2),
            -math.sin(2 * a1) * math.sin(2 * a2),
            math.cos(2 * a1),
        ]
    )
    np.testing.assert_allclose(s, expected, atol=1e-12)


@pytest.mark.parametrize("a1,a2", [(-0.1, 0.0), (math.pi, 0.0), (0.3, -0.2), (0.3, 3.5)])
def test_state_from_angles_rejects_out_of_range(a1, a2):
    with pytest.raises(ValueError):
        state_from_angles(a1, a2)


def test_eigenstate_labels_match_states():
    for label, psi in zip(PAULI_EIGENSTATE_LABELS, PAULI_EIGENSTATES):
        s = bloch_from_state(psi)
        axis = {"x": 1, "y": 2, "z": 3}[label[0]]
        sign = 1.0 if label[1] == "0" else -1.0
        np.testing.assert_allclose(s[axis], sign, atol=1e-12)


@given(angles1, angles2)
def test_density_representations_agree(a1, a2):
    psi = state_from_angles(a1, a2)
    rho_direct = np.outer(psi, psi.conj())
    rho_bloch = density_from_bloch(bloch_from_state(psi))
    np.testing.assert_allclose(rho_direct, rho_bloch, atol=1e-12)
    check_density(rho_direct)
    # bloch_from_state accepts the density matrix too
    np.testing.assert_allclose(
        bloch_from_state(rho_direct), bloch_from_state(psi), atol=1e-12
    )


def _ket_cases():
    """Seeded random kets over 300 decades of scale, the Pauli eigenstates,
    and kets with zero or signed-zero components."""
    rng = np.random.default_rng(31)
    kets = []
    for exponent in (-150, -75, -1, 0, 1, 75, 150):
        for _ in range(40):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            kets.append(psi * 10.0**exponent)
    kets.extend(PAULI_EIGENSTATES)
    kets.extend(
        np.array(ket, dtype=complex)
        for ket in (
            [0.6, 0.8], [0.6j, -0.8], [1.0, -0.0], [complex(1.0, -0.0), complex(-0.0, -0.0)],
            [0.0, complex(0.0, 1.0)], [complex(-0.0, 0.6), complex(0.8, -0.0)],
        )
    )
    return kets


def test_ket_bloch_matches_the_density_matrix_path():
    for psi in _ket_cases():
        fast = bloch_from_state(psi)
        ref = bloch_from_state(np.outer(psi, psi.conj()))
        assert fast.shape == (4,) and fast.dtype == float
        # relative to s_0 = |psi|^2, the scale of every component
        assert np.max(np.abs(fast - ref)) <= 1e-15 * ref[0], psi


def test_ket_bloch_zero_components_are_positive_zero():
    # a signed zero prints as -0.000000 in the tables' CSV
    for psi in _ket_cases():
        for value in bloch_from_state(psi).tolist():
            if value == 0.0:
                assert math.copysign(1.0, value) == 1.0, psi
    for psi in PAULI_EIGENSTATES:
        zeros = [v for v in bloch_from_state(psi).tolist() if v == 0.0]
        assert len(zeros) == 2 and all(math.copysign(1.0, v) == 1.0 for v in zeros)


def test_ket_bloch_accepts_lists_and_rejects_other_lengths():
    np.testing.assert_array_equal(bloch_from_state([1.0, 0.0]), [1.0, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        bloch_from_state(np.ones(3))


@pytest.mark.parametrize(
    "rho", [np.ones(3), np.eye(3) / 3.0], ids=["length-3", "3x3"]
)
def test_bloch_from_state_names_the_accepted_shapes(rho):
    with pytest.raises(ValueError, match=r"shape \(2,\) .* shape \(2, 2\)"):
        bloch_from_state(rho)


@pytest.mark.parametrize(
    "rho",
    [
        [math.nan, 1.0],
        [math.inf, 0.0],
        [1.0, complex(0.0, -math.inf)],
        [[math.nan, 0.0], [0.0, 1.0]],
        [[1.0, math.inf], [math.inf, 0.0]],
        [[math.inf, 0.0], [0.0, -math.inf]],
    ],
    ids=["ket-nan", "ket-inf", "ket-imag-inf", "matrix-nan", "matrix-off-diagonal-inf",
         "matrix-inf-and--inf"],
)
def test_bloch_from_state_refuses_non_finite_input(rho):
    # the single meter reads s_z through the same test
    for call in (
        bloch_from_state,
        lambda state: probabilities_single(state, 1.0),
        lambda state: fisher_inverse_single(state, 1.0),
    ):
        with pytest.raises(ValueError, match="must be finite"):
            call(rho)


@pytest.mark.parametrize(
    "s",
    [[1.0, math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, -math.inf]],
    ids=["nan", "inf-s0", "-inf"],
)
def test_density_from_bloch_refuses_non_finite_input(s):
    with pytest.raises(ValueError, match="must be finite"):
        density_from_bloch(s)


def test_check_density_rejects_bad_input():
    with pytest.raises(ValueError):
        check_density(np.array([[0.6, 0.0], [0.1, 0.4]]))  # not hermitian
    with pytest.raises(ValueError):
        check_density(np.array([[0.8, 0.0], [0.0, 0.4]]))  # trace 1.2
    with pytest.raises(ValueError):
        check_density(np.array([[1.2, 0.0], [0.0, -0.2]]))  # negative eigenvalue
    # rho - rho^H overflows to inf, which names the matrix, without a warning
    with pytest.raises(ValueError, match="not Hermitian"):
        check_density(np.array([[0.5, 1e308], [-1e308, 0.5]]))


def _fidelity_sqrtm(rho, sigma):
    root = sqrtm(rho)
    inner = sqrtm(root @ sigma @ root)
    return float(np.trace(inner).real ** 2)


def test_check_density_checks_every_member_of_a_stack():
    good = density_from_bloch(np.array([1.0, 0.3, -0.2, 0.5]))
    stack = np.array([good, 0.5 * np.eye(2)])
    np.testing.assert_array_equal(check_density(stack), stack)
    assert check_density(np.empty((0, 2, 2))).shape == (0, 2, 2)
    for bad in (
        np.array([[0.6, 0.0], [0.1, 0.4]]),
        np.array([[0.8, 0.0], [0.0, 0.4]]),
        np.array([[1.2, 0.0], [0.0, -0.2]]),
    ):
        with pytest.raises(ValueError):
            check_density(np.array([good, bad, good]))
    with pytest.raises(ValueError, match="2x2"):
        check_density(np.eye(3))


@pytest.mark.parametrize(
    "entries",
    [
        {(0, 0): math.nan},
        {(0, 1): math.nan},
        {(0, 0): math.inf},
        {(0, 1): math.inf},
        {(0, 0): -math.inf},
        # the trace sums inf and -inf, and rho - rho^H subtracts inf from inf
        {(0, 0): math.inf, (1, 1): -math.inf},
        {(0, 1): math.inf, (1, 0): math.inf},
    ],
    ids=[
        "diagonal-nan", "off-diagonal-nan", "diagonal-inf", "off-diagonal-inf",
        "diagonal--inf", "diagonal-inf-and--inf", "both-off-diagonal-inf",
    ],
)
def test_check_density_refuses_a_non_finite_entry(entries):
    # every test compared with NaN, which is false, so a NaN state passed
    # as physical; a RuntimeWarning before the refusal fails the test too
    good = density_from_bloch(np.array([1.0, 0.3, -0.2, 0.5]))
    bad = good.copy()
    for index, value in entries.items():
        bad[index] = value
    with pytest.raises(ValueError, match="density matrix must be finite"):
        check_density(bad)
    with pytest.raises(ValueError, match="density matrix must be finite"):
        check_density(np.array([good, bad, good]))


def test_fidelity_takes_single_states_only():
    rho = 0.5 * np.eye(2)
    with pytest.raises(ValueError, match="2x2"):
        fidelity(np.array([rho, rho]), rho)


def test_fidelity_against_matrix_square_root():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v1 = rng.normal(size=3)
        v2 = rng.normal(size=3)
        v1 *= rng.uniform(0, 1) / np.linalg.norm(v1)
        v2 *= rng.uniform(0, 1) / np.linalg.norm(v2)
        rho = density_from_bloch(np.concatenate([[1.0], v1]))
        sig = density_from_bloch(np.concatenate([[1.0], v2]))
        assert fidelity(rho, sig) == pytest.approx(_fidelity_sqrtm(rho, sig), abs=1e-10)
        assert fidelity(rho, sig) == pytest.approx(fidelity(sig, rho), abs=1e-12)


def test_fidelity_pure_states_is_overlap():
    psi = state_from_angles(0.4, 0.9)
    phi = state_from_angles(1.1, 0.2)
    expected = abs(np.vdot(psi, phi)) ** 2
    got = fidelity(np.outer(psi, psi.conj()), np.outer(phi, phi.conj()))
    assert got == pytest.approx(expected, abs=1e-12)
    assert fidelity(np.outer(psi, psi.conj()), np.outer(psi, psi.conj())) == pytest.approx(1.0)


@pytest.mark.parametrize("n1,n2", [(2, 2), (3, 5), (16, 7), (64, 64)])
def test_quadrature_weights_normalized(n1, n2):
    rule = make_quadrature(n1, n2)
    assert rule.integrate(np.ones(n1 * n2)) == pytest.approx(1.0, abs=1e-12)
    nodes = rule.bloch_nodes()
    assert nodes.shape == (4, n1 * n2)
    np.testing.assert_allclose(np.linalg.norm(nodes[1:], axis=0), 1.0, atol=1e-12)


def test_quadrature_second_moments():
    # uniform pure-state average of s_k^2 is 1/3 per axis, cross terms vanish
    rule = make_quadrature(24, 24)
    nodes = rule.bloch_nodes()
    for k in (1, 2, 3):
        assert rule.integrate(nodes[k] ** 2) == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert rule.integrate(nodes[k]) == pytest.approx(0.0, abs=1e-10)
    assert rule.integrate(nodes[1] * nodes[3]) == pytest.approx(0.0, abs=1e-10)


def test_quadrature_full_azimuth_variant():
    # [0, 2pi) in alpha2 covers each Bloch direction twice with half weight;
    # averages of periodic integrands are unchanged
    r1 = make_quadrature(16, 16)
    r2 = make_quadrature(16, 32, alpha2_limit=2 * math.pi)
    f1 = r1.integrate(r1.bloch_nodes()[3] ** 2)
    f2 = r2.integrate(r2.bloch_nodes()[3] ** 2)
    assert f1 == pytest.approx(f2, abs=1e-12)


def test_make_quadrature_validates_order():
    with pytest.raises(ValueError):
        make_quadrature(1, 8)
    with pytest.raises(ValueError):
        make_quadrature(8, 0)


@given(
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
    st.floats(-5.0, 5.0),
)
@settings(max_examples=40)
def test_expm_2x2_matches_scipy(hx, hy, hz, t):
    hmat = hx * SIGMA[1] + hy * SIGMA[2] + hz * SIGMA[3]
    np.testing.assert_allclose(
        expm_2x2_hermitian(hmat, t), expm(-1j * t * hmat), atol=1e-10
    )


def test_expm_2x2_stack_is_the_per_item_call():
    # stacked eigh with a broadcast t gives each member the bits of its
    # own 2x2 call; the generators are the two-meter joint ones
    rng = np.random.default_rng(17)
    couplings = np.concatenate(
        [
            rng.uniform(-3 * math.pi, 3 * math.pi, size=(500, 2)),
            rng.uniform(-1e-6, 1e-6, size=(50, 2)),
            np.zeros((1, 2)),
        ]
    )
    stack = couplings[:, 0, None, None] * PI_1 + couplings[:, 1, None, None] * PI_PLUS
    times = rng.uniform(-5.0, 5.0, size=len(couplings))
    batched = expm_2x2_hermitian(stack, times)
    assert batched.shape == (len(couplings), 2, 2)
    for hmat, t, member in zip(stack, times, batched):
        assert np.array_equal(member, expm_2x2_hermitian(hmat, float(t)))
    # one generator against many times, and many generators at one time
    fanned = expm_2x2_hermitian(PI_PLUS, couplings[:, 1])
    assert fanned.shape == (len(couplings), 2, 2)
    for t, member in zip(couplings[:, 1], fanned):
        assert np.array_equal(member, expm_2x2_hermitian(PI_PLUS, float(t)))
    shared = expm_2x2_hermitian(stack.reshape(551, 1, 2, 2), 1.0)
    assert shared.shape == (551, 1, 2, 2)
    for hmat, member in zip(stack, shared[:, 0]):
        assert np.array_equal(member, expm_2x2_hermitian(hmat, 1.0))


def test_expm_2x2_scalar_call_keeps_its_shape():
    assert expm_2x2_hermitian(PI_1, 0.3).shape == (2, 2)
    assert expm_2x2_hermitian(PI_1).shape == (2, 2)
    with pytest.raises(ValueError, match="2x2"):
        expm_2x2_hermitian(np.eye(3))


def test_expm_2x2_stack_rejects_one_non_hermitian_member():
    stack = np.array([HADAMARD, PI_1, PI_PLUS, PI_1])
    stack[2, 0, 1] += 1e-9
    with pytest.raises(ValueError, match="not Hermitian"):
        expm_2x2_hermitian(stack, np.ones(4))


def test_cnot_matrix_permutation():
    # control on qubit 1 (middle), target qubit 0 (leftmost), MSB-first kets
    cx = cnot_matrix(1, 0)
    basis = {format(i, "03b"): i for i in range(8)}
    for bits, col in basis.items():
        b = list(bits)
        if b[1] == "1":
            b[0] = "1" if b[0] == "0" else "0"
        expected = basis["".join(b)]
        assert cx[expected, col] == 1.0
    np.testing.assert_allclose(cx @ cx, np.eye(8), atol=1e-15)


def test_kron3_matches_nested_kron():
    rng = np.random.default_rng(5)
    a, b, c = (rng.normal(size=(2, 2)) for _ in range(3))
    np.testing.assert_allclose(kron3(a, b, c), np.kron(np.kron(a, b), c))
    # the broadcast product forms each entry as the same two products
    x, y, z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    assert np.array_equal(kron3(x, y, z), np.kron(np.kron(x, y), z))

