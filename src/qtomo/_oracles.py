"""Reference implementations that only the checks call.

Production computes every figure from the closed-form 4x4 transfer
matrix T; these are the independent routes it is checked against.  The
identity suite and the tests import this module; no production module
does.

The register convention, stated here only: each four-outcome model is
an 8x8 block unitary on (meter A, system, meter B), qubit 0 the leftmost
tensor factor.  Both meters start in |+>, the unitary acts, and the
meters are read in x (H x I x H, then z), outcome q = 2a + b in the
order (++, +-, -+, --).  joint_unitary builds the two-meter coupling
sum_ij |i><i|_A x U_ij x |j><j|_B, circuit_unitary the circuit's four
u3 gates and two system-controlled CNOTs; kraus_transfer reads T off
the system-side Kraus operators, and simulate_meter_process evolves the
8x8 density matrix.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .core import PAULI_EIGENSTATES, SIGMA, QuadratureRule, check_density
from .model import _live_probabilities, delta_surface
from .single import _COUPLING_FLOOR, _sin2_half, fisher_inverse_single

# Outcome sign patterns for the ordering (++, +-, -+, --): row 0 carries the
# first meter's sign k, row 1 the second meter's sign l, row 2 the product kl.
SIGN_MATRIX = np.array(
    [
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
    ]
)

PI_1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
PI_PLUS = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def expm_2x2_hermitian(hmat: np.ndarray, t: float | np.ndarray = 1.0) -> np.ndarray:
    """exp(-i t H) for Hermitian 2x2 H, by spectral decomposition.

    Exact up to round-off, unlike a truncated series.  hmat may be a
    (..., 2, 2) stack and t an array that broadcasts against its leading
    shape; the result is (..., 2, 2) over the broadcast shape, and each
    member carries the bits of its own 2x2 call.  Any non-Hermitian
    member raises ValueError.
    """
    hmat = np.asarray(hmat, dtype=complex)
    if hmat.shape[-2:] != (2, 2):
        raise ValueError("expected a 2x2 matrix or a (..., 2, 2) stack")
    if np.abs(hmat - hmat.conj().swapaxes(-1, -2)).max(initial=0.0) > 1e-12:
        raise ValueError("matrix is not Hermitian")
    evals, evecs = np.linalg.eigh(hmat)
    phases = np.exp(-1.0j * np.asarray(t)[..., None] * evals)
    return (evecs * phases[..., None, :]) @ evecs.conj().swapaxes(-1, -2)


def kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Kronecker product of three single-qubit operators, in one broadcast.

    (..., 2, 2) stacks broadcast against each other into a (..., 8, 8)
    stack; each member is formed by the same two products as its own call.
    """
    product = (
        a[..., :, None, None, :, None, None]
        * b[..., None, :, None, None, :, None]
        * c[..., None, None, :, None, None, :]
    )
    return product.reshape(product.shape[:-6] + (8, 8))


def cnot_matrix(control: int, target: int) -> np.ndarray:
    """CNOT on the three-qubit register; qubit 0 is the leftmost tensor factor."""
    if control == target:
        raise ValueError("control and target must differ")
    out = np.zeros((8, 8), dtype=complex)
    for idx in range(8):
        bits = [(idx >> (2 - q)) & 1 for q in range(3)]
        if bits[control]:
            bits[target] ^= 1
        jdx = sum(bit << (2 - q) for q, bit in enumerate(bits))
        out[jdx, idx] = 1.0
    return out


# x-basis readout of both meters, applied after the block unitary.
_READOUT = kron3(HADAMARD, np.eye(2), HADAMARD)


def _kraus_constants() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three constant factors of kraus_transfer's read.

    The readout with its rows reordered from (a, s, b) to (a, b, s), so
    a product reshapes straight into K_(a,b)[s, s']; the (8, 2) map
    that applies both |+> inputs, 1/2 from input (a', s', b') to s'; and
    the (4, 4) map with E[q, 2i + k] @ it = Tr(E_q sigma_mu) / 2.
    """
    order = [4 * a + 2 * s + b for a in (0, 1) for b in (0, 1) for s in (0, 1)]
    plus_inputs = np.zeros((8, 2))
    for index in range(8):
        plus_inputs[index, (index >> 1) & 1] = 0.5
    trace_map = 0.5 * SIGMA.transpose(0, 2, 1).reshape(4, 4).T
    return _READOUT[order], plus_inputs, trace_map


_KRAUS_READOUT, _PLUS_INPUTS, _TRACE_MAP = _kraus_constants()


def kraus_transfer(unitary: np.ndarray) -> np.ndarray:
    """Transfer matrix read off the four system-side Kraus operators.

    K_(a,b) = <a,b|_meters (H x I x H) U |+>_A |+>_B, E_q = K_q^dag K_q
    with q = 2a + b, and T[q, mu] = Tr(E_q sigma_mu) / 2.  A (..., 8, 8)
    stack of unitaries gives a (..., 4, 4) stack of transfer matrices.
    """
    stack = np.shape(unitary)[:-2]
    # rows (a, b, s), columns s': K_q[s, s'] for q = 2a + b
    kraus = (_KRAUS_READOUT @ unitary @ _PLUS_INPUTS).reshape(stack + (4, 2, 2))
    effects = kraus.conj().swapaxes(-1, -2) @ kraus
    return (effects.reshape(stack + (4, 4)) @ _TRACE_MAP).real


def simulate_meter_process(rho0: np.ndarray, unitary: np.ndarray) -> np.ndarray:
    """Outcome probabilities (++, +-, -+, --) by 8x8 density-matrix evolution.

    The system starts in rho0 between two |+> meters; the readout applies
    Hadamards to the meters, takes the z-basis diagonal and traces out
    the system.  The independent oracle for every transfer matrix.  A
    (..., 2, 2) stack of states and a (..., 8, 8) stack of unitaries
    broadcast against each other and evolve in one batched product,
    giving (..., 4) probabilities.
    """
    plus = np.full((2, 2), 0.5)
    initial = kron3(plus, check_density(rho0), plus)
    full = _READOUT @ unitary
    final = full @ initial @ full.conj().swapaxes(-1, -2)
    # diagonal index 4a + 2s + b
    diagonal = np.real(np.diagonal(final, axis1=-2, axis2=-1))
    stack = diagonal.shape[:-1]
    return diagonal.reshape(stack + (2, 2, 2)).sum(axis=-2).reshape(stack + (4,))


def fisher_matrix_form(tmat: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Fisher matrix assembled as D^T (V P^-1 V^T) D.

    D = V T[:, 1:] / 4 holds the sign-basis coefficients, rows indexed by
    the sign patterns (k, l, kl) of V = SIGN_MATRIX.  V^T V = 4 I - 11^T
    and the s-columns of T sum to zero, so V^T D reproduces them and this
    equals model.fisher_from_transfer by an independent assembly path.

    state is one state, giving (3, 3), or a real (n, 4) stack of Bloch
    vectors, giving (n, 3, 3) from batched products; a single state is
    the stack of one.  V P^-1 is V with column q divided by p_q, which
    is what the product with diag(1/p) gives to the bit (its other terms
    are exact zeros), so each member carries its own call's bits.
    """
    p = _live_probabilities(tmat, state)
    d = 0.25 * SIGN_MATRIX @ tmat[:, 1:]
    middle = (SIGN_MATRIX * (1.0 / p)[..., None, :]) @ SIGN_MATRIX.T
    return d.T @ middle @ d


def _qttf_quadrature(tmat, rule: QuadratureRule) -> float:
    """The qTTF as the quadrature average over delta_surface, inf as soon
    as any node is singular: the oracle for model.qttf_from_transfer."""
    values = delta_surface(np.asarray(tmat, dtype=float), rule.bloch_nodes())
    if not np.all(np.isfinite(values)):
        return math.inf
    return rule.integrate(values)


def _meter_unitaries(
    theta_a: float | np.ndarray, theta_b: float | np.ndarray
) -> tuple[np.ndarray, ...]:
    """System-side evolutions (U00, U01, U10, U11), one per meter branch.

    Branch (i, j) applies exp(-i(theta_A i Pi_1 + theta_B j Pi_+)).  The
    two generators do not commute, so U11 is a genuinely joint exponential
    rather than a product of the single-meter factors.  The couplings may
    be arrays; each U is then (..., 2, 2) over their broadcast shape, and
    scalars give plain 2x2 matrices.
    """
    theta_a, theta_b = np.broadcast_arrays(
        np.asarray(theta_a, dtype=float), np.asarray(theta_b, dtype=float)
    )
    u00 = np.zeros(theta_a.shape + (2, 2), dtype=complex)
    u00[..., 0, 0] = u00[..., 1, 1] = 1.0
    u01 = expm_2x2_hermitian(PI_PLUS, theta_b)
    u10 = expm_2x2_hermitian(PI_1, theta_a)
    u11 = expm_2x2_hermitian(
        theta_a[..., None, None] * PI_1 + theta_b[..., None, None] * PI_PLUS, 1.0
    )
    return u00, u01, u10, u11


def joint_unitary(theta_a: float | np.ndarray, theta_b: float | np.ndarray) -> np.ndarray:
    """8x8 block unitary sum_ij |i><i|_A x U_ij x |j><j|_B on (A, S, B).

    Coupling arrays give a (..., 8, 8) stack over their broadcast shape,
    whose joint branches U11 come from one stacked eigh; scalars give one
    8x8 matrix.
    """
    units = _meter_unitaries(theta_a, theta_b)
    stack = units[0].shape[:-2]
    joint = np.zeros(stack + (2,) * 6, dtype=complex)  # axes (..., a, s, b, a', s', b')
    for branch, unit in enumerate(units):
        i, j = divmod(branch, 2)
        joint[..., i, :, j, i, :, j] = unit
    return joint.reshape(stack + (8, 8))


_IDENTITY2 = np.eye(2, dtype=complex)
_CNOT_S_TO_A = cnot_matrix(control=1, target=0)
_CNOT_S_TO_B = cnot_matrix(control=1, target=2)


def _u3_entries(theta: float, phi: float, lam: float) -> tuple[complex, ...]:
    """Entries (g00, g01, g10, g11) of u3(theta, phi, lam) as Python scalars.

    The generic one-qubit gate with full-angle entries:

    [[cos(theta), -e^{i lam} sin(theta)],
     [e^{i phi} sin(theta), e^{i(phi+lam)} cos(theta)]]

    Note the full angle: u3(pi/2, 0, pi) is the bit flip.  The circuit's
    gates are u3(theta/2, phi, lambda), the hardware convention, so a
    circuit parameter theta = pi is the bit flip there.
    """
    ct, st = math.cos(theta), math.sin(theta)
    e_phi = cmath.exp(1.0j * phi)
    e_lam = cmath.exp(1.0j * lam)
    return ct, -e_lam * st, e_phi * st, cmath.exp(1.0j * (phi + lam)) * ct


def _gates(params) -> list[tuple[complex, ...]]:
    """Entries of the gates A1, A2, B1, B2, each u3(theta/2, phi, lambda).

    params is any sequence of twelve floats.
    """
    return [
        _u3_entries(theta / 2.0, phi, lam)
        for theta, phi, lam in zip(params[0::3], params[1::3], params[2::3])
    ]


def circuit_unitary(params) -> np.ndarray:
    """8x8 block unitary on (A, S, B) for circuit.build_circuit's twelve params.

    The circuit's twin of joint_unitary.  A (..., 12) array of parameter
    vectors gives a (..., 8, 8) stack from one batched product per gate
    layer, each member with the bits of its own call; ValueError unless
    the last axis holds exactly twelve params.
    """
    arr = np.asarray(params, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != 12:
        raise ValueError("expected 12 circuit parameters")
    # the gate entries in scalar arithmetic, row by row, as build_circuit has them
    entries = [_gates(row) for row in arr.reshape(-1, 12).tolist()]
    gates = np.array(entries, dtype=complex).reshape(arr.shape[:-1] + (4, 2, 2))
    gate_a1, gate_a2, gate_b1, gate_b2 = (gates[..., k, :, :] for k in range(4))
    unitary = kron3(gate_a1, _IDENTITY2, _IDENTITY2)
    unitary = _CNOT_S_TO_A @ unitary
    unitary = kron3(gate_a2, HADAMARD, gate_b1) @ unitary
    unitary = _CNOT_S_TO_B @ unitary
    unitary = kron3(_IDENTITY2, HADAMARD, gate_b2) @ unitary
    return unitary


def _fisher_inverse_angle_form(alpha1: float, theta: float) -> float:
    """Single-meter F^-1 in the angle chart: 4 sin^2(a1)(csc^2(theta/2) - sin^2(a1)).

    Independent of the azimuth; agrees with the probability form for pure
    states at the same polar angle.
    """
    s2 = _sin2_half(theta)
    if s2 < _COUPLING_FLOOR:
        return math.inf
    sa2 = math.sin(alpha1) ** 2
    return 4.0 * sa2 * (1.0 / s2 - sa2)


def _qttf_single_quadrature(theta: float, rule: QuadratureRule) -> float:
    """single.qttf_single by quadrature; the oracle for the closed form."""
    values = np.array([_fisher_inverse_angle_form(a1, theta) for a1 in rule.alpha1])
    return rule.integrate(values)


def two_design_average(theta: float) -> float:
    """Mean of the single meter's F^-1 over the six Pauli eigenstates.

    F^-1 is a quadratic polynomial in the state, so this finite average
    equals the full pure-state average exactly.
    """
    vals = [fisher_inverse_single(psi, theta) for psi in PAULI_EIGENSTATES]
    return float(np.mean(vals))
