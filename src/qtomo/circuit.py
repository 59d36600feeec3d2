"""Twelve-parameter estimation circuit on a (meter A, system, meter B) register.

Four generic one-qubit gates and two CNOTs fanned out from the system
make an 8x8 block unitary, on the register convention of qtomo.model:
both meters start in |+> and are read in x.  Both CNOTs are controlled
by the system, so the Kraus operator of meter outcomes (a, b) factors
into 2x2 pieces,

    K_ab = H diag(beta_b) H diag(alpha_a),
    alpha_a[s] = <a| H A2 X^s A1 |+>,   beta_b[s] = <b| H B2 X^s B1 |+>,

and the transfer matrix, which is the model, is read off those factors
in scalar arithmetic.  circuit_unitary compiles the 8x8 unitary only for
the checks, where its Kraus read is the oracle.  The circuit family
contains measurement settings whose average error reaches the
four-outcome optimum of 8.0, a little over twice the best single-shot
error of the two-meter coupling on a per-component basis.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .core import HADAMARD, cnot_matrix, kron3
from .model import (
    MeterModel,
    OptimizationResult,
    minimize_with_restarts,
    qttf_from_transfer,
)

__all__ = [
    "REFERENCE_OPTIMUM",
    "u3",
    "build_circuit",
    "circuit_unitary",
    "qttf_circuit",
    "optimize_circuit",
]

# A parameter set that attains the family's optimal average error of 8.0.
# Layout: one (theta, phi, lambda) triple per gate, ordered A1, A2, B1, B2;
# build_circuit puts theta/2 in each gate's entries.
REFERENCE_OPTIMUM = (
    0.59, 1.58, 2.52,
    2.55, 1.94, 0.31,
    0.70, 4.31, 3.46,
    0.67, 6.47, 4.47,
)

_IDENTITY2 = np.eye(2, dtype=complex)

# Register layout (A, S, B); qubit 0 is the leftmost factor.
_CNOT_S_TO_A = cnot_matrix(control=1, target=0)
_CNOT_S_TO_B = cnot_matrix(control=1, target=2)


def _u3_entries(theta: float, phi: float, lam: float) -> tuple[complex, ...]:
    """Entries (g00, g01, g10, g11) of u3(theta, phi, lam) as Python scalars."""
    ct, st = math.cos(theta), math.sin(theta)
    e_phi = cmath.exp(1.0j * phi)
    e_lam = cmath.exp(1.0j * lam)
    return ct, -e_lam * st, e_phi * st, cmath.exp(1.0j * (phi + lam)) * ct


def u3(theta: float, phi: float, lam: float) -> np.ndarray:
    """Generic one-qubit gate with full-angle entries.

    [[cos(theta), -e^{i lam} sin(theta)],
     [e^{i phi} sin(theta), e^{i(phi+lam)} cos(theta)]]

    Note the full angle: u3(pi/2, 0, pi) is the bit flip.  The circuit's
    gates are u3(theta/2, phi, lambda), the hardware convention, so a
    circuit parameter theta = pi is the bit flip there.
    """
    g00, g01, g10, g11 = _u3_entries(theta, phi, lam)
    return np.array([[g00, g01], [g10, g11]])


def _gates(params) -> list[tuple[complex, ...]]:
    """Entries of the gates A1, A2, B1, B2, each u3(theta/2, phi, lambda).

    params is any sequence of twelve floats.
    """
    return [
        _u3_entries(theta / 2.0, phi, lam)
        for theta, phi, lam in zip(params[0::3], params[1::3], params[2::3])
    ]


def _checked_params(params) -> list[float]:
    """The twelve parameters as Python floats; ValueError unless shape (12,)."""
    arr = np.asarray(params, dtype=float)
    if arr.shape != (12,):
        raise ValueError("expected 12 circuit parameters")
    return arr.tolist()


def circuit_unitary(params) -> np.ndarray:
    """8x8 block unitary on (A, S, B) for build_circuit's twelve params.

    The circuit's twin of joint_unitary, for the checks.  A (..., 12)
    array of parameter vectors gives a (..., 8, 8) stack from one batched
    product per gate layer, each member with the bits of its own call;
    ValueError unless the last axis holds exactly twelve params.
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


def _meter_amplitudes(first: tuple, second: tuple) -> tuple[tuple[complex, complex], ...]:
    """2 <a| H G2 X^s G1 |+> for one meter's gates G1 then G2, indexed [a][s]."""
    f00, f01, f10, f11 = first
    s00, s01, s10, s11 = second
    v0, v1 = f00 + f01, f10 + f11  # sqrt(2) G1|+>
    # G2 X^s (v0, v1): the system bit s swaps the two components
    w00, w10 = s00 * v0 + s01 * v1, s10 * v0 + s11 * v1
    w01, w11 = s00 * v1 + s01 * v0, s10 * v1 + s11 * v0
    return (w00 + w10, w01 + w11), (w00 - w10, w01 - w11)


def _check_finite(params) -> None:
    """ValueError naming the first non-finite parameter and its value.

    Called only once building or reading T has failed, so the finite path
    pays for no test: an infinite parameter fails in math.cos or
    cmath.exp, a NaN one in the finiteness check of the NaN rows it gives.
    """
    for index, value in enumerate(params):
        if not math.isfinite(value):
            raise ValueError(
                f"circuit parameter {index} must be finite, got {value}"
            ) from None


def _transfer_rows(params) -> list[tuple[float, ...]]:
    """Rows of T in Python floats, from K_ab = H diag(beta_b) H diag(alpha_a).

    params is any sequence of twelve floats.

    E = K^dag K has diagonal |alpha_a[s]|^2 (|beta_b[0]|^2 + |beta_b[1]|^2)/2
    and off-diagonal conj(alpha_a[0]) alpha_a[1] (|beta_b[0]|^2 - |beta_b[1]|^2)/2;
    T[q, mu] = Tr(E_q sigma_mu)/2 with q = 2a + b, so the sigma_y column
    is -Im E_01.  The amplitudes carry a factor 2 each, hence 1/64 and 1/32.
    """
    try:
        gate_a1, gate_a2, gate_b1, gate_b2 = _gates(params)
    except ValueError:  # math domain error
        _check_finite(params)
        raise
    alpha = _meter_amplitudes(gate_a1, gate_a2)
    beta = _meter_amplitudes(gate_b1, gate_b2)
    meter_b = []
    for b0, b1 in beta:
        p0 = b0.real * b0.real + b0.imag * b0.imag
        p1 = b1.real * b1.real + b1.imag * b1.imag
        meter_b.append((p0 + p1, p0 - p1))
    rows = []
    for a0, a1 in alpha:
        p0 = a0.real * a0.real + a0.imag * a0.imag
        p1 = a1.real * a1.real + a1.imag * a1.imag
        cross = a0.conjugate() * a1
        for b_sum, b_diff in meter_b:
            rows.append(
                (
                    (p0 + p1) * b_sum / 64.0,
                    cross.real * b_diff / 32.0,
                    -cross.imag * b_diff / 32.0,
                    (p0 - p1) * b_sum / 64.0,
                )
            )
    return rows


def build_circuit(params) -> MeterModel:
    """The circuit's model: T from its gate factors.

    params are twelve reals, a (theta, phi, lambda) triple for each of the
    gates A1, A2, B1, B2.  Each theta is read as hardware gates read it:
    the gate is u3(theta/2, phi, lambda), with theta/2 inside the matrix
    entries.  REFERENCE_OPTIMUM reaches the average error 8.0 in this
    reading.
    """
    values = _checked_params(params)
    try:
        return MeterModel(params=tuple(values), _tmat=np.array(_transfer_rows(values)))
    except ValueError:  # T is not finite
        _check_finite(values)
        raise


def qttf_circuit(params) -> float:
    """Exact pure-state average of Tr(F^-1) for the circuit at these parameters.

    ValueError naming a parameter that is not finite.
    """
    values = _checked_params(params)
    try:
        return qttf_from_transfer(_transfer_rows(values))
    except ValueError:  # T is not finite
        _check_finite(values)
        raise


def optimize_circuit(restarts: int = 50, seed: int = 0) -> OptimizationResult:
    """Minimize the exact circuit qTTF over all twelve parameters.

    Nelder-Mead from uniform starts in [0, 2 pi]^12.  The landscape is
    benign enough that most restarts land on the global value 8.0.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, 2.0 * math.pi, size=(restarts, 12))

    def objective(x: list[float]) -> float:
        return qttf_from_transfer(_transfer_rows(x))

    return minimize_with_restarts(objective, list(starts), maxiter=4000)
