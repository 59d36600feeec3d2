"""Twelve-parameter estimation circuit on a (meter A, system, meter B) register.

Four generic one-qubit gates and two CNOTs fanned out from the system
compile to the 8x8 block unitary of a MeterModel, on the register
convention of qtomo.model: both meters start in |+> and are read in x.
Its transfer matrix is the Kraus read of that unitary.  The circuit
family contains measurement settings whose average error reaches the
four-outcome optimum of 8.0, a little over twice the best single-shot
error of the two-meter coupling on a per-component basis.
"""
from __future__ import annotations

import math

import numpy as np

from .core import HADAMARD, QuadratureRule, cnot_matrix, kron3
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
    "qttf_circuit",
    "optimize_circuit",
]

# A parameter set that attains the family's optimal average error of 8.0
# under the half-angle gate convention (see build_circuit).  Layout: one
# (theta, phi, lambda) triple per gate, ordered A1, A2, B1, B2.
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


def u3(theta: float, phi: float, lam: float) -> np.ndarray:
    """Generic one-qubit gate with full-angle entries.

    [[cos(theta), -e^{i lam} sin(theta)],
     [e^{i phi} sin(theta), e^{i(phi+lam)} cos(theta)]]

    Note the full angle: u3(pi/2, 0, pi) is the bit flip.  Hardware gate
    sets usually put theta/2 in the entries; build_circuit handles that
    choice explicitly.
    """
    ct, st = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [ct, -np.exp(1.0j * lam) * st],
            [np.exp(1.0j * phi) * st, np.exp(1.0j * (phi + lam)) * ct],
        ]
    )


def _gate(triple: np.ndarray, half_angle: bool) -> np.ndarray:
    theta, phi, lam = triple
    if half_angle:
        theta = theta / 2.0
    return u3(theta, phi, lam)


def _block_unitary(params: np.ndarray, half_angle: bool) -> np.ndarray:
    triples = params.reshape(4, 3)
    gate_a1 = _gate(triples[0], half_angle)
    gate_a2 = _gate(triples[1], half_angle)
    gate_b1 = _gate(triples[2], half_angle)
    gate_b2 = _gate(triples[3], half_angle)

    unitary = kron3(gate_a1, _IDENTITY2, _IDENTITY2)
    unitary = _CNOT_S_TO_A @ unitary
    unitary = kron3(gate_a2, HADAMARD, gate_b1) @ unitary
    unitary = _CNOT_S_TO_B @ unitary
    unitary = kron3(_IDENTITY2, HADAMARD, gate_b2) @ unitary
    return unitary


def build_circuit(params, half_angle: bool = True) -> MeterModel:
    """Compile the circuit to its block unitary; T is the Kraus read.

    Parameters
    ----------
    params:
        Twelve reals, a (theta, phi, lambda) triple for each of the gates
        A1, A2, B1, B2.
    half_angle:
        Interpret each theta as hardware gates do, with theta/2 inside the
        matrix entries.  This is the convention under which
        REFERENCE_OPTIMUM reaches the average error 8.0; pass False to
        feed the triples to u3 unchanged.
    """
    arr = np.asarray(params, dtype=float)
    if arr.shape != (12,):
        raise ValueError("expected 12 circuit parameters")
    return MeterModel(params=tuple(arr), unitary=_block_unitary(arr, half_angle))


def qttf_circuit(
    params,
    rule: QuadratureRule | None = None,
    half_angle: bool = True,
) -> float:
    """Pure-state average of Tr(F^-1) for the circuit at these parameters.

    Exact unless a quadrature rule is passed (see qttf_from_transfer).
    """
    model = build_circuit(params, half_angle=half_angle)
    return qttf_from_transfer(model.transfer_matrix(), rule)


def optimize_circuit(
    restarts: int = 50,
    seed: int = 0,
    rule: QuadratureRule | None = None,
    half_angle: bool = True,
) -> OptimizationResult:
    """Minimize the circuit qTTF over all twelve parameters.

    Nelder-Mead from uniform starts in [0, 2 pi]^12.  The landscape is
    benign enough that most restarts land on the global value 8.0.  The
    objective is the exact qTTF unless a quadrature rule is passed.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, 2.0 * math.pi, size=(restarts, 12))

    def objective(x: np.ndarray) -> float:
        return qttf_circuit(x, rule, half_angle=half_angle)

    return minimize_with_restarts(objective, list(starts), maxiter=4000)
