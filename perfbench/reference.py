"""Transfer matrices of both models from the physics, in plain numpy.

Nothing here calls qtomo: each model's 4x4 transfer matrix is rebuilt
from its 3-qubit density-matrix evolution, so the design check does not
trust qtomo's own model build.  Column 0 holds the outcome probabilities
(++, +-, -+, --) of I/2 and column mu those of (I + sigma_mu)/2 minus
column 0, so that p = T s for the Bloch 4-vector s = (1, sx, sy, sz).
"""
from __future__ import annotations

import math

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
# The system states whose outcome probabilities make up the columns.
SYSTEM_STATES = (0.5 * I2, 0.5 * (I2 + X), 0.5 * (I2 + Y), 0.5 * (I2 + Z))


def kron(*ops: np.ndarray) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for op in ops:
        out = np.kron(out, op)
    return out


def evolve_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(-i h) for a Hermitian 2x2 h, from h = h0 I + n.sigma."""
    h0 = 0.5 * np.trace(h).real
    n = np.array([0.5 * np.trace(h @ p).real for p in (X, Y, Z)])
    r = float(np.linalg.norm(n))
    axis = sum(c * p for c, p in zip(n, (X, Y, Z))) / r if r > 0 else 0 * I2
    return np.exp(-1j * h0) * (math.cos(r) * I2 - 1j * math.sin(r) * axis)


def _columns(probs) -> np.ndarray:
    cols = [probs(rho) for rho in SYSTEM_STATES]
    return np.stack([cols[0]] + [c - cols[0] for c in cols[1:]], axis=1)


def two_meter_transfer(theta_a: float, theta_b: float) -> np.ndarray:
    """Register (system, meter A, meter B).  Meter branch (i, j) applies
    exp(-i(theta_A i |1><1| + theta_B j |+><+|)) to the system; both meters
    start in |+> and are read in the x basis."""
    joint = sum(
        kron(evolve_hermitian(theta_a * i * P1 + theta_b * j * PLUS), sel_a, sel_b)
        for i, sel_a in enumerate((P0, P1))
        for j, sel_b in enumerate((P0, P1))
    )
    readout = kron(I2, H, H) @ joint

    def probs(rho):
        final = readout @ kron(rho, PLUS, PLUS) @ readout.conj().T
        # index = 4 * system + 2 * meter A + meter B
        return np.real(np.diagonal(final)).reshape(2, 4).sum(axis=0)

    return _columns(probs)


def gate(theta: float, phi: float, lam: float) -> np.ndarray:
    """Hardware-convention one-qubit gate, theta/2 in the entries."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -np.exp(1j * lam) * s],
                     [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]])


def circuit_transfer(params) -> np.ndarray:
    """Register (meter A, system, meter B).  Gate A1; CNOT system -> A;
    A2, H on the system, B1; CNOT system -> B; H on the system, B2.  Both
    meters start in |+> and are read in the x basis."""
    a1, a2, b1, b2 = (gate(*triple) for triple in np.reshape(params, (4, 3)))
    cnot_a = kron(I2, P0, I2) + kron(X, P1, I2)
    cnot_b = kron(I2, P0, I2) + kron(I2, P1, X)
    unitary = (kron(I2, H, b2) @ cnot_b @ kron(a2, H, b1) @ cnot_a @ kron(a1, I2, I2))
    readout = kron(H, I2, H) @ unitary

    def probs(rho):
        final = readout @ kron(PLUS, rho, PLUS) @ readout.conj().T
        # index = 4 * meter A + 2 * system + meter B; sum over the system
        return np.real(np.diagonal(final)).reshape(2, 2, 2).sum(axis=1).reshape(4)

    return _columns(probs)
