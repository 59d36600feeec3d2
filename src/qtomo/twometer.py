"""Two-meter model: complete Bloch-vector estimation in a single setting.

Two meter qubits, both prepared in |+>, couple to the system through the
projectors Pi_1 (meter A, angle theta_A) and Pi_+ (meter B, angle theta_B)
and are read out in the x basis.  The four joint outcomes resolve all three
Bloch components, so the 4x4 transfer matrix is invertible away from
degenerate couplings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    HADAMARD,
    PI_1,
    PI_PLUS,
    SIGMA,
    QuadratureRule,
    check_density,
    expm_2x2_hermitian,
    kron3,
)
from .model import (
    SIGN_MATRIX,
    OptimizationResult,
    delta_from_transfer,
    fisher_from_transfer,
    minimize_with_restarts,
    qttf_from_transfer,
)

__all__ = [
    "REFERENCE_COUPLINGS",
    "TwoMeterModel",
    "meter_unitaries",
    "coefficients_closed_form",
    "coefficients_trace_form",
    "transfer_matrix",
    "simulate_probabilities",
    "fisher_matrix",
    "delta_error",
    "qttf_two_meter",
    "optimize_two_meter",
]

# Coupling pair used throughout as the benchmark operating point for this
# model (tables, estimator checks, identity sweeps).  It is the literature
# operating point, not an optimum of this model: the qTTF there is 24.646,
# and the nearest local minimum is 19.497 at (3.378, -7.958).
REFERENCE_COUPLINGS = (3.45, -8.42)


def meter_unitaries(theta_a: float, theta_b: float) -> tuple[np.ndarray, ...]:
    """System-side evolutions (U00, U01, U10, U11), one per meter branch.

    Branch (i, j) applies exp(-i(theta_A i Pi_1 + theta_B j Pi_+)).  The
    two generators do not commute, so U11 is a genuinely joint exponential
    rather than a product of the single-meter factors.
    """
    u00 = np.eye(2, dtype=complex)
    u01 = expm_2x2_hermitian(PI_PLUS, theta_b)
    u10 = expm_2x2_hermitian(PI_1, theta_a)
    u11 = expm_2x2_hermitian(theta_a * PI_1 + theta_b * PI_PLUS, 1.0)
    return u00, u01, u10, u11


def coefficients_closed_form(
    theta_a: float, theta_b: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outcome-probability coefficients (a, b, c), each indexed mu = 0..3.

    The probability of joint outcome (k, l) for Bloch vector s is
    sum_mu (s_mu/4) delta_{mu 0} + (a_mu k + b_mu l + c_mu k l) s_mu.
    sin(theta_C/2)/theta_C is evaluated through sinc, so the removable
    singularity at theta_C = 0 needs no special casing.  Signs here are
    fixed against the trace-form oracle and direct simulation of the
    meter process (see coefficients_trace_form).
    """
    tc = math.hypot(theta_a, theta_b)
    ca, sa = math.cos(theta_a / 2.0), math.sin(theta_a / 2.0)
    cb, sb = math.cos(theta_b / 2.0), math.sin(theta_b / 2.0)
    cc = math.cos(tc / 2.0)
    half_sinc = 0.5 * np.sinc(tc / (2.0 * math.pi))  # sin(tc/2)/tc, 1/2 at 0
    sin_diff = math.sin((theta_a - theta_b) / 2.0)
    sin_sum = math.sin((theta_a + theta_b) / 2.0)

    a = np.array(
        [
            ca * (ca + theta_b * sb * half_sinc + cb * cc) / 8.0,
            sa * (sb * cc - theta_b * cb * half_sinc) / 8.0,
            theta_a * sa * sb * half_sinc / 8.0,
            sa * (sa + theta_a * cb * half_sinc) / 8.0,
        ]
    )
    b = np.array(
        [
            cb * (cb + theta_a * sa * half_sinc + ca * cc) / 8.0,
            -sb * (sb + theta_b * ca * half_sinc) / 8.0,
            -theta_b * sa * sb * half_sinc / 8.0,
            -sb * (sa * cc - theta_a * ca * half_sinc) / 8.0,
        ]
    )
    c = np.array(
        [
            (
                4.0 * cc * math.cos((theta_a + theta_b) / 2.0)
                + math.cos(theta_a - theta_b)
                + math.cos(theta_a)
                + math.cos(theta_b)
                + 1.0
            )
            / 32.0,
            (ca * sb * sin_diff - theta_b * half_sinc * sin_sum) / 8.0,
            sa * sb * sin_diff / 8.0,
            (sa * cb * sin_diff + theta_a * half_sinc * sin_sum) / 8.0,
        ]
    )
    return a, b, c


def coefficients_trace_form(
    theta_a: float, theta_b: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The same coefficients from operator traces; the arbiter of signs.

    a_mu = Tr(A sigma_mu)/2 with A = (1/16) sum_ij U_ij^dag U_{1-i, j},
    and b, c likewise with the flip on the other (or both) meter indices.
    Slower than the closed form but free of hand algebra.
    """
    units = meter_unitaries(theta_a, theta_b)

    def branch(i: int, j: int) -> np.ndarray:
        return units[2 * i + j]

    amat = np.zeros((2, 2), dtype=complex)
    bmat = np.zeros((2, 2), dtype=complex)
    cmat = np.zeros((2, 2), dtype=complex)
    for i in (0, 1):
        for j in (0, 1):
            u = branch(i, j).conj().T
            amat += u @ branch(1 - i, j)
            bmat += u @ branch(i, 1 - j)
            cmat += u @ branch(1 - i, 1 - j)
    amat /= 16.0
    bmat /= 16.0
    cmat /= 16.0

    def components(m: np.ndarray) -> np.ndarray:
        return np.array([0.5 * np.trace(m @ SIGMA[mu]).real for mu in range(4)])

    return components(amat), components(bmat), components(cmat)


def transfer_matrix(theta_a: float, theta_b: float) -> np.ndarray:
    """4x4 map from Bloch 4-vectors to outcome probabilities (++, +-, -+, --).

    Column 0 includes the constant 1/4 alongside the mu = 0 coefficient
    block; dropping that block would break agreement with the simulated
    process for every non-trivial coupling.
    """
    a, b, c = coefficients_closed_form(theta_a, theta_b)
    tmat = np.empty((4, 4))
    tmat[:, 0] = 0.25
    for mu in range(4):
        column = a[mu] * SIGN_MATRIX[0] + b[mu] * SIGN_MATRIX[1] + c[mu] * SIGN_MATRIX[2]
        if mu == 0:
            tmat[:, 0] += column
        else:
            tmat[:, mu] = column
    return tmat


def simulate_probabilities(
    rho0: np.ndarray, theta_a: float, theta_b: float
) -> np.ndarray:
    """Outcome probabilities by direct 3-qubit density-matrix evolution.

    Register order is (system, meter A, meter B).  Both meters start in
    |+>, the joint unitary applies the branch evolutions controlled on the
    meter z basis, and the meters are read in x (Hadamard then z).  This
    is the ground truth that the transfer matrix must reproduce.
    """
    rho0 = check_density(rho0)
    plus = np.full((2, 2), 0.5, dtype=complex)
    rho = kron3(rho0, plus, plus)

    units = meter_unitaries(theta_a, theta_b)
    dim = 8
    joint = np.zeros((dim, dim), dtype=complex)
    for i in (0, 1):
        for j in (0, 1):
            sel_a = np.zeros((2, 2))
            sel_a[i, i] = 1.0
            sel_b = np.zeros((2, 2))
            sel_b[j, j] = 1.0
            joint += kron3(units[2 * i + j], sel_a, sel_b)

    basis_change = kron3(np.eye(2, dtype=complex), HADAMARD, HADAMARD)
    final = basis_change @ joint @ rho @ joint.conj().T @ basis_change.conj().T

    probs = np.empty(4)
    for idx, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        sel_a = np.zeros((2, 2))
        sel_a[i, i] = 1.0
        sel_b = np.zeros((2, 2))
        sel_b[j, j] = 1.0
        probs[idx] = np.trace(kron3(np.eye(2), sel_a, sel_b) @ final).real
    return probs


@dataclass(frozen=True)
class TwoMeterModel:
    """Transfer-matrix view of the two-meter coupling at fixed angles."""

    theta_a: float
    theta_b: float
    _tmat: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_tmat", transfer_matrix(self.theta_a, self.theta_b))

    def transfer_matrix(self) -> np.ndarray:
        return self._tmat

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        return simulate_probabilities(rho, self.theta_a, self.theta_b)

    @property
    def condition_number(self) -> float:
        return float(np.linalg.cond(self._tmat))


def fisher_matrix(state: np.ndarray, theta_a: float, theta_b: float) -> np.ndarray:
    """Fisher matrix of the three Bloch components for one input state."""
    return fisher_from_transfer(transfer_matrix(theta_a, theta_b), state)


def delta_error(state: np.ndarray, theta_a: float, theta_b: float) -> float:
    """Per-shot error Tr(F^-1); inf where the model loses a direction."""
    return delta_from_transfer(transfer_matrix(theta_a, theta_b), state)


def qttf_two_meter(
    theta_a: float, theta_b: float, rule: QuadratureRule | None = None
) -> float:
    """Pure-state average of Tr(F^-1) at the given couplings.

    Exact unless a quadrature rule is passed (see qttf_from_transfer).
    """
    return qttf_from_transfer(transfer_matrix(theta_a, theta_b), rule)


def optimize_two_meter(
    restarts: int = 20,
    seed: int = 0,
    rule: QuadratureRule | None = None,
) -> OptimizationResult:
    """Minimize the qTTF over couplings with restarted Nelder-Mead.

    Starts are uniform in [-3 pi, 3 pi]^2; individual searches may wander
    outside that box, which is fine since the model accepts any reals, so
    the returned point may lie outside it.  The result is the best local
    minimum reached from the starts, not a global optimum: the qTTF keeps
    falling as |theta| grows, so an optimum only means something for a
    stated domain.  The objective is the exact qTTF unless a quadrature
    rule is passed.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-3.0 * math.pi, 3.0 * math.pi, size=(restarts, 2))

    def objective(x: np.ndarray) -> float:
        return qttf_two_meter(x[0], x[1], rule)

    return minimize_with_restarts(objective, list(starts))
