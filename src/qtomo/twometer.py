"""Two-meter model: complete Bloch-vector estimation in a single setting.

Two meter qubits, both prepared in |+>, couple to the system through the
projectors Pi_1 (meter A, angle theta_A) and Pi_+ (meter B, angle theta_B)
and are read out in the x basis.  On the register convention of
qtomo.model, (meter A, system, meter B), the coupling is the 8x8 block
unitary sum_ij |i><i|_A x U_ij x |j><j|_B.  The four joint outcomes
resolve all three Bloch components, so the 4x4 transfer matrix is
invertible away from degenerate couplings.  The model is that matrix in
closed form; joint_unitary builds the unitary only for the checks, where
its Kraus read is the oracle.
"""
from __future__ import annotations

import math

import numpy as np

from .core import PI_1, PI_PLUS, expm_2x2_hermitian
from .model import (
    MeterModel,
    OptimizationResult,
    minimize_with_restarts,
    qttf_from_transfer,
)

__all__ = [
    "REFERENCE_COUPLINGS",
    "TwoMeterModel",
    "meter_unitaries",
    "joint_unitary",
    "transfer_matrix",
    "qttf_two_meter",
    "optimize_two_meter",
]

# Coupling pair used throughout as the benchmark operating point for this
# model (tables, estimator checks, identity sweeps).  It is the literature
# operating point, not an optimum of this model: the qTTF there is 24.646,
# and the nearest local minimum is 19.497 at (3.378, -7.958).
REFERENCE_COUPLINGS = (3.45, -8.42)


def meter_unitaries(
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
    units = meter_unitaries(theta_a, theta_b)
    stack = units[0].shape[:-2]
    joint = np.zeros(stack + (2,) * 6, dtype=complex)  # axes (..., a, s, b, a', s', b')
    for branch, unit in enumerate(units):
        i, j = divmod(branch, 2)
        joint[..., i, :, j, i, :, j] = unit
    return joint.reshape(stack + (8, 8))


def _half_sinc(tc: float) -> float:
    """sin(tc/2)/tc, 1/2 at 0: np.sinc(tc / 2pi) / 2 in numpy's own steps."""
    x = math.pi * (tc / (2.0 * math.pi))
    return 0.5 * (math.sin(x) / x if x else 1.0)


def _coefficients(theta_a: float, theta_b: float) -> tuple[tuple[float, ...], ...]:
    """Outcome-probability coefficients (a, b, c), each indexed mu = 0..3.

    Outcome (k, l) of Bloch vector s has probability
    sum_mu (s_mu/4) delta_{mu 0} + (a_mu k + b_mu l + c_mu k l) s_mu;
    signs are fixed against the Kraus read of joint_unitary.
    """
    tc = math.hypot(theta_a, theta_b)
    ca, sa = math.cos(theta_a / 2.0), math.sin(theta_a / 2.0)
    cb, sb = math.cos(theta_b / 2.0), math.sin(theta_b / 2.0)
    cc = math.cos(tc / 2.0)
    half_sinc = _half_sinc(tc)
    sin_diff = math.sin((theta_a - theta_b) / 2.0)
    sin_sum = math.sin((theta_a + theta_b) / 2.0)

    a = (
        ca * (ca + theta_b * sb * half_sinc + cb * cc) / 8.0,
        sa * (sb * cc - theta_b * cb * half_sinc) / 8.0,
        theta_a * sa * sb * half_sinc / 8.0,
        sa * (sa + theta_a * cb * half_sinc) / 8.0,
    )
    b = (
        cb * (cb + theta_a * sa * half_sinc + ca * cc) / 8.0,
        -sb * (sb + theta_b * ca * half_sinc) / 8.0,
        -theta_b * sa * sb * half_sinc / 8.0,
        -sb * (sa * cc - theta_a * ca * half_sinc) / 8.0,
    )
    c = (
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
    )
    return a, b, c


def _check_couplings(theta_a: float, theta_b: float) -> None:
    """ValueError naming a non-finite coupling and its value.

    Called only once building or reading T has failed, so the finite path
    pays for no test: an infinite coupling fails in math.cos, a NaN one
    in the finiteness check of the NaN rows it gives.  transfer_matrix
    checks no rows, so it tests its couplings with math.isfinite instead.
    """
    for name, value in (("theta_a", theta_a), ("theta_b", theta_b)):
        if not math.isfinite(value):
            raise ValueError(f"coupling {name} must be finite, got {value}") from None


def _transfer_rows(theta_a: float, theta_b: float) -> list[list[float]]:
    """Rows of T in Python floats: row (k, l) is a k + b l + c kl, plus 1/4 at mu = 0."""
    try:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = _coefficients(
            theta_a, theta_b
        )
    except ValueError:  # math domain error
        _check_couplings(theta_a, theta_b)
        raise
    return [
        [a0 + b0 + c0 + 0.25, a1 + b1 + c1, a2 + b2 + c2, a3 + b3 + c3],
        [a0 - b0 - c0 + 0.25, a1 - b1 - c1, a2 - b2 - c2, a3 - b3 - c3],
        [-a0 + b0 - c0 + 0.25, -a1 + b1 - c1, -a2 + b2 - c2, -a3 + b3 - c3],
        [-a0 - b0 + c0 + 0.25, -a1 - b1 + c1, -a2 - b2 + c2, -a3 - b3 + c3],
    ]


def transfer_matrix(theta_a: float, theta_b: float) -> np.ndarray:
    """4x4 map from Bloch 4-vectors to outcome probabilities (++, +-, -+, --).

    Row (k, l) is a k + b l + c kl.  Column 0 includes the constant 1/4
    alongside the mu = 0 coefficient block; dropping that block would
    break agreement with the simulated process for every non-trivial
    coupling.  The couplings are read as Python floats, so numpy scalars
    give the same bits at Python-float speed.  ValueError naming a
    coupling that is not finite.
    """
    theta_a, theta_b = float(theta_a), float(theta_b)
    if not (math.isfinite(theta_a) and math.isfinite(theta_b)):
        _check_couplings(theta_a, theta_b)
    return np.array(_transfer_rows(theta_a, theta_b))


class TwoMeterModel(MeterModel):
    """The meter model at couplings (theta_A, theta_B), with closed-form T."""

    def __init__(self, theta_a: float, theta_b: float) -> None:
        theta_a, theta_b = float(theta_a), float(theta_b)
        super().__init__(params=(theta_a, theta_b), _tmat=transfer_matrix(theta_a, theta_b))


def qttf_two_meter(theta_a: float, theta_b: float) -> float:
    """Exact pure-state average of Tr(F^-1) at the given couplings.

    ValueError naming a coupling that is not finite.
    """
    try:
        return qttf_from_transfer(_transfer_rows(float(theta_a), float(theta_b)))
    except ValueError:  # T is not finite
        _check_couplings(theta_a, theta_b)
        raise


def optimize_two_meter(restarts: int = 20, seed: int = 0) -> OptimizationResult:
    """Minimize the qTTF over couplings with restarted Nelder-Mead.

    Starts are uniform in [-3 pi, 3 pi]^2; individual searches may wander
    outside that box, which is fine since the model accepts any reals, so
    the returned point may lie outside it.  The result is the best local
    minimum reached from the starts, not a global optimum: the qTTF keeps
    falling as |theta| grows, so an optimum only means something for a
    stated domain.  The objective is the exact qTTF.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-3.0 * math.pi, 3.0 * math.pi, size=(restarts, 2))

    def objective(x: list[float]) -> float:
        return qttf_two_meter(x[0], x[1])

    return minimize_with_restarts(objective, list(starts))
