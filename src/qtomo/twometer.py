"""Two-meter model: complete Bloch-vector estimation in a single setting.

Two meter qubits, both prepared in |+>, couple to the system through the
projectors Pi_1 (meter A, angle theta_A) and Pi_+ (meter B, angle theta_B)
and are read out in the x basis.  The four joint outcomes resolve all
three Bloch components, so the 4x4 transfer matrix is invertible away
from degenerate couplings.  The model is that matrix in closed form; its
coupling unitary, whose Kraus read is the oracle, is built only by the
checks, as qtomo._oracles.joint_unitary.
"""
from __future__ import annotations

import math

import numpy as np

from .model import (
    MeterModel,
    OptimizationResult,
    _refuse_non_finite,
    minimize_with_restarts,
    qttf_from_transfer,
)

__all__ = [
    "REFERENCE_COUPLINGS",
    "TwoMeterModel",
    "transfer_matrix",
    "qttf_two_meter",
    "optimize_two_meter",
]

# Coupling pair used throughout as the benchmark operating point for this
# model (tables, estimator checks, identity sweeps).  It is the literature
# operating point, not an optimum of this model: the qTTF there is 24.646,
# and the nearest local minimum is 19.497 at (3.378, -7.958).
REFERENCE_COUPLINGS = (3.45, -8.42)

_COUPLING_NAMES = ("coupling theta_a", "coupling theta_b")


def _half_sinc(tc: float) -> float:
    """sin(tc/2)/tc, 1/2 at 0: np.sinc(tc / 2pi) / 2 in numpy's own steps."""
    x = math.pi * (tc / (2.0 * math.pi))
    return 0.5 * (math.sin(x) / x if x else 1.0)


def _coefficients(theta_a: float, theta_b: float) -> tuple[tuple[float, ...], ...]:
    """Outcome-probability coefficients (a, b, c), each indexed mu = 0..3.

    Outcome (k, l) of Bloch vector s has probability
    sum_mu (s_mu/4) delta_{mu 0} + (a_mu k + b_mu l + c_mu k l) s_mu;
    signs are fixed against the Kraus read of _oracles.joint_unitary.
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


def _transfer_rows(theta_a: float, theta_b: float) -> list[list[float]]:
    """Rows of T in Python floats: row (k, l) is a k + b l + c kl, plus 1/4 at mu = 0."""
    try:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = _coefficients(
            theta_a, theta_b
        )
    except ValueError:  # math domain error
        _refuse_non_finite(_COUPLING_NAMES, (theta_a, theta_b))
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
        _refuse_non_finite(_COUPLING_NAMES, (theta_a, theta_b))
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
        _refuse_non_finite(_COUPLING_NAMES, (theta_a, theta_b))
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
