"""Two-meter model: complete Bloch-vector estimation in a single setting.

Two meter qubits, both prepared in |+>, couple to the system through the
projectors Pi_1 (meter A, angle theta_A) and Pi_+ (meter B, angle theta_B)
and are read out in the x basis.  The four joint outcomes resolve all
three Bloch components, so the 4x4 transfer matrix is invertible away
from degenerate couplings.  The model is that matrix in closed form; its
coupling unitary, whose Kraus read is the oracle, is built only by the
checks, as qtomo._oracles.joint_unitary.

Row (k, l) of T is e0/4 + k a + l b + kl c, so T = W C with W the sign
matrix of rows (1, k, l, kl), W^T W = 4I, and C = [[1/4, 0], [g, B]],
g = (a0, b0, c0).  The qTTF reads T^-1 = C^-1 W^T / 4 from one 3x3
inverse, X = B^-1, whose columns are the cross products U, V and W of
B's rows over det B.  Completeness, T's columns summing to (1, 0, 0, 0),
is sum_q w_q = 0 for the sign rows w_q = (k, l, kl); with their second
moment 4I and third moment 4|eps_ijk| (kl is k times l), the sum over
the four outcomes collapses into the Gram matrix of (U, V, W), so the
qTTF needs no per-outcome vector (_qttf_factored).
"""
from __future__ import annotations

import math

import numpy as np

from .core import _check_integer, _real_number
from .model import (
    _FACTORED_BOUND,
    MeterModel,
    OptimizationResult,
    _qttf_rows,
    _refuse_non_finite,
    minimize_with_restarts,
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
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = _coefficients(theta_a, theta_b)
    return [
        [a0 + b0 + c0 + 0.25, a1 + b1 + c1, a2 + b2 + c2, a3 + b3 + c3],
        [a0 - b0 - c0 + 0.25, a1 - b1 - c1, a2 - b2 - c2, a3 - b3 - c3],
        [-a0 + b0 - c0 + 0.25, -a1 + b1 - c1, -a2 + b2 - c2, -a3 + b3 - c3],
        [-a0 - b0 + c0 + 0.25, -a1 - b1 + c1, -a2 - b2 + c2, -a3 - b3 + c3],
    ]


def _qttf_factored(theta_a: float, theta_b: float) -> float:
    """The exact qTTF from T = W C, with no 4x4 inverse.

    W has rows (1, k, l, kl), so W^T W = 4I, and C has rows (1/4, 0, 0, 0),
    a, b and c: C = [[1/4, 0], [g, B]] with g = (a0, b0, c0).  Then
    a_q = X (w_q - 4g) / 4 with X = B^-1 and w_q = (k, l, kl).  X is
    M / det B, M = (U V W) with the cross products of B's rows as columns,
    so 4 det B a_q = M (w_q - 4g) and, with G = M^T M and h = 4 M g,

        16 det B^2 (qTTF + 1) = sum_q (1/4 + g . w_q) (w_q - 4g)^T G (w_q - 4g).

    The sign rows' moments, sum_q w_q = 0 (completeness: T's columns sum
    to (1, 0, 0, 0)), sum_q w_q w_q^T = 4I and sum_q w_qi w_qj w_ql =
    4|eps_ijl|, collapse the sum to Tr G - |h|^2 + 8 (a0 G_VW + b0 G_UW
    + c0 G_UV), that is |U|^2 + |V|^2 + |W|^2 - |h|^2
    + 8 (a0 V.W + b0 U.W + c0 U.V).

    The sign matrix over 2 is orthogonal, so the certificate
    |T|_F |T^-1|_F is |C|_F |C^-1|_F, with det B^2 |C^-1|_F^2 =
    16 det B^2 + |h|^2 + |U|^2 + |V|^2 + |W|^2.  The certificate test is
    written with det B^2 multiplied out, so a zero or underflowing
    determinant and a non-finite value fail it too; any setting that
    fails it, with a certificate at or above model._FACTORED_BOUND, hands
    T's rows to _qttf_rows, whose bits and inf decisions are the T route's.
    """
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = _coefficients(theta_a, theta_b)
    # U = b x c, V = c x a and W = a x b; det B = a . U
    u1, u2, u3 = b2 * c3 - b3 * c2, b3 * c1 - b1 * c3, b1 * c2 - b2 * c1
    v1, v2, v3 = c2 * a3 - c3 * a2, c3 * a1 - c1 * a3, c1 * a2 - c2 * a1
    w1, w2, w3 = a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1
    det = a1 * u1 + a2 * u2 + a3 * u3
    det_sq = det * det
    # H = 4 det B X g, so 4 det B a_q = k U + l V + kl W - H
    g0, g1, g2 = 4.0 * a0, 4.0 * b0, 4.0 * c0
    h1 = g0 * u1 + g1 * v1 + g2 * w1
    h2 = g0 * u2 + g1 * v2 + g2 * w2
    h3 = g0 * u3 + g1 * v3 + g2 * w3
    c_sq = (
        0.0625 + a0 * a0 + b0 * b0 + c0 * c0
        + a1 * a1 + a2 * a2 + a3 * a3 + b1 * b1 + b2 * b2 + b3 * b3
        + c1 * c1 + c2 * c2 + c3 * c3
    )
    uu = u1 * u1 + u2 * u2 + u3 * u3
    vv = v1 * v1 + v2 * v2 + v3 * v3
    ww = w1 * w1 + w2 * w2 + w3 * w3
    hh = h1 * h1 + h2 * h2 + h3 * h3
    # det B^2 |C^-1|_F^2
    inverse_sq = 16.0 * det_sq + hh + uu + vv + ww
    if not c_sq * inverse_sq < _FACTORED_BOUND * _FACTORED_BOUND * det_sq:
        return _qttf_rows(_transfer_rows(theta_a, theta_b))
    total = (
        uu + vv + ww - hh
        + 8.0 * (
            a0 * (v1 * w1 + v2 * w2 + v3 * w3)
            + b0 * (u1 * w1 + u2 * w2 + u3 * w3)
            + c0 * (u1 * v1 + u2 * v2 + u3 * v3)
        )
    )
    return total / (16.0 * det_sq) - 1.0


def _checked_couplings(theta_a, theta_b) -> tuple[float, float]:
    """The couplings as Python floats; ValueError naming one that is not a
    real number, such as a complex value or text."""
    if type(theta_a) is float and type(theta_b) is float:
        return theta_a, theta_b
    return (
        _real_number(theta_a, _COUPLING_NAMES[0]),
        _real_number(theta_b, _COUPLING_NAMES[1]),
    )


def transfer_matrix(theta_a: float, theta_b: float) -> np.ndarray:
    """4x4 map from Bloch 4-vectors to outcome probabilities (++, +-, -+, --).

    Row (k, l) is a k + b l + c kl.  Column 0 includes the constant 1/4
    alongside the mu = 0 coefficient block; dropping that block would
    break agreement with the simulated process for every non-trivial
    coupling.  The couplings are read as Python floats, so numpy scalars
    give the same bits at Python-float speed.  ValueError naming a
    coupling that is not a finite real number.
    """
    theta_a, theta_b = _checked_couplings(theta_a, theta_b)
    if not (math.isfinite(theta_a) and math.isfinite(theta_b)):
        _refuse_non_finite(_COUPLING_NAMES, (theta_a, theta_b))
    return np.array(_transfer_rows(theta_a, theta_b))


class TwoMeterModel(MeterModel):
    """The meter model at couplings (theta_A, theta_B), with closed-form T."""

    def __init__(self, theta_a: float, theta_b: float) -> None:
        theta_a, theta_b = _checked_couplings(theta_a, theta_b)
        super().__init__(params=(theta_a, theta_b), _tmat=transfer_matrix(theta_a, theta_b))


def qttf_two_meter(theta_a: float, theta_b: float) -> float:
    """Exact pure-state average of Tr(F^-1) at the given couplings.

    ValueError naming a coupling that is not a finite real number.
    """
    theta_a, theta_b = _checked_couplings(theta_a, theta_b)
    try:
        return _qttf_factored(theta_a, theta_b)
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
    stated domain.  The objective is the exact qTTF, qttf_two_meter's
    value without its checks of the couplings, which are floats here.
    """
    _check_integer("restarts", restarts, 1)
    _check_integer("seed", seed)
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-3.0 * math.pi, 3.0 * math.pi, size=(restarts, 2))

    def objective(x: list[float]) -> float:
        return _qttf_factored(x[0], x[1])

    return minimize_with_restarts(objective, list(starts))
