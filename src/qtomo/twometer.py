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
qTTF needs no per-outcome vector.  One forward pass (_forward) serves
qttf_two_meter and optimize_two_meter's objective, value_and_gradient,
which runs backwards through its factors for the qTTF's gradient over
the couplings and reads the coefficients' derivatives from the same
pass's sines and cosines.
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
    _qttf_rows_gradient,
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


def _trig_and_coefficients(theta_a: float, theta_b: float) -> tuple:
    """(trig, (a, b, c)): _coefficients' value and the trig it reads.

    trig = (tc, ca, sa, cb, sb, cc, half_sinc, sin_diff, sin_sum,
    cos_sum) holds tc = hypot(theta_a, theta_b), the cosines and sines of
    theta_a/2, theta_b/2 and tc/2, _half_sinc(tc), and the sines of
    (theta_a -+ theta_b)/2 and the cosine of their sum: all the trig that
    _coefficient_derivatives reads but cos((theta_a - theta_b)/2), which
    the coefficients do not need.  _forward returns it, so the gradient
    does not compute it again.
    """
    tc = math.hypot(theta_a, theta_b)
    ca, sa = math.cos(theta_a / 2.0), math.sin(theta_a / 2.0)
    cb, sb = math.cos(theta_b / 2.0), math.sin(theta_b / 2.0)
    cc = math.cos(tc / 2.0)
    half_sinc = _half_sinc(tc)
    sin_diff = math.sin((theta_a - theta_b) / 2.0)
    sin_sum = math.sin((theta_a + theta_b) / 2.0)
    cos_sum = math.cos((theta_a + theta_b) / 2.0)

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
            4.0 * cc * cos_sum
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
    return (tc, ca, sa, cb, sb, cc, half_sinc, sin_diff, sin_sum, cos_sum), (a, b, c)


def _coefficients(theta_a: float, theta_b: float) -> tuple[tuple[float, ...], ...]:
    """Outcome-probability coefficients (a, b, c), each indexed mu = 0..3.

    Outcome (k, l) of Bloch vector s has probability
    sum_mu (s_mu/4) delta_{mu 0} + (a_mu k + b_mu l + c_mu k l) s_mu;
    signs are fixed against the Kraus read of _oracles.joint_unitary.
    """
    return _trig_and_coefficients(theta_a, theta_b)[1]


def _rows(a, b, c) -> list[list[float]]:
    """Rows of T in Python floats from the coefficient triples (a, b, c):
    row (k, l) is a k + b l + c kl, plus 1/4 at mu = 0."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = a, b, c
    return [
        [a0 + b0 + c0 + 0.25, a1 + b1 + c1, a2 + b2 + c2, a3 + b3 + c3],
        [a0 - b0 - c0 + 0.25, a1 - b1 - c1, a2 - b2 - c2, a3 - b3 - c3],
        [-a0 + b0 - c0 + 0.25, -a1 + b1 - c1, -a2 + b2 - c2, -a3 + b3 - c3],
        [-a0 - b0 + c0 + 0.25, -a1 - b1 + c1, -a2 - b2 + c2, -a3 - b3 + c3],
    ]


def _transfer_rows(theta_a: float, theta_b: float) -> list[list[float]]:
    """Rows of T in Python floats at these couplings."""
    return _rows(*_trig_and_coefficients(theta_a, theta_b)[1])


def _forward(theta_a: float, theta_b: float) -> tuple:
    """The exact qTTF from T = W C, with no 4x4 inverse, and the factors it reads.

    One flat tuple (value, (a, b, c), U, V, W, det B, det B^2, 4g, h,
    V.W, U.W, U.V, trig), with U, V, W, 4g and h as their three
    components and trig _trig_and_coefficients': value is the qTTF, or
    None where the certificate hands the setting to T's rows,
    _rows(*forward[1]).

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
    fails it, with a certificate at or above model._FACTORED_BOUND, goes
    to the T route, whose bits and inf decisions are _qttf_rows'.
    """
    trig, coefficients = _trig_and_coefficients(theta_a, theta_b)
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = coefficients
    # U = b x c, V = c x a and W = a x b; det B = a . U
    u1, u2, u3 = b2 * c3 - b3 * c2, b3 * c1 - b1 * c3, b1 * c2 - b2 * c1
    v1, v2, v3 = c2 * a3 - c3 * a2, c3 * a1 - c1 * a3, c1 * a2 - c2 * a1
    w1, w2, w3 = a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1
    det = a1 * u1 + a2 * u2 + a3 * u3
    det_sq = det * det
    # h = 4 det B X g, so 4 det B a_q = k U + l V + kl W - h
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
    vw = v1 * w1 + v2 * w2 + v3 * w3
    uw = u1 * w1 + u2 * w2 + u3 * w3
    uv = u1 * v1 + u2 * v2 + u3 * v3
    value = None
    # det B^2 |C^-1|_F^2 = 16 det_sq + hh + uu + vv + ww
    if c_sq * (16.0 * det_sq + hh + uu + vv + ww) < _FACTORED_BOUND * _FACTORED_BOUND * det_sq:
        value = (uu + vv + ww - hh + 8.0 * (a0 * vw + b0 * uw + c0 * uv)) / (16.0 * det_sq) - 1.0
    return (value, coefficients, u1, u2, u3, v1, v2, v3, w1, w2, w3, det, det_sq,
            g0, g1, g2, h1, h2, h3, vw, uw, uv, trig)


def _coefficient_derivatives(
    theta_a: float, theta_b: float, trig: tuple[float, ...]
) -> tuple[tuple[float, ...], ...]:
    """d/d theta_a and d/d theta_b of _coefficients' (a, b, c), as two
    12-tuples in the order a0..a3, b0..b3, c0..c3, from the trig that
    _trig_and_coefficients computed at these couplings.

    With half_sinc = sin(tc/2)/tc, d cos(tc/2)/d theta_x = -theta_x
    half_sinc / 2 and d half_sinc/d theta_x = theta_x q with
    q = (cos(tc/2)/2 - half_sinc)/tc^2.  That difference cancels as tc
    goes to 0, to about eps/tc^2 relative, but T is singular there: no
    setting the certificate clears has tc below 0.34, and the T route's
    qTTF is inf below tc = 0.02, so value_and_gradient never reads q
    worse than 1e-12 relative.
    """
    ta, tb = theta_a, theta_b
    tc, ca, sa, cb, sb, cc, hs, sd, ss, cs = trig
    q = (cc / 2.0 - hs) / (tc * tc)
    cd = math.cos((ta - tb) / 2.0)

    x = ca + tb * sb * hs + cb * cc
    y = sb * cc - tb * cb * hs
    z = sa + ta * cb * hs
    xb = cb + ta * sa * hs + ca * cc
    yb = sb + tb * ca * hs
    zb = sa * cc - ta * ca * hs
    d_a = (
        (-sa / 2.0 * x + ca * (ta * (tb * sb * q - cb * hs / 2.0) - sa / 2.0)) / 8.0,
        (ca / 2.0 * y - sa * ta * (sb * hs / 2.0 + tb * cb * q)) / 8.0,
        sb * (sa * hs + ta * (ca / 2.0 * hs + sa * q * ta)) / 8.0,
        (ca / 2.0 * z + sa * (ca / 2.0 + cb * hs + ta * ta * cb * q)) / 8.0,
        cb * sa * (hs + ta * ta * q - cc / 2.0) / 8.0,
        -sb * tb * (ca * q * ta - sa * hs / 2.0) / 8.0,
        -tb * sb * (ca / 2.0 * hs + sa * q * ta) / 8.0,
        -sb * ca * (cc / 2.0 - hs - ta * ta * q) / 8.0,
        (-2.0 * ta * hs * cs - 2.0 * cc * ss - 2.0 * sd * cd - 2.0 * sa * ca) / 32.0,
        (sb * (ca * cd - sa * sd) / 2.0 - tb * (q * ta * ss + hs * cs / 2.0)) / 8.0,
        sb * (ca * sd + sa * cd) / 16.0,
        (cb * (ca * sd + sa * cd) / 2.0 + hs * ss + ta * (q * ta * ss + hs * cs / 2.0)) / 8.0,
    )
    d_b = (
        ca * sb * (hs + tb * tb * q - cc / 2.0) / 8.0,
        sa * cb * (cc / 2.0 - hs - tb * tb * q) / 8.0,
        ta * sa * (cb / 2.0 * hs + sb * q * tb) / 8.0,
        sa * ta * (cb * q * tb - sb * hs / 2.0) / 8.0,
        (-sb / 2.0 * xb + cb * (tb * (ta * sa * q - ca * hs / 2.0) - sb / 2.0)) / 8.0,
        -(cb / 2.0 * yb + sb * (cb / 2.0 + ca * hs + tb * tb * ca * q)) / 8.0,
        -sa * (sb * hs + tb * (cb / 2.0 * hs + sb * q * tb)) / 8.0,
        -(cb / 2.0 * zb - sb * tb * (sa * hs / 2.0 + ta * ca * q)) / 8.0,
        (-2.0 * tb * hs * cs - 2.0 * cc * ss + 2.0 * sd * cd - 2.0 * sb * cb) / 32.0,
        (ca * (cb * sd - sb * cd) / 2.0 - hs * ss - tb * (q * tb * ss + hs * cs / 2.0)) / 8.0,
        sa * (cb * sd - sb * cd) / 16.0,
        (sa * (-sb * sd - cb * cd) / 2.0 + ta * (q * tb * ss + hs * cs / 2.0)) / 8.0,
    )
    return d_a, d_b


def _value_and_adjoint(theta_a: float, theta_b: float) -> tuple:
    """(value, adjoint, trig): the qTTF, its 12 derivatives over the
    coefficients a0..a3, b0..b3, c0..c3 (None where the value is inf), and
    _forward's trig.

    The value is _forward's, so qttf_two_meter's to the bit, and the
    adjoint runs backwards through the factors _forward returns.  With
    S = 16 det B^2 and the total of _forward, qTTF + 1 = total / S, so

        d qTTF = d total / S - 2 (qTTF + 1) d det B / det B,

    where d total / dU = 2U - 2 g0 h + 8 (b0 W + c0 V), and V and W
    likewise; d total / d a0 = 8 (V.W - h.U), and b0 and c0 likewise.
    The cross products hand their adjoints to B's rows (dU = db x c +
    b x dc), and d det B / d(a, b, c) = (U, V, W).  At a setting the
    certificate hands to the T route, the gradient chains through T's
    rows instead (model._qttf_rows_gradient): row (k, l) of T is a k +
    b l + c kl, plus 1/4 at mu = 0.
    """
    (value, coefficients, u1, u2, u3, v1, v2, v3, w1, w2, w3, det, det_sq,
     g0, g1, g2, h1, h2, h3, vw, uw, uv, trig) = _forward(theta_a, theta_b)
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = coefficients
    if value is not None:
        # adjoints of total with respect to U, V and W
        ub1 = 2.0 * (u1 - g0 * h1) + 8.0 * (b0 * w1 + c0 * v1)
        ub2 = 2.0 * (u2 - g0 * h2) + 8.0 * (b0 * w2 + c0 * v2)
        ub3 = 2.0 * (u3 - g0 * h3) + 8.0 * (b0 * w3 + c0 * v3)
        vb1 = 2.0 * (v1 - g1 * h1) + 8.0 * (a0 * w1 + c0 * u1)
        vb2 = 2.0 * (v2 - g1 * h2) + 8.0 * (a0 * w2 + c0 * u2)
        vb3 = 2.0 * (v3 - g1 * h3) + 8.0 * (a0 * w3 + c0 * u3)
        wb1 = 2.0 * (w1 - g2 * h1) + 8.0 * (a0 * v1 + b0 * u1)
        wb2 = 2.0 * (w2 - g2 * h2) + 8.0 * (a0 * v2 + b0 * u2)
        wb3 = 2.0 * (w3 - g2 * h3) + 8.0 * (a0 * v3 + b0 * u3)
        # d qTTF = s d total + r d det B
        s = 1.0 / (16.0 * det_sq)
        r = -2.0 * (value + 1.0) / det
        adjoint = (
            8.0 * s * (vw - (h1 * u1 + h2 * u2 + h3 * u3)),
            # a enters V = c x a and W = a x b
            s * (vb2 * c3 - vb3 * c2 + b2 * wb3 - b3 * wb2) + r * u1,
            s * (vb3 * c1 - vb1 * c3 + b3 * wb1 - b1 * wb3) + r * u2,
            s * (vb1 * c2 - vb2 * c1 + b1 * wb2 - b2 * wb1) + r * u3,
            8.0 * s * (uw - (h1 * v1 + h2 * v2 + h3 * v3)),
            # b enters U = b x c and W = a x b
            s * (c2 * ub3 - c3 * ub2 + wb2 * a3 - wb3 * a2) + r * v1,
            s * (c3 * ub1 - c1 * ub3 + wb3 * a1 - wb1 * a3) + r * v2,
            s * (c1 * ub2 - c2 * ub1 + wb1 * a2 - wb2 * a1) + r * v3,
            8.0 * s * (uv - (h1 * w1 + h2 * w2 + h3 * w3)),
            # c enters U = b x c and V = c x a
            s * (ub2 * b3 - ub3 * b2 + a2 * vb3 - a3 * vb2) + r * w1,
            s * (ub3 * b1 - ub1 * b3 + a3 * vb1 - a1 * vb3) + r * w2,
            s * (ub1 * b2 - ub2 * b1 + a1 * vb2 - a2 * vb1) + r * w3,
        )
    else:
        value, dt = _qttf_rows_gradient(_rows(*coefficients))
        if dt is None:
            return value, None, trig
        # rows (k, l) = (+, +), (+, -), (-, +), (-, -)
        adjoint = (
            *(t0 + t1 - t2 - t3 for t0, t1, t2, t3 in zip(*dt)),
            *(t0 - t1 + t2 - t3 for t0, t1, t2, t3 in zip(*dt)),
            *(t0 - t1 - t2 + t3 for t0, t1, t2, t3 in zip(*dt)),
        )
    return value, adjoint, trig


def value_and_gradient(settings) -> tuple[float, list[float] | None]:
    """The qTTF and its gradient at settings = (theta_a, theta_b), plain floats.

    The optimizer's objective: the couplings are read unchecked.  The 12
    coefficient adjoints of _value_and_adjoint meet the coefficients'
    derivatives, which read the trig of the same forward pass, in one
    straight-line sum per coupling.  The gradient is None only where the
    value is inf.
    """
    theta_a, theta_b = settings
    value, adjoint, trig = _value_and_adjoint(theta_a, theta_b)
    if adjoint is None:
        return value, None
    e0, e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11 = adjoint
    (da0, da1, da2, da3, da4, da5, da6, da7, da8, da9, da10, da11), (
        db0, db1, db2, db3, db4, db5, db6, db7, db8, db9, db10, db11
    ) = _coefficient_derivatives(theta_a, theta_b, trig)
    # each sum left to right from 0.0, so an all -0.0 one gives +0.0
    return value, [
        0.0 + e0 * da0 + e1 * da1 + e2 * da2 + e3 * da3 + e4 * da4 + e5 * da5
        + e6 * da6 + e7 * da7 + e8 * da8 + e9 * da9 + e10 * da10 + e11 * da11,
        0.0 + e0 * db0 + e1 * db1 + e2 * db2 + e3 * db3 + e4 * db4 + e5 * db5
        + e6 * db6 + e7 * db7 + e8 * db8 + e9 * db9 + e10 * db10 + e11 * db11,
    ]


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
        forward = _forward(theta_a, theta_b)
        value = forward[0]
        if value is not None:
            return value
        return _qttf_rows(_rows(*forward[1]))
    except ValueError:  # T is not finite
        _refuse_non_finite(_COUPLING_NAMES, (theta_a, theta_b))
        raise


def optimize_two_meter(restarts: int = 20, seed: int = 0) -> OptimizationResult:
    """Minimize the qTTF over couplings with restarted BFGS.

    Starts are uniform in [-3 pi, 3 pi]^2; individual searches may wander
    outside that box, which is fine since the model accepts any reals, so
    the returned point may lie outside it.  The result is the best local
    minimum reached from the starts, not a global optimum: the qTTF keeps
    falling as |theta| grows, so an optimum only means something for a
    stated domain.  The objective is value_and_gradient: the exact qTTF,
    qttf_two_meter's value without its checks of the couplings, which
    are floats here, and its analytic gradient.
    """
    _check_integer("restarts", restarts, 1)
    _check_integer("seed", seed)
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-3.0 * math.pi, 3.0 * math.pi, size=(restarts, 2))
    return minimize_with_restarts(value_and_gradient, list(starts))
