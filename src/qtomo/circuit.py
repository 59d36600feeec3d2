"""Twelve-parameter estimation circuit on a (meter A, system, meter B) register.

Four generic one-qubit gates and two CNOTs fanned out from the system
act on two |+> meters read in x.  Both CNOTs are controlled by the
system, so the Kraus operator of meter outcomes (a, b) factors into 2x2
pieces,

    K_ab = H diag(beta_b) H diag(alpha_a),
    alpha_a[s] = <a| H A2 X^s A1 |+>,   beta_b[s] = <b| H B2 X^s B1 |+>,

and the transfer matrix, which is the model, is read off those factors
in straight-line float arithmetic: each amplitude is a (re, im) pair of
floats from the gates' cosines and sines, each complex product written
out as (ac - bd, ad + bc).  In the same factors T[(a, b), (j, c)] =
A_j[a, c] beta[b, j], with beta = |beta_b[s]|^2 summed (j = p) and
differenced (j = m) over s, A_p meter A's matching pair and A_m its
overlap conj(alpha_a[0]) alpha_a[1]; so T^-1 is read from three 2x2
inverses, on which the qTTF splits into a meter-A times a meter-B sum.

Completeness fixes half of those entries.  Each meter's outcomes a sum
|alpha_a[s]|^2 to 1 for each s, so (with the factor 2 each amplitude
carries) a0p + a1p = b0p + b1p = 8 and a0m + a1m = b0m + b1m = 0; the
overlaps sum to 4 <+|A1^dag X A1|+> = 4 m_x, m the Bloch vector of
A1|+>, so y0 + y1 = 0 and x0 + x1 = 4 m_x.  The differences are read
off n, the Bloch vector of A2^dag|+>, which is the axis that A2 and the
x read measure.  So the qTTF is a closed form in the four gates' Bloch
vectors, from 24 cosines and sines and no amplitude (_qttf_factored).
The checks compile the 8x8 unitary from the complex gate entries, as
qtomo._oracles.circuit_unitary, and its Kraus read is the oracle.  The
circuit family contains measurement settings whose average error
reaches the four-outcome optimum of 8.0, a little over twice the best
single-shot error of the two-meter coupling on a per-component basis.
"""
from __future__ import annotations

import math

import numpy as np

from .core import _check_integer, _real
from .model import (
    _FACTORED_BOUND,
    MeterModel,
    OptimizationResult,
    _qttf_rows,
    _refuse_non_finite,
    minimize_with_restarts,
)

__all__ = [
    "REFERENCE_OPTIMUM",
    "build_circuit",
    "qttf_circuit",
    "optimize_circuit",
]

# The published parameter set, to its two decimals: its average error is
# 8.00063, just above the family's optimum 8.0, which for instance A1 =
# (-asin(1/sqrt(3)), pi/4, 0), A2 = (0, -pi/2, 0), B1 = (3 pi/2, 0, 0) and
# B2 = (pi/2, 0, 0) reach to round-off.  Layout: one (theta, phi, lambda)
# triple per gate, ordered A1, A2, B1, B2; build_circuit puts theta/2 in
# each gate's entries.
REFERENCE_OPTIMUM = (
    0.59, 1.58, 2.52,
    2.55, 1.94, 0.31,
    0.70, 4.31, 3.46,
    0.67, 6.47, 4.47,
)

_PARAM_NAMES = tuple(f"circuit parameter {index}" for index in range(12))

_FLOAT64 = np.dtype(float)


def _checked_params(params) -> list[float]:
    """The twelve parameters as Python floats; ValueError unless real, shape (12,).

    A float64 array is real already, so only other input goes through
    _real's dtype test and cast.
    """
    arr = np.asarray(params)
    if arr.dtype is not _FLOAT64:
        arr = _real(arr, "circuit parameters")
    if arr.shape != (12,):
        raise ValueError("expected 12 circuit parameters")
    return arr.tolist()


def _meter_floats(theta1, phi1, lam1, theta2, phi2, lam2) -> tuple[float, ...]:
    """2 <a| H G2 X^s G1 |+> for one meter's gates G1 then G2, each
    u3(theta/2, phi, lambda), as the floats (re, im) for [a][s] in order
    00, 01, 10, 11.

    Each float is the one the complex product of the gate entries gives,
    up to the sign of an exact zero: e^{i x} is (cos x, sin x), a
    product (ac - bd, ad + bc).
    """
    c1, s1 = math.cos(theta1 / 2.0), math.sin(theta1 / 2.0)
    c2, s2 = math.cos(theta2 / 2.0), math.sin(theta2 / 2.0)
    # sqrt(2) G1|+> = (v0, v1)
    v0r = c1 - math.cos(lam1) * s1
    v0i = -math.sin(lam1) * s1
    v1r = math.cos(phi1) * s1 + math.cos(phi1 + lam1) * c1
    v1i = math.sin(phi1) * s1 + math.sin(phi1 + lam1) * c1
    # G2 = [[c2, g01], [g10, g11]]
    g01r, g01i = -math.cos(lam2) * s2, -math.sin(lam2) * s2
    g10r, g10i = math.cos(phi2) * s2, math.sin(phi2) * s2
    g11r, g11i = math.cos(phi2 + lam2) * c2, math.sin(phi2 + lam2) * c2
    # w_ks = (G2 X^s v)_k: the system bit s swaps v0 and v1
    w00r = c2 * v0r + (g01r * v1r - g01i * v1i)
    w00i = c2 * v0i + (g01r * v1i + g01i * v1r)
    w10r = g10r * v0r - g10i * v0i + (g11r * v1r - g11i * v1i)
    w10i = g10r * v0i + g10i * v0r + (g11r * v1i + g11i * v1r)
    w01r = c2 * v1r + (g01r * v0r - g01i * v0i)
    w01i = c2 * v1i + (g01r * v0i + g01i * v0r)
    w11r = g10r * v1r - g10i * v1i + (g11r * v0r - g11i * v0i)
    w11i = g10r * v1i + g10i * v1r + (g11r * v0i + g11i * v0r)
    return (
        w00r + w10r, w00i + w10i, w01r + w11r, w01i + w11i,
        w00r - w10r, w00i - w10i, w01r - w11r, w01i - w11i,
    )


def _transfer_rows(params) -> list[list[float]]:
    """Rows of T in Python floats, from K_ab = H diag(beta_b) H diag(alpha_a).

    params is any sequence of twelve floats.

    E = K^dag K has diagonal |alpha_a[s]|^2 (|beta_b[0]|^2 + |beta_b[1]|^2)/2
    and off-diagonal conj(alpha_a[0]) alpha_a[1] (|beta_b[0]|^2 - |beta_b[1]|^2)/2;
    T[q, mu] = Tr(E_q sigma_mu)/2 with q = 2a + b, so the sigma_y column
    is -Im E_01.  The amplitudes carry a factor 2 each, hence 1/64 and 1/32.
    Meter B's terms are bNp, bNm = |beta_N[0]|^2 +- |beta_N[1]|^2, meter
    A's aNp and aNm likewise, and xN + i yN = conj(alpha_N[0]) alpha_N[1];
    every amplitude is a (re, im) pair of floats from _meter_floats, and
    each term repeats the float operations of the complex products.
    """
    ta1, pa1, la1, ta2, pa2, la2, tb1, pb1, lb1, tb2, pb2, lb2 = params
    a00r, a00i, a01r, a01i, a10r, a10i, a11r, a11i = _meter_floats(ta1, pa1, la1, ta2, pa2, la2)
    b00r, b00i, b01r, b01i, b10r, b10i, b11r, b11i = _meter_floats(tb1, pb1, lb1, tb2, pb2, lb2)
    p0 = b00r * b00r + b00i * b00i
    p1 = b01r * b01r + b01i * b01i
    b0p, b0m = p0 + p1, p0 - p1
    p0 = b10r * b10r + b10i * b10i
    p1 = b11r * b11r + b11i * b11i
    b1p, b1m = p0 + p1, p0 - p1
    p0 = a00r * a00r + a00i * a00i
    p1 = a01r * a01r + a01i * a01i
    a0p, a0m = p0 + p1, p0 - p1
    x0, y0 = a00r * a01r + a00i * a01i, a00r * a01i - a00i * a01r
    p0 = a10r * a10r + a10i * a10i
    p1 = a11r * a11r + a11i * a11i
    a1p, a1m = p0 + p1, p0 - p1
    x1, y1 = a10r * a11r + a10i * a11i, a10r * a11i - a10i * a11r
    return [
        [a0p * b0p / 64.0, x0 * b0m / 32.0, -y0 * b0m / 32.0, a0m * b0p / 64.0],
        [a0p * b1p / 64.0, x0 * b1m / 32.0, -y0 * b1m / 32.0, a0m * b1p / 64.0],
        [a1p * b0p / 64.0, x1 * b0m / 32.0, -y1 * b0m / 32.0, a1m * b0p / 64.0],
        [a1p * b1p / 64.0, x1 * b1m / 32.0, -y1 * b1m / 32.0, a1m * b1p / 64.0],
    ]


def _bloch_of_gate_plus(theta, phi, lam) -> tuple[float, float, float]:
    """The Bloch vector of G|+>, G = u3(theta/2, phi, lambda): Rz(lambda),
    then Ry(theta), then Rz(phi) turn the x axis."""
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    cl, sl = math.cos(lam), math.sin(lam)
    return ct * cl * cp - sl * sp, ct * cl * sp + sl * cp, -st * cl


def _bloch_of_adjoint_plus(theta, phi, lam) -> tuple[float, float, float]:
    """The Bloch vector of G^dag|+>, G = u3(theta/2, phi, lambda): the axis
    that G and then an x read measure."""
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    cl, sl = math.cos(lam), math.sin(lam)
    return ct * cp * cl - sp * sl, -(ct * cp * sl + sp * cl), st * cp


def _qttf_factored(params) -> float:
    """The exact qTTF in closed form from the gates' Bloch vectors.

    For meter A, m is the Bloch vector of A1|+> and n that of A2^dag|+>,
    so |alpha_a[s]|^2 = (1 + (-1)^a n . X^s m)/2, where X^s m is
    (m_x, (-1)^s m_y, (-1)^s m_z).  With k = m_x n_x,
    w = m_y n_y + m_z n_z and c = m_y n_z - m_z n_y, that is
    a0p = 4(1 + k), a1p = 4(1 - k), a0m = -a1m = 4w, and
    x0 + i y0 = 2(m_x + n_x) + 2ic, x1 + i y1 = 2(m_x - n_x) - 2ic.  These
    are completeness's sums a0p + a1p = 8, a0m + a1m = 0, y0 + y1 = 0 and
    x0 + x1 = 4 m_x, with the differences read off.  Meter B gives k' and
    w' the same way from B1 and B2.

    With beta = [[b0p, b0m], [b1p, b1m]], A_p = [[a0p, a0m], [a1p, a1m]] / 64
    and A_m = [[x0, -y0], [x1, -y1]] / 32, T[(a, b), (j, c)] =
    A_j[a, c] beta[b, j], so T^-1 is read from three 2x2 inverses and the
    qTTF splits into a meter-A times a meter-B sum.  In the terms above,
    det 64 A_p = -32w, det 32 A_m = 8c m_x and det beta = -32w', and

        qTTF + 1 = (1 - k^2)/w^2
                   + (c^2 + m_x^2 + n_x^2 - 2k^2)(1 - k'^2)/(c^2 m_x^2 w'^2).

    Meter B's factor (1 - k'^2)/w'^2 is at least 1, since
    |k'| + |w'| <= |m'| |n'| = 1, with equality iff m'_x = n'_x = 0 and
    (m'_y, m'_z) = +-(n'_y, n'_z).  Any meter A can be paired with such a
    meter B, so the four-outcome bound qTTF >= 8 gives meter A's two
    terms a sum of at least 9; m = (1, 1, 1)/sqrt(3) and n = (0, 1, 0)
    reach it as 3 + 6.

    The certificate |T|_F |T^-1|_F comes from the factors' norms:
    4 |T|_F^2 = (1 + k^2 + w^2)(1 + k'^2) + (m_x^2 + n_x^2 + c^2) w'^2 and
    |T^-1|_F^2 / 4 = (1 + k^2 + w^2)/w^2
    + (m_x^2 + n_x^2 + c^2)(1 + k'^2)/(c^2 m_x^2 w'^2).  A zero
    determinant, a non-finite value or a certificate at or above
    model._FACTORED_BOUND hands T's rows to _qttf_rows, whose bits and
    inf decisions are the T route's.
    """
    ta1, pa1, la1, ta2, pa2, la2, tb1, pb1, lb1, tb2, pb2, lb2 = params
    mx, my, mz = _bloch_of_gate_plus(ta1, pa1, la1)
    nx, ny, nz = _bloch_of_adjoint_plus(ta2, pa2, la2)
    mbx, mby, mbz = _bloch_of_gate_plus(tb1, pb1, lb1)
    nbx, nby, nbz = _bloch_of_adjoint_plus(tb2, pb2, lb2)
    k = mx * nx
    w = my * ny + mz * nz
    c = my * nz - mz * ny
    kb = mbx * nbx
    wb = mby * nby + mbz * nbz
    kk, ww, wwb = k * k, w * w, wb * wb
    # dm, ww and wwb: the squared determinants of 32 A_m, 64 A_p and beta
    # over 64, 1024 and 1024
    dm = c * c * mx * mx
    sa = 1.0 + kk + ww
    sb = 1.0 + kb * kb
    sm = mx * mx + nx * nx + c * c
    # the certificate test with the determinants multiplied out: a zero
    # or underflowing determinant and a non-finite value fail it too
    if not (sa * sb + sm * wwb) * (sa * dm * wwb + sm * sb * ww) < (
        _FACTORED_BOUND * _FACTORED_BOUND * ww * dm * wwb
    ):
        return _qttf_rows(_transfer_rows(params))
    return (1.0 - kk) / ww + (sm - 2.0 * kk) * (1.0 - kb * kb) / (dm * wwb) - 1.0


def build_circuit(params) -> MeterModel:
    """The circuit's model: T from its gate factors.

    params are twelve reals, a (theta, phi, lambda) triple for each of the
    gates A1, A2, B1, B2.  Each theta is read as hardware gates read it:
    the gate is u3(theta/2, phi, lambda), with theta/2 inside the matrix
    entries.  REFERENCE_OPTIMUM comes within 1e-3 of the average error
    8.0 in this reading.
    """
    values = _checked_params(params)
    try:
        return MeterModel(params=tuple(values), _tmat=np.array(_transfer_rows(values)))
    except ValueError:  # T is not finite
        _refuse_non_finite(_PARAM_NAMES, values)
        raise


def qttf_circuit(params) -> float:
    """Exact pure-state average of Tr(F^-1) for the circuit at these parameters.

    ValueError naming a parameter that is not finite.
    """
    values = _checked_params(params)
    try:
        return _qttf_factored(values)
    except ValueError:  # T is not finite
        _refuse_non_finite(_PARAM_NAMES, values)
        raise


def optimize_circuit(restarts: int = 50, seed: int = 0) -> OptimizationResult:
    """Minimize the exact circuit qTTF over all twelve parameters.

    Nelder-Mead from uniform starts in [0, 2 pi]^12.  The landscape is
    benign enough that most restarts land on the global value 8.0.
    """
    _check_integer("restarts", restarts, 1)
    _check_integer("seed", seed)
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, 2.0 * math.pi, size=(restarts, 12))
    return minimize_with_restarts(_qttf_factored, list(starts), maxiter=4000)
