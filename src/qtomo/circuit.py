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
inverses, on which the qTTF splits into a meter-A times a meter-B sum
(_qttf_factored).  The checks compile the 8x8 unitary from
the complex gate entries, as qtomo._oracles.circuit_unitary, and its
Kraus read is the oracle.  The circuit family contains measurement
settings whose average error reaches the four-outcome optimum of 8.0, a
little over twice the best single-shot error of the two-meter coupling
on a per-component basis.
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

# A parameter set that attains the family's optimal average error of 8.0.
# Layout: one (theta, phi, lambda) triple per gate, ordered A1, A2, B1, B2;
# build_circuit puts theta/2 in each gate's entries.
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


def _meter_terms(params) -> tuple[float, ...]:
    """The twelve floats T is read from: (a0p, a0m, x0, y0, a1p, a1m, x1, y1,
    b0p, b0m, b1p, b1m).

    For meter B, bNp and bNm are |beta_N[0]|^2 plus and minus
    |beta_N[1]|^2; for meter A, aNp and aNm likewise, and
    xN + i yN = conj(alpha_N[0]) alpha_N[1].  Every amplitude is a
    (re, im) pair of floats from _meter_floats, and each term repeats
    the float operations of the complex products.
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
    return a0p, a0m, x0, y0, a1p, a1m, x1, y1, b0p, b0m, b1p, b1m


def _transfer_rows(params) -> list[list[float]]:
    """Rows of T in Python floats, from K_ab = H diag(beta_b) H diag(alpha_a).

    params is any sequence of twelve floats.

    E = K^dag K has diagonal |alpha_a[s]|^2 (|beta_b[0]|^2 + |beta_b[1]|^2)/2
    and off-diagonal conj(alpha_a[0]) alpha_a[1] (|beta_b[0]|^2 - |beta_b[1]|^2)/2;
    T[q, mu] = Tr(E_q sigma_mu)/2 with q = 2a + b, so the sigma_y column
    is -Im E_01.  The amplitudes carry a factor 2 each, hence 1/64 and 1/32.
    """
    a0p, a0m, x0, y0, a1p, a1m, x1, y1, b0p, b0m, b1p, b1m = _meter_terms(params)
    return [
        [a0p * b0p / 64.0, x0 * b0m / 32.0, -y0 * b0m / 32.0, a0m * b0p / 64.0],
        [a0p * b1p / 64.0, x0 * b1m / 32.0, -y0 * b1m / 32.0, a0m * b1p / 64.0],
        [a1p * b0p / 64.0, x1 * b0m / 32.0, -y1 * b0m / 32.0, a1m * b0p / 64.0],
        [a1p * b1p / 64.0, x1 * b1m / 32.0, -y1 * b1m / 32.0, a1m * b1p / 64.0],
    ]


def _qttf_factored(params) -> float:
    """The exact qTTF from the meter factors of T, with no 4x4 inverse.

    With beta = [[b0p, b0m], [b1p, b1m]], A_p = [[a0p, a0m], [a1p, a1m]] / 64
    and A_m = [[x0, -y0], [x1, -y1]] / 32, T[(a, b), (j, c)] =
    A_j[a, c] beta[b, j], where (j, c) runs over the Bloch columns
    (p, 0) = 0, (p, 1) = 3, (m, 0) = 1 and (m, 1) = 2.  So
    T^-1[(j, c), (a, b)] = A_j^-1[c, a] beta^-1[j, b], and the qTTF
    sum_q |a_q|^2 T[q, 0] - 1 splits into meter-A times meter-B sums,
    alpha_p beta_p + alpha_m beta_m - 1, from three 2x2 inverses.  The
    certificate |T|_F |T^-1|_F comes from the factors' norms:
    |T|_F^2 = sum_j |A_j|_F^2 |beta[:, j]|^2 and
    |T^-1|_F^2 = sum_j |A_j^-1|_F^2 |beta^-1[j, :]|^2.  A zero
    determinant, a non-finite value or a certificate at or above
    model._FACTORED_BOUND hands T's rows to _qttf_rows, whose bits and
    inf decisions are the T route's.
    """
    a0p, a0m, x0, y0, a1p, a1m, x1, y1, b0p, b0m, b1p, b1m = _meter_terms(params)
    # squared determinants of 64 A_p, 32 A_m and beta
    dp = a0p * a1m - a0m * a1p
    dm = x1 * y0 - x0 * y1
    db = b0p * b1m - b0m * b1p
    dp, dm, db = dp * dp, dm * dm, db * db
    n0, n1 = x0 * x0 + y0 * y0, x1 * x1 + y1 * y1
    sp = a0p * a0p + a0m * a0m + a1p * a1p + a1m * a1m
    sm = n0 + n1
    bp, bm = b0p * b0p + b1p * b1p, b0m * b0m + b1m * b1m
    # the certificate test with the determinants multiplied out: a zero
    # or underflowing determinant and a non-finite value fail it too
    if not (sp * bp / 4096.0 + sm * bm / 1024.0) * (
        4096.0 * sp * bm * dm + 1024.0 * sm * bp * dp
    ) < _FACTORED_BOUND * _FACTORED_BOUND * dp * dm * db:
        return _qttf_rows(_transfer_rows(params))
    # alpha_p beta_p db + alpha_m beta_m db
    total = (
        64.0 * a0p * a1p * (a0p + a1p) * (b1m * b1m * b0p + b0m * b0m * b1p) / dp
        + 16.0 * (n1 * a0p + n0 * a1p) * b0p * b1p * (b0p + b1p) / dm
    )
    return total / db - 1.0


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
