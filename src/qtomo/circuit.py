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
out as (ac - bd, ad + bc).  The checks compile the 8x8 unitary from
the complex gate entries, as qtomo._oracles.circuit_unitary, and its
Kraus read is the oracle.  The circuit family contains measurement
settings whose average error reaches the four-outcome optimum of 8.0, a
little over twice the best single-shot error of the two-meter coupling
on a per-component basis.
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


def _checked_params(params) -> list[float]:
    """The twelve parameters as Python floats; ValueError unless shape (12,)."""
    arr = np.asarray(params, dtype=float)
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
    Every amplitude is a (re, im) pair of floats from _meter_floats, and
    each entry repeats the float operations of the complex products.
    """
    ta1, pa1, la1, ta2, pa2, la2, tb1, pb1, lb1, tb2, pb2, lb2 = params
    try:
        a00r, a00i, a01r, a01i, a10r, a10i, a11r, a11i = _meter_floats(
            ta1, pa1, la1, ta2, pa2, la2
        )
        b00r, b00i, b01r, b01i, b10r, b10i, b11r, b11i = _meter_floats(
            tb1, pb1, lb1, tb2, pb2, lb2
        )
    except ValueError:  # math domain error
        _refuse_non_finite(_PARAM_NAMES, params)
        raise
    # meter B: bNp, bNm = |beta_N[0]|^2 plus and minus |beta_N[1]|^2
    p0 = b00r * b00r + b00i * b00i
    p1 = b01r * b01r + b01i * b01i
    b0p, b0m = p0 + p1, p0 - p1
    p0 = b10r * b10r + b10i * b10i
    p1 = b11r * b11r + b11i * b11i
    b1p, b1m = p0 + p1, p0 - p1
    # meter A likewise, with xN + i yN = conj(alpha_N[0]) alpha_N[1]
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
        return qttf_from_transfer(_transfer_rows(values))
    except ValueError:  # T is not finite
        _refuse_non_finite(_PARAM_NAMES, values)
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
