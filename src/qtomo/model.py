"""Shared meter-process representation and error pipeline.

Every four-outcome model here is an 8x8 block unitary on the register
(meter A, system, meter B), qubit 0 leftmost: both meters start in |+>,
the unitary acts, and the meters are read in x (H x I x H, then z), with
outcome q = 2a + b in the order (++, +-, -+, --).  MeterModel holds that
unitary and the model's closed-form 4x4 transfer matrix T (probabilities
= T @ S for Bloch 4-vectors S).  kraus_transfer reads T off the four
system-side Kraus operators of the unitary, and simulate_meter_process
evolves the full 8x8 density matrix; both are used only by checks.

From T come the Fisher matrix, the per-state error Delta and the
state-averaged qTTF.  Every such model is saturated (four outcomes, three
parameters), so where T is invertible F^-1 is the covariance of linear
inversion: per state Tr F^-1(s) = sum_q p_q |a_q|^2 - |s|^2, and the qTTF
has the exact form sum_q |a_q|^2 T[q, 0] - 1, with a_q the columns of
T^-1[1:, :].  delta_from_transfer and qttf_from_transfer evaluate those
forms; the quadrature average over delta_surface, which inverts each
node's Fisher matrix through its eigenvalues, stays as the independent
reference that the tests and the identity suite compare them against.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (
    HADAMARD,
    SIGMA,
    QuadratureRule,
    bloch_from_state,
    check_density,
    kron3,
    make_quadrature,
)

__all__ = [
    "CONDITION_LIMIT",
    "SIGN_MATRIX",
    "SingularInformationError",
    "MeterModel",
    "kraus_transfer",
    "simulate_meter_process",
    "RestartOutcome",
    "OptimizationResult",
    "fisher_from_transfer",
    "fisher_matrix_form",
    "delta_from_transfer",
    "delta_surface",
    "qttf_from_transfer",
    "minimize_with_restarts",
    "default_rule",
]

# Outcome sign patterns for the ordering (++, +-, -+, --): row 0 carries the
# first meter's sign k, row 1 the second meter's sign l, row 2 the product kl.
SIGN_MATRIX = np.array(
    [
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
    ]
)

# Probabilities at or below this are treated as vanished outcomes.
PROBABILITY_FLOOR = 1e-12

# Fisher eigenvalues below this mark an unidentifiable direction in the
# quadrature reference (delta_surface).
EIGENVALUE_FLOOR = 1e-12

# Transfer matrices at least this ill-conditioned count as singular: the
# exact qTTF is inf there and the estimators refuse them.
CONDITION_LIMIT = 1e12

_OUTCOME_LABELS = ("++", "+-", "-+", "--")

# x-basis readout of both meters, applied after the block unitary.
_READOUT = kron3(HADAMARD, np.eye(2), HADAMARD)


class SingularInformationError(ArithmeticError):
    """An outcome probability vanished; the Fisher matrix is undefined."""

    def __init__(self, outcome: int, probability: float):
        self.outcome = outcome
        self.probability = probability
        super().__init__(
            f"outcome {_OUTCOME_LABELS[outcome]} has probability "
            f"{probability:.3e}; information matrix is singular"
        )


def kraus_transfer(unitary: np.ndarray) -> np.ndarray:
    """Transfer matrix read off the four system-side Kraus operators.

    K_(a,b) = <a,b|_meters (H x I x H) U |+>_A |+>_B, E_q = K_q^dag K_q
    with q = 2a + b, and T[q, mu] = Tr(E_q sigma_mu) / 2.  A (..., 8, 8)
    stack of unitaries gives a (..., 4, 4) stack of transfer matrices.
    """
    stack = np.shape(unitary)[:-2]
    # axes (..., a, s, b, a', s', b'); summing a' and b' applies both |+> inputs
    blocks = (_READOUT @ unitary).reshape(stack + (2,) * 6).sum(axis=(-3, -1)) / 2.0
    kraus = blocks.swapaxes(-3, -2).reshape(stack + (4, 2, 2))
    effects = np.einsum("...qji,...qjk->...qik", kraus.conj(), kraus)
    return 0.5 * np.einsum("...qik,mki->...qm", effects, SIGMA).real


def simulate_meter_process(rho0: np.ndarray, unitary: np.ndarray) -> np.ndarray:
    """Outcome probabilities (++, +-, -+, --) by 8x8 density-matrix evolution.

    The system starts in rho0 between two |+> meters; the readout applies
    Hadamards to the meters, takes the z-basis diagonal and traces out
    the system.  The independent oracle for every transfer matrix.
    """
    plus = np.full((2, 2), 0.5)
    full = _READOUT @ unitary
    final = full @ kron3(plus, check_density(rho0), plus) @ full.conj().T
    # diagonal index 4a + 2s + b
    return np.real(np.diagonal(final)).reshape(2, 2, 2).sum(axis=1).ravel()


@dataclass(frozen=True)
class MeterModel:
    """A four-outcome model: its 8x8 block unitary and transfer matrix.

    params are the settings the unitary was built from.  The transfer
    matrix is the model's closed form; kraus_transfer(unitary) is its
    independent check.
    """

    params: tuple[float, ...]
    unitary: np.ndarray = field(repr=False, compare=False)
    _tmat: np.ndarray = field(repr=False, compare=False)

    def transfer_matrix(self) -> np.ndarray:
        return self._tmat

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        return simulate_meter_process(rho, self.unitary)


def _as_bloch(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state)
    if state.shape == (4,) and not np.iscomplexobj(state):
        return state.astype(float)
    return bloch_from_state(state)


def _live_probabilities(tmat: np.ndarray, state: np.ndarray) -> np.ndarray:
    """p = T @ S; raises SingularInformationError naming a vanished outcome."""
    p = tmat @ _as_bloch(state)
    if p.min() <= PROBABILITY_FLOOR:
        q = int(np.argmin(p))
        raise SingularInformationError(q, float(p[q]))
    return p


def fisher_from_transfer(tmat: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Fisher matrix over (s1, s2, s3) for one input state.

    F_{mu nu} = sum_q T[q, mu] T[q, nu] / p_q with p = T @ S.  Raises
    SingularInformationError naming the first vanished outcome.
    """
    p = _live_probabilities(tmat, state)
    ts = tmat[:, 1:]
    return ts.T @ (ts / p[:, None])


def fisher_matrix_form(tmat: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Fisher matrix assembled as D^T (V P^-1 V^T) D.

    D = V T[:, 1:] / 4 holds the sign-basis coefficients, rows indexed by
    the sign patterns (k, l, kl) of V = SIGN_MATRIX.  V^T V = 4 I - 11^T
    and the s-columns of T sum to zero, so V^T D reproduces them and this
    equals fisher_from_transfer; kept as an independent assembly path for
    the identity checks.
    """
    p = _live_probabilities(tmat, state)
    d = 0.25 * SIGN_MATRIX @ tmat[:, 1:]
    middle = SIGN_MATRIX @ np.diag(1.0 / p) @ SIGN_MATRIX.T
    return d.T @ middle @ d


def _estimate_rows(tmat: np.ndarray) -> np.ndarray | None:
    """A = T^-1[1:, :], or None once cond(T) >= CONDITION_LIMIT.

    cond_2(T) <= |T|_F |T^-1|_F, so when that bound on the computed
    inverse is below CONDITION_LIMIT / 2 the inverse is returned without
    an SVD; the factor 2 covers the inverse's round-off (relative error
    about cond * eps, 1e-4 at the limit).  Otherwise, or when inv raises,
    cond(T) decides, so the answer and its bits match the SVD test.
    Raises ValueError for a non-finite T.
    """
    try:
        inv = np.linalg.inv(tmat)
    except np.linalg.LinAlgError:
        pass
    else:
        if math.sqrt(np.vdot(tmat, tmat) * np.vdot(inv, inv)) < CONDITION_LIMIT / 2:
            return inv[1:, :]
    if not np.all(np.isfinite(tmat)):
        raise ValueError("transfer matrix must be finite")
    if not np.linalg.cond(tmat) < CONDITION_LIMIT:
        return None
    return np.linalg.inv(tmat)[1:, :]


def delta_from_transfer(tmat: np.ndarray, state: np.ndarray) -> float:
    """Tr(F^-1) for one state; inf when the model is singular or an outcome dies.

    Exact: Tr F^-1(s) = sum_q p_q |a_q|^2 - |s|^2 with a_q the columns
    of T^-1[1:, :], the per-shot covariance trace of linear inversion.
    """
    s = _as_bloch(state)
    p = tmat @ s
    coeffs = _estimate_rows(tmat)
    if coeffs is None or p.min() <= PROBABILITY_FLOOR:
        return math.inf
    return float(np.einsum("mq,mq,q->", coeffs, coeffs, p) - s[1:] @ s[1:])


def delta_surface(tmat: np.ndarray, bloch_nodes: np.ndarray) -> np.ndarray:
    """Vectorized Tr(F^-1) over Bloch columns, inf-tagged where singular."""
    p = tmat @ bloch_nodes
    ts = tmat[:, 1:]
    bad = p.min(axis=0) <= PROBABILITY_FLOOR
    safe_p = np.where(p <= PROBABILITY_FLOOR, 1.0, p)
    fish = np.einsum("qm,qn,qk->kmn", ts, ts, 1.0 / safe_p)
    eigs = np.linalg.eigvalsh(fish)
    bad |= eigs.min(axis=1) < EIGENVALUE_FLOOR
    with np.errstate(divide="ignore"):
        totals = np.sum(1.0 / np.maximum(eigs, 1e-300), axis=1)
    return np.where(bad, np.inf, totals)


def qttf_from_transfer(tmat: np.ndarray, rule: QuadratureRule | None = None) -> float:
    """Pure-state average of Tr(F^-1); inf when the model is singular.

    Without a rule this is exact: Tr F^-1(s) = sum_q p_q |a_q|^2 - |s|^2
    is affine in s on pure states, so its average is
    sum_q |a_q|^2 T[q, 0] - 1, and inf once cond(T) >= CONDITION_LIMIT
    (a Frobenius-norm bound clears well-conditioned T; only T near the
    limit pays for an SVD, see _estimate_rows).
    With a rule it is the quadrature average over delta_surface, inf as
    soon as any node is singular; that path is the reference for checks.
    """
    if rule is not None:
        values = delta_surface(tmat, rule.bloch_nodes())
        if not np.all(np.isfinite(values)):
            return math.inf
        return rule.integrate(values)
    coeffs = _estimate_rows(tmat)
    if coeffs is None:
        return math.inf
    return float(np.einsum("mq,mq,q->", coeffs, coeffs, tmat[:, 0]) - 1.0)


def default_rule() -> QuadratureRule:
    """The 64x64 rule, the reference order for quadrature cross-checks."""
    return make_quadrature(64, 64)


@dataclass(frozen=True)
class RestartOutcome:
    """One local search: where it started, where it ended, what it found.

    evaluations counts objective calls and seconds is the search's wall time.
    """

    start: np.ndarray
    params: np.ndarray
    value: float
    iterations: int
    converged: bool
    evaluations: int
    seconds: float


@dataclass(frozen=True)
class OptimizationResult:
    params: np.ndarray
    value: float
    restarts: tuple[RestartOutcome, ...]


def minimize_with_restarts(
    objective: Callable[[np.ndarray], float],
    starts: Sequence[np.ndarray],
    *,
    maxiter: int = 2000,
) -> OptimizationResult:
    """Nelder-Mead from each start; the best end point wins.

    tol=1e-6 sets both of Nelder-Mead's absolute tolerances, on the
    simplex and on the objective.  Non-finite objective values are fine
    (the simplex retreats from them).
    """
    # imported here so that `import qtomo` does not pay for scipy
    from scipy.optimize import minimize

    options = {"maxiter": maxiter}

    def run(x0: np.ndarray) -> RestartOutcome:
        started = time.perf_counter()
        res = minimize(
            objective, x0, method="Nelder-Mead", tol=1e-6, options=options
        )
        return RestartOutcome(
            start=np.asarray(x0, dtype=float),
            params=res.x,
            value=float(res.fun),
            iterations=int(res.nit),
            converged=bool(res.success),
            evaluations=int(res.nfev),
            seconds=time.perf_counter() - started,
        )

    outcomes = [run(x0) for x0 in starts]
    best = min(outcomes, key=lambda o: o.value)
    return OptimizationResult(
        params=best.params, value=best.value, restarts=tuple(outcomes)
    )
