"""Shared meter-process representation and error pipeline.

Every four-outcome model here is its 4x4 transfer matrix T: outcome
probabilities (++, +-, -+, --) = T @ S for Bloch 4-vectors S, and a
MeterModel is (params, T).  The 8x8 register model behind T, and every
other route T is checked against, lives in qtomo._oracles.

From T come the Fisher matrix, the per-state error Delta and the
state-averaged qTTF.  Every such model is saturated (four outcomes, three
parameters), so where T is invertible F^-1 is the covariance of linear
inversion: per state Tr F^-1(s) = sum_q p_q |a_q|^2 - |s|^2, and the qTTF
has the exact form sum_q |a_q|^2 T[q, 0] - 1, with a_q the columns of
T^-1[1:, :].  One certified inverse of T carries every figure: a
partial-pivoting LU in plain floats, cleared against the singular limit
by a Frobenius-norm bound, with an SVD and the LAPACK inverse only for T
near that limit, so values agree with LAPACK to round-off and inf
decisions are cond(T)'s.  The qTTF and Delta read its weights |a_q|^2;
require_invertible returns it as the T^-1 of the estimators, the
variance scan and the estimator-variance identity, and refuses exactly
the T whose qTTF is inf.  Each model family reads its T, its qTTF
(qttf_two_meter, qttf_circuit) and its optimizer's objective from one
forward pass over the small factors of T; the qTTF reads T^-1 from those
factors under the same Frobenius-norm certificate, and hands any setting
it does not clear below _FACTORED_BOUND to this route.
qttf_from_transfer is exact only.  Fisher
matrices are inverted only by oracles: the quadrature average over
delta_surface, _oracles._qttf_quadrature, stays as the independent
reference that the tests and the identity suite compare against.

minimize_with_restarts runs BFGS in plain floats (_bfgs) from each
start, on an objective that returns the value and its gradient; a
restart converges only where a relative gradient-norm certificate
holds.  The families' gradients chain through their factored forms, or
through T's rows (_qttf_rows_gradient) where they hand over.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Sequence

import numpy as np

from .core import QuadratureRule, _real, bloch_from_state, make_quadrature

__all__ = [
    "CONDITION_LIMIT",
    "SingularInformationError",
    "NonInvertibleModelError",
    "require_invertible",
    "MeterModel",
    "RestartOutcome",
    "OptimizationResult",
    "fisher_from_transfer",
    "delta_from_transfer",
    "delta_surface",
    "qttf_from_transfer",
    "minimize_with_restarts",
    "default_rule",
]

# Probabilities at or below this are treated as vanished outcomes.
PROBABILITY_FLOOR = 1e-12

# Fisher eigenvalues below this mark an unidentifiable direction in the
# quadrature reference (delta_surface).
EIGENVALUE_FLOOR = 1e-12

# Transfer matrices at least this ill-conditioned count as singular: the
# exact qTTF is inf there and require_invertible refuses them.
CONDITION_LIMIT = 1e12

# The model families' factored qTTFs run only where their certificate
# |T|_F |T^-1|_F is below this; any other setting goes to _qttf_rows.
# Below it their gap to the T route stays near 1e-10 relative.
_FACTORED_BOUND = 1e6

_OUTCOME_LABELS = ("++", "+-", "-+", "--")


class SingularInformationError(ArithmeticError):
    """An outcome probability vanished; the Fisher matrix is undefined."""

    def __init__(self, outcome: int, probability: float):
        self.outcome = outcome
        self.probability = probability
        super().__init__(
            f"outcome {_OUTCOME_LABELS[outcome]} has probability "
            f"{probability:.3e}; information matrix is singular"
        )


class NonInvertibleModelError(ValueError):
    """The transfer matrix cannot be inverted at working precision."""

    def __init__(self, condition_number: float):
        self.condition_number = condition_number
        super().__init__(
            f"transfer matrix condition number {condition_number:.3e} "
            f"exceeds {CONDITION_LIMIT:.0e}"
        )


@dataclass(frozen=True)
class MeterModel:
    """A four-outcome model: its settings and closed-form transfer matrix.

    T is kept as a read-only copy, so no array handed in or out can move
    the model, and construction raises ValueError unless that copy is a
    finite 4x4.  _oracles.kraus_transfer and simulate_meter_process of
    the unitary built from the same params are its independent checks.
    """

    params: tuple[float, ...]
    _tmat: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        tmat = np.array(_check_transfer(self._tmat), dtype=float)
        object.__setattr__(self, "_tmat", tmat)
        self._tmat.flags.writeable = False

    # T is the model, so equality and the hash read its bytes with params
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.params, self._tmat.tobytes()) == (other.params, other._tmat.tobytes())

    def __hash__(self):
        return hash((self.params, self._tmat.tobytes()))

    def transfer_matrix(self) -> np.ndarray:
        return self._tmat


def _as_bloch(state: np.ndarray) -> np.ndarray:
    """A real (4,) Bloch vector, read through core._real, else
    bloch_from_state(state); text is refused either way."""
    state = np.asarray(state)
    if state.shape == (4,) and state.dtype.kind != "c":
        return _real(state, "Bloch vector")
    return bloch_from_state(state)


def _as_blochs(states: np.ndarray) -> np.ndarray:
    """A real (n, 4) stack of Bloch vectors, read through core._real, else
    _as_bloch(states)."""
    states = np.asarray(states)
    if states.ndim == 2 and states.shape[1] == 4 and states.dtype.kind != "c":
        return _real(states, "Bloch vectors")
    return _as_bloch(states)


def _check_live(p: np.ndarray) -> bool:
    """True when every probability in p is above the floor and finite,
    False for a vanished outcome; ValueError for a NaN or infinite p."""
    # a NaN fails both comparisons
    if p.min() > PROBABILITY_FLOOR and p.max() < math.inf:
        return True
    if not np.isfinite(p).all():
        raise ValueError("outcome probabilities T @ S must be finite")
    return False


def _live_probabilities(tmat: np.ndarray, state: np.ndarray) -> np.ndarray:
    """p = T @ S, (4,) or (n, 4) for a stack of Bloch vectors; raises
    SingularInformationError naming a vanished outcome, and ValueError
    for a non-finite p.

    Each member is the matrix-vector product of its own call, to the bit.
    """
    with np.errstate(invalid="ignore"):  # a non-finite state: refused just below
        p = (tmat @ _as_blochs(state)[..., :, None])[..., 0]
    if not _check_live(p):
        index = int(np.argmin(p))
        raise SingularInformationError(index % 4, float(p.flat[index]))
    return p


def fisher_from_transfer(tmat: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Fisher matrix over (s1, s2, s3) for one input state.

    F_{mu nu} = sum_q T[q, mu] T[q, nu] / p_q with p = T @ S.  A real
    (n, 4) stack of Bloch vectors gives an (n, 3, 3) stack.  Raises
    SingularInformationError naming the first vanished outcome, and
    ValueError for a T or state that is not finite.
    """
    tmat = _check_transfer(tmat)
    p = _live_probabilities(tmat, state)
    ts = tmat[:, 1:]
    return ts.T @ (ts / p[..., :, None])


def _inverse_weights(rows) -> tuple[list, list[float]] | None:
    """T^-1 by columns and the weights e_q = |a_q|^2, a_q = T^-1[1:, q].

    rows are T's four rows of four floats; column q is the estimate when
    every shot lands in outcome q.  The inverse comes from a
    partial-pivoting LU, PT = LU, as T^-1 = U^-1 L^-1 P with L^-1 applied
    column by column from the right (LAPACK getri's order), all in
    straight-line float arithmetic: at 4x4, numpy's per-call overhead
    costs more than the arithmetic.  cond_2(T) <= |T|_F |T^-1|_F, and the
    computed inverse is off by about cond * eps relative (1e-4 at the
    limit), so a bound below CONDITION_LIMIT / 2 certifies
    cond(T) < CONDITION_LIMIT.  None on a zero pivot, a non-finite value
    or a bound at or above CONDITION_LIMIT / 2.
    """
    r0, r1, r2, r3 = rows
    q0, q1, q2, q3 = 0, 1, 2, 3
    # pivot on column 0: the largest |T[q, 0]| moves to the top
    if abs(r1[0]) > abs(r0[0]):
        r0, r1, q0, q1 = r1, r0, q1, q0
    if abs(r2[0]) > abs(r0[0]):
        r0, r2, q0, q2 = r2, r0, q2, q0
    if abs(r3[0]) > abs(r0[0]):
        r0, r3, q0, q3 = r3, r0, q3, q0
    u00, u01, u02, u03 = r0
    if u00 == 0.0:
        return None
    a0, a1, a2, a3 = r1
    b0, b1, b2, b3 = r2
    c0, c1, c2, c3 = r3
    l1, l2, l3 = a0 / u00, b0 / u00, c0 / u00
    a1, a2, a3 = a1 - l1 * u01, a2 - l1 * u02, a3 - l1 * u03
    b1, b2, b3 = b1 - l2 * u01, b2 - l2 * u02, b3 - l2 * u03
    c1, c2, c3 = c1 - l3 * u01, c2 - l3 * u02, c3 - l3 * u03
    # column 1; a row swap carries its multipliers and its outcome index
    if abs(b1) > abs(a1):
        a1, a2, a3, l1, q1, b1, b2, b3, l2, q2 = b1, b2, b3, l2, q2, a1, a2, a3, l1, q1
    if abs(c1) > abs(a1):
        a1, a2, a3, l1, q1, c1, c2, c3, l3, q3 = c1, c2, c3, l3, q3, a1, a2, a3, l1, q1
    if a1 == 0.0:
        return None
    m2, m3 = b1 / a1, c1 / a1
    b2, b3 = b2 - m2 * a2, b3 - m2 * a3
    c2, c3 = c2 - m3 * a2, c3 - m3 * a3
    # column 2
    if abs(c2) > abs(b2):
        b2, b3, l2, m2, q2, c2, c3, l3, m3, q3 = c2, c3, l3, m3, q3, b2, b3, l2, m2, q2
    if b2 == 0.0:
        return None
    n3 = c2 / b2
    c3 -= n3 * b3
    if c3 == 0.0:
        return None
    # V = U^-1 with U = [[u00 u01 u02 u03], [0 a1 a2 a3], [0 0 b2 b3], [0 0 0 c3]]
    v33, v22, v11, v00 = 1.0 / c3, 1.0 / b2, 1.0 / a1, 1.0 / u00
    v23 = -b3 * v33 * v22
    v12 = -a2 * v22 * v11
    v13 = -(a2 * v23 + a3 * v33) * v11
    v01 = -u01 * v11 * v00
    v02 = -(u01 * v12 + u02 * v22) * v00
    v03 = -(u01 * v13 + u02 * v23 + u03 * v33) * v00
    # X = V L^-1 solves X L = V; L's columns are (l1 l2 l3), (m2 m3), (n3).
    # Column k of X is column q_k of T^-1; column 3 of X is column 3 of V.
    x02, x12, x22, x32 = v02 - v03 * n3, v12 - v13 * n3, v22 - v23 * n3, -v33 * n3
    x01 = v01 - x02 * m2 - v03 * m3
    x11 = v11 - x12 * m2 - v13 * m3
    x21 = -x22 * m2 - v23 * m3
    x31 = -x32 * m2 - v33 * m3
    x00 = v00 - x01 * l1 - x02 * l2 - v03 * l3
    x10 = -x11 * l1 - x12 * l2 - v13 * l3
    x20 = -x21 * l1 - x22 * l2 - v23 * l3
    x30 = -x31 * l1 - x32 * l2 - v33 * l3
    columns = [None, None, None, None]
    columns[q0] = (x00, x10, x20, x30)
    columns[q1] = (x01, x11, x21, x31)
    columns[q2] = (x02, x12, x22, x32)
    columns[q3] = (v03, v13, v23, v33)
    weights = [0.0, 0.0, 0.0, 0.0]
    weights[q0] = x10 * x10 + x20 * x20 + x30 * x30
    weights[q1] = x11 * x11 + x21 * x21 + x31 * x31
    weights[q2] = x12 * x12 + x22 * x22 + x32 * x32
    weights[q3] = v13 * v13 + v23 * v23 + v33 * v33
    # added left to right: the builtin sum is compensated from Python 3.12
    w0, w1, w2, w3 = weights
    inverse_sq = w0 + w1 + w2 + w3 + x00 * x00 + x01 * x01 + x02 * x02 + v03 * v03
    bound = math.hypot(*rows[0], *rows[1], *rows[2], *rows[3]) * math.sqrt(inverse_sq)
    if not bound < CONDITION_LIMIT / 2:
        return None
    return columns, weights


def _certified_inverse(rows) -> tuple[list, list[float]]:
    """_inverse_weights' pair; a T it does not clear goes to one SVD.

    ValueError for a non-finite T, with _check_transfer's message,
    NonInvertibleModelError once cond(T) >= CONDITION_LIMIT, else the
    pair from LAPACK's inverse.
    """
    cleared = _inverse_weights(rows)
    if cleared is not None:
        return cleared
    tmat = _check_transfer(np.array(rows, dtype=float))
    cond = float(np.linalg.cond(tmat))
    if not cond < CONDITION_LIMIT:
        raise NonInvertibleModelError(cond)
    columns = np.linalg.inv(tmat).T.tolist()
    return columns, [x1 * x1 + x2 * x2 + x3 * x3 for _, x1, x2, x3 in columns]


def _refuse_non_finite(names, values) -> None:
    """ValueError naming the first non-finite model parameter and its value.

    The public model builders call it only once building or reading T has
    failed, so the finite path pays for no test: an infinite parameter
    fails in math.cos, a NaN one in the finiteness check of the NaN rows
    it gives.
    """
    for name, value in zip(names, values):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}") from None


def _check_real_4x4(tmat: np.ndarray) -> np.ndarray:
    """T as an array; ValueError unless it is a real 4x4, finite or not."""
    tmat = np.asarray(tmat)
    if tmat.shape != (4, 4) or tmat.dtype.kind not in "iuf":
        raise ValueError("transfer matrix must be a finite real 4x4 array")
    return tmat


def _check_transfer(tmat: np.ndarray) -> np.ndarray:
    """T as an array; ValueError unless it is a finite real 4x4."""
    tmat = _check_real_4x4(tmat)
    if not np.isfinite(tmat).all():
        raise ValueError("transfer matrix must be a finite real 4x4 array")
    return tmat


def require_invertible(tmat: np.ndarray) -> np.ndarray:
    """T^-1 as a (4, 4) array: the certified inverse every estimate applies.

    Raises ValueError first unless T is a finite real 4x4 array, and
    NonInvertibleModelError once cond(T) >= CONDITION_LIMIT, where the
    qTTF is inf; only a T the float LU does not clear pays for an SVD.
    Finiteness is tested only there: the LU clears no T with a NaN or
    infinite entry, and _certified_inverse then refuses it.
    """
    columns, _ = _certified_inverse(_check_real_4x4(tmat).tolist())
    return np.array(columns).T


def delta_from_transfer(tmat: np.ndarray, state: np.ndarray) -> float:
    """Tr(F^-1) for one state; inf when the model is singular or an outcome dies.

    Exact: Tr F^-1(s) = sum_q p_q |a_q|^2 - |s|^2 with a_q the columns
    of T^-1[1:, :], the per-shot covariance trace of linear inversion.
    A T or state that is not finite raises ValueError, before either inf.
    """
    tmat = _check_transfer(tmat)
    s = _as_bloch(state)
    with np.errstate(invalid="ignore"):  # a non-finite state: refused just below
        p = tmat @ s
    if not _check_live(p):
        return math.inf
    try:
        _, (e0, e1, e2, e3) = _certified_inverse(tmat.tolist())
    except NonInvertibleModelError:
        return math.inf
    p0, p1, p2, p3 = p.tolist()
    return e0 * p0 + e1 * p1 + e2 * p2 + e3 * p3 - float(s[1:] @ s[1:])


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


def qttf_from_transfer(tmat: np.ndarray) -> float:
    """Pure-state average of Tr(F^-1); inf when the model is singular.

    tmat is a real 4x4 array, or nested lists of its rows.  The average
    is exact: Tr F^-1(s) = sum_q p_q |a_q|^2 - |s|^2 is affine in s on
    pure states, so its average is sum_q |a_q|^2 T[q, 0] - 1, and inf
    once cond(T) >= CONDITION_LIMIT.  The weights |a_q|^2 come with the
    certified inverse: the float LU clears a well-conditioned T, and
    only T near the limit pays for an SVD and the LAPACK inverse.
    ValueError for a T that is not a finite real 4x4.
    """
    return _qttf_rows(_check_real_4x4(tmat).tolist())


def _qttf_rows(rows) -> float:
    """qttf_from_transfer of T's four rows of four floats, read unchecked.

    The route of qttf_from_transfer and of the two families' factored
    qTTFs, for the settings their certificate does not clear; ValueError
    for a non-finite T.
    """
    try:
        _, (e0, e1, e2, e3) = _certified_inverse(rows)
    except NonInvertibleModelError:
        return math.inf
    return e0 * rows[0][0] + e1 * rows[1][0] + e2 * rows[2][0] + e3 * rows[3][0] - 1.0


def _qttf_rows_gradient(rows) -> tuple[float, list[list[float]] | None]:
    """_qttf_rows' value, to the bit, and its gradient over T's entries.

    The families' gradients chain through it at the settings their
    certificate hands to the T route.  With B = T^-1, B_s = B[1:, :] and
    D = diag(T[:, 0]), d qTTF / dT = -2 (B D B_s^T B_s)^T, with the
    weights |a_q|^2 added to column 0.  (inf, None) once cond(T) >=
    CONDITION_LIMIT.
    """
    try:
        columns, (e0, e1, e2, e3) = _certified_inverse(rows)
    except NonInvertibleModelError:
        return math.inf, None
    value = e0 * rows[0][0] + e1 * rows[1][0] + e2 * rows[2][0] + e3 * rows[3][0] - 1.0
    inverse = np.array(columns).T
    tail = inverse[1:]
    grad = -2.0 * (tail.T @ tail) @ (np.array(rows)[:, :1] * inverse.T)
    grad[:, 0] += (e0, e1, e2, e3)
    return value, grad.tolist()


def default_rule() -> QuadratureRule:
    """The 64x64 rule, the reference order for quadrature cross-checks."""
    return make_quadrature(64, 64)


@dataclass(frozen=True)
class RestartOutcome:
    """One local search: where it ended and what it found.

    iterations counts accepted steps, evaluations objective calls (each
    a value and a gradient), seconds is the search's wall time, and
    gradient_norm is |grad| at params (inf where there is none).
    """

    params: np.ndarray
    value: float
    iterations: int
    converged: bool
    evaluations: int
    seconds: float
    gradient_norm: float


@dataclass(frozen=True)
class OptimizationResult:
    params: np.ndarray
    value: float
    restarts: tuple[RestartOutcome, ...]


# The search's two constants.  No step moves a coordinate by more than
# _STEP_CAP, so a restart stays a local search, and a restart has
# converged once |grad| <= _GRADIENT_TOL * max(1, |value|).
_STEP_CAP = math.pi
_GRADIENT_TOL = 1e-6

# Armijo's sufficient-decrease fraction, and the trial points a line
# search backtracks through before the restart counts as stalled.
_ARMIJO = 1e-4
_LINE_SEARCH_TRIALS = 30


def _usable(value: float, grad: list[float] | None) -> bool:
    """True for a finite value with a gradient of finite entries."""
    return abs(value) < math.inf and grad is not None and sum(map(mul, grad, grad)) < math.inf


def _bfgs(
    objective: Callable[[list[float]], tuple[float, list[float] | None]], x0, maxiter: int
) -> tuple[list[float], float, float, int, int, str | None]:
    """BFGS on the inverse Hessian H, in Python floats, from x0.

    Returns (x, value, gradient norm, iterations, evaluations, failure),
    failure None once the certificate |grad| <= _GRADIENT_TOL *
    max(1, |value|) holds, else why the search stopped short.  Each
    iteration steps along p = -H grad, scaled down so that no coordinate
    moves more than _STEP_CAP, and backtracks until Armijo's condition
    holds, each time to the minimum of the quadratic through the value,
    slope and trial value, kept within [0.1, 0.5] of the last step
    (Nocedal and Wright, Numerical Optimization, 2nd ed., sec. 3.5).  A
    trial whose value is not finite, or whose gradient is None or not
    finite, fails and halves the step; a line search none of whose
    _LINE_SEARCH_TRIALS trials passes stalls the search.  H starts as the
    identity; an update with s.y <= 0 is skipped, and a direction that
    is not finite or not downhill resets H.  Each objective call gets a
    fresh list of floats.
    """
    x = np.asarray(x0, dtype=float).ravel().tolist()
    n = len(x)
    identity = [[float(i == j) for j in range(n)] for i in range(n)]
    value, grad = objective(x[:])
    evaluations = 1
    if not _usable(value, grad):
        return x, value, math.inf, 0, evaluations, "found no finite value and gradient at the start"
    hessian = identity
    iterations = 0
    while True:
        norm = math.sqrt(sum(map(mul, grad, grad)))
        if norm <= _GRADIENT_TOL * max(1.0, abs(value)):
            return x, value, norm, iterations, evaluations, None
        if iterations == maxiter:
            return x, value, norm, iterations, evaluations, f"stopped at maxiter={maxiter}"
        step = [-sum(map(mul, row, grad)) for row in hessian]
        slope = sum(map(mul, step, grad))
        largest = max(map(abs, step))
        if not (slope < 0.0 and largest < math.inf):
            hessian = identity
            step, slope, largest = [-v for v in grad], -norm * norm, max(map(abs, grad))
        if largest > _STEP_CAP:
            scale = _STEP_CAP / largest
            step = [p * scale for p in step]
            slope *= scale
        alpha = 1.0
        for _ in range(_LINE_SEARCH_TRIALS):
            trial = [a + alpha * p for a, p in zip(x, step)]
            trial_value, trial_grad = objective(trial[:])
            evaluations += 1
            usable = _usable(trial_value, trial_grad)
            if usable and trial_value <= value + _ARMIJO * alpha * slope:
                break
            if usable:
                # Armijo failed, so the denominator exceeds -2 (1 - ARMIJO) alpha slope > 0
                fitted = -slope * alpha * alpha / (2.0 * (trial_value - value - slope * alpha))
                alpha = min(max(fitted, 0.1 * alpha), 0.5 * alpha)
            else:
                alpha *= 0.5
        else:
            return x, value, norm, iterations, evaluations, "stalled in its line search"
        s = [alpha * p for p in step]
        y = [b - a for a, b in zip(grad, trial_grad)]
        sy = sum(map(mul, s, y))
        if sy > 0.0:
            hy = [sum(map(mul, row, y)) for row in hessian]
            rho = 1.0 / sy
            # H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T
            c = rho * (1.0 + rho * sum(map(mul, y, hy)))
            hessian = [
                [h - rho * (hy_i * s_j + s_i * hy_j) + c * s_i * s_j
                 for h, hy_j, s_j in zip(row, hy, s)]
                for row, hy_i, s_i in zip(hessian, hy, s)
            ]
        x, value, grad = trial, trial_value, trial_grad
        iterations += 1


def minimize_with_restarts(
    objective: Callable[[list[float]], tuple[float, list[float] | None]],
    starts: Sequence[np.ndarray],
    *,
    maxiter: int = 2000,
) -> OptimizationResult:
    """A BFGS search from each start; the best end point wins.

    objective takes a list of floats and returns the value and its
    gradient as a list of floats, or None for no gradient there (the
    search then rejects the point).  Each restart (_bfgs) reports its end
    point, value, gradient norm, iterations (accepted steps), evaluations
    (objective calls) and wall time.  It is converged only where
    |grad| <= 1e-6 max(1, |value|) holds; one that stops short, at
    maxiter, in a stalled line search or at a start without a finite
    value and gradient, reports converged=False and logs one warning on
    the "qtomo.model" logger.  ValueError for an empty list of starts,
    before any search runs.
    """
    starts = list(starts)
    if not starts:
        raise ValueError("starts must hold at least one start point, got none")

    def run(x0: np.ndarray) -> RestartOutcome:
        started = time.perf_counter()
        x, value, norm, iterations, evaluations, failure = _bfgs(objective, x0, maxiter)
        if failure is not None:
            import logging  # loaded on this warning path only

            logging.getLogger(__name__).warning(
                "BFGS %s after %d evaluations without meeting |grad| <= %g max(1, |value|); "
                "value %r, |grad| %r at %s",
                failure, evaluations, _GRADIENT_TOL, value, norm, x,
            )
        return RestartOutcome(
            params=np.array(x),
            value=value,
            iterations=iterations,
            converged=failure is None,
            evaluations=evaluations,
            seconds=time.perf_counter() - started,
            gradient_norm=norm,
        )

    outcomes = [run(x0) for x0 in starts]
    best = min(outcomes, key=lambda o: o.value)
    return OptimizationResult(
        params=best.params, value=best.value, restarts=tuple(outcomes)
    )
