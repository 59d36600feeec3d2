"""State reconstruction from outcome frequencies.

Linear inversion is exact and fast but can step outside the Bloch ball on
noisy data.  Maximum likelihood always returns a physical state, and every
model here has four outcomes for three parameters, so `saturated_mle`
finds it exactly: the linear-inversion answer when that is physical, else
a few Newton steps on the sphere with a KKT certificate.  It is the "mle"
estimator of the harness and the CLI.  The iterative R-rho-R scheme
(Hradil, PRA 55, R1561, 1997) stays as the reference, `rho_r_mle`; it
converges slowly near pure states and can stop at its iteration cap.

R-rho-R runs on the Bloch vector in plain Python floats: for a real
transfer matrix the operator R = a I + b.sigma is fixed by four reals, and
the normalized R rho R has the closed-form Bloch vector

    s' = [2a b + (a^2 - |b|^2) s + 2(b.s) b] / (a^2 + |b|^2 + 2a b.s),

which gives the same iterates, iteration counts and stopping decisions as
the 2x2 density-matrix form (kept as the oracle in the tests) without
building a matrix per step.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import density_from_bloch
from .model import CONDITION_LIMIT

__all__ = [
    "NonInvertibleModelError",
    "require_invertible",
    "MleConfig",
    "LinearInversionResult",
    "MleResult",
    "linear_inversion",
    "saturated_mle",
    "rho_r_mle",
    "radial_clip",
    "log_likelihood",
]

# Model probabilities are floored here inside the MLE iteration so empty
# outcome cells cannot blow up the ratio P/P_model.
_MLE_PROBABILITY_FLOOR = 1e-14

# Newton steps allowed on the sphere, and the KKT residual |g - lambda v|
# (and any negative lambda) accepted as zero, relative to sum_q |g_q|, the
# sum of the gradient's terms: g carries a few ulps of that sum as round-off
# however small it is itself.
_SPHERE_MAX_STEPS = 50
_KKT_RTOL = 1e-15
# Halvings of a Newton step tried before the search stops (the step is
# then below round-off of the unit vector it is added to).
_MAX_HALVINGS = 60

_log = logging.getLogger(__name__)


class NonInvertibleModelError(ValueError):
    """The transfer matrix cannot be inverted at working precision."""

    def __init__(self, condition_number: float):
        self.condition_number = condition_number
        super().__init__(
            f"transfer matrix condition number {condition_number:.3e} "
            f"exceeds {CONDITION_LIMIT:.0e}"
        )


@dataclass(frozen=True)
class LinearInversionResult:
    """Raw inversion output plus the health indicators callers need."""

    bloch: np.ndarray
    physical: bool
    s0_deviation: float
    condition_number: float


@dataclass(frozen=True)
class MleConfig:
    max_iter: int = 10000
    tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.max_iter < 1 or self.tol <= 0.0:
            raise ValueError("max_iter and tol must be positive")


@dataclass(frozen=True)
class MleResult:
    rho: np.ndarray
    bloch: np.ndarray
    iterations: int
    converged: bool
    floored_probabilities: int


def _check_frequencies(freqs: np.ndarray) -> np.ndarray:
    freqs = np.asarray(freqs, dtype=float)
    if freqs.shape != (4,):
        raise ValueError("expected four outcome frequencies")
    if freqs.min() < -1e-12:
        raise ValueError("frequencies must be nonnegative")
    if abs(freqs.sum() - 1.0) > 1e-9:
        raise ValueError(f"frequencies sum to {freqs.sum()}, expected 1")
    return freqs


def require_invertible(tmat: np.ndarray) -> float:
    """cond(T), or NonInvertibleModelError when it reaches CONDITION_LIMIT."""
    cond = float(np.linalg.cond(tmat))
    if not cond < CONDITION_LIMIT:
        raise NonInvertibleModelError(cond)
    return cond


def linear_inversion(freqs: np.ndarray, tmat: np.ndarray) -> LinearInversionResult:
    """Solve T S = P for the Bloch vector.

    The s0 component is analytically 1; whatever deviation round-off and
    sampling leave behind is reported and then normalized away.  The
    physical flag records whether the estimate stayed inside the Bloch
    ball; nothing is projected silently.
    """
    freqs = _check_frequencies(freqs)
    cond = require_invertible(tmat)
    s = np.linalg.solve(tmat, freqs)
    s0_deviation = abs(s[0] - 1.0)
    s = s / s[0]
    norm = float(np.linalg.norm(s[1:]))
    return LinearInversionResult(
        bloch=s,
        physical=norm <= 1.0 + 1e-9,
        s0_deviation=s0_deviation,
        condition_number=cond,
    )


def radial_clip(bloch: np.ndarray) -> np.ndarray:
    """Pull an estimate radially back onto the Bloch sphere if outside."""
    out = np.asarray(bloch, dtype=float).copy()
    norm = np.linalg.norm(out[1:])
    if norm > 1.0:
        out[1:] /= norm
    return out


def log_likelihood(freqs: np.ndarray, model_probs: np.ndarray) -> float:
    """Multinomial log-likelihood sum_q P_q log p_q (zero-frequency terms drop)."""
    mask = freqs > 0.0
    return float(np.sum(freqs[mask] * np.log(model_probs[mask])))


def _check_transfer(tmat: np.ndarray) -> np.ndarray:
    tmat = np.asarray(tmat)
    if (
        tmat.shape != (4, 4)
        or tmat.dtype.kind not in "iuf"
        or not np.all(np.isfinite(tmat))
    ):
        raise ValueError("transfer matrix must be a finite real 4x4 array")
    return tmat


def saturated_mle(freqs: np.ndarray, tmat: np.ndarray) -> MleResult:
    """Exact maximum-likelihood estimate for a four-outcome qubit model.

    Four outcomes and three Bloch parameters make the model saturated:
    when linear inversion lands in the Bloch ball it reproduces the
    frequencies, so it is the maximum.  Otherwise the maximum of the
    concave log-likelihood l(s) = sum_{P_q > 0} P_q log (T s)_q over the
    ball lies on the sphere, where damped Newton steps on the KKT system

        g(v) = lambda v,   |v| = 1,   g = grad l,

    started from the normalized linear-inversion direction, find it.  A
    step is halved until every live model probability stays positive.  A
    stationary point with lambda >= 0 is the global maximum, because
    l(s) <= l(v) + g.(s - v) = l(v) + lambda (v.s - 1) <= l(v) in the ball.

    iterations counts linear solves: 1 for an estimate inside the ball,
    one more per Newton step.  No probability is floored.  If the step cap
    is reached before the certificate holds, the result carries
    converged=False and one warning goes to the "qtomo.estimators" logger.
    """
    freqs = _check_frequencies(freqs)
    tmat = _check_transfer(tmat)
    v = linear_inversion(freqs, tmat).bloch[1:]
    radius = float(np.linalg.norm(v))
    steps = 0
    converged = radius <= 1.0
    if not converged:
        live = freqs > 0.0
        f, a, b = freqs[live], tmat[live, 0], tmat[live, 1:]
        b_norms = np.linalg.norm(b, axis=1)
        v = v / radius
        kkt = np.zeros((4, 4))
        for steps in range(_SPHERE_MAX_STEPS + 1):
            p = a + b @ v
            if p.min() <= 0.0:
                break  # only possible at the start, for a T that is no POVM
            w = f / p
            g = w @ b
            lam = float(g @ v)
            residual = float(np.linalg.norm(g - lam * v))
            scale = float(w @ b_norms)
            if residual <= _KKT_RTOL * scale and lam >= -_KKT_RTOL * scale:
                converged = True
                break
            if steps == _SPHERE_MAX_STEPS:
                break
            # Newton step in the tangent plane.  The Hessian of l is
            # negative semidefinite, so the shift max(lambda, residual) > 0
            # keeps the step uphill; at the optimum it is lambda itself.
            shift = max(lam, residual)
            kkt[:3, :3] = -(b.T * (w / p)) @ b - shift * np.eye(3)
            kkt[:3, 3] = kkt[3, :3] = -v
            step = np.linalg.solve(kkt, np.append(lam * v - g, 0.0))[:3]
            for _ in range(_MAX_HALVINGS):
                trial = v + step
                trial /= np.linalg.norm(trial)
                if (a + b @ trial).min() > 0.0:
                    v = trial
                    break
                step *= 0.5
            else:
                break
        if not converged:
            _log.warning(
                "exact MLE stopped after %d Newton steps without the KKT "
                "certificate; frequencies %s, final Bloch vector %s",
                steps, freqs.tolist(), v.tolist(),
            )
    bloch = np.concatenate([[1.0], v])
    return MleResult(
        rho=density_from_bloch(bloch),
        bloch=bloch,
        iterations=1 + steps,
        converged=converged,
        floored_probabilities=0,
    )


def rho_r_mle(
    freqs: np.ndarray,
    tmat: np.ndarray,
    cfg: MleConfig | None = None,
    likelihood_trace: list | None = None,
) -> MleResult:
    """Maximum-likelihood reconstruction by the R-rho-R fixed point.

    The reference for `saturated_mle`, which finds the same maximum exactly.

    Starting from the maximally mixed state, iterate

        rho <- normalize(R rho R),   R = sum_mu r_mu sigma_mu,
        r_mu = sum_q (P_q / p_q) T[q, mu],

    where p = T S is the current model probability vector.  Each step is
    likelihood non-decreasing and preserves positivity, so the output is
    always a physical state.  Convergence is declared when either the
    model probabilities or the Bloch vector move less than cfg.tol between
    iterations; near-pure targets approach the boundary only as 1/n, in
    which case the iteration cap bites, the result carries
    converged=False and one warning goes to the "qtomo.estimators"
    logger.

    The step runs on the Bloch vector in plain floats.  For real T,
    R = a I + b.sigma with a = r_0 and b = (r_1, r_2, r_3), and with
    rho = (I + s.sigma)/2 the normalized R rho R has Bloch vector

        s' = [2a b + (a^2 - |b|^2) s + 2(b.s) b] / (a^2 + |b|^2 + 2a b.s),

    the same iterates as the 2x2 matrix product up to round-off.  rho is
    built from the final Bloch vector once.

    likelihood_trace, if given a list, collects the log-likelihood at
    every visited state, summed in plain floats over the outcomes with
    nonzero frequency (as `log_likelihood` does).
    """
    freqs = _check_frequencies(freqs)
    tmat = _check_transfer(tmat)
    if cfg is None:
        cfg = MleConfig()

    (
        (t00, t01, t02, t03),
        (t10, t11, t12, t13),
        (t20, t21, t22, t23),
        (t30, t31, t32, t33),
    ) = tmat.tolist()
    f0, f1, f2, f3 = freqs.tolist()
    floor = _MLE_PROBABILITY_FLOOR
    tol = cfg.tol
    x = y = z = 0.0
    q0 = q1 = q2 = q3 = None  # previous model probabilities
    floored = 0
    converged = False
    # (outcome, frequency) pairs that enter the likelihood trace
    live = [(q, fq) for q, fq in enumerate((f0, f1, f2, f3)) if fq > 0.0]
    for iteration in range(1, cfg.max_iter + 1):
        # p = T s, row by row
        p0 = t00 + t01 * x + t02 * y + t03 * z
        p1 = t10 + t11 * x + t12 * y + t13 * z
        p2 = t20 + t21 * x + t22 * y + t23 * z
        p3 = t30 + t31 * x + t32 * y + t33 * z
        if min(p0, p1, p2, p3) < floor:
            probs = (p0, p1, p2, p3)
            floored += sum(p < floor for p in probs)
            p0, p1, p2, p3 = (max(p, floor) for p in probs)
        if likelihood_trace is not None:
            probs = (p0, p1, p2, p3)
            ll = 0.0
            for q, fq in live:
                ll += fq * math.log(probs[q])
            likelihood_trace.append(ll)
        # r = (P / p) T: a = r_0, b = (r_1, r_2, r_3)
        w0 = f0 / p0
        w1 = f1 / p1
        w2 = f2 / p2
        w3 = f3 / p3
        a = w0 * t00 + w1 * t10 + w2 * t20 + w3 * t30
        bx = w0 * t01 + w1 * t11 + w2 * t21 + w3 * t31
        by = w0 * t02 + w1 * t12 + w2 * t22 + w3 * t32
        bz = w0 * t03 + w1 * t13 + w2 * t23 + w3 * t33
        bs = bx * x + by * y + bz * z
        aa = a * a
        bb = bx * bx + by * by + bz * bz
        norm = aa + bb + 2.0 * a * bs
        along_b = 2.0 * (a + bs) / norm
        along_s = (aa - bb) / norm
        nx = along_b * bx + along_s * x
        ny = along_b * by + along_s * y
        nz = along_b * bz + along_s * z
        moved = max(abs(nx - x), abs(ny - y), abs(nz - z))
        x, y, z = nx, ny, nz
        if moved < tol or (
            q0 is not None
            and max(abs(p0 - q0), abs(p1 - q1), abs(p2 - q2), abs(p3 - q3)) < tol
        ):
            converged = True
            break
        q0, q1, q2, q3 = p0, p1, p2, p3
    bloch = np.array([1.0, x, y, z])
    if not converged:
        _log.warning(
            "R-rho-R stopped at the iteration cap (%d) before converging; "
            "frequencies %s, final Bloch vector %s",
            cfg.max_iter, freqs.tolist(), bloch.tolist(),
        )
    return MleResult(
        rho=density_from_bloch(bloch),
        bloch=bloch,
        iterations=iteration,
        converged=converged,
        floored_probabilities=floored,
    )
