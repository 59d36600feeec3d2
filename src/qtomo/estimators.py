"""State reconstruction from outcome frequencies.

Linear inversion is exact and fast but can step outside the Bloch ball on
noisy data; the iterative R-rho-R maximum-likelihood scheme always returns
a physical state at the cost of slow convergence near pure states.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SIGMA, bloch_from_state, density_from_bloch
from .model import CONDITION_LIMIT

__all__ = [
    "NonInvertibleModelError",
    "require_invertible",
    "MleConfig",
    "LinearInversionResult",
    "MleResult",
    "linear_inversion",
    "rho_r_mle",
    "radial_clip",
    "log_likelihood",
]

# Model probabilities are floored here inside the MLE iteration so empty
# outcome cells cannot blow up the ratio P/P_model.
_MLE_PROBABILITY_FLOOR = 1e-14


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


def rho_r_mle(
    freqs: np.ndarray,
    tmat: np.ndarray,
    cfg: MleConfig | None = None,
    likelihood_trace: list | None = None,
) -> MleResult:
    """Maximum-likelihood reconstruction by the R-rho-R fixed point.

    Starting from the maximally mixed state, iterate

        rho <- normalize(R rho R),   R = sum_mu r_mu sigma_mu,
        r_mu = sum_q (P_q / p_q) T[q, mu],

    where p = T S is the current model probability vector.  Each step is
    likelihood non-decreasing and preserves positivity, so the output is
    always a physical state.  Convergence is declared when either the
    model probabilities or the Bloch vector move less than cfg.tol between
    iterations; near-pure targets approach the boundary only as 1/n, in
    which case the iteration cap bites and the result carries
    converged=False.

    likelihood_trace, if given a list, collects the log-likelihood at
    every visited state.
    """
    freqs = _check_frequencies(freqs)
    if cfg is None:
        cfg = MleConfig()

    s = np.array([1.0, 0.0, 0.0, 0.0])
    rho = density_from_bloch(s)
    prev_probs = None
    floored = 0
    for iteration in range(1, cfg.max_iter + 1):
        probs = tmat @ s
        low = probs < _MLE_PROBABILITY_FLOOR
        if low.any():
            floored += int(low.sum())
            probs = np.maximum(probs, _MLE_PROBABILITY_FLOOR)
        if likelihood_trace is not None:
            likelihood_trace.append(log_likelihood(freqs, probs))
        r = (freqs / probs) @ tmat
        rmat = np.einsum("m,mij->ij", r, SIGMA)
        candidate = rmat @ rho @ rmat
        candidate = 0.5 * (candidate + candidate.conj().T)  # kill round-off drift
        candidate /= np.trace(candidate).real
        new_s = bloch_from_state(candidate)
        moved = np.max(np.abs(new_s - s))
        rho, s = candidate, new_s
        if moved < cfg.tol or (
            prev_probs is not None and np.max(np.abs(probs - prev_probs)) < cfg.tol
        ):
            return MleResult(
                rho=rho,
                bloch=s,
                iterations=iteration,
                converged=True,
                floored_probabilities=floored,
            )
        prev_probs = probs
    return MleResult(
        rho=rho,
        bloch=s,
        iterations=cfg.max_iter,
        converged=False,
        floored_probabilities=floored,
    )
