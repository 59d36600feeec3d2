"""One-parameter estimation of a single Bloch component.

A meter qubit prepared in |+> picks up a controlled phase theta from the
system qubit and is read out in the x basis.  The outcome statistics
determine s_z alone, with a Fisher error that depends on the input state
only through the polar angle.  Its oracles, the angle-chart error, its
quadrature and the six-state average, live in qtomo._oracles.
"""
from __future__ import annotations

import math

import numpy as np

from .core import _ket_bloch, _real, bloch_from_state

__all__ = [
    "NonInformativeCouplingError",
    "probabilities_single",
    "estimate_sz",
    "fisher_inverse_single",
    "qttf_single",
    "max_error_single",
]

# Below this, sin^2(theta/2) is treated as zero and the meter learns nothing.
_COUPLING_FLOOR = 1e-12


class NonInformativeCouplingError(ValueError):
    """The coupling angle is a multiple of 2*pi; outcomes carry no signal."""


def _sin2_half(theta: float) -> float:
    """sin^2(theta/2); ValueError unless theta is finite.

    Every single-meter function reads theta here, so NaN, which passes
    each `s2 < _COUPLING_FLOOR` test, is refused in one place.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    return math.sin(theta / 2.0) ** 2


def probabilities_single(psi: np.ndarray, theta: float) -> tuple[float, float]:
    """Meter outcome probabilities (P0, P1) for input state psi.

    P0 = (1 + cos^2(theta/2))/2 + sin^2(theta/2) s_z / 2 and P1 is its
    complement; both are clipped to [0, 1] against round-off only.  psi
    is a ket or a 2x2 density matrix; a ket's s_z is read in plain
    floats, with bloch_from_state's own operations.
    """
    s_z = _s_z(psi)
    return _probabilities(s_z, _sin2_half(theta))


def _s_z(psi: np.ndarray) -> float:
    """s_z of a ket, as _ket_bloch computes it, or of a 2x2 density matrix.

    A non-complex psi reads through core._real, so text is refused."""
    state = np.asarray(psi)
    if state.dtype.kind != "c":
        state = _real(state, "state")
    if state.shape == (2,):
        return _ket_bloch(*state.tolist())[3]
    return float(bloch_from_state(state)[3])


def _probabilities(s_z: float, s2: float) -> tuple[float, float]:
    """(P0, P1) from s_z and sin^2(theta/2)."""
    p1 = 0.5 * s2 * (1.0 - s_z)
    p1 = min(max(p1, 0.0), 1.0)
    return 1.0 - p1, p1


def estimate_sz(p0: float, p1: float, theta: float) -> float:
    """Invert the outcome statistics for s_z.

    Accepts probabilities or empirical frequencies; they must sum to 1
    within 1e-9, so a NaN in either raises ValueError.  Raises
    NonInformativeCouplingError when theta gives the meter no sensitivity.
    """
    # a NaN sum fails this test, where abs(nan - 1) > 1e-9 would pass it
    if not abs(p0 + p1 - 1.0) <= 1e-9:
        raise ValueError(f"P0 + P1 = {p0 + p1}, expected 1")
    s2 = _sin2_half(theta)
    if s2 < _COUPLING_FLOOR:
        raise NonInformativeCouplingError(
            f"sin^2(theta/2) = {s2:.2e}; s_z is not identifiable"
        )
    return (p0 - p1 - math.cos(theta / 2.0) ** 2) / s2


def fisher_inverse_single(psi: np.ndarray, theta: float) -> float:
    """Per-shot estimation error F^-1 = 4 P0 P1 / sin^4(theta/2)."""
    s2 = _sin2_half(theta)
    if s2 < _COUPLING_FLOOR:
        return math.inf
    p0, p1 = _probabilities(_s_z(psi), s2)
    return 4.0 * p0 * p1 / s2**2


def qttf_single(theta: float) -> float:
    """Pure-state average of F^-1, in closed form: (2/3)(2+cos t)csc^2(t/2).

    Monotonically decreasing on (0, pi] with minimum 2/3 at theta = pi;
    returns inf at non-informative couplings.
    """
    s2 = _sin2_half(theta)
    if s2 < _COUPLING_FLOOR:
        return math.inf
    return (2.0 / 3.0) * (2.0 + math.cos(theta)) / s2


def max_error_single(theta: float) -> float:
    """Worst-case F^-1 over input states.

    The maximizer of 4 x (csc^2(theta/2) - x) over x = sin^2(a1) in [0, 1]
    sits at x = csc^2(theta/2)/2 when that is reachable (theta >= pi/2) and
    at the boundary x = 1 otherwise, so the supremum is

        csc^4(theta/2)          for theta in [pi/2, pi],
        4 (csc^2(theta/2) - 1)  for theta in (0, pi/2).

    Both branches meet at 4 for theta = pi/2.
    """
    if not 0.0 < theta <= math.pi:
        raise ValueError(f"theta must lie in (0, pi], got {theta}")
    s2 = _sin2_half(theta)
    if s2 < _COUPLING_FLOOR:
        return math.inf
    csc2 = 1.0 / s2
    if csc2 <= 2.0:
        return csc2**2
    return 4.0 * (csc2 - 1.0)

