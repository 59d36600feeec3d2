"""Qubit primitives: states, Bloch vectors, fidelity, quadrature.

Everything here is plain complex linear algebra on 2x2 arrays; the 8x8
register helpers live with the oracles in qtomo._oracles.  All functions
are pure; nothing caches mutable state.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SIGMA",
    "PAULI_EIGENSTATES",
    "PAULI_EIGENSTATE_LABELS",
    "QuadratureRule",
    "state_from_angles",
    "density_from_bloch",
    "bloch_from_state",
    "fidelity",
    "make_quadrature",
    "check_density",
]

# Pauli basis, sigma_0 .. sigma_3.
SIGMA = np.array(
    [
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Eigenvectors of sigma_z, sigma_x, sigma_y, in that order.  The six states
# form a projective 2-design, which several identities below rely on.
PAULI_EIGENSTATES = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([_INV_SQRT2, _INV_SQRT2], dtype=complex),
    np.array([_INV_SQRT2, -_INV_SQRT2], dtype=complex),
    np.array([_INV_SQRT2, 1.0j * _INV_SQRT2], dtype=complex),
    np.array([_INV_SQRT2, -1.0j * _INV_SQRT2], dtype=complex),
)
PAULI_EIGENSTATE_LABELS = ("z0", "z1", "x0", "x1", "y0", "y1")


def state_from_angles(alpha1: float, alpha2: float) -> np.ndarray:
    """Amplitudes (c0, c1) = (e^{i a2} cos a1, e^{-i a2} sin a1).

    The angle chart covers the whole sphere once for a1 in [0, pi/2] and
    a2 in [0, pi]; values outside that rectangle are rejected.
    """
    if not (-1e-12 <= alpha1 <= math.pi / 2 + 1e-12):
        raise ValueError(f"alpha1 must lie in [0, pi/2], got {alpha1}")
    if not (-1e-12 <= alpha2 <= math.pi + 1e-12):
        raise ValueError(f"alpha2 must lie in [0, pi], got {alpha2}")
    return np.array(
        [
            np.exp(1.0j * alpha2) * math.cos(alpha1),
            np.exp(-1.0j * alpha2) * math.sin(alpha1),
        ],
        dtype=complex,
    )


def _check_integer(name: str, value, minimum: int = 0) -> None:
    """Raise ValueError naming `name` unless value is an integer >= minimum.

    Python and numpy integers pass.  A bool is not a count, and a float is
    refused even when integral: numpy truncates a float count, while the
    caller would divide by the untruncated value.
    """
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < minimum):
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")


def _real(values, name: str) -> np.ndarray:
    """values as a float array; ValueError naming `name` for a complex one,
    whose cast to float would drop the imaginary part with only a warning,
    and for text, which the cast would parse: a str or bytes array, or an
    object array holding a str or bytes entry.  A float array pays for
    one dtype test."""
    values = np.asarray(values)
    kind = values.dtype.kind
    if kind != "f" and (kind in "cSU" or (kind == "O" and any(
            isinstance(v, (str, bytes)) for v in values.flat))):
        raise ValueError(f"{name} must be real, got {values.tolist()!r}")
    return values.astype(float, copy=False)


def _real_number(value, name: str) -> float:
    """value as a Python float; ValueError naming `name` unless it is a real
    number: float() would parse text and drop an imaginary part with only
    a warning."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def density_from_bloch(s: np.ndarray) -> np.ndarray:
    """Density matrix (1/2) sum_mu s_mu sigma_mu from a Bloch 4-vector."""
    s = _real(s, "Bloch vector")
    if s.shape != (4,):
        raise ValueError("expected a Bloch 4-vector (s0, s1, s2, s3)")
    if not np.isfinite(s).all():
        raise ValueError(f"Bloch vector must be finite, got {s}")
    return 0.5 * np.einsum("m,mij->ij", s, SIGMA)


def bloch_from_state(rho: np.ndarray) -> np.ndarray:
    """Bloch 4-vector s_mu = Tr(rho sigma_mu) of a (2, 2) density matrix.

    A ket of shape (2,) is accepted too; any other shape, a NaN or
    infinite entry, and text (a non-complex input reads through _real)
    raise ValueError.

    The ket (a, b) gives s = (|a|^2 + |b|^2, 2 Re(a b*), -2 Im(a b*),
    |a|^2 - |b|^2), evaluated in plain floats: at this size numpy's
    per-call overhead costs more than the arithmetic.  The components
    agree with the density-matrix path to round-off, and a zero
    component is +0.0.
    """
    rho = np.asarray(rho)
    if rho.dtype.kind != "c":
        rho = _real(rho, "state")
    rho = rho.astype(complex, copy=False)
    if rho.shape == (2,):
        return np.array(_ket_bloch(*rho.tolist()))
    if rho.shape != (2, 2):
        raise ValueError(
            "expected a ket of shape (2,) or a density matrix of shape (2, 2), "
            f"got shape {rho.shape}"
        )
    # every s_mu sums all four entries, so a NaN or infinite entry shows here
    s = np.einsum("mij,ji->m", SIGMA, rho).real
    if not np.isfinite(s).all():
        raise ValueError("density matrix must be finite")
    return s


def _ket_bloch(a: complex, b: complex) -> tuple[float, float, float, float]:
    """bloch_from_state of the ket (a, b), as four Python floats; ValueError
    unless |a|^2 + |b|^2, which bounds every component, is finite."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    aa = ar * ar + ai * ai
    bb = br * br + bi * bi
    if not math.isfinite(aa + bb):
        raise ValueError(f"ket must be finite, got ({a}, {b})")
    # adding 0.0 turns a -0.0 into +0.0 and leaves every other value alone
    s_x = 2.0 * (ar * br + ai * bi) + 0.0
    s_y = 2.0 * (ar * bi - ai * br) + 0.0
    return aa + bb, s_x, s_y, aa - bb


# Positivity floor of check_density: a reconstructed state whose smallest
# eigenvalue is negative only by round-off still counts as physical.
_EIG_FLOOR = -1e-9


def check_density(rho: np.ndarray) -> np.ndarray:
    """Validate a 2x2 density matrix and return it as a complex array.

    Hermiticity and unit trace are structural (1e-12); positivity uses the
    looser physicality floor so that states reconstructed from noisy data
    are not rejected for round-off.  A (..., 2, 2) stack is checked
    member by member in one pass and fails if any member does.

    Each test is written as not (deviation <= bound), which a NaN
    deviation fails, so a NaN or infinite entry, which makes the trace or
    the Hermiticity deviation NaN or inf, is refused there; the
    deviations are computed with numpy's invalid and overflow warnings
    off, and finiteness is tested only once a deviation has failed, to
    name it.  A finite matrix that fails both tests is called not
    Hermitian.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise ValueError("density matrix must be 2x2")
    with np.errstate(invalid="ignore", over="ignore"):
        hermitian = (
            np.abs(rho - rho.conj().swapaxes(-1, -2)).max(initial=0.0) <= 1e-12
        )
        unit_trace = (
            np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0).max(initial=0.0)
            <= 1e-12
        )
    if not (hermitian and unit_trace):
        if not np.all(np.isfinite(rho)):
            raise ValueError("density matrix must be finite")
        if not hermitian:
            raise ValueError("density matrix is not Hermitian")
        raise ValueError("density matrix trace differs from 1")
    if not np.linalg.eigvalsh(rho).min(initial=math.inf) >= _EIG_FLOOR:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity [Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2.

    For a pair of qubits this reduces to the closed form
    Tr(rho sigma) + 2 sqrt(det rho det sigma), which is what we evaluate.
    For a pure argument det rho is zero up to round-off of about 1e-17,
    and the square root turns that into an error of up to about 1e-8 in
    the fidelity: a change in the last bits of a pure state can move the
    fidelity by that much.
    """
    rho = check_density(rho)
    sigma = check_density(sigma)
    if rho.shape != (2, 2) or sigma.shape != (2, 2):
        raise ValueError("fidelity takes two 2x2 density matrices")
    overlap = np.trace(rho @ sigma).real
    # Determinants of physical qubit states are >= 0 up to round-off.
    dets = max(np.linalg.det(rho).real, 0.0) * max(np.linalg.det(sigma).real, 0.0)
    return float(min(max(overlap + 2.0 * math.sqrt(dets), 0.0), 1.0))


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for averaging over pure states.

    The target measure is (1/pi) sin(2 a1) da1 da2 on
    [0, pi/2] x [0, alpha2_limit] of `make_quadrature`, scaled so the
    weights always sum to 1.
    """

    alpha1: np.ndarray
    alpha2: np.ndarray
    weights: np.ndarray
    _bloch: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        s = np.empty((4, self.alpha1.size))
        s[0] = 1.0
        s[1] = np.sin(2.0 * self.alpha1) * np.cos(2.0 * self.alpha2)
        s[2] = np.sin(2.0 * self.alpha1) * np.sin(2.0 * self.alpha2)
        s[3] = np.cos(2.0 * self.alpha1)
        object.__setattr__(self, "_bloch", s)

    def bloch_nodes(self) -> np.ndarray:
        """Bloch 4-vectors of all nodes, shape (4, n_nodes)."""
        return self._bloch

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum of per-node values (the measure is normalized)."""
        return float(np.dot(self.weights, values))


def make_quadrature(n1: int, n2: int, *, alpha2_limit: float = math.pi) -> QuadratureRule:
    """Product rule for the normalized pure-state average.

    Parameters
    ----------
    n1, n2:
        Node counts for the polar and azimuthal directions, integers >= 2.
    alpha2_limit:
        Upper end of the a2 interval.  The default pi covers the sphere
        once; 2*pi covers it twice and, by periodicity of every integrand
        built from Bloch vectors, yields the same averages.  ValueError
        naming it unless it is a positive, finite real.

    The polar direction substitutes u = sin^2(a1), which turns the
    sin(2 a1)/pi weight into the flat unit measure on [0, 1]; Gauss
    nodes in u then integrate the constant exactly at every order.  The
    azimuth uses the midpoint rule, which converges exponentially for
    the periodic integrands encountered here.
    """
    _check_integer("n1", n1, 2)
    _check_integer("n2", n2, 2)
    limit = _real_number(alpha2_limit, "alpha2_limit")
    if not 0.0 < limit < math.inf:
        raise ValueError(f"alpha2_limit must be a positive, finite real, got {alpha2_limit!r}")
    x, w = np.polynomial.legendre.leggauss(n1)
    u = 0.5 * (x + 1.0)
    alpha1 = np.arcsin(np.sqrt(u))
    alpha2 = (np.arange(n2) + 0.5) * (limit / n2)
    g1, g2 = np.meshgrid(alpha1, alpha2, indexing="ij")
    weights = np.repeat((0.5 * w)[:, None], n2, axis=1) / n2
    return QuadratureRule(
        alpha1=g1.ravel(),
        alpha2=g2.ravel(),
        weights=weights.ravel(),
    )
