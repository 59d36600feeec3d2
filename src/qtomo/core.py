"""Qubit primitives: states, Bloch vectors, fidelity, entropy, quadrature.

Everything here is plain complex linear algebra on 2x2 (and, via helpers,
4x4 / 8x8) arrays.  All functions are pure; nothing caches mutable state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SIGMA",
    "PI_0",
    "PI_1",
    "PI_PLUS",
    "HADAMARD",
    "PAULI_EIGENSTATES",
    "PAULI_EIGENSTATE_LABELS",
    "QuadratureRule",
    "state_from_angles",
    "density_from_state",
    "density_from_bloch",
    "bloch_from_state",
    "fidelity",
    "entanglement_entropy",
    "make_quadrature",
    "expm_2x2_hermitian",
    "kron3",
    "cnot_matrix",
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

PI_0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
PI_1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
PI_PLUS = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)

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


def density_from_state(psi: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi|."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def density_from_bloch(s: np.ndarray) -> np.ndarray:
    """Density matrix (1/2) sum_mu s_mu sigma_mu from a Bloch 4-vector."""
    s = np.asarray(s, dtype=float)
    if s.shape != (4,):
        raise ValueError("expected a Bloch 4-vector (s0, s1, s2, s3)")
    return 0.5 * np.einsum("m,mij->ij", s, SIGMA)


def bloch_from_state(rho: np.ndarray) -> np.ndarray:
    """Bloch 4-vector s_mu = Tr(rho sigma_mu); accepts kets too."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim == 1:
        rho = density_from_state(rho)
    return np.einsum("mij,ji->m", SIGMA, rho).real


def check_density(rho: np.ndarray, *, eig_floor: float = -1e-9) -> np.ndarray:
    """Validate a 2x2 density matrix and return it as a complex array.

    Hermiticity and unit trace are structural (1e-12); positivity uses the
    looser physicality floor so that states reconstructed from noisy data
    are not rejected for round-off.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError("density matrix must be 2x2")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-12:
        raise ValueError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(rho).min() < eig_floor:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity [Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2.

    For a pair of qubits this reduces to the closed form
    Tr(rho sigma) + 2 sqrt(det rho det sigma), which is what we evaluate.
    """
    rho = check_density(rho)
    sigma = check_density(sigma)
    overlap = np.trace(rho @ sigma).real
    # Determinants of physical qubit states are >= 0 up to round-off.
    dets = max(np.linalg.det(rho).real, 0.0) * max(np.linalg.det(sigma).real, 0.0)
    return float(min(max(overlap + 2.0 * math.sqrt(dets), 0.0), 1.0))


def entanglement_entropy(alpha1: float, theta: float) -> float:
    """System-meter entanglement generated by the coupling, in bits.

    E = -sum lambda log2 lambda with lambda = (1 +- sqrt(x))/2 and
    x = 1 - sin^2(2 a1) sin^2(theta/2).  Zero exactly at the poles for
    any coupling; one full bit at the equator when theta = pi.
    """
    if not (-1e-12 <= alpha1 <= math.pi / 2 + 1e-12):
        raise ValueError(f"alpha1 must lie in [0, pi/2], got {alpha1}")
    x = 1.0 - math.sin(2.0 * alpha1) ** 2 * math.sin(theta / 2.0) ** 2
    root = math.sqrt(max(x, 0.0))
    total = 0.0
    for lam in ((1.0 + root) / 2.0, (1.0 - root) / 2.0):
        if lam > 0.0:
            total -= lam * math.log2(lam)
    return total


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for averaging over pure states.

    The target measure is (1/pi) sin(2 a1) da1 da2 on
    [0, pi/2] x [0, alpha2_limit], scaled so the weights always sum to 1.
    """

    alpha1: np.ndarray
    alpha2: np.ndarray
    weights: np.ndarray
    n1: int
    n2: int
    alpha2_limit: float = math.pi
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
        Node counts for the polar and azimuthal directions (both >= 2).
    alpha2_limit:
        Upper end of the a2 interval.  The default pi covers the sphere
        once; 2*pi covers it twice and, by periodicity of every integrand
        built from Bloch vectors, yields the same averages.

    The polar direction substitutes u = sin^2(a1), which turns the
    sin(2 a1)/pi weight into the flat unit measure on [0, 1]; Gauss
    nodes in u then integrate the constant exactly at every order.  The
    azimuth uses the midpoint rule, which converges exponentially for
    the periodic integrands encountered here.
    """
    if n1 < 2 or n2 < 2:
        raise ValueError("quadrature orders must be at least 2")
    x, w = np.polynomial.legendre.leggauss(n1)
    u = 0.5 * (x + 1.0)
    alpha1 = np.arcsin(np.sqrt(u))
    alpha2 = (np.arange(n2) + 0.5) * (alpha2_limit / n2)
    g1, g2 = np.meshgrid(alpha1, alpha2, indexing="ij")
    weights = np.repeat((0.5 * w)[:, None], n2, axis=1) / n2
    return QuadratureRule(
        alpha1=g1.ravel(),
        alpha2=g2.ravel(),
        weights=weights.ravel(),
        n1=n1,
        n2=n2,
        alpha2_limit=alpha2_limit,
    )


def expm_2x2_hermitian(hmat: np.ndarray, t: float | np.ndarray = 1.0) -> np.ndarray:
    """exp(-i t H) for Hermitian 2x2 H, by spectral decomposition.

    Exact up to round-off, unlike a truncated series.  hmat may be a
    (..., 2, 2) stack and t an array that broadcasts against its leading
    shape; the result is (..., 2, 2) over the broadcast shape, and each
    member carries the bits of its own 2x2 call.  Any non-Hermitian
    member raises ValueError.
    """
    hmat = np.asarray(hmat, dtype=complex)
    if hmat.shape[-2:] != (2, 2):
        raise ValueError("expected a 2x2 matrix or a (..., 2, 2) stack")
    if np.abs(hmat - hmat.conj().swapaxes(-1, -2)).max(initial=0.0) > 1e-12:
        raise ValueError("matrix is not Hermitian")
    evals, evecs = np.linalg.eigh(hmat)
    phases = np.exp(-1.0j * np.asarray(t)[..., None] * evals)
    return (evecs * phases[..., None, :]) @ evecs.conj().swapaxes(-1, -2)


def kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Kronecker product of three single-qubit operators, in one broadcast."""
    return (
        a[:, None, None, :, None, None]
        * b[None, :, None, None, :, None]
        * c[None, None, :, None, None, :]
    ).reshape(8, 8)


def cnot_matrix(control: int, target: int, n_qubits: int = 3) -> np.ndarray:
    """CNOT on an n-qubit register; qubit 0 is the leftmost tensor factor."""
    if control == target:
        raise ValueError("control and target must differ")
    dim = 2**n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        bits = [(idx >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
        if bits[control]:
            bits[target] ^= 1
        jdx = sum(bit << (n_qubits - 1 - q) for q, bit in enumerate(bits))
        out[jdx, idx] = 1.0
    return out

