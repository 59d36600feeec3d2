"""State reconstruction from outcome frequencies.

Linear inversion is exact and fast but can step outside the Bloch ball on
noisy data.  Maximum likelihood always returns a physical state, and every
model here has four outcomes for three parameters, so `saturated_mle`
finds it exactly: the linear-inversion answer when that is physical, else
a few Newton steps on the sphere, in plain floats, with a KKT certificate.
It is the "mle" estimator of the harness and the CLI.  The iterative
R-rho-R scheme (Hradil, PRA 55, R1561, 1997) stays as the reference,
`rho_r_mle`; it converges slowly near pure states and can stop at its
iteration cap.  Its step tolerance is a fixed constant, so its keywords
set only the cap (`max_iter`) and the optional certified-gap stop
(`gap_tol`).

Both direct estimators start from one inverse: `model.require_invertible`
returns the T^-1 of the qTTF's certified float LU (an SVD and LAPACK's
inverse only for a T the LU does not clear) and refuses a singular T by
the qTTF's own test.  Linear inversion is then s = T^-1 f, so each call
factorizes T once; only the CLI's `estimate` reports cond(T).

R-rho-R runs on the Bloch vector in plain Python floats: for a real
transfer matrix the operator R = a I + b.sigma is fixed by four reals, and
the normalized R rho R has the closed-form Bloch vector

    s' = [2a b + (a^2 - |b|^2) s + 2(b.s) b] / (a^2 + |b|^2 + 2a b.s),

which gives the same iterates, iteration counts and stopping decisions as
the 2x2 density-matrix form (kept as the oracle in the tests) without
building a matrix per step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _check_integer, _real
from .model import _check_transfer, require_invertible

__all__ = [
    "LinearInversionResult",
    "MleResult",
    "linear_inversion",
    "saturated_mle",
    "rho_r_mle",
    "radial_clip",
    "log_likelihood",
]

# Frequencies down to minus this count as zero: round-off of exact
# probabilities fed in as frequencies.
_NEGATIVE_ROUNDOFF = 1e-12

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

# R-rho-R counts as settled once the model probabilities or the Bloch
# vector move less than this in one step.
_RHO_R_TOL = 1e-10


@dataclass(frozen=True)
class LinearInversionResult:
    """Raw inversion output plus the health indicators callers need."""

    bloch: np.ndarray
    physical: bool
    s0_deviation: float


@dataclass(frozen=True)
class MleResult:
    """An MLE as a Bloch 4-vector; `density_from_bloch(bloch)` is the matrix."""

    bloch: np.ndarray
    iterations: int
    converged: bool
    floored_probabilities: int


def _check_frequencies(freqs: np.ndarray) -> np.ndarray:
    """The four frequencies as a float array, tested in Python floats.

    ValueError unless they are real, finite, at least -1e-12 (round-off)
    and sum to 1 within 1e-9; the sum runs left to right, as numpy sums
    four entries.
    """
    freqs = _real(freqs, "frequencies")
    if freqs.shape != (4,):
        raise ValueError("expected four outcome frequencies")
    values = freqs.tolist()
    f0, f1, f2, f3 = values
    # a NaN or infinite entry makes the sum NaN or infinite
    total = f0 + f1 + f2 + f3
    if not math.isfinite(total):
        raise ValueError(f"frequencies must be finite and sum to 1, got {values}")
    if min(values) < -_NEGATIVE_ROUNDOFF:
        raise ValueError("frequencies must be nonnegative")
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"frequencies sum to {total}, expected 1")
    return freqs


def _solve(freqs: np.ndarray, inverse: np.ndarray) -> LinearInversionResult:
    """Linear inversion s = T^-1 f from require_invertible's T^-1.

    The product stays numpy's: its BLAS kernel may fuse multiply-adds,
    which Python floats cannot repeat, so a float sum would move the last
    bits of s.  The normalization, s0_deviation and the radius are plain
    floats, and the Bloch vector is one array built at the end.
    """
    s0, s1, s2, s3 = (inverse @ freqs).tolist()
    try:
        x, y, z = s1 / s0, s2 / s0, s3 / s0
    except ZeroDivisionError:
        # only a T that is no POVM maps normalized frequencies to s0 = 0
        raise ValueError(
            f"linear inversion gives s0 = 0 for frequencies {freqs.tolist()}: "
            "no Bloch vector"
        ) from None
    return LinearInversionResult(
        bloch=np.array([s0 / s0, x, y, z]),
        physical=math.sqrt(x * x + y * y + z * z) <= 1.0 + 1e-9,
        s0_deviation=abs(s0 - 1.0),
    )


def linear_inversion(freqs: np.ndarray, tmat: np.ndarray) -> LinearInversionResult:
    """Solve T S = P for the Bloch vector.

    The s0 component is analytically 1; whatever deviation round-off and
    sampling leave behind is reported and then normalized away.  The
    physical flag records whether the estimate stayed inside the Bloch
    ball; nothing is projected silently.  Apart from numpy's T^-1 f, the
    checks and arithmetic run in Python floats.  ValueError if T^-1 f has
    s0 = 0, which no POVM allows.
    """
    freqs = _check_frequencies(freqs)
    return _solve(freqs, require_invertible(tmat))


def radial_clip(bloch: np.ndarray) -> np.ndarray:
    """Pull an estimate radially back onto the Bloch sphere if outside.

    ValueError unless bloch is a real (4,) vector, and for a NaN or
    infinite component: a non-finite radius fails the ball test, and only
    then is the vector tested.
    """
    out = _real(bloch, "Bloch vector").copy()
    if out.shape != (4,):
        raise ValueError("expected a Bloch 4-vector (s0, s1, s2, s3)")
    norm = np.linalg.norm(out[1:])
    if not norm <= 1.0:
        if not np.isfinite(out[1:]).all():
            raise ValueError(f"Bloch vector must be finite, got {out}")
        out[1:] /= norm
    if not math.isfinite(out[0]):
        raise ValueError(f"Bloch vector must be finite, got {out}")
    return out


def log_likelihood(freqs: np.ndarray, model_probs: np.ndarray) -> float:
    """Multinomial log-likelihood sum_q P_q log p_q (zero-frequency terms drop).

    -inf when an outcome with P_q > 0 has p_q = 0; ValueError naming the
    outcome when its P_q is NaN, +inf or negative beyond round-off (below
    -1e-12, as the estimators allow), or when its p_q is negative, NaN or
    +inf, where no likelihood exists; also for complex input or unequal shapes.
    """
    freqs = _real(freqs, "frequencies")
    model_probs = _real(model_probs, "model probabilities")
    if freqs.shape != model_probs.shape:
        raise ValueError(f"shapes differ: frequencies {freqs.shape}, model {model_probs.shape}")
    # np.min and np.max keep a NaN, which fails the test like a bad entry
    if not (freqs.min() >= -_NEGATIVE_ROUNDOFF and freqs.max() < math.inf):
        q = int(np.argmax(~((freqs >= -_NEGATIVE_ROUNDOFF) & (freqs < math.inf))))
        raise ValueError(f"outcome {q} has frequency {freqs[q]}: no log-likelihood")
    mask = freqs > 0.0
    undefined = mask & ~((model_probs >= 0.0) & (model_probs < math.inf))
    if undefined.any():
        q = int(np.argmax(undefined))
        raise ValueError(
            f"outcome {q} has frequency {freqs[q]} but model probability "
            f"{model_probs[q]}: no log-likelihood"
        )
    with np.errstate(divide="ignore"):
        return float(np.sum(freqs[mask] * np.log(model_probs[mask])))


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

    The steps run in Python floats over the live outcomes (P_q > 0).  One
    pass per step sums g = sum_q w_q b_q, the certificate's scale
    sum_q w_q |b_q| and the six entries of H = sum_q (w_q / p_q) b_q b_q^T,
    with w = P / p and b_q = T[q, 1:].  The bordered Newton system

        (H + shift I) step + mu v = r,   v.step = 0,   r = g - lambda v,

    is solved in closed form: with M = H + shift I factored as L D L^T,
    u = M^-1 r and t = M^-1 v give mu = (v.u) / (v.t) and
    step = u - mu t.  A zero pivot (M singular in floats, possible only
    for a shift at or near 0) ends the steps without the certificate, as
    a step that no halving can keep does.

    iterations is 1 plus the Newton steps: 1 for an estimate inside the
    ball.  No probability is floored.  If the step cap is reached before
    the certificate holds, the result carries converged=False and one
    warning goes to the "qtomo.estimators" logger.
    """
    freqs = _check_frequencies(freqs)
    return _saturated_mle(freqs, tmat, require_invertible(tmat))


def _saturated_mle(freqs: np.ndarray, tmat: np.ndarray, inverse: np.ndarray) -> MleResult:
    """`saturated_mle` on checked frequencies and require_invertible's T^-1.

    A caller that estimates many frequency vectors on one T passes its
    inverse once instead of factorizing T per call.
    """
    bloch = _solve(freqs, inverse).bloch
    _, x, y, z = bloch.tolist()
    radius = math.sqrt(x * x + y * y + z * z)
    if radius <= 1.0:
        return MleResult(bloch=bloch, iterations=1, converged=True, floored_probabilities=0)
    x, y, z = x / radius, y / radius, z / radius
    sqrt = math.sqrt
    # (P_q, T[q, 0], b_q, |b_q|) of each live outcome
    rows = [
        (fq, t0, t1, t2, t3, sqrt(t1 * t1 + t2 * t2 + t3 * t3))
        for fq, (t0, t1, t2, t3) in zip(freqs.tolist(), np.asarray(tmat).tolist())
        if fq > 0.0
    ]
    steps = 0
    converged = False
    # a live probability that is not positive at the start (only for a T
    # that is no POVM) stops the search before any step
    if _live_positive(rows, x, y, z):
        for steps in range(_SPHERE_MAX_STEPS + 1):
            gx = gy = gz = scale = 0.0
            hxx = hxy = hxz = hyy = hyz = hzz = 0.0
            for fq, t0, t1, t2, t3, tn in rows:
                p = t0 + (t1 * x + t2 * y + t3 * z)
                w = fq / p
                gx += w * t1
                gy += w * t2
                gz += w * t3
                scale += w * tn
                c = w / p
                cx = c * t1
                cy = c * t2
                hxx += cx * t1
                hxy += cx * t2
                hxz += cx * t3
                hyy += cy * t2
                hyz += cy * t3
                hzz += c * t3 * t3
            lam = gx * x + gy * y + gz * z
            rx = gx - lam * x
            ry = gy - lam * y
            rz = gz - lam * z
            residual = sqrt(rx * rx + ry * ry + rz * rz)
            if residual <= _KKT_RTOL * scale and lam >= -_KKT_RTOL * scale:
                converged = True
                break
            if steps == _SPHERE_MAX_STEPS:
                break
            # Newton step in the tangent plane.  The Hessian of l is -H,
            # negative semidefinite, so the shift max(lambda, residual) > 0
            # keeps the step uphill; at the optimum it is lambda itself.
            shift = max(lam, residual)
            try:
                # M = L D L^T, then u = M^-1 r and t = M^-1 v by forward
                # and back substitution
                d0 = hxx + shift
                l10 = hxy / d0
                l20 = hxz / d0
                d1 = hyy + shift - l10 * hxy
                k21 = hyz - l20 * hxy
                l21 = k21 / d1
                d2 = hzz + shift - l20 * hxz - l21 * k21
                e1 = ry - l10 * rx
                uz = (rz - l20 * rx - l21 * e1) / d2
                uy = e1 / d1 - l21 * uz
                ux = rx / d0 - l10 * uy - l20 * uz
                e1 = y - l10 * x
                tz = (z - l20 * x - l21 * e1) / d2
                ty = e1 / d1 - l21 * tz
                tx = x / d0 - l10 * ty - l20 * tz
                mu = (x * ux + y * uy + z * uz) / (x * tx + y * ty + z * tz)
            except ZeroDivisionError:
                break
            sx = ux - mu * tx
            sy = uy - mu * ty
            sz = uz - mu * tz
            for _ in range(_MAX_HALVINGS):
                nx = x + sx
                ny = y + sy
                nz = z + sz
                norm = sqrt(nx * nx + ny * ny + nz * nz)
                nx /= norm
                ny /= norm
                nz /= norm
                if _live_positive(rows, nx, ny, nz):
                    x, y, z = nx, ny, nz
                    break
                sx *= 0.5
                sy *= 0.5
                sz *= 0.5
            else:
                break
    if not converged:
        import logging  # loaded on this warning path only

        logging.getLogger(__name__).warning(
            "exact MLE stopped after %d Newton steps without the KKT "
            "certificate; frequencies %s, final Bloch vector %s",
            steps, freqs.tolist(), [x, y, z],
        )
    return MleResult(
        bloch=np.array([1.0, x, y, z]),
        iterations=1 + steps,
        converged=converged,
        floored_probabilities=0,
    )


def _live_positive(rows, x: float, y: float, z: float) -> bool:
    """Whether every live model probability is positive at (x, y, z)."""
    for _, t0, t1, t2, t3, _ in rows:
        if not t0 + (t1 * x + t2 * y + t3 * z) > 0.0:
            return False
    return True


def rho_r_mle(
    freqs: np.ndarray,
    tmat: np.ndarray,
    *,
    max_iter: int = 10000,
    gap_tol: float | None = None,
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
    model probabilities or the Bloch vector move less than 1e-10
    (_RHO_R_TOL) between iterations; near-pure targets approach the
    boundary only as 1/n, in which case the iteration cap bites, the
    result carries converged=False and one warning goes to the
    "qtomo.estimators" logger.

    The step runs on the Bloch vector in plain floats.  For real T,
    R = a I + b.sigma with a = r_0 and b = (r_1, r_2, r_3), and with
    rho = (I + s.sigma)/2 the normalized R rho R has Bloch vector

        s' = [2a b + (a^2 - |b|^2) s + 2(b.s) b] / (a^2 + |b|^2 + 2a b.s),

    the same iterates as the 2x2 matrix product up to round-off.

    The flooring and stopping tests are chains of `<` joined by `or` and
    `and` rather than min() and max() over abs() values: the builtin
    calls cost several float operations each, a chain stops at its first
    deciding comparison, and for every non-NaN value the chain decides
    exactly as min/max would.  Each stopping test is -tol < d < tol, which
    decides as abs(d) < tol for every d, NaN and inf included.  The
    loop's float operations and their order are fixed, so the iterates,
    iteration counts and stopping decisions stay the same to the bit;
    seeded pins in the tests hold them there.

    max_iter caps the iterations.  gap_tol is off by default, so the
    iterates and iteration counts are those of the step rule alone.  With
    gap_tol set, a step that floored no probability also stops, before
    its update, once lambda_max(R) - 1 = a + |b| - 1 is at most gap_tol:
    the current state is returned, converged, and no state's
    log-likelihood exceeds its own by more than that gap (Glancy, Knill
    and Girard, NJP 14, 095017 (2012)).  The trace below and this test
    share one flag test per iteration, so a run with neither tests no
    more than the step rule needs.

    likelihood_trace, if given a list, collects the log-likelihood at
    every visited state, summed in plain floats over the outcomes with
    nonzero frequency (as `log_likelihood` does), in outcome order; with
    every frequency nonzero the four terms are one straight-line sum,
    which adds them in that same order.

    The result is never NaN.  If the iteration reaches no finite state
    (its normalization vanishes, or its products overflow on a T far from
    any POVM), it raises NonInvertibleModelError when T is singular and
    ValueError naming T otherwise.  The loop itself tests nothing extra:
    finiteness is tested once after it, and cond(T) only on that failure
    path.  ValueError unless max_iter is a positive integer and gap_tol,
    if given, is positive and finite.
    """
    _check_integer("max_iter", max_iter, 1)
    if gap_tol is not None and not 0.0 < gap_tol < math.inf:
        raise ValueError(f"gap_tol must be positive and finite, got {gap_tol!r}")
    freqs = _check_frequencies(freqs)
    tmat = _check_transfer(tmat)

    (
        (t00, t01, t02, t03),
        (t10, t11, t12, t13),
        (t20, t21, t22, t23),
        (t30, t31, t32, t33),
    ) = tmat.tolist()
    f0, f1, f2, f3 = freqs.tolist()
    floor = _MLE_PROBABILITY_FLOOR
    tol = _RHO_R_TOL
    ntol = -tol
    x = y = z = 0.0
    # previous model probabilities: inf fails the first stopping test
    q0 = q1 = q2 = q3 = math.inf
    floored = 0
    converged = False
    certify = gap_tol is not None
    sqrt = math.sqrt
    # the last iteration that floored a probability: its R is not the
    # state's, so its gap certifies nothing
    floored_at = 0
    tracing = likelihood_trace is not None
    # the trace and the certificate share one flag test per iteration
    extras = tracing or certify
    if tracing:
        append = likelihood_trace.append
        log = math.log
        # (outcome, frequency) pairs that enter the likelihood trace
        live = [(q, fq) for q, fq in enumerate((f0, f1, f2, f3)) if fq > 0.0]
        all_live = len(live) == 4
    try:
        for iteration in range(1, max_iter + 1):
            # p = T s, row by row
            p0 = t00 + t01 * x + t02 * y + t03 * z
            p1 = t10 + t11 * x + t12 * y + t13 * z
            p2 = t20 + t21 * x + t22 * y + t23 * z
            p3 = t30 + t31 * x + t32 * y + t33 * z
            if p0 < floor or p1 < floor or p2 < floor or p3 < floor:
                probs = (p0, p1, p2, p3)
                floored += sum(p < floor for p in probs)
                p0, p1, p2, p3 = (max(p, floor) for p in probs)
                floored_at = iteration
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
            if extras:
                if tracing:
                    if all_live:
                        append(f0 * log(p0) + f1 * log(p1) + f2 * log(p2) + f3 * log(p3))
                    else:
                        probs = (p0, p1, p2, p3)
                        ll = 0.0
                        for q, fq in live:
                            ll += fq * log(probs[q])
                        append(ll)
                # lambda_max(R) - 1 = a + |b| - 1 is the gap of the
                # current state, which is returned without the update
                if certify and a + sqrt(bb) - 1.0 <= gap_tol and floored_at != iteration:
                    converged = True
                    break
            norm = aa + bb + 2.0 * a * bs
            along_b = 2.0 * (a + bs) / norm
            along_s = (aa - bb) / norm
            nx = along_b * bx + along_s * x
            ny = along_b * by + along_s * y
            nz = along_b * bz + along_s * z
            settled = ntol < nx - x < tol and ntol < ny - y < tol and ntol < nz - z < tol
            x, y, z = nx, ny, nz
            if settled or (
                ntol < p0 - q0 < tol
                and ntol < p1 - q1 < tol
                and ntol < p2 - q2 < tol
                and ntol < p3 - q3 < tol
            ):
                converged = True
                break
            q0, q1, q2, q3 = p0, p1, p2, p3
    except ZeroDivisionError:
        x = math.nan  # norm, the trace of R rho R, vanished
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        # a singular T can make R vanish on the data; an invertible T far
        # from any POVM can overflow or underflow the products instead
        require_invertible(tmat)
        raise ValueError(
            f"R-rho-R reached no finite state on transfer matrix {tmat.tolist()}"
        )
    bloch = np.array([1.0, x, y, z])
    if not converged:
        import logging  # loaded on this warning path only

        logging.getLogger(__name__).warning(
            "R-rho-R stopped at the iteration cap (%d) before converging; "
            "frequencies %s, final Bloch vector %s",
            max_iter, freqs.tolist(), bloch.tolist(),
        )
    return MleResult(
        bloch=bloch,
        iterations=iteration,
        converged=converged,
        floored_probabilities=floored,
    )
