"""Numerical identity suite behind ``qtomo check-identities``.

This is the one runtime reader of qtomo._oracles, which supplies the 8x8
register model, the quadrature and the single-meter forms; the two
variance identities are defined here.

Draw, then check.  Every seeded input is drawn before any check runs,
always in the same order, so a check that raises cannot shift the inputs
of the checks after it; each check is then a pure function of its inputs.
Each block of inputs but the five R-rho-R inputs is one array draw, and
the oracles read stacks: the 200 coupling unitaries and the 20 circuit
unitaries are each built and read in one batched call, and the Fisher
matrices of the 40 random cases are one stacked call per reference
model.  Where a check reads production code case by case (the closed-form
transfer rows, the single-meter estimator), it collects the cases' plain
floats into one array instead of an array per case, and the linear
inversion round trip takes each model's T^-1 once.  The three shared
oracles, the 8x8 simulations of the 40 random cases (one stacked
evolution), their Fisher matrices and the five R-rho-R runs, run at
most once: inside the check that first reads them.  A later check reads
the stored result, or, if the oracle raised, fails with an error naming
it without running it again.

Two kinds of oracle value depend on no seed and on no production code,
so they are built at most once per process, on first use: the 8x8
unitaries of the two reference models, and the 16x16 quadrature qTTF
of each transfer matrix the exact-vs-quadrature check reads, kept in a
small cache keyed by the matrix's bytes, so the corrupted control's
matrices get values of their own.  A run therefore reports what a
fresh process reports.  The production side runs on every call: the
models' T, the exact qTTF, the row builders and the estimators.

The R-rho-R reference runs stop at the first state whose certified gap
lambda_max(R) - 1 is at most _REFERENCE_GAP_TOL = 1e-5, or at
_REFERENCE_MAX_ITER = 300 iterations, far short of 1/n convergence for
near-pure inputs.  The exact MLE is checked against them from both
sides: its log-likelihood is not below the reference's, and not above it
by more than lambda_max(R) - 1 at the reference, a certificate that holds
at any iterate.  A reference run stopped at the cap is counted in the
report, not logged, and the report gives the largest certified gap.
"""
from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from . import circuit, twometer
from ._oracles import (
    _qttf_quadrature, circuit_unitary, fisher_matrix_form, joint_unitary,
    kraus_transfer, simulate_meter_process, two_design_average,
)
from .circuit import REFERENCE_OPTIMUM, build_circuit
from .core import (
    SIGMA, _check_integer, bloch_from_state, density_from_bloch, make_quadrature,
    state_from_angles,
)
from .estimators import _check_frequencies, _solve, log_likelihood, rho_r_mle, saturated_mle
from .model import _as_blochs, _live_probabilities, fisher_from_transfer
from .model import qttf_from_transfer, require_invertible
from .single import estimate_sz, fisher_inverse_single, probabilities_single, qttf_single
from .twometer import REFERENCE_COUPLINGS, TwoMeterModel

__all__ = ["identity_suite"]

# Reference rule for the exact-vs-quadrature check, built once: the suite
# runs often and the rule costs as much as the check.
_CHECK_RULE = make_quadrature(16, 16)


@lru_cache(maxsize=1)
def _reference_unitaries() -> tuple[np.ndarray, np.ndarray]:
    """The oracles' 8x8 unitaries of the two reference models, built on
    first use and kept read-only: no seed and no production path reaches
    them."""
    unitaries = (joint_unitary(*REFERENCE_COUPLINGS), circuit_unitary(REFERENCE_OPTIMUM))
    for unitary in unitaries:
        unitary.flags.writeable = False
    return unitaries


# four entries hold both reference models' T, clean and corrupted
@lru_cache(maxsize=4)
def _quadrature_qttf(tmat_bytes: bytes) -> float:
    """_qttf_quadrature(T, _CHECK_RULE) of the 4x4 float T with these
    bytes: each T's value is built once, and a T whose bytes differ, a
    corrupted one, gets its own."""
    return _qttf_quadrature(np.frombuffer(tmat_bytes).reshape(4, 4), _CHECK_RULE)


_PAIRS = 200  # cases in coefficients_vs_trace and in binomial_variance

# The reference runs' stop: a certified gap of 1e-5, with the 300-iteration
# cap as the safety net.  Over seeds 0-199 the 1000 runs take 96 282
# iterations, against 246 918 at the cap alone; 9 of them reach the cap
# (554 at the cap alone), and the largest certified gap stays 1.6e-5, as
# the capped runs are the same iterates.
_REFERENCE_MAX_ITER = 300
_REFERENCE_GAP_TOL = 1e-5


@dataclass(frozen=True)
class _Draws:
    """Every seeded input of one suite run."""

    couplings: np.ndarray  # (200, 2): theta_a, theta_b
    cases: list  # (psi, model index)
    mle_inputs: list  # (model index, multinomial frequencies)
    thetas: list  # two-design couplings
    binomial: list  # (psi, theta)
    circuit_params: np.ndarray  # (20, 12)


def _draw(rng: np.random.Generator, unitaries) -> _Draws:
    """Draw the suite's inputs in their fixed order.

    Each block of inputs is one `rng.uniform` call whose `low` and `high`
    are per-element arrays.  The generator forms element i of a block as
    low_i + (high_i - low_i) u_i from the next double of its stream, as a
    scalar call with those bounds would, so every block holds the bits of
    the scalar draws it replaces, in their order.  The R-rho-R inputs stay
    a loop: each multinomial is sampled from the truthful 8x8 simulation
    of the state drawn before it, so those five simulations run here.
    """

    def random_state():
        return state_from_angles(
            rng.uniform(0.0, math.pi / 2.0), rng.uniform(0.0, math.pi)
        )

    # every tenth pair has theta_C = hypot(theta_A, theta_B) below 1e-6:
    # the sinc term sits at its removable singularity
    near_zero = np.arange(_PAIRS) % 10 == 0
    half_width = np.where(near_zero, 1.0, 3 * math.pi)[:, None]
    couplings = rng.uniform(-half_width, half_width, size=(_PAIRS, 2))
    couplings[near_zero] *= 5e-7
    angles = rng.uniform(0.0, (math.pi / 2.0, math.pi), size=(40, 2)).tolist()
    cases = [(state_from_angles(a1, a2), i % 2) for i, (a1, a2) in enumerate(angles)]
    mle_inputs = []
    for _ in range(5):
        psi = random_state()
        m_idx = int(rng.integers(0, 2))
        sim = _simulate(psi, unitaries[m_idx])
        mle_inputs.append((m_idx, rng.multinomial(1024, sim) / 1024.0))
    thetas = rng.uniform(0.3, math.pi, size=10).tolist()
    triples = rng.uniform((0.0, 0.0, 0.1), (math.pi / 2.0, math.pi, math.pi), size=(_PAIRS, 3))
    binomial = [(state_from_angles(a1, a2), theta) for a1, a2, theta in triples.tolist()]
    circuit_params = rng.uniform(0.0, 2.0 * math.pi, size=(20, 12))
    # the odd rows are the full-angle gates u3(theta, ...) of the draw
    circuit_params[1::2, 0::3] *= 2.0
    return _Draws(couplings, cases, mle_inputs, thetas, binomial, circuit_params)


def _simulate(psi, unitary) -> np.ndarray:
    return simulate_meter_process(density_from_bloch(bloch_from_state(psi)), unitary)


def _densities(blochs: np.ndarray) -> np.ndarray:
    """density_from_bloch of each row of an (n, 4) stack, in one einsum.

    A Pauli entry is 0, +-1 or +-i, so each density entry is at most two
    exact products, and its bits are those of the per-row call.
    """
    return 0.5 * np.einsum("nm,mij->nij", blochs, SIGMA)


def _shared(name: str, compute):
    """compute() at most once: the first read runs it, later reads return
    its result or, if it raised, fail naming it."""
    state = {}

    def read():
        if "error" in state:
            raise ValueError(f"shared oracle '{name}' raised: {state['error']}")
        if "value" not in state:
            try:
                state["value"] = compute()
            except (ValueError, ArithmeticError) as exc:
                state["error"] = exc
                raise
        return state["value"]

    return read


def _record(tol: float, body) -> dict:
    # raises inside a check count as failures, not crashes: the
    # corrupted-matrix control must still produce a report.  A check that
    # raised or measured no finite deviation reports null.
    try:
        deviation = float(body())
    except (ValueError, ArithmeticError) as exc:
        error = str(exc)
    else:
        if math.isfinite(deviation):
            return {"max_deviation": deviation, "tolerance": tol, "pass": bool(deviation <= tol)}
        error = f"deviation is {deviation}"
    return {"max_deviation": None, "tolerance": tol, "pass": False, "error": error}


def _max_gap(a, b) -> float:
    """Largest entry of |a - b| over stacked arrays; a NaN gap propagates."""
    return float(np.max(np.abs(np.subtract(a, b))))


def _stacked_rows(matrices: list) -> np.ndarray:
    """Row builders' 4x4 nested float lists as one (n, 4, 4) array."""
    flat = chain.from_iterable(chain.from_iterable(matrices))
    return np.fromiter(flat, dtype=float, count=16 * len(matrices)).reshape(-1, 4, 4)


def _coefficients_vs_trace(couplings) -> float:
    # closed-form transfer matrices against the Kraus read of the joint
    # unitary, including near-degenerate couplings where theta_C is tiny;
    # the production row builder's floats become one (200, 4, 4) array,
    # and all unitaries come from one stacked eigh and one batched read
    rows = _stacked_rows([twometer._transfer_rows(ta, tb) for ta, tb in couplings.tolist()])
    return _max_gap(rows, kraus_transfer(joint_unitary(*couplings.T)))


def _normalization(sims) -> float:
    return max(float(np.abs(sims.sum(axis=1) - 1.0).max()), -float(sims.min()))


def _fisher_symmetry_psd(fishers) -> float:
    min_eig = float(np.linalg.eigvalsh(fishers).min())
    return max(_max_gap(fishers, fishers.swapaxes(-1, -2)), -min_eig, 0.0)


@contextmanager
def _estimator_records_held_back():
    """Disable the "qtomo.estimators" logger while the block lasts.

    Library callers of rho_r_mle and saturated_mle still get their
    warnings: the logger's own disabled flag comes back when the block
    ends.
    """
    logger = logging.getLogger("qtomo.estimators")
    disabled, logger.disabled = logger.disabled, True
    try:
        yield
    finally:
        logger.disabled = disabled


def _rho_r_runs(inputs) -> list:
    """The R-rho-R reference runs, as (likelihood trace, result) pairs,
    their cap warnings held back.

    The three R-rho-R checks hold for any prefix of iterates, so a run
    stopped at the suite's cap is still a valid reference: the suite
    counts such runs in its report (converged=False) instead of repeating
    it as a warning.
    """
    runs = []
    with _estimator_records_held_back():
        for freqs, tmat in inputs:
            trace_ll = []
            result = rho_r_mle(
                freqs, tmat, max_iter=_REFERENCE_MAX_ITER, gap_tol=_REFERENCE_GAP_TOL,
                likelihood_trace=trace_ll,
            )
            runs.append((trace_ll, result))
    return runs


def _mle_monotone(runs) -> float:
    worst = 0.0
    for trace_ll, _ in runs:
        diffs = np.diff(trace_ll)
        if diffs.size:
            worst = max(worst, float(-diffs.min()))
    return worst


def _mle_physicality(runs) -> float:
    return max(0.0, *(float(np.linalg.norm(r.bloch[1:]) - 1.0) for _, r in runs))


def _gap_bound(freqs, tmat, bloch) -> float:
    """lambda_max(R) - 1 at a state, the certified gap: no state's
    log-likelihood exceeds the one at bloch by more.

    R = sum_q (f_q / p_q) E_q over the outcomes with f_q > 0, and
    E_q = T[q, 0] I + T[q, 1:].sigma, so R = r_0 I + r.sigma with
    r = (f / p) T and lambda_max(R) = r_0 + |r|.  Since log x <= x - 1,
    l(sigma) - l(rho) <= Tr(R sigma) - 1 <= lambda_max(R) - 1 for every
    state sigma (Glancy, Knill and Girard, NJP 14, 095017 (2012)).
    """
    live = freqs > 0.0
    r = (freqs[live] / (tmat[live] @ bloch)) @ tmat[live]
    return float(r[0] + np.linalg.norm(r[1:]) - 1.0)


def _mle_exact_vs_rho_r(inputs, references, bounds) -> float:
    # the exact solver on the R-rho-R runs' data: its log-likelihood lies
    # between R-rho-R's and R-rho-R's plus the certified gap, and an
    # estimate on the sphere is a KKT point g = lambda v with lambda >= 0,
    # measured against sum_q |g_q|, the scale of g's round-off; np.max
    # keeps a NaN term, where the builtin max would drop it.  A solve that
    # ends without its KKT certificate is judged by these terms, so its
    # warning is held back.  A gap bound that is not finite certifies
    # nothing (gap - inf is -inf, which the max would drop), so it fails
    for run, bound in enumerate(bounds):
        if not math.isfinite(bound):
            raise ValueError(f"certified gap bound of reference run {run} is {bound}")
    with _estimator_records_held_back():
        exacts = [saturated_mle(freqs, tmat) for freqs, tmat in inputs]
    terms = [0.0]
    for (freqs, tmat), reference, bound, exact in zip(inputs, references, bounds, exacts):
        gap = (
            log_likelihood(freqs, tmat @ exact.bloch)
            - log_likelihood(freqs, tmat @ reference.bloch)
        )
        terms += [-gap, gap - bound]
        if exact.iterations > 1:
            live = freqs > 0.0
            probs = tmat[live] @ exact.bloch
            grads = (freqs[live] / probs)[:, None] * tmat[live, 1:]
            g = grads.sum(axis=0)
            v = exact.bloch[1:]
            lam = float(g @ v)
            scale = float(np.linalg.norm(grads, axis=1).sum())
            terms += [float(np.linalg.norm(g - lam * v)) / scale, -lam / scale]
    return float(np.max(terms))


def _qttf_exact_vs_quadrature(tmats) -> float:
    # closed-form qTTF against the quadrature average, relative; a
    # singular matrix gives nan (a fail)
    gaps = []
    for tmat in tmats:
        exact = qttf_from_transfer(tmat)
        quadrature = _quadrature_qttf(np.asarray(tmat, dtype=float).tobytes())
        gaps.append(abs(exact - quadrature) / exact)
    return np.max(gaps)


def _circuit_transfer_vs_kraus(circuit_params) -> float:
    # the circuit's transfer matrix from its gates' Bloch vectors, the
    # production row builder's floats as one (20, 4, 4) array, against the
    # Kraus read of its compiled 8x8 unitary: one stacked build, one read
    rows = _stacked_rows([circuit._transfer_rows(p) for p in circuit_params.tolist()])
    return _max_gap(rows, kraus_transfer(circuit_unitary(circuit_params)))


def _roundtrip(sims, models, tmats) -> list:
    """linear_inversion(s, tmats[m]).bloch for each simulated s and its
    model m, with each model's T^-1 taken once, at its first case: the
    frequencies are checked before the inverse, so the first failing case
    raises as the per-case call would."""
    inverses = {}
    blochs = []
    for s, m in zip(sims, models):
        freqs = _check_frequencies(s)
        if m not in inverses:
            inverses[m] = require_invertible(tmats[m])
        blochs.append(_solve(freqs, inverses[m]).bloch)
    return blochs


@dataclass(frozen=True)
class IdentityReport:
    lhs: np.ndarray
    rhs: np.ndarray
    max_abs_diff: float


def estimator_variance_identity(state: np.ndarray, tmat: np.ndarray) -> IdentityReport:
    """Check diag(F^-1) against the single-outcome variance decomposition.

    Column l of the estimate matrix is the linear-inversion output when
    every shot lands in outcome l, so the matrix is the production T^-1
    of model.require_invertible; weighting those columns by the outcome
    probabilities gives per-component variances sigma_j^2, which must
    reproduce the diagonal of the inverted Fisher matrix, the oracle.

    state is one state, a (2,) ket or a (4,) Bloch vector, giving (3,)
    sides, or a real (n, 4) stack of Bloch vectors, giving (n, 3) sides
    from one batched product, Fisher build and inverse; a single state is
    the stack of one.  max_abs_diff is the largest gap over the stack,
    the s_0 component's variance (zero) included.  A vanished outcome
    raises SingularInformationError naming it.
    """
    estimate_mat = require_invertible(tmat)
    blochs = _as_blochs(state)
    stack = np.atleast_2d(blochs)
    probs = _live_probabilities(tmat, stack)
    sbar = (estimate_mat @ probs[:, :, None])[:, :, 0]
    # sigma_j^2 = sum_q p_q (T^-1[j, q] - sbar_j)^2, per member
    sigma2 = np.sum((estimate_mat - sbar[:, :, None]) ** 2 * probs[:, None, :], axis=-1)
    fisher = fisher_from_transfer(tmat, stack)
    rhs = np.diagonal(np.linalg.inv(fisher), axis1=-2, axis2=-1)
    gap = np.abs(sigma2 - np.insert(rhs, 0, 0.0, axis=-1))
    lhs = sigma2[:, 1:]
    if blochs.ndim == 1:
        lhs, rhs = lhs[0], rhs[0]
    return IdentityReport(lhs=lhs, rhs=rhs, max_abs_diff=float(np.max(gap)))


def binomial_variance_identity(psi, theta: float | Sequence[float]) -> IdentityReport:
    """p(1-p)(s_0 - s_1)^2 against F^-1 for the single-component model.

    s_0 and s_1 are the estimates produced when all shots land in one
    outcome; the identity is exact algebra, so the two sides agree to
    round-off.  One state and a float theta give (1,) sides; a sequence
    of n states with a sequence of n couplings gives (n,) sides.  Each
    case calls probabilities_single, estimate_sz and fisher_inverse_single
    itself, so each member carries the bits of its own call, and
    max_abs_diff is the largest gap over the cases.
    """
    cases = [(psi, theta)] if np.ndim(theta) == 0 else zip(psi, theta, strict=True)
    lhs = []
    rhs = []
    for state, coupling in cases:
        p0, p1 = probabilities_single(state, coupling)
        s_zero = estimate_sz(1.0, 0.0, coupling)
        s_one = estimate_sz(0.0, 1.0, coupling)
        lhs.append(p0 * p1 * (s_zero - s_one) ** 2)
        rhs.append(fisher_inverse_single(state, coupling))
    lhs = np.array(lhs)
    rhs = np.array(rhs)
    return IdentityReport(lhs=lhs, rhs=rhs, max_abs_diff=float(np.max(np.abs(lhs - rhs))))


def identity_suite(seed: int = 0, corrupt: bool = False) -> dict:
    """Numerical identity checks on seeded random cases.

    Returns {"checks": {name: {max_deviation, tolerance, pass}}, "all_pass",
    "capped_reference_runs", "reference_gap_bound"}: the number of R-rho-R
    reference runs stopped at the suite's cap, and the largest certified
    gap lambda_max(R) - 1 over those runs, which bounds how far any state's
    log-likelihood can exceed the reference's; both are null if the runs
    raised, and a gap that is not finite is null too.  corrupt=True
    perturbs the transfer matrix used in the model-consistency checks,
    which must make the suite fail (negative control).  ValueError, before
    any draw, unless seed is an integer >= 0 (a numpy integer too; not a
    bool, float or text).
    """
    _check_integer("seed", seed)
    models = (TwoMeterModel(*REFERENCE_COUPLINGS), build_circuit(REFERENCE_OPTIMUM))
    unitaries = _reference_unitaries()
    # the claimed transfer matrices; the simulators stay truthful, so a
    # corrupted claim must show up wherever claim and simulation meet
    tmats = [m.transfer_matrix() for m in models]
    if corrupt:
        tmats = [t + np.full_like(t, 0.01) for t in tmats]
    d = _draw(np.random.default_rng(seed), unitaries)
    case_models = [m_idx for _, m_idx in d.cases]
    case_tmats = [tmats[m_idx] for m_idx in case_models]
    blochs = [bloch_from_state(psi) for psi, _ in d.cases]
    # the cases of each model, as one stack of Bloch vectors
    model_blochs = [
        np.array([b for b, m in zip(blochs, case_models) if m == m_idx])
        for m_idx in range(len(models))
    ]
    mle_inputs = [(freqs, tmats[m_idx]) for m_idx, freqs in d.mle_inputs]

    # one stacked 8x8 evolution, each case with its model's unitary
    sims = _shared(
        "case simulations",
        lambda: simulate_meter_process(
            _densities(np.array(blochs)),
            np.array([unitaries[m] for m in case_models]),
        ),
    )
    runs = _shared("R-rho-R runs", lambda: _rho_r_runs(mle_inputs))
    bounds = _shared(
        "certified gaps",
        lambda: [_gap_bound(f, t, r.bloch) for (f, t), (_, r) in zip(mle_inputs, runs())],
    )
    # one stacked call per reference model: model 0's cases, then model 1's
    fishers = _shared(
        "Fisher matrices",
        lambda: np.concatenate(
            [fisher_from_transfer(t, b) for t, b in zip(tmats, model_blochs)]
        ),
    )

    checks = (
        ("coefficients_vs_trace", 1e-10, lambda: _coefficients_vs_trace(d.couplings)),
        ("unitarity", 1e-12, lambda: _max_gap(
            [u @ u.conj().T for u in unitaries], np.eye(8))),
        ("probability_normalization", 1e-12, lambda: _normalization(sims())),
        ("transfer_vs_simulation", 1e-10, lambda: _max_gap(
            [t @ b for t, b in zip(case_tmats, blochs)], sims())),
        ("fisher_forms", 1e-8, lambda: _max_gap(fishers(), np.concatenate([
            fisher_matrix_form(t, b) for t, b in zip(tmats, model_blochs)]))),
        ("fisher_symmetry_psd", 1e-10, lambda: _fisher_symmetry_psd(fishers())),
        # invert the simulated probabilities with the claimed matrix; any
        # gap between claim and simulation lands in the recovered state
        ("linear_inversion_roundtrip", 1e-10, lambda: _max_gap(
            _roundtrip(sims(), case_models, tmats), blochs)),
        ("mle_likelihood_monotone", 1e-9, lambda: _mle_monotone(runs())),
        ("mle_physicality", 1e-9, lambda: _mle_physicality(runs())),
        ("mle_exact_vs_rho_r", 1e-12, lambda: _mle_exact_vs_rho_r(
            mle_inputs, [r for _, r in runs()], bounds())),
        # the six eigenstates form a 2-design, so their mean error equals
        # the full state-space average
        ("two_design_average", 1e-9, lambda: max(
            abs(two_design_average(t) - qttf_single(t)) for t in d.thetas)),
        # one stacked call: the states, then their couplings
        ("binomial_variance", 1e-12,
         lambda: binomial_variance_identity(*zip(*d.binomial)).max_abs_diff),
        ("estimator_variance", 1e-8, lambda: max(
            estimator_variance_identity(b, t).max_abs_diff
            for b, t in zip(model_blochs, tmats))),
        ("qttf_exact_vs_quadrature", 1e-9, lambda: _qttf_exact_vs_quadrature(tmats)),
        ("circuit_transfer_vs_kraus", 1e-12,
         lambda: _circuit_transfer_vs_kraus(d.circuit_params)),
    )
    report = {name: _record(tol, body) for name, tol, body in checks}
    try:
        capped = sum(not result.converged for _, result in runs())
        gap_bound = float(np.max(bounds()))
    except (ValueError, ArithmeticError):
        capped = gap_bound = None  # the runs raised; their checks report the error
    if gap_bound is not None and not math.isfinite(gap_bound):
        gap_bound = None  # strict JSON has no inf or NaN
    return {
        "checks": report,
        "all_pass": all(entry["pass"] for entry in report.values()),
        "capped_reference_runs": capped,
        "reference_gap_bound": gap_bound,
    }
