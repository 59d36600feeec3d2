"""Linear inversion and iterative maximum likelihood."""
import logging
import math

import numpy as np
import pytest

from qtomo.circuit import REFERENCE_OPTIMUM, build_circuit
from qtomo.core import (
    PAULI_EIGENSTATES,
    bloch_from_state,
    density_from_bloch,
    fidelity,
    state_from_angles,
)
from qtomo.estimators import (
    MleConfig,
    NonInvertibleModelError,
    linear_inversion,
    log_likelihood,
    radial_clip,
    rho_r_mle,
    saturated_mle,
)
from qtomo.harness import _TAG_FULL, _substream
from qtomo.twometer import REFERENCE_COUPLINGS, TwoMeterModel, transfer_matrix

# Pauli basis for the matrix-form oracle, independent of qtomo.core.
_PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
)


def _rho_r_mle_matrix(freqs, tmat, max_iter=10000, tol=1e-10, trace=None):
    """R-rho-R as 2x2 complex matrix products, the form the estimator replaced.

    Returns (rho, bloch, iterations, converged, floored).
    """
    floor = 1e-14
    s = np.array([1.0, 0.0, 0.0, 0.0])
    rho = 0.5 * np.eye(2, dtype=complex)
    prev = None
    floored = 0
    for iteration in range(1, max_iter + 1):
        probs = tmat @ s
        floored += int(np.sum(probs < floor))
        probs = np.maximum(probs, floor)
        if trace is not None:
            live = freqs > 0.0
            trace.append(float(np.sum(freqs[live] * np.log(probs[live]))))
        r = (freqs / probs) @ tmat
        rmat = np.tensordot(r, _PAULI, axes=1)
        new = rmat @ rho @ rmat
        new = 0.5 * (new + new.conj().T)
        new /= np.trace(new).real
        new_s = np.array([np.trace(new @ p).real for p in _PAULI])
        moved = np.max(np.abs(new_s - s))
        rho, s = new, new_s
        if moved < tol or (prev is not None and np.max(np.abs(probs - prev)) < tol):
            return rho, s, iteration, True, floored
        prev = probs
    return rho, s, max_iter, False, floored


def _oracle_cases():
    """(label, freqs, tmat) over both models, three kinds of truth and edges."""
    rng = np.random.default_rng(20)
    tmats = {
        "two-meter": transfer_matrix(*REFERENCE_COUPLINGS),
        "circuit": build_circuit(REFERENCE_OPTIMUM).transfer_matrix(),
    }
    paulis = [
        np.array([1.0, *v]) for v in np.vstack([np.eye(3), -np.eye(3)])
    ]
    cases = []
    for name, tmat in tmats.items():
        for k in range(8):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            for kind, truth in (
                ("pauli", paulis[k % 6]),
                ("pure", np.concatenate([[1.0], direction])),
                ("mixed", np.concatenate([[1.0], rng.uniform() ** (1 / 3) * direction])),
            ):
                probs = np.clip(tmat @ truth, 0.0, None)
                freqs = rng.multinomial(1024, probs / probs.sum()) / 1024.0
                cases.append((f"{name}/{kind}/{k}", freqs, tmat))
    pure = bloch_from_state(state_from_angles(0.9, 1.7))
    cases.append(("cap", tmats["two-meter"] @ pure, tmats["two-meter"]))
    dead = transfer_matrix(0.0, 0.0)
    cases.append(("degenerate/uniform", np.full(4, 0.25), dead))
    cases.append(("degenerate/one", np.array([1.0, 0.0, 0.0, 0.0]), dead))
    return cases


@pytest.fixture(scope="module")
def models():
    return TwoMeterModel(*REFERENCE_COUPLINGS), build_circuit(REFERENCE_OPTIMUM)


def test_linear_inversion_exact_roundtrip(models):
    rng = np.random.default_rng(2)
    for model in models:
        tmat = model.transfer_matrix()
        for _ in range(25):
            bloch = bloch_from_state(
                state_from_angles(rng.uniform(0, math.pi / 2), rng.uniform(0, math.pi))
            )
            result = linear_inversion(tmat @ bloch, tmat)
            np.testing.assert_allclose(result.bloch, bloch, atol=1e-10)
            assert result.physical
            assert result.s0_deviation < 1e-12
            assert math.isfinite(result.condition_number)


def test_linear_inversion_flags_unphysical(models):
    tmat = models[0].transfer_matrix()
    bloch = bloch_from_state(state_from_angles(0.8, 0.5))
    probs = tmat @ bloch
    # push most of the weight onto one outcome; the raw inversion leaves
    # the Bloch ball and must say so rather than project silently
    freqs = 0.2 * probs + 0.8 * np.array([1.0, 0.0, 0.0, 0.0])
    result = linear_inversion(freqs, tmat)
    assert not result.physical
    assert np.linalg.norm(result.bloch[1:]) > 1.0
    assert result.s0_deviation < 1e-9  # frequencies still sum to one


def test_linear_inversion_rejects_singular_model():
    with pytest.raises(NonInvertibleModelError) as err:
        linear_inversion(np.array([1.0, 0.0, 0.0, 0.0]), transfer_matrix(0.0, 0.0))
    assert err.value.condition_number > 1e12


def test_linear_inversion_validates_frequencies(models):
    tmat = models[0].transfer_matrix()
    with pytest.raises(ValueError):
        linear_inversion(np.array([0.5, 0.5, 0.5, 0.5]), tmat)  # sums to 2
    with pytest.raises(ValueError):
        linear_inversion(np.array([1.2, -0.2, 0.0, 0.0]), tmat)
    with pytest.raises(ValueError):
        linear_inversion(np.array([0.5, 0.5]), tmat)


def test_radial_clip():
    inside = np.array([1.0, 0.1, -0.2, 0.3])
    np.testing.assert_allclose(radial_clip(inside), inside)
    outside = np.array([1.0, 1.2, 0.0, 0.9])
    clipped = radial_clip(outside)
    assert np.linalg.norm(clipped[1:]) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(
        clipped[1:] / np.linalg.norm(clipped[1:]),
        outside[1:] / np.linalg.norm(outside[1:]),
        atol=1e-12,
    )


def test_mle_fixed_point_at_degenerate_model():
    # all information dead: uniform counts with the (0, 0) coupling keep
    # the maximally mixed start fixed, detected on the first pass
    tmat = transfer_matrix(0.0, 0.0)
    result = rho_r_mle(np.full(4, 0.25), tmat)
    np.testing.assert_allclose(result.bloch, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert result.iterations == 1
    assert result.converged


def test_mle_interior_state_matches_linear_inversion(models):
    # mixed target: both estimators see exact probabilities and must agree
    bloch = np.array([1.0, 0.3, -0.2, 0.4])
    for model in models:
        tmat = model.transfer_matrix()
        probs = tmat @ bloch
        mle = rho_r_mle(probs, tmat)
        li = linear_inversion(probs, tmat)
        assert mle.converged
        np.testing.assert_allclose(mle.bloch, li.bloch, atol=1e-6)


def test_mle_pure_state_convergence_is_harmonic(models):
    # exact pure-state probabilities drive the iterate to the boundary
    # only as 1/n; at the default cap the state is close but the
    # convergence flag honestly reports the cap was hit
    psi = state_from_angles(0.9, 1.7)
    bloch = bloch_from_state(psi)
    tmat = models[0].transfer_matrix()
    result = rho_r_mle(tmat @ bloch, tmat)
    assert not result.converged
    assert result.iterations == MleConfig().max_iter
    fid = fidelity(density_from_bloch(bloch), result.rho)
    assert fid > 1.0 - 2e-4


def test_mle_likelihood_monotone_on_sampled_counts(models):
    rng = np.random.default_rng(17)
    for model in models:
        tmat = model.transfer_matrix()
        bloch = bloch_from_state(state_from_angles(0.6, 2.8))
        freqs = rng.multinomial(1024, tmat @ bloch) / 1024.0
        trace = []
        result = rho_r_mle(freqs, tmat, likelihood_trace=trace)
        diffs = np.diff(trace)
        assert diffs.min() > -1e-10
        assert np.linalg.norm(result.bloch[1:]) <= 1.0 + 1e-9
        # the end point beats the linear-inversion log-likelihood or ties it
        li = linear_inversion(freqs, tmat)
        if li.physical:
            assert log_likelihood(freqs, tmat @ result.bloch) >= (
                log_likelihood(freqs, tmat @ li.bloch) - 1e-9
            )


def test_mle_count_floor_reporting(models):
    # the (0, 0) model puts all weight on outcome ++, so the three dead
    # outcomes are floored once and the first step is already the fixed point
    tmat = transfer_matrix(0.0, 0.0)
    result = rho_r_mle(np.array([1.0, 0.0, 0.0, 0.0]), tmat)
    assert result.floored_probabilities == 3
    assert result.converged is True


def test_mle_config_validation():
    with pytest.raises(ValueError):
        MleConfig(max_iter=0)
    with pytest.raises(ValueError):
        MleConfig(tol=-1e-9)
    cfg = MleConfig(max_iter=50, tol=1e-6)
    tmat = transfer_matrix(*REFERENCE_COUPLINGS)
    result = rho_r_mle(np.full(4, 0.25), tmat, cfg)
    assert result.iterations <= 50


def test_log_likelihood_drops_zero_frequency_terms():
    freqs = np.array([0.5, 0.5, 0.0, 0.0])
    probs = np.array([0.4, 0.4, 0.1, 0.1])
    expected = 0.5 * math.log(0.4) + 0.5 * math.log(0.4)
    assert log_likelihood(freqs, probs) == pytest.approx(expected, abs=1e-14)
    # zero model probability on a dead outcome must not poison the sum
    probs = np.array([0.5, 0.5, 0.0, 0.0])
    assert math.isfinite(log_likelihood(freqs, probs))


def test_mle_matches_matrix_form_oracle():
    capped = 0
    for label, freqs, tmat in _oracle_cases():
        trace, oracle_trace = [], []
        result = rho_r_mle(freqs, tmat, likelihood_trace=trace)
        rho, bloch, iterations, converged, floored = _rho_r_mle_matrix(
            freqs, tmat, trace=oracle_trace
        )
        assert result.iterations == iterations, label
        assert result.converged == converged, label
        assert result.floored_probabilities == floored, label
        np.testing.assert_allclose(result.bloch, bloch, rtol=0, atol=1e-12, err_msg=label)
        np.testing.assert_allclose(result.rho, rho, rtol=0, atol=1e-12, err_msg=label)
        np.testing.assert_allclose(trace, oracle_trace, rtol=0, atol=1e-12, err_msg=label)
        capped += not converged
    assert capped >= 1  # the exact pure-state case runs to the cap


@pytest.mark.parametrize(
    "tmat",
    [
        transfer_matrix(*REFERENCE_COUPLINGS)[:3],
        np.where(np.eye(4, dtype=bool), np.nan, transfer_matrix(*REFERENCE_COUPLINGS)),
        transfer_matrix(*REFERENCE_COUPLINGS).astype(complex),
    ],
    ids=["3x4", "nan", "complex"],
)
def test_mle_rejects_bad_transfer_matrix(tmat):
    with pytest.raises(ValueError, match="finite real 4x4"):
        rho_r_mle(np.full(4, 0.25), tmat)


def test_mle_warns_once_when_capped(models, caplog):
    tmat = models[0].transfer_matrix()
    pure = bloch_from_state(state_from_angles(0.9, 1.7))
    with caplog.at_level(logging.WARNING, logger="qtomo.estimators"):
        result = rho_r_mle(tmat @ pure, tmat, MleConfig(max_iter=200))
    assert not result.converged
    records = [r for r in caplog.records if r.name == "qtomo.estimators"]
    assert len(records) == 1
    assert records[0].levelno == logging.WARNING
    assert "200" in records[0].getMessage()

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="qtomo.estimators"):
        result = rho_r_mle(tmat @ np.array([1.0, 0.3, -0.2, 0.4]), tmat)
    assert result.converged
    assert not [r for r in caplog.records if r.name == "qtomo.estimators"]


def test_likelihood_trace_matches_log_likelihood(models):
    # the trace is summed in plain floats; at every visited state it must
    # agree with log_likelihood, dead outcomes included
    tmat = models[1].transfer_matrix()
    for freqs in (np.array([0.4, 0.3, 0.2, 0.1]), np.array([0.5, 0.0, 0.5, 0.0])):
        trace = []
        rho_r_mle(freqs, tmat, MleConfig(max_iter=30), likelihood_trace=trace)
        visited = [np.array([1.0, 0.0, 0.0, 0.0])] + [
            rho_r_mle(freqs, tmat, MleConfig(max_iter=k)).bloch
            for k in range(1, len(trace))
        ]
        for ll, bloch in zip(trace, visited):
            assert ll == pytest.approx(log_likelihood(freqs, tmat @ bloch), rel=1e-14)


# ---- exact saturated-model MLE -------------------------------------------


def _kkt(freqs, tmat, bloch):
    """(|g - lambda v|, lambda, |g|, sum_q |g_q|) at a Bloch vector, from scratch."""
    live = freqs > 0.0
    terms = (freqs[live] / (tmat[live] @ bloch))[:, None] * tmat[live, 1:]
    g = terms.sum(axis=0)
    v = bloch[1:]
    lam = float(g @ v)
    return (
        float(np.linalg.norm(g - lam * v)),
        lam,
        float(np.linalg.norm(g)),
        float(np.linalg.norm(terms, axis=1).sum()),
    )


def _assert_sphere_optimum(freqs, tmat, result, label=""):
    # a KKT point with lambda >= 0 on the sphere is the global maximum;
    # the residual bound allows for the round-off of g, a few ulps of
    # sum_q |g_q| however small g itself is
    assert result.converged, label
    assert result.iterations > 1, label
    assert np.linalg.norm(result.bloch[1:]) == pytest.approx(1.0, abs=1e-12), label
    residual, lam, norm_g, scale = _kkt(freqs, tmat, result.bloch)
    assert residual <= 1e-9 * norm_g + 1e-15 * scale, label
    assert lam >= 0.0, label


def test_saturated_mle_interior_is_linear_inversion(models):
    for model in models:
        tmat = model.transfer_matrix()
        freqs = tmat @ np.array([1.0, 0.3, -0.2, 0.4]) + np.array(
            [0.004, -0.003, 0.001, -0.002]
        )
        result = saturated_mle(freqs, tmat)
        li = linear_inversion(freqs, tmat)
        assert li.physical
        assert result.converged and result.iterations == 1
        assert result.floored_probabilities == 0
        np.testing.assert_array_equal(result.bloch, li.bloch)
        np.testing.assert_allclose(tmat @ result.bloch, freqs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            result.rho, density_from_bloch(result.bloch), rtol=0, atol=0
        )


def test_saturated_mle_rejects_singular_model():
    with pytest.raises(NonInvertibleModelError):
        saturated_mle(np.array([1.0, 0.0, 0.0, 0.0]), transfer_matrix(0.0, 0.0))


@pytest.mark.parametrize(
    "counts",
    [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (3, 7, 0, 0), (0, 5, 0, 5)],
)
def test_saturated_mle_few_live_outcomes_reach_the_sphere(models, counts):
    freqs = np.asarray(counts, dtype=float) / sum(counts)
    for model in models:
        tmat = model.transfer_matrix()
        assert not linear_inversion(freqs, tmat).physical
        result = saturated_mle(freqs, tmat)
        _assert_sphere_optimum(freqs, tmat, result, str(counts))
        assert log_likelihood(freqs, tmat @ result.bloch) >= log_likelihood(
            freqs, tmat @ rho_r_mle(freqs, tmat).bloch
        ) - 1e-12


def test_saturated_mle_recovers_the_pure_state_that_caps_rho_r(models):
    # the exact pure-state probabilities R-rho-R approaches only as 1/n
    tmat = models[0].transfer_matrix()
    pure = bloch_from_state(state_from_angles(0.9, 1.7))
    freqs = tmat @ pure
    result = saturated_mle(freqs, tmat)
    assert result.converged
    np.testing.assert_allclose(result.bloch, pure, rtol=0, atol=1e-12)
    capped = rho_r_mle(freqs, tmat)
    assert not capped.converged
    assert log_likelihood(freqs, tmat @ result.bloch) >= log_likelihood(
        freqs, tmat @ capped.bloch
    )


def test_saturated_mle_beats_rho_r_on_table_data():
    # the table-2/3 sampling streams (seeds 1-5, six Pauli states, five
    # repeats of 1024 shots) through both reference models: 300 cases
    tmats = (
        transfer_matrix(*REFERENCE_COUPLINGS),
        build_circuit(REFERENCE_OPTIMUM).transfer_matrix(),
    )
    boundary = 0
    for tmat in tmats:
        for seed in range(1, 6):
            for k, psi in enumerate(PAULI_EIGENSTATES):
                probs = tmat @ bloch_from_state(psi)
                for rep in range(5):
                    rng = _substream(seed, _TAG_FULL, k, rep)
                    freqs = rng.multinomial(1024, probs) / 1024.0
                    label = f"seed {seed} state {k} repeat {rep}"
                    exact = saturated_mle(freqs, tmat)
                    reference = rho_r_mle(freqs, tmat)
                    assert log_likelihood(freqs, tmat @ exact.bloch) >= (
                        log_likelihood(freqs, tmat @ reference.bloch) - 1e-12
                    ), label
                    if exact.iterations > 1:
                        boundary += 1
                        assert exact.iterations <= 8, label
                        _assert_sphere_optimum(freqs, tmat, exact, label)
                    else:
                        assert exact.converged, label
                        np.testing.assert_allclose(
                            tmat @ exact.bloch, freqs, rtol=0, atol=1e-12
                        )
    assert boundary == 166


def _no_povm(kind):
    """A transfer matrix that is no POVM, frequencies, and Newton steps taken."""
    tmat = build_circuit(REFERENCE_OPTIMUM).transfer_matrix()
    if kind == "shifted":
        # T + 0.01: the likelihood peaks inside the ball while the linear
        # inversion lies outside, so the sphere has no KKT point with
        # lambda >= 0, and the steps run to the cap
        freqs = np.array([0.486328125, 0.13671875, 0.10546875, 0.271484375])
        return tmat + 0.01, freqs, 50
    # first column negated: the start already has a negative live
    # probability, so no step is taken
    negated = transfer_matrix(*REFERENCE_COUPLINGS) * np.array([-1.0, 1.0, 1.0, 1.0])
    return negated, np.array([0.7, 0.1, 0.1, 0.1]), 0


@pytest.mark.parametrize("kind", ["shifted", "negated"])
def test_saturated_mle_warns_without_certificate(kind, caplog):
    # the solver must not claim an optimum it cannot certify
    tmat, freqs, steps = _no_povm(kind)
    with caplog.at_level(logging.WARNING, logger="qtomo.estimators"):
        result = saturated_mle(freqs, tmat)
    assert not result.converged
    assert result.iterations == 1 + steps
    assert np.all(np.isfinite(result.bloch))
    assert np.linalg.norm(result.bloch[1:]) == pytest.approx(1.0, abs=1e-12)
    records = [r for r in caplog.records if r.name == "qtomo.estimators"]
    assert len(records) == 1
    message = records[0].getMessage()
    assert message.startswith(f"exact MLE stopped after {steps} Newton steps")
    assert str(freqs.tolist()) in message
    assert str(result.bloch[1:].tolist()) in message
    if kind == "shifted":
        assert _kkt(freqs, tmat, result.bloch)[1] < 0.0
