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
    linear_inversion,
    log_likelihood,
    radial_clip,
    rho_r_mle,
    saturated_mle,
)
from qtomo.harness import _TAG_FULL, _substream, run_full_experiment, variance_vs_fisher_scan
from qtomo.model import (
    CONDITION_LIMIT,
    NonInvertibleModelError,
    _inverse_weights,
    require_invertible,
)
from qtomo.twometer import REFERENCE_COUPLINGS, TwoMeterModel, transfer_matrix
from test_model import EPS, ROUNDOFF, _conditioned_transfers

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


def test_reference_models_are_cleared_without_an_svd(models, monkeypatch):
    # the float LU certifies both reference transfer matrices and its T^-1
    # is the one every estimate uses: neither estimator, the check itself
    # nor the variance scan's model branch pays for np.linalg.cond, none
    # of them inverts T through LAPACK, and none calls np.linalg.solve at
    # all (saturated_mle's Newton steps solve their KKT systems in floats)
    calls = []
    cond, inv = np.linalg.cond, np.linalg.inv
    tmats = [model.transfer_matrix() for model in models]

    def counting(tmat):
        calls.append(tmat)
        return cond(tmat)

    def refuse_inv_on_t(a, *args, **kwargs):
        if any(np.array_equal(a, tmat) for tmat in tmats):
            raise AssertionError("np.linalg.inv called on T")
        return inv(a, *args, **kwargs)

    def refuse_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "cond", counting)
    monkeypatch.setattr(np.linalg, "solve", refuse_solve)
    monkeypatch.setattr(np.linalg, "inv", refuse_inv_on_t)
    for model, tmat in zip(models, tmats):
        in_ball = 0
        for freqs in np.random.default_rng(4).dirichlet(np.ones(4), size=30):
            linear_inversion(freqs, tmat)
            in_ball += saturated_mle(freqs, tmat).iterations == 1
        # both branches of saturated_mle ran: inside the ball and on the sphere
        assert 0 < in_ball < 30
        assert require_invertible(tmat).shape == (4, 4)
        variance_vs_fisher_scan(model, shot_grid=(1000,), trials=200, seed=0)
    assert calls == []


def test_require_invertible_refuses_exactly_where_cond_reaches_the_limit():
    # both sides of the limit and of the LU certificate's threshold; the
    # error carries the SVD's condition number, and where T passes, the
    # returned T^-1 and linear inversion agree with LAPACK to round-off
    routes = {"lu": 0, "svd": 0, "refused": 0}
    for tmat, _ in _conditioned_transfers():
        cond = float(np.linalg.cond(tmat))
        if cond < CONDITION_LIMIT:
            allowed = ROUNDOFF * cond * EPS
            reference = np.linalg.inv(tmat)
            inverse = require_invertible(tmat)
            assert inverse.shape == (4, 4)
            assert np.max(np.abs(inverse - reference)) <= allowed * np.max(np.abs(reference))
            # s = T^-1 f carries allowed * |s| of error; normalizing by s0
            # scales it to allowed * |b| (1 + |b|) for b = s / s0
            freqs = np.full(4, 0.25)
            solved = np.linalg.solve(tmat, freqs)
            expected = solved / solved[0]
            scale = np.linalg.norm(expected) * (1.0 + np.linalg.norm(expected))
            bloch = linear_inversion(freqs, tmat).bloch
            assert np.linalg.norm(bloch - expected) <= allowed * scale
            cleared = _inverse_weights(tmat.tolist()) is not None
            routes["lu" if cleared else "svd"] += 1
            continue
        routes["refused"] += 1
        with pytest.raises(NonInvertibleModelError) as err:
            require_invertible(tmat)
        assert err.value.condition_number == cond
    assert min(routes.values()) >= 10, routes


def _fixed_order_product(inverse, freqs):
    """T^-1 f as ((r0 f0 + r1 f1) + r2 f2) + r3 f3 over each row r of T^-1."""
    f0, f1, f2, f3 = np.asarray(freqs, dtype=float).tolist()
    return np.array([r0 * f0 + r1 * f1 + r2 * f2 + r3 * f3 for r0, r1, r2, r3 in inverse.tolist()])


def _linear_inversion_numpy(freqs, tmat):
    """Linear inversion with numpy's normalization and norm, the form the
    float arithmetic replaced, on the fixed-order product:
    (bloch, physical, s0_deviation)."""
    s = _fixed_order_product(require_invertible(tmat), freqs)
    s0_deviation = abs(s[0] - 1.0)
    s = s / s[0]
    return s, float(np.linalg.norm(s[1:])) <= 1.0 + 1e-9, s0_deviation


def test_linear_inversion_is_the_numpy_form_bit_for_bit(models):
    # the table-2 and table-3 sampling streams at seeds 0-59, on both
    # reference models: the float normalization, s0_deviation and radius
    # give numpy's bits and verdicts on the fixed-order product, which
    # numpy's BLAS product matches to within 4 eps sum_q |r_q f_q| per row
    # r of T^-1, the sum of the two four-term dot products' rounding
    # bounds (Higham, Accuracy and Stability, sec. 3.1); the largest gap
    # seen under the SkylakeX, Haswell and Nehalem kernels is 1.2 eps
    outside = 0
    for model in models:
        tmat = model.transfer_matrix()
        inverse = require_invertible(tmat)
        for seed in range(60):
            for k, psi in enumerate(PAULI_EIGENSTATES):
                probs = tmat @ bloch_from_state(psi)
                for rep in range(5):
                    freqs = _substream(seed, _TAG_FULL, k, rep).multinomial(1024, probs) / 1024
                    gap = np.abs(inverse @ freqs - _fixed_order_product(inverse, freqs))
                    bound = 4.0 * EPS * np.abs(inverse * freqs).sum(axis=1)
                    assert np.all(gap <= bound), (seed, k, rep)
                    result = linear_inversion(freqs, tmat)
                    bloch, physical, s0_deviation = _linear_inversion_numpy(freqs, tmat)
                    assert [v.hex() for v in result.bloch.tolist()] == [
                        v.hex() for v in bloch.tolist()
                    ], (seed, k, rep)
                    assert result.physical is physical
                    assert result.s0_deviation.hex() == float(s0_deviation).hex()
                    outside += not physical
    # both verdicts occur
    assert 0 < outside < 2 * 60 * 6 * 5


def test_linear_inversion_refuses_a_zero_s0():
    # T = I is no POVM: T^-1 f has s0 = f_0, which is 0 here, where numpy
    # gave a NaN and infinite Bloch vector
    for estimator in (linear_inversion, saturated_mle):
        with pytest.raises(ValueError, match="s0 = 0"):
            estimator(np.array([0.0, 0.5, 0.25, 0.25]), np.eye(4))


def test_linear_inversion_validates_frequencies(models):
    tmat = models[0].transfer_matrix()
    with pytest.raises(ValueError):
        linear_inversion(np.array([0.5, 0.5, 0.5, 0.5]), tmat)  # sums to 2
    with pytest.raises(ValueError):
        linear_inversion(np.array([1.2, -0.2, 0.0, 0.0]), tmat)
    with pytest.raises(ValueError):
        linear_inversion(np.array([0.5, 0.5]), tmat)


@pytest.mark.parametrize(
    "estimator", [linear_inversion, saturated_mle, rho_r_mle], ids=lambda f: f.__name__
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_estimators_reject_non_finite_frequencies(models, estimator, value):
    # NaN passes both the sign and the sum test; it gave a NaN estimate
    freqs = np.array([value, 0.5, 0.25, 0.25])
    with pytest.raises(ValueError, match="finite"):
        estimator(freqs, models[0].transfer_matrix())


@pytest.mark.parametrize(
    "estimator", [linear_inversion, saturated_mle, rho_r_mle], ids=lambda f: f.__name__
)
def test_estimators_reject_complex_frequencies(models, estimator):
    # a cast to float dropped the imaginary part with only a ComplexWarning
    with pytest.raises(ValueError, match="real"):
        estimator([0.5 + 0.1j, 0.5, 0.0, 0.0], models[0].transfer_matrix())


@pytest.mark.parametrize(
    "bloch",
    [
        [1.0, math.nan, 0.0, 0.0],
        [1.0, 0.2, math.inf, 0.0],
        [1.0, -math.inf, 0.0, math.inf],
        [math.nan, 0.1, 0.0, 0.0],
        [math.inf, 2.0, 0.0, 0.0],
    ],
    ids=["nan", "inf", "inf-and--inf", "s0-nan-inside", "s0-inf-outside"],
)
def test_radial_clip_refuses_non_finite_input(bloch):
    with pytest.raises(ValueError, match="must be finite"):
        radial_clip(bloch)


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


def test_mle_on_a_singular_model_raises_the_documented_error():
    # every outcome with counts has a zero row in T, so R is zero and the
    # normalization of R rho R vanishes
    with pytest.raises(NonInvertibleModelError):
        rho_r_mle([0.0, 1.0, 0.0, 0.0], transfer_matrix(0.0, 0.0))


def test_mle_never_returns_nan():
    # random T far from any POVM, entries scaled by 10^k with |k| < 200:
    # R-rho-R either ends on a finite state or raises, naming T
    rng = np.random.default_rng(7)
    raised = 0
    for _ in range(300):
        tmat = rng.normal(size=(4, 4)) * 10.0 ** int(rng.integers(-199, 200))
        freqs = rng.dirichlet(np.ones(4))
        try:
            result = rho_r_mle(freqs, tmat, max_iter=200)
        except ValueError as exc:
            assert isinstance(exc, NonInvertibleModelError) or (
                str(tmat.tolist()) in str(exc)
            )
            raised += 1
        else:
            assert np.all(np.isfinite(result.bloch))
    assert raised > 0


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
    assert result.iterations == 10000  # the default cap
    fid = fidelity(density_from_bloch(bloch), density_from_bloch(result.bloch))
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


def test_rho_r_mle_keyword_validation():
    tmat = transfer_matrix(*REFERENCE_COUPLINGS)
    freqs = np.full(4, 0.25)
    # a float cap would fail only later, inside range()
    for bad in (
        {"max_iter": 0},
        {"max_iter": 2.5},
        {"max_iter": 100.0},
        {"max_iter": True},
        {"gap_tol": math.nan},
        {"gap_tol": math.inf},
        {"gap_tol": 0.0},
        {"gap_tol": -1e-5},
    ):
        with pytest.raises(ValueError, match=next(iter(bad))):
            rho_r_mle(freqs, tmat, **bad)
        # the keywords are checked before the frequencies
        with pytest.raises(ValueError, match=next(iter(bad))):
            rho_r_mle([math.nan] * 4, tmat, **bad)
    # a numpy integer is an integer cap; pure-state data reach it
    pure = tmat @ bloch_from_state(state_from_angles(0.9, 1.7))
    assert rho_r_mle(pure, tmat, max_iter=np.int64(7)).iterations == 7
    result = rho_r_mle(freqs, tmat, max_iter=50)
    assert result.iterations <= 50


def _hex_matrix(rows):
    return np.array([[float.fromhex(v) for v in row] for row in rows])


# Transfer matrices of the bit-exact pins, written out so that the pins
# follow the estimator alone: the two reference models and the (1, 0)
# two-meter coupling, whose outcomes 1 and 3 have zero effect.
_PIN_TWO_METER = _hex_matrix([
    ["0x1.3e0136bc693e7p-2", "0x1.02576770e0f1bp-5", "-0x1.69090a4d11a8ap-3",
     "0x1.bc5d05c194894p-3"],
    ["0x1.4b0047d298674p-3", "0x1.5828bb03dafaap-5", "0x1.8646ba8ba8762p-4",
     "0x1.2568259f7a82fp-4"],
    ["0x1.27db9d4161b45p-2", "-0x1.8aefffbd5f05cp-3", "-0x1.5eccb65a3b512p-6",
     "-0x1.5ac1217121c00p-3"],
    ["0x1.e9461031d1b35p-3", "0x1.e89fee4060154p-4", "0x1.a37e87a509af5p-4",
     "-0x1.e89fee4060158p-4"],
])
_PIN_CIRCUIT = _hex_matrix([
    ["0x1.ffc87f99b9228p-3", "-0x1.268fa19b4ceecp-3", "-0x1.28fc86e9765bep-3",
     "0x1.26dc34695a7f5p-3"],
    ["0x1.ffc43856ed4fap-3", "0x1.268fa19b4ceebp-3", "0x1.28fc86e9765bdp-3",
     "0x1.26d9bd6289284p-3"],
    ["0x1.001de41237339p-2", "-0x1.2757bcf251fa9p-3", "0x1.28fc86e9765bcp-3",
     "-0x1.26dc34695a7f3p-3"],
    ["0x1.001bbff575936p-2", "0x1.2757bcf251fa8p-3", "-0x1.28fc86e9765bbp-3",
     "-0x1.26d9bd6289282p-3"],
])
_PIN_DEAD = _hex_matrix([
    ["0x1.c528a03ed41a3p-1", "0x0.0p+0", "0x0.0p+0", "0x1.d6bafe095f2e9p-4"],
    ["0x0.0p+0"] * 4,
    ["0x1.d6bafe095f2e8p-4", "-0x0.0p+0", "-0x0.0p+0", "-0x1.d6bafe095f2e9p-4"],
    ["0x0.0p+0"] * 4,
])

# A reference two-meter T plus seeded normal noise of scale 0.05, so no
# POVM: some live probability turns negative on the sphere, and the Newton
# steps on the pinned counts have to be halved six times.
_PIN_PERTURBED = _hex_matrix([
    ["0x1.672c1ff5ac52dp-2", "-0x1.06adaffa1aefbp-5", "-0x1.c186e3cab011bp-4",
     "0x1.cd27f77027145p-3"],
    ["0x1.27f33088469c1p-3", "0x1.0897f76bcfe34p-3", "0x1.e2024922e4339p-4",
     "0x1.13acfde4f08ffp-3"],
    ["0x1.1644701233ea1p-2", "-0x1.89d985abecd46p-3", "-0x1.df696ed220c3ep-5",
     "-0x1.8246505638a2ap-3"],
    ["0x1.ead0cce83e488p-3", "0x1.4804a508e7722p-5", "0x1.06fb4d2c8af58p-3",
     "-0x1.b97976a3811a0p-4"],
])


@pytest.mark.parametrize(
    "freqs, tmat, max_iter, bloch, iterations, converged, floored, first_ll, last_ll",
    [
        (
            np.array([443, 211, 153, 217]) / 1024, _PIN_TWO_METER, 10000,
            ["0x1.2e18f87691a28p-2", "-0x1.14f1439f4c503p-5", "0x1.f80c92e0e4594p-2"],
            162, True, 0, "-0x1.5ecf124164f96p+0", "-0x1.4d027dc7754ccp+0",
        ),
        (
            np.array([323, 123, 472, 106]) / 1024, _PIN_CIRCUIT, 10000,
            ["-0x1.e16905f420336p-1", "0x1.1182f189ee8c8p-2", "-0x1.b0686875d6022p-3"],
            395, True, 0, "-0x1.62dfe3131b644p+0", "-0x1.35dc1cf83866ep+0",
        ),
        (
            np.array([323, 123, 472, 106]) / 1024, _PIN_TWO_METER, 60,
            ["-0x1.e61ec1ad6b1c1p-1", "-0x1.823ea505bb374p-4", "0x1.760b478756182p-4"],
            60, False, 0, "-0x1.4eeb4ff081b6cp+0", "-0x1.35d6b7458c8c3p+0",
        ),
        (
            np.array([0.7, 0.0, 0.3, 0.0]), _PIN_DEAD, 10000,
            ["0x0.0p+0", "0x0.0p+0", "-0x1.ffffffe52ec46p-1"],
            97, True, 194, "-0x1.78109c7faa14cp-1", "-0x1.3f722c6175998p-1",
        ),
    ],
    ids=["two-meter", "circuit", "capped", "floored-dead-outcome"],
)
def test_rho_r_mle_bit_exact_pins(
    freqs, tmat, max_iter, bloch, iterations, converged, floored, first_ll, last_ll
):
    # R-rho-R is the reference for the exact MLE: its iterates are pinned to
    # the bit, so a speed-up that reorders a float operation shows up here
    trace = []
    result = rho_r_mle(freqs, tmat, max_iter=max_iter, likelihood_trace=trace)
    assert [v.hex() for v in result.bloch.tolist()] == ["0x1.0000000000000p+0", *bloch]
    assert result.iterations == iterations
    assert result.converged is converged
    assert result.floored_probabilities == floored
    assert len(trace) == iterations
    assert (trace[0].hex(), trace[-1].hex()) == (first_ll, last_ll)


def test_a_floored_step_never_certifies():
    # every step of the dead-outcome pin floors two probabilities, so a gap
    # target that any other step meets leaves its 97 iterations and its
    # bits; the two-meter pin, which floors nothing, stops at once on it
    freqs = np.array([0.7, 0.0, 0.3, 0.0])
    plain = rho_r_mle(freqs, _PIN_DEAD)
    loose = rho_r_mle(freqs, _PIN_DEAD, gap_tol=1e300)
    assert loose.iterations == plain.iterations == 97
    assert loose.floored_probabilities == plain.floored_probabilities == 194
    assert loose.bloch.tobytes() == plain.bloch.tobytes()
    control = rho_r_mle(
        np.array([443, 211, 153, 217]) / 1024, _PIN_TWO_METER, gap_tol=1e300
    )
    assert control.iterations == 1 and control.converged
    assert control.bloch.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_log_likelihood_drops_zero_frequency_terms():
    freqs = np.array([0.5, 0.5, 0.0, 0.0])
    probs = np.array([0.4, 0.4, 0.1, 0.1])
    expected = 0.5 * math.log(0.4) + 0.5 * math.log(0.4)
    assert log_likelihood(freqs, probs) == pytest.approx(expected, abs=1e-14)
    # zero model probability on a dead outcome must not poison the sum
    probs = np.array([0.5, 0.5, 0.0, 0.0])
    assert math.isfinite(log_likelihood(freqs, probs))
    # lists are arrays, and a dead outcome may even carry a negative or
    # NaN model probability
    assert log_likelihood([0.5, 0.5, 0.0, 0.0], [0.4, 0.4, -0.1, math.nan]) == (
        log_likelihood(freqs, np.array([0.4, 0.4, 0.1, 0.1]))
    )


@pytest.mark.parametrize("prob", [-0.1, math.nan, math.inf], ids=["negative", "nan", "inf"])
def test_log_likelihood_names_a_live_outcome_without_a_likelihood(prob):
    # it returned NaN with a RuntimeWarning, and +inf for an infinite p
    with pytest.raises(ValueError, match="outcome 1 has frequency 0.5 but model probability"):
        log_likelihood([0.5, 0.5, 0.0, 0.0], [1.1, prob, 0.0, 0.0])


@pytest.mark.parametrize(
    "freqs, outcome",
    [([math.nan, 0.5, 0.25, 0.25], 0), ([0.5, 0.5, -0.25, 0.25], 2),
     ([0.5, math.inf, 0.0, 0.0], 1)],
    ids=["nan", "negative", "inf"],
)
def test_log_likelihood_names_an_outcome_without_a_frequency(freqs, outcome):
    # a NaN or negative frequency failed the P_q > 0 mask and was read as
    # zero: [nan, .5, .25, .25] gave the likelihood of [0, .5, .25, .25]
    with pytest.raises(ValueError, match=f"outcome {outcome} has frequency {freqs[outcome]}"):
        log_likelihood(freqs, [0.25, 0.25, 0.25, 0.25])


def test_log_likelihood_is_minus_infinity_at_a_zero_live_probability(recwarn):
    assert log_likelihood([0.5, 0.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]) == -math.inf
    assert not recwarn.list


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
        np.testing.assert_allclose(
            density_from_bloch(result.bloch), rho, rtol=0, atol=1e-12, err_msg=label
        )
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_invertibility_check_rejects_non_finite_transfer_matrix(value):
    message = "^transfer matrix must be a finite real 4x4 array$"
    # require_invertible tests finiteness only once the float LU has not
    # cleared T, which no non-finite entry lets it do; the test runs
    # before the SVD of np.linalg.cond, so every entry, a pivot one or
    # not, is refused with the message of the shape and dtype check
    class Model:
        def __init__(self, tmat):
            self.tmat = tmat

        def transfer_matrix(self):
            return self.tmat

    for row in range(4):
        for col in range(4):
            tmat = transfer_matrix(*REFERENCE_COUPLINGS)
            tmat[row, col] = value
            for call in (
                lambda: require_invertible(tmat),
                lambda: linear_inversion(np.full(4, 0.25), tmat),
                lambda: saturated_mle(np.full(4, 0.25), tmat),
                lambda: run_full_experiment(Model(tmat), estimator="mle"),
                lambda: run_full_experiment(Model(tmat), estimator="linear"),
            ):
                with pytest.raises(ValueError, match=message):
                    call()


def test_mle_warns_once_when_capped(models, caplog):
    tmat = models[0].transfer_matrix()
    pure = bloch_from_state(state_from_angles(0.9, 1.7))
    with caplog.at_level(logging.WARNING, logger="qtomo.estimators"):
        result = rho_r_mle(tmat @ pure, tmat, max_iter=200)
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
        rho_r_mle(freqs, tmat, max_iter=30, likelihood_trace=trace)
        visited = [np.array([1.0, 0.0, 0.0, 0.0])] + [
            rho_r_mle(freqs, tmat, max_iter=k).bloch
            for k in range(1, len(trace))
        ]
        for ll, bloch in zip(trace, visited):
            assert ll == pytest.approx(log_likelihood(freqs, tmat @ bloch), rel=1e-14)


def _reference_trace(freqs, tmat, n):
    """The first n likelihood-trace entries by a plain loop over outcomes.

    Entry k is the log-likelihood at the state reached after k iterations,
    read back from a run capped there: p = T s row by row in plain floats,
    floored as R-rho-R floors it, then summed term by term from 0.0.
    """
    rows = tmat.tolist()
    trace = []
    for k in range(n):
        _, x, y, z = (
            rho_r_mle(freqs, tmat, max_iter=k).bloch.tolist()
            if k else (1.0, 0.0, 0.0, 0.0)
        )
        ll = 0.0
        for (t0, t1, t2, t3), fq in zip(rows, freqs.tolist()):
            if fq > 0.0:
                ll += fq * math.log(max(t0 + t1 * x + t2 * y + t3 * z, 1e-14))
        trace.append(ll)
    return trace


@pytest.mark.parametrize(
    "freqs",
    [np.array([443, 211, 153, 217]) / 1024, np.array([443, 0, 153, 428]) / 1024],
    ids=["all-live", "zero-frequency"],
)
def test_likelihood_trace_is_the_plain_loop_to_the_bit(freqs, caplog):
    # all four frequencies nonzero takes the straight-line sum, a zero
    # frequency the general loop; both must add the terms in outcome order
    tmat = transfer_matrix(*REFERENCE_COUPLINGS)
    trace = []
    with caplog.at_level(logging.ERROR, logger="qtomo.estimators"):
        rho_r_mle(freqs, tmat, max_iter=40, likelihood_trace=trace)
        reference = _reference_trace(freqs, tmat, len(trace))
    assert len(trace) == 40
    assert [v.hex() for v in trace] == [v.hex() for v in reference]


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


def test_saturated_mle_rejects_singular_model():
    with pytest.raises(NonInvertibleModelError):
        saturated_mle(np.array([1.0, 0.0, 0.0, 0.0]), transfer_matrix(0.0, 0.0))


_FEW_LIVE_COUNTS = [
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (3, 7, 0, 0), (0, 5, 0, 5)
]


@pytest.mark.parametrize("counts", _FEW_LIVE_COUNTS)
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


def _saturated_mle_numpy(freqs, tmat):
    """The Newton steps on the sphere in numpy, the form the estimator replaced.

    Each step solves the bordered 4x4 KKT system with np.linalg.solve.
    Returns (bloch, iterations, converged).
    """
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
        for steps in range(50 + 1):
            p = a + b @ v
            if p.min() <= 0.0:
                break
            w = f / p
            g = w @ b
            lam = float(g @ v)
            residual = float(np.linalg.norm(g - lam * v))
            scale = float(w @ b_norms)
            if residual <= 1e-15 * scale and lam >= -1e-15 * scale:
                converged = True
                break
            if steps == 50:
                break
            shift = max(lam, residual)
            kkt[:3, :3] = -(b.T * (w / p)) @ b - shift * np.eye(3)
            kkt[:3, 3] = kkt[3, :3] = -v
            step = np.linalg.solve(kkt, np.append(lam * v - g, 0.0))[:3]
            for _ in range(60):
                trial = v + step
                trial /= np.linalg.norm(trial)
                if (a + b @ trial).min() > 0.0:
                    v = trial
                    break
                step *= 0.5
            else:
                break
    return np.concatenate([[1.0], v]), 1 + steps, converged


def _newton_oracle_cases():
    """(label, freqs, tmat): table streams, near-pure samples, few live outcomes."""
    tmats = {
        "two-meter": transfer_matrix(*REFERENCE_COUPLINGS),
        "circuit": build_circuit(REFERENCE_OPTIMUM).transfer_matrix(),
    }
    rng = np.random.default_rng(25)
    for name, tmat in tmats.items():
        # the table-2/3 sampling streams: six Pauli states, five repeats
        for seed in range(1, 41):
            for k, psi in enumerate(PAULI_EIGENSTATES):
                probs = tmat @ bloch_from_state(psi)
                for rep in range(5):
                    freqs = _substream(seed, _TAG_FULL, k, rep).multinomial(1024, probs)
                    yield f"{name} seed {seed} state {k} repeat {rep}", freqs / 1024.0, tmat
        # near-pure states, Bloch radius in [0.95, 1]
        directions = rng.normal(size=(1000, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = rng.uniform(0.95, 1.0, size=(1000, 1))
        blochs = np.hstack([np.ones((1000, 1)), radii * directions])
        for shots in (16, 64, 1024):
            for i, bloch in enumerate(blochs):
                probs = np.clip(tmat @ bloch, 0.0, None)
                freqs = rng.multinomial(shots, probs / probs.sum()) / shots
                yield f"{name} near-pure {i} at {shots} shots", freqs, tmat
        for counts in _FEW_LIVE_COUNTS:
            yield f"{name} counts {counts}", np.array(counts) / sum(counts), tmat


def test_saturated_mle_matches_the_numpy_newton_oracle():
    # the float steps reorder the numpy sums and solve the bordered system
    # by L D L^T instead of LU, so they agree with the oracle to round-off:
    # the same end point, verdict and, give or take one, step count
    sphere = 0
    for label, freqs, tmat in _newton_oracle_cases():
        result = saturated_mle(freqs, tmat)
        bloch, iterations, converged = _saturated_mle_numpy(freqs, tmat)
        assert np.max(np.abs(result.bloch - bloch)) <= 1e-12, label
        assert result.converged is converged, label
        assert abs(result.iterations - iterations) <= 1, label
        sphere += iterations > 1
    assert sphere > 4000


@pytest.mark.parametrize(
    "tmat, counts, bloch, iterations",
    [
        (
            _PIN_TWO_METER, (443, 211, 153, 217),
            ["0x1.2e18f80d07992p-2", "-0x1.14f13f20d3c88p-5", "0x1.f80c933d66ea8p-2"], 1,
        ),
        (
            _PIN_CIRCUIT, (323, 123, 472, 106),
            ["-0x1.e1690638a3d85p-1", "0x1.1182f1d926351p-2", "-0x1.b0686920307cdp-3"], 4,
        ),
        (
            _PIN_TWO_METER, (3, 7, 0, 0),
            ["0x1.600b25bc76a47p-2", "0x1.5ddefa8d0206ep-2", "0x1.bfd6403989b22p-1"], 6,
        ),
        (
            _PIN_PERTURBED, (378, 1, 479, 166),
            ["-0x1.fe5ac33747627p-1", "-0x1.24fc9e65ea0c8p-4", "-0x1.277272a608482p-5"], 9,
        ),
    ],
    ids=["interior", "sphere", "two-live-outcomes", "halved-steps"],
)
def test_saturated_mle_bit_exact_pins(tmat, counts, bloch, iterations):
    # the Newton arithmetic is pinned to the bit, so a change that reorders
    # a float operation of the steps has to say which bits moved
    result = saturated_mle(np.array(counts) / sum(counts), tmat)
    assert [v.hex() for v in result.bloch.tolist()] == ["0x1.0000000000000p+0", *bloch]
    assert result.iterations == iterations
    assert result.converged is True


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
