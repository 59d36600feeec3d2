"""The identity suite's seeded draws and its R-rho-R reference runs."""
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qtomo import circuit, twometer
from qtomo._oracles import circuit_unitary, fisher_matrix_form, joint_unitary
from qtomo.circuit import REFERENCE_OPTIMUM, build_circuit
from qtomo.cli import main
from qtomo.core import bloch_from_state, density_from_bloch, state_from_angles
from qtomo.estimators import (
    MleResult,
    linear_inversion,
    log_likelihood,
    rho_r_mle,
    saturated_mle,
)
from qtomo.identities import (
    _PAIRS,
    _REFERENCE_GAP_TOL,
    _REFERENCE_MAX_ITER,
    _densities,
    _draw,
    _gap_bound,
    _quadrature_qttf,
    _reference_unitaries,
    _roundtrip,
    _simulate,
    _stacked_rows,
    identity_suite,
)
from qtomo.model import fisher_from_transfer
from qtomo.twometer import REFERENCE_COUPLINGS, TwoMeterModel

_SRC = Path(__file__).resolve().parent.parent / "src"

_UNITARIES = (joint_unitary(*REFERENCE_COUPLINGS), circuit_unitary(REFERENCE_OPTIMUM))
_TMATS = (
    TwoMeterModel(*REFERENCE_COUPLINGS).transfer_matrix(),
    build_circuit(REFERENCE_OPTIMUM).transfer_matrix(),
)


def _scalar_draw(rng, unitaries):
    # the suite's draw as one scalar rng.uniform call per number: the
    # reference the block draws must match bit for bit
    def random_state():
        return state_from_angles(
            rng.uniform(0.0, math.pi / 2.0), rng.uniform(0.0, math.pi)
        )

    couplings = []
    for i in range(_PAIRS):
        if i % 10 == 0:
            ta = rng.uniform(-1.0, 1.0) * 5e-7
            tb = rng.uniform(-1.0, 1.0) * 5e-7
        else:
            ta = rng.uniform(-3 * math.pi, 3 * math.pi)
            tb = rng.uniform(-3 * math.pi, 3 * math.pi)
        couplings.append((ta, tb))
    cases = [(random_state(), m_idx) for _ in range(20) for m_idx in (0, 1)]
    mle_inputs = []
    for _ in range(5):
        psi = random_state()
        m_idx = int(rng.integers(0, 2))
        sim = _simulate(psi, unitaries[m_idx])
        mle_inputs.append((m_idx, rng.multinomial(1024, sim) / 1024.0))
    thetas = [rng.uniform(0.3, math.pi) for _ in range(10)]
    binomial = [(random_state(), rng.uniform(0.1, math.pi)) for _ in range(_PAIRS)]
    circuit_params = []
    for i in range(20):
        params = rng.uniform(0.0, 2.0 * math.pi, size=12)
        if i % 2:
            params[0::3] *= 2.0
        circuit_params.append(params)
    return couplings, cases, mle_inputs, thetas, binomial, circuit_params


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _ket_bits(cases) -> list:
    return [(psi.tobytes(), m_idx) for psi, m_idx in cases]


def test_block_draws_are_the_scalar_draws_bit_for_bit():
    for seed in range(30):
        drawn = _draw(np.random.default_rng(seed), _UNITARIES)
        couplings, cases, mle_inputs, thetas, binomial, circuit_params = _scalar_draw(
            np.random.default_rng(seed), _UNITARIES
        )
        assert drawn.couplings.shape == (_PAIRS, 2)
        assert _bits(drawn.couplings) == _bits(couplings), seed
        assert _ket_bits(drawn.cases) == _ket_bits(cases), seed
        assert [(m, f.tobytes()) for m, f in drawn.mle_inputs] == [
            (m, f.tobytes()) for m, f in mle_inputs
        ], seed
        assert _bits(drawn.thetas) == _bits(thetas), seed
        assert [(psi.tobytes(), _bits(t)) for psi, t in drawn.binomial] == [
            (psi.tobytes(), _bits(t)) for psi, t in binomial
        ], seed
        assert drawn.circuit_params.shape == (20, 12)
        assert _bits(drawn.circuit_params) == _bits(circuit_params), seed


def test_stacked_fisher_forms_are_the_per_case_calls():
    # the suite's Fisher oracle is one fisher_from_transfer call per
    # reference model on its (n, 4) stack, and fisher_forms compares it
    # with fisher_matrix_form on the same stack: each member carries the
    # bits of the per-case call on the case's ket
    for seed in range(5):
        cases = _draw(np.random.default_rng(seed), _UNITARIES).cases
        for m_idx, tmat in enumerate(_TMATS):
            kets = [psi for psi, m in cases if m == m_idx]
            stack = np.array([bloch_from_state(psi) for psi in kets])
            oracle = fisher_from_transfer(tmat, stack)
            assembled = fisher_matrix_form(tmat, stack)
            assert oracle.shape == assembled.shape == (len(kets), 3, 3)
            for k, psi in enumerate(kets):
                assert oracle[k].tobytes() == fisher_from_transfer(tmat, psi).tobytes()
                assert assembled[k].tobytes() == fisher_matrix_form(tmat, psi).tobytes()


def test_stacked_case_densities_are_the_per_case_calls():
    # one einsum over the (n, 4) stack gives every case's density to the
    # bit, signed zeros included: the suite's cases, then Bloch vectors
    # with zero, negative and mixed-sign components
    special = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [1.0, -0.0, -0.0, -0.0],
        [1.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, -1.0, 0.0],
        [1.0, 0.0, 0.0, -1.0],
        [1.0, -0.6, 0.0, 0.8],
        [1.0, 0.3, -0.4, -0.5],
        [0.0, 0.0, 0.0, 0.0],
    ])
    stacks = [special]
    for seed in range(5):
        cases = _draw(np.random.default_rng(seed), _UNITARIES).cases
        stacks.append(np.array([bloch_from_state(psi) for psi, _ in cases]))
    for stack in stacks:
        densities = _densities(stack)
        assert densities.shape == (len(stack), 2, 2)
        for bloch, rho in zip(stack, densities):
            assert rho.tobytes() == density_from_bloch(bloch).tobytes()


def test_roundtrip_is_the_per_case_linear_inversion(monkeypatch):
    # the round trip takes each model's T^-1 once and solves every case on
    # it: each Bloch vector is linear_inversion's to the bit, also on the
    # corrupted matrices
    from qtomo import identities

    calls = []

    def checked(sims, models, tmats):
        blochs = _roundtrip(sims, models, tmats)
        for s, m, bloch in zip(sims, models, blochs):
            assert bloch.tobytes() == linear_inversion(s, tmats[m]).bloch.tobytes()
        calls.append(len(blochs))
        return blochs

    monkeypatch.setattr(identities, "_roundtrip", checked)
    for seed in range(3):
        for corrupt in (False, True):
            identity_suite(seed=seed, corrupt=corrupt)
    assert calls == [40] * 6


def test_roundtrip_raises_the_first_failing_case_error():
    # the frequencies of a case are checked before its model's inverse is
    # taken, so the error is the one the per-case calls raise first
    good = _TMATS[0] @ bloch_from_state(state_from_angles(0.4, 1.1))
    bad = np.array([0.5, 0.5, 0.5, -0.5])
    singular = np.zeros((4, 4))
    for sims, tmats in (
        ([bad, good], [singular, _TMATS[1]]),
        ([good, bad], [_TMATS[0], singular]),
        ([good, good], [_TMATS[0], singular]),
        ([good, good, bad], [_TMATS[0], _TMATS[1]]),
    ):
        models = [i % 2 for i in range(len(sims))]
        try:
            for s, m in zip(sims, models):
                linear_inversion(s, tmats[m])
        except ValueError as exc:
            expected = (type(exc), str(exc))
        with pytest.raises(ValueError) as raised:
            _roundtrip(sims, models, tmats)
        assert (type(raised.value), str(raised.value)) == expected


def test_stacked_production_rows_are_the_nested_lists():
    # the row builders' floats stacked with one np.fromiter
    for seed in range(3):
        drawn = _draw(np.random.default_rng(seed), _UNITARIES)
        for rows in (
            [twometer._transfer_rows(ta, tb) for ta, tb in drawn.couplings.tolist()],
            [circuit._transfer_rows(p) for p in drawn.circuit_params.tolist()],
        ):
            assert _stacked_rows(rows).tobytes() == np.array(rows).tobytes()


def _off_by_ulps(function):
    def mutated(*args):
        return function(*args) * (1.0 + 1e-13)

    return mutated


def test_binomial_variance_reads_the_production_single_meter(monkeypatch):
    # the check calls estimate_sz and fisher_inverse_single themselves, so
    # an error of 1e-13 relative in either fails it
    from qtomo import identities
    from qtomo.single import estimate_sz, fisher_inverse_single

    assert identity_suite(seed=0)["checks"]["binomial_variance"]["pass"]
    for name, function in (("estimate_sz", estimate_sz),
                           ("fisher_inverse_single", fisher_inverse_single)):
        with monkeypatch.context() as patch:
            patch.setattr(identities, name, _off_by_ulps(function))
            suite = identity_suite(seed=0)
        assert not suite["checks"]["binomial_variance"]["pass"], name


def test_capped_reference_runs_are_counted_not_logged(caplog):
    # with the certified stop, seed 36 still has one reference run stopped
    # at the suite's cap and seeds 0-9 none: the suite counts them and logs
    # nothing, and library callers still get the warning; a report with no
    # capped run has met the gap target on every run
    with caplog.at_level(logging.WARNING, logger="qtomo"):
        assert identity_suite(seed=36)["capped_reference_runs"] == 1
        for seed in range(10):
            report = identity_suite(seed=seed)
            assert report["capped_reference_runs"] == 0, seed
            assert report["reference_gap_bound"] <= _REFERENCE_GAP_TOL, seed
    assert caplog.records == []
    assert not logging.getLogger("qtomo.estimators").filters
    assert not logging.getLogger("qtomo.estimators").disabled
    tmat = TwoMeterModel(*REFERENCE_COUPLINGS).transfer_matrix()
    with caplog.at_level(logging.WARNING, logger="qtomo.estimators"):
        rho_r_mle(tmat @ np.array([1.0, 0.6, 0.0, 0.8]), tmat, max_iter=5)
    assert len([r for r in caplog.records if "iteration cap" in r.getMessage()]) == 1


def test_uncertified_exact_mle_fails_the_check_not_logged(caplog):
    # on the corrupted T of seed 0 the exact MLE of one input stops after
    # 50 Newton steps without its KKT certificate: the check fails on its
    # KKT terms and the suite logs nothing, and library callers of
    # saturated_mle still get the warning
    with caplog.at_level(logging.WARNING, logger="qtomo"):
        suite = identity_suite(seed=0, corrupt=True)
    assert not suite["checks"]["mle_exact_vs_rho_r"]["pass"]
    assert not caplog.records
    assert not logging.getLogger("qtomo.estimators").filters
    assert not logging.getLogger("qtomo.estimators").disabled
    freqs = np.array([0.4423828125, 0.091796875, 0.220703125, 0.2451171875])
    with caplog.at_level(logging.WARNING, logger="qtomo.estimators"):
        result = saturated_mle(freqs, _TMATS[0] + 0.01)
    assert not result.converged
    assert len([r for r in caplog.records if "KKT certificate" in r.getMessage()]) == 1


def test_raising_reference_runs_report_no_count(monkeypatch):
    from qtomo import identities

    def broken(*args, **kwargs):
        raise ArithmeticError("broken on purpose")

    monkeypatch.setattr(identities, "rho_r_mle", broken)
    suite = identity_suite(seed=0)
    assert suite["capped_reference_runs"] is None
    assert suite["reference_gap_bound"] is None
    assert not suite["all_pass"]
    assert not logging.getLogger("qtomo.estimators").filters
    assert not logging.getLogger("qtomo.estimators").disabled


def test_a_non_finite_gap_bound_is_reported_as_null(monkeypatch):
    # strict JSON has no inf: the suite reports the bound as None
    from qtomo import identities

    monkeypatch.setattr(identities, "_gap_bound", lambda *args: math.inf)
    suite = identity_suite(seed=0)
    assert suite["reference_gap_bound"] is None
    assert suite["capped_reference_runs"] == 0
    # and a bound that is not finite certifies nothing: the check that
    # reads it fails, naming it, since gap - inf would drop out of the max
    check = suite["checks"]["mle_exact_vs_rho_r"]
    assert check["pass"] is False
    assert check["max_deviation"] is None
    assert check["error"] == "certified gap bound of reference run 0 is inf"
    assert suite["all_pass"] is False


def test_a_disabled_estimator_logger_stays_disabled(monkeypatch):
    # the suite restores the flag it found, not a fixed False
    logger = logging.getLogger("qtomo.estimators")
    monkeypatch.setattr(logger, "disabled", True)
    identity_suite(seed=36)
    assert logger.disabled



def _ball_grid(directions=2000, shells=25) -> np.ndarray:
    # Bloch 4-vectors on a Fibonacci sphere of directions scaled to radii
    # in (0, 1], plus the centre
    k = np.arange(directions) + 0.5
    z = 1.0 - 2.0 * k / directions
    ring = np.sqrt(1.0 - z * z)
    azimuth = math.pi * (1.0 + math.sqrt(5.0)) * k
    unit = np.stack([ring * np.cos(azimuth), ring * np.sin(azimuth), z], axis=1)
    radii = np.arange(1, shells + 1) / shells
    points = np.vstack([np.zeros((1, 3)), (radii[:, None, None] * unit).reshape(-1, 3)])
    return np.hstack([np.ones((len(points), 1)), points])


def test_certified_gap_bounds_every_state_and_the_exact_mle():
    # on the suite's own reference inputs, stopped after 1 to 300
    # iterations: no state of a dense grid in the Bloch ball, and not the
    # exact MLE, beats the reference by more than lambda_max(R) - 1, and
    # the exact MLE is never below the reference
    grid = _ball_grid()
    caps = (1, 10, 100, _REFERENCE_MAX_ITER)
    beaten = dict.fromkeys(caps, 0)
    for seed in range(20):
        for m_idx, freqs in _draw(np.random.default_rng(seed), _UNITARIES).mle_inputs:
            tmat = _TMATS[m_idx]
            live = freqs > 0.0
            grid_best = float((np.log(grid @ tmat[live].T) @ freqs[live]).max())
            exact = log_likelihood(freqs, tmat @ saturated_mle(freqs, tmat).bloch)
            for cap in caps:
                reference = rho_r_mle(freqs, tmat, max_iter=cap).bloch
                bound = _gap_bound(freqs, tmat, reference)
                level = log_likelihood(freqs, tmat @ reference)
                assert grid_best - level <= bound + 1e-12, (seed, cap)
                assert -1e-12 <= exact - level <= bound + 1e-12, (seed, cap)
                beaten[cap] += grid_best > level
    # the grid is no vacuous oracle: it beats every one-iteration run
    assert beaten[1] == 100


def test_certificate_stopped_runs_meet_their_target():
    # on the suite's inputs, a reference run that the certified gap stops
    # returns the state before its update, whose gap, recomputed by the
    # suite's own _gap_bound, is at most the target; any other run is the
    # plain step rule's run to the bit
    target = _REFERENCE_GAP_TOL
    stopped = 0
    for seed in range(20):
        for m_idx, freqs in _draw(np.random.default_rng(seed), _UNITARIES).mle_inputs:
            tmat = _TMATS[m_idx]
            result = rho_r_mle(
                freqs, tmat, max_iter=_REFERENCE_MAX_ITER, gap_tol=_REFERENCE_GAP_TOL
            )
            baseline = rho_r_mle(freqs, tmat, max_iter=_REFERENCE_MAX_ITER)
            if (result.iterations, result.bloch.tobytes()) == (
                baseline.iterations, baseline.bloch.tobytes()
            ):
                continue
            stopped += 1
            k = result.iterations
            assert result.converged and 1 < k <= baseline.iterations, (seed, k)
            before = rho_r_mle(freqs, tmat, max_iter=k - 1).bloch
            assert result.bloch.tobytes() == before.tobytes(), (seed, k)
            assert _gap_bound(freqs, tmat, result.bloch) <= target + 1e-15, (seed, k)
    assert stopped > 50


def test_upper_side_catches_an_exact_mle_above_every_state(monkeypatch):
    # at seed 0 linear inversion lies outside the Bloch ball on some
    # reference input, so its log-likelihood exceeds every state's: the
    # lower side alone would pass a solver returning it, the certified
    # gap does not
    from qtomo import identities

    def unphysical(freqs, tmat):
        return MleResult(
            bloch=linear_inversion(freqs, tmat).bloch,
            iterations=1,
            converged=True,
            floored_probabilities=0,
        )

    inputs = _draw(np.random.default_rng(0), _UNITARIES).mle_inputs
    assert any(not linear_inversion(f, _TMATS[m]).physical for m, f in inputs)
    monkeypatch.setattr(identities, "saturated_mle", unphysical)
    checks = identity_suite(seed=0)["checks"]
    assert not checks.pop("mle_exact_vs_rho_r")["pass"]
    assert all(entry["pass"] for entry in checks.values())
    assert main(["check-identities", "--seed", "0"]) == 3


def _fresh_process_report(seed, corrupt):
    # the suite in a new interpreter, which builds every oracle value itself
    code = (
        "import sys; from qtomo.identities import identity_suite; "
        "print(repr(identity_suite(int(sys.argv[1]), corrupt=sys.argv[2] == 'corrupt')))"
    )
    paths = [str(_SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    argv = [sys.executable, "-c", code, str(seed), "corrupt" if corrupt else "clean"]
    return subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout.strip()


@pytest.mark.parametrize("seed", range(3))
def test_kept_oracle_values_give_a_fresh_process_report(seed):
    # clean, corrupt, clean in one process: the corrupted control's
    # matrices get quadrature values of their own, and neither run sees
    # the other's
    fresh = {corrupt: _fresh_process_report(seed, corrupt) for corrupt in (False, True)}
    _reference_unitaries.cache_clear()
    _quadrature_qttf.cache_clear()
    for corrupt in (False, True, False):
        assert repr(identity_suite(seed, corrupt=corrupt)) == fresh[corrupt], corrupt
    # both reference models' T, clean and corrupted, each built once
    assert _reference_unitaries.cache_info().misses == 1
    assert _quadrature_qttf.cache_info()[:2] == (2, 4)  # hits, misses


@pytest.mark.parametrize("seed", [True, 1.5, "3", -1], ids=["bool", "float", "text", "negative"])
def test_identity_suite_refuses_a_seed_before_any_draw(seed, monkeypatch):
    from qtomo import identities

    def no_draw(*args):
        raise AssertionError("drew before checking the seed")

    monkeypatch.setattr(identities, "_draw", no_draw)
    with pytest.raises(ValueError, match=r"^seed must be an integer of at least 0, got "):
        identity_suite(seed)
