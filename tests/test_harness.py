"""Seeded experiments, table reproduction, and variance identities."""
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtomo._oracles import _fisher_inverse_angle_form, two_design_average
from qtomo.circuit import REFERENCE_OPTIMUM, build_circuit
from qtomo.core import PAULI_EIGENSTATES, bloch_from_state, state_from_angles
from qtomo.estimators import linear_inversion, saturated_mle
from qtomo.harness import (
    DEFAULT_SEED,
    _direction_fidelity,
    run_full_experiment,
    run_single_experiment,
    variance_vs_fisher_scan,
)
from qtomo.identities import binomial_variance_identity, estimator_variance_identity
from qtomo.model import MeterModel, NonInvertibleModelError, SingularInformationError
from qtomo.single import (
    NonInformativeCouplingError,
    estimate_sz,
    fisher_inverse_single,
    probabilities_single,
    qttf_single,
)
from qtomo.twometer import REFERENCE_COUPLINGS, TwoMeterModel

TABLE_THETAS = (math.pi / 2, 2 * math.pi / 3, math.pi)


def test_pauli_eigenstate_set_is_the_octahedron():
    states = PAULI_EIGENSTATES
    assert len(states) == 6
    vecs = np.array([bloch_from_state(s)[1:] for s in states])
    # antipodal pairs along each axis
    np.testing.assert_allclose(sorted(np.abs(vecs).sum(axis=1)), np.ones(6), atol=1e-12)
    np.testing.assert_allclose(vecs.sum(axis=0), np.zeros(3), atol=1e-12)


def test_direction_fidelity_properties():
    truth = np.array([1.0, 0.0, 0.0, 1.0])
    aligned = np.array([1.0, 0.0, 0.0, 0.4])  # shrunk but pointing right
    assert _direction_fidelity(truth, aligned) == pytest.approx(1.0, abs=1e-12)
    orthogonal = np.array([1.0, 0.7, 0.0, 0.0])
    assert _direction_fidelity(truth, orthogonal) == pytest.approx(0.5, abs=1e-12)
    opposite = np.array([1.0, 0.0, 0.0, -0.2])
    assert _direction_fidelity(truth, opposite) == pytest.approx(0.0, abs=1e-12)
    assert _direction_fidelity(truth, np.array([1.0, 0.0, 0.0, 0.0])) == 0.5


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_direction_fidelity_refuses_a_non_finite_estimate(value):
    # a NaN norm passed the old norm == 0.0 test, so the fidelity was NaN
    with pytest.raises(ValueError, match="estimated Bloch vector must be finite"):
        _direction_fidelity(np.array([1.0, 0.0, 0.0, 1.0]), np.array([1.0, value, 0.0, 0.5]))


def test_run_single_experiment_deterministic_and_labeled():
    a = run_single_experiment(math.pi / 2, seed=5)
    b = run_single_experiment(math.pi / 2, seed=5)
    for ra, rb in zip(a, b):
        assert ra.mean == rb.mean and ra.std == rb.std
    assert [r.label for r in a] == ["z0", "z1", "x0", "x1", "y0", "y1"]
    with pytest.raises(ValueError):
        run_single_experiment(math.pi / 2, repeats=1)


@pytest.mark.parametrize("shots", [0, -5])
def test_run_single_experiment_rejects_no_shots(shots):
    with pytest.raises(ValueError, match="shots"):
        run_single_experiment(math.pi / 2, shots=shots)


def test_single_experiment_reproduces_reference_rows():
    # 5 x 1024 shots at the three benchmark couplings: every mean lands
    # within 3 sigma of the truth at the shipped seed
    for theta in TABLE_THETAS:
        rows = run_single_experiment(theta, seed=DEFAULT_SEED)
        assert all(r.within_3sigma for r in rows), theta


def test_z0_at_pi_is_noiseless():
    row = run_single_experiment(math.pi, seed=DEFAULT_SEED)[0]
    assert row.label == "z0"
    assert row.mean == 1.0
    assert row.std == 0.0


def test_estimators_recover_pauli_states_from_exact_probabilities():
    # both table estimators on noiseless outcome probabilities, scored as
    # the tables score them
    tmat = TwoMeterModel(*REFERENCE_COUPLINGS).transfer_matrix()
    for psi in PAULI_EIGENSTATES:
        truth = bloch_from_state(psi)
        for estimator in (saturated_mle, linear_inversion):
            bloch = estimator(tmat @ truth, tmat).bloch
            assert _direction_fidelity(truth, bloch) > 1.0 - 1e-6


def test_full_experiment_reproduces_reference_fidelities():
    two_meter = TwoMeterModel(*REFERENCE_COUPLINGS)
    rows = run_full_experiment(two_meter, estimator="mle", seed=DEFAULT_SEED)
    assert min(r.fidelity for r in rows) >= 0.995
    circuit = build_circuit(REFERENCE_OPTIMUM)
    rows = run_full_experiment(circuit, estimator="linear", seed=DEFAULT_SEED)
    assert min(r.fidelity for r in rows) >= 0.995


def test_full_experiment_mle_is_the_exact_solver(monkeypatch):
    # every repeat runs the exact solver's private entry on the one T^-1
    # the table takes, and gets the public call's estimate to the bit
    from qtomo import estimators, harness

    calls = []
    inverses = []

    def spy(freqs, tmat, inverse):
        result = estimators._saturated_mle(freqs, tmat, inverse)
        public = estimators.saturated_mle(freqs, tmat)
        assert result.bloch.tobytes() == public.bloch.tobytes()
        assert result.iterations == public.iterations
        calls.append(freqs)
        return result

    def counted(tmat):
        inverses.append(tmat)
        return estimators.require_invertible(tmat)

    monkeypatch.setattr(harness, "_saturated_mle", spy)
    monkeypatch.setattr(harness, "require_invertible", counted)
    run_full_experiment(TwoMeterModel(*REFERENCE_COUPLINGS), estimator="mle", repeats=2)
    assert len(calls) == 12  # six states, two repeats
    assert len(inverses) == 1


def test_full_experiment_linear_is_linear_inversion():
    # table 3's repeats read the table's one T^-1: each estimate is the
    # public linear_inversion's to the bit, physical flag included
    from qtomo.harness import _substream

    model = build_circuit(REFERENCE_OPTIMUM)
    tmat = model.transfer_matrix()
    rows = run_full_experiment(model, estimator="linear", repeats=3, shots=64, seed=5)
    for k, (psi, row) in enumerate(zip(PAULI_EIGENSTATES, rows)):
        probs = tmat @ bloch_from_state(psi)
        results = [
            linear_inversion(_substream(5, 2, k, rep).multinomial(64, probs) / 64, tmat)
            for rep in range(3)
        ]
        stacked = np.vstack([r.bloch for r in results])
        assert row.mean.tobytes() == stacked.mean(axis=0).tobytes()
        assert row.physical_fraction == np.mean([r.physical for r in results])


def _per_row_single(theta, shots, repeats, seed):
    # the table's per-state reductions, one estimates array, mean and std
    # per state: the reference for the (6, repeats) stack
    from qtomo.harness import _TAG_SINGLE, _substream

    rows = []
    for k, psi in enumerate(PAULI_EIGENSTATES):
        p0, p1 = probabilities_single(psi, theta)
        estimates = np.empty(repeats)
        for rep in range(repeats):
            counts = _substream(seed, _TAG_SINGLE, k, rep).multinomial(shots, [p0, p1])
            estimates[rep] = estimate_sz(counts[0] / shots, counts[1] / shots, theta)
        rows.append((float(estimates.mean()), float(estimates.std(ddof=1))))
    return rows


def _per_row_full(model, estimator, shots, repeats, seed):
    # the per-state np.vstack, mean(axis=0), std(axis=0, ddof=1) and
    # np.mean of the flags: the reference for the (6, repeats, 4) stack
    from qtomo.harness import _TAG_FULL, _substream

    tmat = model.transfer_matrix()
    rows = []
    for k, psi in enumerate(PAULI_EIGENSTATES):
        probs = tmat @ bloch_from_state(psi)
        estimates = []
        physical = []
        for rep in range(repeats):
            freqs = _substream(seed, _TAG_FULL, k, rep).multinomial(shots, probs) / shots
            if estimator == "mle":
                estimates.append(saturated_mle(freqs, tmat).bloch)
                physical.append(True)
            else:
                result = linear_inversion(freqs, tmat)
                estimates.append(result.bloch)
                physical.append(result.physical)
        stacked = np.vstack(estimates)
        rows.append((stacked.mean(axis=0), stacked[:, 1:].std(axis=0, ddof=1),
                     float(np.mean(physical))))
    return rows


@pytest.mark.parametrize("seed", [0, 2**32], ids=["uint32-key", "list-key"])
@pytest.mark.parametrize("shots, repeats", [(1024, 5), (7, 3)])
def test_table_1_couplings_share_each_substream(seed, shots, repeats):
    # one pass over the couplings builds each (state, repeat) substream
    # once and restores its state per coupling: every coupling's rows are
    # those of its own run_single_experiment call, field for field
    from qtomo.cli import _TABLE_1_THETAS, _table_1_rows
    from qtomo.harness import _single_experiments

    tables = _single_experiments(_TABLE_1_THETAS, shots, repeats, seed)
    assert len(tables) == len(_TABLE_1_THETAS)
    for theta, table in zip(_TABLE_1_THETAS, tables):
        own = run_single_experiment(theta, shots=shots, repeats=repeats, seed=seed)
        assert len(table) == len(own) == len(PAULI_EIGENSTATES)
        for row, reference in zip(table, own):
            assert repr(row) == repr(reference)
    # and table 1 is the three per-coupling calls, row for row
    _, rows = _table_1_rows(shots, repeats, seed)
    reference = []
    for theta in _TABLE_1_THETAS:
        for row in run_single_experiment(theta, shots=shots, repeats=repeats, seed=seed):
            reference.append([
                f"{theta:.12g}", row.label, f"{row.truth:.6f}", f"{row.mean:.6f}",
                f"{row.std:.6f}", str(row.within_3sigma).lower(),
            ])
    assert rows == reference


@pytest.mark.parametrize("repeats, shots", [(2, 7), (5, 1024), (9, 64)])
def test_tables_reduce_their_repeats_as_per_row_calls(repeats, shots):
    # each table reduces all its repeats in one call per statistic; every
    # row's mean, std and physical fraction keeps the per-row call's bits
    for seed in range(5):
        for theta in TABLE_THETAS:
            rows = run_single_experiment(theta, shots=shots, repeats=repeats, seed=seed)
            for row, (mean, std) in zip(rows, _per_row_single(theta, shots, repeats, seed)):
                assert (repr(row.mean), repr(row.std)) == (repr(mean), repr(std))
        for model, estimator in (
            (TwoMeterModel(*REFERENCE_COUPLINGS), "mle"),
            (build_circuit(REFERENCE_OPTIMUM), "linear"),
        ):
            rows = run_full_experiment(
                model, estimator=estimator, shots=shots, repeats=repeats, seed=seed
            )
            reference = _per_row_full(model, estimator, shots, repeats, seed)
            for row, (mean, std, fraction) in zip(rows, reference):
                assert row.mean.tobytes() == mean.tobytes()
                assert row.std.tobytes() == std.tobytes()
                assert repr(row.physical_fraction) == repr(fraction)
            # every row owns its arrays: none is a view of a shared stack
            arrays = [a for row in rows for a in (row.truth, row.mean, row.std)]
            for i, a in enumerate(arrays):
                assert a.base is None
                for b in arrays[i + 1:]:
                    assert not np.shares_memory(a, b)


def test_full_experiment_rejects_unknown_estimator():
    with pytest.raises(ValueError):
        run_full_experiment(TwoMeterModel(*REFERENCE_COUPLINGS), estimator="map")


@pytest.mark.parametrize(
    "kwargs", [{"shots": 0}, {"repeats": 1}, {"repeats": 0}],
    ids=["shots0", "repeats1", "repeats0"],
)
def test_full_experiment_rejects_degenerate_sampling(kwargs):
    model = TwoMeterModel(*REFERENCE_COUPLINGS)
    with pytest.raises(ValueError, match="shots|repeats"):
        run_full_experiment(model, estimator="linear", **kwargs)


_EXPERIMENTS = {
    "single": lambda **kw: run_single_experiment(math.pi / 2, **kw),
    "full": lambda **kw: run_full_experiment(
        TwoMeterModel(*REFERENCE_COUPLINGS), estimator="linear", **kw
    ),
}


@pytest.mark.parametrize("kind", sorted(_EXPERIMENTS))
@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"shots": 100.5}, "shots"),
        ({"shots": 100.0}, "shots"),
        ({"shots": math.inf}, "shots"),
        ({"shots": True}, "shots"),
        ({"repeats": 2.5}, "repeats"),
        ({"repeats": math.nan}, "repeats"),
        ({"repeats": True}, "repeats"),
        ({"seed": 1.5}, "seed"),
        ({"seed": -1}, "seed"),
        ({"seed": np.int64(-1)}, "seed"),
        ({"seed": False}, "seed"),
    ],
    ids=["shots100.5", "shots-float", "shots-inf", "shots-bool", "repeats2.5",
         "repeats-nan", "repeats-bool", "seed1.5", "seed-1", "seed-np-1", "seed-bool"],
)
def test_experiments_reject_non_integer_sampling_before_drawing(
    kind, kwargs, name, monkeypatch
):
    # shots=100.5 drew 100 shots and divided by 100.5, seed=1.5 ran as
    # seed 1, repeats=2.5 raised TypeError: each now names its argument
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        _EXPERIMENTS[kind](**kwargs)


@pytest.mark.parametrize("kind", sorted(_EXPERIMENTS))
def test_experiments_accept_numpy_integers(kind):
    plain = _EXPERIMENTS[kind](shots=64, repeats=3, seed=7)
    numpy_ints = _EXPERIMENTS[kind](shots=np.int64(64), repeats=np.int32(3), seed=np.uint8(7))
    assert repr(numpy_ints) == repr(plain)


def test_variance_scan_single_model():
    rows = variance_vs_fisher_scan(theta=math.pi / 2, trials=400, seed=0)
    assert [r.shots for r in rows] == [100, 1000, 10000, 100000]
    assert 0.9 <= rows[-1].ratio <= 1.1
    again = variance_vs_fisher_scan(theta=math.pi / 2, trials=400, seed=0)
    assert rows == list(again) or rows == again  # deterministic


def test_variance_scan_full_model():
    model = TwoMeterModel(*REFERENCE_COUPLINGS)
    rows = variance_vs_fisher_scan(model, trials=400, seed=0)
    assert 0.9 <= rows[-1].ratio <= 1.1
    # no row may beat the bound beyond the statistical allowance; the
    # scan itself raises if that happens, so reaching here is the check
    for row in rows:
        assert row.mean_variance > 0


class _Sampler:
    """A stand-in for a substream's generator: `draw(rng, shots, pvals, size)`
    gives the counts."""

    def __init__(self, rng, draw):
        self.rng, self.draw = rng, draw

    def multinomial(self, shots, pvals, size=None):
        return self.draw(self.rng, shots, np.asarray(pvals), size)


_SCANS = {
    "single": lambda: variance_vs_fisher_scan(theta=math.pi / 2, trials=50, seed=0),
    "model": lambda: variance_vs_fisher_scan(
        TwoMeterModel(*REFERENCE_COUPLINGS), trials=50, seed=0
    ),
}


@pytest.mark.parametrize("kind", sorted(_SCANS))
@pytest.mark.parametrize(
    "draw, message",
    [
        # every trial lands the expected counts: no variance at all
        (lambda rng, shots, p, size: np.broadcast_to(shots * p, (size, p.size)),
         "beats the Cramer-Rao bound at N=100: ratio 0.0000"),
        # half the shots, each counted twice: twice the variance
        (lambda rng, shots, p, size: 2 * rng.multinomial(shots // 2, p, size=size),
         "at N=100000 is not within 10% of 1"),
    ],
    ids=["no-variance", "twice-the-variance"],
)
def test_variance_scan_raises_on_a_ratio_off_the_bound(kind, draw, message, monkeypatch):
    from qtomo import harness

    substream = harness._substream
    monkeypatch.setattr(
        harness, "_substream", lambda *key: _Sampler(substream(*key), draw)
    )
    with pytest.raises(RuntimeError, match=message):
        _SCANS[kind]()


def _solve_scan(model=None, theta=None, seed=0):
    # the scan's rows with one LU solve and one .var per (state, N): the
    # reference for the product-and-centered-sum form
    from qtomo.harness import _TAG_SCAN, _substream
    from qtomo.model import fisher_from_transfer

    rows = []
    for n_idx, shots in enumerate((100, 1000, 10000, 100000)):
        variances, bounds = [], []
        for k, psi in enumerate(PAULI_EIGENSTATES):
            rng = _substream(seed, _TAG_SCAN, k, n_idx)
            if theta is not None:
                s2 = math.sin(theta / 2.0) ** 2
                offset = math.cos(theta / 2.0) ** 2
                counts = rng.multinomial(shots, probabilities_single(psi, theta), size=1000)
                ests = (2.0 * (counts[:, 0] / shots) - 1.0 - offset) / s2
                variances.append(float(np.var(ests, ddof=1)))
                bounds.append(fisher_inverse_single(psi, theta) / shots)
            else:
                tmat = model.transfer_matrix()
                truth = bloch_from_state(psi)
                fisher = fisher_from_transfer(tmat, truth)
                freqs = rng.multinomial(shots, tmat @ truth, size=1000) / shots
                ests = np.linalg.solve(tmat, freqs.T).T
                variances.append(float(ests[:, 1:].var(axis=0, ddof=1).sum()))
                bounds.append(float(np.trace(np.linalg.inv(fisher))) / shots)
        rows.append((shots, float(np.mean(variances)), float(np.mean(bounds))))
    return rows


@pytest.mark.parametrize("seed", range(5))
def test_variance_scan_matches_the_solve_form(seed):
    models = (TwoMeterModel(*REFERENCE_COUPLINGS), build_circuit(REFERENCE_OPTIMUM))
    for model in models:
        rows = variance_vs_fisher_scan(model, seed=seed)
        for row, (shots, variance, bound) in zip(rows, _solve_scan(model, seed=seed)):
            assert row.shots == shots
            assert row.mean_variance == pytest.approx(variance, rel=1e-12, abs=0)
            assert row.mean_bound == pytest.approx(bound, rel=1e-12, abs=0)
            assert row.ratio == pytest.approx(variance / bound, rel=1e-12, abs=0)
    # the single meter's estimates come from its two outcome columns and a
    # centered sum of squares: round-off apart from the closed form and .var
    rows = variance_vs_fisher_scan(theta=2.0, seed=seed)
    for row, (shots, variance, bound) in zip(rows, _solve_scan(theta=2.0, seed=seed)):
        assert row.shots == shots
        assert row.mean_variance == pytest.approx(variance, rel=1e-12, abs=0)
        assert row.mean_bound == bound
        assert row.ratio == pytest.approx(variance / bound, rel=1e-12, abs=0)


def _serial_scan(model=None, theta=None, seed=0):
    # the scan's serial sampling loop, drawing the (shot count, state) grid
    # in order on one thread: the reference for the two-thread draws
    from qtomo.harness import _TAG_SCAN, ScanRow, _substream
    from qtomo.model import _live_probabilities, delta_from_transfer, require_invertible

    trials = 1000
    if theta is not None:
        columns = np.array([[estimate_sz(1.0, 0.0, theta)],
                            [estimate_sz(0.0, 1.0, theta)]])
        states = [
            (probabilities_single(psi, theta), fisher_inverse_single(psi, theta))
            for psi in PAULI_EIGENSTATES
        ]
    else:
        tmat = model.transfer_matrix()
        states = []
        for psi in PAULI_EIGENSTATES:
            truth = bloch_from_state(psi)
            probs = _live_probabilities(tmat, truth)
            states.append((probs, delta_from_transfer(tmat, truth)))
        columns = require_invertible(tmat)[1:].T
    ones = np.ones(trials)
    rows = []
    for n_idx, shots in enumerate((100, 1000, 10000, 100000)):
        variances = []
        bounds = []
        scaled = columns / shots
        for k, (probs, fisher_inverse) in enumerate(states):
            rng = _substream(seed, _TAG_SCAN, k, n_idx)
            ests = rng.multinomial(shots, probs, size=trials) @ scaled
            centered = (ests - ones @ ests / trials).ravel()
            variances.append(float(centered @ centered) / (trials - 1))
            bounds.append(fisher_inverse / shots)
        mean_var = float(np.mean(variances))
        mean_bound = float(np.mean(bounds))
        rows.append(ScanRow(shots=shots, mean_variance=mean_var,
                            mean_bound=mean_bound, ratio=mean_var / mean_bound))
    return tuple(rows)


@pytest.mark.parametrize("switch_interval", [None, 1e-6], ids=["default", "1us"])
def test_variance_scan_threads_match_the_serial_loop(switch_interval):
    # every row bit for bit, also when the interpreter switches threads
    # about every bytecode
    previous = sys.getswitchinterval()
    try:
        if switch_interval is not None:
            sys.setswitchinterval(switch_interval)
        for kind in sorted(_SCAN_ARGS):
            for seed in range(5):
                rows = variance_vs_fisher_scan(**_SCAN_ARGS[kind], seed=seed)
                assert rows == _serial_scan(**_SCAN_ARGS[kind], seed=seed)
    finally:
        sys.setswitchinterval(previous)


@pytest.mark.parametrize(
    "key",
    [(0, 0), (1, 0), (0, 2), (5, 3)],
    ids=["first", "second", "middle", "last"],
)
def test_variance_scan_raises_a_draw_error_and_joins_its_thread(key, monkeypatch):
    # draw (k, n_idx) is slot 6 * n_idx + k: in the model scan both threads
    # take slots from one queue, so either may draw the failing one; the
    # single-meter scan draws every slot on the calling thread
    from qtomo import harness

    substream = harness._substream

    for kind in sorted(_SCAN_ARGS):
        raised_on = []

        def failing_substream(seed, tag, k, n_idx):
            if (k, n_idx) == key:
                raised_on.append(threading.current_thread())
                raise KeyError(key)
            return substream(seed, tag, k, n_idx)

        monkeypatch.setattr(harness, "_substream", failing_substream)
        before = threading.active_count()
        with pytest.raises(KeyError):
            variance_vs_fisher_scan(**_SCAN_ARGS[kind], trials=10, seed=2)
        # the slot was drawn once, by one thread, and no thread outlives the call
        assert len(raised_on) == 1
        assert threading.active_count() == before
        if kind == "single":
            assert raised_on[0] is threading.current_thread()


@pytest.mark.parametrize("kind, threads", [("single", 0), ("two-meter", 1)])
def test_only_the_model_scan_starts_a_thread(kind, threads, monkeypatch):
    # the single meter's two-outcome draws are too short to pay for a thread
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    variance_vs_fisher_scan(**_SCAN_ARGS[kind], trials=10, seed=2)
    assert len(started) == threads


@pytest.mark.parametrize("seed", [0, 1, 2**31, 2**32 - 1, 2**32, 2**40])
def test_substream_is_the_list_key_stream(seed):
    # a uint32 key where every word fits, numpy's list path beyond: the
    # draws are those of default_rng([seed, *key]) either way
    from qtomo.harness import _TAG_FULL, _substream

    for key in ((_TAG_FULL, 0, 0), (_TAG_FULL, 5, 4), (7, 3)):
        ours = _substream(seed, *key)
        reference = np.random.default_rng([seed, *key])
        assert ours.bit_generator.state == reference.bit_generator.state
        assert ours.random(4).tolist() == reference.random(4).tolist()
        assert ours.multinomial(1024, [0.1, 0.2, 0.3, 0.4]).tolist() == (
            reference.multinomial(1024, [0.1, 0.2, 0.3, 0.4]).tolist()
        )


def test_substream_refuses_a_negative_seed():
    from qtomo.harness import _TAG_FULL, _substream

    with pytest.raises(ValueError):
        _substream(-1, _TAG_FULL, 0, 0)


def test_variance_scan_argument_validation():
    with pytest.raises(ValueError):
        variance_vs_fisher_scan()
    with pytest.raises(ValueError):
        variance_vs_fisher_scan(
            TwoMeterModel(*REFERENCE_COUPLINGS), theta=1.0
        )
    with pytest.raises(ValueError):
        variance_vs_fisher_scan(theta=1.0, shot_grid=(1000, 100))


_SCAN_ARGS = {
    "single": {"theta": math.pi / 2},
    "two-meter": {"model": TwoMeterModel(*REFERENCE_COUPLINGS)},
}


def _refuse_draws(monkeypatch):
    from qtomo import harness

    def no_sampling(*args):
        raise AssertionError("sampled before validating")

    monkeypatch.setattr(harness, "_substream", no_sampling)


@pytest.mark.parametrize("kind", sorted(_SCAN_ARGS))
@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"trials": 1}, "trials"),
        ({"trials": 0}, "trials"),
        ({"shot_grid": (0, 100)}, "shot counts"),
        ({"shot_grid": (1, 100)}, "shot counts"),
        ({"shot_grid": ()}, "empty"),
        ({"trials": 2.5}, "trials"),
        ({"trials": math.nan}, "trials"),
        ({"trials": True}, "trials"),
        ({"shot_grid": (100.5, 1000)}, "shot counts"),
        ({"shot_grid": (100, math.inf)}, "shot counts"),
        ({"shot_grid": (100, 1000.0)}, "shot counts"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": np.int64(-1)}, "seed"),
    ],
    ids=["trials1", "trials0", "shots0", "shots1", "empty-grid", "trials2.5",
         "trials-nan", "trials-bool", "shots100.5", "shots-inf", "shots-float",
         "seed-1", "seed1.5", "seed-np-1"],
)
def test_variance_scan_rejects_degenerate_sampling_before_drawing(
    kind, kwargs, match, monkeypatch
):
    # each of these gave NaN rows (or an IndexError) that the ratio guards,
    # comparing against NaN, never caught, or a count numpy truncated, a
    # TypeError or an OverflowError; now nothing is sampled at all
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match=match):
        variance_vs_fisher_scan(**_SCAN_ARGS[kind], **kwargs)


@pytest.mark.parametrize("kind", sorted(_SCAN_ARGS))
def test_variance_scan_accepts_small_shot_counts(kind):
    # linear inversion's variance is F^-1/N exactly; against F^-1/(N-1)
    # the ratio sat near (N-1)/N and N=2 failed the scan's own guard
    trials = 2000
    rows = variance_vs_fisher_scan(**_SCAN_ARGS[kind], shot_grid=(2, 10), trials=trials, seed=3)
    assert [r.shots for r in rows] == [2, 10]
    for row in rows:
        assert abs(row.ratio - 1.0) <= 3.0 / math.sqrt(trials)


def _blind_to_z():
    # a POVM with every Pauli outcome alive that cannot see s_z: T is singular
    return MeterModel((), [[0.25, 0.2, 0.0, 0.0], [0.25, -0.2, 0.0, 0.0],
                           [0.25, 0.0, 0.2, 0.0], [0.25, 0.0, -0.2, 0.0]])


@pytest.mark.parametrize(
    "model, error",
    [(TwoMeterModel(0.0, 0.0), SingularInformationError), (_blind_to_z(), NonInvertibleModelError)],
    ids=["dead-outcome", "singular-T"],
)
def test_variance_scan_rejects_a_singular_model_before_drawing(model, error, monkeypatch):
    _refuse_draws(monkeypatch)
    with pytest.raises(error):
        variance_vs_fisher_scan(model, trials=10)


@pytest.mark.parametrize("theta", [0.0, 2 * math.pi, 1e-7])
def test_variance_scan_rejects_a_non_informative_coupling(theta, monkeypatch):
    _refuse_draws(monkeypatch)
    with pytest.raises(NonInformativeCouplingError, match="not identifiable"):
        variance_vs_fisher_scan(theta=theta, trials=10)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_single_meter_rejects_a_non_finite_coupling(theta, monkeypatch):
    # NaN passed every sin^2(theta/2) < floor test and came out as NaN
    # errors and estimates; inf raised a bare math domain error
    _refuse_draws(monkeypatch)
    psi = PAULI_EIGENSTATES[2]
    calls = [
        lambda: probabilities_single(psi, theta),
        lambda: estimate_sz(0.5, 0.5, theta),
        lambda: fisher_inverse_single(psi, theta),
        lambda: _fisher_inverse_angle_form(0.3, theta),
        lambda: qttf_single(theta),
        lambda: two_design_average(theta),
        lambda: binomial_variance_identity(psi, theta),
        lambda: run_single_experiment(theta),
        lambda: variance_vs_fisher_scan(theta=theta, trials=10),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="theta must be finite"):
            call()


def test_stacked_estimator_variance_identity_is_the_per_state_call():
    rng = np.random.default_rng(23)
    for tmat in (
        TwoMeterModel(*REFERENCE_COUPLINGS).transfer_matrix(),
        build_circuit(REFERENCE_OPTIMUM).transfer_matrix(),
    ):
        kets = [
            state_from_angles(rng.uniform(0, math.pi / 2), rng.uniform(0, math.pi))
            for _ in range(40)
        ]
        blochs = np.array([bloch_from_state(psi) for psi in kets])
        stacked = estimator_variance_identity(blochs, tmat)
        assert stacked.lhs.shape == stacked.rhs.shape == (40, 3)
        worst = 0.0
        for k, (psi, bloch) in enumerate(zip(kets, blochs)):
            for state in (psi, bloch):
                single = estimator_variance_identity(state, tmat)
                assert single.lhs.shape == single.rhs.shape == (3,)
                assert type(single.max_abs_diff) is float
                np.testing.assert_allclose(single.lhs, stacked.lhs[k], rtol=0, atol=1e-15)
                np.testing.assert_allclose(single.rhs, stacked.rhs[k], rtol=0, atol=1e-15)
                worst = max(worst, single.max_abs_diff)
        assert type(stacked.max_abs_diff) is float
        assert stacked.max_abs_diff == pytest.approx(worst, rel=0, abs=1e-15)


def test_stacked_estimator_variance_identity_names_a_vanished_outcome():
    # SIC effects E_q = (I + n_q . sigma)/4: outcome q vanishes on the
    # state -n_q, and T stays invertible
    normals = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    ) / math.sqrt(3.0)
    tmat = 0.25 * np.hstack([np.ones((4, 1)), normals])
    rng = np.random.default_rng(5)
    blochs = np.array([
        bloch_from_state(state_from_angles(rng.uniform(0, math.pi / 2), rng.uniform(0, math.pi)))
        for _ in range(10)
    ])
    assert estimator_variance_identity(blochs, tmat).max_abs_diff < 1e-12
    blochs[6, 1:] = -normals[2]
    with pytest.raises(SingularInformationError, match="outcome -\\+ ") as info:
        estimator_variance_identity(blochs, tmat)
    assert info.value.outcome == 2


@given(
    st.floats(0.01, math.pi / 2 - 0.01),
    st.floats(0.0, math.pi),
    st.floats(0.15, math.pi),
)
@settings(max_examples=60)
def test_binomial_variance_identity_exact(a1, a2, theta):
    psi = state_from_angles(a1, a2)
    report = binomial_variance_identity(psi, theta)
    assert report.max_abs_diff < 1e-12 * max(1.0, report.rhs[0])


def test_stacked_binomial_variance_identity_is_the_per_case_call():
    rng = np.random.default_rng(31)
    kets = [
        state_from_angles(rng.uniform(0, math.pi / 2), rng.uniform(0, math.pi))
        for _ in range(50)
    ]
    thetas = rng.uniform(0.1, math.pi, size=50).tolist()
    stacked = binomial_variance_identity(kets, thetas)
    assert stacked.lhs.shape == stacked.rhs.shape == (50,)
    worst = 0.0
    for k, (psi, theta) in enumerate(zip(kets, thetas)):
        single = binomial_variance_identity(psi, theta)
        assert single.lhs.shape == single.rhs.shape == (1,)
        assert single.lhs[0].hex() == stacked.lhs[k].hex()
        assert single.rhs[0].hex() == stacked.rhs[k].hex()
        worst = max(worst, single.max_abs_diff)
    assert type(stacked.max_abs_diff) is float
    assert stacked.max_abs_diff == worst
    with pytest.raises(ValueError):
        binomial_variance_identity(kets, thetas[:-1])


def test_estimator_variance_identity_both_models():
    rng = np.random.default_rng(9)
    tmats = [
        TwoMeterModel(*REFERENCE_COUPLINGS).transfer_matrix(),
        build_circuit(REFERENCE_OPTIMUM).transfer_matrix(),
    ]
    for tmat in tmats:
        for _ in range(25):
            psi = state_from_angles(
                rng.uniform(0, math.pi / 2), rng.uniform(0, math.pi)
            )
            report = estimator_variance_identity(psi, tmat)
            assert report.max_abs_diff < 1e-10
            assert report.lhs.shape == (3,)
            np.testing.assert_allclose(report.lhs, report.rhs, atol=1e-10)
