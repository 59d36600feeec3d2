"""Shared error pipeline: the singular-model decision and its cheap test."""
import dataclasses
import itertools
import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize

from qtomo import _oracles, circuit, twometer
from qtomo._oracles import HADAMARD, circuit_unitary, joint_unitary, kraus_transfer
from qtomo.circuit import REFERENCE_OPTIMUM, build_circuit, optimize_circuit, qttf_circuit
from qtomo.core import SIGMA
from qtomo.model import (
    _FACTORED_BOUND,
    CONDITION_LIMIT,
    MeterModel,
    _inverse_weights,
    delta_from_transfer,
    fisher_from_transfer,
    minimize_with_restarts,
    qttf_from_transfer,
)
from qtomo.twometer import (
    REFERENCE_COUPLINGS,
    TwoMeterModel,
    optimize_two_meter,
    qttf_two_meter,
    transfer_matrix,
)
from conditioned_transfers import EPS, ROUNDOFF, _conditioned_transfers, _orthogonal


def _exact_weights(tmat):
    """|a_q|^2 for the columns a_q of T^-1[1:, :], in exact rationals of T's floats."""
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(4)]
        for i, row in enumerate(tmat.tolist())
    ]
    for col in range(4):
        pivot = next(r for r in range(col, 4) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(4):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [sum(aug[m][4 + q] ** 2 for m in (1, 2, 3)) for q in range(4)]


def _weighted_error(value, weights, w, offset):
    """Error of value against sum_q e_q w_q - offset for exact weights e_q.

    Relative to sum_q e_q |w_q| + |offset|, the scale of the sum's terms,
    so cancellation in an unphysical T does not inflate it.
    """
    w = [Fraction(x) for x in w]
    offset = Fraction(offset)
    exact = sum(e * x for e, x in zip(weights, w)) - offset
    scale = sum(e * abs(x) for e, x in zip(weights, w)) + abs(offset)
    return float(abs(Fraction(value) - exact) / scale)


def test_singular_decision_is_the_condition_number():
    cases = _conditioned_transfers()
    conds = [np.linalg.cond(tmat) for tmat, _ in cases]
    # the grid reaches both sides of the limit, and of the bound's threshold
    assert min(conds) < CONDITION_LIMIT / 4 and max(conds) > 2 * CONDITION_LIMIT
    assert sum(c < CONDITION_LIMIT for c in conds) >= 20
    routes = {"lu": 0, "svd": 0}
    for (tmat, s), cond in zip(cases, conds):
        singular = not cond < CONDITION_LIMIT
        qttf = qttf_from_transfer(tmat)
        delta = delta_from_transfer(tmat, s)
        assert math.isinf(qttf) is singular
        assert math.isinf(delta) is singular
        if singular:
            continue
        p = tmat @ s
        if _inverse_weights(tmat.tolist()) is None:
            # the SVD fallback keeps the bits of the LAPACK inverse, summed
            # over the outcomes in order as the float LU's weights are
            routes["svd"] += 1
            columns = np.linalg.inv(tmat).T.tolist()
            e = [x1 * x1 + x2 * x2 + x3 * x3 for _, x1, x2, x3 in columns]
            t0, p = tmat[:, 0].tolist(), p.tolist()
            expected = e[0] * t0[0] + e[1] * t0[1] + e[2] * t0[2] + e[3] * t0[3] - 1.0
            assert qttf == expected  # bit for bit
            assert delta == (
                e[0] * p[0] + e[1] * p[1] + e[2] * p[2] + e[3] * p[3]
                - float(s[1:] @ s[1:])
            )
        else:
            # the float LU agrees with exact arithmetic on the same T
            routes["lu"] += 1
            exact = _exact_weights(tmat)
            allowed = ROUNDOFF * cond * EPS
            assert _weighted_error(qttf, exact, tmat[:, 0], 1.0) <= allowed
            assert _weighted_error(delta, exact, p, float(s[1:] @ s[1:])) <= allowed
    assert routes["lu"] >= 5 and routes["svd"] >= 5


def _random_conditioned(rng):
    """Random 4x4 T with cond up to 1e12 and a random overall scale."""
    log_cond = rng.uniform(0.0, 12.0)
    values = 10.0 ** np.concatenate([[0.0, -log_cond], rng.uniform(-log_cond, 0.0, 2)])
    tmat = _orthogonal(rng) @ np.diag(values) @ _orthogonal(rng).T
    return tmat * 10.0 ** rng.uniform(-2.0, 2.0)


@pytest.mark.parametrize("family", ["two-meter", "circuit", "random"])
def test_float_lu_matches_exact_arithmetic(family):
    rng = np.random.default_rng({"two-meter": 41, "circuit": 42, "random": 43}[family])
    cleared = 0
    for _ in range(200):
        if family == "two-meter":
            tmat = transfer_matrix(*rng.uniform(-3 * math.pi, 3 * math.pi, size=2))
        elif family == "circuit":
            tmat = build_circuit(rng.uniform(0.0, 2 * math.pi, size=12)).transfer_matrix()
        else:
            tmat = _random_conditioned(rng)
        result = _inverse_weights(tmat.tolist())
        if result is None:
            continue
        cleared += 1
        _, weights = result
        exact = _exact_weights(tmat)
        allowed = ROUNDOFF * np.linalg.cond(tmat) * EPS
        total = sum(exact)
        assert max(abs(Fraction(w) - e) for w, e in zip(weights, exact)) / total <= allowed
        assert _weighted_error(qttf_from_transfer(tmat), exact, tmat[:, 0], 1.0) <= allowed
    # every physical T here is cleared; some random draws pass the limit
    if family == "random":
        assert 150 <= cleared < 200
    else:
        assert cleared == 200


def test_float_lu_pivots_every_row_order():
    # each zero pivot of a permutation matrix needs a row swap; P^-1 = P^T,
    # so column q of the inverse is row q of P, e_q is 1 unless row q of P
    # is e_0, and |P|_F |P^-1|_F = 4
    for order in itertools.permutations(range(4)):
        perm = np.eye(4)[list(order)]
        columns, weights = _inverse_weights(perm.tolist())
        assert np.array_equal(np.array(columns), perm)
        assert weights == list(1.0 - perm[:, 0])
        assert math.hypot(*perm.ravel()) * math.hypot(*np.ravel(columns)) == 4.0


def test_float_lu_never_clears_a_singular_transfer_matrix():
    rng = np.random.default_rng(44)
    tmats = [tmat for tmat, _ in _conditioned_transfers()]
    for i in range(300):
        tmat = _random_conditioned(rng)
        # put a third of the draws around the limit itself
        if i % 3 == 0:
            u, sv, vt = np.linalg.svd(tmat)
            sv[-1] = sv[0] / (CONDITION_LIMIT * 10.0 ** rng.uniform(-0.7, 0.3))
            tmat = u @ np.diag(sv) @ vt
        tmats.append(tmat)
    outcomes = {True: 0, False: 0}
    for tmat in tmats:
        cond = np.linalg.cond(tmat)
        result = _inverse_weights(tmat.tolist())
        outcomes[result is None] += 1
        if result is not None:
            assert cond < CONDITION_LIMIT
            # the certificate's bound |T|_F |T^-1|_F >= cond_2(T), up to
            # round-off, with T^-1 the returned columns
            bound = np.linalg.norm(tmat) * np.linalg.norm(result[0])
            assert bound >= cond * (1.0 - 1e-3)
    assert outcomes[True] >= 50 and outcomes[False] >= 50
    # zero pivots and non-finite entries are left to the SVD decision
    assert _inverse_weights(np.zeros((4, 4)).tolist()) is None
    assert _inverse_weights(np.diag([1.0, 1.0, 1.0, math.nan]).tolist()) is None
    assert _inverse_weights(np.diag([1.0, math.inf, 1.0, 1.0]).tolist()) is None


def test_well_conditioned_qttf_needs_no_svd(monkeypatch):
    # neither the SVD nor the LAPACK inverse runs on a well-conditioned T
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"np.linalg.{name} called on the qTTF path")

        return call

    monkeypatch.setattr(np.linalg, "cond", refuse("cond"))
    monkeypatch.setattr(np.linalg, "inv", refuse("inv"))
    rng = np.random.default_rng(7)
    values = [
        qttf_two_meter(*REFERENCE_COUPLINGS),
        qttf_circuit(REFERENCE_OPTIMUM),
        qttf_from_transfer(transfer_matrix(*REFERENCE_COUPLINGS)),
        delta_from_transfer(transfer_matrix(*REFERENCE_COUPLINGS), np.eye(4)[0]),
    ]
    for theta in rng.uniform(-3 * math.pi, 3 * math.pi, size=(200, 2)):
        values.append(qttf_two_meter(float(theta[0]), float(theta[1])))
    for params in rng.uniform(0.0, 2 * math.pi, size=(200, 12)):
        values.append(qttf_circuit(params))
    assert all(math.isfinite(v) for v in values)


def _near_singular_couplings(rng):
    """theta_A within 1e-6 to 1 of 2 pi k, k in {-1, 0, 1}, and theta_B as
    small; every other draw swaps the pair."""
    offsets = rng.choice([-1.0, 1.0], size=2) * 10.0 ** rng.uniform(-6.0, 0.0, size=2)
    pair = (2.0 * math.pi * int(rng.integers(-1, 2)) + offsets[0], offsets[1])
    return pair if rng.integers(2) else pair[::-1]


def _factored_draws(family):
    """2500 settings of one family: ordinary, near-singular and at
    magnitudes 1e-4 to 1e4."""
    rng = np.random.default_rng(38)
    if family == "two-meter":
        draws = rng.uniform(-3.0 * math.pi, 3.0 * math.pi, size=(1000, 2)).tolist()
        draws += [_near_singular_couplings(rng) for _ in range(750)]
        draws += (rng.uniform(-1.0, 1.0, size=(750, 2)) * 10.0 ** rng.uniform(-4.0, 4.0, size=(750, 1))).tolist()
        return draws
    draws = rng.uniform(0.0, 2.0 * math.pi, size=(1000, 12)).tolist()
    magnitudes = rng.uniform(-1.0, 1.0, size=(1000, 12)) * 10.0 ** rng.uniform(-4.0, 4.0, size=(1000, 1))
    magnitudes[::2, 0::3] *= 2.0
    draws += magnitudes.tolist()
    # angles where sines and cosines vanish give exactly singular meters
    grid = [0.0, -0.0, math.pi / 2, math.pi, -math.pi, 1.5 * math.pi, 2 * math.pi, 1e-300]
    draws += [[grid[k] for k in row] for row in rng.integers(0, len(grid), size=(500, 12)).tolist()]
    return draws


_FAMILIES = {
    "two-meter": (twometer, lambda x: qttf_two_meter(*x), lambda x: transfer_matrix(*x)),
    "circuit": (circuit, qttf_circuit, lambda x: build_circuit(x).transfer_matrix()),
}


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_factored_qttf_is_the_rows_form(family, monkeypatch):
    # where the factored form runs, the public qTTF is the rows form of
    # the model's T to 1e-10 relative; where it hands T's rows over, it
    # is that form to the bit, inf decisions included
    module, qttf, tmat_of = _FAMILIES[family]
    handed_over = []
    rows_form = module._qttf_rows
    monkeypatch.setattr(module, "_qttf_rows", lambda rows: handed_over.append(rows) or rows_form(rows))
    paths = {"factored": 0, "rows": 0, "rows-inf": 0}
    for x in _factored_draws(family):
        handed_over.clear()
        value = qttf(x)
        expected = qttf_from_transfer(tmat_of(x))
        assert math.isinf(value) == math.isinf(expected), x
        if handed_over:
            assert value.hex() == expected.hex(), x
            paths["rows-inf" if math.isinf(value) else "rows"] += 1
        else:
            assert abs(value - expected) <= 1e-10 * expected, x
            paths["factored"] += 1
    # every path is taken, a finite hand-over among them
    assert min(paths.values()) >= 50, paths


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_factored_certificate_is_the_norm_product_of_t(family, monkeypatch):
    # the factored forms hand a setting over exactly when |T|_F |T^-1|_F of
    # the model's T, from numpy's inverse, is at or above _FACTORED_BOUND;
    # a setting within 1e-6 of the bound, relative, may go either way
    module, qttf, tmat_of = _FAMILIES[family]
    handed_over = []
    rows_form = module._qttf_rows
    monkeypatch.setattr(module, "_qttf_rows", lambda rows: handed_over.append(rows) or rows_form(rows))
    near_bound = 0
    for x in _factored_draws(family):
        tmat = tmat_of(x)
        handed_over.clear()
        qttf(x)
        if np.linalg.cond(tmat) >= CONDITION_LIMIT:
            assert handed_over, x
            continue
        ratio = np.linalg.norm(tmat) * np.linalg.norm(np.linalg.inv(tmat)) / _FACTORED_BOUND
        if abs(ratio - 1.0) > 1e-6:
            assert bool(handed_over) == (ratio > 1.0), (x, ratio)
        near_bound += 0.5 <= ratio < 2.0
    # enough settings near the bound on each side that a certificate off
    # by a bounded factor hands some of them the wrong way
    assert near_bound >= 15, near_bound


def test_factored_two_meter_qttf_keeps_the_symmetries():
    # (a, b) -> (-a, -b), (b, a) and (-b, -a) relabel T's outcomes and turn
    # its Bloch columns, so the qTTF is unchanged: to 1e-12 relative, plus
    # cond(T) eps on an ill-conditioned T, which both routes need
    rng = np.random.default_rng(15)
    for a, b in rng.uniform(-3.0 * math.pi, 3.0 * math.pi, size=(2000, 2)).tolist():
        base = qttf_two_meter(a, b)
        tol = (1e-12 + np.linalg.cond(transfer_matrix(a, b)) * EPS) * base
        for image in ((-a, -b), (b, a), (-b, -a)):
            assert abs(qttf_two_meter(*image) - base) <= tol, (a, b, image)


def test_qttf_respects_the_four_outcome_bound():
    # Rehacek, Englert, Kaszlikowski, PRA 70, 052321 (2004): completeness
    # and positivity give sum_q w_q a_q n_q^T = I_3 with w_q = T[q, 0] and
    # |n_q| <= 1, so Cauchy-Schwarz bounds every four-outcome qubit qTTF
    # below by 8, reached only by the tetrahedral SIC.  Random 8x8 unitaries
    # on the meter register give random four-outcome Kraus POVMs.
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(2000, 8, 8)) + 1j * rng.normal(size=(2000, 8, 8))
    unitaries, _ = np.linalg.qr(raw)
    tmats = kraus_transfer(unitaries)
    assert np.allclose(tmats.sum(axis=1), [1.0, 0.0, 0.0, 0.0])
    values = [qttf_from_transfer(tmat) for tmat in tmats]
    for theta in rng.uniform(-3 * math.pi, 3 * math.pi, size=(2000, 2)):
        values.append(qttf_two_meter(*theta))
    for params in rng.uniform(0.0, 2 * math.pi, size=(2000, 12)):
        values.append(qttf_circuit(params))
    assert min(values) >= 8.0 - 1e-9
    # the reference settings, rounded to two decimals, sit just above it
    assert 8.0 - 1e-12 <= qttf_circuit(REFERENCE_OPTIMUM) < 8.0 + 1e-3


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: qttf_two_meter(math.nan, 1.0), "coupling theta_a must be finite, got nan"),
        (lambda: qttf_circuit([math.nan] + [0.0] * 11),
         "circuit parameter 0 must be finite, got nan"),
        (lambda: delta_from_transfer(np.full((4, 4), math.nan), np.eye(4)[0]),
         "transfer matrix must be a finite real 4x4 array"),
    ],
    ids=["two-meter", "circuit", "delta"],
)
def test_non_finite_transfer_matrix_is_rejected(call, message):
    # a model's qTTF names the parameter that made T non-finite
    with pytest.raises(ValueError, match=message):
        call()


_NAN_T = TwoMeterModel(*REFERENCE_COUPLINGS).transfer_matrix().copy()
_NAN_T[1, 1] = math.nan
_NOT_FINITE_P = "outcome probabilities T @ S must be finite"


@pytest.mark.parametrize(
    "tmat, state, message",
    [
        (None, [1.0, math.nan, 0.0, 0.0], _NOT_FINITE_P),
        (None, [1.0, math.inf, 0.0, 0.0], _NOT_FINITE_P),
        (None, [1.0, 0.0, 0.0, -math.inf], _NOT_FINITE_P),
        (None, [math.inf, 0.0, 0.0, 0.0], _NOT_FINITE_P),
        (_NAN_T, [1.0, 0.0, 0.0, 0.5], "transfer matrix must be a finite real 4x4"),
        # a singular T's inf does not hide a NaN state
        (transfer_matrix(0.0, 0.0), [1.0, math.nan, 0.0, 0.0], _NOT_FINITE_P),
    ],
    ids=["state-nan", "state-inf", "state-minus-inf", "state-s0-inf", "tmat-nan",
         "singular-tmat-state-nan"],
)
@pytest.mark.parametrize("call", [fisher_from_transfer, delta_from_transfer])
def test_error_pipeline_refuses_non_finite_input(call, tmat, state, message):
    # a NaN p fails the floor test and an all-inf p (s0 = inf) its upper
    # bound, so neither reaches a NaN or zero Fisher matrix or a NaN error
    if tmat is None:
        tmat = TwoMeterModel(*REFERENCE_COUPLINGS).transfer_matrix()
    with pytest.raises(ValueError, match=message):
        call(tmat, state)


@pytest.mark.parametrize(
    "rows",
    [
        transfer_matrix(*REFERENCE_COUPLINGS).astype(complex).tolist(),
        transfer_matrix(*REFERENCE_COUPLINGS).tolist()[:3],
    ],
    ids=["complex", "three-rows"],
)
def test_qttf_from_transfer_checks_nested_rows(rows):
    # nested rows skipped the array check: a complex list raised TypeError
    # and three rows an unnamed unpacking error
    with pytest.raises(ValueError, match="^transfer matrix must be a finite real 4x4 array$"):
        qttf_from_transfer(rows)


def test_qttf_from_transfer_reads_nested_rows_as_their_array():
    tmat = transfer_matrix(*REFERENCE_COUPLINGS)
    assert qttf_from_transfer(tmat.tolist()).hex() == qttf_from_transfer(tmat).hex()


def test_delta_from_transfer_reads_a_list_as_its_array():
    # a list T raised AttributeError, where fisher_from_transfer and
    # require_invertible read it as an array
    tmat = transfer_matrix(*REFERENCE_COUPLINGS)
    state = [1.0, 0.6, 0.0, 0.8]
    assert delta_from_transfer(tmat.tolist(), state) == delta_from_transfer(tmat, state)


def test_transfer_matrix_matches_the_sinc_formula(monkeypatch):
    # the scalar sin(x)/x must give the bits of np.sinc, including its
    # limit at theta_C = 0 and tiny theta_C
    rng = np.random.default_rng(11)
    couplings = np.concatenate(
        [
            rng.uniform(-3 * math.pi, 3 * math.pi, size=(1499, 2)),
            rng.uniform(-1e-6, 1e-6, size=(500, 2)),
            np.zeros((1, 2)),
        ]
    )
    scalar = [transfer_matrix(float(a), float(b)) for a, b in couplings]
    monkeypatch.setattr(
        twometer,
        "_half_sinc",
        lambda tc: 0.5 * float(np.sinc(tc / (2.0 * math.pi))),
    )
    for (a, b), tmat in zip(couplings, scalar):
        assert tmat.tobytes() == transfer_matrix(float(a), float(b)).tobytes()


def test_kraus_transfer_stack_is_the_per_unitary_call():
    # one batched Kraus read gives every member the bits of its own read:
    # two-meter unitaries (with couplings near theta = 0) and circuits, half
    # of them with doubled thetas (the full-angle reading of their draw)
    rng = np.random.default_rng(31)
    couplings = np.concatenate(
        [
            rng.uniform(-3 * math.pi, 3 * math.pi, size=(500, 2)),
            rng.uniform(-1e-6, 1e-6, size=(100, 2)),
        ]
    )
    unitaries = list(joint_unitary(*couplings.T))
    for i in range(100):
        params = rng.uniform(0.0, 2 * math.pi, size=12)
        if i % 2:
            params[0::3] *= 2.0
        unitaries.append(circuit_unitary(params))
    stack = np.array(unitaries)
    reads = kraus_transfer(stack)
    assert reads.shape == (len(unitaries), 4, 4)
    for unitary, read in zip(unitaries, reads):
        single = kraus_transfer(unitary)
        assert single.shape == (4, 4)
        assert np.array_equal(read, single)
    # any leading shape is kept
    assert np.array_equal(
        kraus_transfer(stack[:6].reshape(2, 3, 8, 8)), reads[:6].reshape(2, 3, 4, 4)
    )


def _einsum_kraus_transfer(unitary):
    # the Kraus read before the constant-matrix products: both |+> inputs
    # by summing axes, effects and traces by einsum
    stack = np.shape(unitary)[:-2]
    readout = np.kron(np.kron(HADAMARD, np.eye(2)), HADAMARD)
    blocks = (readout @ unitary).reshape(stack + (2,) * 6).sum(axis=(-3, -1)) / 2.0
    kraus = blocks.swapaxes(-3, -2).reshape(stack + (4, 2, 2))
    effects = np.einsum("...qji,...qjk->...qik", kraus.conj(), kraus)
    return 0.5 * np.einsum("...qik,mki->...qm", effects, SIGMA).real


def test_kraus_transfer_matches_the_einsum_read():
    # the stack of test_kraus_transfer_stack_is_the_per_unitary_call
    rng = np.random.default_rng(31)
    couplings = np.concatenate(
        [
            rng.uniform(-3 * math.pi, 3 * math.pi, size=(500, 2)),
            rng.uniform(-1e-6, 1e-6, size=(100, 2)),
        ]
    )
    params = rng.uniform(0.0, 2 * math.pi, size=(100, 12))
    params[1::2, 0::3] *= 2.0
    stack = np.concatenate([joint_unitary(*couplings.T), circuit_unitary(params)])
    assert stack.shape == (700, 8, 8)
    np.testing.assert_allclose(
        kraus_transfer(stack), _einsum_kraus_transfer(stack), rtol=0, atol=1e-15
    )


def _reference_models():
    return TwoMeterModel(*REFERENCE_COUPLINGS), build_circuit(REFERENCE_OPTIMUM)


def test_models_are_built_off_the_unitary(monkeypatch):
    # a model is (params, T): neither constructor compiles the 8x8
    # unitary, which only the checks build
    expected = [m.transfer_matrix().tobytes() for m in _reference_models()]

    def no_unitary(*args):
        raise AssertionError("built the 8x8 unitary")

    monkeypatch.setattr(_oracles, "joint_unitary", no_unitary)
    monkeypatch.setattr(_oracles, "circuit_unitary", no_unitary)
    models = _reference_models()
    assert [m.transfer_matrix().tobytes() for m in models] == expected
    assert [f.name for f in dataclasses.fields(MeterModel)] == ["params", "_tmat"]
    assert not any(hasattr(m, "unitary") for m in models)


def test_models_with_different_transfer_matrices_differ():
    # T is the model: equal params with another T is another model, and
    # the hash follows, so both land in a set
    two_meter, circuit_model = _reference_models()
    a = MeterModel((), two_meter.transfer_matrix())
    b = MeterModel((), circuit_model.transfer_matrix())
    assert a != b and len({a, b}) == 2
    assert circuit_model != MeterModel(tuple(REFERENCE_OPTIMUM), two_meter.transfer_matrix())
    same = MeterModel((), np.array(two_meter.transfer_matrix()))
    assert a == same and hash(a) == hash(same)


@pytest.mark.parametrize("index", [0, 1], ids=["two-meter", "circuit"])
def test_transfer_matrix_is_read_only(index):
    # T is the model, so writing into the handed-out matrix must not move it
    model = _reference_models()[index]
    tmat = model.transfer_matrix()
    qttf = qttf_from_transfer(tmat)
    with pytest.raises(ValueError, match="read-only"):
        tmat[0, 0] += 0.01
    assert qttf_from_transfer(model.transfer_matrix()) == qttf
    assert model == _reference_models()[index]
    # the model keeps its own copy: the caller's array stays writable
    rows = np.array(tmat)
    copied = MeterModel(params=model.params, _tmat=rows)
    rows[0, 0] += 0.01
    assert copied.transfer_matrix().tobytes() == tmat.tobytes()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TwoMeterModel(math.nan, 1.0), "coupling theta_a must be finite, got nan"),
        (lambda: build_circuit([math.nan] * 12), "circuit parameter 0 must be finite, got nan"),
        (lambda: MeterModel((), np.full((4, 4), math.nan)), "finite real 4x4"),
        (lambda: MeterModel((), np.eye(3)), "finite real 4x4"),
    ],
    ids=["two-meter-nan", "circuit-nan", "raw-nan", "raw-3x3"],
)
def test_a_model_never_holds_a_non_finite_transfer_matrix(build, message):
    # the model held an all-NaN T, and only a later estimator or sampler
    # failed, with an unrelated message; a model built from parameters
    # names the one that is not finite
    with pytest.raises(ValueError, match=message):
        build()


def _end_points(optimize, restarts):
    return [(r.params, r.value) for r in optimize(restarts=restarts, seed=0).restarts]


@pytest.mark.parametrize(
    "optimize, restarts, objective",
    [(optimize_two_meter, 20, twometer.value_and_gradient),
     (optimize_circuit, 5, circuit.value_and_gradient)],
    ids=["two-meter", "circuit"],
)
def test_no_library_bfgs_step_lowers_an_end_point(optimize, restarts, objective):
    # the reference library's BFGS, on the same value and gradient, is the
    # independent oracle: started at each end point of the search, none of
    # its steps lowers the value by more than 1e-9 relative
    for params, value in _end_points(optimize, restarts):
        seen = []

        def fun(x):
            seen.append(x.copy())
            return objective(x.tolist())

        ref = minimize(fun, params, jac=True, method="BFGS")
        lowest = min(objective(x.tolist())[0] for x in seen)
        assert min(lowest, ref.fun) >= value - 1e-9 * abs(value), (params, value)


@pytest.mark.parametrize("optimize, restarts", [(optimize_two_meter, 20), (optimize_circuit, 5)],
                         ids=["two-meter", "circuit"])
def test_converged_is_the_gradient_certificate(optimize, restarts):
    objective = twometer.value_and_gradient if optimize is optimize_two_meter else (
        circuit.value_and_gradient
    )
    for restart in optimize(restarts=restarts, seed=0).restarts:
        value, gradient = objective(restart.params.tolist())
        assert value == restart.value
        assert restart.gradient_norm == math.sqrt(sum(g * g for g in gradient))
        assert restart.converged
        assert restart.gradient_norm <= 1e-6 * max(1.0, abs(restart.value))


def _bowl(x):
    return (x[0] - 0.5) ** 2 + x[1] ** 2, [2.0 * (x[0] - 0.5), 2.0 * x[1]]


@pytest.mark.parametrize(
    "wall",
    [(math.inf, [0.0, 0.0]), (math.nan, [0.0, 0.0]), (-1.0, None), (-1.0, [math.nan, 0.0])],
    ids=["inf-value", "nan-value", "no-gradient", "nan-gradient"],
)
def test_a_trial_without_finite_value_and_gradient_fails(wall):
    # a bowl behind a wall at x0 = 1: the first step, capped at pi, lands
    # behind it, and the line search backtracks to the bowl's side
    seen = []

    def objective(x):
        seen.append(x)
        return wall if x[0] > 1.0 else _bowl(x)

    result = minimize_with_restarts(objective, [np.array([-2.0, 0.0])])
    assert seen[1] == [-2.0 + math.pi, 0.0]
    assert result.restarts[0].converged
    assert result.params.tolist() == pytest.approx([0.5, 0.0], abs=1e-6)
    # every call got a fresh list of floats
    assert all(type(x) is list and all(type(v) is float for v in x) for x in seen)
    assert len({id(x) for x in seen}) == len(seen)


def test_the_inverse_hessian_update_gives_quasi_newton_steps():
    # a quadratic of condition 100 in three variables: the BFGS updates
    # end it in 4 steps, steepest descent (no update) would take 185
    curvatures = (1.0, 100.0, 10.0)

    def objective(x):
        return (
            0.5 * sum(a * v * v for a, v in zip(curvatures, x)),
            [a * v for a, v in zip(curvatures, x)],
        )

    restart = minimize_with_restarts(objective, [np.ones(3)]).restarts[0]
    assert restart.converged and restart.iterations <= 10
    assert restart.params.tolist() == pytest.approx([0.0] * 3, abs=1e-10)


def test_no_step_moves_a_coordinate_more_than_pi():
    # a slope with no minimum: each accepted step is the cap, pi along x0
    def objective(x):
        return -1e3 * x[0] + x[1], [-1e3, 1.0]

    result = minimize_with_restarts(objective, [np.array([0.0, 0.0])], maxiter=5)
    restart = result.restarts[0]
    assert (restart.iterations, restart.evaluations, restart.converged) == (5, 6, False)
    assert restart.params[0] == pytest.approx(5.0 * math.pi, rel=1e-12)
    assert restart.params[1] == pytest.approx(-5.0 * math.pi / 1e3, rel=1e-12)


def test_a_line_search_that_finds_no_descent_stalls(caplog):
    # a flat value with a non-zero gradient: no trial passes Armijo's test
    calls = []

    def objective(x):
        calls.append(x)
        return 1.0, [1.0, 0.0]

    with caplog.at_level(logging.WARNING, logger="qtomo.model"):
        result = minimize_with_restarts(objective, [np.array([0.0, 0.0])])
    restart = result.restarts[0]
    assert (restart.iterations, restart.evaluations, restart.converged) == (0, 31, False)
    assert restart.gradient_norm == 1.0
    assert restart.params.tolist() == [0.0, 0.0]
    records = [r for r in caplog.records if r.name == "qtomo.model"]
    assert len(records) == 1
    assert "stalled in its line search" in records[0].getMessage()


def test_a_start_without_a_gradient_ends_the_restart(caplog):
    with caplog.at_level(logging.WARNING, logger="qtomo.model"):
        result = minimize_with_restarts(twometer.value_and_gradient, [np.zeros(2)])
    restart = result.restarts[0]
    assert (restart.iterations, restart.evaluations, restart.converged) == (0, 1, False)
    assert restart.value == restart.gradient_norm == math.inf
    assert len([r for r in caplog.records if r.name == "qtomo.model"]) == 1


def test_capped_restart_warns_once(caplog):
    start = np.array(REFERENCE_COUPLINGS)
    with caplog.at_level(logging.WARNING, logger="qtomo.model"):
        result = minimize_with_restarts(twometer.value_and_gradient, [start], maxiter=5)
    assert not result.restarts[0].converged
    assert result.restarts[0].iterations == 5
    records = [r for r in caplog.records if r.name == "qtomo.model"]
    assert len(records) == 1
    assert records[0].levelno == logging.WARNING
    assert "maxiter=5" in records[0].getMessage()

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="qtomo.model"):
        result = minimize_with_restarts(twometer.value_and_gradient, [start])
    assert result.restarts[0].converged
    assert not [r for r in caplog.records if r.name == "qtomo.model"]


def test_minimize_with_restarts_refuses_no_starts():
    # an empty list raised Python's bare "min() arg is an empty sequence"
    # after the (zero) searches
    def objective(x):
        raise AssertionError("no search may run")

    with pytest.raises(ValueError, match="^starts must hold at least one start point"):
        minimize_with_restarts(objective, [])


def _same_restarts(result, reference):
    assert len(result.restarts) == len(reference.restarts)
    for got, ref in zip(result.restarts, reference.restarts):
        assert got.params.tobytes() == ref.params.tobytes()
        assert np.float64(got.value).tobytes() == np.float64(ref.value).tobytes()
        assert (got.iterations, got.evaluations, got.converged, got.gradient_norm) == (
            ref.iterations, ref.evaluations, ref.converged, ref.gradient_norm
        )


def test_two_meter_search_objective_is_the_public_qttf():
    # along whole searches the optimizer's unchecked objective gives the
    # public qTTF to the bit, so every step is the same
    def public(x):
        return qttf_two_meter(*x), twometer.value_and_gradient(x)[1]

    starts = np.random.default_rng(0).uniform(-3.0 * math.pi, 3.0 * math.pi, size=(20, 2))
    reference = minimize_with_restarts(public, list(starts))
    _same_restarts(optimize_two_meter(restarts=20, seed=0), reference)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_circuit_search_objective_is_the_public_qttf(seed):
    def public(x):
        return qttf_circuit(x), circuit.value_and_gradient(x)[1]

    starts = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=(3, 12))
    reference = minimize_with_restarts(public, list(starts))
    _same_restarts(optimize_circuit(restarts=3, seed=seed), reference)
