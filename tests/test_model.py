"""Shared error pipeline: the singular-model decision and its cheap test."""
import math

import numpy as np
import pytest

from qtomo import twometer
from qtomo.circuit import REFERENCE_OPTIMUM, build_circuit, qttf_circuit
from qtomo.model import (
    CONDITION_LIMIT,
    delta_from_transfer,
    kraus_transfer,
    qttf_from_transfer,
)
from qtomo.twometer import (
    REFERENCE_COUPLINGS,
    joint_unitary,
    qttf_two_meter,
    transfer_matrix,
)


def _orthogonal(rng, first_column=None):
    """Random 4x4 orthogonal matrix, optionally with a given first column."""
    raw = rng.normal(size=(4, 4))
    if first_column is not None:
        raw[:, 0] = first_column
    q, r = np.linalg.qr(raw)
    return q * np.sign(np.diag(r))


def _conditioned_transfers():
    """(T, s): T = U diag(1, 1, 1, 1/c) V^T around the condition limit.

    U's first column is (1, 1, 1, 1)/2 and s = V e_0, so p = T s is 1/2 in
    every outcome and the per-state delta is decided by T alone.
    """
    rng = np.random.default_rng(2024)
    grid = np.concatenate(
        [
            np.logspace(11.0, 13.0, 41),
            np.linspace(CONDITION_LIMIT / 4, 2 * CONDITION_LIMIT, 36),
        ]
    )
    cases = []
    for c in grid:
        u = _orthogonal(rng, first_column=np.ones(4))
        v = _orthogonal(rng)
        tmat = u @ np.diag([1.0, 1.0, 1.0, 1.0 / c]) @ v.T
        cases.append((tmat, v[:, 0]))
    # exactly singular: LU meets a zero pivot, so inv itself raises
    tetra = np.array(
        [[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, -1.0, -1.0],
         [1.0, -1.0, 1.0, -1.0], [1.0, -1.0, -1.0, 1.0]]
    ) / 4.0
    tetra[:, 3] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(tetra)
    cases.append((tetra, np.array([1.0, 0.0, 0.0, 0.0])))
    return cases


def test_singular_decision_is_the_condition_number():
    cases = _conditioned_transfers()
    conds = [np.linalg.cond(tmat) for tmat, _ in cases]
    # the grid reaches both sides of the limit, and of the bound's threshold
    assert min(conds) < CONDITION_LIMIT / 4 and max(conds) > 2 * CONDITION_LIMIT
    assert sum(c < CONDITION_LIMIT for c in conds) >= 20
    for (tmat, s), cond in zip(cases, conds):
        singular = not cond < CONDITION_LIMIT
        qttf = qttf_from_transfer(tmat)
        delta = delta_from_transfer(tmat, s)
        assert math.isinf(qttf) is singular
        assert math.isinf(delta) is singular
        if not singular:
            rows = np.linalg.inv(tmat)[1:, :]
            expected = float(np.einsum("mq,mq,q->", rows, rows, tmat[:, 0]) - 1.0)
            assert qttf == expected  # bit for bit
            p = tmat @ s
            assert delta == float(
                np.einsum("mq,mq,q->", rows, rows, p) - s[1:] @ s[1:]
            )


def test_well_conditioned_qttf_needs_no_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.cond called on the qTTF path")

    monkeypatch.setattr(np.linalg, "cond", no_svd)
    rng = np.random.default_rng(7)
    values = [qttf_two_meter(*REFERENCE_COUPLINGS), qttf_circuit(REFERENCE_OPTIMUM)]
    for theta in rng.uniform(-3 * math.pi, 3 * math.pi, size=(200, 2)):
        values.append(qttf_two_meter(float(theta[0]), float(theta[1])))
    for params in rng.uniform(0.0, 2 * math.pi, size=(200, 12)):
        values.append(qttf_circuit(params))
    assert all(math.isfinite(v) for v in values)


@pytest.mark.parametrize(
    "call",
    [
        lambda: qttf_two_meter(math.nan, 1.0),
        lambda: qttf_circuit([math.nan] + [0.0] * 11),
        lambda: delta_from_transfer(np.full((4, 4), math.nan), np.eye(4)[0]),
    ],
    ids=["two-meter", "circuit", "delta"],
)
def test_non_finite_transfer_matrix_is_rejected(call):
    with pytest.raises(ValueError, match="transfer matrix must be finite"):
        call()


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
        unitaries.append(build_circuit(params).unitary)
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
