"""The identity suite's seeded draws and its R-rho-R reference runs."""
import logging
import math

import numpy as np

from qtomo.circuit import REFERENCE_OPTIMUM, circuit_unitary
from qtomo.core import state_from_angles
from qtomo.estimators import MleConfig, rho_r_mle
from qtomo.identities import _PAIRS, _draw, _simulate, identity_suite
from qtomo.twometer import REFERENCE_COUPLINGS, TwoMeterModel, joint_unitary


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
    unitaries = (joint_unitary(*REFERENCE_COUPLINGS), circuit_unitary(REFERENCE_OPTIMUM))
    for seed in range(30):
        drawn = _draw(np.random.default_rng(seed), unitaries)
        couplings, cases, mle_inputs, thetas, binomial, circuit_params = _scalar_draw(
            np.random.default_rng(seed), unitaries
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


def test_capped_reference_runs_are_counted_not_logged(caplog):
    # seed 20 has one reference run at the iteration cap: the suite counts
    # it and logs nothing, and library callers still get the warning
    with caplog.at_level(logging.WARNING, logger="qtomo"):
        assert identity_suite(seed=20)["capped_reference_runs"] == 1
        assert identity_suite(seed=0)["capped_reference_runs"] == 0
    assert not [r for r in caplog.records if "iteration cap" in r.getMessage()]
    assert not logging.getLogger("qtomo.estimators").filters
    tmat = TwoMeterModel(*REFERENCE_COUPLINGS).transfer_matrix()
    with caplog.at_level(logging.WARNING, logger="qtomo.estimators"):
        rho_r_mle(tmat @ np.array([1.0, 0.6, 0.0, 0.8]), tmat, MleConfig(max_iter=5))
    assert len([r for r in caplog.records if "iteration cap" in r.getMessage()]) == 1


def test_raising_reference_runs_report_no_count(monkeypatch):
    from qtomo import identities

    def broken(*args, **kwargs):
        raise ArithmeticError("broken on purpose")

    monkeypatch.setattr(identities, "rho_r_mle", broken)
    suite = identity_suite(seed=0)
    assert suite["capped_reference_runs"] is None
    assert not suite["all_pass"]
    assert not logging.getLogger("qtomo.estimators").filters

