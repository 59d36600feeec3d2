"""The families' analytic qTTF gradients against the simulated 8x8 oracle.

Each family's value_and_gradient is checked on 200 drawn settings, among
them near-singular and near-zero ones and settings its certificate hands
to the T route, against central differences of the six-state qTTF of T
fitted to 8x8 density-matrix runs (_oracles.six_state_transfer), the
simulated route of acceptance 2.
"""
import math

import numpy as np
import pytest

from qtomo import circuit, model, twometer
from qtomo._oracles import circuit_unitary, joint_unitary, six_state_qttf, six_state_transfer
from qtomo.circuit import qttf_circuit
from qtomo.model import minimize_with_restarts
from qtomo.twometer import qttf_two_meter


def _oracle_qttf(unitaries):
    return six_state_qttf(six_state_transfer(unitaries))


def _oracle_gradients(settings, steps, unitary):
    """Central differences D(h) of the oracle qTTF along each coordinate,
    at steps h, h/2 and h/4, Richardson-extrapolated to order h^6."""
    n, dim = settings.shape
    scales = np.array([1.0, -1.0, 0.5, -0.5, 0.25, -0.25])
    points = settings[:, None, None, :] + (
        steps[:, None, None, None] * scales[None, :, None, None] * np.eye(dim)[None, None]
    )
    values = _oracle_qttf(unitary(points.reshape(-1, dim))).reshape(n, 6, dim)
    d1, d2, d4 = (
        (values[:, k] - values[:, k + 1]) / (2.0 * scales[k] * steps[:, None]) for k in (0, 2, 4)
    )
    r2, r4 = (4.0 * d2 - d1) / 3.0, (4.0 * d4 - d2) / 3.0
    return (16.0 * r4 - r2) / 15.0


def _check_against_oracle(objective, public, settings, unitary):
    """Each value is the public qTTF to the bit, and each gradient is the
    oracle's to 1e-6 of its norm.  Returns how many settings took the T
    route."""
    handed_over = []
    spied = model._qttf_rows_gradient

    def spy(rows):
        handed_over.append(rows)
        return spied(rows)

    values, gradients = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(twometer, "_qttf_rows_gradient", spy)
        patch.setattr(circuit, "_qttf_rows_gradient", spy)
        for x in settings.tolist():
            value, gradient = objective(x)
            assert np.float64(value).tobytes() == np.float64(public(x)).tobytes(), x
            values.append(value)
            gradients.append(gradient)
    gradients = np.array(gradients)
    norms = np.linalg.norm(gradients, axis=1)
    # 3% of the length |qTTF| / |grad| over which the qTTF changes by
    # about itself, and at most 0.03
    steps = 0.03 * np.minimum(1.0, np.abs(values) / norms)
    reference = _oracle_gradients(settings, steps, unitary)
    errors = np.linalg.norm(reference - gradients, axis=1) / norms
    worst = int(np.argmax(errors))
    assert errors[worst] <= 1e-6, (settings[worst], values[worst], errors[worst])
    return len(handed_over)


def _two_meter_settings():
    rng = np.random.default_rng(2024)
    box = rng.uniform(-3.0 * math.pi, 3.0 * math.pi, size=(140, 2))
    # near the singular points (+-2 pi, 0)
    lines = np.column_stack([rng.choice([-2.0, 2.0], size=30) * math.pi, np.zeros(30)])
    lines += rng.normal(size=(30, 2)) * 10.0 ** rng.uniform(-2.0, -1.0, size=(30, 1))
    # one coupling near zero
    near_zero = rng.uniform(-3.0 * math.pi, 3.0 * math.pi, size=(30, 2))
    near_zero[np.arange(30), rng.integers(0, 2, size=30)] = (
        rng.choice([-1.0, 1.0], size=30) * 10.0 ** rng.uniform(-3.0, -1.0, size=30)
    )
    return np.vstack([box, lines, near_zero])


def test_two_meter_gradient_matches_the_simulated_oracle():
    settings = _two_meter_settings()
    handed_over = _check_against_oracle(
        twometer.value_and_gradient,
        lambda x: qttf_two_meter(*x),
        settings,
        lambda points: joint_unitary(points[:, 0], points[:, 1]),
    )
    # the draw reaches the T route's chain, and most of it stays factored
    assert 10 <= handed_over <= 100


def _circuit_settings():
    rng = np.random.default_rng(2025)
    settings = rng.uniform(0.0, 2.0 * math.pi, size=(200, 12))
    # 30 with meter A's k = m_x n_x near 1, and 30 with meter B's: both
    # gates' angles near 0, so that T is near singular
    for rows, gates in ((slice(140, 170), slice(0, 6)), (slice(170, 200), slice(6, 12))):
        settings[rows, gates] = rng.normal(size=(30, 6)) * 10.0 ** rng.uniform(-4.0, -1.0, size=(30, 1))
    return settings


def test_circuit_gradient_matches_the_simulated_oracle():
    handed_over = _check_against_oracle(
        circuit.value_and_gradient, qttf_circuit, _circuit_settings(), circuit_unitary
    )
    assert 10 <= handed_over <= 100


@pytest.mark.parametrize(
    "objective, setting",
    [
        (twometer.value_and_gradient, [0.0, 0.0]),
        (circuit.value_and_gradient, [0.0] * 12),
    ],
    ids=["two-meter", "circuit"],
)
def test_no_gradient_only_where_the_qttf_is_inf(objective, setting):
    assert objective(setting) == (math.inf, None)


@pytest.mark.parametrize(
    "objective, start",
    [
        # a seed-4 start of optimize_two_meter, qTTF 1.5e7
        (twometer.value_and_gradient, [4.26356878e-03, 8.64407245]),
        (circuit.value_and_gradient, [1e-3, 2e-3, -1e-3, 1e-3, 0.0, 2e-3] + [1.0] * 6),
    ],
    ids=["two-meter", "circuit"],
)
def test_a_search_started_on_the_t_route_descends(objective, start):
    # the certificate hands the start to the T route, whose gradient the
    # search follows down to a certified local minimum
    value, gradient = objective(start)
    assert value > 1e5 and gradient is not None
    result = minimize_with_restarts(objective, [np.array(start)])
    assert result.restarts[0].converged
    assert result.value < 30.0
