"""Transfer matrices around the condition limit and the float LU's
round-off allowance, read by the model and the estimator tests.

This module imports no scipy, so the estimator tests collect without it.
"""
import numpy as np
import pytest

from qtomo.model import CONDITION_LIMIT


EPS = np.finfo(float).eps

# Allowed error of the float LU, in units of cond(T) * eps on the scale of
# the weighted sum it enters (see test_model._weighted_error).  Measured
# against exact rational arithmetic: at most 0.67 on 1000 two-meter, 0.36
# on 1000 circuit and 0.83 on 1934 cleared random ill-conditioned T, 0.19
# on the cleared cases of _conditioned_transfers; LAPACK's inverse is in
# the same class.
ROUNDOFF = 2.0


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
