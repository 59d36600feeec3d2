"""The edge contract of the array-taking public names.

Each name is called on valid input, drawn as the library documents it,
and on that input with one array argument spoilt: one entry set to NaN,
+inf or -inf, a wrong shape, or a bool or complex dtype.  Every call
either raises ValueError (or a documented qtomo error) or returns a value
with no NaN.  The only infinities allowed are the documented +inf of the
qTTF and of Delta and the -inf of log_likelihood.
"""
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtomo import (
    MeterModel,
    NonInformativeCouplingError,
    SingularInformationError,
    TwoMeterModel,
    bloch_from_state,
    build_circuit,
    check_density,
    delta_from_transfer,
    density_from_bloch,
    fidelity,
    fisher_from_transfer,
    fisher_inverse_single,
    linear_inversion,
    log_likelihood,
    probabilities_single,
    qttf_circuit,
    qttf_from_transfer,
    qttf_two_meter,
    radial_clip,
    rho_r_mle,
    saturated_mle,
)
from qtomo.twometer import transfer_matrix

# ValueError covers NonInvertibleModelError; the other two are documented
# refusals of a state with a vanished outcome and of a blind coupling
REFUSALS = (ValueError, SingularInformationError, NonInformativeCouplingError)


def _bloch(rng, radius_max=1.0):
    """A Bloch 4-vector of radius at most radius_max; one in five on the
    outer sphere."""
    direction = rng.normal(size=3)
    radius = min(radius_max, rng.uniform(0.0, 1.25 * radius_max))
    return np.concatenate([[1.0], radius * direction / np.linalg.norm(direction)])


def _ket(rng):
    ket = rng.normal(size=2) + 1j * rng.normal(size=2)
    return ket / np.linalg.norm(ket)


def _params(rng):
    return rng.uniform(0.0, 2.0 * math.pi, size=12)


def _tmat(rng):
    """T of a two-meter model or a circuit at drawn settings."""
    if rng.integers(2):
        return TwoMeterModel(*rng.uniform(-3.0 * math.pi, 3.0 * math.pi, size=2)).transfer_matrix()
    return build_circuit(_params(rng)).transfer_matrix()


def _estimate_args(rng):
    """Frequencies T @ s of a state in the ball, and T."""
    tmat = _tmat(rng)
    return [tmat @ _bloch(rng), tmat]


def _likelihood_args(rng):
    """Frequencies and model probabilities of two states on one T."""
    tmat = _tmat(rng)
    return [tmat @ _bloch(rng), tmat @ _bloch(rng)]


def _state(rng):
    """A ket or a density matrix, as bloch_from_state takes either."""
    return _ket(rng) if rng.integers(2) else density_from_bloch(_bloch(rng))


def _theta(rng):
    return rng.uniform(0.1, math.pi)


# name -> (function, draw of its valid arguments, indices of its array arguments)
CASES = {
    "density_from_bloch": (density_from_bloch, lambda rng: [_bloch(rng)], (0,)),
    "bloch_from_state": (bloch_from_state, lambda rng: [_state(rng)], (0,)),
    "check_density": (check_density, lambda rng: [density_from_bloch(_bloch(rng))], (0,)),
    "fidelity": (
        fidelity,
        lambda rng: [density_from_bloch(_bloch(rng)), density_from_bloch(_bloch(rng))],
        (0, 1),
    ),
    "probabilities_single": (probabilities_single, lambda rng: [_state(rng), _theta(rng)], (0,)),
    "fisher_inverse_single": (fisher_inverse_single, lambda rng: [_state(rng), _theta(rng)], (0,)),
    "MeterModel": (lambda tmat: MeterModel(params=(), _tmat=tmat), lambda rng: [_tmat(rng)], (0,)),
    "fisher_from_transfer": (fisher_from_transfer, lambda rng: [_tmat(rng), _bloch(rng)], (0, 1)),
    "delta_from_transfer": (delta_from_transfer, lambda rng: [_tmat(rng), _bloch(rng)], (0, 1)),
    "qttf_from_transfer": (qttf_from_transfer, lambda rng: [_tmat(rng)], (0,)),
    "linear_inversion": (linear_inversion, _estimate_args, (0, 1)),
    "saturated_mle": (saturated_mle, _estimate_args, (0, 1)),
    "rho_r_mle": (
        lambda freqs, tmat: rho_r_mle(freqs, tmat, max_iter=20), _estimate_args, (0, 1)
    ),
    "radial_clip": (radial_clip, lambda rng: [_bloch(rng, radius_max=2.0)], (0,)),
    "log_likelihood": (log_likelihood, _likelihood_args, (0, 1)),
    "build_circuit": (build_circuit, lambda rng: [_params(rng)], (0,)),
    "qttf_circuit": (qttf_circuit, lambda rng: [_params(rng)], (0,)),
}

# names whose documented results include +inf, and -inf
PLUS_INF = {"delta_from_transfer", "qttf_from_transfer", "qttf_circuit"}
MINUS_INF = {"log_likelihood"}


def _spoilt(arr: np.ndarray, entry: int) -> list:
    """arr with one entry NaN, +inf or -inf, in wrong shapes and in bool
    and complex dtypes; entry picks the spoilt entry."""
    arr = np.asarray(arr)
    out = []
    for value in (math.nan, math.inf, -math.inf):
        bad = arr.astype(np.result_type(arr, float))
        bad.flat[entry % bad.size] = value
        out.append(bad)
    out += [arr[:-1], np.concatenate([arr, arr[:1]]), arr[None], arr.astype(bool)]
    bad = arr.astype(complex)
    bad.flat[entry % bad.size] += 0.5j
    out.append(bad)
    return out


def _numbers(out) -> np.ndarray:
    """Every number a result carries, as one flat float array."""
    if isinstance(out, MeterModel):
        return np.concatenate([np.ravel(out.params), out.transfer_matrix().ravel()])
    if dataclasses.is_dataclass(out):
        return np.concatenate(
            [_numbers(getattr(out, f.name)) for f in dataclasses.fields(out)]
        )
    values = np.ravel(np.asarray(out))
    return np.concatenate([values.real, values.imag]).astype(float)


def _check(name, func, args):
    try:
        out = func(*args)
    except REFUSALS:
        return
    values = _numbers(out)
    assert not np.isnan(values).any(), (name, args, out)
    if name not in PLUS_INF:
        assert not (values == math.inf).any(), (name, args, out)
    if name not in MINUS_INF:
        assert not (values == -math.inf).any(), (name, args, out)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), entry=st.integers(0, 15))
def test_every_call_refuses_or_returns_no_nan(name, seed, entry):
    # the valid arguments come from a generator seeded by the example
    func, draw, array_args = CASES[name]
    args = draw(np.random.default_rng(seed))
    _check(name, func, args)
    for index in array_args:
        for bad in _spoilt(args[index], entry):
            _check(name, func, [*args[:index], bad, *args[index + 1:]])


_TWO_METER_CALLS = {
    "TwoMeterModel": lambda a, b: TwoMeterModel(a, b).transfer_matrix(),
    "transfer_matrix": transfer_matrix,
    "qttf_two_meter": qttf_two_meter,
}

_BAD_COUPLINGS = {
    "complex": np.complex128(3.45 + 1j),
    "complex-zero-imag": complex(3.45, 0.0),
    "text": "3.45",
    "bytes": b"3.45",
    "nan": math.nan,
    "inf": math.inf,
    "minus-inf": -np.float64(math.inf),
}


@pytest.mark.parametrize("bad", list(_BAD_COUPLINGS))
@pytest.mark.parametrize("index", [0, 1], ids=["theta_a", "theta_b"])
@pytest.mark.parametrize("name", list(_TWO_METER_CALLS))
def test_two_meter_entry_points_refuse_a_coupling_naming_it(name, index, bad):
    # float() read a complex coupling's real part after a ComplexWarning
    # and parsed text and bytes
    couplings = [3.45, -8.42]
    couplings[index] = _BAD_COUPLINGS[bad]
    coupling = ("coupling theta_a", "coupling theta_b")[index]
    with pytest.raises(ValueError, match=f"^{coupling} must be"):
        _TWO_METER_CALLS[name](*couplings)


@pytest.mark.parametrize(
    "couplings",
    [(3.45, -8.42), (np.float64(3.45), np.float32(-8.42)), (3, np.int64(-8)), (True, 2)],
    ids=["float", "numpy-float", "integer", "bool"],
)
@pytest.mark.parametrize("name", list(_TWO_METER_CALLS))
def test_two_meter_entry_points_read_real_numbers(name, couplings):
    out = _TWO_METER_CALLS[name](*couplings)
    expected = _TWO_METER_CALLS[name](*map(float, couplings))
    assert np.asarray(out).tobytes() == np.asarray(expected).tobytes()


def _freqs_and_tmat():
    tmat = TwoMeterModel(3.45, -8.42).transfer_matrix()
    return [tmat @ np.array([1.0, 0.3, -0.5, 0.6]), tmat]


# name -> (function, valid arguments, index of the argument read through
# core._real); the two log_likelihood entries spoil either argument
_REAL_ARRAY_CALLS = {
    "density_from_bloch": (density_from_bloch, [[1.0, 0.3, -0.5, 0.6]], 0),
    "radial_clip": (radial_clip, [[1.0, 0.9, -0.5, 0.6]], 0),
    "build_circuit": (build_circuit, [_params(np.random.default_rng(5))], 0),
    "qttf_circuit": (qttf_circuit, [_params(np.random.default_rng(5))], 0),
    "linear_inversion": (linear_inversion, _freqs_and_tmat(), 0),
    "saturated_mle": (saturated_mle, _freqs_and_tmat(), 0),
    "rho_r_mle": (lambda f, t: rho_r_mle(f, t, max_iter=20), _freqs_and_tmat(), 0),
    "log_likelihood-frequencies": (log_likelihood, [[0.1, 0.2, 0.3, 0.4]] * 2, 0),
    "log_likelihood-model": (log_likelihood, [[0.1, 0.2, 0.3, 0.4]] * 2, 1),
}

_TEXT = {
    "str-list": lambda arr: [str(v) for v in arr.tolist()],
    "str-array": lambda arr: arr.astype(str),
    "bytes-array": lambda arr: arr.astype(bytes),
    "object-str": lambda arr: np.array([*arr.tolist()[:-1], str(arr[-1])], dtype=object),
    "object-bytes": lambda arr: np.array([*arr.tolist()[:-1], b"0.25"], dtype=object),
}


@pytest.mark.parametrize("text", list(_TEXT))
@pytest.mark.parametrize("name", list(_REAL_ARRAY_CALLS))
def test_real_arrays_refuse_text(name, text):
    # astype(float) parsed every entry of a str or bytes array
    func, args, index = _REAL_ARRAY_CALLS[name]
    args = list(args)
    args[index] = _TEXT[text](np.asarray(args[index], dtype=float))
    with pytest.raises(ValueError, match=" must be real, got "):
        func(*args)


_NUMBERS = {
    "list": lambda arr: arr.tolist(),
    "float32": lambda arr: arr.astype(np.float32),
    "object-floats": lambda arr: arr.astype(object),
    "object-mixed": lambda arr: np.array([*arr.tolist()[:-1], np.float64(arr[-1])], dtype=object),
    "integers": lambda arr: np.round(8.0 * arr).astype(int),
}


@pytest.mark.parametrize("numbers", list(_NUMBERS))
@pytest.mark.parametrize("name", list(_REAL_ARRAY_CALLS))
def test_real_arrays_read_numbers_as_their_float_array(name, numbers):
    # every non-text input reads as its float64 cast, bit for bit
    func, args, index = _REAL_ARRAY_CALLS[name]
    args = list(args)
    given = _NUMBERS[numbers](np.asarray(args[index], dtype=float))
    args[index] = given
    expected = list(args)
    expected[index] = np.asarray(given).astype(float)
    try:
        out = func(*args)
    except REFUSALS as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            func(*expected)
        return
    assert _numbers(out).tobytes() == _numbers(func(*expected)).tobytes()
