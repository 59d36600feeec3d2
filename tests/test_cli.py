"""Command-line interface: schemas, determinism, exit codes."""
import csv
import io
import json
import logging
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qtomo
from qtomo import cli
from qtomo.circuit import REFERENCE_OPTIMUM, build_circuit
from qtomo.cli import main
from qtomo.estimators import rho_r_mle, saturated_mle
from qtomo.twometer import REFERENCE_COUPLINGS, TwoMeterModel, qttf_two_meter


# the source directory of the qtomo package these tests import
SRC = os.path.dirname(os.path.dirname(qtomo.__file__))


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _parse_csv(text):
    meta = {}
    lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif line:
            lines.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    return meta, rows[0], rows[1:]


_ZERO_PARAMS = ["0"] * 12

# (argv, flag): each bad flag value exits 1 through the parser, naming its flag
REFUSALS = [
    ("reproduce-table --table 1 --seed -1", "--seed"),
    ("estimate --state x0 --shots 0", "--shots"),
    ("estimate --state x0 --shots 9223372036854775808", "--shots"),
    ("reproduce-table --table 1 --repeats 1", "--repeats"),
    ("qttf-sweep --points 1", "--points"),
    ("optimize --model two-meter --restarts 0", "--restarts"),
    ("estimate --theta-a nan --state x0", "--theta-a"),
    ("qttf-sweep --theta-min inf", "--theta-min"),
    ("estimate --model circuit --params 1,2 --state x0", "--params"),
    ("estimate --state a,b", "--state"),
    ("estimate --state 3,0", "--state"),
    ("reproduce-table --table 4", "--table"),
]


def _exits_1(capsys, argv, *, by_parser):
    """stderr of argv, which must exit 1 with nothing on stdout and no
    RuntimeWarning: a bad flag value through the parser (SystemExit after
    the usage line), a bad combination of flags from its command."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if by_parser:
            with pytest.raises(SystemExit) as err:
                main(argv)
            code = err.value.code
        else:
            code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if by_parser:
        assert captured.err.startswith(f"usage: qtomo {argv[0]}")
    return captured.err


@pytest.mark.parametrize("argv, flag", REFUSALS, ids=[argv for argv, _ in REFUSALS])
def test_bad_flag_value_exits_1_naming_the_flag(capsys, argv, flag):
    err = _exits_1(capsys, argv.split(), by_parser=True)
    assert f"qtomo {argv.split()[0]}: error: argument {flag}: " in err


def test_estimate_takes_the_largest_shot_count(capsys):
    # 2**63 - 1 is the largest count numpy's multinomial sampler accepts
    code, out = _run(capsys, ["estimate", "--state", "x0", "--shots", str(2**63 - 1)])
    assert code == 0
    assert json.loads(out)["source"]["shots"] == 2**63 - 1


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def test_qttf_sweep_schema_and_values(capsys):
    code, out = _run(
        capsys, ["qttf-sweep", "--theta-min", "0.5", "--theta-max", str(math.pi),
                 "--points", "7"]
    )
    assert code == 0
    meta, header, rows = _parse_csv(out)
    assert header == ["theta", "qttf", "max_error"]
    assert meta["version"]
    assert len(rows) == 7
    last = rows[-1]
    assert float(last[0]) == pytest.approx(math.pi, abs=1e-9)
    assert float(last[1]) == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert float(last[2]) == pytest.approx(1.0, abs=1e-9)


def test_qttf_sweep_rejects_bad_grid(capsys):
    err = _exits_1(capsys, ["qttf-sweep", "--theta-min", "-1.0"], by_parser=False)
    assert err == (
        "error: need 0 < --theta-min <= --theta-max <= pi, got --theta-min -1.0 "
        "and --theta-max 3.141592653589793\n"
    )
    err = _exits_1(capsys, ["qttf-sweep", "--points", "1"], by_parser=True)
    assert "argument --points: must be an integer of at least 2, got 1\n" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--theta-max", "inf"], "argument --theta-max: must be a finite real number, got inf"),
        (["--theta-max", "nan"], "argument --theta-max: must be a finite real number, got nan"),
        (["--theta-max", "4.0"], "error: need 0 < --theta-min <= --theta-max <= pi, got "
                                 "--theta-min 0.1 and --theta-max 4.0"),
        (["--theta-min", "nan"], "argument --theta-min: must be a finite real number, got nan"),
        (["--theta-min=-inf"], "argument --theta-min: must be a finite real number, got -inf"),
        (["--theta-min", "1e-7", "--theta-max", "1e-6"],
         "error: --theta-min 1e-07 gives the meter no sensitivity"),
    ],
    ids=["max-inf", "max-nan", "max-above-pi", "min-nan", "min-minus-inf", "min-no-sensitivity"],
)
def test_qttf_sweep_rejects_bad_bound_naming_its_flag(capsys, argv, message):
    # a non-finite bound is refused where it is parsed, before np.linspace
    # could warn and hand NaN thetas on; a theta-min where the qTTF is inf
    # printed inf cells
    by_parser = message.startswith("argument")
    err = _exits_1(capsys, ["qttf-sweep", *argv, "--points", "3"], by_parser=by_parser)
    assert message in err


def test_bad_usage_exits_1():
    with pytest.raises(SystemExit) as err:
        main(["optimize", "--model", "bogus"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 1


def test_reproduce_table_1(capsys):
    code, out = _run(capsys, ["reproduce-table", "--table", "1"])
    assert code == 0
    meta, header, rows = _parse_csv(out)
    assert header == ["theta", "state", "truth", "mean", "std", "pass"]
    assert len(rows) == 18
    assert all(row[-1] == "true" for row in rows)
    assert meta["seed"] == "1"
    # the noiseless row: z0 at theta = pi
    z0_pi = [r for r in rows if r[1] == "z0" and abs(float(r[0]) - math.pi) < 1e-9]
    assert z0_pi[0][3] == "1.000000" and z0_pi[0][4] == "0.000000"


@pytest.mark.parametrize("table", [2, 3])
def test_reproduce_full_tables(capsys, table):
    code, out = _run(capsys, ["reproduce-table", "--table", str(table)])
    assert code == 0
    _, header, rows = _parse_csv(out)
    assert header[0] == "state" and header[-2:] == ["fidelity", "pass"]
    assert len(rows) == 6
    assert all(row[-1] == "true" for row in rows)
    assert all(float(row[-2]) >= 0.995 for row in rows)


_TABLE_2_PREAMBLE = (
    "# version: 0.1.0\n"
    "# command: reproduce-table 2\n"
    "# seed: 1\n"
    "# shots: 1024\n"
    "# repeats: 5\n"
    "state,truth_x,truth_y,truth_z,mean_x,mean_y,mean_z,std_x,std_y,std_z,fidelity,pass\r\n"
)

# reproduce-table --table 2 at the default seed, byte for byte (the csv
# module ends rows with \r\n), from the exact saturated-model MLE
TABLE_2_DEFAULT_SEED = _TABLE_2_PREAMBLE + (
    "z0,0.000000,0.000000,1.000000,0.009963,-0.013774,0.955212,0.066083,0.041154,0.042298,0.999921,true\r\n"
    "z1,0.000000,0.000000,-1.000000,-0.089480,0.061378,-0.942752,0.065049,0.046780,0.054403,0.996721,true\r\n"
    "x0,1.000000,0.000000,0.000000,0.964605,-0.008383,0.024790,0.051449,0.094511,0.052548,0.999816,true\r\n"
    "x1,-1.000000,0.000000,0.000000,-0.994506,0.005265,-0.002632,0.005307,0.099670,0.060759,0.999991,true\r\n"
    "y0,0.000000,1.000000,0.000000,0.003935,0.990317,-0.055296,0.067204,0.008141,0.085314,0.999218,true\r\n"
    "y1,0.000000,-1.000000,0.000000,-0.002448,-0.970816,-0.005516,0.070201,0.035794,0.067474,0.999990,true\r\n"
)

# the same table from R-rho-R, whose estimate for one y0 repeat stops at
# the iteration cap
TABLE_2_RHO_R = _TABLE_2_PREAMBLE + (
    "z0,0.000000,0.000000,1.000000,0.009963,-0.013774,0.955212,0.066083,0.041154,0.042298,0.999921,true\r\n"
    "z1,0.000000,0.000000,-1.000000,-0.089480,0.061378,-0.942752,0.065049,0.046780,0.054403,0.996721,true\r\n"
    "x0,1.000000,0.000000,0.000000,0.964605,-0.008383,0.024790,0.051449,0.094511,0.052548,0.999816,true\r\n"
    "x1,-1.000000,0.000000,0.000000,-0.994506,0.005265,-0.002632,0.005307,0.099670,0.060759,0.999991,true\r\n"
    "y0,0.000000,1.000000,0.000000,0.003938,0.990313,-0.055299,0.067204,0.008137,0.085314,0.999218,true\r\n"
    "y1,0.000000,-1.000000,0.000000,-0.002448,-0.970816,-0.005516,0.070201,0.035794,0.067474,0.999990,true\r\n"
)


def test_table_2_default_seed_golden(capsys):
    code = main(["reproduce-table", "--table", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == TABLE_2_DEFAULT_SEED
    assert captured.err == ""  # the exact MLE converges on every repeat
    # within 1e-5 of the R-rho-R table, cell by cell
    _, header, rows = _parse_csv(captured.out)
    _, ref_header, ref_rows = _parse_csv(TABLE_2_RHO_R)
    assert header == ref_header and len(rows) == len(ref_rows) == 6
    for row, ref in zip(rows, ref_rows):
        assert row[0] == ref[0] and row[-1] == ref[-1] == "true"
        for cell, ref_cell in zip(row[1:-1], ref[1:-1]):
            assert float(cell) == pytest.approx(float(ref_cell), abs=1e-5)


def test_capped_mle_warning_names_level_and_logger(capsys, monkeypatch):
    # a library R-rho-R run that stops at the iteration cap during a CLI
    # call is printed with its level and logger name
    tmat = TwoMeterModel(*REFERENCE_COUPLINGS).transfer_matrix()
    pure = np.array([1.0, 0.6, 0.0, 0.8])

    def capped_suite(seed, corrupt):
        rho_r_mle(tmat @ pure, tmat, max_iter=5)
        return {"checks": {}, "all_pass": True, "capped_reference_runs": 0}

    monkeypatch.setattr(cli, "identity_suite", capped_suite)
    code = main(["check-identities", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 0
    warnings = [
        line for line in captured.err.splitlines()
        if line.startswith(
            "WARNING qtomo.estimators: R-rho-R stopped at the iteration cap (5)"
        )
    ]
    assert len(warnings) == 1
    # the line names the capped input and where the iteration stopped
    assert "frequencies [" in warnings[0]
    assert "final Bloch vector [" in warnings[0]
    # the handler lives for one call only
    assert not logging.getLogger("qtomo").handlers


def test_check_identities_counts_capped_reference_runs_quietly(capsys):
    # one of the identity suite's five R-rho-R reference runs at seed 37
    # stops at the suite's 300-iteration cap before its certified gap
    # reaches 1e-5, and none at seed 0; the suite passes on the certified
    # gap, reports the runs and the gap, and writes nothing to stderr
    code = main(["check-identities", "--seed", "37"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    blob = json.loads(captured.out)
    assert blob["all_pass"] is True
    assert blob["capped_reference_runs"] == 1
    assert 1e-5 < blob["reference_gap_bound"] < 1e-4
    code, out = _run(capsys, ["check-identities", "--seed", "0"])
    assert code == 0 and json.loads(out)["capped_reference_runs"] == 0


def test_reproduce_table_validates_id(capsys):
    err = _exits_1(capsys, ["reproduce-table", "--table", "4"], by_parser=True)
    assert "argument --table: invalid choice: 4 (choose from 1, 2, 3)" in err


def test_reproduce_table_deterministic(capsys):
    _, first = _run(capsys, ["reproduce-table", "--table", "3", "--seed", "9"])
    _, second = _run(capsys, ["reproduce-table", "--table", "3", "--seed", "9"])
    assert first == second


def test_check_identities_passes_and_writes_file(tmp_path, capsys):
    out_file = tmp_path / "checks.json"
    code = main(["check-identities", "--seed", "0", "--out", str(out_file)])
    assert code == 0
    blob = json.loads(out_file.read_text())
    assert blob["all_pass"] is True
    assert "coefficients_vs_trace" in blob["checks"]
    assert all(v["max_deviation"] <= v["tolerance"] for v in blob["checks"].values())
    assert "qttf_exact_vs_quadrature" in blob["checks"]
    assert list(blob["checks"])[-1] == "circuit_transfer_vs_kraus"


def test_check_identities_corrupt_negative_control(tmp_path):
    out_file = tmp_path / "corrupt.json"
    code = main(["check-identities", "--seed", "0", "--corrupt", "--out", str(out_file)])
    assert code == 3
    blob = json.loads(out_file.read_text(), parse_constant=_reject_constant)
    assert blob["all_pass"] is False
    failing = [k for k, v in blob["checks"].items() if not v["pass"]]
    assert "transfer_vs_simulation" in failing


@pytest.mark.parametrize("seed", [0, 3])
def test_check_identities_corrupt_writes_nothing_to_stderr(capsys, seed):
    # at seeds 0 and 3 two exact MLE runs on the corrupted T end without
    # their KKT certificate; the check's KKT terms fail them, so the
    # negative control exits 3 as quietly as a passing run
    code = main(["check-identities", "--seed", str(seed), "--corrupt"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == ""
    assert not json.loads(captured.out)["checks"]["mle_exact_vs_rho_r"]["pass"]


def test_check_identities_raising_check_stays_strict_json(monkeypatch, capsys):
    # a check that raises is a failure (exit 3) with a null deviation, not
    # an Infinity token or a crash; every other check keeps its inputs and
    # result, and a shared oracle that raised is never run again
    _, clean = _run(capsys, ["check-identities", "--seed", "0"])
    expected = json.loads(clean)["checks"]
    for name, failing in (
        ("two_design_average", ["two_design_average"]),
        ("rho_r_mle", ["mle_likelihood_monotone", "mle_physicality", "mle_exact_vs_rho_r"]),
    ):
        calls = []

        def broken(*args, **kwargs):
            calls.append(args)
            raise ArithmeticError("broken on purpose")

        with monkeypatch.context() as patch:
            patch.setattr(f"qtomo.identities.{name}", broken)
            code, out = _run(capsys, ["check-identities", "--seed", "0"])
        assert code == 3
        assert len(calls) == 1, name
        blob = json.loads(out, parse_constant=_reject_constant)
        assert blob["all_pass"] is False
        assert list(blob["checks"]) == list(expected)
        for check, entry in blob["checks"].items():
            if check not in failing:
                assert entry == expected[check], (name, check)
        errors = [blob["checks"][check].pop("error") for check in failing]
        assert errors[0] == "broken on purpose"
        for error in errors[1:]:
            assert error == "shared oracle 'R-rho-R runs' raised: broken on purpose"
        for check in failing:
            assert blob["checks"][check] == {
                "max_deviation": None, "tolerance": expected[check]["tolerance"], "pass": False
            }


def test_estimate_from_sampling_spec(capsys):
    code, out = _run(
        capsys,
        ["estimate", "--model", "two-meter", "--state", "x0", "--shots", "4096",
         "--seed", "3"],
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["estimator"] == "mle"
    assert blob["physical"] is True
    assert blob["fidelity"] > 0.99
    assert blob["diagnostics"]["iterations"] >= 1


def test_estimate_mle_is_the_exact_solver(tmp_path, capsys):
    # one live outcome: the estimate sits on the sphere, found by the
    # exact solver in a few linear solves with nothing floored
    counts = {"outcomes": [0, 0, 1024, 0], "shots": 1024}
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(counts))
    code, out = _run(capsys, ["estimate", "--counts", str(path)])
    assert code == 0
    blob = json.loads(out)
    expected = saturated_mle(
        np.array([0.0, 0.0, 1.0, 0.0]), TwoMeterModel(*REFERENCE_COUPLINGS).transfer_matrix()
    )
    assert blob["bloch"] == expected.bloch.tolist()
    diagnostics = blob["diagnostics"]
    assert diagnostics["converged"] is True
    assert diagnostics["iterations"] == expected.iterations > 1
    assert diagnostics["floored_probabilities"] == 0


@pytest.mark.parametrize("estimator", ["linear", "mle"])
@pytest.mark.parametrize("model", ["two-meter", "circuit"])
def test_estimate_reports_the_condition_number(capsys, model, estimator):
    # the one place cond(T) is reported; the estimators never compute it
    code, out = _run(
        capsys, ["estimate", "--model", model, "--estimator", estimator, "--state", "x0"]
    )
    assert code == 0
    if model == "two-meter":
        tmat = TwoMeterModel(*REFERENCE_COUPLINGS).transfer_matrix()
    else:
        tmat = build_circuit(REFERENCE_OPTIMUM).transfer_matrix()
    diagnostics = json.loads(out)["diagnostics"]
    assert diagnostics["condition_number"] == float(np.linalg.cond(tmat))


def test_estimate_exact_mode_recovers_state(capsys):
    code, out = _run(
        capsys,
        ["estimate", "--model", "circuit", "--state", "0.7,0.3", "--exact",
         "--estimator", "linear"],
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert blob["diagnostics"]["s0_deviation"] < 1e-12


def test_estimate_from_counts_file(tmp_path, capsys):
    counts = {"outcomes": [500, 151, 200, 173], "shots": 1024}
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(counts))
    code, out = _run(capsys, ["estimate", "--counts", str(path)])
    assert code == 0
    blob = json.loads(out)
    assert blob["fidelity"] is None  # no truth given
    assert len(blob["bloch"]) == 4


@pytest.mark.parametrize(
    "payload",
    [
        '{"outcomes": [1, 2, 3], "shots": 6}',
        '{"outcomes": [1, 2, 3, "x"], "shots": 6}',
        '{"outcomes": [100, 0, 0, 0], "shots": 99}',
        "not json",
        "[1, 2, 3, 4]",
        '{"outcomes": [true, false, false, false]}',
        '{"outcomes": [5, 2, 2, 1], "shots": 10.0}',
    ],
)
def test_estimate_rejects_malformed_counts(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    code = main(["estimate", "--counts", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "params", ["", "a," + ",".join(_ZERO_PARAMS[1:]), "1,2"], ids=["empty", "non-numeric", "short"]
)
def test_estimate_rejects_malformed_params(capsys, params):
    # an empty --params is bad input, not a silent fall-back to the reference
    argv = ["estimate", "--model", "circuit", "--params", params, "--state", "x0"]
    err = _exits_1(capsys, argv, by_parser=True)
    assert f"argument --params: expected 12 comma-separated reals, got {params!r}" in err


def test_estimate_requires_some_input(capsys):
    code, _ = _run(capsys, ["estimate"])
    assert code == 1


@pytest.mark.parametrize("estimator", ["linear", "mle"])
def test_estimate_singular_model_exits_2(capsys, estimator):
    code, out = _run(
        capsys,
        ["estimate", "--theta-a", "0", "--theta-b", "0", "--state", "z0",
         "--estimator", estimator],
    )
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("estimator", ["linear", "mle"])
def test_estimate_sampling_from_singular_model_exits_2(capsys, estimator):
    # at theta_A = 2 pi T is singular and T @ S carries a round-off negative
    # probability, which must not reach the sampler as invalid input
    code = main(
        ["estimate", "--model", "two-meter", "--theta-a", repr(2.0 * math.pi),
         "--theta-b", "0", "--state", "0.3,0.2", "--estimator", estimator]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("numerical failure:")


@pytest.mark.parametrize(
    "argv, flag, model",
    [
        (["--model", "two-meter", "--params", ",".join(_ZERO_PARAMS)], "--params", "circuit"),
        (["--model", "circuit", "--theta-a", "1"], "--theta-a", "two-meter"),
        (["--model", "circuit", "--theta-b", "1"], "--theta-b", "two-meter"),
    ],
)
def test_estimate_rejects_flags_of_the_other_model(capsys, argv, flag, model):
    code = main(["estimate", *argv, "--state", "0.3,0.2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"{flag} applies to --model {model} only" in captured.err



@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--theta-a", "nan", "--theta-b", "1"], "--theta-a"),
        (["--theta-a", "inf", "--theta-b", "1"], "--theta-a"),
        (["--theta-b=-inf"], "--theta-b"),
        (["--theta-b", "nan"], "--theta-b"),
        (["--model", "circuit", "--params", ",".join(["nan"] + _ZERO_PARAMS[1:])],
         "--params"),
        (["--model", "circuit", "--params", ",".join(_ZERO_PARAMS[1:] + ["-inf"])],
         "--params"),
    ],
    ids=["theta-a-nan", "theta-a-inf", "theta-b-minus-inf", "theta-b-nan",
         "params-nan", "params-inf"],
)
@pytest.mark.parametrize("estimator", ["linear", "mle"])
@pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
def test_estimate_rejects_non_finite_model_flags(capsys, argv, flag, estimator, exact):
    # a NaN or infinite coupling is bad input naming its flag, not a numpy
    # SVD or math-domain failure with RuntimeWarnings on the way
    argv = ["estimate", *argv, "--state", "0.3,0.2", "--estimator", estimator]
    err = _exits_1(capsys, argv + ["--exact"] if exact else argv, by_parser=True)
    assert f"argument {flag}: " in err
    assert "finite" in err


def test_estimate_rejects_zero_shots(capsys):
    err = _exits_1(capsys, ["estimate", "--state", "x0", "--shots", "0"], by_parser=True)
    assert "argument --shots: must be an integer of at least 1 and at most " in err


@pytest.mark.parametrize("table", [1, 2, 3])
def test_reproduce_table_rejects_zero_shots(capsys, table):
    argv = ["reproduce-table", "--table", str(table), "--shots", "0"]
    assert "argument --shots: " in _exits_1(capsys, argv, by_parser=True)


@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce-table", "--table", "1"],
        ["check-identities"],
        ["estimate", "--state", "x0"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_exits_1_naming_the_flag(capsys, argv):
    # numpy refused it later with a bare "expected non-negative integer"
    err = _exits_1(capsys, [*argv, "--seed", "-1"], by_parser=True)
    assert "argument --seed: must be an integer of at least 0, got -1" in err


def test_seed_beyond_32_bits_reproduces_table_1(capsys):
    # 2^32 spans two 32-bit words: the substreams take numpy's list path
    code = main(["reproduce-table", "--table", "1", "--seed", str(2**32)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert "# seed: 4294967296\n" in captured.out


@pytest.mark.parametrize("table", [1, 2, 3])
@pytest.mark.parametrize("repeats", ["0", "1"])
def test_reproduce_table_rejects_too_few_repeats(capsys, table, repeats):
    argv = ["reproduce-table", "--table", str(table), "--repeats", repeats]
    assert "argument --repeats: " in _exits_1(capsys, argv, by_parser=True)


@pytest.mark.parametrize("repeats", ["-3", "0", "1"])
def test_reproduce_table_names_the_repeats_flag(capsys, repeats):
    # the parser's check, in the form of --shots, not the library's
    # message naming the harness argument
    argv = ["reproduce-table", "--table", "1", "--repeats", repeats]
    err = _exits_1(capsys, argv, by_parser=True)
    assert err.endswith(
        f"error: argument --repeats: must be an integer of at least 2, got {repeats}\n"
    )
    # the parser names the first bad flag on the command line
    argv = ["reproduce-table", "--table", "2", "--shots", "0", "--repeats", repeats]
    assert "error: argument --shots: " in _exits_1(capsys, argv, by_parser=True)


def test_optimize_json_schema(tmp_path):
    out_file = tmp_path / "opt.json"
    code = main(
        ["optimize", "--model", "two-meter", "--restarts", "2", "--seed", "0",
         "--out", str(out_file)]
    )
    assert code == 0
    blob = json.loads(out_file.read_text())
    assert blob["model"] == "two-meter"
    assert len(blob["best_params"]) == 2
    assert len(blob["restarts"]) == 2
    assert blob["best_value"] == min(r["value"] for r in blob["restarts"])


def test_optimize_default_restarts_are_the_library_defaults(tmp_path):
    out_file = tmp_path / "opt.json"
    code = main(["optimize", "--model", "two-meter", "--seed", "0", "--out", str(out_file)])
    assert code == 0
    assert len(json.loads(out_file.read_text())["restarts"]) == 20


@pytest.mark.parametrize("model", ["two-meter", "circuit"])
def test_optimize_reports_gap_to_bound(tmp_path, model):
    # no four-outcome measurement goes below a qTTF of 8
    out_file = tmp_path / "opt.json"
    code = main(
        ["optimize", "--model", model, "--restarts", "1", "--seed", "0",
         "--out", str(out_file)]
    )
    assert code == 0
    blob = json.loads(out_file.read_text(), parse_constant=_reject_constant)
    assert blob["gap_to_bound"] == blob["best_value"] - 8.0
    assert blob["gap_to_bound"] >= -1e-9


def test_optimize_exits_2_when_the_objective_is_singular_everywhere(capsys, monkeypatch):
    from qtomo.model import OptimizationResult

    def singular(**kwargs):
        return OptimizationResult(params=np.zeros(2), value=math.inf, restarts=())

    monkeypatch.setattr(cli, "optimize_two_meter", singular)
    assert main(["optimize", "--model", "two-meter", "--restarts", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "optimization failed: objective singular everywhere\n"


def test_optimize_reports_a_restart_without_finite_value_as_null(capsys, monkeypatch):
    # one restart started at (0, 0), where the qTTF is inf, beside one at
    # the reference couplings: the run still reports its finite best
    # value, in strict JSON
    from qtomo import twometer
    from qtomo.model import minimize_with_restarts

    def two_starts(**kwargs):
        starts = [np.zeros(2), np.array(REFERENCE_COUPLINGS)]
        return minimize_with_restarts(twometer.value_and_gradient, starts)

    monkeypatch.setattr(cli, "optimize_two_meter", two_starts)
    code, out = _run(capsys, ["optimize", "--model", "two-meter"])
    assert code == 0
    blob = json.loads(out, parse_constant=_reject_constant)
    singular, reference = blob["restarts"]
    assert singular["value"] is None and singular["gradient_norm"] is None
    assert not singular["converged"]
    assert blob["best_value"] == reference["value"] < 20.0
    assert reference["gradient_norm"] <= 1e-6 * reference["value"]


def test_optimize_reports_evaluations_and_time(tmp_path):
    out_file = tmp_path / "opt.json"
    code = main(
        ["optimize", "--model", "circuit", "--restarts", "2", "--seed", "0",
         "--out", str(out_file)]
    )
    assert code == 0
    blob = json.loads(out_file.read_text(), parse_constant=_reject_constant)
    assert len(blob["restarts"]) == 2
    for restart in blob["restarts"]:
        assert restart["evaluations"] >= restart["iterations"] >= 1
        assert restart["seconds"] >= 0.0


def test_optimize_is_reproducible_but_for_restart_seconds(tmp_path):
    # the per-restart wall time is the only field that differs between
    # two runs with the same seed
    blobs = []
    for run in range(2):
        out_file = tmp_path / f"opt{run}.json"
        code = main(
            ["optimize", "--model", "two-meter", "--restarts", "2", "--seed", "0",
             "--out", str(out_file)]
        )
        assert code == 0
        blob = json.loads(out_file.read_text(), parse_constant=_reject_constant)
        for restart in blob["restarts"]:
            assert restart.pop("seconds") >= 0.0
        blobs.append(blob)
    assert blobs[0] == blobs[1]


def test_main_reuses_one_parser_per_process(capsys):
    # main parses with one parser per process; reusing it must not carry
    # state from call to call
    sweep = ["qttf-sweep", "--points", "3"]
    estimate = ["estimate", "--state", "x0", "--exact", "--estimator", "linear"]
    qtomo_logger = logging.getLogger("qtomo")

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert not qtomo_logger.handlers
        return code, captured.out

    firsts = {}
    for argv in (sweep, estimate):
        cli._parser.cache_clear()
        firsts[argv[0]] = run(argv)
        assert firsts[argv[0]][0] == 0
    assert cli._parser() is cli._parser()
    # each subcommand after the other gives what it gave as the first call
    for argv in (sweep, estimate, sweep, estimate):
        assert run(argv) == firsts[argv[0]]

    # a good call, then bad usage: exit 1 with the usage on stderr
    assert run(sweep)[0] == 0
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--estimator", "bogus"])
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qtomo estimate")
    assert "invalid choice: 'bogus'" in captured.err

    # --version prints to the stdout of this call
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out == f"qtomo {qtomo.__version__}\n"
    assert run(estimate) == firsts["estimate"]


def _fresh_interpreter(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_does_not_load_the_identity_suite():
    # `import qtomo` leaves the suite and its reference rule unbuilt
    code = "import sys, qtomo; print('qtomo.identities' in sys.modules)"
    assert _fresh_interpreter(code) == "False"
    assert cli.identity_suite.__module__ == "qtomo.identities"


def test_production_imports_leave_the_oracles_unloaded():
    code = (
        "import sys, qtomo.model, qtomo.twometer, qtomo.circuit, qtomo.estimators, "
        "qtomo.harness; print('qtomo._oracles' in sys.modules)"
    )
    assert _fresh_interpreter(code) == "False"


def test_import_loads_no_submodule():
    code = "import sys, qtomo; print([m for m in sys.modules if m.startswith('qtomo.')])"
    assert _fresh_interpreter(code) == "[]"


def test_setup_loads_only_the_layers_it_reads():
    # the calls every program makes first (the benchmark's set-up launch):
    # the 64x64 rule and both reference transfer matrices
    code = (
        "import sys, qtomo\n"
        "from qtomo.model import default_rule\n"
        "default_rule()\n"
        "qtomo.TwoMeterModel(*qtomo.REFERENCE_COUPLINGS).transfer_matrix()\n"
        "qtomo.build_circuit(qtomo.REFERENCE_OPTIMUM).transfer_matrix()\n"
        "unused = ('qtomo.harness', 'qtomo.estimators', 'qtomo.single', 'qtomo.identities',\n"
        "          'logging', 'concurrent.futures')\n"
        "print([m for m in unused if m in sys.modules])\n"
    )
    assert _fresh_interpreter(code) == "[]"


def test_every_public_name_resolves_on_first_use():
    # each name is the object its submodule defines, read first by
    # getattr in one process and by a star import in another
    code = (
        "import importlib, qtomo\n"
        "homes = [importlib.import_module('qtomo.' + m) for m in\n"
        "         ('core', 'single', 'model', 'twometer', 'circuit', 'estimators', 'harness')]\n"
        "wrong = [n for n in qtomo.__all__ if n != '__version__' and not any(\n"
        "         n in vars(h) and getattr(qtomo, n) is vars(h)[n] for h in homes)]\n"
        "print(wrong, all(n in vars(qtomo) for n in qtomo.__all__))\n"
    )
    assert _fresh_interpreter(code) == "[] True"
    code = (
        "from qtomo import *\n"
        "import qtomo\n"
        "print([n for n in qtomo.__all__ if globals().get(n) is not getattr(qtomo, n)])\n"
    )
    assert _fresh_interpreter(code) == "[]"
    code = "import qtomo; print(qtomo.harness.__name__, qtomo.cli.main.__module__)"
    assert _fresh_interpreter(code) == "qtomo.harness qtomo.cli"


def test_package_dir_and_unknown_names():
    assert set(qtomo.__all__) <= set(dir(qtomo))
    with pytest.raises(AttributeError, match="'no_such_name'"):
        qtomo.no_such_name
    assert not hasattr(qtomo, "no_such_name")


def test_import_does_not_load_scipy():
    # scipy is not a runtime dependency: importing qtomo and running both
    # optimizers leave it unloaded
    code = "import sys, qtomo, qtomo.cli; print('scipy' in sys.modules)"
    assert _fresh_interpreter(code) == "False"
    code = (
        "import sys, qtomo; qtomo.optimize_two_meter(restarts=1); "
        "qtomo.optimize_circuit(restarts=1); print('scipy' in sys.modules)"
    )
    assert _fresh_interpreter(code) == "False"


def test_optimize_defaults_to_exact_qttf(tmp_path):
    out_file = tmp_path / "opt.json"
    code = main(
        ["optimize", "--model", "two-meter", "--restarts", "1", "--seed", "0",
         "--out", str(out_file)]
    )
    assert code == 0
    blob = json.loads(out_file.read_text())
    assert "quad" not in blob["meta"]
    assert blob["best_value"] == pytest.approx(
        qttf_two_meter(*blob["best_params"]), rel=1e-12
    )


def test_optimize_has_no_quadrature_flag(capsys):
    # the objective is always the exact qTTF; the quadrature is an oracle
    with pytest.raises(SystemExit) as err:
        main(["optimize", "--model", "two-meter", "--quad", "16"])
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qtomo ")
    assert "error: unrecognized arguments: --quad 16" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["qttf-sweep", "--points", "3", "--format", "csv"],
        ["optimize", "--model", "circuit", "--restarts", "1", "--format", "json"],
        ["reproduce-table", "--table", "1", "--format", "csv"],
        ["check-identities", "--format", "json"],
        ["estimate", "--state", "x0", "--format", "json"],
        ["qttf-sweep", "--points", "3", "--model", "single"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_one_valued_flags_are_gone(argv, capsys):
    # each subcommand emits one format and qttf-sweep has one model, so
    # neither flag is accepted
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qtomo ")
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in captured.err
