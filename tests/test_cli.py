"""Command-line interface: schemas, determinism, exit codes."""
import csv
import io
import json
import logging
import math

import numpy as np
import pytest

from qtomo.cli import main
from qtomo.estimators import saturated_mle
from qtomo.twometer import REFERENCE_COUPLINGS, TwoMeterModel, qttf_two_meter


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
    code, _ = _run(capsys, ["qttf-sweep", "--theta-min", "-1.0"])
    assert code == 1
    code, _ = _run(capsys, ["qttf-sweep", "--points", "1"])
    assert code == 1


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


def test_capped_mle_warning_names_level_and_logger(capsys):
    # one of the identity suite's five traced R-rho-R runs at seed 20
    # stops at the iteration cap
    code = main(["check-identities", "--seed", "20"])
    captured = capsys.readouterr()
    assert code == 0
    warnings = [
        line for line in captured.err.splitlines()
        if line.startswith(
            "WARNING qtomo.estimators: R-rho-R stopped at the iteration cap"
        )
    ]
    assert len(warnings) == 1
    # the line names the capped input and where the iteration stopped
    assert "frequencies [" in warnings[0]
    assert "final Bloch vector [" in warnings[0]
    # the handler lives for one call only
    assert not logging.getLogger("qtomo").handlers


def test_reproduce_table_validates_id(capsys):
    code, _ = _run(capsys, ["reproduce-table", "--table", "4"])
    assert code == 1


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


def test_check_identities_corrupt_negative_control(tmp_path):
    out_file = tmp_path / "corrupt.json"
    code = main(["check-identities", "--seed", "0", "--corrupt", "--out", str(out_file)])
    assert code == 3
    blob = json.loads(out_file.read_text(), parse_constant=_reject_constant)
    assert blob["all_pass"] is False
    failing = [k for k, v in blob["checks"].items() if not v["pass"]]
    assert "transfer_vs_simulation" in failing


def test_check_identities_raising_check_stays_strict_json(monkeypatch, capsys):
    # a check that raises is a failure (exit 3) with a null deviation, not
    # an Infinity token or a crash
    def broken(theta):
        raise ArithmeticError("broken on purpose")

    monkeypatch.setattr("qtomo.cli.two_design_average", broken)
    code, out = _run(capsys, ["check-identities", "--seed", "0"])
    assert code == 3
    blob = json.loads(out, parse_constant=_reject_constant)
    entry = blob["checks"]["two_design_average"]
    assert entry["max_deviation"] is None
    assert entry["pass"] is False
    assert entry["error"] == "broken on purpose"
    assert blob["all_pass"] is False


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
    ],
)
def test_estimate_rejects_malformed_counts(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    code, _ = _run(capsys, ["estimate", "--counts", str(path)])
    assert code == 1


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


def test_estimate_rejects_zero_shots(capsys):
    code, out = _run(capsys, ["estimate", "--state", "x0", "--shots", "0"])
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("table", [1, 2, 3])
def test_reproduce_table_rejects_zero_shots(capsys, table):
    code, out = _run(
        capsys, ["reproduce-table", "--table", str(table), "--shots", "0"]
    )
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("table", [1, 2, 3])
@pytest.mark.parametrize("repeats", ["0", "1"])
def test_reproduce_table_rejects_too_few_repeats(capsys, table, repeats):
    code = main(["reproduce-table", "--table", str(table), "--repeats", repeats])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "repeats" in captured.err


def test_optimize_json_schema(tmp_path):
    out_file = tmp_path / "opt.json"
    code = main(
        ["optimize", "--model", "two-meter", "--restarts", "2", "--quad", "16",
         "--seed", "0", "--out", str(out_file)]
    )
    assert code == 0
    blob = json.loads(out_file.read_text())
    assert blob["model"] == "two-meter"
    assert len(blob["best_params"]) == 2
    assert len(blob["restarts"]) == 2
    assert blob["best_value"] == min(r["value"] for r in blob["restarts"])
    assert blob["meta"]["quad"] == "16x16"


def test_optimize_defaults_to_exact_qttf(tmp_path):
    out_file = tmp_path / "opt.json"
    code = main(
        ["optimize", "--model", "two-meter", "--restarts", "1", "--seed", "0",
         "--out", str(out_file)]
    )
    assert code == 0
    blob = json.loads(out_file.read_text())
    assert blob["meta"]["quad"] == "exact"
    assert blob["best_value"] == pytest.approx(
        qttf_two_meter(*blob["best_params"]), rel=1e-12
    )
