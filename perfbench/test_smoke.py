"""Smoke check of the benchmark itself, at a tiny size.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Each workload must print every metric named in BENCHMARK.json with its
unit, fail no op at a correct program, and count a deliberately corrupted
output as a failure.  Without qtomo's sources next to it, the benchmark
must exit non-zero without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*extra, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return lines[:-1], result


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_no_op_fails(workload, trace, key):
    lines, result = result_of(bench("--workload", workload, "--seed", "3", "--trace", str(trace)))
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert "failed_frac 0.0 ratio" in "\n".join(lines)
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    printed = {name: {"value": value, "unit": unit}
               for name, value, unit in (line.split()[:3] for line in lines
                                         if line.split()[0] in expected)}
    for metrics in (result["metrics"], printed):
        assert set(metrics) == set(expected)
        for name, unit in expected.items():
            assert metrics[name]["unit"] == unit
    for name in expected:
        assert float(printed[name]["value"]) == result["metrics"][name]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failed(workload):
    _, result = result_of(bench("--workload", workload, "--seed", "3", "--corrupt"))
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
