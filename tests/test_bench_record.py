"""tools/bench_record.py at the smallest size: one workload, one 1 s run."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _record(out: Path, env=None) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_record.py"), "--pr", "0",
         "--runs", "1", "--seconds", "1", "--workload", "design", "--out", str(out)],
        capture_output=True, text=True, timeout=150, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    text = (out / "BENCH_0.json").read_text()

    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def test_recorder_writes_every_end_to_end_metric(tmp_path):
    blob = _record(tmp_path)
    change = blob["checkouts"]["change"]
    assert set(change) == {"commit", "dirty", "workloads"}
    design = change["workloads"]["design"]
    assert design["status"] == "ran"
    (run,) = design["runs"]
    assert run["correct"] is True and run["failed"] == 0
    assert run["env"]["workload"] == "design" and run["env"]["seed"] == 1
    for spec in SPEC["end_to_end"]:
        entry = design["summary"][spec["name"]]
        assert entry["unit"] == spec["unit"]
        assert entry["min"] == entry["median"] == entry["max"] == run["metrics"][spec["name"]]
    assert "comparison" not in blob


def test_recorder_records_a_benchmark_that_cannot_start(tmp_path):
    # the benchmark imports scipy to record its version: without scipy it
    # dies before any op, which is recorded, and the recorder exits 0
    fake = tmp_path / "fake" / "scipy"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text('raise ImportError("scipy is switched off")\n')
    env = {**os.environ, "PYTHONPATH": str(fake.parent)}
    blob = _record(tmp_path, env)
    design = blob["checkouts"]["change"]["workloads"]["design"]
    assert design["status"] == "not run"
    assert design["reason"] == "ImportError: scipy is switched off"
    assert design["runs"][0]["status"] == "not run"
