"""Record the benchmark's end-to-end results in BENCH_<pr>.json.

Usage (from any directory):

    python3 tools/bench_record.py --pr N --runs 10 --seconds 30 --seed 1101 \
        [--parent PATH] [--workload validate ...] [--out DIR]

For each workload, run i (0 <= i < --runs) is one fresh process of this
checkout's own benchmark,

    python3 perfbench/run.py --workload W --seed S+i --seconds X --trace 0

and the recorder keeps the run's `env` line and its last line, the JSON
result.  With --parent, the same runs of the parent checkout alternate
with this one's, each pair on one seed, the parent first in even pairs
and second in odd ones, and the file gets a comparison: for every
end-to-end metric of BENCHMARK.json, the pairs this checkout wins (ties
count for neither side), both medians and the parent's interquartile
range.

The file is strict JSON: each checkout's HEAD commit and whether its tree
was dirty, every run, and the median, min and max of each end-to-end
metric of BENCHMARK.json over the runs.  A non-finite metric is written
as null.  A run that cannot start or ends without a result
(perfbench/run.py imports scipy unguarded, so it dies on a numpy-only
install) is recorded as not run, with the last line it wrote to stderr,
and the recorder still exits 0.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A workload's run gets this long beyond --seconds before it counts as
# not run: imports, warm-up and the set-up launches.
GRACE_S = 120.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True, help="number in the file name")
    p.add_argument("--runs", type=int, default=3, help="runs per workload and checkout")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=1, help="seed of the first run")
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable); default: all of BENCHMARK.json")
    p.add_argument("--parent", type=Path, help="checkout of the parent commit")
    p.add_argument("--out", type=Path, default=ROOT, help="directory of the file")
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be at least 1")
    if not 0.0 < args.seconds < math.inf:
        p.error("--seconds must be positive and finite")
    return args


def commit_of(checkout: Path) -> dict:
    """HEAD and dirtiness of a checkout; null where git cannot tell."""
    def git(*cmd):
        proc = subprocess.run(["git", "-C", str(checkout), *cmd],
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def finite(value):
    """A metric value for strict JSON: non-finite floats become null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its result, or why there is none."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=seconds + GRACE_S)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return {"seed": seed, "status": "not run", "reason": str(exc)}
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        errors = proc.stderr.strip().splitlines()
        reason = errors[-1] if errors else f"exit status {proc.returncode}, no result"
        return {"seed": seed, "status": "not run", "reason": reason}
    return {
        "seed": seed,
        "status": "ran",
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: finite(m["value"]) for name, m in result["metrics"].items()},
        "env": env,
    }


def summarize(runs: list, end_to_end: list) -> dict:
    """A workload's entry: its runs and each end-to-end metric's median,
    min and max over the runs that measured it."""
    ran = [r for r in runs if r["status"] == "ran"]
    if not ran:
        return {"status": "not run", "reason": runs[-1]["reason"], "runs": runs}
    summary = {}
    for spec in end_to_end:
        values = [r["metrics"].get(spec["name"]) for r in ran]
        values = [v for v in values if v is not None]
        summary[spec["name"]] = {
            "unit": spec["unit"],
            "median": statistics.median(values) if values else None,
            "min": min(values, default=None),
            "max": max(values, default=None),
        }
    return {"status": "ran", "runs": runs, "summary": summary}


def compare(parent: dict, change: dict, end_to_end: list) -> dict:
    """Pair wins and medians of each end-to-end metric on one workload."""
    out = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        pairs = [
            (p["metrics"].get(name), c["metrics"].get(name))
            for p, c in zip(parent["runs"], change["runs"])
            if p["status"] == c["status"] == "ran"
        ]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            continue
        base = [p for p, _ in pairs]
        q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (base[0],) * 3
        out[name] = {
            "better": spec["better"],
            "pairs": len(pairs),
            "change_wins": sum(sign * (c - p) > 0.0 for p, c in pairs),
            "parent_median": statistics.median(base),
            "change_median": statistics.median(c for _, c in pairs),
            "parent_iqr": q3 - q1,
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = [("change", ROOT)]
    if args.parent is not None:
        sides.insert(0, ("parent", args.parent.resolve()))
    runs = {label: {w: [] for w in workloads} for label, _ in sides}
    for workload in workloads:
        for i in range(args.runs):
            seed = args.seed + i
            for label, checkout in sides if i % 2 == 0 else sides[::-1]:
                record = run_once(checkout, workload, seed, args.seconds)
                runs[label][workload].append(record)
                print(f"{label} {workload} seed {seed}: {record['status']}", file=sys.stderr)

    blob = {
        "pr": args.pr,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds X --trace 0",
        "seconds": args.seconds,
        "runs_per_workload": args.runs,
        "first_seed": args.seed,
        "checkouts": {
            label: {**commit_of(checkout),
                    "workloads": {w: summarize(runs[label][w], spec["end_to_end"])
                                  for w in workloads}}
            for label, checkout in sides
        },
    }
    if args.parent is not None:
        parent, change = (blob["checkouts"][k]["workloads"] for k in ("parent", "change"))
        blob["comparison"] = {
            w: compare(parent[w], change[w], spec["end_to_end"])
            for w in workloads if parent[w]["status"] == change[w]["status"] == "ran"
        }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(blob, indent=1, allow_nan=False) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
