"""Seeded benchmark for qtomo: design, reconstruct and validate workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload design --seed 1 --seconds 30 --trace 0

One closed-loop client in this process calls qtomo's public API, one op
after another, and checks every output.  With ``--trace 0`` the run is
untraced and prints the end-to-end metrics, times scaled to a reference
machine speed (speed.py); with ``--trace 1`` it runs a fixed
number of ops untraced and then twice traced, and prints per-layer
calls, self times and work counts.  The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics; the
lines before it print every metric by name with its unit, the failure
fraction and the machine.  See BASELINE.md for what each number means.
"""
from __future__ import annotations

import os

# Pinned before numpy is imported, so BLAS starts with one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
# Unset means qtomo's shipped default of one worker.
os.environ.pop("QTOMO_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Share of --seconds spent on the op loop; the rest goes to solves.
OPS_SHARE = 0.75
# Ops, solves and set-up launches alternate in this many slices of a run.
SLICES = 4
# Share of --seconds worth of ops in each of the three trace passes.
TRACE_PASS_SHARE = 0.2
# setup_s is the median of one fresh process per this many seconds of run,
# between 1 and 5 launches.
SECONDS_PER_SETUP_LAUNCH = 6.0
MAX_SETUP_LAUNCHES = 5
WARMUP_OPS = 2

# A fresh process doing what every program using qtomo does first.
SETUP_CODE = """\
import qtomo
from qtomo.model import default_rule
rule = default_rule()
a = qtomo.TwoMeterModel(*qtomo.REFERENCE_COUPLINGS).transfer_matrix()
b = qtomo.build_circuit(qtomo.REFERENCE_OPTIMUM).transfer_matrix()
print(rule.weights.size, repr(float(a.sum())), repr(float(b.sum())))
"""


class BenchError(Exception):
    """The benchmark cannot produce a result at all."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("design", "reconstruct", "validate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", action="store_true",
                   help="self-test: corrupt the first op's output, which must count as failed")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_qtomo():
    if not (SRC / "qtomo" / "__init__.py").is_file():
        raise BenchError(f"qtomo sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import qtomo
    import qtomo.cli
    import qtomo.model

    if Path(qtomo.__file__).resolve().parent != SRC / "qtomo":
        raise BenchError(f"imported qtomo from {qtomo.__file__}, not from {SRC}")
    return qtomo


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_launch() -> float:
    """Wall time of one fresh process running SETUP_CODE."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    fields = proc.stdout.split()
    if (proc.returncode != 0 or len(fields) != 3 or fields[0] != "4096"
            or any(abs(float(x) - 1.0) > 1e-9 for x in fields[1:])):
        raise BenchError(f"setup process failed: {proc.returncode} {proc.stdout!r} {proc.stderr!r}")
    return elapsed


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "QTOMO_THREADS": "unset (default 1)",
    }


class Client:
    """One closed-loop client: runs ops, times them, checks outputs.

    ``timer(call)`` runs call and returns its (raw, reported) time.
    """

    def __init__(self, wl, tracer, corrupt: bool, timer):
        self.wl = wl
        self.tracer = tracer
        self.corrupt = corrupt
        self.timer = timer
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def _fail(self, what: str, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"{what}: {reason}")

    def _checked(self, what, call, check, corrupt=None):
        """Run call once and check its output untimed.

        Returns (raw, reported) seconds, or None if the call raised.
        """
        self.attempted += 1
        box = []
        try:
            times = self.timer(lambda: box.append(call()))
        except Exception as exc:  # an op that raises is a failed op
            self._fail(what, f"raised {type(exc).__name__}: {exc}")
            return None
        out = box[0] if corrupt is None else corrupt(box[0])
        with self.tracer.paused():
            try:
                reason = check(out)
            except Exception as exc:  # a check that cannot run fails the op
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            self._fail(what, reason)
        return times

    def op(self, i: int):
        inp = self.wl.input(i)
        corrupt = self.wl.corrupt if self.corrupt and i == 0 else None
        with self.tracer.span("bench.op"):
            return self._checked(f"op {i}", lambda: self.wl.run(inp, self.tracer),
                                 lambda out: self.wl.check(inp, out), corrupt)

    def solve(self):
        with self.tracer.span("bench.solve"):
            return self._checked("solve", lambda: self.wl.solve(self.tracer), self.wl.check_solve)


def reference_models(qtomo) -> dict:
    qtomo.model.default_rule()
    return {
        "two-meter": qtomo.TwoMeterModel(*qtomo.REFERENCE_COUPLINGS),
        "circuit": qtomo.build_circuit(qtomo.REFERENCE_OPTIMUM),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(args, qtomo):
    """Untraced run: the end-to-end metrics.

    The run is cut into SLICES; each spends its share of --seconds on new
    ops from the seeded stream, then on solves, then on a set-up launch,
    so that all three sample the whole run.  Op and solve times are scaled
    to a reference machine speed by the probe in speed.py; each set-up
    launch by the probe's median speed over its slice, since a single
    kernel sample next to a half-second launch is too noisy a measure.
    """
    tracer = spans.Tracer()  # never installed: calls go straight to qtomo
    wl = workloads.WORKLOADS[args.workload](qtomo, args.seed, reference_models(qtomo))
    probe = speed.SpeedProbe()
    client = Client(wl, tracer, args.corrupt, probe.timed)

    warm_up(client)
    launches = max(1, min(MAX_SETUP_LAUNCHES, round(args.seconds / SECONDS_PER_SETUP_LAUNCH)))
    ops_s = OPS_SHARE * args.seconds / SLICES
    solve_s = (1.0 - OPS_SHARE) * args.seconds / SLICES
    ops, parts, solves, setup = [], [], [], []
    n = 0
    for part in range(SLICES):
        first_sample = len(probe.samples)
        deadline = time.perf_counter() + ops_s
        while n == 0 or time.perf_counter() < deadline:
            ops.append(client.op(n))
            if ops[-1] and wl.split_ops:
                op_raw, op_scaled = ops[-1]
                parts.extend((t, t * op_scaled / op_raw) for t in wl.last_parts)
            n += 1
        deadline = time.perf_counter() + solve_s
        while len(solves) <= part or time.perf_counter() < deadline:
            solves.append(client.solve())
        factor = probe.factor_since(first_sample)
        while len(setup) < launches * (part + 1) // SLICES:
            elapsed = setup_launch()
            setup.append((elapsed, elapsed * factor))

    metrics, raw = {}, {}
    for k, out in ((0, raw), (1, metrics)):
        op_times = sorted(t[k] for t in ops if t)
        tail_times = sorted(t[k] for t in parts) if wl.split_ops else op_times
        out["ops_per_s"] = len(op_times) / sum(op_times) if op_times else math.nan
        out["op_p50_ms"] = 1e3 * percentile(op_times, 0.5) if op_times else math.nan
        out["op_p90_ms"] = 1e3 * percentile(tail_times, 0.9) if tail_times else math.nan
        out["solve_s"] = statistics.median([t[k] for t in solves if t] or [math.nan])
        out["setup_s"] = statistics.median([t[k] for t in setup])
    metrics["peak_rss_mb"] = peak_rss_mb()
    info = {"ops": len(ops), "solves": len(solves), "setup_launches": len(setup), "raw": raw}
    return client, {name: (metrics[name], UNITS[name]) for name in UNITS}, info, True


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "solve_s": "s", "peak_rss_mb": "MB"}


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated quantile of an already sorted list."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def warm_up(client) -> None:
    """Ops on inputs no measured pass sees, to pay first-call costs."""
    for i in range(WARMUP_OPS):
        client.op(10**9 + i)


def busy_seconds(client, n_ops: int) -> float:
    """Reported time of ops 0..n_ops-1; an op that raised adds nothing."""
    return sum(t[1] for t in (client.op(i) for i in range(n_ops)) if t)


def traced_run(args, qtomo):
    """Per-layer metrics from two traced passes over the same ops.

    Span times are raw; the untraced and traced op rates that give the
    tracing overhead are scaled like the end-to-end metrics.
    """
    tracer = spans.Tracer()
    wl = workloads.WORKLOADS[args.workload](qtomo, args.seed, reference_models(qtomo))
    client = Client(wl, tracer, args.corrupt, speed.SpeedProbe().timed)
    n_ops = max(2, round(wl.trace_rate * args.seconds * TRACE_PASS_SHARE))

    warm_up(client)
    untraced = busy_seconds(client, n_ops)

    tracer.install()
    try:
        passes = []
        for _ in range(2):
            tracer.reset()
            tracer.active = True
            try:
                with tracer.span("bench.setup"):
                    wl.models = reference_models(qtomo)
                traced = busy_seconds(client, n_ops)
                client.solve()
            finally:
                tracer.active = False
            passes.append((tracer.layer_metrics(), traced, tracer.spans))
    finally:
        tracer.uninstall()

    (layers, traced, first_spans), (layers_b, _, _) = passes
    repeat_ok = spans.exact_counts(layers) == spans.exact_counts(layers_b)
    if not repeat_ok:
        diff = {k: (v, layers_b[k]) for k, v in spans.exact_counts(layers).items()
                if layers_b[k] != v}
        sys.stderr.write(f"error: per-layer counts differ between two same-seed passes: {diff}\n")

    metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
    untraced_rate, traced_rate = n_ops / untraced, n_ops / traced
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_ops_per_s"] = (traced_rate - untraced_rate, "1/s")

    OUT_DIR.mkdir(exist_ok=True)
    spans.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", first_spans,
               {"workload": args.workload, "seed": args.seed, "ops": n_ops})
    info = {"ops_per_pass": n_ops, "missing_functions": tracer.missing,
            "counts_repeat": repeat_ok}
    return client, metrics, info, repeat_ok


def unit_of(name: str) -> str:
    if name.endswith("self_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        qtomo = import_qtomo()
        env = environment(args)
        run = traced_run if args.trace else timed_run
        client, metrics, info, ok = run(args, qtomo)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    print("env " + json.dumps(env))
    print("run " + json.dumps({**info, **client.wl.notes}))
    for reason in client.reasons:
        sys.stderr.write(f"failed {reason}\n")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"failed_frac {client.failed / client.attempted!r} ratio "
          f"({client.failed}/{client.attempted})")
    result = {
        "correct": bool(ok and client.failed == 0),
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
