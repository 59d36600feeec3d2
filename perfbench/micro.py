"""Per-call timings of the layer functions the ROADMAP lists as baselines.

Run from the repository root:

    python3 perfbench/micro.py

Each function runs at the reference operating point for a fixed number of
calls, in several rounds; the output is one JSON object with each
function's median per-call time in microseconds, raw and scaled to the
reference machine speed the benchmark uses (see speed.py).
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QTOMO_THREADS", None)

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qtomo  # noqa: E402
from qtomo.model import default_rule, delta_surface  # noqa: E402
from qtomo.twometer import transfer_matrix  # noqa: E402
from speed import SpeedProbe  # noqa: E402

ROUNDS = 7


def per_call_us(fn, calls: int, probe: SpeedProbe) -> dict:
    def batch():
        for _ in range(calls):
            fn()

    fn()
    rounds = [probe.timed(batch) for _ in range(ROUNDS)]
    return {"raw_us": 1e6 * statistics.median(r for r, _ in rounds) / calls,
            "scaled_us": 1e6 * statistics.median(s for _, s in rounds) / calls,
            "calls": calls}


def main() -> None:
    rule = default_rule()
    tmat = transfer_matrix(*qtomo.REFERENCE_COUPLINGS)
    nodes = rule.bloch_nodes()
    cases = {
        "twometer.transfer_matrix": (lambda: transfer_matrix(*qtomo.REFERENCE_COUPLINGS), 2000),
        "circuit.build_circuit": (lambda: qtomo.build_circuit(qtomo.REFERENCE_OPTIMUM), 200),
        "core.make_quadrature(64,64)": (default_rule, 50),
        "model.delta_surface": (lambda: delta_surface(tmat, nodes), 30),
        "twometer.qttf_two_meter": (lambda: qtomo.qttf_two_meter(*qtomo.REFERENCE_COUPLINGS), 30),
        "circuit.qttf_circuit": (lambda: qtomo.qttf_circuit(qtomo.REFERENCE_OPTIMUM), 30),
    }
    probe = SpeedProbe()
    print(json.dumps({name: per_call_us(fn, n, probe) for name, (fn, n) in cases.items()},
                     indent=1))


if __name__ == "__main__":
    main()
