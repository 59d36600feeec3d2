"""The three seeded workloads: inputs, the op, its output check, the solve.

Every workload makes op ``i``'s input from ``(seed, tag, i)`` alone, so
any pass over ops ``0..n-1`` sees the same inputs.  ``run`` is the only
part that is timed; ``check`` runs outside the timed window and returns
``None`` or the reason the output is wrong.

Why each workload exists, and which layers and metrics it is meant to
move, is written down in BASELINE.md next to this file.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import reference

SHOTS = 1024
REL_TOL_QTTF = 1e-6
# qtomo's transfer matrices against the plain-numpy ones in reference.py.
TMAT_TOL = 1e-12
BALL_TOL = 1e-9
ROUNDTRIP_TOL = 1e-9
# qtomo tags a quadrature node singular when a Fisher eigenvalue is below
# 1e-12, that is when Tr F^-1 > 1e12 there.  On pure states Tr F^-1 is
# c + d.s - 1 with |d| <= c, so its maximum is at most twice its average
# plus one: an inf qTTF is the documented answer only when the average
# exceeds (1e12 - 1) / 2.  Couplings near a multiple of 2 pi get there.
SINGULAR_AVERAGE = 5e11
# Where the average is large, Tr F^-1 ~ 1/lambda_min at the worst nodes,
# and eigvalsh's absolute error in lambda_min is ~eps * lambda_max, so the
# quadrature's relative error grows like eps * lambda_max * average.  This
# allows lambda_max up to ~50 on top of REL_TOL_QTTF.
ILL_CONDITIONED_REL = 1e-14


def six_state_average(tmat: np.ndarray, pauli_blochs: np.ndarray) -> float:
    """Mean of Tr F^-1 over the six Pauli eigenstates, in plain numpy.

    F = T'^T diag(1/p) T' with T' the Bloch columns of T and p = T s.
    Tr F^-1 is quadratic in s and the six states are a 2-design, so this
    equals the pure-state average that the quadrature approximates.
    """
    probs = tmat @ pauli_blochs
    tb = tmat[:, 1:]
    total = 0.0
    for k in range(pauli_blochs.shape[1]):
        fisher = tb.T @ (tb / probs[:, k][:, None])
        total += float(np.trace(np.linalg.inv(fisher)))
    return total / pauli_blochs.shape[1]


def _check_tmat(tmat: np.ndarray, ref: np.ndarray):
    gap = float(np.max(np.abs(np.asarray(tmat) - ref)))
    if not gap <= TMAT_TOL:
        return f"transfer matrix differs from the density-matrix reference by {gap!r}"
    return None


def _check_qttf(value, tmat: np.ndarray, pauli_blochs: np.ndarray):
    """value against the six-state average of the reference matrix tmat."""
    ref = six_state_average(tmat, pauli_blochs)
    if value == math.inf and ref > SINGULAR_AVERAGE:
        return None
    if not isinstance(value, float) or not math.isfinite(value):
        return f"qTTF {value!r} is not a finite float (six-state average {ref!r})"
    if abs(value - ref) > (REL_TOL_QTTF + ILL_CONDITIONED_REL * ref) * ref:
        return f"qTTF {value!r} differs from six-state average {ref!r}"
    return None


class Workload:
    name = ""
    tag = 0
    # Rough ops per second, used only to size the traced passes.
    trace_rate = 1.0
    split_ops = False

    def __init__(self, qtomo, seed: int, models: dict):
        self.q = qtomo
        self.seed = seed
        self.models = models
        self.pauli_blochs = np.array(
            [qtomo.bloch_from_state(psi) for psi in qtomo.PAULI_EIGENSTATES]
        ).T
        self.notes: dict[str, int] = {}

    def rng(self, i: int, *more: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.tag, i, *more])


class Design(Workload):
    """qTTF evaluations at the default 64x64 rule, plus the coupling solve."""

    name = "design"
    tag = 1
    trace_rate = 100.0
    SOLVE_RESTARTS = 1
    SOLVE_SEED = 0

    def input(self, i: int):
        rng = self.rng(i)
        if i % 2 == 0:
            return ("two-meter", rng.uniform(-3.0 * math.pi, 3.0 * math.pi, size=2))
        return ("circuit", rng.uniform(0.0, 2.0 * math.pi, size=12))

    def run(self, inp, tracer):
        kind, x = inp
        if kind == "two-meter":
            return self.q.qttf_two_meter(float(x[0]), float(x[1]))
        return self.q.qttf_circuit(x)

    def check(self, inp, out):
        """qTTF and qtomo's transfer matrix, both against the reference
        matrix built from the density-matrix evolution in reference.py."""
        kind, x = inp
        if kind == "two-meter":
            ref = reference.two_meter_transfer(float(x[0]), float(x[1]))
            tmat = self.q.TwoMeterModel(float(x[0]), float(x[1])).transfer_matrix()
        else:
            ref = reference.circuit_transfer(x)
            tmat = self.q.build_circuit(x).transfer_matrix()
        return _check_tmat(tmat, ref) or _check_qttf(out, ref, self.pauli_blochs)

    def corrupt(self, out):
        return out * (1.0 + 1e-3)

    def solve(self, tracer):
        return self.q.optimize_two_meter(restarts=self.SOLVE_RESTARTS, seed=self.SOLVE_SEED)

    def check_solve(self, res):
        if len(res.restarts) != self.SOLVE_RESTARTS:
            return f"expected {self.SOLVE_RESTARTS} restarts, got {len(res.restarts)}"
        if res.value != min(r.value for r in res.restarts):
            return "best value is not the minimum over restarts"
        ref = reference.two_meter_transfer(*map(float, res.params))
        return _check_qttf(res.value, ref, self.pauli_blochs)


class Reconstruct(Workload):
    """State estimation from 1024-shot counts: R-rho-R MLE and linear inversion.

    Each block of 24 ops holds every combination of input kind (Pauli
    eigenstate, random pure, random mixed), reference model (two-meter,
    circuit) and estimator slot (three MLE, one linear), in seeded order.
    """

    name = "reconstruct"
    tag = 2
    trace_rate = 50.0
    BLOCK = 24
    # The solve: R-rho-R on exact probabilities of one fixed pure state.
    SOLVE_ANGLES = (0.3, 0.7)
    SOLVE_TOL = 1e-3

    def __init__(self, qtomo, seed: int, models: dict):
        super().__init__(qtomo, seed, models)
        self.reference_tmats = {
            "two-meter": reference.two_meter_transfer(*qtomo.REFERENCE_COUPLINGS),
            "circuit": reference.circuit_transfer(qtomo.REFERENCE_OPTIMUM),
        }

    def _bloch(self, kind: int, rng: np.random.Generator) -> np.ndarray:
        if kind == 0:
            return self.pauli_blochs[:, int(rng.integers(6))].copy()
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        radius = 1.0 if kind == 1 else float(rng.uniform()) ** (1.0 / 3.0)
        return np.concatenate([[1.0], radius * direction])

    def input(self, i: int):
        block, slot = divmod(i, self.BLOCK)
        combo = int(self.rng(block, 0).permutation(self.BLOCK)[slot])
        kind, model_name = combo % 3, ("two-meter", "circuit")[(combo // 3) % 2]
        estimator = "linear" if combo // 6 == 3 else "mle"
        rng = self.rng(block, 1 + slot)
        truth = self._bloch(kind, rng)
        tmat = self.models[model_name].transfer_matrix()
        probs = np.clip(tmat @ truth, 0.0, None)
        freqs = rng.multinomial(SHOTS, probs / probs.sum()) / SHOTS
        return estimator, model_name, tmat, truth, freqs

    def run(self, inp, tracer):
        estimator, _, tmat, _, freqs = inp
        if estimator == "mle":
            return self.q.rho_r_mle(freqs, tmat)
        return self.q.linear_inversion(freqs, tmat)

    def check(self, inp, out):
        estimator, model_name, tmat, truth, freqs = inp
        reason = _check_tmat(tmat, self.reference_tmats[model_name])
        if reason is not None:
            return reason
        bloch = np.asarray(out.bloch, dtype=float)
        if bloch.shape != (4,) or not np.all(np.isfinite(bloch)):
            return f"estimate {bloch!r} is not a finite Bloch 4-vector"
        if abs(bloch[0] - 1.0) > BALL_TOL:
            return f"s0 = {bloch[0]!r}"
        radius = float(np.linalg.norm(bloch[1:]))
        if estimator == "mle":
            if radius > 1.0 + BALL_TOL:
                return f"MLE estimate outside the Bloch ball, |s| = {radius!r}"
            if out.iterations < 1:
                return "MLE reports no iterations"
            return None
        ref = np.linalg.solve(tmat, freqs)
        ref = ref / ref[0]
        if np.max(np.abs(ref - bloch)) > ROUNDTRIP_TOL * max(1.0, float(np.max(np.abs(ref)))):
            return "linear inversion differs from a direct solve of T s = f"
        if out.physical != (radius <= 1.0 + BALL_TOL):
            return "physical flag disagrees with the estimate's radius"
        exact = self.q.linear_inversion(tmat @ truth, tmat).bloch
        if np.max(np.abs(exact - truth)) > ROUNDTRIP_TOL:
            return "linear inversion of exact probabilities does not round-trip"
        return None

    def corrupt(self, out):
        return dataclasses.replace(out, bloch=out.bloch + np.array([0.0, 2.0, 0.0, 0.0]))

    def _solve_input(self):
        psi = self.q.state_from_angles(*self.SOLVE_ANGLES)
        truth = self.q.bloch_from_state(psi)
        tmat = self.models["two-meter"].transfer_matrix()
        return tmat, truth

    def solve(self, tracer):
        tmat, truth = self._solve_input()
        return self.q.rho_r_mle(tmat @ truth, tmat)

    def check_solve(self, res):
        _, truth = self._solve_input()
        bloch = np.asarray(res.bloch, dtype=float)
        if not np.all(np.isfinite(bloch)):
            return "non-finite MLE estimate"
        if float(np.linalg.norm(bloch[1:])) > 1.0 + BALL_TOL:
            return "MLE estimate outside the Bloch ball"
        if float(np.max(np.abs(bloch - truth))) > self.SOLVE_TOL:
            return "MLE on exact probabilities misses the true state"
        return None


class CliFailure(Exception):
    pass


def _strict_json(text: str):
    def reject(token):
        raise CliFailure(f"non-finite JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _csv_rows(text: str, n_rows: int, n_cols: int, text_cols: tuple[str, ...]):
    """Data rows of a qtomo CSV; every non-text cell must be a finite number."""
    rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
    header, data = rows[0], rows[1:]
    if len(header) != n_cols or len(data) != n_rows:
        raise CliFailure(f"expected {n_rows}x{n_cols} CSV, got {len(data)}x{len(header)}")
    for row in data:
        if len(row) != n_cols:
            raise CliFailure(f"ragged CSV row {row}")
        for name, cell in zip(header, row):
            if name not in text_cols and not math.isfinite(float(cell)):
                raise CliFailure(f"non-finite {name} = {cell}")
    return header, data


def _stat_fails(header, data) -> int:
    """Rows whose statistical pass column is false: recorded, not checked."""
    col = header.index("pass")
    return sum(row[col] == "false" for row in data)


class Validate(Workload):
    """One round of in-process CLI calls and both variance scans per op."""

    name = "validate"
    tag = 4
    trace_rate = 2.5
    # A run holds well under 100 rounds, too few for a 90th percentile of
    # round latency, so op_p90_ms is taken over the seven calls that make
    # up each round (raw seconds of the last round in last_parts).
    split_ops = True
    TABLE_ROWS = {1: 18, 2: 6, 3: 6}
    TABLE_COLS = {1: 6, 2: 12, 3: 12}
    SWEEP_POINTS = 200
    SCAN_ROWS = 4

    def input(self, i: int):
        rng = self.rng(i)
        k = str(int(rng.integers(2**31)))
        theta = float(rng.uniform(math.pi / 3.0, math.pi))
        state = f"{rng.uniform(0.0, math.pi / 2.0)!r},{rng.uniform(0.0, math.pi)!r}"
        argvs = {
            "check-identities": ["check-identities", "--seed", k],
            "table-1": ["reproduce-table", "--table", "1", "--seed", k],
            "table-3": ["reproduce-table", "--table", "3", "--seed", k],
            "estimate": ["estimate", "--model", "circuit", "--estimator", "linear",
                         "--state", state, "--seed", k],
            "qttf-sweep": ["qttf-sweep"],
        }
        return argvs, int(k), theta

    def _cli(self, argv, tracer):
        out, err = io.StringIO(), io.StringIO()
        with tracer.span(f"cli.main.{argv[0]}"), redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.q.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def _part(self, call):
        t0 = time.perf_counter()
        result = call()
        self.last_parts.append(time.perf_counter() - t0)
        return result

    def run(self, inp, tracer):
        argvs, k, theta = inp
        self.last_parts = []
        out = {key: self._part(lambda: self._cli(argv, tracer)) for key, argv in argvs.items()}
        out["scan-single"] = self._part(
            lambda: self.q.variance_vs_fisher_scan(theta=theta, seed=k))
        out["scan-two-meter"] = self._part(
            lambda: self.q.variance_vs_fisher_scan(self.models["two-meter"], seed=k))
        return out

    def check(self, inp, out):
        try:
            for key in ("check-identities", "table-1", "table-3", "estimate", "qttf-sweep"):
                code, _, err = out[key]
                if code != 0:
                    raise CliFailure(f"{key} exited {code}: {err.strip()}")
            suite = _strict_json(out["check-identities"][1])
            if suite.get("all_pass") is not True or not suite.get("checks"):
                raise CliFailure("identity suite did not pass")
            for table in (1, 3):
                header, data = _csv_rows(out[f"table-{table}"][1], self.TABLE_ROWS[table],
                                         self.TABLE_COLS[table], ("state", "pass"))
                self.notes["table_rows_failing_3sigma"] = (
                    self.notes.get("table_rows_failing_3sigma", 0) + _stat_fails(header, data)
                )
            est = _strict_json(out["estimate"][1])
            bloch = est.get("bloch")
            if not isinstance(bloch, list) or len(bloch) != 4:
                raise CliFailure("estimate has no Bloch 4-vector")
            if not isinstance(est.get("fidelity"), float):
                raise CliFailure("estimate has no fidelity")
            _csv_rows(out["qttf-sweep"][1], self.SWEEP_POINTS, 3, ())
            for key in ("scan-single", "scan-two-meter"):
                rows = out[key]
                if len(rows) != self.SCAN_ROWS or not all(math.isfinite(r.ratio) for r in rows):
                    raise CliFailure(f"{key} returned {rows!r}")
        except (CliFailure, ValueError, KeyError, IndexError) as exc:
            return str(exc)
        return None

    def corrupt(self, out):
        code, text, err = out["check-identities"]
        out = dict(out)
        out["check-identities"] = (code, text.replace('"all_pass": true', '"all_pass": false'), err)
        return out

    def solve(self, tracer):
        return self._cli(["reproduce-table", "--table", "2"], tracer)

    def check_solve(self, res):
        code, text, err = res
        if code != 0:
            return f"reproduce-table --table 2 exited {code}: {err.strip()}"
        try:
            header, data = _csv_rows(text, self.TABLE_ROWS[2], self.TABLE_COLS[2], ("state", "pass"))
        except (CliFailure, ValueError, IndexError) as exc:
            return str(exc)
        self.notes["table_rows_failing_3sigma"] = (
            self.notes.get("table_rows_failing_3sigma", 0) + _stat_fails(header, data)
        )
        return None


WORKLOADS = {cls.name: cls for cls in (Design, Reconstruct, Validate)}
