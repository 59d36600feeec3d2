"""Command-line front end.

Subcommands:
  qttf-sweep        single-meter qTTF and max error over a theta grid (CSV)
  optimize          restarted minimization for the two-meter or circuit model (JSON)
  reproduce-table   seeded sampling reproduction of reference tables 1-3 (CSV)
  check-identities  run the numerical identity suite on random cases (JSON)
  estimate          Bloch reconstruction from counts or a sampling spec (JSON)

Output schemas are fixed: CSV files carry `# key: value` metadata lines
(version, command, and the seed and sampling settings where they apply)
before the header row; JSON files put their metadata under "meta".
Exit codes: 0 success, 1 validation error, 2 numerical failure,
3 identity-check failure.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import math
import sys

import numpy as np

from . import __version__
from .circuit import REFERENCE_OPTIMUM, build_circuit, optimize_circuit
from .core import (
    PAULI_EIGENSTATE_LABELS,
    PAULI_EIGENSTATES,
    bloch_from_state,
    density_from_bloch,
    fidelity,
    make_quadrature,
    state_from_angles,
)
from .estimators import (
    NonInvertibleModelError,
    linear_inversion,
    log_likelihood,
    radial_clip,
    require_invertible,
    rho_r_mle,
    saturated_mle,
)
from .harness import (
    DEFAULT_SEED,
    binomial_variance_identity,
    estimator_variance_identity,
    run_full_experiment,
    run_single_experiment,
)
from .model import (
    SingularInformationError,
    fisher_from_transfer,
    fisher_matrix_form,
    kraus_transfer,
    qttf_from_transfer,
)
from .single import max_error_single, qttf_single, two_design_average
from .twometer import (
    REFERENCE_COUPLINGS,
    TwoMeterModel,
    joint_unitary,
    optimize_two_meter,
    transfer_matrix,
)

_TABLE_1_THETAS = (math.pi / 2.0, 2.0 * math.pi / 3.0, math.pi)

# Reference rule for the identity suite's exact-vs-quadrature check, built
# once: the suite runs often and the rule costs as much as the check.
_CHECK_RULE = make_quadrature(16, 16)


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 on bad usage (2 is reserved)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_params(text: str) -> tuple[float, ...]:
    values = tuple(float(x) for x in text.split(","))
    if len(values) != 12:
        raise ValueError("--params expects 12 comma-separated reals")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"--params entries must be finite, got {text}")
    return values


def _parse_state(text: str) -> np.ndarray:
    if text in PAULI_EIGENSTATE_LABELS:
        return PAULI_EIGENSTATES[PAULI_EIGENSTATE_LABELS.index(text)]
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(
            "--state expects a label (z0,z1,x0,x1,y0,y1) or 'alpha1,alpha2'"
        )
    return state_from_angles(float(parts[0]), float(parts[1]))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _check_shots(shots: int) -> None:
    if shots < 1:
        raise ValueError(f"--shots must be at least 1, got {shots}")


def _meta(command: str, seed=None) -> dict:
    meta = {"version": __version__, "command": command}
    if seed is not None:
        meta["seed"] = seed
    return meta


def _csv_text(meta: dict, header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    for key, value in meta.items():
        buf.write(f"# {key}: {value}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    # strict JSON: a NaN or infinity raises instead of printing as a bare
    # NaN/Infinity token that strict parsers reject
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _build_model(args):
    # a flag of the other model would be silently ignored; refuse it instead
    if args.model == "two-meter" and args.params is not None:
        raise ValueError("--params applies to --model circuit only")
    if args.model == "circuit":
        for flag, value in (("--theta-a", args.theta_a), ("--theta-b", args.theta_b)):
            if value is not None:
                raise ValueError(f"{flag} applies to --model two-meter only")
    if args.model == "two-meter":
        theta_a = args.theta_a if args.theta_a is not None else REFERENCE_COUPLINGS[0]
        theta_b = args.theta_b if args.theta_b is not None else REFERENCE_COUPLINGS[1]
        for flag, value in (("--theta-a", theta_a), ("--theta-b", theta_b)):
            if not math.isfinite(value):
                raise ValueError(f"{flag} must be finite, got {value}")
        return TwoMeterModel(theta_a, theta_b)
    if args.model == "circuit":
        params = _parse_params(args.params) if args.params else REFERENCE_OPTIMUM
        return build_circuit(params)
    raise ValueError(f"model '{args.model}' has no 4-outcome transfer matrix")


def cmd_qttf_sweep(args) -> int:
    if args.model != "single":
        raise ValueError("qttf-sweep supports --model single only")
    # name the flag before np.linspace turns a bad bound into NaN thetas
    for flag, value in (("--theta-min", args.theta_min), ("--theta-max", args.theta_max)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if args.theta_max > math.pi:
        raise ValueError(f"--theta-max must be at most pi, got {args.theta_max}")
    if args.points < 2 or not (0.0 < args.theta_min <= args.theta_max):
        raise ValueError("invalid theta grid")
    if args.format != "csv":
        raise ValueError("qttf-sweep emits CSV")
    thetas = np.linspace(args.theta_min, args.theta_max, args.points)
    rows = []
    for theta in thetas:
        rows.append(
            [f"{theta:.12g}", f"{qttf_single(theta):.12g}", f"{max_error_single(theta):.12g}"]
        )
    meta = _meta("qttf-sweep")
    _emit(_csv_text(meta, ["theta", "qttf", "max_error"], rows), args.out)
    return 0


def cmd_optimize(args) -> int:
    if args.format != "json":
        raise ValueError("optimize emits JSON")
    if args.model == "two-meter":
        restarts = args.restarts if args.restarts is not None else 20
        result = optimize_two_meter(restarts=restarts, seed=args.seed)
    elif args.model == "circuit":
        restarts = args.restarts if args.restarts is not None else 50
        result = optimize_circuit(restarts=restarts, seed=args.seed)
    else:
        raise ValueError("optimize supports --model two-meter or circuit")
    if not math.isfinite(result.value):
        sys.stderr.write("optimization failed: objective singular everywhere\n")
        return 2
    payload = {
        "meta": _meta("optimize", seed=args.seed),
        "model": args.model,
        "best_value": result.value,
        "best_params": list(result.params),
        "restarts": [
            {
                "value": r.value,
                "params": list(r.params),
                "converged": r.converged,
                "iterations": r.iterations,
                "evaluations": r.evaluations,
                "seconds": r.seconds,
            }
            for r in result.restarts
        ],
    }
    _emit(_json_text(payload), args.out)
    return 0


def _table_1_rows(shots, repeats, seed):
    header = ["theta", "state", "truth", "mean", "std", "pass"]
    rows = []
    for theta in _TABLE_1_THETAS:
        report = run_single_experiment(theta, shots=shots, repeats=repeats, seed=seed)
        for row in report.rows:
            rows.append(
                [
                    f"{theta:.12g}",
                    row.label,
                    f"{row.truth:.6f}",
                    f"{row.mean:.6f}",
                    f"{row.std:.6f}",
                    str(row.within_3sigma).lower(),
                ]
            )
    return header, rows


def _table_full_rows(model, estimator, shots, repeats, seed):
    header = [
        "state",
        "truth_x", "truth_y", "truth_z",
        "mean_x", "mean_y", "mean_z",
        "std_x", "std_y", "std_z",
        "fidelity",
        "pass",
    ]
    report = run_full_experiment(
        model, estimator=estimator, shots=shots, repeats=repeats, seed=seed
    )
    rows = []
    for row in report.rows:
        rows.append(
            [row.label]
            + [f"{v:.6f}" for v in row.truth[1:]]
            + [f"{v:.6f}" for v in row.mean[1:]]
            + [f"{v:.6f}" for v in row.std]
            + [f"{row.fidelity:.6f}", str(row.fidelity >= 0.995).lower()]
        )
    return header, rows


def cmd_reproduce_table(args) -> int:
    if args.format != "csv":
        raise ValueError("reproduce-table emits CSV")
    _check_shots(args.shots)
    if args.table == 1:
        header, rows = _table_1_rows(args.shots, args.repeats, args.seed)
    elif args.table == 2:
        model = TwoMeterModel(*REFERENCE_COUPLINGS)
        header, rows = _table_full_rows(model, "mle", args.shots, args.repeats, args.seed)
    elif args.table == 3:
        model = build_circuit(REFERENCE_OPTIMUM)
        header, rows = _table_full_rows(
            model, "linear", args.shots, args.repeats, args.seed
        )
    else:
        raise ValueError("--table must be 1, 2 or 3")
    meta = _meta(f"reproduce-table {args.table}", seed=args.seed)
    meta["shots"] = args.shots
    meta["repeats"] = args.repeats
    _emit(_csv_text(meta, header, rows), args.out)
    return 0


def identity_suite(seed: int = 0, corrupt: bool = False) -> dict:
    """Numerical identity checks on seeded random cases.

    Returns {"checks": {name: {max_deviation, tolerance, pass}}, "all_pass"}.
    corrupt=True perturbs the transfer matrix used in the model-consistency
    checks, which must make the suite fail (negative control).

    Each oracle runs once and is shared.  The 8x8 simulations of the 40
    random cases feed probability_normalization, transfer_vs_simulation
    and linear_inversion_roundtrip; the five R-rho-R runs feed the three
    mle_* checks.  coefficients_vs_trace builds the joint unitaries of
    all its couplings in one stacked eigh and reads them in one batched
    Kraus read; circuit_transfer_vs_kraus reads its circuits in one too.
    """
    rng = np.random.default_rng(seed)
    pairs = 200  # cases in coefficients_vs_trace and in binomial_variance
    checks: dict[str, dict] = {}

    def record(name, tol, body):
        # raises inside a check count as failures, not crashes: the
        # corrupted-matrix control must still produce a report.  A check
        # that raised or measured no finite deviation reports null.
        try:
            deviation = float(body())
        except (ValueError, ArithmeticError, FloatingPointError) as exc:
            error = str(exc)
        else:
            if math.isfinite(deviation):
                checks[name] = {
                    "max_deviation": deviation,
                    "tolerance": tol,
                    "pass": bool(deviation <= tol),
                }
                return
            error = f"deviation is {deviation}"
        checks[name] = {
            "max_deviation": None,
            "tolerance": tol,
            "pass": False,
            "error": error,
        }

    def random_state():
        return state_from_angles(
            rng.uniform(0.0, math.pi / 2.0), rng.uniform(0.0, math.pi)
        )

    models = [
        TwoMeterModel(*REFERENCE_COUPLINGS),
        build_circuit(REFERENCE_OPTIMUM),
    ]
    # the claimed transfer matrices; the simulators stay truthful, so a
    # corrupted claim must show up wherever claim and simulation meet
    tmats = [m.transfer_matrix() for m in models]
    if corrupt:
        tmats = [t + np.full_like(t, 0.01) for t in tmats]

    def coefficient_check():
        # closed-form transfer matrices against the Kraus read of the
        # joint unitary, including near-degenerate couplings where
        # theta_C is tiny; all unitaries come from one stacked eigh and
        # are read in one batched Kraus read
        couplings = []
        for i in range(pairs):
            if i % 10 == 0:
                # theta_C = hypot(theta_A, theta_B) below 1e-6: the sinc
                # term sits at its removable singularity
                ta = rng.uniform(-1.0, 1.0) * 5e-7
                tb = rng.uniform(-1.0, 1.0) * 5e-7
            else:
                ta = rng.uniform(-3 * math.pi, 3 * math.pi)
                tb = rng.uniform(-3 * math.pi, 3 * math.pi)
            couplings.append((ta, tb))
        theta_a, theta_b = np.array(couplings).reshape(pairs, 2).T
        reads = kraus_transfer(joint_unitary(theta_a, theta_b))
        dev = 0.0
        for (ta, tb), read in zip(couplings, reads):
            gap = transfer_matrix(ta, tb) - read
            dev = max(dev, float(np.max(np.abs(gap))))
        return dev

    record("coefficients_vs_trace", 1e-10, coefficient_check)

    def unitarity_check():
        return max(
            float(np.max(np.abs(m.unitary @ m.unitary.conj().T - np.eye(8))))
            for m in models
        )

    record("unitarity", 1e-12, unitarity_check)

    cases = [
        (random_state(), m_idx) for _ in range(20) for m_idx in (0, 1)
    ]
    simulated = None

    def case_simulations():
        # the 8x8 simulation of every case, run once and shared by the
        # checks that compare against it
        nonlocal simulated
        if simulated is None:
            simulated = [
                models[m_idx].probabilities(density_from_bloch(bloch_from_state(psi)))
                for psi, m_idx in cases
            ]
        return simulated

    def normalization_check():
        dev = 0.0
        for sim in case_simulations():
            dev = max(dev, abs(float(sim.sum()) - 1.0), -float(sim.min()))
        return dev

    record("probability_normalization", 1e-12, normalization_check)

    def simulation_check():
        dev = 0.0
        for (psi, m_idx), sim in zip(cases, case_simulations()):
            bloch = bloch_from_state(psi)
            dev = max(dev, float(np.max(np.abs(tmats[m_idx] @ bloch - sim))))
        return dev

    record("transfer_vs_simulation", 1e-10, simulation_check)

    def fisher_forms_check():
        dev = 0.0
        for psi, m_idx in cases:
            f_elem = fisher_from_transfer(tmats[m_idx], psi)
            f_mat = fisher_matrix_form(tmats[m_idx], psi)
            dev = max(dev, float(np.max(np.abs(f_elem - f_mat))))
        return dev

    record("fisher_forms", 1e-8, fisher_forms_check)

    def fisher_shape_check():
        dev = 0.0
        min_eig = np.inf
        for psi, m_idx in cases:
            f_elem = fisher_from_transfer(tmats[m_idx], psi)
            dev = max(dev, float(np.max(np.abs(f_elem - f_elem.T))))
            min_eig = min(min_eig, float(np.linalg.eigvalsh(f_elem).min()))
        return max(dev, -min_eig, 0.0)

    record("fisher_symmetry_psd", 1e-10, fisher_shape_check)

    def roundtrip_check():
        # invert the simulated probabilities with the claimed matrix; any
        # gap between claim and simulation lands in the recovered state
        dev = 0.0
        for (psi, m_idx), sim in zip(cases, case_simulations()):
            bloch = bloch_from_state(psi)
            est = linear_inversion(sim, tmats[m_idx])
            dev = max(dev, float(np.max(np.abs(est.bloch - bloch))))
        return dev

    record("linear_inversion_roundtrip", 1e-10, roundtrip_check)

    def mle_traces():
        outcomes = []
        for _ in range(5):
            psi = random_state()
            m_idx = int(rng.integers(0, 2))
            sim = models[m_idx].probabilities(
                density_from_bloch(bloch_from_state(psi))
            )
            freqs = rng.multinomial(1024, sim) / 1024.0
            trace_ll = []
            result = rho_r_mle(freqs, tmats[m_idx], likelihood_trace=trace_ll)
            outcomes.append((freqs, tmats[m_idx], trace_ll, result))
        return outcomes

    mle_runs = None

    def mle_monotone_check():
        nonlocal mle_runs
        mle_runs = mle_traces()
        worst = 0.0
        for _, _, trace_ll, _ in mle_runs:
            diffs = np.diff(trace_ll)
            if diffs.size:
                worst = max(worst, float(-diffs.min()))
        return worst

    record("mle_likelihood_monotone", 1e-9, mle_monotone_check)

    def mle_physical_check():
        runs = mle_runs if mle_runs is not None else mle_traces()
        worst = 0.0
        for _, _, _, result in runs:
            worst = max(worst, float(np.linalg.norm(result.bloch[1:]) - 1.0))
        return max(worst, 0.0)

    record("mle_physicality", 1e-9, mle_physical_check)

    def mle_exact_check():
        # the exact solver on the R-rho-R runs' data: its log-likelihood is
        # never below R-rho-R's, and an estimate on the sphere is a KKT
        # point g = lambda v with lambda >= 0, measured against sum_q |g_q|,
        # the scale of g's round-off
        runs = mle_runs if mle_runs is not None else mle_traces()
        worst = 0.0
        for freqs, tmat, _, reference in runs:
            exact = saturated_mle(freqs, tmat)
            worst = max(
                worst,
                log_likelihood(freqs, tmat @ reference.bloch)
                - log_likelihood(freqs, tmat @ exact.bloch),
            )
            if exact.iterations > 1:
                live = freqs > 0.0
                probs = tmat[live] @ exact.bloch
                terms = (freqs[live] / probs)[:, None] * tmat[live, 1:]
                g = terms.sum(axis=0)
                v = exact.bloch[1:]
                lam = float(g @ v)
                scale = float(np.linalg.norm(terms, axis=1).sum())
                worst = max(
                    worst, float(np.linalg.norm(g - lam * v)) / scale, -lam / scale
                )
        return worst

    record("mle_exact_vs_rho_r", 1e-12, mle_exact_check)

    def two_design_check():
        # the six eigenstates form a 2-design, so their mean error equals
        # the full state-space average
        dev = 0.0
        for _ in range(10):
            theta = rng.uniform(0.3, math.pi)
            dev = max(dev, abs(two_design_average(theta) - qttf_single(theta)))
        return dev

    record("two_design_average", 1e-9, two_design_check)

    def binomial_check():
        dev = 0.0
        for _ in range(pairs):
            psi = random_state()
            theta = rng.uniform(0.1, math.pi)
            dev = max(dev, binomial_variance_identity(psi, theta).max_abs_diff)
        return dev

    record("binomial_variance", 1e-12, binomial_check)

    def estimator_variance_check():
        dev = 0.0
        for psi, m_idx in cases:
            dev = max(dev, estimator_variance_identity(psi, tmats[m_idx]).max_abs_diff)
        return dev

    record("estimator_variance", 1e-8, estimator_variance_check)

    def qttf_exact_check():
        # closed-form qTTF against the quadrature average, relative; both
        # read the claimed matrices, and a singular one gives nan (a fail)
        gaps = []
        for tmat in tmats:
            exact = qttf_from_transfer(tmat)
            gaps.append(abs(exact - qttf_from_transfer(tmat, _CHECK_RULE)) / exact)
        return np.max(gaps)

    record("qttf_exact_vs_quadrature", 1e-9, qttf_exact_check)

    def circuit_kraus_check():
        # the circuit's transfer matrix from its gate factors against the
        # Kraus read of its compiled 8x8 unitary; every other circuit has
        # its thetas doubled, which gives the full-angle gates u3(theta, ...)
        # of its draw.  One batched read covers all twenty unitaries
        circuits = []
        for i in range(20):
            params = rng.uniform(0.0, 2.0 * math.pi, size=12)
            if i % 2:
                params[0::3] *= 2.0
            circuits.append(build_circuit(params))
        reads = kraus_transfer(np.array([c.unitary for c in circuits]))
        dev = 0.0
        for circ, read in zip(circuits, reads):
            gap = circ.transfer_matrix() - read
            dev = max(dev, float(np.max(np.abs(gap))))
        return dev

    record("circuit_transfer_vs_kraus", 1e-12, circuit_kraus_check)

    return {
        "checks": checks,
        "all_pass": all(entry["pass"] for entry in checks.values()),
    }


def cmd_check_identities(args) -> int:
    if args.format != "json":
        raise ValueError("check-identities emits JSON")
    suite = identity_suite(seed=args.seed, corrupt=args.corrupt)
    payload = {"meta": _meta("check-identities", seed=args.seed), **suite}
    payload["meta"]["corrupt"] = args.corrupt
    _emit(_json_text(payload), args.out)
    return 0 if suite["all_pass"] else 3


def cmd_estimate(args) -> int:
    if args.format != "json":
        raise ValueError("estimate emits JSON")
    _check_shots(args.shots)
    model = _build_model(args)
    tmat = model.transfer_matrix()
    truth = _parse_state(args.state) if args.state else None

    if args.counts:
        with open(args.counts, encoding="utf-8") as handle:
            try:
                blob = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"malformed counts file: {exc}") from exc
        outcomes = blob.get("outcomes")
        if (
            not isinstance(outcomes, list)
            or len(outcomes) != 4
            or any((not isinstance(c, int)) or c < 0 for c in outcomes)
            or sum(outcomes) <= 0
        ):
            raise ValueError("counts file needs 4 nonnegative integer outcomes")
        shots = blob.get("shots", sum(outcomes))
        if shots != sum(outcomes):
            raise ValueError("shots field disagrees with the outcome sum")
        freqs = np.asarray(outcomes, dtype=float) / shots
        source = {"counts_file": args.counts, "shots": shots}
    elif truth is not None:
        probs = tmat @ bloch_from_state(truth)
        if args.exact:
            freqs = probs
            source = {"sampled": False}
        else:
            # a singular T can give round-off negative probabilities, which
            # the sampler rejects; report the singular model first
            require_invertible(tmat)
            rng = np.random.default_rng(args.seed)
            counts = rng.multinomial(args.shots, probs)
            freqs = counts / args.shots
            source = {"sampled": True, "shots": args.shots, "seed": args.seed}
    else:
        raise ValueError("provide --counts FILE or --state for sampling")

    if args.estimator == "linear":
        result = linear_inversion(freqs, tmat)
        bloch = result.bloch
        physical = result.physical
        diagnostics = {
            "condition_number": result.condition_number,
            "s0_deviation": result.s0_deviation,
        }
    else:
        # saturated_mle refuses a singular model itself; cond is reported
        cond = require_invertible(tmat)
        result = saturated_mle(freqs, tmat)
        bloch = result.bloch
        physical = True
        diagnostics = {
            "iterations": result.iterations,
            "converged": result.converged,
            "floored_probabilities": result.floored_probabilities,
            "condition_number": cond,
        }
        diagnostics["log_likelihood"] = log_likelihood(freqs, tmat @ bloch)

    payload = {
        "meta": _meta("estimate", seed=args.seed),
        "model": args.model,
        "estimator": args.estimator,
        "source": source,
        "bloch": [float(v) for v in bloch],
        "physical": bool(physical),
        "fidelity": None,
    }
    if truth is not None:
        rho_t = density_from_bloch(bloch_from_state(truth))
        rho_e = density_from_bloch(radial_clip(bloch))
        payload["fidelity"] = fidelity(rho_t, rho_e)
    payload["diagnostics"] = diagnostics
    _emit(_json_text(payload), args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="qtomo", description=__doc__.strip().splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qtomo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seed=True, fmt="json"):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument(
            "--format", default=fmt, choices=("csv", "json"),
            help=f"output format (default {fmt})",
        )
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser(
        "qttf-sweep",
        help="qTTF and max error vs theta (CSV: theta,qttf,max_error)",
    )
    p.add_argument("--model", default="single", choices=("single",))
    p.add_argument("--theta-min", type=float, default=0.1)
    p.add_argument("--theta-max", type=float, default=math.pi)
    p.add_argument("--points", type=int, default=200)
    common(p, seed=False, fmt="csv")
    p.set_defaults(func=cmd_qttf_sweep)

    p = sub.add_parser(
        "optimize", help="restarted Nelder-Mead over the model couplings"
    )
    p.add_argument("--model", required=True, choices=("two-meter", "circuit"))
    p.add_argument("--restarts", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser(
        "reproduce-table",
        help="seeded sampling reproduction of reference tables 1-3 (CSV)",
    )
    p.add_argument("--table", type=int, required=True)
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument("--repeats", type=int, default=5)
    common(p, fmt="csv")
    p.set_defaults(func=cmd_reproduce_table)

    p = sub.add_parser(
        "check-identities",
        help="numerical identity suite; exit 3 if any check fails",
    )
    p.add_argument(
        "--corrupt", action="store_true",
        help="perturb the transfer matrix (negative control; must fail)",
    )
    common(p)
    p.set_defaults(func=cmd_check_identities)

    p = sub.add_parser(
        "estimate", help="Bloch reconstruction from counts or a sampling spec"
    )
    p.add_argument("--model", default="two-meter", choices=("two-meter", "circuit"))
    p.add_argument("--theta-a", type=float, default=None)
    p.add_argument("--theta-b", type=float, default=None)
    p.add_argument("--params", default=None, help="12 comma-separated reals")
    p.add_argument("--counts", default=None, help="JSON counts file")
    p.add_argument(
        "--state", default=None,
        help="truth state: label (z0..y1) or 'alpha1,alpha2'",
    )
    p.add_argument("--estimator", default="mle", choices=("mle", "linear"))
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument(
        "--exact", action="store_true",
        help="feed exact probabilities instead of sampling",
    )
    common(p)
    p.set_defaults(func=cmd_estimate)

    return parser


@functools.cache
def _parser() -> _Parser:
    # built once per process: parsing keeps no state in the parser, and
    # usage, errors and --version read sys.stdout/sys.stderr when printed
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # qtomo warnings go to the sys.stderr of this call, with level and origin
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger = logging.getLogger("qtomo")
    logger.addHandler(handler)
    # numerical errors first: NonInvertibleModelError is also a ValueError
    try:
        return args.func(args)
    except (SingularInformationError, NonInvertibleModelError, ArithmeticError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        logger.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
