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
Exit codes: 0 success, 1 invalid input, 2 numerical failure,
3 identity suite found a failing check.

This module parses, validates and formats only; the identity suite
lives in qtomo.identities and is re-exported here as identity_suite.
Each flag's value is checked where argparse parses it, so a bad value
exits 1 with "argument --flag: ..."; the commands check only
combinations of flags, the counts file and the library's numerical
refusals.
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
    state_from_angles,
)
from .estimators import linear_inversion, log_likelihood, radial_clip, saturated_mle
from .harness import DEFAULT_SEED, _single_experiments, run_full_experiment
from .identities import identity_suite
from .model import NonInvertibleModelError, SingularInformationError, require_invertible
from .single import max_error_single, qttf_single
from .twometer import REFERENCE_COUPLINGS, TwoMeterModel, optimize_two_meter

_TABLE_1_THETAS = (math.pi / 2.0, 2.0 * math.pi / 3.0, math.pi)

# No four-outcome qubit measurement has a qTTF below 8; the tetrahedral
# SIC reaches it (Rehacek, Englert, Kaszlikowski, PRA 70, 052321, 2004).
_FOUR_OUTCOME_BOUND = 8.0


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 on bad usage (2 is reserved)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# the largest count numpy's multinomial sampler accepts
_MAX_SHOTS = 2**63 - 1


def _integer(minimum: int, maximum: int | None = None):
    """An argparse type: an integer of at least `minimum` (at most `maximum`)."""
    bound = f"at least {minimum}" + ("" if maximum is None else f" and at most {maximum}")

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum or (maximum is not None and value > maximum):
            raise argparse.ArgumentTypeError(f"must be an integer of {bound}, got {text}")
        return value

    return parse


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite real number, got {text}")
    return value


def _parse_params(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError:
        values = ()
    if len(values) != 12:
        raise argparse.ArgumentTypeError(f"expected 12 comma-separated reals, got {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"entries must be finite, got {text}")
    return values


def _parse_state(text: str) -> np.ndarray:
    if text in PAULI_EIGENSTATE_LABELS:
        return PAULI_EIGENSTATES[PAULI_EIGENSTATE_LABELS.index(text)]
    try:
        alpha1, alpha2 = (float(x) for x in text.split(","))
    except ValueError:
        labels = ",".join(PAULI_EIGENSTATE_LABELS)
        message = f"expected a label ({labels}) or 'alpha1,alpha2', got {text!r}"
        raise argparse.ArgumentTypeError(message) from None
    try:
        return state_from_angles(alpha1, alpha2)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _is_count(value) -> bool:
    # JSON true/false load as bool, a subclass of int; neither is a count
    return isinstance(value, int) and not isinstance(value, bool)


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
    if args.model == "circuit":
        for flag, value in (("--theta-a", args.theta_a), ("--theta-b", args.theta_b)):
            if value is not None:
                raise ValueError(f"{flag} applies to --model two-meter only")
        return build_circuit(REFERENCE_OPTIMUM if args.params is None else args.params)
    if args.params is not None:
        raise ValueError("--params applies to --model circuit only")
    theta_a = args.theta_a if args.theta_a is not None else REFERENCE_COUPLINGS[0]
    theta_b = args.theta_b if args.theta_b is not None else REFERENCE_COUPLINGS[1]
    return TwoMeterModel(theta_a, theta_b)


def cmd_qttf_sweep(args) -> int:
    if not 0.0 < args.theta_min <= args.theta_max <= math.pi:
        raise ValueError(
            "need 0 < --theta-min <= --theta-max <= pi, got "
            f"--theta-min {args.theta_min} and --theta-max {args.theta_max}"
        )
    # qttf_single decreases on (0, pi], so only the grid's first point can be inf
    if math.isinf(qttf_single(args.theta_min)):
        raise ValueError(f"--theta-min {args.theta_min} gives the meter no sensitivity")
    # Python floats: the same values and printed bytes as numpy's, cheaper per call
    thetas = np.linspace(args.theta_min, args.theta_max, args.points).tolist()
    rows = []
    for theta in thetas:
        rows.append(
            [f"{theta:.12g}", f"{qttf_single(theta):.12g}", f"{max_error_single(theta):.12g}"]
        )
    meta = _meta("qttf-sweep")
    _emit(_csv_text(meta, ["theta", "qttf", "max_error"], rows), args.out)
    return 0


def cmd_optimize(args) -> int:
    optimize = optimize_two_meter if args.model == "two-meter" else optimize_circuit
    # the default restart counts live in the library functions
    restarts = {} if args.restarts is None else {"restarts": args.restarts}
    result = optimize(seed=args.seed, **restarts)
    if not math.isfinite(result.value):
        sys.stderr.write("optimization failed: objective singular everywhere\n")
        return 2
    payload = {
        "meta": _meta("optimize", seed=args.seed),
        "model": args.model,
        "best_value": result.value,
        "gap_to_bound": result.value - _FOUR_OUTCOME_BOUND,
        "best_params": list(result.params),
        # a restart that ended where the qTTF or its gradient is not
        # finite reports null there, as check-identities' deviations do
        "restarts": [
            {
                "value": r.value if math.isfinite(r.value) else None,
                "params": list(r.params),
                "converged": r.converged,
                "iterations": r.iterations,
                "evaluations": r.evaluations,
                "gradient_norm": r.gradient_norm if math.isfinite(r.gradient_norm) else None,
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
    # one pass over the couplings: each (state, repeat) substream is built once
    tables = _single_experiments(_TABLE_1_THETAS, shots, repeats, seed)
    for theta, table in zip(_TABLE_1_THETAS, tables):
        for row in table:
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
    rows = []
    for row in run_full_experiment(
        model, estimator=estimator, shots=shots, repeats=repeats, seed=seed
    ):
        rows.append(
            [row.label]
            + [f"{v:.6f}" for v in row.truth[1:]]
            + [f"{v:.6f}" for v in row.mean[1:]]
            + [f"{v:.6f}" for v in row.std]
            + [f"{row.fidelity:.6f}", str(row.fidelity >= 0.995).lower()]
        )
    return header, rows


def cmd_reproduce_table(args) -> int:
    if args.table == 1:
        header, rows = _table_1_rows(args.shots, args.repeats, args.seed)
    elif args.table == 2:
        model = TwoMeterModel(*REFERENCE_COUPLINGS)
        header, rows = _table_full_rows(model, "mle", args.shots, args.repeats, args.seed)
    else:
        model = build_circuit(REFERENCE_OPTIMUM)
        header, rows = _table_full_rows(model, "linear", args.shots, args.repeats, args.seed)
    meta = _meta(f"reproduce-table {args.table}", seed=args.seed)
    meta["shots"] = args.shots
    meta["repeats"] = args.repeats
    _emit(_csv_text(meta, header, rows), args.out)
    return 0


def cmd_check_identities(args) -> int:
    suite = identity_suite(seed=args.seed, corrupt=args.corrupt)
    payload = {"meta": _meta("check-identities", seed=args.seed), **suite}
    payload["meta"]["corrupt"] = args.corrupt
    _emit(_json_text(payload), args.out)
    return 0 if suite["all_pass"] else 3


def cmd_estimate(args) -> int:
    model = _build_model(args)
    tmat = model.transfer_matrix()
    truth = args.state

    if args.counts:
        with open(args.counts, encoding="utf-8") as handle:
            try:
                blob = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"malformed counts file: {exc}") from exc
        if not isinstance(blob, dict):
            raise ValueError("counts file must hold a JSON object")
        outcomes = blob.get("outcomes")
        if (
            not isinstance(outcomes, list)
            or len(outcomes) != 4
            or any(not _is_count(c) or c < 0 for c in outcomes)
            or sum(outcomes) <= 0
        ):
            raise ValueError("counts file needs 4 nonnegative integer outcomes")
        shots = blob.get("shots", sum(outcomes))
        if not _is_count(shots):
            raise ValueError(f"shots field must be an integer, got {shots!r}")
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

    estimator = linear_inversion if args.estimator == "linear" else saturated_mle
    result = estimator(freqs, tmat)
    bloch = result.bloch
    # reported here only: the estimators decide invertibility without an SVD
    cond = float(np.linalg.cond(tmat))
    if args.estimator == "linear":
        physical = result.physical
        diagnostics = {
            "condition_number": cond,
            "s0_deviation": result.s0_deviation,
        }
    else:
        physical = True
        diagnostics = {
            "iterations": result.iterations,
            "converged": result.converged,
            "floored_probabilities": result.floored_probabilities,
            "condition_number": cond,
            "log_likelihood": log_likelihood(freqs, tmat @ bloch),
        }

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

    def common(p, *, seed=True):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if seed:
            p.add_argument("--seed", type=_integer(0), default=DEFAULT_SEED)

    p = sub.add_parser(
        "qttf-sweep",
        help="qTTF and max error vs theta (CSV: theta,qttf,max_error)",
    )
    p.add_argument("--theta-min", type=_finite, default=0.1)
    p.add_argument("--theta-max", type=_finite, default=math.pi)
    p.add_argument("--points", type=_integer(2), default=200)
    common(p, seed=False)
    p.set_defaults(func=cmd_qttf_sweep)

    p = sub.add_parser(
        "optimize", help="restarted BFGS over the model settings"
    )
    p.add_argument("--model", required=True, choices=("two-meter", "circuit"))
    p.add_argument("--restarts", type=_integer(1), default=None)
    common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser(
        "reproduce-table",
        help="seeded sampling reproduction of reference tables 1-3 (CSV)",
    )
    p.add_argument("--table", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--shots", type=_integer(1, _MAX_SHOTS), default=1024)
    # two repeats are the fewest that give a standard deviation
    p.add_argument("--repeats", type=_integer(2), default=5)
    common(p)
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
    p.add_argument("--theta-a", type=_finite, default=None)
    p.add_argument("--theta-b", type=_finite, default=None)
    p.add_argument("--params", type=_parse_params, default=None, help="12 comma-separated reals")
    p.add_argument("--counts", default=None, help="JSON counts file")
    p.add_argument(
        "--state", type=_parse_state, default=None,
        help="truth state: label (z0..y1) or 'alpha1,alpha2'",
    )
    p.add_argument("--estimator", default="mle", choices=("mle", "linear"))
    p.add_argument("--shots", type=_integer(1, _MAX_SHOTS), default=1024)
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
