"""In-memory spans around qtomo's public functions, installed from outside.

Each traced function is rebound at every module attribute that holds it
(``qtomo.twometer.qttf_from_transfer`` and ``qtomo.circuit.qttf_from_transfer``
are two lookups of one function), so a call is caught wherever the caller
resolves the name at call time.  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent]``; ``parent`` is the index of the
enclosing span or -1.  Spans stay in memory until ``dump`` writes them.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# (span name, module under qtomo, function).  The span name is the
# defining module and function, whichever module the call goes through.
TRACED = (
    ("core.make_quadrature", "core", "make_quadrature"),
    ("model.qttf_from_transfer", "model", "qttf_from_transfer"),
    ("model.delta_surface", "model", "delta_surface"),
    ("model.minimize_with_restarts", "model", "minimize_with_restarts"),
    ("twometer.transfer_matrix", "twometer", "transfer_matrix"),
    ("twometer.qttf_two_meter", "twometer", "qttf_two_meter"),
    ("twometer.simulate_probabilities", "twometer", "simulate_probabilities"),
    ("twometer.coefficients_trace_form", "twometer", "coefficients_trace_form"),
    ("circuit.build_circuit", "circuit", "build_circuit"),
    ("circuit.qttf_circuit", "circuit", "qttf_circuit"),
    ("circuit.simulate_circuit_probabilities", "circuit", "simulate_circuit_probabilities"),
    ("estimators.rho_r_mle", "estimators", "rho_r_mle"),
    ("estimators.linear_inversion", "estimators", "linear_inversion"),
    ("harness.run_full_experiment", "harness", "run_full_experiment"),
    ("harness.run_single_experiment", "harness", "run_single_experiment"),
    ("harness.variance_vs_fisher_scan", "harness", "variance_vs_fisher_scan"),
    ("single.qttf_single", "single", "qttf_single"),
    ("single.estimate_sz", "single", "estimate_sz"),
    ("cli.identity_suite", "cli", "identity_suite"),
)

# Spans opened by the benchmark itself around each in-process CLI call.
CLI_SUBCOMMANDS = ("check-identities", "reproduce-table", "estimate", "qttf-sweep")

OBJECTIVES = ("twometer.qttf_two_meter", "circuit.qttf_circuit")


def _count_result(counts: dict, name: str, result) -> None:
    """Work counts read off the returned result objects."""
    if name == "estimators.rho_r_mle":
        counts["estimators.rho_r_mle.iterations"] += result.iterations
        counts["estimators.rho_r_mle.iterations_max"] = max(
            counts["estimators.rho_r_mle.iterations_max"], result.iterations
        )
        counts["estimators.rho_r_mle.converged"] += int(result.converged)
        counts["estimators.rho_r_mle.floored"] += result.floored_probabilities
    elif name == "estimators.linear_inversion":
        counts["estimators.linear_inversion.unphysical"] += int(not result.physical)
    elif name == "model.minimize_with_restarts":
        counts["model.minimize_with_restarts.restarts"] += len(result.restarts)
        counts["model.minimize_with_restarts.nm_iterations"] += sum(
            r.iterations for r in result.restarts
        )
        counts["model.minimize_with_restarts.converged"] += sum(
            int(r.converged) for r in result.restarts
        )
    elif name == "model.delta_surface":
        counts["model.delta_surface.nodes"] += len(result)


COUNTERS = (
    "estimators.rho_r_mle.iterations",
    "estimators.rho_r_mle.iterations_max",
    "estimators.rho_r_mle.converged",
    "estimators.rho_r_mle.floored",
    "estimators.linear_inversion.unphysical",
    "model.minimize_with_restarts.restarts",
    "model.minimize_with_restarts.nm_iterations",
    "model.minimize_with_restarts.converged",
    "model.delta_surface.nodes",
)


# Numerators of the *_frac metrics, reported only as the fractions.
_RAW_COUNTS = (
    "estimators.rho_r_mle.converged",
    "estimators.linear_inversion.unphysical",
    "model.minimize_with_restarts.converged",
)


class Tracer:
    """Collects spans while active; a paused tracer calls straight through."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = {name: 0 for name in COUNTERS}
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.missing: list[str] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = {name: 0 for name in COUNTERS}

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            _count_result(self.counts, name, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every module attribute that holds a traced function."""
        modules = [m for n, m in sys.modules.items() if n == "qtomo" or n.startswith("qtomo.")]
        for name, module_name, attr in TRACED:
            defining = sys.modules.get(f"qtomo.{module_name}")
            original = getattr(defining, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched = []

    def layer_metrics(self) -> dict:
        """calls, self_ms and counts per traced name, plus derived ratios."""
        n = len(self.spans)
        child_s = [0.0] * n
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: dict[str, int] = {}
        self_ms: dict[str, float] = {}
        objective_calls = 0
        for idx, (name, start, end, parent) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_ms[name] = self_ms.get(name, 0.0) + 1e3 * (end - start - child_s[idx])
            if name in OBJECTIVES and self._has_ancestor(idx, "model.minimize_with_restarts"):
                objective_calls += 1

        names = [t[0] for t in TRACED] + [f"cli.main.{s}" for s in CLI_SUBCOMMANDS]
        out: dict[str, float] = {}
        for name in names:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_ms"] = self_ms.get(name, 0.0)
        c = self.counts
        out.update((k, v) for k, v in c.items() if k not in _RAW_COUNTS)
        out["model.minimize_with_restarts.objective_calls"] = objective_calls
        out["estimators.rho_r_mle.converged_frac"] = _ratio(
            c["estimators.rho_r_mle.converged"], calls.get("estimators.rho_r_mle", 0)
        )
        out["estimators.linear_inversion.unphysical_frac"] = _ratio(
            c["estimators.linear_inversion.unphysical"],
            calls.get("estimators.linear_inversion", 0),
        )
        out["model.minimize_with_restarts.converged_frac"] = _ratio(
            c["model.minimize_with_restarts.converged"],
            c["model.minimize_with_restarts.restarts"],
        )
        return out

    def _has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

def dump(path, span_list: list, meta: dict) -> None:
    """Write spans as JSON: each is [name, start, end, parent index]."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "fields": ["name", "start", "end", "parent"],
                   "spans": span_list}, handle)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def exact_counts(metrics: dict) -> dict:
    """The metrics that must repeat exactly for a fixed seed: no timings."""
    return {k: v for k, v in metrics.items() if not k.endswith("self_ms")}
