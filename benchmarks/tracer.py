"""Span tracing of ehjscc from outside the package.

Public functions are wrapped where the calling module looks them up
(``ehjscc.policy.integrate_ode``, ``ehjscc.search.solve_adaptive``, ...),
so nothing under ``src/`` changes.  Each wrapped call records a span
(name, start, end, parent, operation id); spans stay in memory until the
run ends.  Hot helpers that would cost more to span than they do
(``find_root``, ``distortion``, the ODE right-hand side) are only
counted.

End-to-end numbers never come from a traced run: the wrappers add work
to every call they cover, and the right-hand-side counter wraps every
ODE evaluation.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter

_NULL_SPAN = contextlib.nullcontext()

CLI_COMMANDS = ("bound", "solve", "search", "sweep", "simulate")

# every per-layer metric a traced run reports, with its unit; a layer
# the workload does not exercise reports 0
LAYER_UNITS = {
    "policy.rhs_evals": "count",
    "policy.rhs_per_solve": "count",
    "policy.ode_per_solve": "count",
    "numerics.integrate_ode.calls": "count",
    "numerics.integrate_ode.self_s": "s",
    "numerics.cumulative_integral.calls": "count",
    "numerics.cumulative_integral.self_s": "s",
    "policy.optimality_residual.self_s": "s",
    "numerics.find_root.calls": "count",
    "policy.solve_adaptive.calls": "count",
    "policy.solve_adaptive.self_s": "s",
    "policy.solve_adaptive.infeasible": "count",
    "policy.solve_constant_kappa.calls": "count",
    "policy.solve_constant_kappa.self_s": "s",
    "policy.solve_constant_kappa.infeasible": "count",
    "distortion.distortion.calls": "count",
    "search.tune_constants.self_s": "s",
    "search.probes": "count",
    "search.infeasible_probes": "count",
    "search.probe_useful_ratio": "ratio",
    "search.probes_per_s": "1/s",
    "search.tune_constant_kappa.self_s": "s",
    "search.kappa_probes": "count",
    "search.kappa_infeasible": "count",
    "distortion.lower_bound.self_s": "s",
    "simulator.simulate.self_s": "s",
    "simulator.events": "count",
    "simulator.us_per_event": "us",
    "simulator.compare_to_analytic.self_s": "s",
    "simulator.energy_residual_max": "ratio",
    "simulator.fixed_ms": "ms",
    **{f"cli.{command}.s": "s" for command in CLI_COMMANDS},
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


class NullTracer:
    """Stand-in used by untraced runs: spans cost one attribute lookup."""

    def span(self, name):
        return _NULL_SPAN


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.counts = Counter()
        self.energy_residual_max = 0.0
        self._stack = []
        self._ops = 0
        self._patches = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._ops += 1
            op = self._ops
        else:
            op = self.spans[parent][4]
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    # -- wrapping -----------------------------------------------------------

    def _patch(self, module, attr, replacement):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def spanned(self, module, attr, name, on_result=None):
        """Replace ``module.attr`` by a wrapper that records a span."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        self._patch(module, attr, wrapper)

    def counted(self, module, attr, name):
        """Replace ``module.attr`` by a wrapper that only counts calls."""
        fn = getattr(module, attr)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._patch(module, attr, wrapper)

    def ode_integrator(self, module):
        """Span ``module.integrate_ode`` and count its right-hand-side calls."""
        fn = module.integrate_ode
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(rhs, *args, **kwargs):
            calls = [0]

            def counted_rhs(z, p):
                calls[0] += 1
                return rhs(z, p)

            try:
                with self.span("numerics.integrate_ode"):
                    return fn(counted_rhs, *args, **kwargs)
            finally:
                counts["policy.rhs_evals"] += calls[0]

        self._patch(module, "integrate_ode", wrapper)

    def install(self, ehjscc):
        """Wrap every traced lookup site of an imported ``ehjscc``."""
        policy, search = ehjscc.policy, ehjscc.search
        simulator, cli = ehjscc.simulator, ehjscc.cli

        def solved(name):
            def check(sol):
                if not sol.feasible:
                    self.counts[name + ".infeasible"] += 1
            return check

        def tuned(sol):
            self.counts["search.probes"] += sol.evaluations
            self.counts["search.infeasible_probes"] += sol.infeasible_evals

        def kappa_tuned(sol):
            self.counts["search.kappa_probes"] += sol.evaluations
            self.counts["search.kappa_infeasible"] += sol.infeasible_evals

        def simulated(stats):
            self.counts["simulator.events"] += stats.event_count
            self.energy_residual_max = max(self.energy_residual_max,
                                           stats.energy_residual)

        self.ode_integrator(policy)
        self.spanned(policy, "cumulative_integral", "numerics.cumulative_integral")
        self.spanned(policy, "optimality_residual", "policy.optimality_residual")
        self.counted(policy, "find_root", "numerics.find_root.calls")
        self.counted(policy, "distortion", "distortion.distortion.calls")
        for module in (policy, search, cli):
            self.spanned(module, "solve_adaptive", "policy.solve_adaptive",
                         solved("policy.solve_adaptive"))
            self.spanned(module, "solve_constant_kappa", "policy.solve_constant_kappa",
                         solved("policy.solve_constant_kappa"))
        for module in (search, cli):
            self.spanned(module, "tune_constants", "search.tune_constants", tuned)
            self.spanned(module, "lower_bound", "distortion.lower_bound")
        self.spanned(search, "tune_constant_kappa", "search.tune_constant_kappa",
                     kappa_tuned)
        self.spanned(search, "capacity_sweep", "search.capacity_sweep")
        self.spanned(cli, "capacity_sweep", "search.capacity_sweep")
        for module in (simulator, cli):
            self.spanned(module, "simulate", "simulator.simulate", simulated)
            self.spanned(module, "compare_to_analytic",
                         "simulator.compare_to_analytic")

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- derived numbers --------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus its direct children's; calls
        run on one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return out

    def layer_metrics(self):
        """The span- and count-derived entries of :data:`LAYER_UNITS`."""
        totals = self.totals()
        counts = self.counts

        def calls(name):
            return totals.get(name, (0, 0.0, 0.0))[0]

        def inclusive(name):
            return totals.get(name, (0, 0.0, 0.0))[1]

        def self_s(name):
            return totals.get(name, (0, 0.0, 0.0))[2]

        def share(num, den):
            return num / den if den else 0.0

        solves = calls("policy.solve_adaptive") + calls("policy.solve_constant_kappa")
        probes = counts["search.probes"]
        out = {
            "policy.rhs_evals": counts["policy.rhs_evals"],
            "policy.rhs_per_solve": share(counts["policy.rhs_evals"], solves),
            "policy.ode_per_solve": share(calls("numerics.integrate_ode"), solves),
            "search.probe_useful_ratio": share(
                probes - counts["search.infeasible_probes"], probes),
            "search.probes_per_s": share(probes, inclusive("search.tune_constants")),
            "simulator.us_per_event": share(
                1e6 * inclusive("simulator.simulate"), counts["simulator.events"]),
            "simulator.energy_residual_max": self.energy_residual_max,
            "cli.self_s": sum(self_s("cli." + c) for c in CLI_COMMANDS),
        }
        for command in CLI_COMMANDS:
            out[f"cli.{command}.s"] = inclusive("cli." + command)
        for name in LAYER_UNITS:
            if name in out:
                continue
            if name.endswith(".self_s"):
                out[name] = self_s(name[:-len(".self_s")])
            elif name.endswith(".calls") and name not in counts:
                out[name] = calls(name[:-len(".calls")])
            else:
                out[name] = counts[name]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
