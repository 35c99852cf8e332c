"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (that is
the set-up the harness times), then runs passes through ``run_pass``.
A pass returns the (start, end) ``perf_counter`` readings of the whole
pass (``pass_t``) and of each operation in it (``op_t``), the pass's
error figure (``err``) and a fingerprint of everything it computed;
the harness turns intervals into seconds.  Every
operation's output is checked as it comes back and recorded in an
:class:`Ops` tally.  Operations only go through the
public API of ``ehjscc``, always looked up on the module at call time so
that a traced run can wrap them.

Reference values are the paper's, as frozen in ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass

# benchmark rows: capacity -> (published d_avg, beta, c1, c2); the
# constants are printed to two decimals, so c2 is only known to +-0.005
PUBLISHED_ROWS = {
    ("gaussian", "zero"): {
        1: (0.6971, -0.9485, -0.95, 0.24),
        2: (0.6147, -0.9137, -0.92, 0.30),
        3: (0.5765, -0.8940, -0.90, 0.32),
        4: (0.5559, -0.8822, -0.89, 0.32),
        5: (0.5417, -0.8738, -0.89, 0.34),
    },
    ("gaussian", "rising"): {
        1: (0.7445, -0.9641, -0.97, 0.06),
        2: (0.6876, -0.9450, -0.95, 0.17),
        3: (0.6659, -0.9366, -0.94, 0.29),
        4: (0.6596, -0.9300, -0.93, 0.32),
        5: (0.6566, -0.9302, -0.93, 0.34),
    },
    ("bernoulli", "zero"): {
        1: (0.2097, -0.3450, -0.36, 0.13),
        2: (0.1663, -0.3170, -0.32, 0.15),
        3: (0.1473, -0.3039, -0.31, 0.16),
        4: (0.1367, -0.2962, -0.30, 0.16),
        5: (0.1321, -0.2901, -0.29, 0.16),
    },
    ("bernoulli", "rising"): {
        1: (0.2356, -0.3600, -0.36, 0.04),
        2: (0.2044, -0.3417, -0.35, 0.11),
        3: (0.1935, -0.3347, -0.34, 0.15),
        4: (0.1905, -0.3328, -0.34, 0.17),
        5: (0.1885, -0.3301, -0.33, 0.18),
    },
}
PUBLISHED_BOUND_GAUSS_L5 = 0.5017
C2_JITTER = 0.005
P0PLUS = 1e-3

# acceptance-gate tolerances
C01_ABS = 1e-3          # converse bound against the published value
C02_REL = 0.02          # published constants reproduce d_avg
C03_REL = 0.01          # tuned d_avg against the published value
C05_RESIDUAL = 1e-5     # stationarity residual of a certified solve
NORM_TOL = 1e-8         # both normalizations and the d_avg identity
ORDER_TOL = 1e-9        # adaptive <= constant-kappa
ENERGY_TOL = 1e-6       # simulator energy books
KS_TOL = 0.02           # simulated against analytic charge law

# operations that fail on the current code; they are counted in
# ``failed`` like any other, but do not make a run incorrect
KNOWN_DEFECTS = frozenset({
    "cli: bound --format json at capacity inf is not RFC 8259 JSON",
})


class Workload:
    """Defaults shared by the workloads below."""

    min_passes = 1          # passes that always run, whatever --seconds says
    repeats = True          # passes redo identical work

    def err_max(self, passes):
        """The run's ``err_max``: the largest error figure of its passes."""
        return max(p["err"] for p in passes)

    def info(self, passes, duration):
        """Workload-specific figures for the ``#`` lines: {label: value}."""
        return {}

    def finish(self, ops):
        """Checks made once per run, after the passes."""

    def layer_probe(self, traced):
        """Per-layer metrics measured outside the traced pass."""
        return {}

    def close(self):
        """Remove whatever the workload wrote."""


class Ops:
    """Tally of attempted operations and failed ones, by label."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()

    def check(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failures[label] += 1

    @property
    def failed(self):
        return sum(self.failures.values())

    @property
    def correct(self):
        return set(self.failures) <= KNOWN_DEFECTS


def _system(eh):
    m = eh.models
    return {
        "ch": m.AwgnChannel(noise=1.0),
        "arr": m.ArrivalModel(delta=1.0, lam=1.0),
        "gaussian": m.GaussianSource(variance=1.0),
        "bernoulli": m.BernoulliSource(prob=0.5),
        "zero": m.ZeroLeakage(),
        "rising": m.IncreasingLeakage(),
    }


def _normalized(eh, sol):
    # gate c07: mass and mismatch normalizations of a solved law
    quad = eh.numerics.quadrature
    mass = sol.pi0 + quad(sol.f, sol.grid)
    mismatch = sol.pi0 / sol.kappa0 + quad(sol.f / sol.kappa, sol.grid)
    return abs(mass - 1.0) <= NORM_TOL and abs(mismatch - 1.0) <= NORM_TOL


def _certified(eh, src, sol):
    # gates c05-c07 on a feasible certified adaptive solve
    share = sol.pi0 / sol.kappa0
    identity = sol.d_beta + share * (src.d_max - sol.d_beta)
    return (
        sol.optimality_residual <= C05_RESIDUAL
        and abs(sol.d_avg - identity) <= NORM_TOL
        and _normalized(eh, sol)
    )


def _derived_seed(*parts):
    # independent 32-bit seeds from the workload seed and a pass index
    return random.Random("/".join(map(str, parts))).getrandbits(32)


@dataclass(frozen=True)
class _Row:
    source: str
    leak: str
    capacity: float
    published: float
    start: object        # VariationalConstants with jittered c2
    printed: object      # VariationalConstants as published


class Rows(Workload):
    """Certified solves of every published row, plus two constant-kappa solves.

    The RKF45 ODE, the c2 polish, the stationary law and the residual
    oracle do nearly all the work; search and simulator do none.
    """

    name = "rows"
    min_passes = 5          # >= 100 adaptive solves, so p90 has 10 beyond it

    def __init__(self, eh, seed, workdir):
        self.eh = eh
        self.sys = _system(eh)
        consts = eh.policy.VariationalConstants
        rng = random.Random(seed)
        self.rows = [
            _Row(source, leak, float(cap), d_pub,
                 consts(beta, c1, c2 + rng.uniform(-C2_JITTER, C2_JITTER)),
                 consts(beta, c1, c2))
            for (source, leak), table in PUBLISHED_ROWS.items()
            for cap, (d_pub, beta, c1, c2) in table.items()
        ]
        arr, ch = self.sys["arr"], self.sys["ch"]
        bern = self.sys["bernoulli"]
        c_star = -arr.lam * eh.distortion.distortion(bern, ch, arr.delta / arr.lam, 1.0)
        # Bernoulli constants further below c* exhaust the RKF45 step budget
        self.constk = [("gaussian", -0.55), ("bernoulli", c_star - 0.01)]

    def run_pass(self, index, ops, trace):
        eh, s = self.eh, self.sys
        solve_t, constk_t, errors, fingerprint = [], [], [], []
        at_l5 = {}
        t_pass = time.perf_counter()
        for row in self.rows:
            src = s[row.source]
            t0 = time.perf_counter()
            sol = eh.policy.solve_adaptive(
                src, s["ch"], s["arr"], s[row.leak], row.capacity, P0PLUS,
                row.start, refine_c2=True,
            )
            solve_t.append((t0, time.perf_counter()))
            ops.check("rows: certified solve",
                      math.isfinite(sol.d_avg)
                      and (not sol.feasible or _certified(eh, src, sol)))
            errors.append(abs(sol.d_avg - row.published) / row.published)
            if row.leak == "zero" and row.capacity == 5.0:
                at_l5[row.source] = sol.d_avg
            fingerprint.append((sol.feasible, sol.d_avg, sol.pi0, sol.kappa0,
                                sol.constants.c2))
        for source, c in self.constk:
            t0 = time.perf_counter()
            sol = eh.policy.solve_constant_kappa(
                s[source], s["ch"], s["arr"], s["zero"], 5.0, P0PLUS, c,
            )
            constk_t.append((t0, time.perf_counter()))
            ops.check("rows: constant-kappa solve",
                      sol.feasible and _normalized(eh, sol)
                      and at_l5[source] <= sol.d_avg + ORDER_TOL)
            fingerprint.append((sol.feasible, sol.d_avg, sol.pi0))
        return {"pass_t": (t_pass, time.perf_counter()), "op_t": solve_t,
                "constk_t": constk_t, "err": max(errors), "fingerprint": fingerprint}

    def finish(self, ops):
        # gate c02 is stated for the constants exactly as printed
        s = self.sys
        for row in self.rows:
            sol = self.eh.policy.solve_adaptive(
                s[row.source], s["ch"], s["arr"], s[row.leak], row.capacity,
                P0PLUS, row.printed,
            )
            ops.check("rows: published constants reproduce d_avg (c02)",
                      abs(sol.d_avg - row.published) / row.published <= C02_REL)

    def info(self, passes, duration):
        # the two constant-kappa solves differ eightfold, so the median
        # is over each pass's mean
        return {"constant-kappa solves": sum(len(p["constk_t"]) for p in passes),
                "constant-kappa ms p50": statistics.median(
                    1e3 * statistics.fmean(duration(*t) for t in p["constk_t"])
                    for p in passes)}


class Tune(Workload):
    """Gaussian L=5 capacity sweep (both tuners and the bound) and a Bernoulli L=3 tune.

    Most probes are cheap solves on a 300-node grid and most of them come
    back infeasible.  The search seed moves the scan lattice, and with it
    the work of a tuning set by up to 25%, so the first TUNE_PASSES passes
    are a fixed schedule with ``SearchSpec.seed`` = pass index (gate c03
    tunes with seed 0).  Later passes take seeds derived from the
    workload seed.

    Bernoulli constant-kappa tuning is left out: with the default
    c_bounds each probe more than ~0.1 below c* runs until the RKF45 step
    budget is exhausted, minutes per probe.  A fix for that adds a
    Bernoulli sweep here.
    """

    name = "tune"
    TUNE_PASSES = 2
    min_passes = TUNE_PASSES
    repeats = False

    def __init__(self, eh, seed, workdir):
        self.eh = eh
        s = self.sys = _system(eh)
        search = eh.search
        self.seed = seed
        self.gauss = search.Problem(s["gaussian"], s["ch"], s["arr"], s["zero"], 5.0)
        self.bern = search.Problem(s["bernoulli"], s["ch"], s["arr"], s["zero"], 3.0)
        bound = eh.distortion.lower_bound
        self.bern_bound = bound(s["bernoulli"], s["ch"], s["arr"], 3.0)
        self.published = (PUBLISHED_ROWS["gaussian", "zero"][5][0],
                          PUBLISHED_ROWS["bernoulli", "zero"][3][0])

    def _tuned_ok(self, result, published):
        return (result.feasible
                and result.d_avg <= (1.0 + C03_REL) * published
                and _normalized(self.eh, result.solution))

    def run_pass(self, index, ops, trace):
        search = self.eh.search
        seed = index if index < self.TUNE_PASSES else _derived_seed(self.seed, index)
        spec = search.SearchSpec(seed=seed)
        t0 = time.perf_counter()
        sweep = search.capacity_sweep(self.gauss, [5.0], spec)
        t1 = time.perf_counter()
        bern = search.tune_constants(self.bern, spec)
        t2 = time.perf_counter()

        gauss, kappa, bound = sweep.adaptive[0], sweep.constant_kappa[0], sweep.d_lb[0]
        pub_g, pub_b = self.published
        ops.check("tune: adaptive Gaussian L=5 within c03", self._tuned_ok(gauss, pub_g))
        ops.check("tune: constant-kappa Gaussian L=5 above adaptive",
                  kappa.feasible and gauss.d_avg <= kappa.d_avg + ORDER_TOL)
        ops.check("tune: converse bound Gaussian L=5 (c01)",
                  abs(bound - PUBLISHED_BOUND_GAUSS_L5) <= C01_ABS and bound < gauss.d_avg)
        ops.check("tune: adaptive Bernoulli L=3 within c03", self._tuned_ok(bern, pub_b))
        excess = max(gauss.d_avg / bound, bern.d_avg / self.bern_bound) - 1.0
        fingerprint = [
            (r.d_avg, r.evaluations, r.infeasible_evals) for r in (gauss, kappa, bern)
        ] + [(c.beta, c.c1, c.c2) for c in (gauss.constants, bern.constants)] + [
            kappa.c, bound]
        return {"pass_t": (t0, t2), "op_t": [(t0, t1), (t1, t2)], "err": excess,
                "fingerprint": fingerprint}

    def err_max(self, passes):
        return max(p["err"] for p in passes[:self.TUNE_PASSES])


def _fixed_ms(eh, policy, system, src, ch, repeats=5):
    # simulator set-up cost: a run whose horizon holds about one event
    times = []
    for seed in range(repeats):
        config = eh.simulator.SimConfig(policy=policy, system=system, horizon=1.0,
                                        seed=seed, src=src, ch=ch)
        t0 = time.perf_counter()
        eh.simulator.simulate(config)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


class Simulate(Workload):
    """Long simulations of three policies solved during set-up.

    The c11 configuration (certified Gaussian L=5 row), the leaky
    Bernoulli L=3 row and the Gaussian constant-kappa policy at c=-0.55.
    The event loop does almost all the work.  The first KS_PASSES passes
    are a fixed certification schedule, simulation seed = pass index, as
    gate c11 uses seeds 0-9; their KS distances give ``err_max``.  A
    KS distance is sampling noise at these horizons (about +-50% between
    seeds), so only a fixed schedule makes it comparable between runs.
    Later passes take seeds derived from the workload seed and only add
    timing samples.
    """

    name = "simulate"
    HORIZON = 4.0e4
    KS_PASSES = 20
    min_passes = KS_PASSES
    repeats = False

    def __init__(self, eh, seed, workdir):
        self.eh = eh
        self.seed = seed
        s = self.sys = _system(eh)
        policy, models = eh.policy, eh.models
        consts = policy.VariationalConstants
        gauss_row = PUBLISHED_ROWS["gaussian", "zero"][5][1:]
        bern_row = PUBLISHED_ROWS["bernoulli", "rising"][3][1:]
        solved = [
            ("gaussian", "zero", 5.0, policy.solve_adaptive(
                s["gaussian"], s["ch"], s["arr"], s["zero"], 5.0, P0PLUS,
                consts(*gauss_row), refine_c2=True)),
            ("bernoulli", "rising", 3.0, policy.solve_adaptive(
                s["bernoulli"], s["ch"], s["arr"], s["rising"], 3.0, P0PLUS,
                consts(*bern_row), refine_c2=True)),
            ("gaussian", "zero", 5.0, policy.solve_constant_kappa(
                s["gaussian"], s["ch"], s["arr"], s["zero"], 5.0, P0PLUS, -0.55)),
        ]
        self.cases = []
        for src, leak, cap, sol in solved:
            if not sol.feasible:
                raise RuntimeError(f"set-up policy is infeasible: {sol.message}")
            system = models.SystemConfig(arrivals=s["arr"], leakage=s[leak],
                                         capacity=cap, p0plus=P0PLUS)
            self.cases.append((sol, system, s[src]))

    def _sim_seed(self, index, case):
        if index < self.KS_PASSES:
            return index
        return _derived_seed(self.seed, index, case)

    def run_pass(self, index, ops, trace):
        sim = self.eh.simulator
        ch = self.sys["ch"]
        events, busy, ks, fingerprint = 0, [], [], []
        t_pass = time.perf_counter()
        for case, (policy, system, src) in enumerate(self.cases):
            config = sim.SimConfig(policy=policy, system=system, horizon=self.HORIZON,
                                   seed=self._sim_seed(index, case),
                                   src=src, ch=ch)
            t0 = time.perf_counter()
            stats = sim.simulate(config)
            busy.append((t0, time.perf_counter()))
            report = sim.compare_to_analytic(stats, policy)
            ops.check("simulate: energy books and KS distance",
                      stats.energy_residual <= ENERGY_TOL
                      and report.ks_distance <= KS_TOL)
            events += stats.event_count
            ks.append(report.ks_distance)
            fingerprint.append((stats.event_count, stats.mean_d_dagger,
                                stats.mean_power, report.ks_distance))
        return {"pass_t": (t_pass, time.perf_counter()), "op_t": busy, "events": events,
                "ks": ks, "fingerprint": fingerprint}

    def err_max(self, passes):
        # the largest, over the policies, of the mean KS distance over
        # the fixed schedule
        schedule = passes[:self.KS_PASSES]
        return max(statistics.fmean(p["ks"][case] for p in schedule)
                   for case in range(len(self.cases)))

    def info(self, passes, duration):
        return {"events per s": statistics.median(
            p["events"] / sum(duration(*t) for t in p["op_t"]) for p in passes)}

    def layer_probe(self, traced):
        policy, system, src = self.cases[0]
        return {"simulator.fixed_ms": _fixed_ms(self.eh, policy, system, src,
                                                self.sys["ch"])}


_SYSTEM_YAML = """\
source: {kind: gaussian, variance: 1.0}
channel: {noise: 1.0}
arrivals: {delta: 1.0, lam: 1.0}
leakage: zero
p0plus: 0.001
"""
_CLI_HORIZON = 3.0e4
_CLI_SEARCH_BUDGET = 150


def _strict_json(path):
    # RFC 8259 has no NaN or Infinity literals
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    with open(path, "r", encoding="utf-8") as fh:
        return json.loads(fh.read(), parse_constant=reject)


def _csv_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0], [[float(v) for v in line.split(",")] for line in lines[1:]]


class Cli(Workload):
    """Every ``ehjscc`` command, in-process, on small configs.

    Only here are YAML parsing, artifact writing and the simulator's
    fixed set-up a visible share of the time.  ``--seed`` moves the work
    of ``search`` and ``sweep``, so each pass hands the commands its own
    seed, derived from the workload seed and the pass index, and the
    median over passes averages that out.
    """

    name = "cli"
    repeats = False

    def __init__(self, eh, seed, workdir):
        self.eh = eh
        self.seed = seed
        self.dir = os.path.join(workdir, f"cli-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        out = self.out
        solve_csv = out("solve_csv", "solution.csv")
        configs = {
            "bound": "capacity: 5.0\n",
            "bound_inf": "capacity: inf\n",
            "solve": "capacity: 5.0\n"
                     "constants: {beta: -0.8738, c1: -0.89, c2: 0.34}\n"
                     "refine_c2: true\n"
                     f"simulate: {{horizon: {_CLI_HORIZON}}}\n",
            "search": "capacity: 2.0\n"
                      f"search: {{budget: {_CLI_SEARCH_BUDGET}}}\n"
                      "sweep: {capacities: [2.0], kappa_budget: 60}\n",
            "simulate_csv": "capacity: 5.0\n"
                            f"simulate: {{horizon: {_CLI_HORIZON}, "
                            f"policy_csv: {json.dumps(solve_csv)}}}\n",
        }
        cfg = {}
        for name, body in configs.items():
            cfg[name] = os.path.join(self.dir, f"{name}.yaml")
            with open(cfg[name], "w", encoding="utf-8") as fh:
                fh.write(_SYSTEM_YAML + body)
        # (label, command, argv, takes --seed, check of the artifacts)
        self.commands = [
            ("cli: bound csv (c01)", "bound",
             ["--config", cfg["bound"], "--out", out("bound")], False, self._check_bound),
            ("cli: bound --format json at capacity inf is not RFC 8259 JSON", "bound",
             ["--config", cfg["bound_inf"], "--out", out("bound_inf"), "--format", "json"],
             False, self._check_bound_inf),
            ("cli: solve csv", "solve",
             ["--config", cfg["solve"], "--out", out("solve_csv")], False,
             self._check_solve_csv),
            ("cli: solve json", "solve",
             ["--config", cfg["solve"], "--out", out("solve_json"), "--format", "json"],
             False, self._check_solve_json),
            ("cli: search", "search",
             ["--config", cfg["search"], "--out", out("search")], True,
             self._check_search),
            ("cli: sweep ordering", "sweep",
             ["--config", cfg["search"], "--out", out("sweep")], True,
             self._check_sweep),
            ("cli: simulate", "simulate",
             ["--config", cfg["solve"], "--out", out("simulate")], True,
             self._check_simulate),
            ("cli: simulate from policy_csv reproduces the direct run", "simulate",
             ["--config", cfg["simulate_csv"], "--out", out("simulate_csv")], True,
             self._check_round_trip),
        ]

    def out(self, *parts):
        return os.path.join(self.dir, "out", *parts)

    # -- artifact checks (each returns True when the output is right) ------

    def _check_bound(self):
        header, rows = _csv_rows(self.out("bound", "bound.csv"))
        return (header == "L,d_lb" and rows[0][0] == 5.0
                and abs(rows[0][1] - PUBLISHED_BOUND_GAUSS_L5) <= C01_ABS)

    def _check_bound_inf(self):
        payload = _strict_json(self.out("bound_inf", "bound.json"))
        return abs(payload["d_lb"] - 0.5) <= C01_ABS

    def _check_solve_csv(self):
        sidecar = _strict_json(self.out("solve_csv", "solution.json"))
        header, rows = _csv_rows(self.out("solve_csv", "solution.csv"))
        published = PUBLISHED_ROWS["gaussian", "zero"][5][0]
        return (sidecar["feasible"] is True and header == "z,p,kappa,f"
                and all(len(r) == 4 for r in rows)
                and abs(sidecar["d_avg"] - published) / published <= C02_REL)

    def _check_solve_json(self):
        payload = _strict_json(self.out("solve_json", "solution.json"))
        sidecar = _strict_json(self.out("solve_csv", "solution.json"))
        _, rows = _csv_rows(self.out("solve_csv", "solution.csv"))
        return (all(payload[k] == v for k, v in sidecar.items())
                and all(len(payload[k]) == len(rows) for k in ("z", "p", "kappa", "f")))

    def _check_search(self):
        payload = _strict_json(self.out("search", "search.json"))
        return payload["feasible"] is True and payload["evaluations"] <= _CLI_SEARCH_BUDGET

    def _check_sweep(self):
        header, rows = _csv_rows(self.out("sweep", "sweep.csv"))
        cap, d_ad, d_ck, d_lb = rows[0]
        return (header == "L,d_avg_adaptive,d_avg_constk,d_lb" and cap == 2.0
                and d_lb < d_ad <= d_ck + ORDER_TOL)

    def _check_simulate(self):
        payload = _strict_json(self.out("simulate", "simulation.json"))
        return (payload["energy_residual"] <= ENERGY_TOL
                and payload["report"]["ks_distance"] <= KS_TOL)

    def _check_round_trip(self):
        direct = _strict_json(self.out("simulate", "simulation.json"))
        again = _strict_json(self.out("simulate_csv", "simulation.json"))
        return all(direct[k] == again[k]
                   for k in ("mean_d_dagger", "empirical_cdf", "report"))

    def _error(self):
        # relative errors of the L=5 bound and solve against the paper
        _, bound = _csv_rows(self.out("bound", "bound.csv"))
        sidecar = _strict_json(self.out("solve_csv", "solution.json"))
        published = PUBLISHED_ROWS["gaussian", "zero"][5][0]
        return max(abs(bound[0][1] - PUBLISHED_BOUND_GAUSS_L5) / PUBLISHED_BOUND_GAUSS_L5,
                   abs(sidecar["d_avg"] - published) / published)

    # -- passes -------------------------------------------------------------

    def _artifacts(self):
        for dirpath, _, files in sorted(os.walk(self.out())):
            for name in sorted(files):
                yield os.path.join(dirpath, name)

    def run_pass(self, index, ops, trace):
        cli = self.eh.cli
        shutil.rmtree(self.out(), ignore_errors=True)
        seed_arg = ["--seed", str(_derived_seed(self.seed, index))]
        fingerprint, op_t = [], []
        t_pass = time.perf_counter()
        for label, command, argv, seeded, check in self.commands:
            stdout, stderr = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with trace.span("cli." + command), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main([command] + argv + (seed_arg if seeded else []))
            op_t.append((t0, time.perf_counter()))
            try:
                ok = code == 0 and check()
            except (OSError, ValueError, KeyError, IndexError):
                ok = False
            ops.check(label, ok)
            fingerprint.append((command, code, stdout.getvalue()))
        interval = (t_pass, time.perf_counter())
        try:
            err = self._error()
        except (OSError, ValueError, KeyError, IndexError):
            err = 1.0
        ops.check("cli: bound and solve readable against the paper", err < 1.0)
        written = 0
        for path in self._artifacts():
            with open(path, "rb") as fh:
                data = fh.read()
            written += len(data)
            fingerprint.append((os.path.relpath(path, self.dir),
                                hashlib.sha256(data).hexdigest()))
        return {"pass_t": interval, "op_t": op_t, "err": err, "bytes": written,
                "fingerprint": fingerprint}

    def layer_probe(self, traced):
        s = _system(self.eh)
        policy = self.eh.policy.solve_adaptive(
            s["gaussian"], s["ch"], s["arr"], s["zero"], 5.0, P0PLUS,
            self.eh.policy.VariationalConstants(*PUBLISHED_ROWS["gaussian", "zero"][5][1:]),
            refine_c2=True,
        )
        system = self.eh.models.SystemConfig(arrivals=s["arr"], leakage=s["zero"],
                                             capacity=5.0, p0plus=P0PLUS)
        return {"cli.bytes_written": traced["bytes"],
                "simulator.fixed_ms": _fixed_ms(self.eh, policy, system,
                                                s["gaussian"], s["ch"])}

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Rows, Tune, Simulate, Cli)}
