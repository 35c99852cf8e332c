"""Command-line front end: config ingestion, dispatch, stable serialization.

One YAML config file describes a system (source, channel, arrivals,
leakage, capacity) plus whatever the requested command needs: policy
constants for ``solve``, a search budget for ``search``, a capacity list
for ``sweep``, a horizon for ``simulate``.  Outputs are CSV/JSON files
written with round-trip float formatting and fixed ordering, so rerunning
the same config gives byte-identical artifacts.  JSON is strict RFC 8259:
infinities are written as the strings "inf" and "-inf", which the config
reader accepts back, and NaN as null.

Exit codes: 0 on success, 2 for configuration problems, 3 when the
requested constants (or search) yield no feasible policy, 4 when the
numerics fail outright.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import Optional

import numpy as np
import yaml

from .distortion import lower_bound
from .models import (
    ArrivalModel,
    AwgnChannel,
    BernoulliSource,
    ConstantLeakage,
    DecreasingLeakage,
    GaussianSource,
    IncreasingLeakage,
    SystemConfig,
    TabulatedLeakage,
    ZeroLeakage,
)
from .numerics import Grid, NumericsError
from .policy import (
    PolicySolution,
    VariationalConstants,
    beta_range,
    solve_adaptive,
    solve_constant_kappa,
)
from .search import Problem, SearchSpec, capacity_sweep, tune_constants
from .simulator import SimConfig, compare_to_analytic, simulate

__all__ = ["main", "load_run_config", "ConfigError", "InfeasibleError"]


class ConfigError(Exception):
    """The config file is missing, malformed, or semantically invalid."""


class InfeasibleError(Exception):
    """The requested constants or search admit no feasible policy."""


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------

_LEAKAGE_KINDS = {
    "zero": ZeroLeakage,
    "increasing": IncreasingLeakage,
    "decreasing": DecreasingLeakage,
    "constant": ConstantLeakage,
}


# the keys each part of a config may hold; any other key is a typo or an
# option that no longer exists, and running without it would be silent
_TOP_KEYS = ("source", "channel", "arrivals", "leakage", "capacity", "p0plus",
             "policy", "refine_c2", "constants", "search", "sweep", "simulate", "out")
_SECTION_KEYS = {
    "source": ("kind", "variance", "prob"),
    "channel": ("noise",),
    "arrivals": ("delta", "lam"),
    "search": ("budget", "margin", "beta_bounds"),
    "sweep": ("capacities", "kappa_budget"),
    "simulate": ("horizon", "seed", "z0", "policy_csv"),
}
# each policy kind reads its own constants
_CONSTANT_KEYS = {"adaptive": ("beta", "c1", "c2"), "constant-kappa": ("c",)}


def _fail(path: str, why: str):
    raise ConfigError(f"{path}: {why}")


def _reject_unknown(data: dict, known, path: str):
    for key in data:
        if key not in known:
            _fail(f"{path}{key}", f"unknown key (known: {', '.join(known)})")


def _section(data: dict, key: str, known=None, required: bool = True) -> Optional[dict]:
    # an optional section that is absent (or null) reads as None
    got = data.get(key)
    if got is None and not required:
        return None
    if not isinstance(got, dict):
        _fail(key, f"expected a mapping, got {got!r}" if key in data else "missing")
    _reject_unknown(got, known or _SECTION_KEYS[key], f"{key}.")
    return got


def _build(path: str, kind, **kwargs):
    # a library type, its own checks reported under the config key
    try:
        return kind(**kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


# YAML 1.1, which PyYAML reads, resolves 1e-3 or 1e300 (no decimal point
# or no exponent sign) to a string, not a float
_EXPONENT_FORM = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)[eE][-+]?\d+")


def _number(raw, path: str, *, allow_inf: bool = False, positive: bool = False) -> float:
    if isinstance(raw, str) and raw.strip().lower() in ("inf", ".inf", "infinity"):
        value = math.inf
    elif isinstance(raw, str) and _EXPONENT_FORM.fullmatch(raw.strip()):
        value = float(raw)
    elif isinstance(raw, (int, float)) and not isinstance(raw, bool):
        value = float(raw)
    else:
        _fail(path, f"expected a number, got {raw!r}")
    if math.isinf(value) and not allow_inf:
        _fail(path, "must be finite")
    if math.isnan(value):
        _fail(path, "must not be NaN")
    if positive and value <= 0.0:
        _fail(path, "must be positive")
    return value


def _integer(raw, path: str, *, minimum: Optional[int] = None) -> int:
    if not isinstance(raw, int) or isinstance(raw, bool):
        _fail(path, f"expected an integer, got {raw!r}")
    if minimum is not None and raw < minimum:
        _fail(path, f"must be at least {minimum}")
    return raw


def _pair(raw, path: str) -> tuple:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
        _fail(path, "expected a [low, high] pair")
    return (_number(raw[0], f"{path}[0]"), _number(raw[1], f"{path}[1]"))


def _build_source(data: dict):
    kind = data.get("kind")
    if kind == "gaussian":
        return _build("source", GaussianSource,
                      variance=_number(data.get("variance", 1.0), "source.variance"))
    if kind == "bernoulli":
        return _build("source", BernoulliSource,
                      prob=_number(data.get("prob", 0.5), "source.prob"))
    _fail("source.kind", f"must be 'gaussian' or 'bernoulli', got {kind!r}")


def _build_leakage(raw):
    if isinstance(raw, str):
        if raw in _LEAKAGE_KINDS:
            return _LEAKAGE_KINDS[raw]()
        if raw.startswith("custom:"):
            return _load_leakage_table(raw[len("custom:"):])
    _fail(
        "leakage",
        f"must be one of {sorted(_LEAKAGE_KINDS)} or custom:<path>, got {raw!r}",
    )


def _load_leakage_table(path: str):
    # two-column charge,rate text table; a header row is skipped if present
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        _fail("leakage", f"cannot read custom table {path!r}: {exc}")
    charges, rates = [], []
    for i, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) != 2:
            _fail("leakage", f"{path}:{i + 1}: expected two comma-separated columns")
        try:
            charges.append(float(cells[0]))
            rates.append(float(cells[1]))
        except ValueError:
            if i == 0:
                continue    # header
            _fail("leakage", f"{path}:{i + 1}: non-numeric entry")
    try:
        return TabulatedLeakage(charges=tuple(charges), rates=tuple(rates))
    except ValueError as exc:
        _fail("leakage", f"{path}: {exc}")


class RunConfig:
    """Validated contents of one config file.

    Holds the physical system (source, channel, arrivals, leakage,
    capacity, startup power), one policy kind with its constants, and the
    optional per-command sections, already coerced to library types.  A
    key that no command reads under the config's policy is an error.
    """

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ConfigError("top level: expected a mapping")
        _reject_unknown(data, _TOP_KEYS, "")
        self.src = _build_source(_section(data, "source"))
        ch_sec = _section(data, "channel")
        self.ch = _build("channel", AwgnChannel,
                         noise=_number(ch_sec.get("noise", 1.0), "channel.noise"))
        arr_sec = _section(data, "arrivals")
        self.arrivals = _build("arrivals", ArrivalModel,
                               delta=_number(arr_sec.get("delta", 1.0), "arrivals.delta"),
                               lam=_number(arr_sec.get("lam", 1.0), "arrivals.lam"))
        self.leak = _build_leakage(data.get("leakage", "zero"))
        self.capacity = _number(data.get("capacity"), "capacity",
                                allow_inf=True, positive=True)
        self.p0plus = _number(data.get("p0plus", 1e-3), "p0plus", positive=True)

        self.policy_kind = data.get("policy", "adaptive")
        if self.policy_kind not in _CONSTANT_KEYS:
            _fail("policy", f"must be 'adaptive' or 'constant-kappa', "
                            f"got {self.policy_kind!r}")
        adaptive = self.policy_kind == "adaptive"
        if "refine_c2" in data and not adaptive:
            _fail("refine_c2", "only policy 'adaptive' reads it")
        self.refine_c2: Optional[bool] = data.get("refine_c2")
        if self.refine_c2 is not None and not isinstance(self.refine_c2, bool):
            _fail("refine_c2", "must be a boolean")

        self.constants = None
        self.constant_c = None
        sec = _section(data, "constants", _CONSTANT_KEYS[self.policy_kind], required=False)
        if sec is not None and not adaptive:
            self.constant_c = _number(sec.get("c"), "constants.c")
        elif sec is not None:
            self.constants = _build(
                "constants", VariationalConstants,
                beta=_number(sec.get("beta"), "constants.beta"),
                c1=_number(sec.get("c1"), "constants.c1"),
                c2=_number(sec.get("c2"), "constants.c2"),
            )
            lo, hi = beta_range(self.src)
            if not lo < self.constants.beta < hi:
                _fail("constants.beta",
                      f"must sit strictly inside the source's range ({lo}, {hi})")

        self.search_spec = self._parse_search(_section(data, "search", required=False) or {})
        self.sweep_capacities, self.kappa_budget = self._parse_sweep(
            _section(data, "sweep", required=False)
        )
        self._parse_simulate(_section(data, "simulate", required=False))
        out = data.get("out")
        if out is not None and not isinstance(out, str):
            _fail("out", "must be a directory path string")
        self.out = out

    def _parse_search(self, sec: dict) -> SearchSpec:
        kwargs = {}
        if "budget" in sec:
            kwargs["budget"] = _integer(sec["budget"], "search.budget")
        if "margin" in sec:
            kwargs["margin"] = _number(sec["margin"], "search.margin")
        if "beta_bounds" in sec:
            kwargs["beta_bounds"] = _pair(sec["beta_bounds"], "search.beta_bounds")
        try:
            spec = SearchSpec(**kwargs)
            spec.resolved_bounds(self.src)
        except ValueError as exc:
            _fail("search", str(exc))
        return spec

    def _parse_sweep(self, sec):
        if sec is None:
            return None, 240
        raw = sec.get("capacities")
        if not isinstance(raw, (list, tuple)) or not raw:
            _fail("sweep.capacities", "expected a non-empty list")
        caps = [_number(v, f"sweep.capacities[{i}]", positive=True)
                for i, v in enumerate(raw)]
        return caps, _integer(sec.get("kappa_budget", 240), "sweep.kappa_budget", minimum=1)

    def _parse_simulate(self, sec):
        self.horizon = None if sec is None else _number(sec.get("horizon"), "simulate.horizon")
        sec = sec or {}
        self.sim_seed = _integer(sec.get("seed", 0), "simulate.seed", minimum=0)
        self.sim_z0 = _number(sec.get("z0", 0.0), "simulate.z0")
        self.policy_csv = sec.get("policy_csv")
        if self.policy_csv is not None and not isinstance(self.policy_csv, str):
            _fail("simulate.policy_csv", "must be a file path string")


# libyaml's safe loader where PyYAML was built with it: the same
# documents as yaml.safe_load, read about five times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_run_config(path: str) -> RunConfig:
    """Parse and validate a YAML config file.

    Raises :class:`ConfigError` with a ``field: problem`` message for
    anything from an unreadable file to an out-of-range parameter.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path!r}: {exc}") from exc
    return RunConfig(data)


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    # shortest decimal that round-trips; repr() is locale-independent
    return repr(float(x))


def _json_value(value):
    # RFC 8259 has no NaN or Infinity: +-inf become the strings the config
    # reader accepts back ("inf", "-inf"), NaN becomes null
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0.0 else "-inf"
        return value
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


def _json(payload) -> str:
    return json.dumps(_json_value(payload), allow_nan=False)


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _solution_sidecar(sol: PolicySolution) -> dict:
    return {
        "pi0": sol.pi0,
        "kappa0": sol.kappa0,
        "d_beta": sol.d_beta,
        "d_avg": sol.d_avg,
        "residual50": sol.optimality_residual,
        "feasible": sol.feasible,
    }


def _solution_csv(sol: PolicySolution) -> str:
    lines = ["z,p,kappa,f"]
    for z, p, k, f in zip(sol.grid.nodes, sol.p, sol.kappa, sol.f):
        lines.append(f"{_fmt(z)},{_fmt(p)},{_fmt(k)},{_fmt(f)}")
    return "\n".join(lines) + "\n"


def _out_dir(cfg: RunConfig, args) -> str:
    out = args.out or cfg.out or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _problem(cfg: RunConfig, command: str, capacity: Optional[float] = None) -> Problem:
    # the run's operating point, at the config's capacity unless one is given
    capacity = cfg.capacity if capacity is None else capacity
    if math.isinf(capacity):
        raise ConfigError(f"capacity: {command} needs a finite battery")
    return Problem(src=cfg.src, ch=cfg.ch, arrivals=cfg.arrivals, leak=cfg.leak,
                   capacity=capacity, p0plus=cfg.p0plus)


def _solve_from_config(cfg: RunConfig, problem: Problem, *,
                       default_refine: bool) -> PolicySolution:
    point = (problem.src, problem.ch, problem.arrivals, problem.leak,
             problem.capacity, problem.p0plus)
    if cfg.policy_kind == "constant-kappa":
        if cfg.constant_c is None:
            raise ConfigError("constants.c: required for a constant-kappa solve")
        return solve_constant_kappa(*point, cfg.constant_c)
    if cfg.constants is None:
        raise ConfigError("constants: required for an adaptive solve")
    refine = cfg.refine_c2 if cfg.refine_c2 is not None else default_refine
    return solve_adaptive(*point, cfg.constants, refine_c2=refine)


def cmd_bound(cfg: RunConfig, args) -> int:
    value = lower_bound(cfg.src, cfg.ch, cfg.arrivals, cfg.capacity)
    print(f"{value:.6f}")
    if args.out or cfg.out:
        out = _out_dir(cfg, args)
        if args.format == "json":
            _write_text(
                os.path.join(out, "bound.json"),
                _json({"L": cfg.capacity, "d_lb": value}) + "\n",
            )
        else:
            _write_text(
                os.path.join(out, "bound.csv"),
                f"L,d_lb\n{_fmt(cfg.capacity)},{_fmt(value)}\n",
            )
    return 0


def cmd_solve(cfg: RunConfig, args) -> int:
    sol = _solve_from_config(cfg, _problem(cfg, "solve"), default_refine=False)
    if not sol.feasible:
        raise InfeasibleError(sol.message or "constants give no feasible policy")
    sidecar = _solution_sidecar(sol)
    out = _out_dir(cfg, args)
    if args.format == "json":
        payload = dict(sidecar)
        payload["z"] = [float(v) for v in sol.grid.nodes]
        payload["p"] = [float(v) for v in sol.p]
        payload["kappa"] = [float(v) for v in sol.kappa]
        payload["f"] = [float(v) for v in sol.f]
        _write_text(os.path.join(out, "solution.json"),
                    _json(payload) + "\n")
    else:
        _write_text(os.path.join(out, "solution.csv"), _solution_csv(sol))
        _write_text(os.path.join(out, "solution.json"),
                    _json(sidecar) + "\n")
    print(_json(sidecar))
    return 0


def cmd_search(cfg: RunConfig, args) -> int:
    result = tune_constants(_problem(cfg, "search"), cfg.search_spec)
    if not result.feasible:
        raise InfeasibleError(
            f"search exhausted {result.evaluations} evaluations "
            f"({result.infeasible_evals} infeasible) without a feasible point"
        )
    payload = {
        "beta": result.constants.beta,
        "c1": result.constants.c1,
        "c2": result.constants.c2,
        "d_avg": result.d_avg,
        "evaluations": result.evaluations,
        "infeasible_evals": result.infeasible_evals,
        "feasible": True,
    }
    out = _out_dir(cfg, args)
    _write_text(os.path.join(out, "search.json"), _json(payload) + "\n")
    print(_json(payload))
    return 0


def cmd_sweep(cfg: RunConfig, args) -> int:
    if cfg.sweep_capacities is None:
        raise ConfigError("sweep.capacities: required for the sweep command")
    # the sweep poses the problem again at each of its capacities
    problem = _problem(cfg, "sweep", cfg.sweep_capacities[0])
    result = capacity_sweep(
        problem, cfg.sweep_capacities, cfg.search_spec, kappa_budget=cfg.kappa_budget
    )
    header = "L,d_avg_adaptive,d_avg_constk,d_lb"
    lines = [header]
    print(header)
    for cap, d_ad, d_ck, d_lb in result.rows():
        line = f"{_fmt(cap)},{_fmt(d_ad)},{_fmt(d_ck)},{_fmt(d_lb)}"
        lines.append(line)
        print(line)
    out = _out_dir(cfg, args)
    if args.format == "json":
        rows = [
            {"L": cap, "d_avg_adaptive": d_ad, "d_avg_constk": d_ck, "d_lb": d_lb}
            for cap, d_ad, d_ck, d_lb in result.rows()
        ]
        _write_text(os.path.join(out, "sweep.json"), _json(rows) + "\n")
    else:
        _write_text(os.path.join(out, "sweep.csv"), "\n".join(lines) + "\n")
    return 0


def _load_policy_csv(path: str) -> PolicySolution:
    # re-ingest a solve artifact: CSV columns z,p,kappa,f from z = 0 up,
    # plus the JSON sidecar written next to it
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"simulate.policy_csv: cannot read {path!r}: {exc}")
    if data.shape[1] != 4 or data.shape[0] < 2:
        raise ConfigError(
            f"simulate.policy_csv: {path!r} must have z,p,kappa,f rows"
        )
    z, p, kappa, f = data.T
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"simulate.policy_csv: {path!r} holds a non-finite value")
    if not (np.all(p > 0.0) and np.all(kappa > 0.0) and np.all(f >= 0.0)):
        raise ConfigError(
            f"simulate.policy_csv: {path!r}: p and kappa must be positive "
            "and f non-negative on every row"
        )
    sidecar_path = os.path.splitext(path)[0] + ".json"
    try:
        with open(sidecar_path, "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(
            f"simulate.policy_csv: cannot read sidecar {sidecar_path!r}: {exc}"
        )
    if not isinstance(sidecar, dict):
        raise ConfigError(
            f"simulate.policy_csv: sidecar {sidecar_path!r} must hold an object"
        )
    feasible = sidecar.get("feasible")
    if feasible is False:
        raise InfeasibleError(f"policy in {path!r} is marked infeasible")
    if feasible is not True:
        raise ConfigError(
            f"simulate.policy_csv: sidecar {sidecar_path!r}: feasible must be "
            f"true or false, got {feasible!r}"
        )

    def number(key, positive=False):
        # a JSON true or false is a bool, which Python counts as an int
        value = sidecar.get(key)
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value) and (value > 0.0 or not positive)):
            return float(value)
        raise ConfigError(
            f"simulate.policy_csv: sidecar {sidecar_path!r}: {key} must be a "
            f"finite{' positive' if positive else ''} number, got {value!r}"
        )

    try:
        grid = Grid(z)
    except ValueError as exc:
        raise ConfigError(f"simulate.policy_csv: {path!r}: {exc}")
    # a null d_beta marks a constant-mismatch policy, which has kappa = 1
    # throughout and no optimality residual; an adaptive one has a residual
    adaptive = sidecar.get("d_beta") is not None
    if not (adaptive or (np.all(kappa == 1.0) and sidecar.get("kappa0") == 1.0
                         and sidecar.get("residual50") is None)):
        raise ConfigError(f"simulate.policy_csv: {path!r}: a null d_beta needs kappa "
                          "and kappa0 equal to 1 and a null residual50")
    return PolicySolution(
        grid=grid,
        p=p,
        kappa=kappa,
        f=f,
        pi0=number("pi0"),
        kappa0=number("kappa0", positive=True),
        d_beta=number("d_beta", positive=True) if adaptive else None,
        d_avg=number("d_avg"),
        optimality_residual=number("residual50") if adaptive else None,
        p0plus=float(p[0]),         # the power on the z = 0 row
    )


def cmd_simulate(cfg: RunConfig, args) -> int:
    if cfg.horizon is None:
        raise ConfigError("simulate.horizon: required for the simulate command")
    problem = _problem(cfg, "simulate")
    if cfg.policy_csv is not None:
        policy = _load_policy_csv(cfg.policy_csv)
    else:
        # a simulable policy must close the mismatch normalization, so the
        # endpoint polish is on unless the config explicitly disables it
        policy = _solve_from_config(cfg, problem, default_refine=True)
        if not policy.feasible:
            raise InfeasibleError(
                policy.message or "constants give no feasible policy"
            )
    seed = args.seed if args.seed is not None else cfg.sim_seed
    system = SystemConfig(
        arrivals=problem.arrivals, leakage=problem.leak,
        capacity=problem.capacity, p0plus=problem.p0plus,
    )
    try:
        sim_config = SimConfig(
            policy=policy, system=system, horizon=cfg.horizon,
            seed=seed, z0=cfg.sim_z0, src=problem.src, ch=problem.ch,
        )
    except ValueError as exc:
        _fail("simulate", str(exc))
    stats = simulate(sim_config)
    report = compare_to_analytic(stats, policy)
    report_payload = {
        "ks_distance": report.ks_distance,
        "pi0_gap": report.pi0_gap,
        "inv_kappa_gap": report.inv_kappa_gap,
        "d_dagger_gap": report.d_dagger_gap,
    }
    payload = {
        "capacity": stats.capacity,
        "horizon": stats.horizon,
        "seed": seed,
        "pi0_hat": stats.pi0_hat,
        "mean_power": stats.mean_power,
        "mean_inv_kappa": stats.mean_inv_kappa,
        "mean_d_dagger": stats.mean_d_dagger,
        "overflow_energy": stats.overflow_energy,
        "event_count": stats.event_count,
        "energy_residual": stats.energy_residual,
        "report": report_payload,
        "bin_edges": [float(v) for v in stats.bin_edges],
        "empirical_cdf": [float(v) for v in stats.empirical_cdf],
    }
    out = _out_dir(cfg, args)
    _write_text(os.path.join(out, "simulation.json"), _json(payload) + "\n")
    if args.format == "csv":
        lines = ["z,cdf"]
        for edge, val in zip(stats.bin_edges, stats.empirical_cdf):
            lines.append(f"{_fmt(edge)},{_fmt(val)}")
        _write_text(os.path.join(out, "cdf.csv"), "\n".join(lines) + "\n")
    print(_json(report_payload))
    return 0


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_COMMANDS = {
    "bound": cmd_bound,
    "solve": cmd_solve,
    "search": cmd_search,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="YAML config file")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config's simulate.seed; only "
                             "simulate reads it")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output file format")
    parser = argparse.ArgumentParser(
        prog="ehjscc",
        description="Charge-adaptive power/bandwidth policies for an "
                    "energy-harvesting transmitter",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("bound", parents=[common],
                   help="distortion lower bound for the configured battery")
    sub.add_parser("solve", parents=[common],
                   help="solve the policy for given constants")
    sub.add_parser("search", parents=[common],
                   help="tune the constants under an evaluation budget")
    sub.add_parser("sweep", parents=[common],
                   help="adaptive vs constant-mismatch distortion over capacities")
    sub.add_parser("simulate", parents=[common],
                   help="Monte-Carlo run of a solved policy")
    return parser


def main(argv=None) -> int:
    """Entry point: parse arguments, run one command, map errors to codes."""
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config)
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed: must be non-negative")
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (NumericsError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
