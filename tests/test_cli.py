"""Tests for the command-line interface: configs, artifacts, exit codes."""

import json
import math

import numpy as np
import pytest
import yaml

from ehjscc import policy
from ehjscc.cli import _json, load_run_config, main
from ehjscc.numerics import ConvergenceError

GAUSS_SYSTEM = """\
source: {kind: gaussian, variance: 1.0}
channel: {noise: 1.0}
arrivals: {delta: 1.0, lam: 1.0}
leakage: zero
capacity: 5.0
p0plus: 0.001
"""

BENCH_CONSTANTS = """\
constants:
  beta: -0.8738
  c1: -0.89
  c2: 0.34
refine_c2: true
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def bench_config(workdir):
    path = workdir / "bench.yaml"
    path.write_text(
        GAUSS_SYSTEM + BENCH_CONSTANTS + "simulate: {horizon: 20000.0, seed: 7}\n"
    )
    return str(path)


@pytest.fixture(scope="module")
def solve_artifacts(workdir, bench_config):
    out = workdir / "solve_out"
    assert main(["solve", "--config", bench_config, "--out", str(out)]) == 0
    return out


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def test_bound_gaussian_values(workdir, capsys):
    # [PAPER] published lower bounds 0.5128 (L=3) and 0.5017 (L=5)
    for capacity, expected in ((3.0, 0.5128), (5.0, 0.5017)):
        cfg = workdir / f"bound_{capacity}.yaml"
        cfg.write_text(GAUSS_SYSTEM.replace("capacity: 5.0", f"capacity: {capacity}"))
        assert main(["bound", "--config", str(cfg)]) == 0
        line = capsys.readouterr().out.strip()
        assert len(line.split(".")[1]) == 6
        assert abs(float(line) - expected) <= 1e-3


def test_bound_infinite_capacity(workdir, capsys):
    # [TRIVIAL] unbounded battery: full harvest rate, distortion 1/(1+1)
    cfg = workdir / "bound_inf.yaml"
    cfg.write_text(GAUSS_SYSTEM.replace("capacity: 5.0", "capacity: inf"))
    assert main(["bound", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.strip() == "0.500000"


def _strict_json(path):
    # RFC 8259 has no NaN or Infinity literals
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_bound_json_at_infinite_capacity_is_strict_and_reloads(workdir, capsys):
    cfg = workdir / "bound_inf_json.yaml"
    cfg.write_text(GAUSS_SYSTEM.replace("capacity: 5.0", "capacity: inf"))
    out = workdir / "bound_inf_json"
    assert main(["bound", "--config", str(cfg), "--out", str(out),
                 "--format", "json"]) == 0
    capsys.readouterr()
    payload = _strict_json(out / "bound.json")
    assert payload == {"L": "inf", "d_lb": pytest.approx(0.5, abs=1e-12)}
    # the encoded capacity is one the config reader accepts back
    again = workdir / "bound_inf_again.yaml"
    again.write_text(GAUSS_SYSTEM.replace("capacity: 5.0", f"capacity: {payload['L']}"))
    assert load_run_config(str(again)).capacity == math.inf


def test_json_encoding_of_non_finite_values():
    text = _json({"a": math.inf, "b": [-math.inf, math.nan, 1.5], "c": None})
    assert json.loads(text) == {"a": "inf", "b": ["-inf", None, 1.5], "c": None}


def test_every_json_artifact_is_strict(workdir, bench_config, capsys):
    cfg = workdir / "strict.yaml"
    cfg.write_text(
        GAUSS_SYSTEM.replace("capacity: 5.0", "capacity: 2.0")
        + "search: {budget: 60}\n"
        + "sweep: {capacities: [2.0], kappa_budget: 30}\n"
    )
    constk = workdir / "strict_constk.yaml"
    constk.write_text(GAUSS_SYSTEM + "policy: constant-kappa\nconstants: {c: -0.55}\n")
    out = workdir / "strict_out"
    runs = [
        ["solve", "--config", bench_config, "--format", "json"],
        ["solve", "--config", str(constk)],
        ["search", "--config", str(cfg)],
        ["sweep", "--config", str(cfg), "--format", "json"],
        ["simulate", "--config", bench_config],
    ]
    written = []
    for i, argv in enumerate(runs):
        target = out / str(i)
        assert main(argv + ["--out", str(target)]) == 0
        written += sorted(target.glob("*.json"))
    capsys.readouterr()
    assert len(written) == len(runs)
    for path in written:
        _strict_json(path)


def test_bound_bernoulli(workdir, capsys):
    # [PAPER] published binary-source bound at L=5
    cfg = workdir / "bound_bern.yaml"
    cfg.write_text(
        GAUSS_SYSTEM.replace(
            "source: {kind: gaussian, variance: 1.0}",
            "source: {kind: bernoulli, prob: 0.5}",
        )
    )
    assert main(["bound", "--config", str(cfg)]) == 0
    assert abs(float(capsys.readouterr().out.strip()) - 0.1108) <= 1e-3


def test_bound_writes_csv(workdir, bench_config):
    out = workdir / "bound_out"
    assert main(["bound", "--config", bench_config, "--out", str(out)]) == 0
    header, row = (out / "bound.csv").read_text().splitlines()
    assert header == "L,d_lb"
    cap_text, val_text = row.split(",")
    assert cap_text == "5.0"
    # [DERIVED] closed form 1/(2 - exp(-5)) for the unit Gaussian system
    assert float(val_text) == pytest.approx(1.0 / (2.0 - math.exp(-5.0)), rel=1e-12)
    # shortest round-trip float formatting
    assert val_text == repr(float(val_text))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_artifacts_shape(solve_artifacts):
    csv = (solve_artifacts / "solution.csv").read_text().splitlines()
    assert csv[0] == "z,p,kappa,f"
    # panels of nine knots and L last
    assert (len(csv) - 1) % 9 == 1
    # the grid starts at z = 0, where the power is p0plus
    assert csv[1].split(",")[:2] == ["0.0", "0.001"]
    sidecar = json.loads((solve_artifacts / "solution.json").read_text())
    assert list(sidecar) == ["pi0", "kappa0", "d_beta", "d_avg",
                             "residual50", "feasible"]
    assert sidecar["feasible"] is True
    # [PAPER] published average distortion 0.5417 for this configuration
    assert abs(sidecar["d_avg"] - 0.5417) / 0.5417 <= 0.02


def test_solve_columns_monotone(solve_artifacts):
    # [PAPER] power rises with charge and the mismatch falls with it
    data = np.loadtxt(solve_artifacts / "solution.csv", delimiter=",", skiprows=1)
    assert np.all(np.diff(data[:, 1]) >= 0.0)
    assert np.all(np.diff(data[:, 2]) <= 0.0)


def test_solve_rerun_is_byte_identical(workdir, bench_config, solve_artifacts):
    out = workdir / "solve_out_again"
    assert main(["solve", "--config", bench_config, "--out", str(out)]) == 0
    assert (out / "solution.csv").read_bytes() == \
        (solve_artifacts / "solution.csv").read_bytes()
    assert (out / "solution.json").read_bytes() == \
        (solve_artifacts / "solution.json").read_bytes()


def test_solve_json_format_includes_arrays(workdir, bench_config):
    out = workdir / "solve_json"
    assert main(["solve", "--config", bench_config, "--out", str(out),
                 "--format", "json"]) == 0
    payload = json.loads((out / "solution.json").read_text())
    assert len(payload["z"]) == len(payload["p"]) and len(payload["z"]) % 9 == 1
    assert not (out / "solution.csv").exists()


def test_solve_constant_mismatch_nulls(workdir):
    cfg = workdir / "constk.yaml"
    cfg.write_text(GAUSS_SYSTEM + "policy: constant-kappa\nconstants: {c: -0.55}\n")
    out = workdir / "constk_out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    sidecar = json.loads((out / "solution.json").read_text())
    assert sidecar["d_beta"] is None
    assert sidecar["residual50"] is None
    assert sidecar["kappa0"] == 1.0


def test_solve_infeasible_exit_code(workdir, capsys):
    # constant-mismatch drive constant past the fixed-point threshold:
    # the power profile blows up before reaching the capacity
    cfg = workdir / "blowup.yaml"
    cfg.write_text(GAUSS_SYSTEM + "policy: constant-kappa\nconstants: {c: -0.65}\n")
    assert main(["solve", "--config", str(cfg), "--out",
                 str(cfg.parent / "blowup_out")]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_solve_numerical_failure_exit_code(workdir, bench_config, monkeypatch, capsys):
    # a Lambert W that does not converge stops the Gaussian solve as a
    # numerical failure, as a singular ODE does
    def no_convergence(x):
        raise ConvergenceError(f"lambert_wm1({x}) did not converge")

    monkeypatch.setattr(policy, "lambert_wm1", no_convergence)
    assert main(["solve", "--config", bench_config, "--out",
                 str(workdir / "no_convergence_out")]) == 4
    assert "numerical failure: lambert_wm1(" in capsys.readouterr().err


def test_solve_requires_constants(workdir, capsys):
    cfg = workdir / "noconst.yaml"
    cfg.write_text(GAUSS_SYSTEM)
    assert main(["solve", "--config", str(cfg)]) == 2
    assert "constants" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config validation and exit codes
# ---------------------------------------------------------------------------

def test_config_error_exit_codes(workdir, capsys):
    bad_value = workdir / "bad_value.yaml"
    bad_value.write_text(GAUSS_SYSTEM.replace("variance: 1.0", "variance: -1.0"))
    assert main(["bound", "--config", str(bad_value)]) == 2

    bad_yaml = workdir / "bad_yaml.yaml"
    bad_yaml.write_text("source: [unclosed\n")
    assert main(["bound", "--config", str(bad_yaml)]) == 2

    missing = str(workdir / "nope.yaml")
    assert main(["bound", "--config", missing]) == 2

    bad_leak = workdir / "bad_leak.yaml"
    bad_leak.write_text(GAUSS_SYSTEM.replace("leakage: zero", "leakage: porous"))
    assert main(["bound", "--config", str(bad_leak)]) == 2
    capsys.readouterr()

    # keys the format does not have, removed options among them, are
    # rejected by name instead of ignored
    unknown = {
        "search.c2_bounds": GAUSS_SYSTEM + "search: {c2_bounds: [0, 1]}\n",
        "search.c1_bounds": GAUSS_SYSTEM + "search: {c1_bounds: [-1, 0]}\n",
        "capacty": GAUSS_SYSTEM.replace("capacity:", "capacty: 5.0\ncapacity:"),
        "channel.nosie": GAUSS_SYSTEM.replace("{noise: 1.0}", "{noise: 1.0, nosie: 2.0}"),
        "source.varience": GAUSS_SYSTEM.replace("variance: 1.0}", "variance: 1.0, varience: 2}"),
        "arrivals.lamda": GAUSS_SYSTEM.replace("lam: 1.0}", "lam: 1.0, lamda: 1.0}"),
        "constants.c3": GAUSS_SYSTEM + "constants: {beta: -0.87, c1: -0.89, c2: 0.3, c3: 0}\n",
        "sweep.capacity": GAUSS_SYSTEM + "sweep: {capacities: [2.0], capacity: 3.0}\n",
        "simulate.seeds": GAUSS_SYSTEM + "simulate: {horizon: 10.0, seeds: 1}\n",
        # keys no command reads: the search draws no random numbers, and
        # each policy reads only its own constants
        "search.seed": GAUSS_SYSTEM + "search: {budget: 60, seed: 3}\n",
        "constants.c": GAUSS_SYSTEM + "constants: {beta: -0.87, c1: -0.89, c2: 0.3, c: 12345}\n",
        "constants.beta": GAUSS_SYSTEM + "policy: constant-kappa\n"
                                         "constants: {c: -0.55, beta: 7.0, c1: 99}\n",
    }
    for i, (key, text) in enumerate(unknown.items()):
        path = workdir / f"unknown_{i}.yaml"
        path.write_text(text)
        assert main(["bound", "--config", str(path)]) == 2
        assert f"{key}: unknown key" in capsys.readouterr().err

    # a config the command cannot run: an unbounded battery, a section
    # it needs left out, or a negative seed on the command line
    unbounded = (GAUSS_SYSTEM.replace("capacity: 5.0", "capacity: .inf")
                 + BENCH_CONSTANTS + "simulate: {horizon: 10.0}\n")
    cannot_run = [
        ("solve", unbounded, [], "capacity"),
        ("search", unbounded, [], "capacity"),
        ("simulate", unbounded, [], "capacity"),
        ("sweep", GAUSS_SYSTEM, [], "sweep.capacities"),
        ("simulate", GAUSS_SYSTEM + BENCH_CONSTANTS, [], "simulate.horizon"),
        ("bound", GAUSS_SYSTEM, ["--seed", "-1"], "--seed"),
    ]
    for i, (command, text, extra, key) in enumerate(cannot_run):
        path = workdir / f"cannot_run_{i}.yaml"
        path.write_text(text)
        out = str(workdir / f"cannot_run_{i}")
        assert main([command, "--config", str(path), "--out", out] + extra) == 2
        assert f"config error: {key}: " in capsys.readouterr().err

    # every other rejection of the config reader, each under its key
    tables = {"three_columns": "z,rate\n0.0,0.0,1.0\n5.0,0.1,1.0\n",
              "non_numeric": "z,rate\n0.0,0.0\n5.0,fast\n",
              "non_increasing": "0.0,0.0\n5.0,0.1\n5.0,0.2\n"}
    for name, table in tables.items():
        (workdir / f"leak_{name}.csv").write_text(table)
    constant_kappa = GAUSS_SYSTEM + "policy: constant-kappa\n"
    # the ODE integrator starts a trajectory from a state in [1e-300,
    # 1e300], and at prob 0.5 a Bernoulli beta above about -1e-3 has no
    # distortion level that is a normal float
    p0plus_low = GAUSS_SYSTEM.replace("p0plus: 0.001", "p0plus: 1.0e-301") + BENCH_CONSTANTS
    p0plus_high = GAUSS_SYSTEM.replace("p0plus: 0.001", "p0plus: 1.0e+301") + BENCH_CONSTANTS
    bern = GAUSS_SYSTEM.replace("kind: gaussian, variance: 1.0", "kind: bernoulli, prob: 0.5")
    horizon = "simulate: {horizon: 10.0}\n"
    rejected = [
        ("solve", p0plus_low, "p0plus"),
        ("search", p0plus_low + "search: {budget: 5}\n", "p0plus"),
        ("simulate", p0plus_low + horizon, "p0plus"),
        ("solve", p0plus_high, "p0plus"),
        ("simulate", p0plus_high + horizon, "p0plus"),
        ("solve", bern + "constants: {beta: -1.0e-5, c1: -0.89, c2: 0.34}\n",
         "constants.beta"),
        ("search", bern + "search: {beta_bounds: [-0.49, -1.0e-5], budget: 5}\n",
         "search.beta_bounds"),
        # the default box ends at -1e-5 here
        ("search", bern.replace("prob: 0.5", "prob: 0.001"), "search.beta_bounds"),
        ("bound", GAUSS_SYSTEM.replace("source: {kind: gaussian, variance: 1.0}",
                                       "source: 3"), "source"),
        ("bound", GAUSS_SYSTEM.replace("kind: gaussian", "kind: laplace"), "source.kind"),
        ("bound", GAUSS_SYSTEM.replace("p0plus: 0.001", "p0plus: .nan"), "p0plus"),
        ("bound", GAUSS_SYSTEM.replace("{noise: 1.0}", "{noise: -1}"), "channel"),
        ("bound", GAUSS_SYSTEM.replace("delta: 1.0", "delta: -1"), "arrivals"),
        ("bound", "- source\n- channel\n", "top level"),
        ("bound", GAUSS_SYSTEM + "policy: other\n", "policy"),
        ("bound", GAUSS_SYSTEM + "refine_c2: 'yes'\n", "refine_c2"),
        ("bound", constant_kappa + "constants: {c: -0.55}\nrefine_c2: true\n", "refine_c2"),
        ("bound", GAUSS_SYSTEM + "out: 3\n", "out"),
        ("bound", GAUSS_SYSTEM + "search: {budget: 1.5}\n", "search.budget"),
        ("bound", GAUSS_SYSTEM + "search: {beta_bounds: [-0.5]}\n", "search.beta_bounds"),
        ("bound", GAUSS_SYSTEM + "search: 3\n", "search"),
        ("bound", GAUSS_SYSTEM + "sweep: 3\n", "sweep"),
        ("bound", GAUSS_SYSTEM + "sweep: {capacities: []}\n", "sweep.capacities"),
        ("bound", GAUSS_SYSTEM + "sweep: {}\n", "sweep.capacities"),
        ("bound", GAUSS_SYSTEM + "simulate: 3\n", "simulate"),
        ("bound", GAUSS_SYSTEM + "simulate: {horizon: 10.0, policy_csv: 3}\n",
         "simulate.policy_csv"),
        ("solve", constant_kappa, "constants.c"),
        ("simulate", GAUSS_SYSTEM + BENCH_CONSTANTS + "simulate: {horizon: 10.0, z0: 7.0}\n",
         "simulate"),
    ] + [("bound", GAUSS_SYSTEM.replace("leakage: zero",
                                        f"leakage: custom:{workdir / f'leak_{name}.csv'}"),
          "leakage") for name in tables]
    for i, (command, text, key) in enumerate(rejected):
        path = workdir / f"rejected_{i}.yaml"
        path.write_text(text)
        out = str(workdir / f"rejected_{i}")
        assert main([command, "--config", str(path), "--out", out]) == 2, key
        assert f"config error: {key}: " in capsys.readouterr().err

    # only the search commands read the box
    bern_bound = workdir / "bern_bound.yaml"
    bern_bound.write_text(bern.replace("prob: 0.5", "prob: 0.001"))
    assert main(["bound", "--config", str(bern_bound)]) == 0
    capsys.readouterr()

    # a search box the source admits but where no probe is usable is an
    # infeasible run, not a config error
    below_root = workdir / "below_root.yaml"
    below_root.write_text(GAUSS_SYSTEM + "search: {beta_bounds: [-0.95, -0.9], budget: 5}\n")
    assert main(["search", "--config", str(below_root),
                 "--out", str(workdir / "below_root")]) == 3
    assert ("infeasible: search found no feasible point in 2 evaluations (2 infeasible): "
            "no sign change over the beta box: its high end -0.9 falls short of it"
            ) in capsys.readouterr().err


def test_solve_in_a_battery_below_the_default_grid_start(workdir, capsys):
    # a small battery, below where the old graded grid started
    tiny = workdir / "tiny.yaml"
    tiny.write_text(GAUSS_SYSTEM.replace("capacity: 5.0", "capacity: 1.0e-6")
                    + BENCH_CONSTANTS)
    assert main(["solve", "--config", str(tiny), "--out", str(workdir / "tiny")]) == 0
    sidecar = json.loads(capsys.readouterr().out)
    # the battery is almost always empty, where the distortion is d_max = 1
    assert sidecar["feasible"] and sidecar["d_avg"] == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("capacity", ["1.0e-310", "5.0e-324"])
def test_batteries_below_the_grid_floor_are_config_errors(workdir, capsys, capacity):
    # the grid's knots are subnormal below the least normal float
    solve = workdir / f"floor_solve_{capacity}.yaml"
    solve.write_text(GAUSS_SYSTEM.replace("capacity: 5.0", f"capacity: {capacity}")
                     + BENCH_CONSTANTS)
    sweep = workdir / f"floor_sweep_{capacity}.yaml"
    sweep.write_text(GAUSS_SYSTEM + f"sweep: {{capacities: [2.0, {capacity}]}}\n")
    for command, path, key in (("solve", solve, "capacity"),
                               ("sweep", sweep, "sweep.capacities[1]")):
        assert main([command, "--config", str(path), "--out", str(workdir / "unused")]) == 2
        assert (f"config error: {key}: capacity must be at least the least normal float"
                in capsys.readouterr().err)


def test_a_battery_of_1e_300_solves(workdir, capsys):
    # far below the old stencil floor of ~1.12e-73: the battery is almost
    # always empty, where the distortion is d_max = 1
    solve = workdir / "tiny_solve.yaml"
    solve.write_text(GAUSS_SYSTEM.replace("capacity: 5.0", "capacity: 1.0e-300")
                     + BENCH_CONSTANTS)
    assert main(["solve", "--config", str(solve), "--out", str(workdir / "tiny_300")]) == 0
    assert json.loads(capsys.readouterr().out)["d_avg"] == pytest.approx(1.0, abs=1e-12)


def test_search_says_why_it_has_no_result(workdir, capsys):
    # at a battery of 1e-6 the low end of the beta box already meets the
    # margin: one feasible probe, and no sign change to find a root in
    path = workdir / "search_tiny.yaml"
    path.write_text(GAUSS_SYSTEM.replace("capacity: 5.0", "capacity: 1.0e-6")
                    + "search: {budget: 30}\n")
    assert main(["search", "--config", str(path), "--out", str(workdir / "search_tiny")]) == 3
    assert capsys.readouterr().err == (
        "infeasible: search found no feasible point in 1 evaluations (0 infeasible): "
        "no sign change over the beta box: its low end -0.99 meets the margin\n")


@pytest.mark.parametrize("command, section, key", [
    ("simulate", "simulate: {horizon: 10.0, seed: -1}\n", "simulate.seed"),
    ("sweep", "sweep: {capacities: [2.0], kappa_budget: 0}\n", "sweep.kappa_budget"),
    ("sweep", "sweep: {capacities: [2.0, -1.0]}\n", "sweep.capacities[1]"),
    # beta's admissible range is (-1, 0) for a unit-variance Gaussian
    ("search", "search: {beta_bounds: [-1.5, -0.5]}\n", "search"),
    ("solve", "constants: {beta: 0.5, c1: -0.89, c2: 0.34}\n", "constants.beta"),
    ("simulate", "constants: {beta: -1.5, c1: -0.89, c2: 0.34}\n"
                 "simulate: {horizon: 10.0}\n", "constants.beta"),
])
def test_values_out_of_range_for_the_run_are_config_errors(
        workdir, capsys, command, section, key):
    # values the library would reject only once the command runs are
    # caught while the config is read, so they exit 2, not with a traceback
    path = workdir / f"out_of_range_{key}_{command}.yaml"
    constants = "" if section.startswith("constants:") else BENCH_CONSTANTS
    path.write_text(GAUSS_SYSTEM + constants + section)
    assert main([command, "--config", str(path), "--out", str(workdir / "unused")]) == 2
    assert f"config error: {key}: " in capsys.readouterr().err


def test_numbers_in_exponent_form(workdir, capsys):
    # YAML 1.1 hands 1e-3 over as a string; it is read as the number
    path = workdir / "exponent_form.yaml"
    path.write_text(GAUSS_SYSTEM.replace("p0plus: 0.001", "p0plus: 1e-3")
                    + "search: {beta_bounds: [-0.99999999, -1e-12]}\n"
                    + "sweep: {capacities: [1.0e1, 2e0]}\n"
                    + "simulate: {horizon: 1e300, z0: +2E0}\n")
    cfg = load_run_config(str(path))
    assert cfg.p0plus == 1e-3
    assert cfg.search_spec.beta_bounds == (-0.99999999, -1e-12)
    assert cfg.sweep_capacities == [10.0, 2.0]
    assert cfg.horizon == 1e300 and cfg.sim_z0 == 2.0

    # strings that are not numbers, NaN, and infinity where it is not
    # allowed stay config errors
    for value in ("1e-3x", "e5", "nan", "1e400", "0x1p-3"):
        path.write_text(GAUSS_SYSTEM.replace("p0plus: 0.001", f"p0plus: {value}"))
        assert main(["bound", "--config", str(path)]) == 2
        assert "config error: p0plus: " in capsys.readouterr().err


def test_configs_read_alike_through_libyaml(workdir, bench_config, capsys):
    # the loader the CLI reads configs with gives the dicts yaml.safe_load
    # gives, exponent forms left as strings included, on the configs these
    # tests write; invalid YAML stays a config error
    from ehjscc import cli

    texts = [GAUSS_SYSTEM + BENCH_CONSTANTS,
             GAUSS_SYSTEM.replace("p0plus: 0.001", "p0plus: 1e-3")
             + "search: {beta_bounds: [-0.99999999, -1e-12]}\n"
             + "sweep: {capacities: [1.0e1, 2e0]}\n"
             + "simulate: {horizon: 1e300, z0: +2E0, seed: 7}\n"]
    texts += [path.read_text() for path in sorted(workdir.glob("*.yaml"))]
    for text in texts:
        try:
            want = yaml.safe_load(text)
        except yaml.YAMLError:
            with pytest.raises(yaml.YAMLError):
                yaml.load(text, Loader=cli._YAML_LOADER)
            continue
        assert yaml.load(text, Loader=cli._YAML_LOADER) == want
    assert yaml.load(texts[1], Loader=cli._YAML_LOADER)["p0plus"] == "1e-3"
    bad = workdir / "bad_yaml_libyaml.yaml"
    bad.write_text("source: [unclosed\n")
    assert main(["bound", "--config", str(bad)]) == 2
    assert "invalid YAML" in capsys.readouterr().err


def test_usage_error_exits_via_argparse(workdir):
    with pytest.raises(SystemExit):
        main(["solve"])
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x.yaml"])


def test_custom_leakage_table(workdir, capsys):
    table = workdir / "leak_table.csv"
    table.write_text("z,rate\n0.0,0.0\n5.0,0.1\n")
    cfg = workdir / "custom_leak.yaml"
    cfg.write_text(GAUSS_SYSTEM.replace("leakage: zero",
                                        f"leakage: custom:{table}"))
    assert main(["bound", "--config", str(cfg)]) == 0
    capsys.readouterr()

    cfg_missing = workdir / "custom_leak_missing.yaml"
    cfg_missing.write_text(GAUSS_SYSTEM.replace("leakage: zero",
                                                "leakage: custom:/does/not/exist"))
    assert main(["bound", "--config", str(cfg_missing)]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_stats_and_report(workdir, bench_config, capsys):
    out = workdir / "sim_out"
    assert main(["simulate", "--config", bench_config, "--out", str(out)]) == 0
    stdout_report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    payload = json.loads((out / "simulation.json").read_text())
    assert payload["report"] == stdout_report
    assert payload["seed"] == 7
    assert len(payload["empirical_cdf"]) == 513
    assert payload["report"]["ks_distance"] <= 0.02
    assert payload["energy_residual"] <= 1e-6
    assert (out / "cdf.csv").read_text().splitlines()[0] == "z,cdf"


def test_simulate_roundtrip_from_solve_csv(workdir, bench_config, solve_artifacts,
                                           capsys):
    # a solve artifact re-ingested as the policy reproduces the direct
    # run exactly: round-trip float formatting loses nothing
    direct_out = workdir / "sim_direct"
    assert main(["simulate", "--config", bench_config, "--out",
                 str(direct_out)]) == 0
    cfg = workdir / "sim_csv.yaml"
    cfg.write_text(
        GAUSS_SYSTEM
        + "simulate:\n  horizon: 20000.0\n  seed: 7\n"
        + f"  policy_csv: {solve_artifacts / 'solution.csv'}\n"
    )
    csv_out = workdir / "sim_from_csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(csv_out)]) == 0
    capsys.readouterr()
    a = json.loads((direct_out / "simulation.json").read_text())
    b = json.loads((csv_out / "simulation.json").read_text())
    assert a["mean_d_dagger"] == b["mean_d_dagger"]
    assert a["empirical_cdf"] == b["empirical_cdf"]


def test_simulate_takes_p0plus_from_the_policy_csv(workdir, solve_artifacts, capsys):
    # the CSV was solved at p0plus = 1e-3: a config that says otherwise
    # does not describe the policy, and the run stops as a config error
    cfg = workdir / "sim_csv_p0plus.yaml"
    cfg.write_text(
        GAUSS_SYSTEM.replace("p0plus: 0.001", "p0plus: 0.5")
        + "simulate:\n  horizon: 1000.0\n  seed: 0\n"
        + f"  policy_csv: {solve_artifacts / 'solution.csv'}\n"
    )
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(workdir / "sim_csv_p0plus")]) == 2
    assert "p0plus" in capsys.readouterr().err


def test_simulate_rejects_a_policy_csv_not_starting_at_zero(workdir, solve_artifacts,
                                                           capsys):
    rows = (solve_artifacts / "solution.csv").read_text().splitlines()
    bad = workdir / "from_z1"
    bad.mkdir()
    (bad / "solution.csv").write_text("\n".join([rows[0]] + rows[2:]) + "\n")
    (bad / "solution.json").write_text((solve_artifacts / "solution.json").read_text())
    cfg = workdir / "sim_from_z1.yaml"
    cfg.write_text(
        GAUSS_SYSTEM
        + "simulate:\n  horizon: 1000.0\n  seed: 0\n"
        + f"  policy_csv: {bad / 'solution.csv'}\n"
    )
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(workdir / "sim_from_z1")]) == 2
    assert "first node must be 0" in capsys.readouterr().err


def _set_column(rows, column, value):
    # the CSV with one data row's column replaced
    cells = rows[10].split(",")
    cells[column] = value
    return rows[:10] + [",".join(cells)] + rows[11:]


def _first_nodes_apart(rows, gap):
    # the CSV with the two nodes after z = 0 moved to gap and 2*gap
    moved = [f"{k * gap!r},{row.split(',', 1)[1]}" for k, row in enumerate(rows[2:4], 1)]
    return rows[:2] + moved + rows[4:]


def _shrunk_panel(rows):
    # the CSV with the inner knots of the 40th panel pulled halfway toward
    # its left edge: the panel still rises but stops short of the next one
    head = 1 + 9 * 40
    left = float(rows[head].split(",", 1)[0])
    moved = [f"{left + 0.5 * (float(row.split(',', 1)[0]) - left)!r},{row.split(',', 1)[1]}"
             for row in rows[head + 1:head + 9]]
    return rows[:head + 1] + moved + rows[head + 9:]


def _drop_column(rows):
    return [row.rsplit(",", 1)[0] for row in rows]


def _kappa_one(rows):
    # the CSV with kappa = 1 on every data row, as a constant-mismatch
    # policy has it
    return [rows[0]] + [",".join(row.split(",")[:2] + ["1.0"] + row.split(",")[3:])
                        for row in rows[1:]]


def _constant_sidecar(side):
    # the sidecar of a constant-mismatch policy: no level, no residual
    return {**side, "d_beta": None, "kappa0": 1.0, "residual50": None}


# an edit returns the file's new content, or None to leave the file out
@pytest.mark.parametrize("edit_csv,edit_sidecar,code", [
    pytest.param(lambda rows: _set_column(rows, 1, "0.0"), None, 2, id="zero-power"),
    pytest.param(lambda rows: _set_column(rows, 2, "0.0"), None, 2, id="zero-kappa"),
    pytest.param(None, lambda side: {k: v for k, v in side.items() if k != "pi0"}, 2,
                 id="no-pi0"),
    pytest.param(None, lambda side: {**side, "kappa0": None}, 2, id="null-kappa0"),
    pytest.param(lambda rows: None, None, 2, id="no-csv"),
    pytest.param(lambda rows: _set_column(rows, 1, "high"), None, 2, id="unparsable-csv"),
    pytest.param(_drop_column, None, 2, id="three-columns"),
    pytest.param(lambda rows: rows[:2], None, 2, id="single-row"),
    # no rising panel goes through knots this close
    pytest.param(lambda rows: _first_nodes_apart(rows, 1e-300), None, 2,
                 id="nodes-1e-300-apart"),
    # 800 rows of the old graded grid are not panel knots
    pytest.param(lambda rows: [rows[0]] + [
        f"{float(z)!r},{row.split(',', 1)[1]}" for z, row in zip(
            np.concatenate(([0.0], np.geomspace(1e-6, 0.5, 320),
                            np.linspace(0.5, 5.0, 480)[1:])), rows[1:801])], None, 2,
                 id="graded-800-rows"),
    pytest.param(_shrunk_panel, None, 2, id="panels-that-do-not-meet"),
    pytest.param(lambda rows: _set_column(rows, 3, "inf"), None, 2, id="infinite-f"),
    pytest.param(None, lambda side: None, 2, id="no-sidecar"),
    pytest.param(None, lambda side: "{", 2, id="unparsable-sidecar"),
    pytest.param(None, lambda side: [side], 2, id="sidecar-not-an-object"),
    pytest.param(None, lambda side: {**side, "feasible": False}, 3, id="infeasible"),
    # JSON true is a bool, and Python counts a bool as an int
    pytest.param(None, lambda side: {**side, "pi0": True}, 2, id="pi0-true"),
    pytest.param(None, lambda side: {**side, "kappa0": True}, 2, id="kappa0-true"),
    pytest.param(None, lambda side: {**side, "feasible": "no"}, 2, id="feasible-string"),
    pytest.param(None, lambda side: {**side, "feasible": 1}, 2, id="feasible-one"),
    pytest.param(None, lambda side: {k: v for k, v in side.items() if k != "feasible"}, 2,
                 id="no-feasible"),
    # the kind the sidecar names must be the kind the CSV holds
    pytest.param(None, lambda side: {**side, "d_beta": None, "residual50": "not a number"},
                 2, id="null-d-beta-on-adaptive-rows"),
    pytest.param(None, _constant_sidecar, 2, id="constant-sidecar-on-adaptive-rows"),
    pytest.param(lambda rows: _set_column(_kappa_one(rows), 2, "0.5"), _constant_sidecar, 2,
                 id="constant-with-one-kappa-off-one"),
    pytest.param(_kappa_one, lambda side: {**_constant_sidecar(side), "kappa0": 2.0}, 2,
                 id="constant-with-kappa0-off-one"),
    pytest.param(_kappa_one, lambda side: {**_constant_sidecar(side), "residual50": 1e-3}, 2,
                 id="constant-with-residual"),
    pytest.param(None, lambda side: {**side, "residual50": "not a number"}, 2,
                 id="adaptive-residual-string"),
    pytest.param(None, lambda side: {**side, "residual50": None}, 2,
                 id="adaptive-residual-null"),
])
def test_simulate_rejects_an_invalid_policy_artifact(tmp_path, solve_artifacts, capsys,
                                                     edit_csv, edit_sidecar, code):
    # a re-ingested artifact is outside input: a file, a row or a sidecar
    # value the simulator cannot use stops the run as a config error, and
    # a policy marked infeasible stops it as infeasible
    rows = (solve_artifacts / "solution.csv").read_text().splitlines()
    sidecar = json.loads((solve_artifacts / "solution.json").read_text())
    rows = edit_csv(rows) if edit_csv else rows
    if rows is not None:
        (tmp_path / "solution.csv").write_text("\n".join(rows) + "\n")
    sidecar = edit_sidecar(sidecar) if edit_sidecar else sidecar
    if sidecar is not None:
        (tmp_path / "solution.json").write_text(
            sidecar if isinstance(sidecar, str) else json.dumps(sidecar)
        )
    cfg = tmp_path / "sim.yaml"
    cfg.write_text(
        GAUSS_SYSTEM
        + "simulate:\n  horizon: 1000.0\n  seed: 0\n"
        + f"  policy_csv: {tmp_path / 'solution.csv'}\n"
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert {2: "config error: simulate.policy_csv: ", 3: "infeasible: policy in "}[code] in err
    if rows is not None and len(rows) == 801:
        # the old layout: the message names the one the CSV must have
        assert "nodes must be panel knots, nine per panel" in err
    if edit_csv is _shrunk_panel:
        assert "nodes must be panel knots that meet" in err


def test_simulate_roundtrip_from_a_constant_mismatch_csv(workdir, capsys):
    # a constant-mismatch artifact passes the loader's kind check and
    # reproduces the direct run
    system = GAUSS_SYSTEM + "simulate: {horizon: 2000.0, seed: 1}\n"
    direct = workdir / "constk_sim.yaml"
    direct.write_text(system + "policy: constant-kappa\nconstants: {c: -0.55}\n")
    assert main(["solve", "--config", str(direct), "--out",
                 str(workdir / "constk_sim_solve")]) == 0
    assert main(["simulate", "--config", str(direct), "--out",
                 str(workdir / "constk_sim_direct")]) == 0
    from_csv = workdir / "constk_sim_csv.yaml"
    from_csv.write_text(system.replace(
        "seed: 1}", f"seed: 1, policy_csv: {workdir / 'constk_sim_solve' / 'solution.csv'}}}"))
    assert main(["simulate", "--config", str(from_csv), "--out",
                 str(workdir / "constk_sim_from_csv")]) == 0
    capsys.readouterr()
    a = json.loads((workdir / "constk_sim_direct" / "simulation.json").read_text())
    b = json.loads((workdir / "constk_sim_from_csv" / "simulation.json").read_text())
    assert a["mean_d_dagger"] == b["mean_d_dagger"]
    assert a["empirical_cdf"] == b["empirical_cdf"]


def test_simulate_seed_override(workdir, bench_config, capsys):
    out_a = workdir / "sim_seed_a"
    out_b = workdir / "sim_seed_b"
    assert main(["simulate", "--config", bench_config, "--out", str(out_a),
                 "--seed", "3"]) == 0
    assert main(["simulate", "--config", bench_config, "--out", str(out_b),
                 "--seed", "3"]) == 0
    capsys.readouterr()
    a = json.loads((out_a / "simulation.json").read_text())
    b = json.loads((out_b / "simulation.json").read_text())
    assert a == b
    assert a["seed"] == 3


def test_simulate_infeasible_constants(workdir, capsys):
    cfg = workdir / "sim_raw.yaml"
    cfg.write_text(
        GAUSS_SYSTEM
        + BENCH_CONSTANTS.replace("refine_c2: true", "refine_c2: false")
        + "simulate: {horizon: 1000.0, seed: 0}\n"
    )
    assert main(["simulate", "--config", str(cfg)]) == 3
    assert "infeasible" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# search and sweep
# ---------------------------------------------------------------------------

def test_search_and_sweep(workdir, capsys):
    cfg = workdir / "search.yaml"
    cfg.write_text(
        GAUSS_SYSTEM.replace("capacity: 5.0", "capacity: 2.0")
        + "search: {budget: 150}\n"
        + "sweep: {capacities: [2.0], kappa_budget: 60}\n"
    )
    out = workdir / "search_out"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads((out / "search.json").read_text())
    assert payload["feasible"] is True
    assert payload["evaluations"] <= 150
    # modest budget still lands near the published 0.6147 optimum
    assert payload["d_avg"] <= 0.63

    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "L,d_avg_adaptive,d_avg_constk,d_lb"
    cap, d_ad, d_ck, d_lb = (float(v) for v in lines[1].split(","))
    assert cap == 2.0
    assert d_lb < d_ad <= d_ck + 1e-9
    out_text = capsys.readouterr().out
    assert "L,d_avg_adaptive,d_avg_constk,d_lb" in out_text
