"""Tests for the event-driven battery simulator."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehjscc.distortion import distortion
from ehjscc.models import (
    ArrivalModel,
    AwgnChannel,
    BernoulliSource,
    GaussianSource,
    SystemConfig,
    ZeroLeakage,
)
from ehjscc.numerics import Grid, quadrature
from ehjscc.policy import VariationalConstants, solve_adaptive, solve_constant_kappa
from ehjscc.simulator import (
    DivergenceReport,
    SimConfig,
    SimulationStats,
    _BINS,
    _DrainTable,
    _analytic_cdf,
    compare_to_analytic,
    simulate,
)

# the parity suite's reference table and its policies fixture
from test_simulator_parity import _ReferenceTable, _config, policies  # noqa: F401

GAUSS = GaussianSource(variance=1.0)
CHAN = AwgnChannel(noise=1.0)
ARRIVALS = ArrivalModel(delta=1.0, lam=1.0)
BENCH = VariationalConstants(beta=-0.8738, c1=-0.89, c2=0.34)
SYSTEM = SystemConfig(arrivals=ARRIVALS, leakage=ZeroLeakage(), capacity=5.0)


@pytest.fixture(scope="module")
def bench_policy():
    # endpoint-polished so the normalization closes and kappa0 is finite
    sol = solve_adaptive(
        GAUSS, CHAN, ARRIVALS, ZeroLeakage(), 5.0, 1e-3, BENCH, refine_c2=True
    )
    assert sol.feasible
    return sol


@pytest.fixture(scope="module")
def constk_policy():
    return solve_constant_kappa(GAUSS, CHAN, ARRIVALS, ZeroLeakage(), 5.0, 1e-3, -0.55)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_inputs(bench_policy):
    with pytest.raises(ValueError):
        SimConfig(policy=bench_policy, system=SYSTEM, horizon=0.0, src=GAUSS, ch=CHAN)
    with pytest.raises(ValueError):
        SimConfig(policy=bench_policy, system=SYSTEM, horizon=math.inf, src=GAUSS, ch=CHAN)
    with pytest.raises(ValueError):
        SimConfig(policy=bench_policy, system=SYSTEM, horizon=100.0, z0=5.5,
                  src=GAUSS, ch=CHAN)
    with pytest.raises(ValueError):
        SimConfig(policy=bench_policy, system=SYSTEM, horizon=100.0, z0=-0.1,
                  src=GAUSS, ch=CHAN)
    with pytest.raises(ValueError):
        SimConfig(policy=bench_policy, system=SYSTEM, horizon=100.0, seed=-1,
                  src=GAUSS, ch=CHAN)


def test_config_requires_matching_capacity(bench_policy):
    sys4 = SystemConfig(arrivals=ARRIVALS, leakage=ZeroLeakage(), capacity=4.0)
    with pytest.raises(ValueError):
        SimConfig(policy=bench_policy, system=sys4, horizon=100.0, src=GAUSS, ch=CHAN)


def test_config_requires_matching_p0plus(bench_policy):
    # simulate takes p(0) from the policy, so a system stating another
    # power at zero charge describes a different run
    other = SystemConfig(arrivals=ARRIVALS, leakage=ZeroLeakage(), capacity=5.0,
                         p0plus=1.0)
    with pytest.raises(ValueError, match="p0plus"):
        SimConfig(policy=bench_policy, system=other, horizon=100.0, src=GAUSS, ch=CHAN)


def test_config_requires_the_policy_source(bench_policy, constk_policy):
    # simulate takes d_max from src, so an adaptive policy solved for the
    # Gaussian source must not run as a Bernoulli one
    bern = BernoulliSource(prob=0.2)
    with pytest.raises(ValueError, match="source"):
        SimConfig(policy=bench_policy, system=SYSTEM, horizon=100.0, src=bern, ch=CHAN)
    # a constant-mismatch policy carries no distortion level to check
    SimConfig(policy=constk_policy, system=SYSTEM, horizon=100.0, src=bern, ch=CHAN)


def test_config_rejects_infeasible_policy():
    # the unpolished benchmark solve oversubscribes the mismatch
    # normalization, so it carries no usable kappa0
    raw = solve_adaptive(
        GAUSS, CHAN, ARRIVALS, ZeroLeakage(), 5.0, 1e-3, BENCH, refine_c2=False
    )
    assert not raw.feasible
    with pytest.raises(ValueError):
        SimConfig(policy=raw, system=SYSTEM, horizon=100.0, src=GAUSS, ch=CHAN)


def test_constant_mismatch_needs_source_and_channel(constk_policy, bench_policy):
    # every policy reports d_max on an empty battery, so src and ch are
    # required fields
    for policy in (constk_policy, bench_policy):
        with pytest.raises(TypeError):
            SimConfig(policy=policy, system=SYSTEM, horizon=100.0)
        with pytest.raises(TypeError):
            SimConfig(policy=policy, system=SYSTEM, horizon=100.0, src=GAUSS)


def test_constant_mismatch_distortion_profile_matches_scalar_values():
    # the drain table evaluates a constant-mismatch policy's reported
    # distortion in one array call; it must agree with the scalar map at
    # every merged node (Bernoulli inverts the rate by bisection)
    bern = BernoulliSource(prob=0.5)
    c_star = -ARRIVALS.lam * distortion(bern, CHAN, ARRIVALS.delta / ARRIVALS.lam, 1.0)
    for src, c in ((GAUSS, -0.55), (bern, c_star - 0.01)):
        sol = solve_constant_kappa(src, CHAN, ARRIVALS, ZeroLeakage(), 5.0, 1e-3, c)
        assert sol.feasible
        table = _DrainTable(
            SimConfig(policy=sol, system=SYSTEM, horizon=1.0, src=src, ch=CHAN)
        )
        power, d_dag = table.weights[:, 0], table.weights[:, 2]
        scalar = np.array([distortion(src, CHAN, float(x), 1.0) for x in power])
        assert len(power) > 1000
        assert np.all(np.abs(d_dag - scalar) <= 1e-12 * np.abs(scalar))


# ---------------------------------------------------------------------------
# deterministic drain (no arrivals)
# ---------------------------------------------------------------------------

def test_drain_only_run_empties_and_stays_empty(bench_policy):
    # [TRIVIAL] with no arrivals the battery drains to zero and the
    # depleted share of a growing horizon tends to one; here the drain
    # finishes inside the burn-in window so pi0_hat is exactly 1
    system = SystemConfig(
        arrivals=ArrivalModel(delta=0.0, lam=1.0),
        leakage=ZeroLeakage(),
        capacity=5.0,
    )
    stats = simulate(
        SimConfig(policy=bench_policy, system=system, horizon=1000.0, seed=1, z0=1.0,
                  src=GAUSS, ch=CHAN)
    )
    assert stats.pi0_hat == 1.0
    assert stats.event_count == 0
    assert stats.overflow_energy == 0.0
    # consumed charge is tallied as exactly the initial charge
    assert stats.energy_residual == 0.0
    assert stats.mean_power == 0.0


def test_drain_only_short_horizon_splits_time(bench_policy):
    # shorter horizon: part of the window is still draining, so the
    # depleted share sits strictly between 0 and 1
    system = SystemConfig(
        arrivals=ArrivalModel(delta=0.0, lam=1.0),
        leakage=ZeroLeakage(),
        capacity=5.0,
    )
    stats = simulate(
        SimConfig(policy=bench_policy, system=system, horizon=30.0, seed=1, z0=5.0,
                  src=GAUSS, ch=CHAN)
    )
    assert 0.0 < stats.pi0_hat < 1.0
    assert np.all(np.diff(stats.empirical_cdf) >= 0.0)
    assert stats.empirical_cdf[-1] == 1.0


def test_drain_only_cdf_at_edges_next_to_policy_nodes():
    # every third node of this uniform policy grid sits within rounding
    # of a bin edge; the edges stay nodes of the drain table, so a drain
    # from the top reads its CDF at the edges themselves: the charge is
    # at or below edge e from the wall time u(e) on, and empty from u_max
    cap, horizon = 7.3, 100.0
    sol = solve_constant_kappa(GAUSS, CHAN, ARRIVALS, ZeroLeakage(), cap, 1e-3, -0.55,
                               grid=Grid(np.linspace(0.0, cap, 1537)))
    assert sol.feasible
    system = SystemConfig(arrivals=ArrivalModel(delta=0.0, lam=1.0),
                          leakage=ZeroLeakage(), capacity=cap)
    config = SimConfig(policy=sol, system=system, horizon=horizon, z0=cap,
                       src=GAUSS, ch=CHAN)
    table = _DrainTable(config)
    burn = 0.01 * horizon
    assert burn < table.u_max < horizon
    stats = simulate(config)
    u = table.u_of_z(stats.bin_edges)
    expected = (horizon - np.maximum(u, burn)) / (horizon - burn)
    assert expected[0] == pytest.approx((horizon - table.u_max) / (horizon - burn))
    assert np.max(np.abs(stats.empirical_cdf - expected)) <= 1e-13
    assert np.all(np.isin(table.edges, table.z))


@pytest.mark.parametrize("name", ["gauss-L5", "bern-leaky-L3", "gauss-constk",
                                  "bern-constk", "bern-fixed-point"])
def test_drain_times_equal_the_reference_table_bit_for_bit(policies, name):
    # the time to drain from the top down to each node takes its cell
    # times from libm's log1p, like the walker and the per-event
    # reference, so it equals the reference's to the bit; the parity
    # tests compare overflow energy with ==, which rests on it
    config = _config(policies, name, horizon=1.0)
    table, ref = _DrainTable(config), _ReferenceTable(config)
    assert np.array_equal(table.z, ref.z_list)
    assert np.array_equal(table.u_node.view(np.uint64),
                          np.array(ref.u_node).view(np.uint64))
    # so do u at any charge, where a run starts, and the charge at any
    # u, where the burn-in cuts a drain: the lift and the drain of step
    rng = np.random.default_rng(11)
    z = rng.uniform(0.0, table.cap, 2000)
    u = rng.uniform(0.0, table.u_max, 2000)
    assert np.array_equal(table.u_of_z(z).view(np.uint64),
                          np.array([ref.u_of_z(x) for x in z]).view(np.uint64))
    assert np.array_equal(table.z_of_u(u).view(np.uint64),
                          np.array([ref.z_of_u(x) for x in u]).view(np.uint64))


# ---------------------------------------------------------------------------
# determinism and basic invariants
# ---------------------------------------------------------------------------

def test_identical_configs_give_bit_identical_stats(bench_policy):
    cfg = SimConfig(policy=bench_policy, system=SYSTEM, horizon=1e4, seed=123,
                    src=GAUSS, ch=CHAN)
    a = simulate(cfg)
    b = simulate(cfg)
    assert np.array_equal(a.empirical_cdf, b.empirical_cdf)
    assert a.pi0_hat == b.pi0_hat
    assert a.mean_power == b.mean_power
    assert a.mean_inv_kappa == b.mean_inv_kappa
    assert a.mean_d_dagger == b.mean_d_dagger
    assert a.overflow_energy == b.overflow_energy
    assert a.event_count == b.event_count


def test_memory_does_not_grow_with_the_horizon(bench_policy):
    # segments are accounted for a chunk at a time, so the buffers stay
    # the same size however long the run
    def peak(horizon):
        cfg = SimConfig(policy=bench_policy, system=SYSTEM, horizon=horizon, seed=2,
                        src=GAUSS, ch=CHAN)
        simulate(replace(cfg, horizon=1.0))     # one-time allocations
        tracemalloc.start()
        try:
            simulate(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2e5) <= 1.25 * peak(2e4)


def test_different_seeds_differ(bench_policy):
    a = simulate(SimConfig(policy=bench_policy, system=SYSTEM, horizon=1e4, seed=0,
                           src=GAUSS, ch=CHAN))
    b = simulate(SimConfig(policy=bench_policy, system=SYSTEM, horizon=1e4, seed=1,
                           src=GAUSS, ch=CHAN))
    assert a.event_count != b.event_count or a.mean_power != b.mean_power


def test_cdf_shape_and_edges(bench_policy):
    stats = simulate(SimConfig(policy=bench_policy, system=SYSTEM, horizon=1e4, seed=5,
                               src=GAUSS, ch=CHAN))
    assert stats.bin_edges.shape == (513,)
    assert stats.bin_edges[0] == 0.0
    assert stats.bin_edges[-1] == 5.0
    assert stats.empirical_cdf.shape == (513,)
    assert np.all(np.diff(stats.empirical_cdf) >= 0.0)
    assert stats.empirical_cdf[0] == stats.pi0_hat
    assert stats.empirical_cdf[-1] == 1.0
    with pytest.raises(ValueError):
        stats.empirical_cdf[0] = 0.5


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), z0=st.floats(0.0, 5.0))
def test_energy_books_balance(bench_policy, seed, z0):
    # [TRIVIAL] consumed energy is tallied as drained charge, so the
    # input/output ledger closes to rounding on any run
    stats = simulate(
        SimConfig(policy=bench_policy, system=SYSTEM, horizon=200.0, seed=seed, z0=z0,
                  src=GAUSS, ch=CHAN)
    )
    assert stats.energy_residual <= 1e-12
    assert np.all(np.diff(stats.empirical_cdf) >= 0.0)
    assert stats.empirical_cdf[-1] == 1.0
    assert 0.0 <= stats.pi0_hat <= 1.0
    assert math.isfinite(stats.mean_d_dagger)


# ---------------------------------------------------------------------------
# agreement with the analytic stationary law
# ---------------------------------------------------------------------------

def test_benchmark_run_matches_stationary_law(bench_policy):
    stats = simulate(SimConfig(policy=bench_policy, system=SYSTEM, horizon=2e5, seed=7,
                               src=GAUSS, ch=CHAN))
    report = compare_to_analytic(stats, bench_policy)
    # [DERIVED] ergodic-convergence oracle: ~2e5 effective time units
    # leave KS noise well under these bounds
    assert report.ks_distance <= 0.01
    assert report.pi0_gap <= 0.005
    assert report.inv_kappa_gap <= 0.01
    # [PAPER] published average distortion for this configuration is
    # 0.5417; long-run reported distortion lands within 0.01
    assert abs(stats.mean_d_dagger - 0.5417) <= 0.01
    # [PAPER] mean consumed power cannot beat the harvest bound
    # delta/lam * (1 - exp(-lam L))
    assert stats.mean_power <= 1.0 - math.exp(-5.0) + 1e-9
    assert stats.energy_residual <= 1e-6


def test_constant_mismatch_run_matches_its_average(constk_policy):
    cfg = SimConfig(
        policy=constk_policy, system=SYSTEM, horizon=1e5, seed=3,
        src=GAUSS, ch=CHAN,
    )
    stats = simulate(cfg)
    report = compare_to_analytic(stats, constk_policy)
    # unit mismatch everywhere makes the inverse-mismatch average exact
    # up to bookkeeping roundoff
    assert report.inv_kappa_gap <= 1e-9
    assert report.ks_distance <= 0.015
    assert report.d_dagger_gap <= 0.01


def test_gaps_shrink_with_horizon(bench_policy):
    # [DERIVED] CLT scaling: a 10x longer horizon cuts the KS distance
    # by roughly sqrt(10); averaged over seeds to tame noise
    short, long_ = [], []
    for seed in (0, 1, 2):
        s = simulate(SimConfig(policy=bench_policy, system=SYSTEM, horizon=1e4, seed=seed,
                               src=GAUSS, ch=CHAN))
        l = simulate(SimConfig(policy=bench_policy, system=SYSTEM, horizon=1e5, seed=seed,
                               src=GAUSS, ch=CHAN))
        short.append(compare_to_analytic(s, bench_policy).ks_distance)
        long_.append(compare_to_analytic(l, bench_policy).ks_distance)
    assert max(long_) <= 0.02
    assert np.mean(short) / np.mean(long_) > 1.5


def test_start_state_washes_out(bench_policy):
    empty = simulate(SimConfig(policy=bench_policy, system=SYSTEM, horizon=5e4, seed=11,
                               src=GAUSS, ch=CHAN))
    full = simulate(
        SimConfig(policy=bench_policy, system=SYSTEM, horizon=5e4, seed=11, z0=5.0,
                  src=GAUSS, ch=CHAN)
    )
    assert abs(empty.pi0_hat - full.pi0_hat) <= 0.01
    assert abs(empty.mean_d_dagger - full.mean_d_dagger) <= 0.01


# ---------------------------------------------------------------------------
# analytic packaging and comparison plumbing
# ---------------------------------------------------------------------------

def analytic_stats(solution):
    # a solution's stationary law in simulation-statistics form: the
    # zero-divergence reference, which compared against the same solution
    # reports vanishing gaps everywhere
    if solution.grid is None or not solution.feasible:
        raise ValueError("solution must be feasible")
    cap = solution.grid.capacity
    edges = np.linspace(0.0, cap, _BINS + 1)
    return SimulationStats(
        capacity=cap,
        horizon=math.inf,
        bin_edges=edges,
        empirical_cdf=_analytic_cdf(solution, edges),
        pi0_hat=solution.pi0,
        mean_power=quadrature(solution.p * solution.f, solution.grid),
        mean_inv_kappa=1.0,
        mean_d_dagger=solution.d_avg,
        overflow_energy=0.0,
        event_count=0,
        energy_residual=0.0,
    )


def test_self_comparison_is_exactly_zero(bench_policy):
    # [TRIVIAL] the analytic law compared against itself
    report = compare_to_analytic(analytic_stats(bench_policy), bench_policy)
    assert report.ks_distance == 0.0
    assert report.pi0_gap == 0.0
    assert report.inv_kappa_gap == 0.0
    assert report.d_dagger_gap == 0.0


def test_comparison_rejects_capacity_mismatch(bench_policy):
    stats = analytic_stats(bench_policy)
    mislabeled = SimulationStats(
        capacity=4.0,
        horizon=stats.horizon,
        bin_edges=stats.bin_edges,
        empirical_cdf=stats.empirical_cdf,
        pi0_hat=stats.pi0_hat,
        mean_power=stats.mean_power,
        mean_inv_kappa=stats.mean_inv_kappa,
        mean_d_dagger=stats.mean_d_dagger,
        overflow_energy=stats.overflow_energy,
        event_count=stats.event_count,
        energy_residual=stats.energy_residual,
    )
    with pytest.raises(ValueError):
        compare_to_analytic(mislabeled, bench_policy)


def test_comparison_rejects_infeasible_solution(bench_policy):
    raw = solve_adaptive(
        GAUSS, CHAN, ARRIVALS, ZeroLeakage(), 5.0, 1e-3, BENCH, refine_c2=False
    )
    with pytest.raises(ValueError):
        compare_to_analytic(analytic_stats(bench_policy), raw)
    with pytest.raises(ValueError):
        analytic_stats(raw)
