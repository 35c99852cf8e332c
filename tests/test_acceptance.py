"""End-to-end certification gates for the whole package.

Twelve independent checks, one test each, covering the converse bound,
reproduction of the benchmark operating points, search dominance, the
variational identities every accepted policy must satisfy, convexity of
the per-symbol distortion surface, the unbounded-battery achievability
limit, the adaptive-vs-constant-mismatch ordering across capacities,
stochastic certification of the stationary law, and the qualitative
shape of the solved policies.  Each test prints exactly one pass/fail
line under ``pytest -v``.

Reference values quoted here are frozen benchmark numbers ([PAPER]);
everything else is recomputed from scratch and checked against closed
forms or invariants ([DERIVED]/[TRIVIAL]).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from ehjscc.distortion import (
    convexity_probe,
    d_dagger,
    distortion,
    lower_bound,
)
from ehjscc.models import (
    ArrivalModel,
    AwgnChannel,
    BernoulliSource,
    GaussianSource,
    IncreasingLeakage,
    SystemConfig,
    ZeroLeakage,
)
from ehjscc.numerics import quadrature
from ehjscc.policy import (
    VariationalConstants,
    constant_power_scheme,
    optimality_residual,
    solve_adaptive,
    solve_constant_kappa,
)
from ehjscc.search import Problem, capacity_sweep, tune_constants
from ehjscc.simulator import SimConfig, compare_to_analytic, simulate

GAUSS = GaussianSource(variance=1.0)
BERN = BernoulliSource(prob=0.5)
CH = AwgnChannel(noise=1.0)
ARR = ArrivalModel(delta=1.0, lam=1.0)
NO_LEAK = ZeroLeakage()
RISING_LEAK = IncreasingLeakage()

# converse bound by capacity, unit-variance Gaussian source [PAPER]
BOUND_GAUSS = {1: 0.6127, 2: 0.5363, 3: 0.5128, 4: 0.5046, 5: 0.5017}
# converse bound by capacity, Bernoulli(1/2) source [PAPER]
BOUND_BERN = {1: 0.1651, 2: 0.1270, 3: 0.1161, 4: 0.1122, 5: 0.1108}

# benchmark rows: capacity -> (d_avg, beta, c1, c2), constants printed
# to two decimals at the source, which bounds attainable agreement [PAPER]
ROWS_GAUSS_IDEAL = {
    1: (0.6971, -0.9485, -0.95, 0.24),
    2: (0.6147, -0.9137, -0.92, 0.30),
    3: (0.5765, -0.8940, -0.90, 0.32),
    4: (0.5559, -0.8822, -0.89, 0.32),
    5: (0.5417, -0.8738, -0.89, 0.34),
}
ROWS_GAUSS_LEAKY = {
    1: (0.7445, -0.9641, -0.97, 0.06),
    2: (0.6876, -0.9450, -0.95, 0.17),
    3: (0.6659, -0.9366, -0.94, 0.29),
    4: (0.6596, -0.9300, -0.93, 0.32),
    5: (0.6566, -0.9302, -0.93, 0.34),
}
ROWS_BERN_IDEAL = {
    1: (0.2097, -0.3450, -0.36, 0.13),
    2: (0.1663, -0.3170, -0.32, 0.15),
    3: (0.1473, -0.3039, -0.31, 0.16),
    4: (0.1367, -0.2962, -0.30, 0.16),
    5: (0.1321, -0.2901, -0.29, 0.16),
}
ROWS_BERN_LEAKY = {
    1: (0.2356, -0.3600, -0.36, 0.04),
    2: (0.2044, -0.3417, -0.35, 0.11),
    3: (0.1935, -0.3347, -0.34, 0.15),
    4: (0.1905, -0.3328, -0.34, 0.17),
    5: (0.1885, -0.3301, -0.33, 0.18),
}

ALL_BENCHMARKS = (
    (GAUSS, NO_LEAK, ROWS_GAUSS_IDEAL),
    (GAUSS, RISING_LEAK, ROWS_GAUSS_LEAKY),
    (BERN, NO_LEAK, ROWS_BERN_IDEAL),
    (BERN, RISING_LEAK, ROWS_BERN_LEAKY),
)


@pytest.fixture(scope="module")
def accepted_solutions():
    """All benchmark rows re-solved with the c2 polish, feasible ones only.

    The published constants are rounded to two decimals, so rows sitting
    within rounding of the normalization boundary can flip infeasible
    under the polish; identity checks run on the accepted set, which must
    stay large enough to be meaningful.
    """
    out = []
    for src, leak, rows in ALL_BENCHMARKS:
        for cap, (_, beta, c1, c2) in rows.items():
            sol = solve_adaptive(
                src, CH, ARR, leak, float(cap), 1e-3,
                VariationalConstants(beta, c1, c2), refine_c2=True,
            )
            if sol.feasible:
                out.append((src, sol))
    assert len(out) >= 15
    return out


@pytest.fixture(scope="module")
def certified_benchmark():
    # the capacity-5 ideal-battery Gaussian row, polished: the reference
    # configuration for the stochastic and shape checks
    d_avg, beta, c1, c2 = ROWS_GAUSS_IDEAL[5]
    sol = solve_adaptive(
        GAUSS, CH, ARR, NO_LEAK, 5.0, 1e-3,
        VariationalConstants(beta, c1, c2), refine_c2=True,
    )
    assert sol.feasible
    assert abs(sol.d_avg - d_avg) < 5e-4  # [PAPER]
    return sol


def test_c01_converse_bound_reference_values():
    t0 = time.perf_counter()
    for cap, want in BOUND_GAUSS.items():
        got = lower_bound(GAUSS, CH, ARR, float(cap))
        assert got == pytest.approx(want, abs=1e-3)  # [PAPER]
    for cap, want in BOUND_BERN.items():
        got = lower_bound(BERN, CH, ARR, float(cap))
        assert got == pytest.approx(want, abs=1e-3)  # [PAPER]
    assert time.perf_counter() - t0 < 1.0


def test_c02_benchmark_rows_reproduced_by_published_constants():
    for src, leak, rows in ALL_BENCHMARKS:
        for cap, (d_avg, beta, c1, c2) in rows.items():
            t0 = time.perf_counter()
            sol = solve_adaptive(
                src, CH, ARR, leak, float(cap), 1e-3,
                VariationalConstants(beta, c1, c2),
            )
            elapsed = time.perf_counter() - t0
            assert math.isfinite(sol.d_avg)
            # two-decimal constants bound the match at the 2% level [PAPER]
            assert abs(sol.d_avg - d_avg) / d_avg <= 0.02
            assert elapsed < 1.0


def test_c03_search_matches_published_distortion():
    for src, rows in ((GAUSS, ROWS_GAUSS_IDEAL), (BERN, ROWS_BERN_IDEAL)):
        for cap, (d_avg, *_ ) in rows.items():
            t0 = time.perf_counter()
            res = tune_constants(Problem(src, CH, ARR, NO_LEAK, float(cap)))
            elapsed = time.perf_counter() - t0
            assert res.feasible
            assert res.d_avg <= 1.01 * d_avg  # [PAPER]
            assert elapsed < 300.0


def test_c04_instantaneous_distortion_constant_on_accepted_policies(
    accepted_solutions,
):
    for src, sol in accepted_solutions:
        dev = np.max(np.abs(distortion(src, CH, sol.p, sol.kappa) - sol.d_beta)) / sol.d_beta
        assert dev <= 1e-8


def test_c05_stationarity_residual_small_and_perturbation_sensitive(
    accepted_solutions,
):
    for src, sol in accepted_solutions:
        assert optimality_residual(src, CH, ARR, sol) <= 1e-5
        # a 10% power perturbation must be clearly rejected [DERIVED]
        bent = replace(sol, p=1.1 * sol.p)
        assert optimality_residual(src, CH, ARR, bent) > 1e-3


def test_c06_average_distortion_identity(accepted_solutions):
    for src, sol in accepted_solutions:
        share = sol.pi0 / sol.kappa0
        want = sol.d_beta + share * (src.d_max - sol.d_beta)
        assert abs(sol.d_avg - want) <= 1e-8


def test_c07_stationary_law_normalizations(accepted_solutions):
    for _, sol in accepted_solutions:
        mass = sol.pi0 + quadrature(sol.f, sol.grid)
        assert abs(mass - 1.0) <= 1e-8
        mismatch = sol.pi0 / sol.kappa0 + quadrature(sol.f / sol.kappa, sol.grid)
        assert abs(mismatch - 1.0) <= 1e-8


def test_c08_distortion_surface_jointly_convex():
    for src in (GAUSS, BERN):
        rep = convexity_probe(src, CH, samples=10_000, seed=0)
        assert rep.chord_checks == 10_000
        assert rep.chord_violations == []
        assert rep.hessian_checks > 0
        assert rep.hessian_violations == []


def test_c09_constant_power_approaches_unbounded_battery_bound():
    target = d_dagger(GAUSS, CH, ARR.delta / ARR.lam, 1.0)
    assert target == pytest.approx(0.5)  # [TRIVIAL]
    _, d_avg = constant_power_scheme(GAUSS, CH, ARR, epsilon=1e-3)
    assert abs(d_avg - target) / target <= 0.002


def test_c10_adaptive_dominates_constant_mismatch_across_capacities():
    t0 = time.perf_counter()
    prob = Problem(GAUSS, CH, ARR, NO_LEAK, 5.0)
    sweep = capacity_sweep(prob, [float(cap) for cap in range(2, 13)])
    for _, d_adaptive, d_constant, _ in sweep.rows():
        assert d_adaptive <= d_constant + 1e-9
    # at capacity 30 both schemes sit within 2% of the converse bound
    wide = capacity_sweep(prob, [30.0])
    _, d_adaptive, d_constant, d_lb = next(wide.rows())
    assert (d_adaptive - d_lb) / d_lb <= 0.02
    assert (d_constant - d_lb) / d_lb <= 0.02
    assert time.perf_counter() - t0 < 3600.0


def test_c11_simulation_certifies_stationary_law(certified_benchmark):
    sol = certified_benchmark
    system = SystemConfig(
        arrivals=ARR, leakage=NO_LEAK, capacity=5.0, p0plus=1e-3
    )
    d_means, powers = [], []
    for seed in range(10):
        t0 = time.perf_counter()
        stats = simulate(
            SimConfig(
                policy=sol, system=system, horizon=1e6, seed=seed,
                src=GAUSS, ch=CH,
            )
        )
        elapsed = time.perf_counter() - t0
        report = compare_to_analytic(stats, sol)
        assert report.ks_distance <= 0.02
        assert stats.energy_residual <= 1e-6
        assert elapsed < 120.0
        d_means.append(stats.mean_d_dagger)
        powers.append(stats.mean_power)
    assert abs(np.mean(d_means) - sol.d_avg) <= 0.01
    # long-run power cannot exceed the delivered harvest rate [DERIVED]
    cap_rate = -math.expm1(-ARR.lam * 5.0)
    se = np.std(powers, ddof=1) / math.sqrt(len(powers))
    assert np.mean(powers) <= cap_rate + 3.0 * se


def test_c12_policy_and_density_shapes(accepted_solutions, certified_benchmark):
    # every accepted adaptive policy spends harder when charge is higher,
    # stretching codewords when it is lower
    for _, sol in accepted_solutions:
        assert np.all(np.diff(sol.p) >= 0.0)
        assert np.all(np.diff(sol.kappa) <= 0.0)

    # the constant-mismatch power policy shares the monotone shape
    # whenever its drift constant sits below the fixed-point value
    fixed_point = -ARR.lam * distortion(GAUSS, CH, ARR.delta / ARR.lam, 1.0)
    ck = solve_constant_kappa(GAUSS, CH, ARR, NO_LEAK, 5.0, 1e-3, c=-0.55)
    assert -0.55 < fixed_point
    assert ck.feasible
    assert np.all(np.diff(ck.p) >= 0.0)

    # qualitative density shape at the reference configuration: charge
    # time concentrates at low charge, thinning monotonically band by
    # band, and the density is strictly falling over the upper range
    # where the power is large; a small local rise at low charge is a
    # real feature of the law, so no global monotonicity is asserted
    sol = certified_benchmark
    z, f = sol.grid.nodes, sol.f
    edges = np.linspace(0.0, 5.0, 11)
    masses = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        inside = (z >= lo) & (z <= hi)
        masses.append(np.trapezoid(f[inside], z[inside]))
    assert np.all(np.diff(masses) < 0.0)
    upper = z >= 1.0
    assert np.all(np.diff(f[upper]) < 0.0)
    assert f[-1] < 0.01 * f[0]
