"""Tests for the variational policy solver and stationary charge law."""

import copy
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehjscc import policy
from ehjscc.distortion import distortion, lower_bound
from ehjscc.models import (
    ArrivalModel,
    AwgnChannel,
    BernoulliSource,
    GaussianSource,
    IncreasingLeakage,
    ZeroLeakage,
)
from ehjscc.numerics import Grid, affine_field, cumulative_integral, lambert_wm1
from ehjscc.policy import (
    VariationalConstants,
    beta_range,
    beta_to_distortion,
    constant_power_scheme,
    gaussian_d_beta,
    optimality_residual,
    solve_adaptive,
    solve_constant_kappa,
)
from ehjscc.simulator import _analytic_cdf

from test_acceptance import ALL_BENCHMARKS

GAUSS = GaussianSource(variance=1.0)
BERN = BernoulliSource(prob=0.5)
CH = AwgnChannel(noise=1.0)
ARR = ArrivalModel(delta=1.0, lam=1.0)
NO_LEAK = ZeroLeakage()

# the benchmark operating point used throughout: Gaussian source, unit
# noise/arrivals, no leakage, capacity 5, constants tabulated for it
BENCH = VariationalConstants(beta=-0.8738, c1=-0.89, c2=0.34)


@pytest.fixture(scope="module")
def bench_raw():
    return solve_adaptive(GAUSS, CH, ARR, NO_LEAK, 5.0, 1e-3, BENCH)


@pytest.fixture(scope="module")
def bench_refined():
    return solve_adaptive(GAUSS, CH, ARR, NO_LEAK, 5.0, 1e-3, BENCH, refine_c2=True)


@pytest.fixture(scope="module")
def mid_raw():
    # capacity-3 row: feasible in raw mode, exercises every invariant
    return solve_adaptive(
        GAUSS, CH, ARR, NO_LEAK, 3.0, 1e-3,
        VariationalConstants(-0.8940, -0.90, 0.32),
    )


@pytest.fixture(scope="module")
def leaky_raw():
    return solve_adaptive(
        GAUSS, CH, ARR, IncreasingLeakage(), 5.0, 1e-3,
        VariationalConstants(-0.9302, -0.93, 0.34),
    )


# ---------------------------------------------------------------------------
# beta range and the beta -> distortion root
# ---------------------------------------------------------------------------

def test_beta_range_examples():
    # [PAPER] -sigma^2 < beta < 0 and -d_max < beta < 0
    assert beta_range(GAUSS) == (-1.0, 0.0)
    assert beta_range(BERN) == (-0.5, 0.0)
    # [TRIVIAL] scales with the variance
    assert beta_range(GaussianSource(variance=4.0)) == (-4.0, 0.0)


def test_beta_to_distortion_matches_gaussian_closed_form():
    # bisection vs W_{-1} closed form, 1e-10 contract
    for beta in (-0.9485, -0.8738, -0.5, -0.1, -0.999):
        a = beta_to_distortion(GAUSS, beta)
        b = gaussian_d_beta(1.0, beta)
        assert a == pytest.approx(b, rel=1e-10)
    # [DERIVED] frozen root at the benchmark beta
    assert beta_to_distortion(GAUSS, -0.8738) == pytest.approx(
        0.5417238840088412, rel=1e-10
    )
    # consistent with the coarser tabulated band
    assert beta_to_distortion(GAUSS, -0.8738) == pytest.approx(0.5418, abs=2e-3)


def test_beta_to_distortion_bernoulli_root():
    # [DERIVED] bisection oracle; root strictly inside (0, 0.5)
    d = beta_to_distortion(BERN, -0.2901)
    assert d == pytest.approx(0.12831095945830612, rel=1e-10)
    # the defining equation holds at the root
    r = BERN.rate(d)
    s1 = BERN.rate_derivatives(d)[0]
    assert r / s1 - d == pytest.approx(-0.2901, abs=1e-12)


def test_beta_to_distortion_edge_behavior():
    # [TRIVIAL] beta -> -d_max pushes the root to d_max
    d = beta_to_distortion(GAUSS, -1.0 + 1e-6)
    assert 0.99 < d < 1.0
    assert d == pytest.approx(0.9985861198102801, rel=1e-9)


@pytest.mark.parametrize("src, beta, root", [
    # [DERIVED] 50-digit roots: the search to an absolute width returned
    # its bracket end 1e-150 for the first two and was 3.9e-6 off for the
    # third
    (BERN, -0.01, 7.8886090522101294366e-31),
    (GAUSS, -8.3e-16, 2.1066608795119734638e-17),
    (GAUSS, -1e-10, 3.6584498169035715725e-12),
    (BERN, -0.0015, 2.0574828506798239054e-201),
])
def test_beta_to_distortion_is_relatively_accurate_near_zero(src, beta, root):
    assert beta_to_distortion(src, beta) == pytest.approx(root, rel=1e-13)


def test_beta_to_distortion_rejects_roots_below_the_normal_floats():
    # the Bernoulli root at beta = -9e-4 is about 1e-334
    for src, beta in ((BERN, -9e-4), (BERN, -5e-324), (GAUSS, -5e-324)):
        with pytest.raises(ValueError, match="no representable distortion level"):
            beta_to_distortion(src, beta)


@pytest.mark.parametrize("name", ["beta", "c1", "c2"])
def test_constants_must_be_finite(name):
    values = {"beta": -0.5, "c1": -0.9, "c2": 0.3, name: math.nan}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        VariationalConstants(**values)


def test_beta_to_distortion_rejects_out_of_range():
    for bad in (0.0, -1.0, -1.5, 0.3):
        with pytest.raises(ValueError):
            beta_to_distortion(GAUSS, bad)
    with pytest.raises(ValueError):
        beta_to_distortion(BERN, -0.5)
    # the Gaussian closed form checks its own range
    with pytest.raises(ValueError, match="beta must be in"):
        gaussian_d_beta(1.0, -2.0)


@settings(max_examples=60, deadline=None)
@given(beta=st.floats(min_value=-0.99, max_value=-0.01))
def test_beta_root_reconstructs_beta(beta):
    d = beta_to_distortion(GAUSS, beta)
    assert 0.0 < d < 1.0
    r = GAUSS.rate(d)
    s1 = GAUSS.rate_derivatives(d)[0]
    assert r / s1 - d == pytest.approx(beta, abs=1e-9)


# ---------------------------------------------------------------------------
# the reduced first-order ODE
# ---------------------------------------------------------------------------

def _adaptive_field(src, consts):
    # the adaptive right-hand side F(p), on arrays of powers
    d_beta = beta_to_distortion(src, consts.beta)
    terms, scale, _ = policy._adaptive_terms(
        CH, ARR, consts.c1, d_beta, src.rate(d_beta), src.rate_derivatives(d_beta)[0]
    )
    return lambda p: affine_field(*terms(p), scale * consts.c2)


def test_adaptive_rhs_positive_at_benchmark_start():
    # [DERIVED] power must climb away from the tiny initial value
    f0 = _adaptive_field(GAUSS, BENCH)(np.array([0.001]))[0]
    assert f0 == pytest.approx(7.468326384406556, rel=1e-9)
    assert f0 > 0.0


@pytest.mark.parametrize("src", [GAUSS, BERN], ids=["gauss", "bern"])
@pytest.mark.parametrize("fraction", [0.05, 0.5, 0.9])
def test_c1_edge_is_the_sign_change_of_the_denominator(src, fraction):
    # den(p0) is linear in c1 with slope Rc'(p0) > 0: it vanishes at
    # c1_edge to rounding and is negative below it, positive above
    lo, hi = beta_range(src)
    beta = lo + fraction * (hi - lo)
    d_beta = beta_to_distortion(src, beta)
    r_beta, slope = src.rate(d_beta), src.rate_derivatives(d_beta)[0]
    p0 = np.array([1e-3])
    edge = policy.c1_edge(src, CH, beta, 1e-3)

    def den(c1):
        return policy._adaptive_terms(CH, ARR, c1, d_beta, r_beta, slope)[0](p0)[1][0]

    rc1, rc2 = CH.rate_derivatives(p0)
    scale = abs((d_beta + edge) * rc1[0]) + abs(r_beta / slope * (p0[0] * rc2[0] + rc1[0]))
    assert abs(den(edge)) <= 1e-12 * scale
    assert den(edge - 1e-9) < 0.0 < den(edge + 1e-9)


def test_adaptive_singular_outcomes_carry_position():
    # F(p0) < 0: the power runs to 0 almost at once
    sol = solve_adaptive(GAUSS, CH, ARR, NO_LEAK, 5.0, 1e-3,
                         VariationalConstants(-0.90386, -0.75767, 0.06803))
    assert not sol.feasible
    assert sol.message.startswith("ODE singular near z=0.000533")
    assert "state reached 0" in sol.message
    # F's denominator changes sign on the path: a pole at z ~ 0.1952
    sol = solve_adaptive(BERN, CH, ARR, NO_LEAK, 3.0, 1e-3,
                         VariationalConstants(-0.20693, -0.12884, 0.23470))
    assert not sol.feasible
    assert sol.message.startswith("ODE singular near z=0.195")
    assert "blew up" in sol.message


def test_solve_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_adaptive(GAUSS, CH, ARR, NO_LEAK, math.inf, 1e-3, BENCH)
    with pytest.raises(ValueError):
        solve_adaptive(GAUSS, CH, ARR, NO_LEAK, 5.0, 0.0, BENCH)
    with pytest.raises(ValueError):
        solve_adaptive(
            GAUSS, CH, ARR, NO_LEAK, 5.0, 1e-3,
            VariationalConstants(-1.5, -0.9, 0.3),
        )


@pytest.mark.parametrize("p0plus", [math.inf, math.nan])
def test_non_finite_p0plus_is_rejected(p0plus):
    # a bad input, not an endpoint condition without a root
    with pytest.raises(ValueError, match="p0plus"):
        solve_adaptive(GAUSS, CH, ARR, NO_LEAK, 5.0, p0plus, BENCH, refine_c2=True)
    with pytest.raises(ValueError, match="p0plus"):
        solve_constant_kappa(GAUSS, CH, ARR, NO_LEAK, 5.0, p0plus, c=-0.55)


@pytest.mark.parametrize("n", [None, 300], ids=["default-grid", "300-nodes"])
def test_underflowing_empty_battery_atom_is_infeasible(n):
    # the charge law piles up so far from empty that pi0 = exp(-1359)
    # underflows to 0; no positive kappa0 is representable then, and the
    # outcome says so instead of raising
    grid = None if n is None else Grid.graded(5.0, n=n)
    sol = solve_adaptive(
        GAUSS, CH, ARR, NO_LEAK, 5.0, 1e-3,
        VariationalConstants(-0.0678944386606244, -0.9432553321559033,
                             0.012719901038464166),
        grid=grid,
    )
    assert not sol.feasible
    assert sol.pi0 == 0.0
    assert math.isnan(sol.kappa0)
    assert "underflows" in sol.message


def test_infeasible_constants_return_outcome_not_exception():
    # constants that blow the ODE up mid-run come back flagged, with the
    # diagnostic attached and an infinite average
    sol = solve_adaptive(
        GAUSS, CH, ARR, NO_LEAK, 5.0, 1e-3,
        VariationalConstants(-0.5, -0.1, 0.0),
    )
    assert not sol.feasible
    assert sol.d_avg == math.inf
    assert math.isnan(sol.pi0)
    assert sol.message != ""


# ---------------------------------------------------------------------------
# tabulated-operating-point reproduction (one row per table; the full
# twenty-row audit lives in the acceptance suite)
# ---------------------------------------------------------------------------

def test_tabulated_rows_reproduce_spot_check(mid_raw, leaky_raw):
    # [PAPER] quoted averages at capacity 3 / 5, plain and leaky
    assert mid_raw.feasible
    assert mid_raw.d_avg == pytest.approx(0.5765, rel=2e-2)
    assert leaky_raw.feasible
    assert leaky_raw.d_avg == pytest.approx(0.6566, rel=2e-2)
    rowb = solve_adaptive(
        BERN, CH, ARR, NO_LEAK, 1.0, 1e-3,
        VariationalConstants(-0.3450, -0.36, 0.13),
    )
    assert rowb.d_avg == pytest.approx(0.2097, rel=2e-2)
    rowb2 = solve_adaptive(
        BERN, CH, ARR, IncreasingLeakage(), 5.0, 1e-3,
        VariationalConstants(-0.3301, -0.33, 0.18),
    )
    assert rowb2.d_avg == pytest.approx(0.1885, rel=2e-2)


def test_marginal_normalization_is_flagged_but_still_averaged(bench_raw):
    # the benchmark constants over-subscribe the mismatch budget by ~5e-5:
    # no positive empty-battery mismatch closes the normalization, yet the
    # average depends only on the budget split and stays on its quoted value
    assert not bench_raw.feasible
    assert math.isnan(bench_raw.kappa0)
    assert "normalization" in bench_raw.message
    assert bench_raw.d_avg == pytest.approx(0.5417, rel=2e-3)


# ---------------------------------------------------------------------------
# stationarity residual
# ---------------------------------------------------------------------------

def test_refined_solution_is_stationary(bench_refined):
    # [DERIVED] polishing c2 collapses the residual to quadrature noise
    assert bench_refined.feasible
    assert bench_refined.optimality_residual <= 1e-5
    assert bench_refined.d_avg == pytest.approx(0.5417, rel=2e-3)


def _c2_at_rest(src, beta, c1, p0=1e-3):
    # F(p0) is affine in c2; this is the c2 at which the state stays at p0
    f0 = _adaptive_field(src, VariationalConstants(beta, c1, 0.0))(np.array([p0]))[0]
    f1 = _adaptive_field(src, VariationalConstants(beta, c1, 1.0))(np.array([p0]))[0]
    return f0 / (f0 - f1)


@pytest.fixture
def integrations(monkeypatch):
    # one entry per trajectory the policy module integrates: whether it
    # started from the endpoint root's panels
    calls = []
    integrate = policy.integrate_autonomous

    def counted(*args, **kwargs):
        calls.append(kwargs.get("start") is not None)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(policy, "integrate_autonomous", counted)
    return calls


def test_polish_reaches_one_c2_from_every_admissible_start(bench_refined, integrations):
    # at the benchmark row the state rises for c2 below c2_at_rest = 0.541
    # and blows up before z = 5 for c2 below ~0.17.  The c2 that closes
    # the endpoint gap is a root in p(L) for the given (beta, c1), so the
    # start plays no part: every start, on either side of the blow-up
    # edge, ends on the same c2 bit for bit and none is singular
    at_rest = _c2_at_rest(GAUSS, BENCH.beta, BENCH.c1)
    assert at_rest == pytest.approx(0.5412, abs=1e-4)
    starts = list(np.linspace(0.0, at_rest, 28)[1:]) + [at_rest * (1.0 - 1e-9)]
    for start in starts:
        sol = solve_adaptive(GAUSS, CH, ARR, NO_LEAK, 5.0, 1e-3,
                             replace(BENCH, c2=start), refine_c2=True)
        assert sol.feasible, sol.message
        assert sol.constants.c2 == bench_refined.constants.c2
    # the root needs no trajectory, and the one trajectory at the root
    # starts from the root's table
    assert integrations == [True] * len(starts)


def test_bracket_reaches_a_root_near_c2_zero_geometrically(integrations):
    # a scan-accuracy probe whose root sits 2.2e-3 below the c2 at which
    # the state stays at p0: the endpoint root is found on the table, and
    # the one trajectory, at the c2 found, starts from it
    sol = solve_adaptive(GAUSS, CH, ARR, NO_LEAK, 5.0, 1e-3,
                         VariationalConstants(-0.3127, -0.9434, 0.1444),
                         grid=Grid.graded(5.0, n=300), refine_c2=True)
    assert sol.constants.c2 == pytest.approx(0.0905097949635, abs=1e-9)
    assert integrations == [True]


def test_endpoint_without_root_integrates_nothing(integrations):
    # c1 lies above the edge, so the state falls from p0; every end power
    # down to 1e-300 is reached before z = 3, so no c2 closes the gap, and
    # that is known before any trajectory is integrated
    consts = VariationalConstants(-0.37026, -0.12884, 0.73470)
    assert consts.c1 > policy.c1_edge(BERN, CH, consts.beta, 1e-3)
    sol = solve_adaptive(BERN, CH, ARR, NO_LEAK, 3.0, 1e-3, consts, refine_c2=True)
    assert not sol.feasible and sol.grid is None
    assert sol.message.startswith("endpoint condition has no root")
    assert integrations == []


def test_endpoint_root_on_the_falling_side():
    # c1 above the edge makes den(p0) > 0, so the state falls from
    # p0plus = 1 and the root lies below it; the solve is certified like
    # the rising ones, whatever the start
    consts = VariationalConstants(-0.3, 0.0064, 0.5)
    assert consts.c1 > policy.c1_edge(GAUSS, CH, consts.beta, 1.0)
    sol = solve_adaptive(GAUSS, CH, ARR, NO_LEAK, 1.0, 1.0, consts, refine_c2=True)
    assert sol.feasible
    assert np.all(np.diff(sol.p) < 0.0) and sol.p[-1] == pytest.approx(0.4225, abs=1e-4)
    assert sol.constants.c2 == pytest.approx(-0.03943, abs=1e-5)
    assert sol.optimality_residual <= 1e-9
    again = solve_adaptive(GAUSS, CH, ARR, NO_LEAK, 1.0, 1.0, replace(consts, c2=-3.0),
                           refine_c2=True)
    assert again.constants.c2 == sol.constants.c2


def test_residual_needs_a_solved_adaptive_policy():
    matched = solve_constant_kappa(GAUSS, CH, ARR, NO_LEAK, 5.0, 1e-3, c=-0.55)
    assert matched.feasible and matched.kind == "constant-kappa"
    with pytest.raises(ValueError, match="no constants attached"):
        optimality_residual(GAUSS, CH, ARR, matched)
    # the power runs to 0 almost at once: an adaptive outcome with no grid
    gridless = solve_adaptive(GAUSS, CH, ARR, NO_LEAK, 5.0, 1e-3,
                              VariationalConstants(-0.90386, -0.75767, 0.06803))
    assert gridless.grid is None and gridless.kind == "adaptive"
    assert not gridless.feasible and gridless.p.size == 0 and math.isnan(gridless.pi0)
    with pytest.raises(ValueError, match="needs a solved adaptive policy"):
        optimality_residual(GAUSS, CH, ARR, gridless)


def test_residual_detects_perturbation(bench_refined):
    # scaling the power profile by 1.1 must light the residual up
    sol = bench_refined
    pert = copy.copy(sol)
    p_scaled = sol.p * 1.1
    object.__setattr__(pert, "p", p_scaled)
    object.__setattr__(
        pert, "kappa",
        GAUSS.rate(sol.d_beta) / np.array([CH.rate(x) for x in p_scaled]),
    )
    r = optimality_residual(GAUSS, CH, ARR, pert)
    assert r > 1e-3


def test_residual_endpoint_reduces_to_algebraic_form(mid_raw):
    # at z = capacity the integral term is empty, leaving
    # d_beta - (dD/dp) p + c1 + c2 kappa
    from ehjscc.policy import _residual_profile

    prof = _residual_profile(GAUSS, CH, ARR, mid_raw)
    s1 = GAUSS.rate_derivatives(mid_raw.d_beta)[0]
    p_end, k_end = mid_raw.p[-1], mid_raw.kappa[-1]
    direct = (
        mid_raw.d_beta
        - k_end * CH.rate_derivatives(p_end)[0] / s1 * p_end
        + mid_raw.constants.c1
        + mid_raw.constants.c2 * k_end
    )
    assert prof[-1] == pytest.approx(direct, abs=1e-14)


def test_raw_residual_scales_with_endpoint_gap(mid_raw, bench_refined):
    # tabulated constants are rounded, so the recorded defect is visible;
    # the polished solve beats it by orders of magnitude
    raw_res = mid_raw.optimality_residual
    assert raw_res > 1e-4
    assert bench_refined.optimality_residual < raw_res / 100.0


def _edge_solve(capacity):
    # a polished solve hugging the c1 edge, as a tune's probes do
    c1 = policy.c1_edge(GAUSS, CH, -0.3, 1e-3) - 1e-5
    return solve_adaptive(GAUSS, CH, ARR, NO_LEAK, capacity, 1e-3,
                          VariationalConstants(-0.3, c1, 0.3), refine_c2=True)


def test_residual_keeps_its_digits_at_long_capacity():
    # lam*L = 40: the tail of the condition's integral from z is ~e^{-40}
    # of the whole, so taken as the whole less the head it was rounding
    # noise, and the residual read 0.097
    sol = _edge_solve(40.0)
    assert sol.feasible
    assert sol.optimality_residual <= 1e-3


def test_residual_is_finite_past_the_overflow_of_exp_lam_l():
    # e^{lam z} overflows above z ~ 709: the residual read NaN there,
    # with overflow warnings, which pytest turns into errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = _edge_solve(720.0)
    assert sol.feasible
    assert math.isfinite(sol.optimality_residual)


# ---------------------------------------------------------------------------
# stationary-law invariants
# ---------------------------------------------------------------------------

def test_constant_instantaneous_distortion(mid_raw, bench_refined, leaky_raw):
    for sol in (mid_raw, bench_refined, leaky_raw):
        dev = np.max(np.abs(distortion(GAUSS, CH, sol.p, sol.kappa) - sol.d_beta)) / sol.d_beta
        assert dev <= 1e-8


def test_probability_normalization(mid_raw, bench_refined, leaky_raw):
    for sol in (mid_raw, bench_refined, leaky_raw):
        total = sol.pi0 + float(np.sum(sol.f * sol.grid.weights))
        assert 0.0 <= sol.pi0 <= 1.0
        assert total == pytest.approx(1.0, abs=1e-8)


def test_mismatch_normalization(mid_raw, bench_refined):
    for sol in (mid_raw, bench_refined):
        lhs = sol.pi0 / sol.kappa0 + float(
            np.sum(sol.f / sol.kappa * sol.grid.weights)
        )
        assert lhs == pytest.approx(1.0, abs=1e-8)


def test_average_distortion_identity(mid_raw, bench_refined, leaky_raw):
    for sol in (mid_raw, bench_refined, leaky_raw):
        if not sol.feasible:
            continue
        ident = sol.d_beta + (sol.pi0 / sol.kappa0) * (GAUSS.d_max - sol.d_beta)
        assert sol.d_avg == pytest.approx(ident, abs=1e-8)


def test_level_crossing_balance(mid_raw, leaky_raw):
    # density times drain balances the arrival flux into [0, z]
    for sol, leak in ((mid_raw, NO_LEAK), (leaky_raw, IncreasingLeakage())):
        nodes = sol.grid.nodes
        drain = sol.p + np.asarray(leak.rate(nodes), dtype=float)
        flux = cumulative_integral(sol.grid, sol.f * np.exp(ARR.lam * nodes))
        rhs = ARR.delta * np.exp(-ARR.lam * nodes) * (sol.pi0 + flux)
        rel = np.abs(sol.f * drain - rhs) / np.abs(rhs)
        assert rel.max() <= 1e-6


def test_bound_dominance(mid_raw, bench_refined, leaky_raw):
    assert mid_raw.d_avg >= lower_bound(GAUSS, CH, ARR, 3.0)
    assert bench_refined.d_avg >= lower_bound(GAUSS, CH, ARR, 5.0)
    assert leaky_raw.d_avg >= lower_bound(GAUSS, CH, ARR, 5.0)


def gaussian_kappa_closed_form(variance, noise, beta, p):
    """Mismatch at power p (scalar or array) for a Gaussian source.

    kappa = -(W_{-1}(beta/(variance*e)) + 1) / ln(1 + p/noise); identical
    to R_s(D_beta)/R_c(p), and decreasing in p at fixed beta.
    """
    if not -variance < beta < 0.0:
        raise ValueError(f"beta must be in (-{variance}, 0), got {beta}")
    if not np.all(np.asarray(p) > 0.0):
        raise ValueError("power must be > 0")
    w = lambert_wm1(beta / (variance * math.e))
    out = -(w + 1.0) / np.log1p(np.asarray(p, dtype=float) / noise)
    return float(out) if np.ndim(p) == 0 else out


def test_gaussian_dual_path_mismatch(mid_raw):
    # closed form in beta vs rate-ratio reconstruction, full grid
    closed = gaussian_kappa_closed_form(1.0, 1.0, -0.8940, mid_raw.p)
    rel = np.abs(closed - mid_raw.kappa) / mid_raw.kappa
    assert rel.max() <= 1e-10


def test_kappa_closed_form_examples():
    # [DERIVED] frozen lambert evaluation at p = 3
    v = gaussian_kappa_closed_form(1.0, 1.0, -0.8738, 3.0)
    assert v == pytest.approx(0.4421851979211372, rel=1e-12)
    assert v > 0.0
    # decreasing in p at fixed beta
    ps = np.linspace(0.5, 10.0, 40)
    ks = gaussian_kappa_closed_form(1.0, 1.0, -0.8738, ps)
    assert np.all(np.diff(ks) < 0.0)
    # beta at the lower edge sends the mismatch to zero
    tiny = gaussian_kappa_closed_form(1.0, 1.0, -1.0 + 1e-9, 3.0)
    assert 0.0 < tiny < 1e-3
    with pytest.raises(ValueError):
        gaussian_kappa_closed_form(1.0, 1.0, -1.0, 3.0)
    with pytest.raises(ValueError):
        gaussian_kappa_closed_form(1.0, 1.0, -0.5, 0.0)


def test_policy_shape_monotone(bench_refined, leaky_raw):
    for sol in (bench_refined, leaky_raw):
        assert np.all(sol.p > 0.0)
        assert np.all(np.diff(sol.p) > 0.0)
        assert np.all(np.diff(sol.kappa) < 0.0)


def test_solution_arrays_are_immutable(mid_raw):
    with pytest.raises(ValueError):
        mid_raw.p[0] = 99.0
    # the grid is shared by every solution solved on it
    with pytest.raises(ValueError):
        mid_raw.grid.nodes[0] = 99.0
    with pytest.raises(ValueError):
        mid_raw.grid.weights[0] = 99.0


def test_coarse_grid_stays_close(mid_raw):
    small = solve_adaptive(
        GAUSS, CH, ARR, NO_LEAK, 3.0, 1e-3,
        VariationalConstants(-0.8940, -0.90, 0.32),
        grid=Grid.graded(3.0, n=300),
    )
    assert small.d_avg == pytest.approx(mid_raw.d_avg, rel=1e-3)


@pytest.mark.parametrize("src,leak,rows", ALL_BENCHMARKS)
def test_default_grid_matches_a_dense_reference(src, leak, rows):
    # the law is integrated over the whole of [0, L]: on the default grid
    # d_avg is within 1e-6 relative of a 32k-node grid graded from 1e-12
    # (8.7e-8 at most measured), where the trapezoid law over [1e-6, L]
    # was off by up to 3.1e-4
    for cap, (_, beta, c1, c2) in rows.items():
        consts = VariationalConstants(beta, c1, c2)
        sol = solve_adaptive(src, CH, ARR, leak, float(cap), 1e-3, consts, refine_c2=True)
        ref = solve_adaptive(src, CH, ARR, leak, float(cap), 1e-3, consts, refine_c2=True,
                             grid=Grid.graded(float(cap), n=32_000, z_min=1e-12))
        assert sol.d_avg == pytest.approx(ref.d_avg, rel=1e-6)
        assert sol.optimality_residual <= 1e-5
        # the charge CDF starts at the atom and rises at once: the mass
        # over (0, z1] lies between z1 times the density at either end
        z1 = sol.grid.nodes[1]
        cdf = _analytic_cdf(sol, np.array([0.0, z1, float(cap)]))
        assert cdf[0] == sol.pi0
        assert min(sol.f[:2]) <= (cdf[1] - sol.pi0) / z1 <= max(sol.f[:2])


# ---------------------------------------------------------------------------
# constant-mismatch policy
# ---------------------------------------------------------------------------

def test_constant_kappa_fixed_point():
    # [TRIVIAL] C = -lam * D~(delta/lam) with p0 = delta/lam freezes the
    # power: the matched distortion at p = 1 is 1/(1+1) = 0.5, so C = -0.5
    sol = solve_constant_kappa(GAUSS, CH, ARR, NO_LEAK, 5.0, 1.0, c=-0.5)
    assert sol.feasible
    assert np.max(np.abs(sol.p - 1.0)) <= 1e-12
    assert np.all(sol.kappa == 1.0)
    assert sol.kappa0 == 1.0
    assert sol.d_beta is None
    assert sol.optimality_residual is None


def test_constant_kappa_steeper_c_grows(bench_refined):
    # [DERIVED] frozen average for C = -0.55 at capacity 5; power climbs
    sol = solve_constant_kappa(GAUSS, CH, ARR, NO_LEAK, 5.0, 1e-3, c=-0.55)
    assert sol.feasible
    assert np.all(np.diff(sol.p) >= 0.0)
    assert sol.d_avg == pytest.approx(0.560268, abs=1e-4)
    # the tuned adaptive policy at the same capacity does better
    assert bench_refined.d_avg < sol.d_avg
    assert sol.d_avg >= lower_bound(GAUSS, CH, ARR, 5.0)


def test_constant_kappa_blowup_is_flagged():
    # too-negative C sends the power to infinity before the endpoint
    sol = solve_constant_kappa(GAUSS, CH, ARR, NO_LEAK, 5.0, 1e-3, c=-0.65)
    assert not sol.feasible
    assert sol.d_avg == math.inf
    assert sol.message != ""


def test_constant_kappa_blowup_position_matches_stepping():
    # the reported position is where |F| passes the 1e9 cap, as located
    # by the RKF45 stepper on the same right-hand side
    from ehjscc.numerics import SingularityError, integrate_ode
    from ehjscc.policy import _matched_terms

    sol = solve_constant_kappa(GAUSS, CH, ARR, NO_LEAK, 5.0, 1e-3, c=-0.65)
    assert sol.message.startswith("ODE singular near z=")
    assert "blew up" in sol.message
    terms = _matched_terms(GAUSS, CH, ARR)
    with pytest.raises(SingularityError) as exc:
        integrate_ode(lambda z, p: float(affine_field(*terms(p), 0.65)), 0.0, 1e-3, 5.0,
                      atol=1e-13, rtol=1e-12)
    z = float(sol.message.split("z=")[1].split(":")[0])
    assert z == pytest.approx(exc.value.z, rel=1e-5)


def test_constant_kappa_bernoulli_fixed_point():
    # c* = -lam * D~(delta/lam) with p0plus = delta/lam: p stays at 1
    c_star = -ARR.lam * distortion(BERN, CH, ARR.delta / ARR.lam, 1.0)
    sol = solve_constant_kappa(BERN, CH, ARR, NO_LEAK, 5.0, 1.0, c=c_star)
    assert sol.feasible
    assert np.max(np.abs(sol.p - 1.0)) <= 1e-12


def test_constant_kappa_bernoulli_domain_exit_is_cheap(monkeypatch):
    # well below c* the power reaches p = 3, where R_c(p) = H(1/2) and
    # the matched distortion hits 0: the model's domain ends there.  The
    # exit is located in a few array evaluations of F, where stepping
    # the ODE used to spin through its whole step budget
    states = []  # size of each array F is called on
    matched_terms = policy._matched_terms

    def counted_terms(*args):
        terms = matched_terms(*args)

        def parts(p):
            states.append(np.size(p))
            return terms(p)

        return parts

    monkeypatch.setattr(policy, "_matched_terms", counted_terms)
    c_star = -ARR.lam * distortion(BERN, CH, ARR.delta / ARR.lam, 1.0)
    sol = solve_constant_kappa(BERN, CH, ARR, NO_LEAK, 5.0, 1e-3, c=c_star - 0.5)
    assert len(states) <= 50
    assert sum(states) <= 20_000
    assert not sol.feasible
    assert sol.d_avg == math.inf
    assert sol.message.startswith("ODE singular near z=")
    assert "domain" in sol.message


def test_constant_kappa_swept_family_respects_bound():
    lb = lower_bound(GAUSS, CH, ARR, 5.0)
    best = math.inf
    for c in np.linspace(-0.64, -0.51, 8):
        sol = solve_constant_kappa(GAUSS, CH, ARR, NO_LEAK, 5.0, 1e-3, c=float(c))
        if sol.feasible:
            best = min(best, sol.d_avg)
    assert best < math.inf
    assert best >= lb


def test_constant_kappa_normalization():
    sol = solve_constant_kappa(GAUSS, CH, ARR, NO_LEAK, 5.0, 1e-3, c=-0.55)
    total = sol.pi0 + float(np.sum(sol.f * sol.grid.weights))
    assert total == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# infinite-battery constant-power scheme
# ---------------------------------------------------------------------------

def test_constant_power_scheme_unit_epsilon():
    # [PAPER] pi0 = 0.5 at eps = 1; average is then 0.5*D~(2) + 0.5*d_max
    pi0, d_avg = constant_power_scheme(GAUSS, CH, ARR, 1.0)
    assert pi0 == pytest.approx(0.5, abs=1e-12)
    assert d_avg == pytest.approx(0.5 * (1.0 / 3.0) + 0.5, abs=1e-12)


def test_constant_power_scheme_approaches_limit():
    # [PAPER] eps -> 0 recovers the infinite-battery floor D~(delta/lam)
    _, d1 = constant_power_scheme(GAUSS, CH, ARR, 1e-2)
    assert d1 == pytest.approx(0.5, rel=1e-2)
    _, d2 = constant_power_scheme(GAUSS, CH, ARR, 1e-3)
    assert abs(d2 - 0.5) / 0.5 <= 2e-3
    _, d3 = constant_power_scheme(GAUSS, CH, ARR, 1e-8)
    assert d3 == pytest.approx(0.5, abs=1e-7)
    with pytest.raises(ValueError):
        constant_power_scheme(GAUSS, CH, ARR, 0.0)
