"""Tests for the constants tuner and capacity sweep."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ehjscc import policy, search
from ehjscc.distortion import lower_bound
from ehjscc.models import (
    ArrivalModel,
    AwgnChannel,
    BernoulliSource,
    GaussianSource,
    IncreasingLeakage,
    ZeroLeakage,
)
from ehjscc.search import (
    Problem,
    SearchSpec,
    capacity_sweep,
    tune_constant_kappa,
    tune_constants,
)

GAUSS = GaussianSource(variance=1.0)
CH = AwgnChannel(noise=1.0)
ARR = ArrivalModel(delta=1.0, lam=1.0)
PROB2 = Problem(GAUSS, CH, ARR, ZeroLeakage(), capacity=2.0)
PROB5 = Problem(GAUSS, CH, ARR, ZeroLeakage(), capacity=5.0)

# small budget keeps the unit suite quick; the full-budget table
# reproduction lives in the acceptance suite
QUICK = SearchSpec(budget=300, seed=7)


@pytest.fixture(scope="module")
def tuned2():
    return tune_constants(PROB2, QUICK)


@pytest.fixture(scope="module")
def tuned_kappa5():
    return tune_constant_kappa(PROB5, budget=120)


def test_problem_validation():
    with pytest.raises(ValueError):
        Problem(GAUSS, CH, ARR, ZeroLeakage(), capacity=0.0)
    with pytest.raises(ValueError):
        Problem(GAUSS, CH, ARR, ZeroLeakage(), capacity=math.inf)
    with pytest.raises(ValueError):
        Problem(GAUSS, CH, ARR, ZeroLeakage(), capacity=5.0, p0plus=0.0)
    for p0plus in (math.inf, math.nan):
        with pytest.raises(ValueError, match="p0plus"):
            Problem(GAUSS, CH, ARR, ZeroLeakage(), capacity=5.0, p0plus=p0plus)
    assert replace(PROB2, capacity=7.0).capacity == 7.0
    with pytest.raises(ValueError):
        replace(PROB2, capacity=0.0)


def test_search_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(budget=0)
    with pytest.raises(ValueError):
        SearchSpec(beta_bounds=(-0.5, -0.9))
    with pytest.raises(ValueError):
        SearchSpec(margin=1.0)
    with pytest.raises(ValueError):
        # outside the admissible beta interval for this source
        tune_constants(PROB2, SearchSpec(beta_bounds=(-1.2, -0.5), budget=10))


def test_tuned_point_beats_tabulated_value(tuned2):
    # [PAPER] quoted optimum at capacity 2 is 0.6147; the tuner must land
    # within one percent even on a small budget
    assert tuned2.feasible
    assert tuned2.d_avg <= 0.6147 * 1.01
    assert tuned2.evaluations <= 300


def test_tuned_point_is_certified(tuned2):
    # the reported solution is a probe's own solve, with every invariant
    sol = tuned2.solution
    assert sol.optimality_residual <= 1e-5
    assert sol.feasible
    assert sol.pi0 / sol.kappa0 >= QUICK.margin
    assert tuned2.constants.c2 == sol.constants.c2
    assert tuned2.d_avg >= lower_bound(GAUSS, CH, ARR, 2.0)


def test_tuned_solutions_are_probes_own_solves(monkeypatch):
    # no point is solved twice, and no answer is re-solved: each tuner
    # returns the usable probe of least d_avg as it was solved
    for name, tune in (("solve_adaptive", lambda: tune_constants(PROB5)),
                       ("solve_constant_kappa", lambda: tune_constant_kappa(PROB5))):
        solves = []
        solve = getattr(search, name)

        def recorded(*args, solve=solve, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(search, name, recorded)
        res = tune()
        assert len(solves) == res.evaluations
        assert any(sol is res.solution for sol in solves)
        usable = [sol for sol in solves if sol.feasible and (
            sol.kind == "constant-kappa" or sol.pi0 / sol.kappa0 >= SearchSpec().margin)]
        assert res.d_avg == min(sol.d_avg for sol in usable)


def test_a_tune_audits_only_the_solution_it_returns(monkeypatch):
    # probes read feasibility, d_avg and pi0/kappa0 alone: the residual is
    # computed once, for the returned solve, through policy's lookup
    audit = policy.optimality_residual
    audits = []

    def counted(*args):
        audits.append(args[-1])
        return audit(*args)

    monkeypatch.setattr(policy, "optimality_residual", counted)
    res = tune_constants(PROB5)
    assert res.evaluations == 11
    assert len(audits) == 1 and audits[0] is res.solution
    assert res.solution.optimality_residual == audit(GAUSS, CH, ARR, res.solution)
    assert res.solution.optimality_residual <= 1e-5


def test_a_bernoulli_tune_finds_each_probes_level_once(monkeypatch):
    # c1_edge and the probe's solve share one root for D_beta
    bern = Problem(BernoulliSource(prob=0.5), CH, ARR, IncreasingLeakage(), capacity=3.0)
    # a level of another source, so that none of this source is still held
    policy.c1_edge(GAUSS, CH, -0.5, 1e-3)
    roots = []
    find_root = policy.find_root

    def counted(*args, **kwargs):
        roots.append(args)
        return find_root(*args, **kwargs)

    monkeypatch.setattr(policy, "find_root", counted)
    res = tune_constants(bern)
    assert res.feasible and res.evaluations == 12
    assert len(roots) == res.evaluations


def test_a_search_without_a_solution_says_why():
    # at a battery of 1e-6 the box's low end already meets the margin
    tiny = tune_constants(replace(PROB5, capacity=1e-6), SearchSpec(budget=30))
    assert (tiny.solution, tiny.evaluations) == (None, 1)
    assert tiny.reason == "no sign change over the beta box: its low end -0.99 meets the margin"
    below = tune_constants(PROB5, SearchSpec(beta_bounds=(-0.95, -0.9), budget=5))
    assert below.reason == (
        "no sign change over the beta box: its high end -0.9 falls short of it")
    spent = tune_constants(PROB5, SearchSpec(budget=1))
    assert spent.reason == (
        "the budget of 1 probes ran out before it probed both ends of the beta box")
    # a search with a solution has no reason to give
    assert tune_constants(PROB5, SearchSpec(budget=6)).reason == ""
    # every constant this steep blows the power up before the endpoint
    steep = tune_constant_kappa(PROB5, c_bounds=(-3.0, -2.5))
    assert steep.reason == "no probe in the box of C had a feasible solve"
    steep = tune_constant_kappa(PROB5, c_bounds=(-3.0, -2.5), budget=12)
    assert steep.reason == "the budget of 12 probes ran out before a feasible one"


def test_tuner_is_deterministic(tuned2):
    again = tune_constants(PROB2, QUICK)
    assert again.d_avg == tuned2.d_avg
    assert again.constants == tuned2.constants
    assert again.evaluations == tuned2.evaluations
    assert again.infeasible_evals == tuned2.infeasible_evals


def test_tune_work_is_bounded(monkeypatch):
    # the root in beta alone is found along the c1 edge, and each probe
    # closes the endpoint condition as one root on a table of F's parts:
    # the default tune at capacity 5 spends 11 probes and 61 array calls
    # of F or its parts, against 26 and 136 when both roots were bisected
    calls = []
    adaptive_terms = policy._adaptive_terms

    def counted_terms(*args):
        terms, scale, closing = adaptive_terms(*args)

        def parts(p):
            calls.append(np.size(p))
            return terms(p)

        return parts, scale, closing

    monkeypatch.setattr(policy, "_adaptive_terms", counted_terms)
    res = tune_constants(PROB5)
    assert res.feasible
    assert res.d_avg <= 0.5417 * 1.01
    assert res.evaluations <= 15
    assert len(calls) <= 90


def test_seed_does_not_steer_the_search():
    # the root in beta draws no random numbers
    a = tune_constants(PROB5, SearchSpec(seed=0))
    b = tune_constants(PROB5, SearchSpec(seed=7))
    assert a.feasible
    assert (a.d_avg, a.constants, a.evaluations, a.infeasible_evals) == (
        b.d_avg, b.constants, b.evaluations, b.infeasible_evals
    )


def test_box_below_the_root_is_infeasible():
    # the tuned beta at capacity 5 is about -0.8734; every probe in this
    # box falls short of the margin, so the share never changes sign
    spec = SearchSpec(beta_bounds=(-0.95, -0.9), budget=5)
    res = tune_constants(PROB5, spec)
    assert not res.feasible
    assert res.constants is None and res.solution is None
    assert res.d_avg == math.inf
    assert 1 <= res.evaluations <= spec.budget
    assert res.infeasible_evals == res.evaluations


def test_a_probe_whose_solve_has_no_grid_is_infeasible(monkeypatch):
    # below beta = -0.9 every solve stops before it has a grid: such a
    # probe reads -inf, on the side of the root where the share falls
    # short, and counts as infeasible
    unpatched = tune_constants(PROB5)
    solve = search.solve_adaptive

    def gridless_below(src, ch, arrivals, leak, capacity, p0plus, consts, **kwargs):
        if consts.beta < -0.9:
            return policy.PolicySolution(p0plus=p0plus, constants=consts, message="no grid")
        return solve(src, ch, arrivals, leak, capacity, p0plus, consts, **kwargs)

    monkeypatch.setattr(search, "solve_adaptive", gridless_below)
    probe = search._edge_probe(PROB5, SearchSpec())
    assert probe(-0.95) == -math.inf
    assert probe(-0.85) > 0.0
    res = probe.result()
    assert (res.evaluations, res.infeasible_evals) == (2, 1)
    assert res.constants.beta == -0.85
    res = tune_constants(PROB5)
    assert res.infeasible_evals > unpatched.infeasible_evals
    assert res.d_avg == pytest.approx(unpatched.d_avg, rel=1e-6)


def test_budget_one_probes_single_point():
    res = tune_constants(PROB2, SearchSpec(budget=1, seed=0))
    assert res.evaluations == 1
    again = tune_constants(PROB2, SearchSpec(budget=1, seed=0))
    assert (res.d_avg, res.constants) == (again.d_avg, again.constants)
    if not res.feasible:
        assert res.constants is None
        assert res.d_avg == math.inf
        assert res.solution is None


def test_budget_spent_inside_the_root_certifies_what_it_has():
    # six probes: both ends of the beta box and four steps of the root,
    # which stops there; the best probe so far is returned
    spec = SearchSpec(budget=6)
    res = tune_constants(PROB5, spec)
    assert res.evaluations == 6
    again = tune_constants(PROB5, spec)
    assert (res.d_avg, res.constants, res.infeasible_evals) == (
        again.d_avg, again.constants, again.infeasible_evals
    )
    assert res.feasible
    sol = res.solution
    assert sol.pi0 / sol.kappa0 >= spec.margin
    assert sol.optimality_residual <= 1e-5
    # short of the full search's optimum, which needs 11 probes
    assert res.d_avg > tune_constants(PROB5).d_avg


def test_constant_kappa_tuner(tuned_kappa5):
    # [DERIVED] frozen optimum of the one-constant family at capacity 5
    assert tuned_kappa5.feasible
    assert tuned_kappa5.d_avg == pytest.approx(0.559386, abs=5e-4)
    # strictly below the fixed-point value -lam * D~(delta/lam) = -0.5
    assert tuned_kappa5.c < -0.5
    assert tuned_kappa5.solution.kappa0 == 1.0


def test_constant_kappa_minimization_stops_at_scan_accuracy():
    # one Brent minimization over the whole C box ends at a width of
    # 1e-7 * max(1, |C|): 16 probes at the default budget.  The d_avg
    # found is within 1e-13 relative of a 32k-node solve at its C
    res = tune_constant_kappa(PROB5, budget=240)
    assert res.evaluations <= 20
    assert res.d_avg == pytest.approx(0.5593946296111, rel=1e-9)


def test_constant_kappa_optimum_on_the_feasibility_edge():
    # with rising leakage at capacity 12, d_avg falls as C falls until the
    # solve blows up, so the optimum sits on the edge of the feasible
    # window; the minimization closes in on it from the feasible side
    # (34 probes measured).  The d_avg found is within 2.8e-8 relative of
    # a 32k-node solve at its C
    prob = Problem(GAUSS, CH, ARR, IncreasingLeakage(), capacity=12.0)
    res = tune_constant_kappa(prob)
    assert res.feasible
    assert res.evaluations <= 40
    assert res.d_avg == pytest.approx(0.70202429, rel=1e-6)


def test_constant_kappa_rejects_bad_inputs():
    with pytest.raises(ValueError):
        tune_constant_kappa(PROB5, budget=0)
    with pytest.raises(ValueError):
        # nothing below the fixed-point value in this interval
        tune_constant_kappa(PROB5, c_bounds=(-0.4, -0.3), budget=10)


def test_constant_kappa_no_feasible_outcome():
    # every constant this steep blows the power up before the endpoint
    res = tune_constant_kappa(PROB5, c_bounds=(-3.0, -2.5), budget=12)
    assert not res.feasible
    assert res.c is None
    assert res.d_avg == math.inf
    assert res.infeasible_evals == res.evaluations


def test_adaptive_beats_constant_kappa(tuned2, tuned_kappa5):
    # mid-capacity ordering; equality tolerance covers degenerate ties
    k2 = tune_constant_kappa(PROB2, budget=120)
    assert tuned2.d_avg <= k2.d_avg + 1e-9


def test_capacity_sweep_rows_and_determinism():
    spec = SearchSpec(budget=120, seed=3)
    sweep = capacity_sweep(PROB2, [2.0, 2.0], spec, kappa_budget=60)
    rows = list(sweep.rows())
    assert len(rows) == 2
    assert rows[0] == rows[1]
    for cap, d_ad, d_ck, d_lb in rows:
        assert cap == 2.0
        assert d_lb == pytest.approx(lower_bound(GAUSS, CH, ARR, 2.0))
        assert d_lb <= d_ad
        assert d_lb <= d_ck


def test_capacity_sweep_validation():
    with pytest.raises(ValueError):
        capacity_sweep(PROB2, [], QUICK)
    with pytest.raises(ValueError):
        capacity_sweep(PROB2, [2.0, -1.0], QUICK)
