"""Tests for the constants tuner and capacity sweep."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ehjscc import policy
from ehjscc.distortion import lower_bound
from ehjscc.models import ArrivalModel, AwgnChannel, GaussianSource, ZeroLeakage
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
    assert replace(PROB2, capacity=7.0).capacity == 7.0
    with pytest.raises(ValueError):
        replace(PROB2, capacity=0.0)


def test_search_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(budget=0)
    with pytest.raises(ValueError):
        SearchSpec(c2_bounds=(1.0, 0.0))
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
    # the reported solution is a full-accuracy solve with every invariant
    sol = tuned2.solution
    assert sol.optimality_residual <= 1e-5
    assert sol.feasible
    assert sol.pi0 / sol.kappa0 >= 0.5 * QUICK.margin
    assert tuned2.constants.c2 == sol.constants.c2
    assert tuned2.d_avg >= lower_bound(GAUSS, CH, ARR, 2.0)


def test_tuner_is_deterministic(tuned2):
    again = tune_constants(PROB2, QUICK)
    assert again.d_avg == tuned2.d_avg
    assert again.constants == tuned2.constants
    assert again.evaluations == tuned2.evaluations
    assert again.infeasible_evals == tuned2.infeasible_evals


def test_tune_work_is_bounded(monkeypatch):
    # c2 is polished in every probe, not scanned: the default tune at
    # capacity 5 spends 233 probes and 4,133 array calls of F (seed 0),
    # where a scan over c2 as a third axis spent 769 and 9,763
    calls = []
    adaptive_field = policy._adaptive_field

    def counted_field(*args):
        field = adaptive_field(*args)

        def rhs(p):
            calls.append(np.size(p))
            return field(p)

        return rhs

    monkeypatch.setattr(policy, "_adaptive_field", counted_field)
    res = tune_constants(PROB5)
    assert res.feasible
    assert res.d_avg <= 0.5417 * 1.01
    assert res.evaluations <= 400
    assert len(calls) <= 7_000


def test_budget_one_probes_single_point():
    res = tune_constants(PROB2, SearchSpec(budget=1, seed=0))
    assert res.evaluations == 1
    again = tune_constants(PROB2, SearchSpec(budget=1, seed=0))
    assert (res.d_avg, res.constants) == (again.d_avg, again.constants)
    if not res.feasible:
        assert res.constants is None
        assert res.d_avg == math.inf
        assert res.solution is None


def test_constant_kappa_tuner(tuned_kappa5):
    # [DERIVED] frozen optimum of the one-constant family at capacity 5
    assert tuned_kappa5.feasible
    assert tuned_kappa5.d_avg == pytest.approx(0.559386, abs=5e-4)
    # strictly below the fixed-point value -lam * D~(delta/lam) = -0.5
    assert tuned_kappa5.c < -0.5
    assert tuned_kappa5.solution.kappa0 == 1.0


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
