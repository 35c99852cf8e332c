"""Derivative-free tuning of policy constants and capacity sweeps.

The free constants of the variational system are not given by any formula;
they have to be found numerically for each operating point.  This module
wraps the policy solvers in a budgeted, deterministic search.  For the
adaptive policy only (beta, c1) are searched, by a coarse scan of their
box followed by Nelder--Mead simplex refinement: the endpoint condition
fixes c2 for each pair, and every probe's solve polishes it there.  The
single constant of the constant-mismatch policy gets a scan plus
golden-section polish.  A capacity sweep ties both
tuners and the converse bound together into one table, which is what the
plotting and CLI layers consume.

Objective evaluations use a coarsened grid and relaxed ODE tolerances
(the ranking of candidate constants is insensitive to the last four
digits of the average distortion); the winning point is always re-solved
at full accuracy, and only a full-accuracy feasible solution is ever
reported as the result.  Both searches stop at the accuracy of those
evaluations, which are off by 5e-5 to 4e-4 relative: the simplex once
its values agree to 1e-6 relative (or its size falls below 1e-8), the
golden section once its bracket is narrower than 1e-7 * max(1, |C|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

from .distortion import distortion, lower_bound
from .models import (
    ArrivalModel,
    AwgnChannel,
    LeakageModel,
    SourceModel,
    ZeroLeakage,
)
from .numerics import Grid, seeded_rng
from .policy import (
    PolicySolution,
    VariationalConstants,
    beta_range,
    solve_adaptive,
    solve_constant_kappa,
)

__all__ = [
    "Problem",
    "SearchSpec",
    "TuneResult",
    "SweepResult",
    "tune_constants",
    "tune_constant_kappa",
    "capacity_sweep",
]

# cheap-mode settings used for ranking candidates during the search;
# final answers never come from these
_SCAN_GRID_N = 300
_SCAN_ATOL = 1e-10
_SCAN_RTOL = 1e-9

# golden ratio step for the one-dimensional polish
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# the simplex stops once its values agree to this relative spread: a
# scan-grid probe is itself off by 5e-5 to 4e-4 relative, so agreement
# past this only ranks quadrature error
_SIMPLEX_RTOL = 1e-6
# the golden section stops at this width relative to max(1, |C|), for
# the same reason: its probes carry scan-grid error
_GOLDEN_RTOL = 1e-7


@dataclass(frozen=True)
class Problem:
    """One operating point: source, channel, arrivals, leakage, battery."""

    src: SourceModel
    ch: AwgnChannel
    arrivals: ArrivalModel
    leak: LeakageModel = field(default_factory=ZeroLeakage)
    capacity: float = 5.0
    p0plus: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.capacity) and self.capacity > 0.0):
            raise ValueError(f"capacity must be finite and positive, got {self.capacity}")
        if not self.p0plus > 0.0:
            raise ValueError(f"p0plus must be positive, got {self.p0plus}")


@dataclass(frozen=True)
class SearchSpec:
    """Search box and budget for tuning the adaptive constants.

    ``None`` bounds are filled per problem: beta gets the middle 98% of
    its admissible range (the endpoints are singular) and c1 mirrors the
    beta range.  c2 is not a search axis: each probe polishes it onto the
    endpoint condition, and ``c2_bounds`` (default (0, 1), which brackets
    every tabulated operating point by a wide margin) bounds where that
    polish starts and how far its bracketed root reaches.  ``budget``
    counts probes, one per (beta, c1) pair.

    ``margin`` is the minimum accepted value of pi0/kappa(0), the share
    of the mismatch budget spent on the empty battery.  Minimizing the
    average distortion pushes solutions against the normalization
    boundary where that share hits zero and kappa(0) diverges; solves on
    either side of it are numerically indistinguishable at scan
    accuracy, so the search stays a fixed distance inside.  The cost is
    bounded by margin * d_max, far below the tolerance at the default.
    """

    beta_bounds: Optional[Tuple[float, float]] = None
    c1_bounds: Optional[Tuple[float, float]] = None
    c2_bounds: Tuple[float, float] = (0.0, 1.0)
    budget: int = 2000
    seed: int = 0
    margin: float = 1e-3

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if not 0.0 <= self.margin < 1.0:
            raise ValueError(f"margin must be in [0, 1), got {self.margin}")
        for name in ("beta_bounds", "c1_bounds", "c2_bounds"):
            b = getattr(self, name)
            if b is not None and not b[0] < b[1]:
                raise ValueError(f"{name} must be an increasing pair, got {b}")

    def resolved_bounds(self, src: SourceModel):
        lo, hi = beta_range(src)
        width = hi - lo
        beta_b = self.beta_bounds or (lo + 0.01 * width, hi - 0.01 * width)
        if not (lo < beta_b[0] < beta_b[1] < hi):
            raise ValueError(
                f"beta_bounds {beta_b} must sit strictly inside {(lo, hi)}"
            )
        c1_b = self.c1_bounds or (lo, 0.0)
        return beta_b, c1_b, self.c2_bounds


@dataclass(frozen=True)
class TuneResult:
    """Outcome of tuning a policy's constants at one operating point.

    ``constants`` (adaptive policy, c2 already polished onto the
    stationarity manifold) and ``c`` (constant-mismatch policy) are the
    certified values, as on :class:`PolicySolution`; the other one is
    ``None``.  ``evaluations`` counts objective probes and
    ``infeasible_evals`` how many of them failed to produce a usable
    policy.  A search where nothing was feasible reports ``d_avg`` of
    infinity and no solution or constants.
    """

    constants: Optional[VariationalConstants]
    c: Optional[float]
    d_avg: float
    solution: Optional[PolicySolution]
    evaluations: int
    infeasible_evals: int

    @property
    def feasible(self) -> bool:
        return self.solution is not None and self.solution.feasible


@dataclass(frozen=True)
class SweepResult:
    """Tuned distortions and the converse bound across battery capacities."""

    capacities: Tuple[float, ...]
    adaptive: Tuple[TuneResult, ...]
    constant_kappa: Tuple[TuneResult, ...]
    d_lb: Tuple[float, ...]

    def rows(self):
        """Yield (capacity, adaptive D_avg, constant-kappa D_avg, bound)."""
        for cap, a, k, lb in zip(
            self.capacities, self.adaptive, self.constant_kappa, self.d_lb
        ):
            yield cap, a.d_avg, k.d_avg, lb


class _Budget:
    # mutable evaluation counter shared by the phases of one search
    def __init__(self, total: int):
        self.left = total
        self.spent = 0
        self.infeasible = 0

    def take(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        self.spent += 1
        return True


def _certified(candidates, solve, accept, budget: _Budget) -> TuneResult:
    # the first candidate whose full-accuracy re-solve is accepted
    for point in candidates:
        sol = solve(point)
        if accept(sol):
            return TuneResult(sol.constants, sol.c, sol.d_avg, sol,
                              budget.spent, budget.infeasible)
    return TuneResult(None, None, math.inf, None, budget.spent, budget.infeasible)


def _adaptive_probe(problem: Problem, spec: SearchSpec, grid: Grid, budget: _Budget,
                    history):
    """Objective over (beta, c1): a cheap solve with c2 polished onto the manifold.

    Each probe starts its polish from the c2 of the nearest earlier probe
    whose polish converged (distances measured in units of the search
    box), or from the middle of the c2 bounds before any has.  Feasible
    probes inside the margin go to ``history`` as (d_avg, (beta, c1, c2)).
    """
    src, ch = problem.src, problem.ch
    lo, hi = beta_range(src)
    beta_b, c1_b, c2_bounds = spec.resolved_bounds(src)
    scale = (beta_b[1] - beta_b[0], c1_b[1] - c1_b[0])
    converged = []  # (beta, c1, polished c2)

    def start_c2(beta, c1):
        if not converged:
            return 0.5 * (c2_bounds[0] + c2_bounds[1])
        nearest = min(
            converged,
            key=lambda q: ((q[0] - beta) / scale[0]) ** 2 + ((q[1] - c1) / scale[1]) ** 2,
        )
        return nearest[2]

    def evaluate(point) -> float:
        beta, c1 = point
        if not lo < beta < hi:
            return math.inf
        if not budget.take():
            return math.inf
        sol = solve_adaptive(
            src, ch, problem.arrivals, problem.leak,
            problem.capacity, problem.p0plus,
            VariationalConstants(beta, c1, start_c2(beta, c1)),
            grid=grid, refine_c2=True, c2_bounds=c2_bounds,
            atol=_SCAN_ATOL, rtol=_SCAN_RTOL,
        )
        if sol.grid is None:
            budget.infeasible += 1
            return math.inf
        converged.append((beta, c1, sol.constants.c2))
        # pi0/kappa0 by the average-distortion identity, which also holds
        # past the normalization boundary, where kappa0 does not exist
        gain = src.d_max - sol.d_beta
        share = (sol.d_avg - sol.d_beta) / gain
        if share < spec.margin:
            budget.infeasible += 1
            # mirrored at the margin: falling short of it by x scores as
            # exceeding it by x would, so the simplex is drawn back to
            # the boundary the optimum sits on instead of walled off
            return 2.0 * (sol.d_beta + spec.margin * gain) - sol.d_avg
        if not sol.feasible:
            budget.infeasible += 1
            return math.inf
        history.append((sol.d_avg, (beta, c1, sol.constants.c2)))
        return sol.d_avg

    return evaluate


def _nelder_mead(evaluate, start_points, budget: _Budget):
    # deterministic simplex descent; start_points is a (dim+1)-vertex
    # simplex.  Returns the last simplex and its values, best first when
    # a stop rule ended the descent
    simplex = [list(p) for p in start_points]
    values = [evaluate(p) for p in simplex]
    dim = len(simplex) - 1

    for _ in range(10 * (budget.left + 1)):
        if budget.left <= 0:
            break
        order = sorted(range(len(simplex)), key=lambda i: (values[i], i))
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        spread = values[-1] - values[0]
        size = max(
            abs(simplex[i][j] - simplex[0][j])
            for i in range(1, dim + 1)
            for j in range(dim)
        )
        agreed = math.isfinite(spread) and spread <= _SIMPLEX_RTOL * abs(values[0])
        if agreed or size < 1e-8:
            break

        centroid = [
            sum(simplex[i][j] for i in range(dim)) / dim for j in range(dim)
        ]
        worst = simplex[-1]
        reflect = [centroid[j] + (centroid[j] - worst[j]) for j in range(dim)]
        f_r = evaluate(reflect)

        if f_r < values[0]:
            expand = [centroid[j] + 2.0 * (centroid[j] - worst[j]) for j in range(dim)]
            f_e = evaluate(expand)
            if f_e < f_r:
                simplex[-1], values[-1] = expand, f_e
            else:
                simplex[-1], values[-1] = reflect, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflect, f_r
        else:
            contract = [centroid[j] + 0.5 * (worst[j] - centroid[j]) for j in range(dim)]
            f_c = evaluate(contract)
            if f_c < values[-1]:
                simplex[-1], values[-1] = contract, f_c
            else:
                # shrink toward the best vertex
                for i in range(1, dim + 1):
                    simplex[i] = [
                        simplex[0][j] + 0.5 * (simplex[i][j] - simplex[0][j])
                        for j in range(dim)
                    ]
                    values[i] = evaluate(simplex[i])
    return simplex, values


def tune_constants(problem: Problem, spec: SearchSpec = SearchSpec()) -> TuneResult:
    """Find constants minimizing the adaptive policy's average distortion.

    c2 is not searched: the endpoint condition at z = capacity fixes it
    for each (beta, c1), and every probe polishes it there.  The search
    runs a coarse scan over the (beta, c1) box (cell centers, up to 8 per
    axis, lightly jittered by the seed so distinct seeds explore
    distinct lattices), then refines around the best cell with a
    Nelder--Mead simplex over (beta, c1), which stops once its values
    agree to 1e-6 relative or its size falls below 1e-8.  Every probe is
    a cheap certified solve whose polish starts from the c2 of the
    nearest probe that converged; a probe short of ``spec.margin``
    scores the mirror image of its average distortion at the margin.
    The incumbent is re-solved at full accuracy before being returned,
    so the reported solution carries a quadrature-noise stationarity
    residual and exact normalizations.  Deterministic for a fixed seed
    and budget.
    """
    beta_b, c1_b, c2_b = spec.resolved_bounds(problem.src)
    budget = _Budget(spec.budget)
    grid = Grid.graded(problem.capacity, n=_SCAN_GRID_N)
    history = []
    evaluate = _adaptive_probe(problem, spec, grid, budget, history)
    rng = seeded_rng(spec.seed)

    # --- coarse scan over cell centers -------------------------------
    n_dim = max(1, min(8, round(math.sqrt(spec.budget / 2))))
    bounds = (beta_b, c1_b)
    axes = []
    for (lo, hi) in bounds:
        cell = (hi - lo) / n_dim
        jitter = (rng.uniform() - 0.5) * 0.2 * cell
        axes.append([lo + (i + 0.5) * cell + jitter for i in range(n_dim)])
    for beta in axes[0]:
        for c1 in axes[1]:
            if budget.left <= 0:
                break
            evaluate((beta, c1))

    # --- simplex refinement around the best cell ----------------------
    if history and budget.left > 0:
        _, (beta, c1, _) = min(history)
        steps = [0.5 * (hi - lo) / n_dim for (lo, hi) in bounds]
        start = [[beta, c1], [beta + steps[0], c1], [beta, c1 + steps[1]]]
        _nelder_mead(evaluate, start, budget)

    # --- full-accuracy certification ----------------------------------
    # accept at half the scan margin: scan-grid and full-grid solves of
    # the same constants differ in pi0/kappa0 by far less than that
    history.sort()
    return _certified(
        [point for _, point in history[:20]],
        lambda point: solve_adaptive(
            problem.src, problem.ch, problem.arrivals, problem.leak,
            problem.capacity, problem.p0plus,
            VariationalConstants(*point), refine_c2=True, c2_bounds=c2_b,
        ),
        lambda sol: sol.feasible and sol.pi0 / sol.kappa0 >= 0.5 * spec.margin,
        budget,
    )


def tune_constant_kappa(
    problem: Problem,
    c_bounds: Optional[Tuple[float, float]] = None,
    budget: int = 240,
) -> TuneResult:
    """Find the constant C minimizing the constant-mismatch distortion.

    The admissible region is C below -lam * D~(delta/lam): at that value
    the power policy freezes at the mean-harvest fixed point and above it
    the power would have to fall, which the drift equation rules out.
    Steeper constants blow the power up before ever larger capacities,
    so the surviving window hugs the fixed-point value from below and
    shrinks as the capacity grows; the coarse scan therefore spaces its
    probes geometrically in the offset from that value, then
    golden-section narrows the best bracket down to a width of
    1e-7 * max(1, |C|) and the winner is re-solved at full accuracy.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    arr = problem.arrivals
    mean_p = arr.delta / arr.lam
    c_star = -arr.lam * distortion(problem.src, problem.ch, mean_p, 1.0)
    edge = c_star - 1e-9 * max(1.0, abs(c_star))
    if c_bounds is None:
        c_bounds = (c_star - 2.0, edge)
    lo, hi = c_bounds
    hi = min(hi, edge)
    if not lo < hi:
        raise ValueError(
            f"c_bounds {c_bounds} leave nothing below the fixed-point value {c_star}"
        )

    budget_box = _Budget(budget)
    grid = Grid.graded(problem.capacity, n=_SCAN_GRID_N)

    cache = {}

    def evaluate(c: float) -> float:
        if c in cache:
            return cache[c]
        if not budget_box.take():
            return math.inf
        sol = solve_constant_kappa(
            problem.src, problem.ch, arr, problem.leak,
            problem.capacity, problem.p0plus, c=c,
            grid=grid, atol=_SCAN_ATOL, rtol=_SCAN_RTOL,
        )
        value = sol.d_avg if sol.feasible else math.inf
        if not sol.feasible:
            budget_box.infeasible += 1
        cache[c] = value
        return value

    # geometric offsets below the fixed-point value, largest first so the
    # points come out in increasing C order
    m = max(2, min(budget // 2, 33))
    off_hi = c_star - lo
    off_lo = c_star - hi
    ratio = (off_lo / off_hi) ** (1.0 / (m - 1))
    points = [c_star - off_hi * ratio**i for i in range(m)]
    values = [evaluate(c) for c in points]
    best_i = min(range(m), key=lambda i: (values[i], i))

    best_v = values[best_i]
    if math.isfinite(best_v) and budget_box.left > 0:
        a = points[max(best_i - 1, 0)]
        b = points[min(best_i + 1, m - 1)]
        # golden-section polish inside the bracketing cells
        x1 = b - _INVPHI * (b - a)
        x2 = a + _INVPHI * (b - a)
        f1, f2 = evaluate(x1), evaluate(x2)
        while budget_box.left > 0 and (b - a) > _GOLDEN_RTOL * max(1.0, abs(a)):
            if f1 <= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - _INVPHI * (b - a)
                f1 = evaluate(x1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + _INVPHI * (b - a)
                f2 = evaluate(x2)

    ranked = sorted(cache, key=lambda c: (cache[c], c)) if math.isfinite(best_v) else []
    return _certified(
        ranked[:5],
        lambda c: solve_constant_kappa(
            problem.src, problem.ch, arr, problem.leak,
            problem.capacity, problem.p0plus, c=c,
        ),
        lambda sol: sol.feasible,
        budget_box,
    )


def capacity_sweep(
    problem: Problem,
    capacities: Sequence[float],
    spec: SearchSpec = SearchSpec(),
    kappa_budget: int = 240,
) -> SweepResult:
    """Tune both policies at each capacity and attach the converse bound.

    Capacities are swept independently (the problem is re-posed at each
    one), so repeated values produce identical rows.
    """
    if len(capacities) == 0:
        raise ValueError("capacities must be non-empty")
    if any(not (math.isfinite(L) and L > 0.0) for L in capacities):
        raise ValueError("capacities must be finite and positive")

    adaptive = []
    constant = []
    bounds = []
    for L in capacities:
        sub = replace(problem, capacity=float(L))
        adaptive.append(tune_constants(sub, spec))
        constant.append(tune_constant_kappa(sub, budget=kappa_budget))
        bounds.append(
            lower_bound(problem.src, problem.ch, problem.arrivals, float(L))
        )
    return SweepResult(
        capacities=tuple(float(L) for L in capacities),
        adaptive=tuple(adaptive),
        constant_kappa=tuple(constant),
        d_lb=tuple(bounds),
    )
