"""Tuning of policy constants and capacity sweeps.

The free constants of the variational system are not given by any formula;
they have to be found numerically for each operating point.  This module
wraps the policy solvers in a budgeted, deterministic search.  For the
adaptive policy only beta is searched: the endpoint condition fixes c2
for each (beta, c1), every probe's solve finds it as one root in the end
power p(L), and c1 sits just below the closed-form edge where the
denominator of the policy ODE changes sign at p0plus, which is where
the tuned optimum lies.  That leaves a bracketed root in beta, found by
:func:`~ehjscc.numerics.find_root` (Brent-Dekker).  The single constant
C of the constant-mismatch policy is found by one Brent minimization,
:func:`~ehjscc.numerics.find_minimum`, over its whole box.  A capacity
sweep ties both tuners and the converse bound together into one table,
which is what the plotting and CLI layers consume.

Every probe is a full solve, its law integrated on its own path's
panels (see :class:`~ehjscc.numerics.Grid`), and the result is the best usable probe's own solution: no point is
re-solved.  Probes are not audited, since a search reads only their
feasibility, d_avg and pi0/kappa0: the adaptive tuner solves them with
``residual=False`` and computes the stationarity residual of the one
solution it returns.  A search with no solution says why in its
result's ``reason``.
The root in beta stops once its bracket is narrower than
1e-7 * max(1, |beta|), the minimization once its bracket is narrower
than 1e-7 * max(1, |C|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

# the returned solution's audit is looked up as policy.optimality_residual,
# where benchmarks/tracer.py wraps it
from . import policy
from .distortion import distortion, lower_bound
from .models import (
    ArrivalModel,
    AwgnChannel,
    LeakageModel,
    SourceModel,
    ZeroLeakage,
)
from .numerics import find_minimum, find_root
from .policy import (
    PolicySolution,
    VariationalConstants,
    beta_range,
    c1_edge,
    check_battery,
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

# the root in beta and the minimization in C stop at this width relative
# to max(1, |beta|) and max(1, |C|).  On the published rows the tuned
# d_avg is then within 6e-7 relative of a root found to 1e-11 (one or two
# probes more), which bounds its accuracy: the law's panels are within
# 1e-12 of a 32k-node solve
_BETA_RTOL = 1e-7
_C_RTOL = 1e-7
# adaptive probes set c1 this far below c1_edge(beta).  With zero leakage
# d_avg is flat next to the edge (within 2e-5 relative over [edge - 2e-3,
# edge] at Gaussian L=5), but with rising leakage the tuned c1 lies within
# 1.3e-5 of it, and an offset of 5e-4 costs up to 1.3e-3 relative
_EDGE_OFFSET = 1e-5


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
        check_battery(self.capacity, self.p0plus)


@dataclass(frozen=True)
class SearchSpec:
    """Search box and budget for tuning the adaptive constants.

    ``beta_bounds`` is the box that brackets the root; ``None`` takes the
    middle 98% of beta's admissible range (the endpoints are singular).
    c1 and c2 are not search axes: c1 sits at the closed-form edge, and
    each probe's solve fixes c2 by the endpoint condition, a root that
    depends on (beta, c1) alone.  ``budget`` counts probes, one per
    beta; the root takes 11 or 12.  ``seed`` steers nothing, since the
    search draws no random numbers; it is kept only because the
    benchmark harness in ``benchmarks/`` passes one.

    ``margin`` is the minimum accepted value of pi0/kappa(0), the share
    of the mismatch budget spent on the empty battery.  Minimizing the
    average distortion pushes solutions against the normalization
    boundary where that share hits zero and kappa(0) diverges, so the
    search stays a fixed distance inside.  The law's quadrature error of
    ~1e-12 relative in d_avg moves the share by ~1e-12, far below the
    default margin, so a probe tells the two sides apart.  The
    cost is bounded by margin * d_max, far below the tolerance at the
    default.
    """

    beta_bounds: Optional[Tuple[float, float]] = None
    budget: int = 2000
    seed: int = 0
    margin: float = 1e-3

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if not 0.0 <= self.margin < 1.0:
            raise ValueError(f"margin must be in [0, 1), got {self.margin}")
        b = self.beta_bounds
        if b is not None and not b[0] < b[1]:
            raise ValueError(f"beta_bounds must be an increasing pair, got {b}")

    def resolved_bounds(self, src: SourceModel):
        lo, hi = beta_range(src)
        width = hi - lo
        beta_b = self.beta_bounds or (lo + 0.01 * width, hi - 0.01 * width)
        if not (lo < beta_b[0] < beta_b[1] < hi):
            raise ValueError(
                f"beta_bounds {beta_b} must sit strictly inside {(lo, hi)}"
            )
        return beta_b


@dataclass(frozen=True)
class TuneResult:
    """Outcome of tuning a policy's constants at one operating point.

    ``solution`` is the best usable probe's own solve, and ``constants``
    (adaptive policy, c2 already polished onto the stationarity
    manifold), ``c`` (constant-mismatch policy) and ``d_avg`` are read
    off it; the one of ``constants`` and ``c`` that does not apply is
    ``None``.  ``evaluations`` counts objective probes and
    ``infeasible_evals`` how many of them failed to produce a usable
    policy.  A search where nothing was feasible has no solution, and
    reports ``d_avg`` of infinity, no constants and in ``reason`` why it
    has none; ``reason`` is empty when there is a solution.
    """

    solution: Optional[PolicySolution]
    evaluations: int
    infeasible_evals: int
    reason: str = ""

    @property
    def constants(self) -> Optional[VariationalConstants]:
        return None if self.solution is None else self.solution.constants

    @property
    def c(self) -> Optional[float]:
        return None if self.solution is None else self.solution.c

    @property
    def d_avg(self) -> float:
        return math.inf if self.solution is None else self.solution.d_avg

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


class _BudgetSpent(Exception):
    """A probe was asked for after the last one the budget allows."""


class _Probe:
    # outcome(x) -> (value, usable solution or None), memoized as a
    # search's objective: each new x takes one of ``total`` probes, and
    # one more raises _BudgetSpent.  The usable solution of least d_avg
    # is kept as ``best``
    def __init__(self, total: int, outcome):
        self.total = total
        self.outcome = outcome
        self.seen = {}
        self.infeasible = 0
        self.best = None

    def __call__(self, x: float) -> float:
        if x not in self.seen:
            if len(self.seen) >= self.total:
                raise _BudgetSpent
            self.seen[x], sol = self.outcome(x)
            if sol is None:
                self.infeasible += 1
            elif self.best is None or sol.d_avg < self.best.d_avg:
                self.best = sol
        return self.seen[x]

    def result(self, reason: str = "") -> TuneResult:
        # reason says why a search with no usable probe has no solution
        return TuneResult(self.best, len(self.seen), self.infeasible,
                          "" if self.best is not None else reason)


def _edge_probe(problem: Problem, spec: SearchSpec) -> _Probe:
    """The margin gap of the edge solve at beta, as a probe of ``spec.budget``.

    A probe sets c1 = c1_edge(beta) - _EDGE_OFFSET and solves with c2
    fixed by the endpoint condition, so its
    outcome depends on beta alone (the c2 passed in is ignored).  It
    returns the share pi0/kappa0 less ``spec.margin``, or -inf when the
    solve is unusable.
    A feasible solve with pi0/kappa0 at the margin or above is usable;
    the others count as infeasible.
    """
    src, ch = problem.src, problem.ch

    def gap(beta: float):
        c1 = c1_edge(src, ch, beta, problem.p0plus) - _EDGE_OFFSET
        sol = solve_adaptive(
            src, ch, problem.arrivals, problem.leak,
            problem.capacity, problem.p0plus,
            VariationalConstants(beta, c1, 0.0),
            refine_c2=True, residual=False,
        )
        if sol.grid is None:
            return -math.inf, None
        # pi0/kappa0 by the average-distortion identity, which also holds
        # past the normalization boundary, where kappa0 does not exist
        share = (sol.d_avg - sol.d_beta) / (src.d_max - sol.d_beta)
        # an underflowing pi0 can leave a solve infeasible at the margin
        usable = sol.feasible and sol.pi0 / sol.kappa0 >= spec.margin
        return share - spec.margin, (sol if usable else None)

    return _Probe(spec.budget, gap)


def tune_constants(problem: Problem, spec: SearchSpec = SearchSpec()) -> TuneResult:
    """Find constants minimizing the adaptive policy's average distortion.

    Only beta is searched.  c2 is fixed by the endpoint condition at
    z = capacity, and c1 by the edge where the denominator of F changes
    sign at p0plus: every probe sets c1 = c1_edge(beta) - 1e-5 and
    closes the endpoint condition in c2 (see :func:`_edge_probe`).  Along that curve the share
    pi0/kappa0 of the mismatch budget spent on the empty battery rises
    with beta, and d_avg = D_beta + share * (d_max - D_beta) is least
    where the share meets ``spec.margin``.  The search evaluates both
    ends of the beta box, then finds the root of share(beta) - margin
    with :func:`~ehjscc.numerics.find_root` down to a width of
    1e-7 * max(1, |hi|); a probe with no usable solve counts as -inf,
    short of the margin.  A box whose low end reaches the margin or
    whose high end falls short has no sign change and gives the
    infeasible result, as does a budget spent before both ends are
    known, and its ``reason`` says which; a budget spent inside the root
    stops it where it is.  The usable probe of least d_avg is returned
    as it was solved, with its normalizations exact.  Probes are solved
    without the stationarity audit, and the returned solution alone is
    audited: its ``optimality_residual``, at quadrature noise, is set
    here.  The search draws no random numbers, so ``spec.seed`` does
    not change the result.
    """
    lo, hi = spec.resolved_bounds(problem.src)
    gap = _edge_probe(problem, spec)

    bracketed = False
    try:
        # a sign change needs the low end short of the margin, the high end at it
        if not gap(lo) < 0.0:
            why = f"no sign change over the beta box: its low end {lo:.6g} meets the margin"
        elif not gap(hi) >= 0.0:
            why = f"no sign change over the beta box: its high end {hi:.6g} falls short of it"
        else:
            bracketed = True
            find_root(gap, lo, hi, tol=_BETA_RTOL * max(1.0, abs(hi)))
            why = "no probe of the root in beta had a usable solve"
    except _BudgetSpent:
        where = ("inside the root in beta" if bracketed
                 else "before it probed both ends of the beta box")
        why = f"the budget of {spec.budget} probes ran out {where}"
    if not bracketed:
        gap.best = None
    elif gap.best is not None:
        # the probes were not audited; the solution returned is
        sol = gap.best
        object.__setattr__(sol, "optimality_residual", policy.optimality_residual(
            problem.src, problem.ch, problem.arrivals, sol))
    return gap.result(why)


def tune_constant_kappa(problem: Problem, budget: int = 240) -> TuneResult:
    """Find the constant C minimizing the constant-mismatch distortion.

    The admissible region is C below c* = -lam * D~(delta/lam): at c*
    the power policy freezes at the mean-harvest fixed point and above it
    the power would have to fall, which the drift equation rules out.
    Steeper constants blow the power up before ever larger capacities,
    so the feasible window hugs c* from below, shrinks as the capacity
    grows and holds one minimum of d_avg, often on its lower edge.  The
    box of C runs from c* - 2 up to 1e-9 * max(1, |c*|) below c*.  One
    Brent minimization over it in t = -ln(c* - C), with infeasible
    probes at +inf below the window, stops once the bracket is narrower
    in C than 1e-7 * max(1, |C|); the feasible probe of least d_avg is
    returned as it was solved.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    arr = problem.arrivals
    c_star = -arr.lam * distortion(problem.src, problem.ch, arr.delta / arr.lam, 1.0)
    lo, hi = c_star - 2.0, c_star - 1e-9 * max(1.0, abs(c_star))
    if not lo < hi:
        raise ValueError(f"the box of C ({lo}, {hi}) below the fixed-point value {c_star} is empty")

    def outcome(t: float):
        sol = solve_constant_kappa(
            problem.src, problem.ch, arr, problem.leak,
            problem.capacity, problem.p0plus, c=c_star - math.exp(-t),
        )
        return (sol.d_avg, sol) if sol.feasible else (math.inf, None)

    def width(t: float) -> float:
        # a side of length ln(1 + h * e^t) spans h in C below t and less
        # above it, so at sides of half this width the bracket spans at
        # most _C_RTOL * max(1, |C|) in C
        h = 0.5 * _C_RTOL * max(1.0, abs(c_star - math.exp(-t)))
        return 2.0 * math.log1p(h * math.exp(t))

    d_avg = _Probe(budget, outcome)
    try:
        find_minimum(d_avg, -math.log(c_star - lo), -math.log(c_star - hi), width)
        why = "no probe in the box of C had a feasible solve"
    except _BudgetSpent:
        why = f"the budget of {budget} probes ran out before a feasible one"
    return d_avg.result(why)


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
    # pose every problem, which checks its battery, before any work
    subs = [replace(problem, capacity=float(L)) for L in capacities]
    adaptive = []
    constant = []
    bounds = []
    for sub in subs:
        adaptive.append(tune_constants(sub, spec))
        constant.append(tune_constant_kappa(sub, budget=kappa_budget))
        bounds.append(
            lower_bound(problem.src, problem.ch, problem.arrivals, sub.capacity)
        )
    return SweepResult(
        capacities=tuple(sub.capacity for sub in subs),
        adaptive=tuple(adaptive),
        constant_kappa=tuple(constant),
        d_lb=tuple(bounds),
    )
