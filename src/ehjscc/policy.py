"""Charge-adaptive and constant-mismatch transmission policies.

The locally optimal charge-adaptive policy keeps the instantaneous
distortion at a constant level D_beta for every positive battery charge;
the level is pinned down by a scalar constant ``beta`` through

    beta = R_s(D) / R_s'(D) - D,

a strictly decreasing map of D, so each admissible beta names exactly one
distortion level.  Substituting the induced mismatch
kappa(z) = R_s(D_beta)/R_c(p(z)) into the stationarity condition of the
average-distortion functional collapses it to a first-order autonomous
ODE for the power profile p(z), with two further free constants c1, c2.
This module builds that ODE, solves it, reconstructs the stationary
charge law (density, atom at zero, mismatch at zero), and audits the
result against the original integro-differential stationarity condition.

Both policy ODEs here are autonomous, p' = F(p), with F evaluated on
whole arrays of powers: the solvers hand F to
:func:`~ehjscc.numerics.integrate_autonomous`, which integrates
z(p) = Int dq / F(q) by quadrature and inverts it at the grid nodes.  The
c2 polish re-solves only the endpoint power per trial, each trial seeded
with the previous trial's panels.  Every way F can fail on the path
(p running to 0 or escaping, |F| above 1e9, a vanishing denominator, p
leaving the model's domain) comes back as an infeasible outcome whose
message says near which z.

The constant-mismatch (kappa = 1) policy family and the constant-power
scheme for unbounded storage are provided for comparison, as both are
used to sandwich the adaptive policy between bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .distortion import distortion
from .models import ArrivalModel, AwgnChannel, LeakageModel, SourceModel
from .numerics import (
    Grid,
    RootBracket,
    SingularityError,
    cumulative_integral,
    find_root,
    integrate_autonomous,
    integrate_ode,  # noqa: F401 -- looked up here by benchmarks/tracer.py
    lambert_w,
    quadrature,
)

__all__ = [
    "VariationalConstants",
    "PolicySolution",
    "beta_range",
    "beta_to_distortion",
    "gaussian_d_beta",
    "optimality_residual",
    "solve_adaptive",
    "solve_constant_kappa",
    "constant_power_scheme",
    "gaussian_kappa_closed_form",
]


@dataclass(frozen=True)
class VariationalConstants:
    """Free constants of the stationarity condition.

    ``beta`` selects the constant distortion level; ``c1`` and ``c2`` are
    the two integration constants of the underlying condition.  The
    constant-mismatch family uses the single combination
    ``lam * (c1 + c2)``, exposed via :meth:`constant_kappa_c`.
    """

    beta: float
    c1: float
    c2: float

    def __post_init__(self):
        for name in ("beta", "c1", "c2"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")

    def constant_kappa_c(self, lam: float) -> float:
        return lam * (self.c1 + self.c2)


@dataclass(frozen=True)
class PolicySolution:
    """A solved policy plus its stationary charge law.

    Arrays are aligned with ``grid.nodes``; they are locked read-only so a
    solution can be shared freely.  ``d_beta`` and ``optimality_residual``
    are ``None`` for constant-mismatch solutions (their instantaneous
    distortion varies with charge and they satisfy a different
    stationarity condition).  Infeasible outcomes keep ``feasible=False``,
    ``d_avg=inf`` and carry a diagnostic ``message``; their arrays may be
    empty.
    """

    kind: str                      # "adaptive" or "constant-kappa"
    grid: Optional[Grid]
    p: np.ndarray                  # power per node
    kappa: np.ndarray              # mismatch per node
    f: np.ndarray                  # stationary charge density per node
    pi0: float                     # probability atom at zero charge
    kappa0: float                  # mismatch prescribed at zero charge
    d_beta: Optional[float]        # constant distortion level (adaptive only)
    d_avg: float                   # stationary average distortion
    optimality_residual: Optional[float]
    feasible: bool
    p0plus: float
    constants: Optional[VariationalConstants] = None
    c: Optional[float] = None      # constant-mismatch free constant
    message: str = ""

    def __post_init__(self):
        for name in ("p", "kappa", "f"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _infeasible(kind, p0plus, message, *, d_beta=None, constants=None, c=None):
    empty = np.empty(0)
    return PolicySolution(
        kind=kind,
        grid=None,
        p=empty,
        kappa=empty.copy(),
        f=empty.copy(),
        pi0=math.nan,
        kappa0=math.nan,
        d_beta=d_beta,
        d_avg=math.inf,
        optimality_residual=None,
        feasible=False,
        p0plus=p0plus,
        constants=constants,
        c=c,
        message=message,
    )


# ---------------------------------------------------------------------------
# beta <-> distortion level
# ---------------------------------------------------------------------------

def beta_range(src: SourceModel) -> tuple[float, float]:
    """Open interval of admissible beta values: (-d_max, 0).

    Both endpoints come from the limits of R_s/R_s': the ratio vanishes
    at both ends of (0, d_max) for the Gaussian and Bernoulli curves, so
    beta = R_s/R_s' - D ranges over (-d_max, 0).
    """
    return (-src.d_max, 0.0)


def beta_to_distortion(src: SourceModel, beta: float) -> float:
    """The unique D in (0, d_max) with R_s(D)/R_s'(D) - D = beta.

    The left side is strictly decreasing in D, so bisection is exact
    business; betas pinned against the edges of the admissible range may
    have no representable root (the Bernoulli map flattens only
    logarithmically near D = 0) and raise ValueError.
    """
    lo_b, hi_b = beta_range(src)
    if not lo_b < beta < hi_b:
        raise ValueError(f"beta must be in ({lo_b}, {hi_b}), got {beta}")

    def g(d):
        r = src.rate(d)
        s = src.rate_derivatives(d)[0]
        return r / s - d - beta

    bracket = RootBracket(1e-150, src.d_max * (1.0 - 1e-12), tol=1e-16 * src.d_max)
    try:
        return find_root(g, bracket)
    except ValueError as exc:
        raise ValueError(
            f"no representable distortion level for beta={beta}: {exc}"
        ) from None


def gaussian_d_beta(variance: float, beta: float) -> float:
    """Closed form for the Gaussian distortion level.

    D = variance * exp(W_{-1}(beta/(variance*e)) + 1), the lower real
    branch being the only one landing inside (0, variance).  Kept as an
    independent path against the generic bisection.
    """
    if not -variance < beta < 0.0:
        raise ValueError(f"beta must be in (-{variance}, 0), got {beta}")
    w = lambert_w(-1, beta / (variance * math.e))
    return variance * math.exp(w + 1.0)


def gaussian_kappa_closed_form(variance, noise, beta, p):
    """Mismatch at power p (scalar or array) for a Gaussian source.

    kappa = -(W_{-1}(beta/(variance*e)) + 1) / ln(1 + p/noise); identical
    to R_s(D_beta)/R_c(p), and decreasing in p at fixed beta.
    """
    if not -variance < beta < 0.0:
        raise ValueError(f"beta must be in (-{variance}, 0), got {beta}")
    if not np.all(np.asarray(p) > 0.0):
        raise ValueError("power must be > 0")
    w = lambert_w(-1, beta / (variance * math.e))
    out = -(w + 1.0) / np.log1p(np.asarray(p, dtype=float) / noise)
    return float(out) if np.ndim(p) == 0 else out


# ---------------------------------------------------------------------------
# the charge-adaptive ODE
# ---------------------------------------------------------------------------

def _adaptive_terms(ch, arrivals, c1, d_beta, r_beta, slope):
    """Parts of the right-hand side F with p'(z) = F(p(z)) for the adaptive policy.

    Derivation: with the distortion pinned at D_beta, the mismatch is
    kappa = R_beta/R_c(p) (R_beta := R_s(D_beta)); substituting into the
    stationarity condition, multiplying through by exp(-lam z) R_c(p) /
    R_beta and differentiating in z eliminates the integral term and
    leaves a first-order autonomous ODE.  With S := R_s'(D_beta):

        F(p) = [ delta*(R_beta/S)*Rc' + lam*(D_beta+c1)*Rc
                 - lam*(R_beta/S)*p*Rc' + lam*c2*R_beta ]
               / [ (D_beta+c1)*Rc' - (R_beta/S)*(p*Rc'' + Rc') ]

    The returned function maps an array of powers to (base, den) with
    F = (base + lam*c2*R_beta) / den: c2 enters the numerator alone, so
    F is affine in c2.  The formula is never trusted on its own: every
    accepted solution is audited by :func:`optimality_residual` against
    the original condition.
    """
    delta, lam = arrivals.delta, arrivals.lam
    ratio = r_beta / slope

    def terms(p: np.ndarray):
        rc = ch.rate(p)
        rc1, rc2 = ch.rate_derivatives(p)
        den = (d_beta + c1) * rc1 - ratio * (p * rc2 + rc1)
        base = delta * ratio * rc1 + lam * (d_beta + c1) * rc - lam * ratio * p * rc1
        return base, den

    return terms


def _adaptive_field(ch, arrivals, consts, d_beta, r_beta, slope):
    # F on an array of powers for a solved distortion level; +inf where
    # the denominator magnitude drops below 1e-12
    terms = _adaptive_terms(ch, arrivals, consts.c1, d_beta, r_beta, slope)
    shift = arrivals.lam * consts.c2 * r_beta

    def rhs(p: np.ndarray) -> np.ndarray:
        base, den = terms(p)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(np.abs(den) < 1e-12, np.inf, (base + shift) / den)

    return rhs


def _endpoint_gap(ch, consts, d_beta, r_beta, slope, p_end):
    # value of the stationarity condition at z = L, where the integral
    # term is empty: D_beta - (dD/dp)*p + c1 + c2*kappa(L)
    kap = r_beta / ch.rate(p_end)
    d_dp = kap * ch.rate_derivatives(p_end)[0] / slope
    return d_beta - d_dp * p_end + consts.c1 + consts.c2 * kap


def _logsumexp(a: np.ndarray) -> float:
    m = float(np.max(a))
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.sum(np.exp(a - m))))


def _stationary_law(nodes, weights, drain, drain0, delta, lam):
    """Log-space reconstruction of the stationary charge law.

    Returns (pi0, log_pi0, f, log_f_shape) where f is the normalized
    density on the nodes and log_f_shape the unnormalized log-density
    (the charge-0 value of the drain is supplied separately because the
    grid starts above 0).  pi0 underflows to 0 when the charge law
    piles up far from empty; log_pi0 stays finite.
    """
    ext_nodes = np.concatenate(([0.0], nodes))
    ext_integrand = np.concatenate(([delta / drain0], delta / drain))
    cum = cumulative_integral(ext_nodes, ext_integrand)[1:]
    log_shape = math.log(delta) - lam * nodes - np.log(drain) + cum
    log_q = _logsumexp(log_shape + np.log(weights))
    log_pi0 = -np.logaddexp(0.0, log_q)
    pi0 = float(math.exp(log_pi0))
    f = np.exp(log_pi0 + log_shape)
    return pi0, float(log_pi0), f, log_shape


def _battery_grid(capacity, p0plus, grid):
    # both solvers check the battery before any work
    if not (math.isfinite(capacity) and capacity > 0.0):
        raise ValueError(f"capacity must be finite and positive, got {capacity}")
    if not p0plus > 0.0:
        raise ValueError(f"p0plus must be positive, got {p0plus}")
    return Grid.graded(capacity) if grid is None else grid


def _law_on_grid(kind, path, grid, arrivals, leak, p0plus, **tags):
    # p on the grid from the trajectory path() plus the output of
    # _stationary_law, or the infeasible outcome carrying tags if the
    # trajectory turns singular before the last node
    try:
        p = path().p_at(grid.nodes)
    except SingularityError as exc:
        return _infeasible(
            kind, p0plus, f"ODE singular near z={exc.z:.6g}: {exc.message}", **tags
        )
    drain = p + np.asarray(leak.rate(grid.nodes), dtype=float)
    drain0 = p0plus + float(leak.rate(0.0))
    return (p,) + _stationary_law(
        grid.nodes, grid.weights, drain, drain0, arrivals.delta, arrivals.lam
    )


def optimality_residual(
    src: SourceModel,
    ch: AwgnChannel,
    arrivals: ArrivalModel,
    solution: PolicySolution,
    consts: Optional[VariationalConstants] = None,
) -> float:
    """Max |residual| of the stationarity condition over the solved grid.

    For each node z the condition reads

        delta*e^{lam z}*kappa(z) * Int_z^L (dD/dp)(u) e^{-lam u}/kappa(u) du
          + D_beta - (dD/dp)(z)*p(z) + c1 + c2*kappa(z)  =  0,

    with dD/dp = kappa*Rc'(p)/R_s'(D_beta) by implicit differentiation of
    R_s(D) = kappa*R_c(p).  The integrand then simplifies to
    Rc'(p(u)) e^{-lam u}/R_s'(D_beta), evaluated by high-order cumulative
    quadrature on the solution's own grid.
    """
    if consts is None:
        consts = solution.constants
    if consts is None:
        raise ValueError("no constants attached to this solution")
    if solution.grid is None or solution.d_beta is None:
        raise ValueError("optimality residual needs a solved adaptive policy")
    return float(np.max(np.abs(_residual_profile(src, ch, arrivals, solution, consts))))


def _residual_profile(src, ch, arrivals, solution, consts) -> np.ndarray:
    nodes = solution.grid.nodes
    p, kappa = solution.p, solution.kappa
    d_beta = solution.d_beta
    slope = src.rate_derivatives(d_beta)[0]
    delta, lam = arrivals.delta, arrivals.lam

    rc1 = ch.rate_derivatives(p)[0]
    integrand = rc1 * np.exp(-lam * nodes) / slope
    cum = cumulative_integral(nodes, integrand)
    tail = cum[-1] - cum          # integral from z to L
    d_dp = kappa * rc1 / slope
    return (
        delta * np.exp(lam * nodes) * kappa * tail
        + d_beta
        - d_dp * p
        + consts.c1
        + consts.c2 * kappa
    )


# the c2 polish stops once the endpoint gap is this small
_C2_TOL = 1e-9
# secant trials of the c2 polish before the bracketed root takes over;
# every published row converges within 8
_SECANT_TRIALS = 10
# bracketed trials: enough to halve a unit bracket down to rounding
_BRACKET_TRIALS = 60
# offset from c2_zero, relative to max(1, |c2_zero|), of the second
# start a bounded polish tries after a singular first one
_NEAR_ZERO = 1e-6
# largest first move of c2, from the start and from c2_zero
_FIRST_STEP = 0.05


def _polish_c2(endpoint, c2, c2_zero, side, p0, t_max):
    """c2 whose trajectory closes the endpoint gap, or None if none is found.

    ``endpoint(c2)`` integrates and returns (gap, kappa(L)), raising
    :class:`SingularityError` on a singular path; ``endpoint(c2, p)``
    takes p(L) = p instead.  A singular start is passed on to the caller.
    The first trials are a secant from the start, whose first move uses
    the explicit dependence (the gap rises by kappa(L) per unit c2).  If
    it has not converged after _SECANT_TRIALS trials, meets a singular
    trial or stalls, :func:`_bracketed_c2` takes over.
    """
    gap, kap_end = endpoint(c2)
    prev_c2, prev_gap = c2, gap
    trials = [(c2, gap, True)]
    step = -gap / kap_end
    step = math.copysign(min(abs(step), _FIRST_STEP), step)
    c2 = c2 + step
    for _ in range(_SECANT_TRIALS):
        if abs(prev_gap) <= _C2_TOL:
            return prev_c2
        try:
            gap, _ = endpoint(c2)
        except SingularityError as exc:
            trials.append((c2, exc.state, False))
            break
        if abs(gap) <= _C2_TOL:
            return c2
        trials.append((c2, gap, True))
        if gap == prev_gap:
            break
        c2, prev_c2, prev_gap = (
            c2 - gap * (c2 - prev_c2) / (gap - prev_gap),
            c2,
            gap,
        )
    return _bracketed_c2(endpoint, trials, c2_zero, side, p0, t_max)


def _bracketed_c2(endpoint, trials, c2_zero, side, p0, t_max):
    """Root of the endpoint gap on the side of c2_zero where the state rises.

    Works in the offset t = side * (c2 - c2_zero) > 0.  The state at
    z = L grows with t, from p0 at t = 0 (the constant path, whose gap is
    known without integrating) until the path blows up before z = L; so
    a singular trial lies past the root, and its gap taken at the state
    where it stopped (NaN if unknown) continues the gap beyond that edge.
    ``trials`` holds the trials made so far as (c2, gap, True) and, for
    singular ones, (c2, state where it stopped, False); those with t <= 0
    tell nothing here.  The lower end keeps the sign of the gap at t = 0;
    the upper end, once found, has the other sign or is singular.  A far
    end whose gap keeps the sign of t = 0 leaves no root before the edge,
    and so does reaching ``t_max`` without a sign change.  Bisection
    while the lower end is t = 0 (its gap is large) or the upper end
    singular, the Illinois variant of regula falsi otherwise (bisection
    alone took 13-32% more integrations in a tune).
    """
    gap_zero = endpoint(c2_zero, p0)[0]
    positive = gap_zero > 0.0
    lo_t, lo_gap = 0.0, gap_zero
    hi_t, hi_gap, hi_ok = math.inf, math.nan, False

    def place(c2, value, admissible):
        nonlocal lo_t, lo_gap, hi_t, hi_gap, hi_ok
        t = side * (c2 - c2_zero)
        if not t > 0.0:
            return None
        gap = value if admissible else endpoint(c2, value)[0]
        if admissible and (gap > 0.0) == positive:
            if lo_t < t < hi_t:
                lo_t, lo_gap = t, gap
                return "lo"
        elif t < hi_t:
            hi_t, hi_gap, hi_ok = t, gap, admissible
            return "hi"
        return None

    for trial in trials:
        place(*trial)
    last_moved = None  # the end the last trial replaced, for Illinois
    for _ in range(_BRACKET_TRIALS):
        if math.isinf(hi_t):
            if lo_t >= t_max:
                return None
            t = min(t_max, max(2.0 * lo_t, _FIRST_STEP))
        elif not math.isnan(hi_gap) and (hi_gap > 0.0) == positive:
            return None
        else:
            t = 0.5 * (lo_t + hi_t)
            if lo_t > 0.0 and hi_ok:
                falsi = lo_t + (hi_t - lo_t) * lo_gap / (lo_gap - hi_gap)
                if lo_t < falsi < hi_t:
                    t = falsi
        c2 = c2_zero + side * t
        if c2 == c2_zero + side * lo_t or c2 == c2_zero + side * hi_t:
            return None  # the bracket has shrunk to rounding
        try:
            gap, _ = endpoint(c2)
        except SingularityError as exc:
            moved = place(c2, exc.state, False)
        else:
            if abs(gap) <= _C2_TOL:
                return c2
            moved = place(c2, gap, True)
        if moved is not None and moved == last_moved:
            # the same end moved twice: halve the other end's gap
            if moved == "lo":
                hi_gap *= 0.5
            else:
                lo_gap *= 0.5
        last_moved = moved
    return None


def solve_adaptive(
    src: SourceModel,
    ch: AwgnChannel,
    arrivals: ArrivalModel,
    leak: LeakageModel,
    capacity: float,
    p0plus: float,
    consts: VariationalConstants,
    *,
    grid: Optional[Grid] = None,
    refine_c2: bool = False,
    c2_bounds: Optional[tuple[float, float]] = None,
    atol: float = 1e-13,
    rtol: float = 1e-12,
) -> PolicySolution:
    """Solve the charge-adaptive policy and its stationary charge law.

    Solves the reduced ODE from (0+, p0plus) to the battery capacity by
    quadrature (``atol``/``rtol`` set its error target), reconstructs
    kappa(z) = R_s(D_beta)/R_c(p(z)), the stationary density f, the atom
    pi0, the empty-battery mismatch kappa0 and the average distortion.
    Constants that drive the ODE into a singularity come back as an
    infeasible outcome with infinite average distortion, not an
    exception.  Constants whose charge law over-subscribes the
    mismatch normalization (int f/kappa >= 1, so no positive kappa0 can
    close it) are also flagged infeasible, but the average distortion is
    still reported: it depends only on the mismatch split and stays
    continuous through the boundary, which is exactly what one wants
    when auditing constants that sit within rounding of it.

    By default constants are taken exactly as given and the stationarity
    defect is merely recorded in ``optimality_residual``.  The reduced
    ODE preserves the stationarity condition only up to a constant
    multiple of kappa(z), and that multiple equals the endpoint gap at
    z = capacity (where the condition's integral term is empty).  Pass
    ``refine_c2=True`` to polish ``c2`` until that gap vanishes, which
    drops the residual to quadrature noise and certifies the solution;
    constants rounded to a couple of decimals typically move by ~1e-2
    under the polish, and their feasibility can flip when they sit near
    the normalization boundary.  The polish starts from ``consts.c2``;
    a singular start is an infeasible outcome, and a polish that finds
    no root reports that it did not converge (see :func:`_polish_c2`).

    ``c2_bounds`` (used by the constant search, with ``refine_c2``)
    clamps the start into the bounds, stops the bracketed part of the
    polish at the bound on the side where the state rises, and retries a
    singular start once next to the c2 at which the state stays put.
    """
    grid = _battery_grid(capacity, p0plus, grid)
    if c2_bounds is not None and not (refine_c2 and c2_bounds[0] < c2_bounds[1]):
        raise ValueError(
            f"c2_bounds must be an increasing pair used with refine_c2, got {c2_bounds}"
        )

    d_beta = beta_to_distortion(src, consts.beta)
    r_beta = src.rate(d_beta)
    slope = src.rate_derivatives(d_beta)[0]

    latest = None  # (c2, path) of the last trajectory solved

    def trajectory(c2: float):
        nonlocal latest
        if latest is None or latest[0] != c2:
            field = _adaptive_field(
                ch, arrivals, replace(consts, c2=c2), d_beta, r_beta, slope
            )
            latest = (c2, integrate_autonomous(
                field, p0plus, capacity, atol=atol, rtol=rtol,
                layout=None if latest is None else latest[1],
            ))
        return latest[1]

    c2 = consts.c2
    if refine_c2:
        # F(p0) = (base0 + lam*c2*R_beta) / den0 vanishes at c2_zero and
        # is positive, so the state rises, where side * (c2 - c2_zero) > 0
        base0, den0 = _adaptive_terms(ch, arrivals, consts.c1, d_beta, r_beta, slope)(
            np.array([p0plus]))
        c2_zero = float(-base0[0] / (arrivals.lam * r_beta))
        side = 1.0 if den0[0] > 0.0 else -1.0
        t_max = math.inf
        if c2_bounds is not None:
            c2 = min(max(c2, c2_bounds[0]), c2_bounds[1])
            t_max = side * ((c2_bounds[1] if side > 0.0 else c2_bounds[0]) - c2_zero)

        def endpoint(c2: float, p_end: Optional[float] = None):
            if p_end is None:
                p_end = trajectory(c2).p_end
            gap = _endpoint_gap(ch, replace(consts, c2=c2), d_beta, r_beta, slope, p_end)
            return gap, r_beta / ch.rate(p_end)

        starts = [c2]
        if c2_bounds is not None:
            # one more start, where the state barely rises
            near = c2_zero + side * _NEAR_ZERO * max(1.0, abs(c2_zero))
            starts.append(min(max(near, c2_bounds[0]), c2_bounds[1]))
        for start in starts:
            try:
                c2 = _polish_c2(endpoint, start, c2_zero, side, p0plus, t_max)
                break
            except SingularityError as exc:
                failure = exc
        else:
            return _infeasible(
                "adaptive", p0plus,
                f"ODE singular near z={failure.z:.6g} with the given constants: "
                f"{failure.message}",
                d_beta=d_beta, constants=consts,
            )
        if c2 is None:
            return _infeasible(
                "adaptive", p0plus,
                "endpoint refinement of c2 did not converge",
                d_beta=d_beta, constants=consts,
            )
    used = replace(consts, c2=c2)

    law = _law_on_grid("adaptive", lambda: trajectory(c2), grid, arrivals, leak, p0plus,
                       d_beta=d_beta, constants=used)
    if isinstance(law, PolicySolution):
        return law
    p, pi0, log_pi0, f, log_shape = law
    kappa = r_beta / ch.rate(p)

    # mismatch normalization: pi0/kappa0 + int f/kappa = 1 fixes kappa0
    log_q_kappa = _logsumexp(log_shape - np.log(kappa) + np.log(grid.weights))
    q_f_over_kappa = float(math.exp(log_pi0 + log_q_kappa))
    # the average depends only on how the unit mismatch budget is split
    # between the empty-battery atom and the charged region, so it stays
    # meaningful (and continuous) even when the split is over-subscribed
    d_avg = (1.0 - q_f_over_kappa) * src.d_max + d_beta * q_f_over_kappa
    if q_f_over_kappa >= 1.0:
        kappa0, message = math.nan, (
            "mismatch normalization cannot hold: int f/kappa = "
            f"{q_f_over_kappa:.6g} >= 1, so kappa0 <= 0"
        )
    elif pi0 == 0.0:
        kappa0, message = math.nan, (
            f"empty-battery atom underflows: pi0 = exp({log_pi0:.6g}), "
            "so kappa0 is not representable"
        )
    else:
        kappa0, message = pi0 / (1.0 - q_f_over_kappa), ""
    feasible = not message

    solution = PolicySolution(
        kind="adaptive",
        grid=grid,
        p=p,
        kappa=kappa,
        f=f,
        pi0=pi0,
        kappa0=kappa0,
        d_beta=d_beta,
        d_avg=d_avg,
        optimality_residual=None,
        feasible=feasible,
        p0plus=p0plus,
        constants=used,
        message=message,
    )
    residual = optimality_residual(src, ch, arrivals, solution, used)
    object.__setattr__(solution, "optimality_residual", residual)
    return solution


# ---------------------------------------------------------------------------
# constant-mismatch policy (kappa = 1)
# ---------------------------------------------------------------------------

def _matched_field(src, ch, arrivals, c):
    """Array right-hand side of the constant-mismatch power ODE.

    With D~(p) := D(p, 1) and its derivatives from implicit
    differentiation of R_s(D~) = R_c(p):

        F(p) = -( lam*D~ + (delta - lam*p)*D~' + c ) / ( p * D~'' )

    NaN where D~ leaves (0, d_max) (the state has left the model's
    domain, e.g. Bernoulli R_c(p) reaching H(prob)), +inf where the
    denominator magnitude drops below 1e-12.
    """
    delta, lam = arrivals.delta, arrivals.lam

    def rhs(p: np.ndarray) -> np.ndarray:
        d = distortion(src, ch, p, 1.0)
        inside = (d > 0.0) & (d < src.d_max)
        d_in = np.where(inside, d, 0.5 * src.d_max)
        s1, s2 = src.rate_derivatives(d_in)
        rc1, rc2 = ch.rate_derivatives(p)
        d1 = rc1 / s1
        d2 = (rc2 - s2 * d1 * d1) / s1
        den = p * d2
        with np.errstate(divide="ignore", invalid="ignore"):
            f = -(lam * d_in + (delta - lam * p) * d1 + c) / den
        f = np.where(np.abs(den) < 1e-12, np.inf, f)
        return np.where(inside, f, np.nan)

    return rhs


def solve_constant_kappa(
    src: SourceModel,
    ch: AwgnChannel,
    arrivals: ArrivalModel,
    leak: LeakageModel,
    capacity: float,
    p0plus: float,
    c: float,
    *,
    grid: Optional[Grid] = None,
    atol: float = 1e-13,
    rtol: float = 1e-12,
) -> PolicySolution:
    """Solve the matched-bandwidth (kappa = 1) power policy.

    The power profile obeys

        p'(z) = -( lam*D~(p) + (delta - lam*p)*D~'(p) + c ) / ( p * D~''(p) )

    with D~(p) = D(p, 1).  The free constant ``c`` plays the role the
    pair (c1, c2) plays for the adaptive policy; c = -lam*D~(delta/lam)
    with p0plus = delta/lam freezes the fixed point (constant power), and
    smaller c gives charge-increasing power profiles.  The ODE is solved
    by quadrature as in :func:`solve_adaptive` (``atol``/``rtol`` set its
    error target); a power leaving the model's domain (a Bernoulli
    channel rate reaching H(prob), where D~ hits 0) is infeasible like any
    other singularity.  The stationary law is reconstructed exactly as in
    :func:`solve_adaptive` with kappa = 1, so the empty-battery mismatch
    is 1 and the average distortion integrates D~(p(z)) against the
    charge law.
    """
    grid = _battery_grid(capacity, p0plus, grid)
    law = _law_on_grid(
        "constant-kappa",
        lambda: integrate_autonomous(
            _matched_field(src, ch, arrivals, c), p0plus, capacity, atol=atol, rtol=rtol
        ),
        grid, arrivals, leak, p0plus, c=c,
    )
    if isinstance(law, PolicySolution):
        return law
    p, pi0, _, f, _ = law

    d_of_z = distortion(src, ch, p, 1.0)
    d_avg = pi0 * src.d_max + quadrature(d_of_z * f, grid)

    return PolicySolution(
        kind="constant-kappa",
        grid=grid,
        p=p,
        kappa=np.ones_like(p),
        f=f,
        pi0=pi0,
        kappa0=1.0,
        d_beta=None,
        d_avg=float(d_avg),
        optimality_residual=None,
        feasible=True,
        p0plus=p0plus,
        c=c,
    )


# ---------------------------------------------------------------------------
# constant-power scheme on an unbounded battery
# ---------------------------------------------------------------------------

def constant_power_scheme(
    src: SourceModel,
    ch: AwgnChannel,
    arrivals: ArrivalModel,
    epsilon: float,
) -> tuple[float, float]:
    """(pi0, d_avg) for transmitting at delta/lam + epsilon whenever charged.

    With unbounded storage, spending slightly above the mean harvest rate
    makes the charge a positive-recurrent random walk whose empty-state
    probability is epsilon/(delta/lam + epsilon); the distortion is
    D_dagger(delta/lam + epsilon, 1) while charged and d_max while empty.
    As epsilon -> 0 this approaches the unbounded-battery lower bound.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    rate = arrivals.mean_harvest_rate
    pi0 = 1.0 - rate / (rate + epsilon)
    d_on = distortion(src, ch, rate + epsilon, 1.0)
    d_avg = (1.0 - pi0) * d_on + pi0 * src.d_max
    return pi0, d_avg
