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
adaptive F and the endpoint gap are both affine in c2, so the c2 that
closes the gap is one scalar root in the end power p(L), found on a
table of F's two parts.  That table holds dz/du at the c2 found, so the
one integration of a polished solve starts from the table's panels in
place of evenly cut ones, and holds them to the same checks and
accuracy rule as any other round.  Every way F can fail on the path (p
running to 0 or escaping, |F| above 1e9, a vanishing denominator, p
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
    _RHS_CAP,
    _gauss_tables,
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
    constant-mismatch family has a single constant of its own (``c`` of
    :func:`solve_constant_kappa`).
    """

    beta: float
    c1: float
    c2: float

    def __post_init__(self):
        for name in ("beta", "c1", "c2"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")


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

    The left side is strictly decreasing in D, so its one root is found
    by :func:`~ehjscc.numerics.find_root` to rounding, in about 11
    evaluations; betas pinned against the edges of the admissible range may
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
    independent path against the generic root finder.
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


def _c1_edge(src, ch, beta, p0):
    """The c1 at which the denominator of F vanishes at p0.

    den(p0) = (D_beta + c1)*Rc'(p0) - (R_beta/S)*(p0*Rc''(p0) + Rc'(p0))
    is linear in c1 with slope Rc'(p0) > 0, so it is negative below

        c1_edge = (R_beta/S)*(1 + p0*Rc''(p0)/Rc'(p0)) - D_beta

    and positive above.  The tuned optimum hugs this edge from below.
    """
    d_beta = beta_to_distortion(src, beta)
    ratio = src.rate(d_beta) / src.rate_derivatives(d_beta)[0]
    rc1, rc2 = ch.rate_derivatives(p0)
    return float(ratio * (1.0 + p0 * rc2 / rc1) - d_beta)


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


def _stationary_law(grid, drain, delta, lam):
    """The stationary charge law on the whole of [0, L].

    Returns (pi0, log_pi0, f): the atom at zero charge, its log, and the
    density on the nodes.  The unnormalized density
    delta*exp(-lam*z + Int_0^z delta/drain)/drain is integrated with the
    grid's weights in linear space, scaled by its largest value so that
    nothing overflows.  pi0 underflows to 0 when the charge law piles up
    far from empty; log_pi0 stays finite.
    """
    nodes = grid.nodes
    log_shape = (math.log(delta) - lam * nodes - np.log(drain)
                 + cumulative_integral(grid, delta / drain))
    top = float(np.max(log_shape))
    log_q = top + math.log(float(grid.weights @ np.exp(log_shape - top)))
    log_pi0 = -float(np.logaddexp(0.0, log_q))
    return math.exp(log_pi0), log_pi0, np.exp(log_pi0 + log_shape)


def _battery_grid(capacity, p0plus, grid):
    # both solvers check the battery before any work
    if not (math.isfinite(capacity) and capacity > 0.0):
        raise ValueError(f"capacity must be finite and positive, got {capacity}")
    if not (math.isfinite(p0plus) and p0plus > 0.0):
        raise ValueError(f"p0plus must be finite and positive, got {p0plus}")
    return Grid.graded(capacity) if grid is None else grid


def _law_on_grid(kind, field, grid, arrivals, leak, p0plus, panels=None, **tags):
    # p on the grid along the trajectory of p' = field(p) from p0plus,
    # integrated from the panels given if any, plus the output of
    # _stationary_law, or the infeasible outcome carrying tags if the
    # trajectory turns singular before the last node
    try:
        path = integrate_autonomous(field, p0plus, grid.capacity, panels=panels,
                                    **_ODE_TOLERANCES)
        p = path.p_at(grid.nodes)
    except SingularityError as exc:
        return _infeasible(
            kind, p0plus, f"ODE singular near z={exc.z:.6g}: {exc.message}", **tags
        )
    drain = p + np.asarray(leak.rate(grid.nodes), dtype=float)
    return (p,) + _stationary_law(grid, drain, arrivals.delta, arrivals.lam)


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
    cum = cumulative_integral(solution.grid, integrand)
    tail = cum[-1] - cum          # integral from z to L
    d_dp = kappa * rc1 / slope
    return (
        delta * np.exp(lam * nodes) * kappa * tail
        + d_beta
        - d_dp * p
        + consts.c1
        + consts.c2 * kappa
    )


# the error target of every trajectory (see integrate_autonomous): on the
# published rows, d_avg agrees to 1e-15 relative and the stationarity
# residual to 1e-7 relative with solves at 1e-13/1e-12, which take ~0.5 ms
# (13%) longer each
_ODE_TOLERANCES = {"atol": 1e-10, "rtol": 1e-9}

# the table of the endpoint root (see _endpoint_c2): panels per stretch
# of ln p, ln p covered by the first stretch, and the width ratio and
# narrowest width of the panels graded toward p0
_TABLE_PANELS = 128
_TABLE_REACH = 16.0
_TABLE_GRADING = 4.0
_TABLE_FLOOR = 1e-15
# the root in ln p(L) stops at this width, relative to the reach of its
# stretch; c2 then agrees to 1e-11 relative, on the published rows and on
# every probe of their searches, with a table of 16 times as many panels
# whose root is found to rounding
_ROOT_RTOL = 1e-12


def _endpoint_c2(ch, arrivals, c1, d_beta, r_beta, slope, p0, capacity):
    """The c2 whose trajectory meets the endpoint condition, and its panels.

    Returns None if there is no such c2, else (c2, panels), where panels
    = (sign, lefts, widths, g) are the table's panels up to the one that
    holds the root, in u, with dz/du at that c2 at their Gauss nodes and
    right edges: the first round of
    :func:`~ehjscc.numerics.integrate_autonomous`, which takes them as
    its ``panels``.

    F = (base + lam*c2*R_beta)/den is affine in c2 (see
    :func:`_adaptive_terms`), and so is the endpoint gap, with slope
    kappa(L) > 0.  So the gap vanishes at

        c2 = h(P) = P*Rc'(P)/S - (D_beta + c1)*Rc(P)/R_beta,   P = p(L),

    and the endpoint condition is one root in the end power,

        Phi(P) = Int_{p0}^{P} den / (base + lam*h(P)*R_beta) dq - L = 0:

    the charge the trajectory of c2 = h(P) needs to reach P, less the
    capacity L.  base and den depend on (beta, c1) alone, so they are
    tabulated once, on Gauss-Legendre panels in u = |ln q - ln p0|, and
    each trial of P is array arithmetic on the table: no trajectory is
    integrated and no start value is needed.  The root rests on these
    facts:

    - At c2 = h(P), F(P) = delta*R_beta*Rc'(P) / (S*den(P)), which never
      vanishes.  So p0 fixes the side: P rises from p0 where F(p0) > 0 at
      c2 = h(p0) and falls where it is negative, which (as S < 0) is
      where den(p0) > 0, i.e. c1 above :func:`_c1_edge`.  Phi -> -L as
      P -> p0.
    - P is admissible while the integrand is finite and positive on the
      whole of [p0, P], with |F| <= 1e9 as :func:`integrate_autonomous`
      requires.  Past that the trajectory settles on a root of F short of
      P, or den changes sign and it blows up; Phi is +inf there, so that
      end closes the bracket.
    - The integrand is at its largest where base + lam*h(P)*R_beta is
      least: at p0, where the trajectory lingers while c2 nears the value
      that makes p0 an equilibrium, or at an extremum of base inside the
      range.  Phi grows without bound as that least value nears 0.  The
      panels, 1/128 of a stretch wide, narrow geometrically toward p0.
    - On the published rows, on every probe of the searches and on 300
      random (beta, c1, L) with L up to 100, Phi had at most one sign
      change, and a dense scan of the first 64 units of u found no second
      root.

    The table first covers 16 units of u and doubles its reach until Phi
    at its end is not negative; the state range [1e-300, 1e300] ends it.
    A bracket that closes only on the end of the admissible range, with
    Phi still negative before it, has no root.  Phi at the root has
    found dz/du admissible at every node of the panels handed back.  Their
    right edges, tabulated at the points the integrator evaluates, play
    no part in Phi; the integrator tests them.
    """
    terms = _adaptive_terms(ch, arrivals, c1, d_beta, r_beta, slope)
    shift = arrivals.lam * r_beta

    def closing_c2(p_end: float) -> float:
        return (p_end * ch.rate_derivatives(p_end)[0] / slope
                - (d_beta + c1) * ch.rate(p_end) / r_beta)

    base0, den0 = terms(np.array([p0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        f0 = float((base0[0] + shift * closing_c2(p0)) / den0[0])
    if not math.isfinite(f0):
        return None   # den vanishes at p0 itself
    sign = 1.0 if f0 > 0.0 else -1.0
    s0 = math.log(p0)
    u_limit = math.log(1e300) - sign * s0
    nodes, weights, to_coef, to_antider = _gauss_tables()
    # node values -> monomial coefficients of the panel's antiderivative
    to_poly = to_coef.T @ to_antider.T
    order = nodes.size
    positions = np.append(nodes, 1.0)
    lefts = widths = numer = denom = least = wts = edge_numer = edge_denom = np.empty(0)

    def extend(a, b):
        # the panels of the stretch [a, b], with base and den at the
        # points where integrate_autonomous evaluates a panel: at its
        # nodes, and apart at its right edge
        nonlocal lefts, widths, numer, denom, least, wts, edge_numer, edge_denom
        cuts = np.linspace(a, b, _TABLE_PANELS + 1)
        if a == 0.0:
            steps = math.ceil(math.log(cuts[1] / _TABLE_FLOOR, _TABLE_GRADING))
            cuts = np.concatenate(
                ([0.0], cuts[1] * _TABLE_GRADING ** -np.arange(steps, 0.0, -1.0), cuts[1:]))
        half = 0.5 * np.diff(cuts)
        q = np.exp(s0 + sign * (cuts[:-1, None] + (positions + 1.0) * half[:, None]))
        base, den = terms(q)
        top = sign * q * den
        lefts = np.concatenate((lefts, cuts[:-1]))
        widths = np.concatenate((widths, 2.0 * half))
        numer = np.concatenate((numer, top[:, :-1]), axis=None)
        denom = np.concatenate((denom, base[:, :-1]), axis=None)
        edge_numer = np.concatenate((edge_numer, top[:, -1]))
        edge_denom = np.concatenate((edge_denom, base[:, -1]))
        least = np.concatenate((least, q[:, :-1] / _RHS_CAP), axis=None)
        wts = np.concatenate((wts, (half[:, None] * weights).ravel()))

    closing = math.inf   # least u seen with Phi finite and not negative

    def dz_du(u: float):
        # the panels up to the one holding u, and dz/du = q/|F| at their
        # nodes for the c2 that closes the gap at u
        k = min(int(np.searchsorted(lefts, u, side="right")) - 1, lefts.size - 1)
        m = order * (k + 1)
        c2 = closing_c2(math.exp(s0 + sign * u))
        return k, m, c2, numer[:m] / (denom[:m] + shift * c2)

    def phi(u: float) -> float:
        nonlocal closing
        # dz/du is admissible from q/1e9 up to, but not including, inf; an
        # infinite one (F = 0) leaves Phi inf or NaN
        k, m, _, v = dz_du(u)
        if not (v >= least[:m]).all():
            return math.inf
        t = 2.0 * (u - lefts[k]) / widths[k] - 1.0
        part = 0.0
        for coef in (v[m - order:] @ to_poly)[::-1].tolist():
            part = part * t + coef
        value = float(v[:m - order] @ wts[:m - order]) + 0.5 * widths[k] * part - capacity
        if not value < math.inf:
            return math.inf
        if value >= 0.0:
            closing = min(closing, u)
        return value

    lo = hi = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            if hi >= u_limit:
                return None
            lo, hi = hi, min(max(2.0 * hi, _TABLE_REACH), u_limit)
            extend(lo, hi)
            if not phi(hi) < 0.0:
                break
        if not phi(lo) < 0.0:
            return None   # inadmissible within the first panel past p0
        tol = _ROOT_RTOL * max(1.0, hi)
        root = find_root(phi, RootBracket(lo, hi, tol=tol))
        if closing - root > tol:
            return None
        k, _, c2, v = dz_du(root)
        edge = edge_numer[:k + 1] / (edge_denom[:k + 1] + shift * c2)
    return c2, (sign, lefts[:k + 1], widths[:k + 1],
                np.concatenate((v.reshape(k + 1, order), edge[:, None]), axis=1))


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
) -> PolicySolution:
    """Solve the charge-adaptive policy and its stationary charge law.

    Solves the reduced ODE from (0, p0plus) to the battery capacity by
    quadrature, reconstructs kappa(z) = R_s(D_beta)/R_c(p(z)), the
    stationary density f, the atom pi0, the empty-battery mismatch kappa0
    and the average distortion.
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
    ``refine_c2=True`` to replace ``c2`` by the value that closes that
    gap, which drops the residual to quadrature noise and certifies the
    solution; constants rounded to a couple of decimals typically move
    by ~1e-2, and their feasibility can flip when they sit near the
    normalization boundary.  That c2 is found as one root in the end
    power p(capacity), before any trajectory is built (see
    :func:`_endpoint_c2`), so it depends on beta and c1 alone and
    ``consts.c2`` is ignored; (beta, c1) with no root come back as an
    infeasible outcome that says so.  The trajectory at that c2 is
    integrated once, by :func:`~ehjscc.numerics.integrate_autonomous`
    from the root's table (see :func:`_endpoint_c2`): the table's panels
    are its first round, and those that fail its accuracy rule are cut
    and evaluated again.
    """
    grid = _battery_grid(capacity, p0plus, grid)
    d_beta = beta_to_distortion(src, consts.beta)
    r_beta = src.rate(d_beta)
    slope = src.rate_derivatives(d_beta)[0]

    c2, panels = consts.c2, None
    if refine_c2:
        found = _endpoint_c2(ch, arrivals, consts.c1, d_beta, r_beta, slope, p0plus, capacity)
        if found is None:
            return _infeasible(
                "adaptive", p0plus,
                "endpoint condition has no root: no c2 carries the power from "
                "p0plus to an end power that closes the gap at z = capacity",
                d_beta=d_beta, constants=consts,
            )
        c2, panels = found
    used = replace(consts, c2=c2)

    field = _adaptive_field(ch, arrivals, used, d_beta, r_beta, slope)
    law = _law_on_grid("adaptive", field, grid, arrivals, leak, p0plus, panels,
                       d_beta=d_beta, constants=used)
    if isinstance(law, PolicySolution):
        return law
    p, pi0, log_pi0, f = law
    kappa = r_beta / ch.rate(p)

    # mismatch normalization: pi0/kappa0 + int f/kappa = 1 fixes kappa0
    q_f_over_kappa = float(grid.weights @ (f / kappa))
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
) -> PolicySolution:
    """Solve the matched-bandwidth (kappa = 1) power policy.

    The power profile obeys

        p'(z) = -( lam*D~(p) + (delta - lam*p)*D~'(p) + c ) / ( p * D~''(p) )

    with D~(p) = D(p, 1).  The free constant ``c`` plays the role the
    pair (c1, c2) plays for the adaptive policy; c = -lam*D~(delta/lam)
    with p0plus = delta/lam freezes the fixed point (constant power), and
    smaller c gives charge-increasing power profiles.  The ODE is solved
    by quadrature as in :func:`solve_adaptive`; a power leaving the
    model's domain (a Bernoulli channel rate reaching H(prob), where D~
    hits 0) is infeasible like any other singularity.  The stationary law is reconstructed exactly as in
    :func:`solve_adaptive` with kappa = 1, so the empty-battery mismatch
    is 1 and the average distortion integrates D~(p(z)) against the
    charge law.
    """
    grid = _battery_grid(capacity, p0plus, grid)
    law = _law_on_grid("constant-kappa", _matched_field(src, ch, arrivals, c),
                       grid, arrivals, leak, p0plus, c=c)
    if isinstance(law, PolicySolution):
        return law
    p, pi0, _, f = law

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
