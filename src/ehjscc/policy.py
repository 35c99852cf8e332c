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

Both policy ODEs here are autonomous and affine in their free constant,
p' = F(p) = (base + scale*constant)/den on whole arrays of powers: the
solvers hand F to :func:`~ehjscc.numerics.integrate_autonomous`, which
integrates z(p) = Int dq / F(q) by quadrature on Gauss-Legendre panels
in ln p.  The stationary law, its normalizations and the residual's tail
are integrated on those panels' own knots, where z and p are explicit
(:meth:`~ehjscc.numerics.AutonomousPath.knots` and
:class:`~ehjscc.numerics.Grid`): nothing is inverted.  The endpoint gap is affine in c2 too, so the c2 that
closes the gap is one scalar root in the end power p(L), which
:func:`~ehjscc.numerics.endpoint_root` finds on a table of F's two parts;
this module gives it those parts and the closing map.  The one
integration of a polished solve starts from that table's panels.  Every
way F can fail on the path (p running to 0 or escaping, |F| above 1e9,
a vanishing denominator, p leaving the model's domain) comes back as an
infeasible outcome whose message says near which z.

The constant-mismatch (kappa = 1) policy family and the constant-power
scheme for unbounded storage are provided for comparison, as both are
used to sandwich the adaptive policy between bounds.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .distortion import distortion
from .models import ArrivalModel, AwgnChannel, GaussianSource, LeakageModel, SourceModel
from .numerics import (
    Grid,
    SingularityError,
    affine_field,
    cumulative_integral,
    discounted_tail,
    endpoint_root,
    find_root,
    integrate_autonomous,
    integrate_ode,  # noqa: F401 -- looked up here by benchmarks/tracer.py
    lambert_wm1,
    quadrature,
)

__all__ = [
    "VariationalConstants",
    "PolicySolution",
    "beta_range",
    "beta_to_distortion",
    "c1_edge",
    "gaussian_d_beta",
    "optimality_residual",
    "solve_adaptive",
    "solve_constant_kappa",
    "constant_power_scheme",
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

    Arrays are aligned with ``grid.nodes``, the knots of the path's
    panels; they are locked read-only so a solution can be shared
    freely.  ``d_beta`` and ``optimality_residual``
    are ``None`` for constant-mismatch solutions (their instantaneous
    distortion varies with charge and they satisfy a different
    stationarity condition), so ``d_beta`` tells the two kinds apart;
    ``optimality_residual`` is also ``None`` on an adaptive solve that was
    not audited (``solve_adaptive(..., residual=False)``).  An
    infeasible outcome carries a diagnostic ``message`` and
    ``d_avg = inf``; one that stopped before it had a trajectory has no
    grid, empty arrays and NaN ``pi0`` and ``kappa0``, the defaults.
    """

    p0plus: float
    grid: Optional[Grid] = None
    p: np.ndarray = ()             # power per node
    kappa: np.ndarray = ()         # mismatch per node
    f: np.ndarray = ()             # stationary charge density per node
    pi0: float = math.nan          # probability atom at zero charge
    kappa0: float = math.nan       # mismatch prescribed at zero charge
    d_beta: Optional[float] = None  # constant distortion level (adaptive only)
    d_avg: float = math.inf        # stationary average distortion
    optimality_residual: Optional[float] = None
    constants: Optional[VariationalConstants] = None
    c: Optional[float] = None      # constant-mismatch free constant
    message: str = ""              # why the outcome is infeasible, else ""

    def __post_init__(self):
        for name in ("p", "kappa", "f"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def kind(self) -> str:
        """``"adaptive"`` or ``"constant-kappa"``."""
        return "constant-kappa" if self.d_beta is None else "adaptive"

    @property
    def feasible(self) -> bool:
        return not self.message


# ---------------------------------------------------------------------------
# beta <-> distortion level
# ---------------------------------------------------------------------------

# the root of the Bernoulli level is taken in ln D, from the least
# normal float up, to a width of a few units in the last place of D
_LN_LEAST_NORMAL = math.log(sys.float_info.min)


def beta_range(src: SourceModel) -> tuple[float, float]:
    """Open interval of admissible beta values: (-d_max, 0).

    Both endpoints come from the limits of R_s/R_s': the ratio vanishes
    at both ends of (0, d_max) for the Gaussian and Bernoulli curves, so
    beta = R_s/R_s' - D ranges over (-d_max, 0).
    """
    return (-src.d_max, 0.0)


def beta_to_distortion(src: SourceModel, beta: float) -> float:
    """The unique D in (0, d_max) with R_s(D)/R_s'(D) - D = beta.

    For a Gaussian source this is the paper's closed form
    (:func:`gaussian_d_beta`).  Otherwise the left side is strictly
    decreasing in D, and its one root is found in ln D by
    :func:`~ehjscc.numerics.find_root`, so the stop is relative: D to
    within a few units in the last place.  Betas whose root is not a
    normal float raise ValueError: the Bernoulli map flattens only
    logarithmically near D = 0, so at prob 0.5 a beta above about -1e-3
    has its root below 1e-308.
    """
    lo_b, hi_b = beta_range(src)
    if not lo_b < beta < hi_b:
        raise ValueError(f"beta must be in ({lo_b}, {hi_b}), got {beta}")

    def g(s):
        d = math.exp(s)
        return src.rate(d) / src.rate_derivatives(d)[0] - d - beta

    try:
        if isinstance(src, GaussianSource):
            d = gaussian_d_beta(src.variance, beta)
        else:
            d = math.exp(find_root(g, _LN_LEAST_NORMAL, math.log(src.d_max * (1.0 - 1e-12)),
                                   tol=1e-15))
        if not d >= sys.float_info.min:
            raise ValueError(f"D = {d} is not a normal float")
    except ValueError as exc:
        raise ValueError(
            f"no representable distortion level for beta={beta}: {exc}"
        ) from None
    return d


@functools.lru_cache(maxsize=1)
def _level(src: SourceModel, beta: float) -> tuple[float, float, float]:
    # (D_beta, R_s(D_beta), R_s'(D_beta)).  The last beta asked for is
    # kept: a search probe asks twice, in c1_edge and in solve_adaptive
    d_beta = beta_to_distortion(src, beta)
    return d_beta, src.rate(d_beta), src.rate_derivatives(d_beta)[0]


def gaussian_d_beta(variance: float, beta: float) -> float:
    """Closed form for the Gaussian distortion level.

    D = variance * exp(W_{-1}(beta/(variance*e)) + 1), the lower real
    branch being the only one landing inside (0, variance); relative to
    D it is as accurate as W_{-1}.
    """
    if not -variance < beta < 0.0:
        raise ValueError(f"beta must be in (-{variance}, 0), got {beta}")
    w = lambert_wm1(beta / (variance * math.e))
    return variance * math.exp(w + 1.0)


# ---------------------------------------------------------------------------
# the charge-adaptive ODE
# ---------------------------------------------------------------------------

# Rc'(p) = _HALF_OVER_LN2 / (noise + p) for the AWGN channel
_HALF_OVER_LN2 = 0.5 / math.log(2.0)


def _adaptive_terms(ch, arrivals, c1, d_beta, r_beta, slope):
    """The adaptive field F with p'(z) = F(p(z)), as (terms, scale, closing).

    Derivation: with the distortion pinned at D_beta, the mismatch is
    kappa = R_beta/R_c(p) (R_beta := R_s(D_beta)); substituting into the
    stationarity condition, multiplying through by exp(-lam z) R_c(p) /
    R_beta and differentiating in z eliminates the integral term and
    leaves a first-order autonomous ODE.  With S := R_s'(D_beta):

        F(p) = [ delta*(R_beta/S)*Rc' + lam*(D_beta+c1)*Rc
                 - lam*(R_beta/S)*p*Rc' + lam*c2*R_beta ]
               / [ (D_beta+c1)*Rc' - (R_beta/S)*(p*Rc'' + Rc') ]

    ``terms`` maps an array of powers to (base, den) with
    F = (base + scale*c2)/den, scale = lam*R_beta: c2 enters the
    numerator alone, so F is affine in c2.  It takes the channel's rates
    in closed form, with n = noise + p: Rc' = 1/(2 ln2 n) and
    p*Rc'' + Rc' = Rc'*noise/n, so

        den  = Rc' * (D_beta + c1 - (R_beta/S)*noise/n)
        base = (R_beta/S)*Rc'*(delta - lam*p) + lam*(D_beta+c1)*Rc

    with the coefficients taken once per (beta, c1) and the powers
    checked once per call.  The formula is never trusted on its own:
    every accepted solution is audited by :func:`optimality_residual`
    against the original condition.

    The endpoint gap is affine in c2 as well, with slope kappa(L) > 0, so
    it vanishes at

        c2 = h(P) = P*Rc'(P)/S - (D_beta + c1)*Rc(P)/R_beta,   P = p(L),

    and ``closing`` maps P to h(P) and h'(P).  The endpoint condition is
    then one root in P of Phi(P), the charge the trajectory of c2 = h(P)
    needs to reach P less the capacity L, which
    :func:`~ehjscc.numerics.endpoint_root` finds on a table of base and
    den.  The root is unique by these facts:

    - At c2 = h(P), F(P) = delta*R_beta*Rc'(P) / (S*den(P)), which never
      vanishes.  So p0 fixes the side: P rises from p0 where F(p0) > 0 at
      c2 = h(p0) and falls where it is negative, which (as S < 0) is
      where den(p0) > 0, i.e. c1 above :func:`c1_edge`.  Phi -> -L as
      P -> p0.
    - P is admissible while the integrand is finite and positive on the
      whole of [p0, P], with |F| <= 1e9.  Past that the trajectory settles
      on a root of F short of P, or den changes sign and it blows up;
      Phi is +inf there, so that end closes the bracket.
    - The integrand is at its largest where base + lam*R_beta*h(P) is
      least: at p0, where the trajectory lingers while c2 nears the value
      that makes p0 an equilibrium, or at an extremum of base inside the
      range.  Phi grows without bound as that least value nears 0, which
      is why the table's panels narrow toward p0.
    - On the published rows, on every probe of the searches and on 300
      random (beta, c1, L) with L up to 100, Phi had at most one sign
      change, and a dense scan of the first 64 units of u found no second
      root.
    """
    ratio = r_beta / slope
    noise, level = ch.noise, d_beta + c1
    # the coefficients of the two formulas above, Rc = log2(1 + p/noise)/2
    inner, drive, drain = ratio * noise, arrivals.delta * ratio, arrivals.lam * ratio
    hold = 0.5 * arrivals.lam * level

    def terms(p: np.ndarray):
        if not (np.asarray(p) >= 0.0).all():
            raise ValueError("power must be >= 0 everywhere")
        n = noise + p
        rc1 = _HALF_OVER_LN2 / n
        den = rc1 * (level - inner / n)
        base = rc1 * (drive - drain * p) + hold * np.log2(1.0 + p / noise)
        return base, den

    def closing(p_end: float):
        # h(P) and h'(P) = Rc'(P)*(noise/(noise + P)/S - (D_beta + c1)/R_beta)
        n = noise + p_end
        rc1 = _HALF_OVER_LN2 / n
        rc = 0.5 * math.log2(1.0 + p_end / noise)
        return (p_end * rc1 / slope - level * rc / r_beta,
                rc1 * (noise / n / slope - level / r_beta))

    return terms, arrivals.lam * r_beta, closing


def c1_edge(src, ch, beta, p0):
    """The c1 at which the denominator of F vanishes at p0.

    den(p0) = (D_beta + c1)*Rc'(p0) - (R_beta/S)*(p0*Rc''(p0) + Rc'(p0))
    is linear in c1 with slope Rc'(p0) > 0, so it is negative below

        c1_edge = (R_beta/S)*(1 + p0*Rc''(p0)/Rc'(p0)) - D_beta

    and positive above.  The tuned optimum hugs this edge from below.
    """
    d_beta, r_beta, slope = _level(src, beta)
    ratio = r_beta / slope
    rc1, rc2 = ch.rate_derivatives(p0)
    return float(ratio * (1.0 + p0 * rc2 / rc1) - d_beta)


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


def check_battery(capacity: float, p0plus: float) -> None:
    """Raise ValueError unless both solvers can take this battery."""
    if not (math.isfinite(capacity) and capacity > 0.0):
        raise ValueError(f"capacity must be finite and positive, got {capacity}")
    # the grid's weights are differences of its knots, which in a battery
    # below the least normal float are subnormal, with bits to spare no more
    if capacity < sys.float_info.min:
        raise ValueError(f"capacity must be at least the least normal float "
                         f"{sys.float_info.min!r}, got {capacity!r}")
    if not 1e-300 <= p0plus <= 1e300:
        raise ValueError(f"p0plus must be in the ODE state range [1e-300, 1e300], got {p0plus}")


# the error target of every trajectory (see integrate_autonomous): on the
# published rows, d_avg agrees to 1e-15 relative and the stationarity
# residual to 1e-7 relative with solves at 1e-13/1e-12, which take ~0.5 ms
# (13%) longer each
_ODE_TOLERANCES = {"atol": 1e-10, "rtol": 1e-9}

# the widest panel of the law, in lam*z: the law and the residual's tail
# carry e^{-lam z}, and the 8-point Gauss rule's error on e^{-a t} over
# [-1, 1] is 2^17 (8!)^4 / (17 (16!)^3) a^16 e^{a xi}, about 2.2e-18 a^16
# times the integrand's size: 1.5e-13 at a = lam*dz/2 = 2, and a
# ~1e-14 relative share of the panel's integral
_LAW_SPAN = 4.0


def _law_on_path(terms, shift, arrivals, leak, capacity, p0plus, start=None, **tags):
    # the grid of the trajectory of p' = (base + shift)/den from p0plus,
    # integrated from the endpoint root's start if given, p on it, plus
    # the output of _stationary_law, or the infeasible outcome carrying
    # tags if the trajectory turns singular before z = capacity
    try:
        path = integrate_autonomous(lambda p: affine_field(*terms(p), shift), p0plus,
                                    capacity, start=start, **_ODE_TOLERANCES)
    except SingularityError as exc:
        return PolicySolution(
            p0plus=p0plus, message=f"ODE singular near z={exc.z:.6g}: {exc.message}", **tags
        )
    z, p = path.knots(_LAW_SPAN / arrivals.lam)
    grid = Grid(z)
    drain = p + np.asarray(leak.rate(z), dtype=float)
    return (grid, p) + _stationary_law(grid, drain, arrivals.delta, arrivals.lam)


def optimality_residual(
    src: SourceModel,
    ch: AwgnChannel,
    arrivals: ArrivalModel,
    solution: PolicySolution,
) -> float:
    """Max |residual| of the stationarity condition over the solved grid.

    For each node z the condition reads

        delta*e^{lam z}*kappa(z) * Int_z^L (dD/dp)(u) e^{-lam u}/kappa(u) du
          + D_beta - (dD/dp)(z)*p(z) + c1 + c2*kappa(z)  =  0,

    with dD/dp = kappa*Rc'(p)/R_s'(D_beta) by implicit differentiation of
    R_s(D) = kappa*R_c(p).  The integrand then simplifies to
    Rc'(p(u)) e^{-lam u}/R_s'(D_beta), whose tail from z, times e^{lam z},
    is taken by :func:`~ehjscc.numerics.discounted_tail` on the
    solution's own grid.
    """
    if solution.constants is None:
        raise ValueError("no constants attached to this solution")
    if solution.grid is None or solution.d_beta is None:
        raise ValueError("optimality residual needs a solved adaptive policy")
    return float(np.max(np.abs(_residual_profile(src, ch, arrivals, solution))))


def _residual_profile(src, ch, arrivals, solution) -> np.ndarray:
    p, kappa, consts = solution.p, solution.kappa, solution.constants
    d_beta = solution.d_beta
    slope = src.rate_derivatives(d_beta)[0]

    rc1 = ch.rate_derivatives(p)[0]
    tail = discounted_tail(solution.grid, rc1, arrivals.lam)
    d_dp = kappa * rc1 / slope
    return (
        arrivals.delta * kappa * tail / slope
        + d_beta
        - d_dp * p
        + consts.c1
        + consts.c2 * kappa
    )


def solve_adaptive(
    src: SourceModel,
    ch: AwgnChannel,
    arrivals: ArrivalModel,
    leak: LeakageModel,
    capacity: float,
    p0plus: float,
    consts: VariationalConstants,
    *,
    refine_c2: bool = False,
    residual: bool = True,
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
    :func:`_adaptive_terms`), so it depends on beta and c1 alone and
    ``consts.c2`` is ignored; (beta, c1) with no root come back as an
    infeasible outcome that says so.  The trajectory at that c2 is
    integrated once, by :func:`~ehjscc.numerics.integrate_autonomous`
    from the root's start: the root's panels are its first round, and
    those that fail its accuracy rule are cut and evaluated again.

    Every solve with a trajectory is audited by
    :func:`optimality_residual` unless ``residual=False``, which leaves
    ``optimality_residual`` as ``None`` and changes nothing else: the
    adaptive tuner passes it for its probes, which it reads only for
    feasibility, d_avg and pi0/kappa0, and audits the one solution it
    returns.
    """
    check_battery(capacity, p0plus)
    d_beta, r_beta, slope = _level(src, consts.beta)
    terms, scale, closing = _adaptive_terms(ch, arrivals, consts.c1, d_beta, r_beta, slope)

    c2, start = consts.c2, None
    if refine_c2:
        found = endpoint_root(terms, scale, closing, p0plus, capacity)
        if found is None:
            return PolicySolution(
                p0plus=p0plus,
                d_beta=d_beta,
                constants=consts,
                message="endpoint condition has no root: no c2 carries the power from "
                        "p0plus to an end power that closes the gap at z = capacity",
            )
        c2, start = found
    used = replace(consts, c2=c2)

    law = _law_on_path(terms, scale * c2, arrivals, leak, capacity, p0plus, start,
                       d_beta=d_beta, constants=used)
    if isinstance(law, PolicySolution):
        return law
    grid, p, pi0, log_pi0, f = law
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

    solution = PolicySolution(
        p0plus=p0plus,
        grid=grid,
        p=p,
        kappa=kappa,
        f=f,
        pi0=pi0,
        kappa0=kappa0,
        d_beta=d_beta,
        d_avg=d_avg,
        constants=used,
        message=message,
    )
    if residual:
        object.__setattr__(solution, "optimality_residual",
                           optimality_residual(src, ch, arrivals, solution))
    return solution


# ---------------------------------------------------------------------------
# constant-mismatch policy (kappa = 1)
# ---------------------------------------------------------------------------

def _matched_terms(src, ch, arrivals):
    """Parts of the constant-mismatch power ODE's right-hand side.

    With D~(p) := D(p, 1) and its derivatives from implicit
    differentiation of R_s(D~) = R_c(p):

        F(p) = -( lam*D~ + (delta - lam*p)*D~' + c ) / ( p * D~'' )

    The returned function maps an array of powers to (base, den) with
    F = (base - c)/den, affine in c as the adaptive field is in c2.  den
    is NaN where D~ leaves (0, d_max) (the state has left the model's
    domain, e.g. Bernoulli R_c(p) reaching H(prob)), which makes F NaN
    there.
    """
    delta, lam = arrivals.delta, arrivals.lam

    def terms(p: np.ndarray):
        d = distortion(src, ch, p, 1.0)
        inside = (d > 0.0) & (d < src.d_max)
        d_in = np.where(inside, d, 0.5 * src.d_max)
        s1, s2 = src.rate_derivatives(d_in)
        rc1, rc2 = ch.rate_derivatives(p)
        d1 = rc1 / s1
        d2 = (rc2 - s2 * d1 * d1) / s1
        return -(lam * d_in + (delta - lam * p) * d1), np.where(inside, p * d2, np.nan)

    return terms


def solve_constant_kappa(
    src: SourceModel,
    ch: AwgnChannel,
    arrivals: ArrivalModel,
    leak: LeakageModel,
    capacity: float,
    p0plus: float,
    c: float,
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
    check_battery(capacity, p0plus)
    law = _law_on_path(_matched_terms(src, ch, arrivals), -c, arrivals, leak, capacity,
                       p0plus, c=c)
    if isinstance(law, PolicySolution):
        return law
    grid, p, pi0, _, f = law

    d_of_z = distortion(src, ch, p, 1.0)
    d_avg = pi0 * src.d_max + quadrature(d_of_z * f, grid)

    return PolicySolution(
        p0plus=p0plus,
        grid=grid,
        p=p,
        kappa=np.ones_like(p),
        f=f,
        pi0=pi0,
        kappa0=1.0,
        d_avg=float(d_avg),
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
