"""Self-contained numerical kernel.

Real Lambert W branches, bracketed scalar root finding, a solver for
autonomous scalar ODEs p' = F(p) by Gauss-Legendre quadrature of
z(p) = Int dq / F(q) with F evaluated on whole arrays, an embedded
adaptive Runge-Kutta integrator for general scalar ODEs (the reference
the quadrature solver is tested against), composite quadrature on graded
grids, and a deterministic seedable random stream.  Nothing in here
knows about sources, channels or batteries; the rest of the package
builds on this single auditable core instead of pulling in a
general-purpose solver library.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "NumericsError",
    "SingularityError",
    "ConvergenceError",
    "lambert_w",
    "RootBracket",
    "find_root",
    "integrate_ode",
    "AutonomousPath",
    "integrate_autonomous",
    "Grid",
    "quadrature",
    "cumulative_integral",
    "Rng",
    "seeded_rng",
]

_INV_E = math.exp(-1.0)


class NumericsError(Exception):
    """Base class for numerical failures (as opposed to bad inputs)."""


class SingularityError(NumericsError):
    """ODE integration halted early (blow-up, domain exit, step underflow).

    Carries the independent variable ``z`` at which integration stopped
    and, where the integrator knows it, the ``state`` there (NaN
    otherwise).
    """

    def __init__(self, message: str, z: float, state: float = math.nan):
        super().__init__(f"{message} (at z={z!r})")
        self.message = message
        self.z = z
        self.state = state


class ConvergenceError(NumericsError):
    """An iteration failed to reach its tolerance within its budget."""


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------

def lambert_w(branch: int, x: float) -> float:
    """Real Lambert W: the solution w of w*exp(w) = x on the given branch.

    branch 0 is defined for x >= -1/e and returns w >= -1; branch -1 is
    defined for -1/e <= x < 0 and returns w <= -1.  The result satisfies
    |w*exp(w) - x| <= 1e-12 * max(1, |x|); the scaling only matters for
    branch-0 arguments far above 1, where the identity itself is that
    ill-conditioned in double precision -- on [-1/e, 1] the bound is the
    plain absolute 1e-12.

    Method: a cheap initial guess (square-root series near the branch
    point x = -1/e, logarithmic asymptotics elsewhere) refined by Halley
    iterations, which converge at better-than-quadratic rate for this
    function.
    """
    x = float(x)
    if branch not in (0, -1):
        raise ValueError(f"branch must be 0 or -1, got {branch}")
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if x < -_INV_E:
        # tolerate values a few ulp past the branch point, reject the rest
        if x > -_INV_E - 1e-14:
            return -1.0
        raise ValueError(f"x={x} below the branch point -1/e")
    if branch == -1 and x >= 0.0:
        raise ValueError(f"branch -1 requires x < 0, got {x}")

    if branch == 0 and x == 0.0:
        return 0.0

    # initial guess
    t = 2.0 * (math.e * x + 1.0)
    if t <= 0.0:
        return -1.0  # exactly at the branch point within rounding
    if x < -0.25:
        # series around the branch point: w = -1 + s - s^2/3 + 11 s^3/72,
        # with s = +sqrt(t) on branch 0 and -sqrt(t) on branch -1
        s = math.sqrt(t) if branch == 0 else -math.sqrt(t)
        w = -1.0 + s * (1.0 + s * (-1.0 / 3.0 + s * (11.0 / 72.0)))
    elif branch == 0:
        w = math.log1p(x)
    else:
        # branch -1, x in (-0.25, 0): asymptotic guess from w ~ ln(-x) - ln(-ln(-x))
        lx = math.log(-x)
        w = lx - math.log(-lx)

    # Halley refinement
    tol = 0.25e-12 * max(1.0, abs(x))
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol:
            break
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
            break
    else:
        raise ConvergenceError(f"lambert_w({branch}, {x}) did not converge")

    resid = abs(w * math.exp(w) - x)
    if resid > 1e-12 * max(1.0, abs(x)):
        raise ConvergenceError(
            f"lambert_w({branch}, {x}): residual {resid:.3e} above tolerance"
        )
    return w


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootBracket:
    """An interval [lo, hi] on which a continuous function changes sign."""

    lo: float
    hi: float
    tol: float = 1e-12

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")


def find_root(g, bracket: RootBracket, max_iter: int = 200) -> float:
    """Bisection root of g on the bracket.

    Deterministic; returns a point r with either |g(r)| = 0 hit exactly or
    final bracket width below ``bracket.tol``.  Raises ValueError if the
    function values at the endpoints do not straddle a sign change.
    """
    lo, hi = bracket.lo, bracket.hi
    glo = g(lo)
    ghi = g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if (glo > 0.0) == (ghi > 0.0):
        raise ValueError(
            f"invalid bracket: g({lo})={glo} and g({hi})={ghi} have the same sign"
        )
    neg_lo = glo < 0.0
    for _ in range(max_iter):
        if hi - lo <= bracket.tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval no longer splittable in floating point
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm < 0.0) == neg_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# ODE integration (embedded Runge-Kutta-Fehlberg 4(5) pair)
# ---------------------------------------------------------------------------

def integrate_ode(
    rhs,
    z0: float,
    p0: float,
    z_end: float,
    *,
    atol: float = 1e-10,
    rtol: float = 1e-9,
    sample_points=None,
    rhs_cap: float = 1e9,
    max_steps: int = 2_000_000,
):
    """Integrate the scalar ODE p' = rhs(z, p) from (z0, p0) to z_end.

    Returns (zs, ps) as numpy arrays.  With ``sample_points`` (strictly
    increasing values in (z0, z_end]), steps are clipped so the trajectory
    is evaluated exactly at those points and the returned arrays are
    [z0, *sample_points] and the matching states; otherwise the accepted
    step points are returned.

    Local error per step is controlled to atol + rtol*|p| using the
    classic Fehlberg 4(5) embedded pair (the 5th-order value is
    propagated).  Integration halts with :class:`SingularityError` when
    the right-hand side exceeds ``rhs_cap`` or is non-finite, when the
    state leaves (0, +inf), or when the required step underflows --
    the exception carries the z reached.
    """
    z0 = float(z0)
    z_end = float(z_end)
    p = float(p0)
    if not (z0 < z_end):
        raise ValueError(f"need z0 < z_end, got {z0} >= {z_end}")
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError(f"initial state must be in (0, inf), got {p0}")

    span = z_end - z0

    targets = None
    if sample_points is not None:
        targets = np.asarray(sample_points, dtype=float)
        if targets.ndim != 1 or targets.size == 0:
            raise ValueError("sample_points must be a non-empty 1-d sequence")
        if np.any(np.diff(targets) <= 0.0):
            raise ValueError("sample_points must be strictly increasing")
        if targets[0] <= z0 or targets[-1] > z_end + 1e-12 * max(1.0, abs(z_end)):
            raise ValueError("sample_points must lie in (z0, z_end]")

    class _StageFailure(Exception):
        # trial stage left the valid region: reject the step and shrink
        pass

    def call(z, y, fatal=False):
        if not (math.isfinite(y) and y > 0.0):
            if fatal:
                raise SingularityError("state left (0, inf)", z)
            raise _StageFailure
        try:
            v = rhs(z, y)
        except SingularityError:
            # the rhs itself declared this point singular; only fatal if
            # it happens at an accepted point rather than a trial stage
            if fatal:
                raise
            raise _StageFailure from None
        if not math.isfinite(v) or abs(v) > rhs_cap:
            if fatal:
                raise SingularityError("right-hand side blew up", z, y)
            raise _StageFailure
        return v

    zs = [z0]
    ps = [p]
    out_p = []
    next_target = 0  # index into targets

    z = z0
    h = span / 100.0  # natural (unclipped) step, adapted by the controller
    h_min = 1e-14 * span
    steps = 0

    while True:
        if targets is not None:
            if next_target >= targets.size:
                break
            limit = float(targets[next_target])
        else:
            limit = z_end
        remaining = limit - z
        if remaining <= 0.0:
            # at (or within rounding of) the target already
            if targets is None:
                break
            out_p.append(p)
            next_target += 1
            continue

        steps += 1
        if steps > max_steps:
            raise SingularityError("step budget exhausted", z, p)

        hit = h >= remaining
        h_try = remaining if hit else h
        if h_try < h_min and not hit:
            raise SingularityError("step size underflow", z, p)

        try:
            k1 = call(z, p, fatal=True)
            k2 = call(z + h_try / 4.0, p + h_try * k1 / 4.0)
            k3 = call(z + 3.0 * h_try / 8.0, p + h_try * (3.0 * k1 + 9.0 * k2) / 32.0)
            k4 = call(
                z + 12.0 * h_try / 13.0,
                p + h_try * (1932.0 * k1 - 7200.0 * k2 + 7296.0 * k3) / 2197.0,
            )
            k5 = call(
                z + h_try,
                p
                + h_try
                * (
                    439.0 / 216.0 * k1
                    - 8.0 * k2
                    + 3680.0 / 513.0 * k3
                    - 845.0 / 4104.0 * k4
                ),
            )
            k6 = call(
                z + h_try / 2.0,
                p
                + h_try
                * (
                    -8.0 / 27.0 * k1
                    + 2.0 * k2
                    - 3544.0 / 2565.0 * k3
                    + 1859.0 / 4104.0 * k4
                    - 11.0 / 40.0 * k5
                ),
            )
            p_new = p + h_try * (
                16.0 / 135.0 * k1
                + 6656.0 / 12825.0 * k3
                + 28561.0 / 56430.0 * k4
                - 9.0 / 50.0 * k5
                + 2.0 / 55.0 * k6
            )
            if not math.isfinite(p_new) or p_new <= 0.0:
                raise _StageFailure
        except _StageFailure:
            # the trial step left the valid region; shrink and retry --
            # if no step survives, the h_min guard above reports z
            h = h_try * 0.25
            continue

        err = abs(
            h_try
            * (
                k1 / 360.0
                - 128.0 / 4275.0 * k3
                - 2197.0 / 75240.0 * k4
                + k5 / 50.0
                + 2.0 / 55.0 * k6
            )
        )
        scale = atol + rtol * max(abs(p), abs(p_new))
        ratio = err / scale if scale > 0.0 else math.inf

        if ratio == 0.0:
            factor = 5.0
        else:
            factor = min(5.0, max(0.2, 0.9 * ratio ** -0.2))

        if ratio <= 1.0:  # accept
            z = limit if hit else z + h_try
            p = p_new
            if targets is not None:
                if hit:
                    out_p.append(p)
                    next_target += 1
                # keep the natural step after a clipped hit
                if not hit:
                    h = h_try * factor
            else:
                zs.append(z)
                ps.append(p)
                if z >= z_end:
                    break
                h = h_try * factor
        else:  # reject and retry with a smaller step
            h = h_try * factor

    if targets is not None:
        return (
            np.concatenate(([z0], targets)),
            np.array([ps[0]] + out_p),
        )
    return np.array(zs), np.array(ps)


# ---------------------------------------------------------------------------
# Autonomous scalar ODEs by quadrature
# ---------------------------------------------------------------------------
#
# For p' = F(p) the charge needed to move the state from p0 to p is the
# ordinary integral z(p) = Int_{p0}^{p} dq / F(q), so instead of stepping
# the ODE the solution is built as z(s) on composite 8-point Gauss-Legendre
# panels in s = ln p (the state spans decades, and ln p keeps the panels
# evenly loaded), then inverted at the requested z by Newton's method on
# each panel's interpolating polynomial.  Every evaluation of F is one
# array call over all the panels a refinement round proposes.

_GL_HALF_NODES = (0.18343464249564980494, 0.52553240991632898582,
                  0.79666647741362673959, 0.96028985649753623168)
_GL_HALF_WEIGHTS = (0.36268378337836198297, 0.31370664587788728734,
                    0.22238103445337447054, 0.10122853629037625915)
_GL_ORDER = 2 * len(_GL_HALF_NODES)

# state range the quadrature explores (ln of [1e-300, 1e300]); leaving it
# means p reached 0 or escaped to infinity
_S_MIN = math.log(1e-300)
_S_MAX = math.log(1e300)
_RHS_CAP = 1e9           # |F| above this is a blow-up
# The next six only set how the work is cut up: the error test alone
# decides which panels are kept.  Setting any one of them 2-4 times
# higher or lower changes the number of F calls and of states evaluated,
# over the 20 polished published rows and over the parity probes, by at
# most 20%, and their d_avg by at most 3e-15 relative.
_FIRST_REACH = 16.0      # ln p covered by the first round, extended as needed
_FIRST_PANELS = 32
_MAX_SPLIT = 16          # most sub-panels a panel is cut into per round
_LOCATE_POINTS = 63      # states tried per step when locating an obstacle
_GRADING = 4.0           # width ratio of panels graded toward an obstacle
_LAYOUT_EXTRA = 8        # panels tried past the end of a seeding layout
_MIN_SHARE = 1.0 / 64.0  # smallest width a panel's error allowance scales with
_MAX_ROUNDS = 400
_SIGN_CHANGE = "right-hand side changed sign"


@functools.cache
def _gauss_tables():
    """Nodes, weights, and the maps from node values to coefficients.

    ``to_coef`` takes values at the nodes to Legendre coefficients (exact
    up to degree 7, as Gauss quadrature integrates P_m * P_n exactly);
    ``to_antider`` takes Legendre coefficients to the monomial
    coefficients of the antiderivative vanishing at -1.  Built on first
    use, not at import.
    """
    half_x = np.array(_GL_HALF_NODES)
    half_w = np.array(_GL_HALF_WEIGHTS)
    nodes = np.concatenate((-half_x[::-1], half_x))
    weights = np.concatenate((half_w[::-1], half_w))
    # monomial coefficients of P_0 .. P_8 (row n holds P_n), by Bonnet's
    # recurrence (n + 1) P_{n+1} = (2n + 1) x P_n - n P_{n-1}
    mono = np.zeros((_GL_ORDER + 1, _GL_ORDER + 1))
    mono[0, 0] = mono[1, 1] = 1.0
    for n in range(1, _GL_ORDER):
        mono[n + 1, 1:] = (2 * n + 1) * mono[n, :-1]
        mono[n + 1] = (mono[n + 1] - n * mono[n - 1]) / (n + 1)
    values = mono[:_GL_ORDER] @ nodes[None, :] ** np.arange(_GL_ORDER + 1)[:, None]
    to_coef = (np.arange(_GL_ORDER)[:, None] + 0.5) * weights[None, :] * values
    # Int_{-1}^t P_n = (P_{n+1} - P_{n-1}) / (2n + 1), and t + 1 for n = 0
    antider = np.empty((_GL_ORDER, _GL_ORDER + 1))
    antider[0] = mono[0] + mono[1]
    for n in range(1, _GL_ORDER):
        antider[n] = (mono[n + 1] - mono[n - 1]) / (2 * n + 1)
    return nodes, weights, to_coef, antider.T


class AutonomousPath:
    """Monotone solution p(z) of p' = F(p), p(0) = p0, on [0, z_end].

    Stored as z(u) on quadrature panels in u = direction * (ln p - ln p0):
    panel k covers u in [lefts[k], lefts[k] + widths[k]] and z in
    [z_edges[k], z_edges[k + 1]], where z = z_edges[k] + widths[k] / 2 *
    sum_j antider[k, j] * t**j at local coordinate t in [-1, 1].  If the
    state settles on an equilibrium before ``z_end``, the last edge lies
    below ``z_end`` and p stays at the equilibrium from there on.
    ``direction`` 0 is the constant solution of F(p0) = 0.  A plain
    class, not a dataclass: defining one costs about a millisecond at
    import.
    """

    __slots__ = ("p0", "z_end", "direction", "lefts", "widths", "antider", "z_edges")

    def __init__(self, p0, z_end, direction, lefts, widths, antider, z_edges):
        self.p0 = p0
        self.z_end = z_end
        self.direction = direction
        self.lefts = lefts
        self.widths = widths
        self.antider = antider
        self.z_edges = z_edges

    @property
    def p_end(self) -> float:
        """p(z_end), by the same Newton iteration as :meth:`p_at` in floats.

        The c2 polish reads only this value, 5-9 times per solve; on one
        element, float arithmetic beats the array iteration by enough to
        cut the time of a pass over the published rows by ~12%.
        """
        if self.direction == 0.0 or self.widths.size == 0:
            return self.p0
        z_lo, z_hi = float(self.z_edges[-2]), float(self.z_edges[-1])
        if self.z_end > z_hi:
            t = 1.0     # on the equilibrium
        else:
            half = 0.5 * float(self.widths[-1])
            poly = self.antider[-1].tolist()[::-1]    # highest power first
            t = 2.0 * (self.z_end - z_lo) / (z_hi - z_lo) - 1.0 if z_hi > z_lo else 1.0
            for _ in range(12):
                value, slope = poly[0], 0.0
                for c in poly[1:]:
                    slope = slope * t + value
                    value = value * t + c
                step = (z_lo + half * value - self.z_end) / (half * slope) if slope > 0.0 else 0.0
                t = min(1.0, max(-1.0, t - step))
                if abs(step) <= 1e-12:
                    break
        u = float(self.lefts[-1]) + (t + 1.0) * 0.5 * float(self.widths[-1])
        return math.exp(math.log(self.p0) + self.direction * u)

    def p_at(self, z) -> np.ndarray:
        """p at each charge in ``z`` (values in [0, z_end])."""
        z = np.asarray(z, dtype=float)
        if self.direction == 0.0 or self.widths.size == 0:
            return np.full(z.shape, self.p0)
        edges = self.z_edges
        k = np.clip(np.searchsorted(edges, z, side="right") - 1, 0, self.widths.size - 1)
        z_lo, rise = edges[k], edges[k + 1] - edges[k]
        half = 0.5 * self.widths[k]
        poly = self.antider[k].T            # (degree + 1, len(z))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(rise > 0.0, 2.0 * (z - z_lo) / rise - 1.0, 1.0)
        t = np.clip(t, -1.0, 1.0)
        # Newton on z(t) - z; z is increasing in t on the panel, so the
        # clipped iteration stays inside it
        for _ in range(12):
            value = poly[-1]
            slope = np.zeros_like(t)
            for row in poly[-2::-1]:
                slope = slope * t + value
                value = value * t + row
            resid = z_lo + half * value - z
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(slope > 0.0, resid / (half * slope), 0.0)
            t = np.clip(t - step, -1.0, 1.0)
            if np.max(np.abs(step), initial=0.0) <= 1e-12:
                break
        u = self.lefts[k] + (t + 1.0) * half
        # past the last edge the state sits on its equilibrium
        u = np.where(z > edges[-1], self.lefts[-1] + self.widths[-1], u)
        return np.exp(math.log(self.p0) + self.direction * u)


def _invalid_reason(f: float) -> str:
    # why a state (always in [1e-300, 1e300]) is not admissible; finite,
    # capped F of the right sign never gets here
    if math.isnan(f):
        return "right-hand side undefined (state left its domain)"
    if not abs(f) <= _RHS_CAP:
        return "right-hand side blew up"
    return _SIGN_CHANGE


def integrate_autonomous(
    rhs,
    p0: float,
    z_end: float,
    *,
    atol: float = 1e-13,
    rtol: float = 1e-12,
    layout: Optional[AutonomousPath] = None,
) -> AutonomousPath:
    """Solve the autonomous scalar ODE p' = rhs(p), p(0) = p0, on [0, z_end].

    ``rhs`` maps an array of states to an array of slopes; a NaN marks a
    state outside its domain and +-inf a vanishing denominator.  The
    solution is monotone, so it is found by integrating dz/du = p / |F|
    over u = |ln p - ln p0| on adaptively refined Gauss-Legendre panels.
    A panel is accepted when the two highest Legendre coefficients of its
    interpolant are below the integral of (atol / p + rtol) * dz/du over
    it, so ``atol`` and ``rtol`` bound the state error per unit of ln p
    as an absolute and a relative target.  The first inadmissible state
    met (F undefined, above 1e9 in size or of the wrong sign) is located
    to rounding and the panels before it are graded toward it; panels
    past the point where z must have reached z_end are dropped.
    ``layout``, the path of a nearby right-hand side from the same p0 (as
    in a sweep over one of its constants), seeds the first round with its
    panels, which then mostly pass at once; in the c2 polish that cuts
    the time of a pass over the published rows by ~22%.

    Returns an :class:`AutonomousPath`.  Raises :class:`SingularityError`
    carrying the z reached and the last admissible state when, before z_end, the state runs to 0 or
    escapes to infinity, leaves the domain of ``rhs``, or |rhs| exceeds
    1e9.  A root of ``rhs`` on the path is an equilibrium the
    state approaches and, once the gap underflows, sits on.
    """
    p0 = float(p0)
    z_end = float(z_end)
    if not 1e-300 <= p0 <= 1e300:
        raise ValueError(f"initial state must be in [1e-300, 1e300], got {p0}")
    if not (z_end > 0.0 and math.isfinite(z_end)):
        raise ValueError(f"z_end must be finite and positive, got {z_end}")
    with np.errstate(all="ignore"):
        return _integrate_autonomous(rhs, p0, z_end, atol, rtol, layout)


def _integrate_autonomous(rhs, p0, z_end, atol, rtol, layout):
    nodes, weights, to_coef, to_antider = _gauss_tables()
    empty = np.empty(0)

    def evaluate(p):
        return np.asarray(rhs(p), dtype=float)

    f0 = float(evaluate(np.array([p0]))[0])
    if not (math.isfinite(f0) and abs(f0) <= _RHS_CAP):
        raise SingularityError(_invalid_reason(f0), 0.0, p0)
    if f0 == 0.0:
        return AutonomousPath(p0, z_end, 0.0, empty, empty,
                              empty.reshape(0, _GL_ORDER + 1), np.zeros(1))
    sign = 1.0 if f0 > 0.0 else -1.0
    s0 = math.log(p0)
    u_limit = (_S_MAX - s0) if sign > 0.0 else (s0 - _S_MIN)
    steps = np.arange(1, _LOCATE_POINTS + 1) / (_LOCATE_POINTS + 1)
    positions = np.append(nodes, 1.0)

    def admissible(p, f):
        g = sign * p / f
        return (np.abs(f) <= _RHS_CAP) & (g > 0.0) & np.isfinite(g), g

    def floor_width(a):
        # panels this narrow hit the resolution of u: no further cuts
        return 2e-15 * (1.0 + abs(s0) + a)

    def fresh(start):
        # the next stretch of u, as evenly cut candidate panels
        reach = min(max(8.0 * start, _FIRST_REACH), u_limit - start)
        cuts = start + np.linspace(0.0, reach, _FIRST_PANELS + 1)
        return cuts[:-1], np.diff(cuts)

    def locate(lo, hi):
        # narrow (lo, hi] onto the first inadmissible state; lo is
        # admissible, hi is not
        f_hi = math.nan
        while hi - lo > floor_width(hi):
            pts = lo + (hi - lo) * steps
            p = np.exp(s0 + sign * pts)
            f = evaluate(p)
            bad = np.flatnonzero(~admissible(p, f)[0])
            if bad.size:
                j = bad[0]
                lo, hi, f_hi = (pts[j - 1] if j else lo), pts[j], f[j]
            else:
                lo = pts[-1]
        if math.isnan(f_hi):
            f_hi = evaluate(np.array([math.exp(s0 + sign * hi)]))[0]
        return float(lo), float(hi), _invalid_reason(float(f_hi))

    def graded(a, end):
        # panels from a to end, narrowing geometrically toward end
        span = end - a
        if span <= 0.0:
            return empty, empty
        count = max(0, math.ceil(math.log(span / floor_width(end)) / math.log(_GRADING)))
        cuts = np.concatenate((end - span * _GRADING ** -np.arange(count + 1.0), [end]))
        return cuts[:-1], np.diff(cuts)

    # candidate panels (left edge, width) awaiting evaluation, and the
    # accepted ones with their Legendre coefficients
    if layout is not None and layout.direction == sign and layout.widths.size:
        # the earlier panels plus a few more of the last width beyond them
        width = float(layout.widths[-1])
        extra = float(layout.lefts[-1]) + width * np.arange(1, _LAYOUT_EXTRA + 1)
        extra = extra[extra + width <= u_limit]
        pend_a = np.concatenate((layout.lefts, extra))
        pend_h = np.concatenate((layout.widths, np.full(extra.size, width)))
    else:
        pend_a, pend_h = fresh(0.0)
    acc_a, acc_h, acc_c = empty, empty, empty.reshape(0, _GL_ORDER)
    # the first inadmissible state found, the last admissible one before
    # it, and why the former is inadmissible
    obstacle, cut_at, obstacle_reason = math.inf, math.inf, ""
    z_reached = 0.0

    for _ in range(_MAX_ROUNDS):
        # the nodes of each panel, then its right edge: F is only known
        # where evaluated, and an obstacle hiding between a panel's last
        # node and its edge would otherwise end the path past it
        u = pend_a[:, None] + (positions[None, :] + 1.0) * (0.5 * pend_h[:, None])
        p = np.exp(s0 + sign * u)
        f = evaluate(p.ravel()).reshape(p.shape)
        admissible_at, g = admissible(p, f)
        whole = admissible_at.all(axis=1)
        p, g = p[:, :-1], np.where(admissible_at, g, 0.0)[:, :-1]
        coef = g @ to_coef.T
        err = pend_h * (np.abs(coef[:, -1]) + np.abs(coef[:, -2]))
        # a panel may shift u by (atol/p + rtol) per unit of its width,
        # but never by less than per _MIN_SHARE: tiny panels close to an
        # equilibrium need not resolve F's rounding noise, since an error
        # there moves u by at most that much
        tol = 0.5 * np.maximum(pend_h, _MIN_SHARE) * ((g * (atol / p + rtol)) @ weights)
        floor = pend_h <= floor_width(pend_a)
        good = whole & ((err <= tol) | floor)

        if good.all():
            # nothing to drop or cut: every panel joins the path.  The
            # branch below would do the same with some 30 more array
            # operations per round, which made a pass over the published
            # rows ~9% slower
            acc_a = np.concatenate((acc_a, pend_a))
            acc_h = np.concatenate((acc_h, pend_h))
            acc_c = np.concatenate((acc_c, coef))
            pend_a, pend_h = empty, empty
        else:
            # drop the panels that start where z has surely passed z_end (a
            # lower bound of z at each left edge says so) and everything
            # past the last admissible state before an obstacle, locating
            # a newly met obstacle first; accept the good panels, cut the rest
            all_a = np.concatenate((acc_a, pend_a))
            rise = np.concatenate((acc_h * acc_c[:, 0],
                                   np.where(whole, np.maximum(pend_h * coef[:, 0] - err, 0.0), 0.0)))
            order = np.argsort(all_a, kind="stable")
            below = np.cumsum(rise[order]) - rise[order]
            passed = np.flatnonzero(below >= z_end)
            crossing = all_a[order[passed[0]]] if passed.size else math.inf
            regraded = np.zeros(pend_a.size, dtype=bool)
            extra_a, extra_h = empty, empty
            if not whole.all():
                first = np.unravel_index(np.argmin(np.where(admissible_at, np.inf, u)), u.shape)
                k = first[0]
                if u[first] < obstacle and pend_a[k] < crossing:
                    before = u[k][admissible_at[k] & (u[k] < u[first])]
                    lo = before.max() if before.size else pend_a[k]
                    cut_at, obstacle, obstacle_reason = locate(float(lo), float(u[first]))
                    # the panel holding it is replaced by panels graded up to it
                    regraded[k] = True
                    extra_a, extra_h = graded(pend_a[k], cut_at)
            cut = min(cut_at, crossing)
            kept = acc_a < cut
            acc_a, acc_h, acc_c = acc_a[kept], acc_h[kept], acc_c[kept]
            kept = (pend_a < cut) & ~regraded
            take = good & kept
            acc_a = np.concatenate((acc_a, pend_a[take]))
            acc_h = np.concatenate((acc_h, pend_h[take]))
            acc_c = np.concatenate((acc_c, coef[take]))
            # cut by the error ratio (the tail falls like h^6 or faster)
            redo = ~good & ~floor & kept
            ratio = err[redo] / np.maximum(tol[redo], 1e-300)
            parts = np.ceil(1.5 * np.where(np.isnan(ratio), np.inf, ratio) ** (1.0 / 6.0))
            parts = np.clip(parts, 2, _MAX_SPLIT).astype(int)
            sub_h = np.repeat(pend_h[redo] / parts, parts)
            offsets = np.arange(parts.sum()) - np.repeat(np.cumsum(parts) - parts, parts)
            pend_a = np.concatenate((np.repeat(pend_a[redo], parts) + offsets * sub_h, extra_a))
            pend_h = np.concatenate((sub_h, extra_h))

        # the accepted panels left of every pending one form the path so far
        frontier = pend_a.min() if pend_a.size else math.inf
        order = np.argsort(acc_a, kind="stable")
        acc_a, acc_h, acc_c = acc_a[order], acc_h[order], acc_c[order]
        prefix = int(np.searchsorted(acc_a, frontier))
        z_edges = np.concatenate(([0.0], np.cumsum(acc_h[:prefix] * acc_c[:prefix, 0])))
        z_reached = float(z_edges[-1])
        crossed = z_reached >= z_end
        if not crossed and pend_a.size:
            continue
        if crossed:
            last = int(np.searchsorted(z_edges, z_end, side="left"))
            return AutonomousPath(p0, z_end, sign, acc_a[:last], acc_h[:last],
                                  acc_c[:last] @ to_antider.T, z_edges[:last + 1])
        if math.isfinite(obstacle):
            if obstacle_reason == _SIGN_CHANGE:
                # a root of F: the state has converged on it to rounding
                return AutonomousPath(p0, z_end, sign, acc_a, acc_h,
                                      acc_c @ to_antider.T, z_edges)
            raise SingularityError(obstacle_reason, z_reached,
                                   math.exp(s0 + sign * cut_at))
        reached = float(acc_a[-1] + acc_h[-1]) if acc_a.size else 0.0
        if reached >= u_limit * (1.0 - 1e-15):
            raise SingularityError(
                "state reached 0" if sign < 0.0 else "state escaped to infinity",
                z_reached, math.exp(s0 + sign * reached),
            )
        pend_a, pend_h = fresh(reached)
    raise SingularityError("quadrature did not converge", z_reached)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Quadrature grid on (0, L]: strictly increasing nodes plus trapezoid weights.

    The first node is strictly positive (the left endpoint 0 is excluded,
    matching integrals taken over (0+, L]); the weights integrate exactly
    any function that is piecewise linear between the nodes, and they sum
    to nodes[-1] - nodes[0].
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # private read-only copies: one grid is shared by every solution
        # solved on it
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        nodes.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least two nodes")
        if nodes[0] <= 0.0:
            raise ValueError("first node must be > 0")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if weights.shape != nodes.shape:
            raise ValueError("weights and nodes length mismatch")
        span = nodes[-1] - nodes[0]
        if abs(float(weights.sum()) - span) > 1e-12 * max(1.0, span):
            raise ValueError("weights do not sum to the grid span")

    @property
    def capacity(self) -> float:
        return float(self.nodes[-1])

    @staticmethod
    def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
        w = np.zeros_like(nodes)
        gaps = np.diff(nodes)
        w[:-1] += 0.5 * gaps
        w[1:] += 0.5 * gaps
        return w

    @classmethod
    def from_nodes(cls, nodes) -> "Grid":
        nodes = np.asarray(nodes, dtype=float)
        return cls(nodes, cls._trapezoid_weights(nodes))

    @classmethod
    def graded(
        cls,
        capacity: float,
        n: int = 2000,
        z_min: float = 1e-6,
    ) -> "Grid":
        """Geometric spacing from z_min up to a knee, then uniform up to capacity.

        The stationary density develops a sharp boundary layer above z = 0
        when the policy's power there is small; the geometric section (40%
        of the nodes, up to a knee at a tenth of the capacity) resolves it
        at a fixed nodes-per-decade cost while the uniform section keeps
        the bulk truncation error small.
        """
        if capacity <= 0.0 or not math.isfinite(capacity):
            raise ValueError("capacity must be finite and positive")
        if n < 16:
            raise ValueError("need at least 16 nodes")
        knee = capacity * 0.1
        if not z_min < knee:
            raise ValueError("need z_min < capacity / 10")
        n_geo = int(round(n * 0.4))
        n_geo = max(2, min(n_geo, n - 2))
        geo = np.geomspace(z_min, knee, n_geo)
        lin = np.linspace(knee, capacity, n - n_geo + 1)[1:]
        return cls.from_nodes(np.concatenate((geo, lin)))


def quadrature(values, grid: Grid) -> float:
    """Composite trapezoid integral of node values over the grid's span.

    Exact (to rounding) for integrands that are piecewise linear between
    the nodes.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ValueError(
            f"length mismatch: {values.shape} values on {grid.nodes.shape} nodes"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    return float(np.dot(grid.weights, values))


def cumulative_integral(x, y) -> np.ndarray:
    """Cumulative integral of samples y over abscissae x, order-4 accurate.

    Returns an array C with C[0] = 0 and C[k] approximating the integral
    of the sampled function from x[0] to x[k].  Each interval is
    integrated under the local cubic through the four nearest samples
    (clamped stencils at the ends), so smooth integrands converge at
    O(h^4) -- needed where plain trapezoid error would be amplified by
    steep multiplier profiles.  Falls back to trapezoid when fewer than
    four samples are given.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples")
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("x must be strictly increasing")
    if n < 4:
        inc = 0.5 * (y[1:] + y[:-1]) * np.diff(x)
        return np.concatenate(([0.0], np.cumsum(inc)))

    m = n - 1  # number of intervals
    j0 = np.clip(np.arange(m) - 1, 0, n - 4)  # stencil start per interval
    h = np.diff(x)
    mid = 0.5 * (x[:-1] + x[1:])
    # stencil abscissae about each interval's midpoint, and their samples
    t = [x[j0 + k] - mid for k in range(4)]
    v = [y[j0 + k] for k in range(4)]

    # weight k integrates the Lagrange cubic l_k over [-h/2, h/2]; its
    # numerator (t - t_a)(t - t_b)(t - t_c) has odd moments that vanish
    # there, leaving -(t_a + t_b + t_c) h^3/12 - t_a t_b t_c h
    inc = np.zeros(m)
    for k in range(4):
        a, b, c = (t[j] for j in range(4) if j != k)
        numer = -((a + b + c) * (h * h * h / 12.0) + a * b * c * h)
        inc += numer / ((t[k] - a) * (t[k] - b) * (t[k] - c)) * v[k]
    return np.concatenate(([0.0], np.cumsum(inc)))


# ---------------------------------------------------------------------------
# Random stream
# ---------------------------------------------------------------------------

class Rng:
    """Deterministic stream of uniform and exponential variates.

    Built on the PCG64 bit stream; uniforms are raw 64-bit draws mapped to
    [0, 1) with 53-bit resolution, and exponentials are exact inverse-CDF
    transforms -log1p(-u)/rate of those uniforms.  Identical seeds give
    identical streams.
    """

    def __init__(self, seed: int):
        self._bits = np.random.PCG64(seed)
        self.seed = int(seed)

    def uniform(self, size=None):
        raw = self._bits.random_raw(size if size is not None else 1)
        u = (raw >> np.uint64(11)) * (1.0 / (1 << 53))
        if size is None:
            return float(u[0])
        return u

    def exponential(self, rate: float = 1.0, size=None):
        if rate <= 0.0:
            raise ValueError("rate must be positive")
        if size is None:
            return -math.log1p(-self.uniform()) / rate
        return -np.log1p(-self.uniform(size=size)) / rate


def seeded_rng(seed: int) -> Rng:
    """Create a deterministic random stream from a 64-bit seed."""
    return Rng(seed)
