"""Self-contained numerical kernel.

The lower branch of Lambert W (``lambert_wm1``), bracketed scalar root
finding (``find_root``) and minimization (``find_minimum``), a solver
for autonomous scalar ODEs p' = F(p) by Gauss-Legendre quadrature of
z(p) = Int dq / F(q) with F evaluated on whole arrays
(``integrate_autonomous``), the root of a field affine in one constant
that makes its path end where the constant closes it
(``endpoint_root``, whose table is the solver's first round), an
embedded adaptive Runge-Kutta integrator for general scalar ODEs (the
reference the quadrature solver is tested against), the panel rule that
integrates on a solved path's own Gauss-Legendre panels (``Grid``, whose
nodes ``AutonomousPath.knots`` gives), and a deterministic seedable
random stream.
Nothing in here knows about sources, channels or batteries; the rest of
the package builds on this single auditable core instead of pulling in a
general-purpose solver library.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NumericsError",
    "SingularityError",
    "ConvergenceError",
    "lambert_wm1",
    "find_root",
    "find_minimum",
    "integrate_ode",
    "AutonomousPath",
    "STATE_RANGE", "KNOT_RESOLUTION", "in_state_range",
    "integrate_autonomous",
    "affine_field",
    "endpoint_root",
    "Grid",
    "quadrature",
    "cumulative_integral",
    "discounted_tail",
    "Rng",
]

_INV_E = math.exp(-1.0)
_EPS = 2.0 ** -52


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

def lambert_wm1(x: float) -> float:
    """Lower real branch of Lambert W: the w <= -1 with w*exp(w) = x.

    Defined for -1/e <= x < 0.  The result satisfies |w*exp(w) - x| <=
    1e-12, and relative to w it is as accurate as rounding allows:
    within 8 eps*(1 + 1/|w + 1|) relative of a 50-digit W down to
    x = -1e-300, the last factor being the conditioning of W at the
    branch point.

    Method: a cheap initial guess (square-root series near the branch
    point x = -1/e, logarithmic asymptotics elsewhere) refined by Halley
    iterations, which converge at better-than-quadratic rate for this
    function, until a step is within rounding of w or the residual is
    within rounding of x.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if x < -_INV_E:
        # tolerate values a few ulp past the branch point, reject the rest
        if x > -_INV_E - 1e-14:
            return -1.0
        raise ValueError(f"x={x} below the branch point -1/e")
    if x >= 0.0:
        raise ValueError(f"W_-1 requires x < 0, got {x}")

    # initial guess
    t = 2.0 * (math.e * x + 1.0)
    if t <= 0.0:
        return -1.0  # exactly at the branch point within rounding
    if x < -0.25:
        # series around the branch point: w = -1 + s - s^2/3 + 11 s^3/72,
        # with s = -sqrt(t)
        s = -math.sqrt(t)
        w = -1.0 + s * (1.0 + s * (-1.0 / 3.0 + s * (11.0 / 72.0)))
    else:
        # x in (-0.25, 0): asymptotic guess from w ~ ln(-x) - ln(-ln(-x))
        lx = math.log(-x)
        w = lx - math.log(-lx)

    # Halley refinement, until the step is below rounding relative to w or
    # the residual is at the rounding of x (near the branch point, where
    # w is that ill-conditioned and the steps are noise)
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= 4.0 * _EPS * abs(x):
            break
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if abs(step) <= 4.0 * _EPS * abs(w):
            break
    else:
        raise ConvergenceError(f"lambert_wm1({x}) did not converge")

    resid = abs(w * math.exp(w) - x)
    if resid > 1e-12:
        raise ConvergenceError(
            f"lambert_wm1({x}): residual {resid:.3e} above tolerance"
        )
    return w


# ---------------------------------------------------------------------------
# Root finding and minimization
# ---------------------------------------------------------------------------

_MAX_ITER = 200  # the most evaluations find_root and find_minimum take past their first


def find_root(g, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Brent-Dekker root of g on the bracket [lo, hi].

    Each step interpolates g inversely through its last three values
    (quadratic, or the secant through two) and bisects instead whenever
    the interpolated point would leave the bracket or would not shrink
    it fast enough, so a smooth simple root converges superlinearly and
    a jump is bisected.  g may be +inf or -inf (the sign is what
    counts); a step that would interpolate through such a value bisects.

    Deterministic; returns a point r with either g(r) = 0 hit exactly, or
    r an end of the final sign-change bracket, which is no wider than
    ``tol`` (or holds no float strictly inside).  At most 200
    evaluations follow the two at the ends.  Raises ValueError if lo is
    not below hi, if tol is not positive, or if the function values at
    the endpoints do not straddle a sign change.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    a, b = lo, hi
    fa, fb = g(a), g(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError(
            f"invalid bracket: g({a})={fa} and g({b})={fb} have the same sign"
        )
    tol1 = 0.5 * tol
    # b is the best point so far, c the other end of the sign-change
    # bracket, a the previous b; d and e are the last two step lengths
    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAX_ITER):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        half = 0.5 * (c - b)
        if abs(half) <= tol1 or b + half in (b, c):
            break
        if abs(e) >= tol1 and abs(fa) > abs(fb) and math.isfinite(fa) and math.isfinite(fc):
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            # accept only a step inside the bracket that is less than half
            # the step before last
            if 2.0 * p < min(3.0 * half * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        step = b + (d if abs(d) > tol1 else math.copysign(tol1, half))
        b = step if step != a else math.nextafter(a, c)
        fb = g(b)
        if fb == 0.0:
            return b
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    return b if abs(fb) <= abs(fc) else c


# golden-section step of Brent's minimization, as a share of the larger side
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0


def find_minimum(f, lo: float, hi: float, tol) -> float:
    """Brent's minimization of f on (lo, hi): the best point it sees.

    From the golden point, each step goes to the vertex of the parabola
    through the best three points if it lies in the bracket and moves
    less than half the step before last, else a golden-section step into
    the larger side; a +inf value (an infeasible point) among the three
    forces the golden step.  Stops once the best point x lies within
    tol(x)/2 of both ends of the bracket, or after 200 evaluations
    past the first.  The ends are never evaluated.
    """
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    # d and e are the last two step lengths
    d = e = 0.0
    for _ in range(_MAX_ITER):
        tol1 = 0.25 * tol(x)
        mid = 0.5 * (a + b)
        if max(x - a, b - x) <= 2.0 * tol1:
            break
        step = None
        if abs(e) > tol1 and math.isfinite(fx) and math.isfinite(fw) and math.isfinite(fv):
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                step = p / q
                if min(x + step - a, b - x - step) < 2.0 * tol1:
                    step = math.copysign(tol1, mid - x)
        if step is None:
            e = (a if x >= mid else b) - x
            step = _GOLDEN * e
        else:
            e = d
        d = step
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v in (x, w):
                v, fv = u, fu
    return x


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
# evenly loaded); the stationary law is integrated on those same panels,
# where z and p are explicit, so nothing is inverted.  Every evaluation of
# F is one array call over all the panels a refinement round proposes.

_GL_HALF_NODES = (0.18343464249564980494, 0.52553240991632898582,
                  0.79666647741362673959, 0.96028985649753623168)
_GL_HALF_WEIGHTS = (0.36268378337836198297, 0.31370664587788728734,
                    0.22238103445337447054, 0.10122853629037625915)
_GL_ORDER = 2 * len(_GL_HALF_NODES)

# every state of a path, p0 included, lies in this range, as messages
# state it; leaving it means p reached 0 or escaped to infinity
STATE_MIN, STATE_MAX, STATE_RANGE = 1e-300, 1e300, "[1e-300, 1e300]"
_S_MAX = math.log(STATE_MAX)   # the reach of ln p either side of 0
# no two knots of the law lie closer than this times L, and a panel's
# z(t) at t = 1 meets the next left edge, or L, to it
KNOT_RESOLUTION = 1e-12
# the error target of every path, absolute and relative (see
# integrate_autonomous): on the published rows, d_avg agrees to 1e-15
# relative and the stationarity residual to 1e-7 relative with paths at
# 1e-13/1e-12, which take ~0.5 ms (13%) longer each
_ODE_ATOL, _ODE_RTOL = 1e-10, 1e-9
_RHS_CAP = 1e9           # |F| above this is a blow-up
# width ratio of the panels graded toward an obstacle, and of those of
# the endpoint table toward p0
_GRADING = 4.0
# The next four only set how the work is cut up: the error test alone
# decides which panels are kept.  Setting any one of them, or the
# integrator's _GRADING, 2-4 times higher or lower changes the number of
# F calls and of states evaluated, over the 20 polished published rows
# and over the parity probes, by at most 20%, and their d_avg by at most
# 3e-15 relative.
_FIRST_REACH = 16.0      # ln p covered by the first round, extended as needed
_FIRST_PANELS = 32
_MAX_SPLIT = 16          # most sub-panels a panel is cut into per round
_LOCATE_POINTS = 63      # states tried per step when locating an obstacle
_MIN_SHARE = 1.0 / 64.0  # smallest width a panel's error allowance scales with
_MAX_ROUNDS = 400


def in_state_range(p: float) -> bool:
    """Whether p lies in the state range STATE_RANGE of every path."""
    return STATE_MIN <= p <= STATE_MAX


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


@functools.cache
def _panel_tables():
    """The fixed maps of the panel rule (see :class:`Grid`).

    ``share`` holds the nine knots of a panel as shares of its width in
    t: 0, then the Gauss nodes.  ``slope`` takes z at the knots to dz/dt
    at the Gauss nodes, the derivative of the degree-8 interpolant (the
    barycentric differentiation matrix).  ``left`` and ``right`` take
    y * weight at the Gauss nodes to the integral of the degree-7
    interpolant of y dz/dt from the panel's left edge to each Gauss node,
    and from each one to its right edge.  ``to_s`` takes the monomial
    coefficients of a polynomial in t to those in s = t + 1, and ``end``
    takes z at the knots to the interpolant's z at t = 1.
    """
    nodes, weights, to_coef, to_antider = _gauss_tables()
    knot_t = np.concatenate(([-1.0], nodes))
    gaps = knot_t[:, None] - knot_t[None, :]
    np.fill_diagonal(gaps, 1.0)
    bary = 1.0 / gaps.prod(axis=1)
    slope = bary[None, :] / (bary[:, None] * gaps)
    np.fill_diagonal(slope, 0.0)
    np.fill_diagonal(slope, -slope.sum(axis=1))
    powers = nodes[:, None] ** np.arange(_GL_ORDER + 1)
    left = powers @ to_antider @ to_coef / weights
    degree = np.arange(_GL_ORDER + 1)
    to_s = np.array([[math.comb(j, k) * (-1.0) ** (j - k) for k in degree] for j in degree])
    end = bary * np.prod(1.0 - knot_t) / (1.0 - knot_t)
    return 0.5 * (knot_t + 1.0), slope[1:], left, 1.0 - left, to_s, end


def _rising(poly, s):
    # z(s) - z(0) at the points s (one row per panel) of the panels with
    # monomial coefficients poly in s, their constant terms 0
    acc = poly[:, -1:] * s
    for column in poly.T[-2:0:-1]:
        acc += column[:, None]
        acc *= s
    return acc


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

    def knots(self, span: float = math.inf):
        """(z, p): the nodes of the panel rule on [0, z_end] and p there.

        Each panel gives its left edge and the images of the Gauss nodes
        under its z(t), and p = p0 e^{direction u} is exact at each: no
        inversion.  The panel holding z_end is clipped there by one root
        in t, unless less than KNOT_RESOLUTION * z_end of it would be
        left: the path then ends at that panel's left edge, which meets
        z_end to the resolution.  A panel wider than ``span`` in z is cut
        evenly in t until no piece is; each piece is still a degree-8
        polynomial in its own t.  The endpoint table grades its panels
        toward p0 down to 1e-15 in u, where knots a few ulps of p or
        1e-20 of z apart would tell the law nothing: the leading panels,
        up to the first left edge where a knot gap moves u by 16 ulps and
        z by KNOT_RESOLUTION * z_end, become one piece in u, with z at
        its knots from the panels they fall in.  They stay as they are
        where that piece is wider than ``span`` or its interpolant misses
        the edge by more than KNOT_RESOLUTION of its width.  Past the
        last edge, where the state sits on its equilibrium, and on the
        whole battery for direction 0, the panels are cut evenly in z, no
        wider than ``span``.  The last node is z_end.  The knots are not
        checked here: :class:`Grid` is their one checker.
        """
        share, _, _, _, to_s, end = _panel_tables()
        z_end, n = self.z_end, self.widths.size
        least = KNOT_RESOLUTION * z_end

        def even(z_a, u_a):
            # [z_a, z_end] cut evenly into pieces no wider than span, u_a
            # at their knots
            cuts = np.linspace(z_a, z_end, max(1, math.ceil((z_end - z_a) / span)) + 1)
            z = cuts[:-1, None] + np.diff(cuts)[:, None] * share
            return z, np.full_like(z, u_a)

        u_top = 0.0    # u where the path's own panels end
        if n == 0:
            z, u = even(0.0, 0.0)
        else:
            lefts, widths, edges, antider = self.lefts, self.widths, self.z_edges, self.antider
            if edges[-1] >= z_end and z_end - edges[-2] < least:
                # a clip would leave a sliver: the path ends at the last
                # panel's left edge, which meets z_end to the resolution
                n -= 1
                lefts, widths, edges, antider = lefts[:n], widths[:n], edges[:n + 1], antider[:n]
            # the panels' z(s) - z(0) in s = t + 1, which keeps the digits
            # of a clip close to the left edge
            poly = 0.5 * widths[:, None] * (antider @ to_s)
            poly[:, 0] = 0.0
            lo, hi = np.zeros(n), np.full(n, 2.0)
            if edges[-1] >= z_end:
                row, target = poly[-1].tolist()[::-1], z_end - edges[-2]

                def short(s):
                    acc = 0.0
                    for c in row:
                        acc = acc * s + c
                    return acc - target

                if short(2.0) > 0.0:
                    hi[-1] = find_root(short, 0.0, 2.0,
                                       tol=_EPS * target / (edges[-1] - edges[-2]))
                reached = z_end
            else:
                reached = float(edges[-1])
            u_top = float(lefts[-1] + 0.5 * hi[-1] * widths[-1])
            # the leading panels, up to the first left edge m where a knot
            # gap (share[1] of a piece at least) moves u by 16 ulps and z
            # by the resolution, make one piece in u, if its interpolant
            # meets edge m to the resolution of its width
            m = max(int(np.searchsorted(lefts, 16.0 * _EPS / share[1])),
                    int(np.searchsorted(edges[:-1], least / share[1])))
            pieces, first = [], 0
            if m >= 2:
                u_m, z_m = (lefts[m], edges[m]) if m < n else (u_top, reached)
                u = u_m * share
                j = np.searchsorted(lefts, u, side="right") - 1
                z = edges[j] + _rising(poly[j], (u - lefts[j])[:, None]
                                       / (0.5 * widths[j, None]))[:, 0]
                if z_m <= span and abs(z @ end - z_m) <= KNOT_RESOLUTION * z_m:
                    pieces, first = [(z[None, :], u[None, :])], m
            k = np.arange(first, n)
            lo, hi = lo[k], hi[k]
            # cut only where some panel is wider than span in z
            if (np.minimum(edges[first + 1:], reached) - edges[first:-1] > span).any():
                while True:
                    wide = np.ceil(_rising(poly[k], np.stack((lo, hi), axis=1))
                                   @ [-1.0, 1.0] / span)
                    if not (wide > 1.0).any():
                        break
                    parts = np.maximum(wide, 1.0).astype(int)
                    step = np.repeat((hi - lo) / parts, parts)
                    lo = np.repeat(lo, parts) + (np.arange(step.size)
                                                 - np.repeat(np.cumsum(parts) - parts, parts)) * step
                    hi, k = lo + step, np.repeat(k, parts)
            s = lo[:, None] + (hi - lo)[:, None] * share
            pieces.append((edges[k][:, None] + _rising(poly[k], s),
                           lefts[k][:, None] + s * (0.5 * widths[k])[:, None]))
            if z_end - reached >= least:
                pieces.append(even(reached, u_top))
            z, u = (np.concatenate(part) for part in zip(*pieces))
        p = self.p0 * np.exp(self.direction * u)
        return (np.append(z.ravel(), z_end),
                np.append(p.ravel(), self.p0 * math.exp(self.direction * u_top)))


def _invalid_reason(p: float, g: float) -> tuple[str, str]:
    # why the state p (always in the state range) with dz/du = g, signed
    # by the path's direction, is not admissible: the kind of obstacle,
    # and the message that reports it
    if math.isnan(g):
        return "undefined", "right-hand side undefined (state left its domain)"
    if not abs(g) >= p / _RHS_CAP:
        return "blow-up", "right-hand side blew up"
    return "equilibrium", "right-hand side changed sign"


def _floor_width(s0, a):
    # panels this narrow hit the resolution of u: no further cuts
    return 2e-15 * (1.0 + abs(s0) + a)


def _knot_states(s0, sign, a, h):
    # u and the state at the Gauss nodes and right edge of each panel
    # with left edges a and widths h
    u = a[:, None] + (np.append(_gauss_tables()[0], 1.0) + 1.0) * (0.5 * h[:, None])
    return u, np.exp(s0 + sign * u)


def _admissible(p, g):
    # which states are admissible, by dz/du = sign * p / F at each: F
    # defined, of the path's sign and within 1e9 in size, and not 0
    return (g >= p / _RHS_CAP) & (g < math.inf)


def _panel_test(a, h, p, g, s0):
    """The one accuracy rule of a path's panels.

    For panels with left edges ``a`` and widths ``h`` in u, and dz/du
    ``g`` at their Gauss nodes, where the state is ``p``: the Legendre
    coefficients of g on each panel, the error estimate (the width times
    the two highest coefficients), the allowance, and whether the panel
    is too narrow to cut further.  A panel passes if its error is within
    its allowance or it is that narrow.
    """
    _, weights, to_coef, _ = _gauss_tables()
    coef = g @ to_coef.T
    err = h * (np.abs(coef[:, -1]) + np.abs(coef[:, -2]))
    # a panel may shift u by (_ODE_ATOL/p + _ODE_RTOL) per unit of its
    # width, but never by less than per _MIN_SHARE: tiny panels close to
    # an equilibrium need not resolve F's rounding noise, since an error
    # there moves u by at most that much
    tol = 0.5 * np.maximum(h, _MIN_SHARE) * ((g * (_ODE_ATOL / p + _ODE_RTOL)) @ weights)
    return coef, err, tol, h <= _floor_width(s0, a)


def _parts(err, tol):
    # how many pieces to cut each failing panel into, by its error ratio
    # (the tail falls like h^6 or faster)
    ratio = err / np.maximum(tol, 1e-300)
    parts = np.ceil(1.5 * np.where(np.isnan(ratio), np.inf, ratio) ** (1.0 / 6.0))
    return np.clip(parts, 2, _MAX_SPLIT).astype(int)


def integrate_autonomous(rhs, p0: float, z_end: float, *, start=None) -> AutonomousPath:
    """Solve the autonomous scalar ODE p' = rhs(p), p(0) = p0, on [0, z_end].

    ``rhs`` maps an array of states to an array of slopes; a NaN marks a
    state outside its domain and +-inf a vanishing denominator.  The
    solution is monotone in the direction of rhs(p0), so it is found by
    integrating dz/du = p / |F| over u = |ln p - ln p0| on adaptively
    refined Gauss-Legendre panels.  Each round takes dz/du at the Gauss
    nodes and the right edge of every panel pending.  A panel is
    accepted when the two highest Legendre coefficients of its
    interpolant are below the integral of (_ODE_ATOL / p + _ODE_RTOL) *
    dz/du over it, so the module's error target bounds the state error
    per unit of ln p; the others are cut.  The first inadmissible state
    met (F undefined, above 1e9 in size or of the wrong sign) is located
    to rounding and the panels before it are graded toward it; panels
    past the point where z must have reached z_end are dropped, and where
    the panels end short of z_end a new stretch of u is cut.

    The first round is a stretch of evenly cut panels after a call of
    ``rhs`` at p0, or the panels of ``start`` without a call: a tuple
    (rhs(p0), lefts, widths, g) as :func:`endpoint_root` returns it, of
    adjoining panels in u from 0 and dz/du = p / |F| at each one's Gauss
    nodes and right edge, a row of nine per panel.

    Returns an :class:`AutonomousPath`.  Raises :class:`SingularityError`
    carrying the z reached and the last admissible state when, before
    z_end, the state runs to 0 or escapes to infinity, leaves the domain
    of ``rhs``, or |rhs| exceeds 1e9.  A root of ``rhs`` on the path is
    an equilibrium the state approaches and, once the gap underflows,
    sits on.
    """
    p0 = float(p0)
    z_end = float(z_end)
    if not in_state_range(p0):
        raise ValueError(f"initial state must be in {STATE_RANGE}, got {p0}")
    if not (z_end > 0.0 and math.isfinite(z_end)):
        raise ValueError(f"z_end must be finite and positive, got {z_end}")
    with np.errstate(all="ignore"):
        return _integrate_autonomous(rhs, p0, z_end, start)


def _integrate_autonomous(rhs, p0, z_end, start):
    to_antider = _gauss_tables()[3]
    empty = np.empty(0)

    def evaluate(p):
        return np.asarray(rhs(p), dtype=float)

    f0, a, h, known = start or (evaluate(np.array([p0]))[0], None, None, None)
    if f0 == 0.0:
        return AutonomousPath(p0, z_end, 0.0, empty, empty,
                              empty.reshape(0, _GL_ORDER + 1), np.zeros(1))
    sign = 1.0 if f0 > 0.0 else -1.0
    g0 = sign * p0 / f0
    if not _admissible(p0, g0):
        raise SingularityError(_invalid_reason(p0, g0)[1], 0.0, p0)
    s0 = math.log(p0)
    u_limit = _S_MAX - sign * s0   # where the state leaves its range

    def fresh(u0):
        # the next stretch of u, as evenly cut candidate panels
        reach = min(max(8.0 * u0, _FIRST_REACH), u_limit - u0)
        cuts = u0 + np.linspace(0.0, reach, _FIRST_PANELS + 1)
        return cuts[:-1], np.diff(cuts)

    def locate(lo, hi):
        # narrow (lo, hi] onto the first inadmissible state, lo admissible
        # and hi not; returns them, the obstacle's kind and its message
        g_hi = math.nan
        steps = np.arange(1, _LOCATE_POINTS + 1) / (_LOCATE_POINTS + 1)
        while hi - lo > _floor_width(s0, hi):
            pts = lo + (hi - lo) * steps
            p = np.exp(s0 + sign * pts)
            g = sign * p / evaluate(p)
            bad = np.flatnonzero(~_admissible(p, g))
            if bad.size:
                j = bad[0]
                lo, hi, g_hi = (pts[j - 1] if j else lo), pts[j], g[j]
            else:
                lo = pts[-1]
        p_hi = math.exp(s0 + sign * hi)
        if math.isnan(g_hi):
            g_hi = sign * p_hi / evaluate(np.array([p_hi]))[0]
        return (float(lo), float(hi)) + _invalid_reason(p_hi, float(g_hi))

    def graded(a, end):
        # panels from a to end, narrowing geometrically toward end
        span = end - a
        if span <= 0.0:
            return empty, empty
        count = max(0, math.ceil(math.log(span / _floor_width(s0, end)) / math.log(_GRADING)))
        cuts = np.concatenate((end - span * _GRADING ** -np.arange(count + 1.0), [end]))
        return cuts[:-1], np.diff(cuts)

    # every panel, in order of u: left edges, widths, Legendre
    # coefficients (zero until a round finds them), and the indices of
    # those awaiting a round, with dz/du at their points if known
    if a is None:
        a, h = fresh(0.0)
    coef = np.zeros((a.size, _GL_ORDER))
    todo = np.arange(a.size)
    # the first inadmissible state found, the last admissible one before
    # it, and why the former is inadmissible: its kind and message
    obstacle, cut_at, kind, reason = math.inf, math.inf, "", ""
    z_reached = 0.0

    for _ in range(_MAX_ROUNDS):
        # the nodes of each panel, then its right edge: F is only known
        # where evaluated, and an obstacle hiding between a panel's last
        # node and its edge would otherwise end the path past it
        pend_a, pend_h = a[todo], h[todo]
        u, p = _knot_states(s0, sign, pend_a, pend_h)
        g = sign * p / evaluate(p.ravel()).reshape(p.shape) if known is None else known
        known = None
        admissible_at = _admissible(p, g)
        whole = admissible_at.all(axis=1)
        p, g = p[:, :-1], np.where(admissible_at[:, :-1], g[:, :-1], 0.0)
        found, err, tol, floor = _panel_test(pend_a, pend_h, p, g, s0)
        coef[todo] = found
        good = whole & ((err <= tol) | floor)

        if good.all():
            # nothing to drop or cut: every panel joins the path
            todo = todo[:0]
        else:
            # drop the panels that start where z has surely passed z_end (a
            # lower bound of z at each left edge says so) and everything
            # past the last admissible state before an obstacle, locating
            # a newly met obstacle first; cut the failing panels
            rise = h * coef[:, 0]
            rise[todo] = np.where(whole, np.maximum(pend_h * found[:, 0] - err, 0.0), 0.0)
            below = np.cumsum(rise) - rise
            passed = np.flatnonzero(below >= z_end)
            crossing = a[passed[0]] if passed.size else math.inf
            end = a.size
            extra_a, extra_h = empty, empty
            if not whole.all():
                first = np.unravel_index(np.argmin(np.where(admissible_at, np.inf, u)), u.shape)
                k = first[0]
                if u[first] < obstacle and pend_a[k] < crossing:
                    before = u[k][admissible_at[k] & (u[k] < u[first])]
                    lo = before.max() if before.size else pend_a[k]
                    cut_at, obstacle, kind, reason = locate(float(lo), float(u[first]))
                    # the panel holding it is replaced by panels graded up to it
                    end = todo[k]
                    extra_a, extra_h = graded(pend_a[k], cut_at)
            end = min(end, int(np.searchsorted(a, min(cut_at, crossing))))
            # each panel becomes one panel (kept), none (dropped) or its
            # pieces (cut) of the next round, in order of u
            bad = ~good
            pending = np.zeros(a.size, dtype=bool)
            pending[todo[bad]] = True
            parts = np.ones(a.size, dtype=int)
            parts[todo[bad]] = _parts(err[bad], tol[bad]) * ~floor[bad]
            parts[end:] = 0
            h = np.repeat(h / parts, parts)
            offsets = np.arange(h.size) - np.repeat(np.cumsum(parts) - parts, parts)
            a = np.repeat(a, parts) + offsets * h
            coef = np.repeat(coef, parts, axis=0)
            todo = np.flatnonzero(np.repeat(pending, parts))
            if extra_a.size:
                todo = np.concatenate((todo, a.size + np.arange(extra_a.size)))
                a, h = np.concatenate((a, extra_a)), np.concatenate((h, extra_h))
                coef = np.concatenate((coef, np.zeros((extra_a.size, _GL_ORDER))))

        # the panels left of every pending one form the path so far
        prefix = int(todo[0]) if todo.size else a.size
        z_edges = np.concatenate(([0.0], np.cumsum(h[:prefix] * coef[:prefix, 0])))
        z_reached = float(z_edges[-1])
        crossed = z_reached >= z_end
        if not crossed and todo.size:
            continue
        # a root of F met first: the state has converged on it to rounding
        if crossed or kind == "equilibrium":
            # the path up to the panel where z reaches z_end, if it does
            last = int(np.searchsorted(z_edges, z_end, side="left"))
            return AutonomousPath(p0, z_end, sign, a[:last], h[:last],
                                  coef[:last] @ to_antider.T, z_edges[:last + 1])
        if math.isfinite(obstacle):
            raise SingularityError(reason, z_reached,
                                   math.exp(s0 + sign * cut_at))
        reached = float(a[-1] + h[-1]) if a.size else 0.0
        if reached >= u_limit * (1.0 - 1e-15):
            raise SingularityError(
                "state reached 0" if sign < 0.0 else "state escaped to infinity",
                z_reached, math.exp(s0 + sign * reached),
            )
        more_a, more_h = fresh(reached)
        todo = np.arange(a.size, a.size + more_a.size)
        a, h = np.concatenate((a, more_a)), np.concatenate((h, more_h))
        coef = np.concatenate((coef, np.zeros((more_a.size, _GL_ORDER))))
    raise SingularityError("quadrature did not converge", z_reached)


def affine_field(base, den, shift):
    """F = (base + shift) / den on arrays, +inf where |den| < 1e-12.

    The form of every policy field: a denominator that small is a pole
    of F, which :func:`integrate_autonomous` takes for a blow-up.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(den) < 1e-12, np.inf, (base + shift) / den)


# the table of the endpoint root: panels per stretch of u, u covered by
# the first stretch, and the narrowest width of the panels graded (by
# _GRADING) toward p0
_TABLE_PANELS = 128
_TABLE_REACH = 16.0
_TABLE_FLOOR = 1e-15
# the root in u stops at this step, relative to the reach of its
# stretch; c2 then agrees to 1e-11 relative, on the published rows and on
# every probe of their searches, with a table of 16 times as many panels
# whose root is found to rounding
_ROOT_RTOL = 1e-12


def endpoint_root(terms, scale, closing, p0, z_end):
    """The c whose path of p' = F from p0 ends at z_end where c closes it.

    F = (base + scale*c) / den, with ``terms`` mapping an array of states
    to (base, den), and ``closing`` maps an end state P to the c at which
    P closes the caller's condition and to dc/dP there.  The root is
    taken in P, of

        Phi(P) = Int_{p0}^{P} den / (base + scale*closing(P)) dq - z_end,

    on a table of base and den over Gauss-Legendre panels in u =
    |ln q - ln p0|, 1/128 of a stretch wide and narrowing geometrically
    toward p0: each trial of P is array arithmetic on it, which gives
    Phi and its derivative in u together.  The path runs the way F(p0)
    points at c = closing(p0); the first stretch is evaluated with p0 on
    the rising side, and evaluated again if the path falls.  Phi is +inf
    from the first node where dz/du = q/|F| is not finite or is below
    q/1e9, which closes the bracket.  The table covers 16 units of u,
    doubling its reach until Phi at its end is not negative, within the
    state range.

    The root is found by Newton's method on the reciprocal charge
    1/(Phi + z_end) - 1/z_end, which is nearly linear where Phi climbs
    toward its pole, inside the bracket of the table's last stretch
    (Phi at its ends is already known): a step that leaves the bracket,
    or one more than half the step before last, bisects it instead, and
    a trial where Phi is +inf closes it.  The first step within 1e-12
    relative to the reach ends the search and is taken; a bracket that
    narrow without a root ends it too.  Phi must change sign at most
    once, which the caller's model has to ensure.

    Returns None if F(p0) is not finite there, if Phi is not negative
    within the first panel, stays negative to the end of the state range
    or turns +inf before it turns positive.  Else returns (c, start): the
    ``start`` of :func:`integrate_autonomous` at c, with the table's
    panels up to the root's.
    """
    s0 = math.log(p0)
    _, weights, to_coef, to_antider = _gauss_tables()
    # node values -> monomial coefficients of the panel's antiderivative
    to_poly = to_coef.T @ to_antider.T

    def stretch(sign, a):
        # the panels of the stretch from a on, and the states at the points
        # where integrate_autonomous evaluates a panel: at its nodes, and
        # apart at its right edge; None past the state range
        b = min(max(2.0 * a, _TABLE_REACH), _S_MAX - sign * s0)
        if not b > a:
            return None
        cuts = np.linspace(a, b, _TABLE_PANELS + 1)
        if a == 0.0:
            steps = math.ceil(math.log(cuts[1] / _TABLE_FLOOR, _GRADING))
            cuts = np.concatenate(
                ([0.0], cuts[1] * _GRADING ** -np.arange(steps, 0.0, -1.0), cuts[1:]))
        h = np.diff(cuts)
        return cuts[:-1], h, _knot_states(s0, sign, cuts[:-1], h)[1]

    # base and den at p0 come with the first stretch on the rising side;
    # a path that falls takes its own
    first = stretch(1.0, 0.0)
    base, den = terms(np.array([p0]) if first is None else np.append(p0, first[2]))
    base0, den0 = base[:1], den[:1]
    with np.errstate(divide="ignore", invalid="ignore"):
        f0 = float((base0[0] + scale * closing(p0)[0]) / den0[0])
    if not math.isfinite(f0):
        return None   # den vanishes at p0 itself
    sign = 1.0 if f0 > 0.0 else -1.0
    if sign > 0.0:
        base, den = base[1:], den[1:]
    else:
        first = stretch(-1.0, 0.0)
        if first is not None:
            base, den = terms(first[2])
    if first is None:
        return None

    lefts = widths = numer = denom = least = wts = edge_numer = edge_denom = np.empty(0)

    def extend(a, h, q, base, den):
        # add the panels with left edges a and widths h, where the
        # states at their points are q, to the table
        nonlocal lefts, widths, numer, denom, least, wts, edge_numer, edge_denom
        base, den = base.reshape(q.shape), den.reshape(q.shape)
        top = sign * q * den
        lefts = np.concatenate((lefts, a))
        widths = np.concatenate((widths, h))
        numer = np.concatenate((numer, top[:, :-1]), axis=None)
        denom = np.concatenate((denom, base[:, :-1]), axis=None)
        edge_numer = np.concatenate((edge_numer, top[:, -1]))
        edge_denom = np.concatenate((edge_denom, base[:, -1]))
        least = np.concatenate((least, q[:, :-1] / _RHS_CAP), axis=None)
        wts = np.concatenate((wts, (0.5 * h[:, None] * weights).ravel()))

    def at(u: float):
        # the panel k holding u, the c that closes the condition at u and
        # dc/du, and dz/du = q/|F| at the nodes of the panels up to k at
        # that c (row 0) with its derivative in c over -scale (row 1)
        k = min(int(np.searchsorted(lefts, u, side="right")) - 1, lefts.size - 1)
        m = _GL_ORDER * (k + 1)
        p_end = math.exp(s0 + sign * u)
        c, dc_dp = closing(p_end)
        shifted = denom[:m] + scale * c
        v = np.empty((2, m))
        np.divide(numer[:m], shifted, out=v[0])
        np.divide(v[0], shifted, out=v[1])
        return k, c, dc_dp * sign * p_end, v

    last = None   # u and at(u) of the last trial

    def phi(u: float):
        # Phi and dPhi/du at u: +inf (and NaN) where dz/du is not
        # admissible, from q/1e9 up to, but not including, inf
        nonlocal last
        k, c, dc_du, v = at(u)
        last = u, k, c, v[0]
        whole = _GL_ORDER * k
        if not (v[0] >= least[:whole + _GL_ORDER]).all():
            return math.inf, math.nan
        # the panels before k whole, and panel k's antiderivative up to t,
        # with its slope, of dz/du and of its derivative in c
        done = v[:, :whole] @ wts[:whole]
        t = 2.0 * (u - lefts[k]) / widths[k] - 1.0
        part = slope = part_c = 0.0
        for coef, coef_c in zip(*(v[:, whole:] @ to_poly)[:, ::-1].tolist()):
            slope = slope * t + part
            part = part * t + coef
            part_c = part_c * t + coef_c
        half = 0.5 * widths[k]
        value = float(done[0]) + half * part - z_end
        if not value < math.inf:
            return math.inf, math.nan
        return value, slope - scale * (float(done[1]) + half * part_c) * dc_du

    hi = 0.0
    # dz/du and Phi may overflow: Phi is then +inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # grow the table until Phi at its end is not negative
        while True:
            extend(*first, base, den)
            lo, hi = hi, float(lefts[-1] + widths[-1])
            f_hi, df_hi = phi(hi)
            if not f_hi < 0.0:
                break
            first = stretch(sign, hi)
            if first is None:
                return None
            base, den = terms(first[2])
        if lo == 0.0 and not phi(0.0)[0] < 0.0:
            return None   # inadmissible within the first panel past p0

        tol = _ROOT_RTOL * max(1.0, hi)
        x, fx, dfx = hi, f_hi, df_hi
        step = hi - lo
        while fx != 0.0:
            # the Newton step on 1/(Phi + z_end) - 1/z_end from x
            before, step = step, -fx * (fx + z_end) / (z_end * dfx)
            if abs(step) <= tol:
                x = min(max(x + step, lo), hi)
                break
            if lo < x + step < hi and abs(step) <= 0.5 * abs(before):
                x += step
            elif hi - lo <= tol:
                # a bracket this narrow without a root: Phi jumps to +inf,
                # or is finite and not negative at hi
                if not f_hi < math.inf:
                    return None
                x = hi
                break
            else:
                step = 0.5 * (hi - lo)
                x = lo + step
            fx, dfx = phi(x)
            if fx < 0.0:
                lo = x
            else:
                hi, f_hi = x, fx
        if last[0] == x:
            _, k, c, v = last
        else:
            k, c, _, v = at(x)
            v = v[0]
        edge = edge_numer[:k + 1] / (edge_denom[:k + 1] + scale * c)
    g = np.concatenate((v.reshape(k + 1, _GL_ORDER), edge[:, None]), axis=1)
    return c, (float(affine_field(base0, den0, scale * c)[0]), lefts[:k + 1], widths[:k + 1], g)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """The panel rule on [0, L]: nodes from 0 up and their weights.

    The nodes come in panels of nine knots: a panel's left edge, then the
    images of the 8 Gauss-Legendre nodes under its map z(t), t in
    [-1, 1]; the last node is L, the right edge of the last panel.  z(t)
    is the degree-8 polynomial through a panel's knots, so its weights
    are the Gauss weights times dz/dt at the Gauss nodes, and the edge
    knots carry none.  A smooth y is integrated as y dz/dt in t, to the
    Gauss rule's order on each panel.  The weights depend on the nodes
    alone: a grid rebuilt from saved nodes integrates like the one it was
    saved from.  It is the one checker of knots, solved or saved: panels
    that do not rise (dz/dt <= 0 at a Gauss node), or do not meet (z(t)
    at t = 1 more than KNOT_RESOLUTION * L from the next left edge, or
    from L), are refused, as their weights would not sum to L.  The
    arrays are read-only and the grid immutable.
    """

    nodes: np.ndarray
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        # a private read-only copy: a solution shares its grid freely
        nodes = np.array(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least two nodes")
        if nodes[0] != 0.0:
            raise ValueError("first node must be 0")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("nodes must be strictly increasing")
        if nodes.size % (_GL_ORDER + 1) != 1:
            raise ValueError(
                "nodes must be panel knots, nine per panel (its left edge and the images "
                f"of the 8 Gauss nodes) and L last; got {nodes.size} nodes"
            )
        _, slope, _, _, _, end = _panel_tables()
        knots = nodes[:-1].reshape(-1, _GL_ORDER + 1)
        dz_dt = knots @ slope.T
        if not np.all(dz_dt > 0.0):
            raise ValueError("nodes must be panel knots rising in z: dz/dt is not "
                             "positive at every Gauss node")
        if not np.all(np.abs(knots @ end - np.append(knots[1:, 0], nodes[-1]))
                      <= KNOT_RESOLUTION * nodes[-1]):
            raise ValueError("nodes must be panel knots that meet: a panel's z(t) must "
                             "reach the next panel's left edge, or L, at t = 1")
        weights = np.zeros_like(nodes)
        weights[:-1].reshape(dz_dt.shape[0], -1)[:, 1:] = dz_dt * _gauss_tables()[1]
        nodes.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def capacity(self) -> float:
        return float(self.nodes[-1])


def quadrature(values, grid: Grid) -> float:
    """The panel rule's integral of node values over [0, L].

    The dot product of the values with the grid's weights, which agrees
    to rounding with the last entry of :func:`cumulative_integral` on the
    same grid.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ValueError(
            f"length mismatch: {values.shape} values on {grid.nodes.shape} nodes"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    return float(np.dot(grid.weights, values))


def _gauss_terms(grid, y):
    # y times the weight at each Gauss node, one row per panel
    y = np.asarray(y, dtype=float)
    if y.shape != grid.nodes.shape:
        raise ValueError(
            f"length mismatch: {y.shape} values on {grid.nodes.shape} nodes"
        )
    return (y * grid.weights)[:-1].reshape(-1, _GL_ORDER + 1)[:, 1:]


def _by_panel(first, inner, last):
    # node values from each panel's value at its left edge and Gauss
    # nodes, and the value at L
    out = np.empty((first.size, _GL_ORDER + 1))
    out[:, 0], out[:, 1:] = first, inner
    return np.append(out.ravel(), last)


def cumulative_integral(grid: Grid, y) -> np.ndarray:
    """Cumulative integral of node values y over a grid, by its panels.

    Returns an array C with C[0] = 0 and C[k] the integral of the sampled
    function from 0 to node k: the whole panels before k by their Gauss
    sums, and the part of k's panel up to it by the antiderivative of the
    panel's Legendre interpolant of y dz/dt.  y at the edge knots is not
    read.
    """
    terms = _gauss_terms(grid, y)
    before = np.concatenate(([0.0], np.cumsum(terms.sum(axis=1))))
    return _by_panel(before[:-1], before[:-1, None] + terms @ _panel_tables()[2].T,
                     before[-1])


# lam*z covered by one scale of e^{-lam u} in discounted_tail
_TAIL_SPAN = 300.0


def discounted_tail(grid: Grid, y, lam: float) -> np.ndarray:
    """Int_z^L y(u) e^{-lam (u - z)} du at every node z of a grid.

    The panels' integrals of y e^{-lam u}, summed from the right, and the
    part of each node's panel above it from its Legendre interpolant, so
    that a tail far below the whole integral keeps its digits.  The nodes
    of each stretch of 300 in lam*z scale e^{-lam u} by e^{lam c} at the
    stretch's start c, so that neither it nor e^{lam z} over- or
    underflows at any L; below the stretch, whose panels the stretch's
    tails do not read, the scaled weight is capped at e^300.
    """
    lz = lam * grid.nodes
    tail = np.empty_like(lz)
    right = _panel_tables()[3]
    for c in _TAIL_SPAN * np.arange(lz[-1] // _TAIL_SPAN + 1.0):
        terms = _gauss_terms(grid, y * np.exp(np.minimum(c - lz, _TAIL_SPAN)))
        after = np.append(np.cumsum(terms.sum(axis=1)[::-1])[::-1], 0.0)
        rest = _by_panel(after[:-1], after[1:, None] + terms @ right.T, 0.0)
        lo, hi = lz.searchsorted((c, c + _TAIL_SPAN))
        tail[lo:hi] = rest[lo:hi] * np.exp(lz[lo:hi] - c)
    return tail


# ---------------------------------------------------------------------------
# Random stream
# ---------------------------------------------------------------------------

class Rng:
    """Deterministic stream of uniform and exponential variates.

    Built on the PCG64 bit stream; uniforms are raw 64-bit draws mapped to
    [0, 1) with 53-bit resolution, and exponentials are exact inverse-CDF
    transforms -log1p(-u)/rate of those uniforms.  Identical seeds give
    identical streams: the mapping is this class's own, because NumPy's
    ``Generator`` does not promise the same stream across NumPy versions.
    """

    def __init__(self, seed: int):
        self._bits = np.random.PCG64(seed)

    def uniform(self, size):
        raw = self._bits.random_raw(size)
        return (raw >> np.uint64(11)) * (1.0 / (1 << 53))

    def exponential(self, rate: float, size):
        if rate <= 0.0:
            raise ValueError("rate must be positive")
        return -np.log1p(-self.uniform(size=size)) / rate
