"""Self-contained numerical kernel.

The lower branch of Lambert W (``lambert_wm1``), bracketed scalar root
finding (``find_root``) and minimization (``find_minimum``), a solver
for autonomous scalar ODEs p' = F(p) by Gauss-Legendre quadrature of
z(p) = Int dq / F(q) with F evaluated on whole arrays
(``integrate_autonomous``), the root of a field affine in one constant
that makes its path end where the constant closes it
(``endpoint_root``, whose table is the solver's first round), an
embedded adaptive Runge-Kutta integrator for general scalar ODEs (the
reference the quadrature solver is tested against), composite
quadrature on graded grids, and a deterministic seedable random stream.
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
# evenly loaded), then inverted at the requested z by Newton's method on
# each panel's interpolating polynomial.  Every evaluation of F is one
# array call over all the panels a refinement round proposes.

_GL_HALF_NODES = (0.18343464249564980494, 0.52553240991632898582,
                  0.79666647741362673959, 0.96028985649753623168)
_GL_HALF_WEIGHTS = (0.36268378337836198297, 0.31370664587788728734,
                    0.22238103445337447054, 0.10122853629037625915)
_GL_ORDER = 2 * len(_GL_HALF_NODES)

# state range the quadrature explores (ln 1e300 either side of 0); leaving
# it means p reached 0 or escaped to infinity
_S_MAX = math.log(1e300)
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


@functools.cache
def _knot_tables():
    """The ten knots of a panel in t and the powers of the first nine.

    The knots are -1, the Gauss nodes and 1; column i of the powers
    holds knot i to the powers 0 .. 8, so the monomial coefficients of a
    panel's z(t) times the powers give z at its left edge and nodes.
    """
    nodes = _gauss_tables()[0]
    knot_t = np.concatenate(([-1.0], nodes, [1.0]))
    return knot_t, knot_t[:-1][None, :] ** np.arange(_GL_ORDER + 1)[:, None]


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

    def p_at(self, z) -> np.ndarray:
        """p at each charge in ``z`` (values in [0, z_end]).

        z(t) is inverted on each charge's panel by Newton's method until
        no step exceeds 1e-12 in t.  Newton starts from the chord between
        the two knots that bracket the charge, out of ten per panel (its
        edges and its Gauss nodes); from so close a start it takes three
        passes on the published rows.  Past the last edge, p is the
        equilibrium's.
        """
        z = np.asarray(z, dtype=float)
        if self.direction == 0.0 or self.widths.size == 0 or z.size == 0:
            return np.full(z.shape, self.p0)
        flat = z.ravel()
        edges = self.z_edges
        # past the last edge the state sits on its equilibrium: aim at the
        # edge, so that those charges converge too
        target = np.minimum(flat, edges[-1])
        rows = _newton_rows(self.antider, edges, self.widths)
        knot_t, powers = _knot_tables()
        # z at each panel's left edge and Gauss nodes, then at the last
        # right edge, made monotone against rounding
        knots = rows[:, 0, :].T @ powers
        knots[:, 0] = edges[:-1]
        knots = np.maximum.accumulate(np.append(knots.ravel(), edges[-1]))
        # the panel holding each charge and the chord through the knots
        # that bracket it
        at = np.clip(knots.searchsorted(target, side="right") - 1, 0, knots.size - 2)
        k, j = np.divmod(at, _GL_ORDER + 1)
        z_a, z_b = knots[at], knots[at + 1]
        share = np.divide(target - z_a, z_b - z_a, out=np.ones_like(flat), where=z_b > z_a)
        t = knot_t[j] + (knot_t[j + 1] - knot_t[j]) * share
        np.clip(t, -1.0, 1.0, out=t)
        # Newton on z(t) - z, in place; z is increasing in t on the panel,
        # so the clipped iteration stays inside it
        poly = rows.take(k, axis=2)           # (degree + 1, 2, len(z)), contiguous
        acc, step = np.empty_like(poly[0]), np.empty_like(t)
        value, slope = acc
        for _ in range(12):
            np.multiply(poly[-1], t, out=acc)
            for row in poly[-2:0:-1]:
                acc += row
                acc *= t
            acc += poly[0]
            # the step (z(t) - z) / z'(t), or 0 where z is flat in t
            np.subtract(value, target, out=step)
            if slope.min() > 0.0:
                step /= slope
            else:
                rising = slope > 0.0
                np.divide(step, slope, out=step, where=rising)
                step[~rising] = 0.0
            t -= step
            np.clip(t, -1.0, 1.0, out=t)
            if np.abs(step, out=step).max() <= 1e-12:
                break
        u = self.lefts[k] + (t + 1.0) * (0.5 * self.widths[k])
        u[flat > edges[-1]] = self.lefts[-1] + self.widths[-1]
        # exp(ln p0) need not round back to p0
        return np.where(flat > 0.0, np.exp(math.log(self.p0) + self.direction * u),
                        self.p0).reshape(z.shape)


def _newton_rows(antider, z_edges, widths):
    # the monomial coefficients in t of z(t) and of z'(t) on each panel,
    # as an array of shape (degree + 1, 2, panels)
    value = 0.5 * widths[:, None] * antider
    value[:, 0] += z_edges[:-1]
    slope = np.zeros_like(value)
    slope[:, :-1] = value[:, 1:] * np.arange(1.0, value.shape[1])
    return np.stack((value.T, slope.T), axis=1)


def _invalid_reason(p: float, g: float) -> str:
    # why the state p (always in [1e-300, 1e300]) with dz/du = g, signed
    # by the path's direction, is not admissible
    if math.isnan(g):
        return "right-hand side undefined (state left its domain)"
    if not abs(g) >= p / _RHS_CAP:
        return "right-hand side blew up"
    return _SIGN_CHANGE


def _floor_width(s0, a):
    # panels this narrow hit the resolution of u: no further cuts
    return 2e-15 * (1.0 + abs(s0) + a)


def _knot_states(s0, sign, a, h):
    # u and the state at the Gauss nodes and right edge of each panel
    # with left edges a and widths h
    u = a[:, None] + (_knot_tables()[0][1:] + 1.0) * (0.5 * h[:, None])
    return u, np.exp(s0 + sign * u)


def _admissible(p, g):
    # which states are admissible, by dz/du = sign * p / F at each: F
    # defined, of the path's sign and within 1e9 in size, and not 0
    return (g >= p / _RHS_CAP) & (g < math.inf)


def _panel_test(a, h, p, g, s0, atol, rtol):
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
    # a panel may shift u by (atol/p + rtol) per unit of its width,
    # but never by less than per _MIN_SHARE: tiny panels close to an
    # equilibrium need not resolve F's rounding noise, since an error
    # there moves u by at most that much
    tol = 0.5 * np.maximum(h, _MIN_SHARE) * ((g * (atol / p + rtol)) @ weights)
    return coef, err, tol, h <= _floor_width(s0, a)


def _parts(err, tol):
    # how many pieces to cut each failing panel into, by its error ratio
    # (the tail falls like h^6 or faster)
    ratio = err / np.maximum(tol, 1e-300)
    parts = np.ceil(1.5 * np.where(np.isnan(ratio), np.inf, ratio) ** (1.0 / 6.0))
    return np.clip(parts, 2, _MAX_SPLIT).astype(int)


def integrate_autonomous(
    rhs,
    p0: float,
    z_end: float,
    *,
    atol: float = 1e-13,
    rtol: float = 1e-12,
    start=None,
) -> AutonomousPath:
    """Solve the autonomous scalar ODE p' = rhs(p), p(0) = p0, on [0, z_end].

    ``rhs`` maps an array of states to an array of slopes; a NaN marks a
    state outside its domain and +-inf a vanishing denominator.  The
    solution is monotone in the direction of rhs(p0), so it is found by
    integrating dz/du = p / |F| over u = |ln p - ln p0| on adaptively
    refined Gauss-Legendre panels.  Each round takes dz/du at the Gauss
    nodes and the right edge of every panel pending.  A panel is
    accepted when the two highest Legendre coefficients of its
    interpolant are below the integral of (atol / p + rtol) * dz/du over
    it, so ``atol`` and ``rtol`` bound the state error per unit of ln p
    as an absolute and a relative target; the others are cut.  The first
    inadmissible state met (F undefined, above 1e9 in size or of the
    wrong sign) is located to rounding and the panels before it are
    graded toward it; panels past the point where z must have reached
    z_end are dropped, and where the panels end short of z_end a new
    stretch of u is cut.

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
    if not 1e-300 <= p0 <= 1e300:
        raise ValueError(f"initial state must be in [1e-300, 1e300], got {p0}")
    if not (z_end > 0.0 and math.isfinite(z_end)):
        raise ValueError(f"z_end must be finite and positive, got {z_end}")
    with np.errstate(all="ignore"):
        return _integrate_autonomous(rhs, p0, z_end, atol, rtol, start)


def _integrate_autonomous(rhs, p0, z_end, atol, rtol, start):
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
        raise SingularityError(_invalid_reason(p0, g0), 0.0, p0)
    s0 = math.log(p0)
    u_limit = _S_MAX - sign * s0   # where the state leaves [1e-300, 1e300]

    def fresh(u0):
        # the next stretch of u, as evenly cut candidate panels
        reach = min(max(8.0 * u0, _FIRST_REACH), u_limit - u0)
        cuts = u0 + np.linspace(0.0, reach, _FIRST_PANELS + 1)
        return cuts[:-1], np.diff(cuts)

    def locate(lo, hi):
        # narrow (lo, hi] onto the first inadmissible state; lo is
        # admissible, hi is not
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
        return float(lo), float(hi), _invalid_reason(p_hi, float(g_hi))

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
    # it, and why the former is inadmissible
    obstacle, cut_at, obstacle_reason = math.inf, math.inf, ""
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
        found, err, tol, floor = _panel_test(pend_a, pend_h, p, g, s0, atol, rtol)
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
                    cut_at, obstacle, obstacle_reason = locate(float(lo), float(u[first]))
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
        if crossed or obstacle_reason == _SIGN_CHANGE:
            # the path up to the panel where z reaches z_end, if it does
            last = int(np.searchsorted(z_edges, z_end, side="left"))
            return AutonomousPath(p0, z_end, sign, a[:last], h[:last],
                                  coef[:last] @ to_antider.T, z_edges[:last + 1])
        if math.isfinite(obstacle):
            raise SingularityError(obstacle_reason, z_reached,
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
    states [1e-300, 1e300].

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

def _cubic_stencils(x: np.ndarray):
    """Per-interval quadrature stencils on the abscissae x.

    Returns (index, coef), two read-only arrays of one row per stencil
    point: the integral over [x[i], x[i + 1]] is
    sum_k coef[k, i] * y[index[k, i]].  Each interval is integrated under
    the local cubic through the four nearest samples (clamped stencils at
    the ends); with fewer than four samples the stencil is the trapezoid.
    """
    n = x.size
    h = np.diff(x)
    if n < 4:
        j0 = np.arange(n - 1)
        index, coef = np.array([j0, j0 + 1]), np.array([0.5 * h, 0.5 * h])
    else:
        j0 = np.clip(np.arange(n - 1) - 1, 0, n - 4)  # stencil start per interval
        index = np.array([j0 + k for k in range(4)])
        mid = 0.5 * (x[:-1] + x[1:])
        # stencil abscissae about each interval's midpoint
        t = [x[j] - mid for j in index]
        # weight k integrates the Lagrange cubic l_k over [-h/2, h/2]; its
        # numerator (t - t_a)(t - t_b)(t - t_c) has odd moments that vanish
        # there, leaving -(t_a + t_b + t_c) h^3/12 - t_a t_b t_c h
        rows = []
        for k in range(4):
            a, b, c = (t[j] for j in range(4) if j != k)
            numer = -((a + b + c) * (h * h * h / 12.0) + a * b * c * h)
            rows.append(numer / ((t[k] - a) * (t[k] - b) * (t[k] - c)))
        coef = np.array(rows)
    index.flags.writeable = coef.flags.writeable = False
    return index, coef


@dataclass(frozen=True)
class Grid:
    """Quadrature grid on [0, L]: nodes from 0 up plus composite order-4 weights.

    The weights are those of :func:`cumulative_integral` summed over the
    whole grid, so they integrate any cubic exactly, sum to L and depend
    on the nodes alone: a grid rebuilt from saved nodes integrates like
    the one it was saved from.  Where neighbouring intervals differ much
    in width, some weights are negative: on a graded grid of 300 nodes
    or more, that of the second positive node, as [0, z_min] is far
    wider than the intervals after it.

    The grid also keeps the per-interval stencils its weights are summed
    from (``stencil_index`` and ``stencil_coef``, see
    :func:`cumulative_integral`), so a cumulative integral on it costs
    one gather and one running sum.  Every array is read-only, and the
    grid is immutable: one grid can be shared by every solve on it.
    """

    nodes: np.ndarray
    weights: np.ndarray = field(init=False)
    stencil_index: np.ndarray = field(init=False, repr=False)
    stencil_coef: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # a private read-only copy: one grid is shared by every solution
        # solved on it
        nodes = np.array(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least two nodes")
        if nodes[0] != 0.0:
            raise ValueError("first node must be 0")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("nodes must be strictly increasing")
        index, coef = _cubic_stencils(nodes)
        weights = sum(np.bincount(i, c, minlength=nodes.size) for i, c in zip(index, coef))
        nodes.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "stencil_index", index)
        object.__setattr__(self, "stencil_coef", coef)

    @property
    def capacity(self) -> float:
        return float(self.nodes[-1])

    @classmethod
    def graded(
        cls,
        capacity: float,
        n: int = 800,
        z_min: float = 1e-6,
    ) -> "Grid":
        """n nodes: 0, then geometric spacing from z_min up to a knee, then uniform.

        The stationary density develops a sharp boundary layer above z = 0
        when the policy's power there is small; the geometric section (40%
        of the nodes, up to a knee at a tenth of the capacity) resolves it
        at a fixed nodes-per-decade cost while the uniform section keeps
        the bulk truncation error small.  At the default 800 nodes the
        average distortion of the published rows is within 1e-7 relative
        of a 32k-node solve.

        Each grid is built once: the same (capacity, n, z_min) returns the
        same shared, read-only grid while it is among the 16
        (``_GRADED_MEMO``) most recently asked for.
        """
        if capacity <= 0.0 or not math.isfinite(capacity):
            raise ValueError("capacity must be finite and positive")
        if n < 16:
            raise ValueError("need at least 16 nodes")
        if not 0.0 < z_min < capacity * 0.1:
            raise ValueError("need 0 < z_min < capacity / 10")
        return _graded_grid(float(capacity), n, float(z_min))


# graded grids kept for reuse, the least recently asked for dropped
# first.  A tune or a sweep solves every probe at one capacity, and the
# published rows span five; an 800-node grid holds ~64 kB
_GRADED_MEMO = 16


@functools.lru_cache(maxsize=_GRADED_MEMO)
def _graded_grid(capacity: float, n: int, z_min: float) -> Grid:
    knee = capacity * 0.1
    n_geo = int(round(n * 0.4))
    geo = np.geomspace(z_min, knee, n_geo)
    lin = np.linspace(knee, capacity, n - n_geo)[1:]
    return Grid(np.concatenate(([0.0], geo, lin)))


def quadrature(values, grid: Grid) -> float:
    """Composite order-4 integral of node values over [0, L].

    The dot product of the values with the grid's weights: exact (to
    rounding) for cubics, and equal to the last entry of
    :func:`cumulative_integral` on the same grid.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ValueError(
            f"length mismatch: {values.shape} values on {grid.nodes.shape} nodes"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    return float(np.dot(grid.weights, values))


def cumulative_integral(grid: Grid, y) -> np.ndarray:
    """Cumulative integral of node values y over a grid, order-4 accurate.

    Returns an array C with C[0] = 0 and C[k] approximating the integral
    of the sampled function from 0 to node k.  Each interval is
    integrated under the local cubic through the four nearest samples
    (clamped stencils at the ends), so smooth integrands converge at
    O(h^4) -- needed where plain trapezoid error would be amplified by
    steep multiplier profiles.  Falls back to trapezoid when the grid has
    fewer than four nodes.  The stencils are the grid's own, so a call
    costs one gather and one running sum.
    """
    return np.concatenate(([0.0], np.cumsum(_interval_integrals(grid, y))))


def _interval_integrals(grid, y):
    y = np.asarray(y, dtype=float)
    if y.shape != grid.nodes.shape:
        raise ValueError(
            f"length mismatch: {y.shape} values on {grid.nodes.shape} nodes"
        )
    # each interval's integral: its stencil terms summed in stencil order
    return sum(grid.stencil_coef * y[grid.stencil_index])


# lam*z covered by one scale of e^{-lam u} in discounted_tail
_TAIL_SPAN = 300.0


def discounted_tail(grid: Grid, y, lam: float) -> np.ndarray:
    """Int_z^L y(u) e^{-lam (u - z)} du at every node z of a grid.

    The grid's interval integrals of y e^{-lam u} (as in
    :func:`cumulative_integral`), summed from the right, so that a tail
    far below the whole integral keeps its digits.  The nodes of each
    stretch of 300 in lam*z scale e^{-lam u} by e^{lam c} at the
    stretch's start c, so that neither it nor e^{lam z} over- or
    underflows at any L; below the stretch, where only the stencils of
    its first intervals reach, the scaled weight is capped at e^300.
    """
    lz = lam * grid.nodes
    tail = np.empty_like(lz)
    for c in _TAIL_SPAN * np.arange(lz[-1] // _TAIL_SPAN + 1.0):
        inc = _interval_integrals(grid, y * np.exp(np.minimum(c - lz, _TAIL_SPAN)))
        rest = np.append(np.cumsum(inc[::-1])[::-1], 0.0)
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
