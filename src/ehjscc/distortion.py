"""Separation distortion map, normalized distortion, and lower bounds.

With source rate R_s and channel rate R_c, transmitting at power p with
mismatch factor kappa (channel uses per source symbol) achieves

    D(p, kappa) = R_s^{-1}(kappa * R_c(p)).

The normalized form D_dagger(p, q) = q * D(p, 1/q) is jointly convex in
(p, q) on p >= 0, q > 0, which is what makes the constant-power,
matched-bandwidth scheme a lower bound on any average distortion.  The
convexity itself is checked empirically here (chords plus
finite-difference Hessians) rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import ArrivalModel, AwgnChannel, SourceModel
from .numerics import Rng

__all__ = [
    "distortion",
    "d_dagger",
    "lower_bound",
    "ConvexityReport",
    "convexity_probe",
]


def _check_positive(name, x):
    if isinstance(x, np.ndarray):
        if not (x > 0.0).all():
            raise ValueError(f"{name} must be > 0 everywhere")
    elif not x > 0.0:
        raise ValueError(f"{name} must be > 0, got {x}")


def distortion(src: SourceModel, ch: AwgnChannel, p, kappa):
    """Distortion of the separation scheme at power p, mismatch kappa.

    Parameters
    ----------
    src, ch : source and channel models
    p : transmit power, >= 0 (scalar or array)
    kappa : channel uses per source symbol, > 0 (scalar or array)

    Returns
    -------
    float or array
        ``src.rate_inverse(kappa * ch.rate(p))``; equals ``src.d_max`` at
        p = 0 and 0 once ``kappa * ch.rate(p)`` reaches the source's rate
        threshold.
    """
    _check_positive("kappa", kappa)
    return src.rate_inverse(kappa * ch.rate(p))


def d_dagger(src: SourceModel, ch: AwgnChannel, p, q):
    """Normalized distortion D_dagger(p, q) = q * D(p, 1/q) for q > 0.

    p and q may be scalars or arrays, as for :func:`distortion`.
    """
    _check_positive("q", q)
    return q * distortion(src, ch, p, 1.0 / q)


def lower_bound(
    src: SourceModel, ch: AwgnChannel, arrivals: ArrivalModel, capacity: float
) -> float:
    """Distortion floor for any policy on a battery of the given capacity.

    The long-run average power available to any policy is at most the
    delivered harvest rate (delta/lam) * (1 - exp(-lam * capacity)) —
    arrivals overshooting the capacity are clipped — and joint convexity
    of D_dagger turns that power budget into the bound
    D_dagger(p_avg, 1).  Independent of the leakage model (leakage only
    reduces what is actually available).
    """
    if not capacity > 0.0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    # at capacity inf the delivered share -expm1(-inf) is exactly 1
    p_avg = arrivals.mean_harvest_rate * (-math.expm1(-arrivals.lam * capacity))
    return d_dagger(src, ch, p_avg, 1.0)


@dataclass
class ConvexityReport:
    """Outcome of a randomized convexity probe of D_dagger.

    Violations are recorded (with their witness points), never raised, so
    a failing probe can be inspected.
    """

    chord_checks: int = 0
    hessian_checks: int = 0
    chord_violations: list = field(default_factory=list)
    hessian_violations: list = field(default_factory=list)

    @property
    def violations(self) -> int:
        return len(self.chord_violations) + len(self.hessian_violations)

    @property
    def passed(self) -> bool:
        return self.violations == 0


_P_HI, _Q_HI = 10.0, 5.0  # convexity_probe draws from (0, _P_HI] x (0, _Q_HI]

# FD Hessians are meaningless where D_dagger has a kink (the
# zero-distortion boundary kappa*R_c = R_s^th), where curvature
# concentrates as D -> 0 (truncation error explodes), and where the
# determinant degenerates (p -> 0), so those checks carry margins; the
# chord test covers the full box, kink included.
_BOUNDARY_MARGIN = 1e-3   # rate-units distance from kappa*R_c = R_s^th
_EDGE_MARGIN = 1e-2       # smallest p and q probed with a Hessian
_DISTORTION_FLOOR = 1e-2  # smallest D/d_max probed with a Hessian


def _hessian_eligible(src, ch, p, q, hp, hq):
    # the samples (arrays) whose Hessian stencil is strictly interior
    ok = (p - hp > 0.0) & (q - hq > 0.0) & (p >= _EDGE_MARGIN) & (q >= _EDGE_MARGIN)
    ok[ok] = distortion(src, ch, p[ok], 1.0 / q[ok]) >= _DISTORTION_FLOOR * src.d_max
    if math.isinf(src.rate_threshold):
        return ok
    # every stencil corner must also sit strictly inside the
    # positive-distortion region, else the stencil straddles the kink
    p, q, hp, hq = p[ok], q[ok], hp[ok], hq[ok]
    inside = np.ones(p.shape, dtype=bool)
    for pp in (p - hp, p, p + hp):
        for qq in (q - hq, q, q + hq):
            inside &= ch.rate(pp) / qq <= src.rate_threshold - _BOUNDARY_MARGIN
    ok[ok] = inside
    return ok


def convexity_probe(
    src: SourceModel,
    ch: AwgnChannel,
    samples: int,
    seed: int = 0,
) -> ConvexityReport:
    """Randomized chord and Hessian checks of D_dagger's joint convexity.

    For each of ``samples`` draws: two points in (0, 10] x (0, 5] and
    a mixing weight t get a chord check

        D_dagger(t*a + (1-t)*b) <= t*D_dagger(a) + (1-t)*D_dagger(b) + 1e-9,

    and the first point, when strictly interior (clear of the
    zero-distortion kink and of the degenerate p, q -> 0 edges), gets a
    central finite-difference Hessian check: leading minor and determinant
    both positive (Sylvester).

    The draws are one ``(samples, 5)`` block from ``Rng(seed)``,
    the stream of one 5-draw per sample, and every check runs on arrays:
    D_dagger is evaluated in a dozen array calls, whatever ``samples``.

    Returns a :class:`ConvexityReport`; violations are recorded with their
    witness points, in sample order, rather than raised.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    u = Rng(seed).uniform(size=(samples, 5))
    p1, p2 = (1.0 - u[:, 0]) * _P_HI, (1.0 - u[:, 1]) * _P_HI
    q1, q2 = (1.0 - u[:, 2]) * _Q_HI, (1.0 - u[:, 3]) * _Q_HI
    t = u[:, 4]
    f = lambda p, q: d_dagger(src, ch, p, q)
    lhs = f(t * p1 + (1 - t) * p2, t * q1 + (1 - t) * q2)
    rhs = t * f(p1, q1) + (1 - t) * f(p2, q2)
    rep = ConvexityReport(chord_checks=samples)
    for i in np.flatnonzero(lhs > rhs + 1e-9):
        rep.chord_violations.append({
            "p1": float(p1[i]), "q1": float(q1[i]), "p2": float(p2[i]),
            "q2": float(q2[i]), "t": float(t[i]), "gap": float(lhs[i] - rhs[i]),
        })

    hp = 1e-4 * np.maximum(1.0, np.abs(p1))
    hq = 1e-4 * np.maximum(1.0, np.abs(q1))
    ok = _hessian_eligible(src, ch, p1, q1, hp, hq)
    p, q, hp, hq = p1[ok], q1[ok], hp[ok], hq[ok]
    rep.hessian_checks = p.size
    centre = f(p, q)
    fpp = (f(p + hp, q) - 2 * centre + f(p - hp, q)) / (hp * hp)
    fqq = (f(p, q + hq) - 2 * centre + f(p, q - hq)) / (hq * hq)
    fpq = (
        f(p + hp, q + hq)
        - f(p + hp, q - hq)
        - f(p - hp, q + hq)
        + f(p - hp, q - hq)
    ) / (4 * hp * hq)
    det = fpp * fqq - fpq * fpq
    for i in np.flatnonzero(~((fpp > 0.0) & (det > 0.0))):
        rep.hessian_violations.append(
            {"p": float(p[i]), "q": float(q[i]), "fpp": float(fpp[i]), "det": float(det[i])}
        )
    return rep
