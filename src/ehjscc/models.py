"""Source, channel, leakage and energy-arrival models.

Sources are rate-distortion descriptions R_s(D); the channel is a
power-to-rate map R_c(p).  Both expose first and second derivatives and
exact inverses so the policy layer can differentiate through them.  All
rates are in bits (base-2 logarithms throughout: the source and channel
rates must share a base for the mismatch factor to be dimensionless, and
the closed forms used in testing are written base 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "binary_entropy",
    "GaussianSource",
    "BernoulliSource",
    "SourceModel",
    "AwgnChannel",
    "ZeroLeakage",
    "IncreasingLeakage",
    "DecreasingLeakage",
    "ConstantLeakage",
    "TabulatedLeakage",
    "LeakageModel",
    "ArrivalModel",
    "SystemConfig",
]

_LN2 = math.log(2.0)

# The rate maps take a scalar or a NumPy array, which goes through NumPy
# elementwise.  _check states each domain rule once for both: an array
# fails if any entry breaks it, and NaN breaks every rule.  A scalar
# keeps a float path only where it is computed differently: math.log2
# and the Gaussian inverse's special cases.  The Bernoulli inverse has no
# closed form; its one NumPy kernel takes scalars as NumPy scalars.


def _check(x, ok, rule, *args):
    # raise unless ok, the rule's truth at x (one per entry of an array);
    # the message, rule formatted with args, is built only then
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        rule = rule.format(*args)
        raise ValueError(f"{rule} everywhere" if isinstance(x, np.ndarray) else f"{rule}, got {x}")


def _check_distortion(d):
    _check(d, d >= 0.0, "distortion must be >= 0")


def _check_level(d, d_max):
    # the open range on which R_s is differentiable
    _check(d, (d > 0.0) & (d < d_max), "need 0 < d < {}", d_max)


def _check_rate(r):
    _check(r, r >= 0.0, "rate must be >= 0")


def _check_power(p):
    _check(p, p >= 0.0, "power must be >= 0")


def binary_entropy(d: float) -> float:
    """H(d) = -d*log2(d) - (1-d)*log2(1-d), with 0*log(0) := 0."""
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"binary entropy needs d in [0, 1], got {d}")
    if d == 0.0 or d == 1.0:
        return 0.0
    # log1p(-d), not log2 of the rounded 1 - d, which loses the digits
    # of the second term for small d
    return -(d * math.log2(d) + (1.0 - d) * math.log1p(-d) / _LN2)


# H^-1 by Newton (see _entropy_inverse): the least entropy inverted, so
# that d stays normal; the series of y^2 in w that starts the upper
# regime; the steps that reach rounding from the two starts
_LEAST_ENTROPY = binary_entropy(1e-300)
_UPPER_SERIES = (-5.0 / 1512.0, -1.0 / 90.0, -1.0 / 6.0, 1.0)
_UPPER_STEPS = 2
_LOWER_STEPS = 3


def _entropy_inverse(t, d_max: float):
    """The d in (0, d_max] with H(d) = t, for t <= H(d_max) (array or float64).

    Newton in two regimes, each in a variable in which its equation is
    nearly linear, for a fixed number of steps:

    - t > 1/2: in y = 1 - 2d on sqrt(Q(y)) = sqrt(w), where
      Q(y) = ln(1 - y^2) + 2y*atanh(y) = 2 ln2 (1 - H(d)) and
      w = 2 ln2 (1 - t).  Q(y) = y^2 + y^4/6 + y^6/15 + ..., so sqrt(Q)
      is near-linear in y, and Q has no cancellation near the flat top
      d = 1/2.  The start inverts that series to the w^4 term, within
      2e-4 in y; two steps reach rounding.
    - t <= 1/2: in x = ln d on ln H(d) = ln t, started from
      H(d) ~ d*(1 - ln d)/ln 2 inverted by two fixed-point iterations,
      within 0.03 in x; three steps reach rounding.

    sqrt(Q) is convex in y and ln H(e^x) concave in x, so from the first
    step on d rises monotonically to the root: no step leaves the
    bracket [0, d_max], and none needs a bisection to fall back on.  The
    start of the upper regime is clamped into the bracket, and the
    result to d_max against rounding at the root.  Targets below
    H(1e-300) are raised to it.  A scalar t comes here as a NumPy float64,
    which runs the same ufunc loops and IEEE arithmetic as an array entry,
    so it gets the same digits; it costs about a quarter of a one-entry
    array, whose every operation pays the array overhead.
    """
    t = np.maximum(t, _LEAST_ENTROPY)
    upper = t > 0.5
    count = np.count_nonzero(upper)
    if count == t.size:
        d = _inverse_upper(t, d_max)
    elif count == 0:
        d = _inverse_lower(t)
    else:
        d = np.empty_like(t)
        d[upper] = _inverse_upper(t[upper], d_max)
        d[~upper] = _inverse_lower(t[~upper])
    return np.minimum(d, d_max)


def _inverse_upper(t, d_max):
    w = (1.0 - t) * (2.0 * _LN2)
    a3, a2, a1, a0 = _UPPER_SERIES
    y = np.sqrt((((a3 * w + a2) * w + a1) * w + a0) * w)
    # y = 0 only at t = 1, where d = 1/2; a floor keeps atanh(y) from 0
    y = np.maximum(y, max(1.0 - 2.0 * d_max, 1e-300))
    root_w = np.sqrt(w)
    for _ in range(_UPPER_STEPS):
        at = np.arctanh(y)
        root_q = np.sqrt(np.log1p(-(y * y)) + (y + y) * at)
        # d sqrt(Q)/dy = atanh(y)/sqrt(Q)
        y = y - (root_q - root_w) * root_q / at
    return 0.5 * (1.0 - y)


def _inverse_lower(t):
    hn = t * _LN2   # the target in nats
    big = 1.0 - np.log(hn)
    d = hn / (big + np.log(big + np.log(big)))
    scale = -1.0 / hn
    for _ in range(_LOWER_STEPS):
        x = np.log(d)
        l1 = np.log1p(-d)
        m = d * x + (1.0 - d) * l1   # -H(d) in nats
        # d ln H/dx = d*(ln(1 - d) - ln d)/H
        d = d * np.exp(np.log(m * scale) * m / (d * (l1 - x)))
    return d


@dataclass(frozen=True)
class GaussianSource:
    """Gaussian source under squared error: R_s(D) = (1/2) log2(variance/D)."""

    variance: float

    def __post_init__(self):
        if not (self.variance > 0.0 and math.isfinite(self.variance)):
            raise ValueError(f"variance must be positive, got {self.variance}")

    @property
    def d_max(self) -> float:
        return self.variance

    @property
    def rate_threshold(self) -> float:
        # zero distortion needs unbounded rate for a continuous source
        return math.inf

    def rate(self, d: float) -> float:
        _check_distortion(d)
        if d == 0.0:
            return math.inf
        if d >= self.variance:
            return 0.0
        return 0.5 * math.log2(self.variance / d)

    def rate_derivatives(self, d):
        _check_level(d, self.d_max)
        return -1.0 / (2.0 * d * _LN2), 1.0 / (2.0 * d * d * _LN2)

    def rate_inverse(self, r):
        _check_rate(r)
        if isinstance(r, np.ndarray):
            return self.variance * np.exp2(-2.0 * r)
        if r == 0.0:
            return self.d_max
        if math.isinf(r):
            return 0.0
        return self.variance * 2.0 ** (-2.0 * r)


@dataclass(frozen=True)
class BernoulliSource:
    """Bernoulli(prob) source under Hamming distortion: R_s(D) = H(prob) - H(D)."""

    prob: float

    def __post_init__(self):
        if not 0.0 < self.prob < 1.0:
            raise ValueError(f"prob must be in (0, 1), got {self.prob}")

    @property
    def d_max(self) -> float:
        return min(self.prob, 1.0 - self.prob)

    @property
    def rate_threshold(self) -> float:
        return binary_entropy(self.prob)

    def rate(self, d: float) -> float:
        _check_distortion(d)
        if d >= self.d_max:
            return 0.0
        return self.rate_threshold - binary_entropy(d)

    def rate_derivatives(self, d):
        _check_level(d, self.d_max)
        log2 = np.log2 if isinstance(d, np.ndarray) else math.log2
        return log2(d / (1.0 - d)), 1.0 / (d * (1.0 - d) * _LN2)

    def rate_inverse(self, r):
        """The distortion at rate r (scalar or array), d_max at r = 0.

        Inverts H on (0, d_max] at t = H(prob) - r: H is strictly
        increasing there and H(d_max) = H(prob).  Newton in one array
        kernel (:func:`_entropy_inverse`), which scalars pass through as
        NumPy scalars, so both give the same digits.  The result is
        within 1.2e-15 relative of a 50-digit inverse of H at t, over
        t in [1e-297, 1]; the most, 9 units in the last place, is just
        above t = 1/2, where d = (1 - y)/2 rounds.  Rates at or above
        H(prob) give 0.  Near the flat top of H at prob = 0.5 the
        rounding of t = H(prob) - r itself bounds how well d is
        determined, and rate_inverse(rate(d)) is off by the rounding of
        ``rate`` divided by H'(d).  Raises ValueError on a negative or
        NaN rate.
        """
        _check_rate(r)
        if isinstance(r, np.ndarray):
            d = _entropy_inverse(self.rate_threshold - r, self.d_max)
            d = np.where(r >= self.rate_threshold, 0.0, d)
            return np.where(r == 0.0, self.d_max, d)
        if r == 0.0:
            return self.d_max
        if r >= self.rate_threshold:
            return 0.0
        return float(_entropy_inverse(np.float64(self.rate_threshold - r), self.d_max))


SourceModel = Union[GaussianSource, BernoulliSource]


@dataclass(frozen=True)
class AwgnChannel:
    """Average-power-constrained Gaussian channel: R_c(p) = (1/2) log2(1 + p/noise)."""

    noise: float

    def __post_init__(self):
        if not (self.noise > 0.0 and math.isfinite(self.noise)):
            raise ValueError(f"noise must be positive, got {self.noise}")

    def rate(self, p):
        _check_power(p)
        log2 = np.log2 if isinstance(p, np.ndarray) else math.log2
        return 0.5 * log2(1.0 + p / self.noise)

    def rate_derivatives(self, p):
        _check_power(p)
        denom = self.noise + p
        first = 1.0 / (2.0 * _LN2 * denom)
        second = -1.0 / (2.0 * _LN2 * denom * denom)
        return first, second


# ---------------------------------------------------------------------------
# Leakage
# ---------------------------------------------------------------------------
#
# Leakage is a charge-dependent drain rate ell(z) >= 0, bounded on (0, L].
# The storage dynamics only ever evaluate it for z > 0; an empty battery
# loses nothing, so the drain rate at z = 0 is zero by convention
# regardless of the model's limit from above.

def _check_charge(z):
    _check(z, np.asarray(z) >= 0.0, "charge must be >= 0")


@dataclass(frozen=True)
class ZeroLeakage:
    def rate(self, z):
        _check_charge(z)
        return np.zeros_like(z, dtype=float) if np.ndim(z) else 0.0


@dataclass(frozen=True)
class IncreasingLeakage:
    """ell(z) = 1 - exp(-z): loss grows with the stored charge."""

    def rate(self, z):
        _check_charge(z)
        out = -np.expm1(-np.asarray(z, dtype=float))
        return out if np.ndim(z) else float(out)


@dataclass(frozen=True)
class DecreasingLeakage:
    """ell(z) = exp(-z): loss is worst right after depletion."""

    def rate(self, z):
        _check_charge(z)
        out = np.exp(-np.asarray(z, dtype=float))
        return out if np.ndim(z) else float(out)


@dataclass(frozen=True)
class ConstantLeakage:
    """ell(z) = 1."""

    def rate(self, z):
        _check_charge(z)
        return np.ones_like(z, dtype=float) if np.ndim(z) else 1.0


@dataclass(frozen=True)
class TabulatedLeakage:
    """Linear interpolation of a (charge, rate) table.

    Extrapolation is constant on both sides (the right edge keeps the
    table bounded, as required of any leakage model).
    """

    charges: tuple
    rates: tuple

    def __post_init__(self):
        zs = np.asarray(self.charges, dtype=float)
        vs = np.asarray(self.rates, dtype=float)
        if zs.ndim != 1 or zs.shape != vs.shape or zs.size < 2:
            raise ValueError("need matching 1-d tables with at least two rows")
        if np.any(np.diff(zs) <= 0.0):
            raise ValueError("table charges must be strictly increasing")
        if np.any(zs < 0.0) or np.any(vs < 0.0) or not np.all(np.isfinite(vs)):
            raise ValueError("table entries must be finite and non-negative")
        object.__setattr__(self, "charges", tuple(float(z) for z in zs))
        object.__setattr__(self, "rates", tuple(float(v) for v in vs))

    def rate(self, z):
        _check_charge(z)
        out = np.interp(np.asarray(z, dtype=float), self.charges, self.rates)
        return out if np.ndim(z) else float(out)


LeakageModel = Union[
    ZeroLeakage, IncreasingLeakage, DecreasingLeakage, ConstantLeakage, TabulatedLeakage
]


@dataclass(frozen=True)
class ArrivalModel:
    """Compound Poisson energy arrivals.

    Packets arrive at Poisson rate ``delta`` (events per unit time) and
    carry Exp(``lam``) energy, so the mean harvest rate is delta/lam.
    """

    delta: float
    lam: float

    def __post_init__(self):
        # delta = 0 (arrivals switched off) is a meaningful degenerate case
        # for drain-only simulation runs
        if not (self.delta >= 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be non-negative, got {self.delta}")
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lam must be positive, got {self.lam}")

    @property
    def mean_harvest_rate(self) -> float:
        return self.delta / self.lam


@dataclass(frozen=True)
class SystemConfig:
    """Battery-side description: arrivals, leakage, capacity, startup power.

    ``p0plus`` is the power prescribed just above the empty state; policies
    are anchored to it as their initial condition.  Capacity may be
    ``math.inf`` for the unbounded-storage analyses.
    """

    arrivals: ArrivalModel
    leakage: LeakageModel = field(default_factory=ZeroLeakage)
    capacity: float = math.inf
    p0plus: float = 1e-3

    def __post_init__(self):
        if not self.capacity > 0.0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        if not (self.p0plus > 0.0 and math.isfinite(self.p0plus)):
            raise ValueError(f"p0plus must be positive, got {self.p0plus}")
