"""Tests for the separation distortion map and convexity probes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehjscc.distortion import (
    _BOUNDARY_MARGIN,
    _DISTORTION_FLOOR,
    _EDGE_MARGIN,
    ConvexityReport,
    convexity_probe,
    d_dagger,
    distortion,
    lower_bound,
)
from ehjscc.models import ArrivalModel, AwgnChannel, BernoulliSource, GaussianSource
from ehjscc.numerics import Rng

GAUSS = GaussianSource(variance=1.0)
BERN = BernoulliSource(prob=0.5)
CH = AwgnChannel(noise=1.0)


# ---------------------------------------------------------------------------
# distortion map
# ---------------------------------------------------------------------------

def test_distortion_known_values():
    # [PAPER] Gaussian closed form: 1*(1+1)^{-1} = 0.5
    assert distortion(GAUSS, CH, p=1.0, kappa=1.0) == pytest.approx(0.5, abs=1e-12)
    # [TRIVIAL] zero power -> d_max, any kappa
    assert distortion(GAUSS, CH, p=0.0, kappa=5.0) == 1.0
    assert distortion(BERN, CH, p=0.0, kappa=3.0) == 0.5
    # [DERIVED] kappa*R_c(3) = 1 = H(1/2), exactly the rate threshold
    assert distortion(BERN, CH, p=3.0, kappa=1.0) == 0.0


def test_distortion_validates_kappa():
    with pytest.raises(ValueError):
        distortion(GAUSS, CH, p=1.0, kappa=0.0)
    with pytest.raises(ValueError):
        distortion(GAUSS, CH, p=1.0, kappa=-1.0)


def gaussian_distortion(variance: float, noise: float, p: float, kappa: float) -> float:
    """Closed form sigma^2 (1 + p/N)^(-kappa) for the Gaussian/AWGN pair.

    Kept as an independent path so the generic inversion route can be
    cross-checked against it.
    """
    if not kappa > 0.0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    if p < 0.0:
        raise ValueError(f"power must be >= 0, got {p}")
    return variance * (1.0 + p / noise) ** (-kappa)


def test_gaussian_dual_path_agreement():
    # generic inversion vs sigma^2 (1+p/N)^{-kappa}, 1e4 random pairs
    rng = np.random.default_rng(3)
    p = rng.uniform(0.0, 20.0, size=10_000)
    k = rng.uniform(0.05, 8.0, size=10_000)
    for variance, noise in [(1.0, 1.0), (2.5, 0.7)]:
        src = GaussianSource(variance=variance)
        ch = AwgnChannel(noise=noise)
        for pi, ki in zip(p, k):
            a = distortion(src, ch, pi, ki)
            b = gaussian_distortion(variance, noise, pi, ki)
            assert a == pytest.approx(b, rel=1e-10)


def test_distortion_monotone_in_power_and_mismatch():
    rng = np.random.default_rng(5)
    for src in [GAUSS, BERN]:
        for _ in range(300):
            p1, p2 = np.sort(rng.uniform(0.0, 10.0, size=2))
            k1, k2 = np.sort(rng.uniform(0.1, 5.0, size=2))
            k = rng.uniform(0.1, 5.0)
            p = rng.uniform(0.01, 10.0)
            assert distortion(src, CH, p2, k) <= distortion(src, CH, p1, k) + 1e-15
            assert distortion(src, CH, p, k2) <= distortion(src, CH, p, k1) + 1e-15


# ---------------------------------------------------------------------------
# normalized distortion
# ---------------------------------------------------------------------------

def test_d_dagger_values():
    assert d_dagger(GAUSS, CH, p=1.0, q=1.0) == pytest.approx(0.5, abs=1e-12)
    # [DERIVED] 2*(1+3)^{-1/2} = 1.0
    assert d_dagger(GAUSS, CH, p=3.0, q=2.0) == pytest.approx(1.0, abs=1e-12)
    assert d_dagger(GAUSS, CH, p=0.0, q=1.0) == GAUSS.d_max
    assert d_dagger(BERN, CH, p=0.0, q=1.0) == BERN.d_max
    with pytest.raises(ValueError):
        d_dagger(GAUSS, CH, p=1.0, q=0.0)


@given(
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=1e-2, max_value=5.0),
    st.floats(min_value=1e-2, max_value=5.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_d_dagger_chord_convexity_property(p, q1, q2, t):
    # convexity along a q-segment at fixed p (a slice of joint convexity)
    lhs = d_dagger(BERN, CH, p, t * q1 + (1 - t) * q2)
    rhs = t * d_dagger(BERN, CH, p, q1) + (1 - t) * d_dagger(BERN, CH, p, q2)
    assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# lower bound
# ---------------------------------------------------------------------------

def test_lower_bound_values():
    arr = ArrivalModel(delta=1.0, lam=1.0)
    # [DERIVED] 1/(2 - e^{-5}); table-reported value 0.5017
    lb = lower_bound(GAUSS, CH, arr, capacity=5.0)
    assert lb == pytest.approx(0.5016901809245156, abs=1e-12)
    assert lb == pytest.approx(0.5017, abs=1e-4)
    # [TRIVIAL] infinite battery: D_dagger(delta/lam, 1) = 1/(1+1)
    assert lower_bound(GAUSS, CH, arr, capacity=math.inf) == pytest.approx(0.5)
    # [DERIVED] binary source, L=1; table-reported value 0.1651
    lb1 = lower_bound(BERN, CH, arr, capacity=1.0)
    assert lb1 == pytest.approx(0.16520875310812125, abs=1e-10)
    assert lb1 == pytest.approx(0.1651, abs=1e-3)


def test_lower_bound_monotone_in_capacity():
    arr = ArrivalModel(delta=1.0, lam=1.0)
    for src in [GAUSS, BERN]:
        limit = lower_bound(src, CH, arr, capacity=math.inf)
        values = [lower_bound(src, CH, arr, capacity=float(L)) for L in range(1, 51)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        assert all(v >= limit - 1e-15 for v in values)
        assert values[-1] == pytest.approx(limit, abs=1e-12)  # e^{-50} is gone


def test_lower_bound_rejects_bad_capacity():
    arr = ArrivalModel(delta=1.0, lam=1.0)
    with pytest.raises(ValueError):
        lower_bound(GAUSS, CH, arr, capacity=0.0)


# ---------------------------------------------------------------------------
# convexity probe
# ---------------------------------------------------------------------------

def test_convexity_probe_gaussian():
    rep = convexity_probe(GAUSS, CH, samples=1000, seed=0)
    assert rep.chord_checks == 1000
    assert rep.hessian_checks > 500  # most of the box is strictly interior
    assert rep.passed
    assert rep.violations == 0


def test_convexity_probe_bernoulli_covers_zero_distortion_region():
    # the box (0,10]x(0,5] includes kappa*R_c >= H(1/2); chords must still hold
    rep = convexity_probe(BERN, CH, samples=1000, seed=1)
    assert rep.chord_checks == 1000
    assert rep.passed
    # the kink region really was sampled: some points had to be skipped
    assert rep.hessian_checks < rep.chord_checks


def test_convexity_probe_is_deterministic():
    a = convexity_probe(GAUSS, CH, samples=200, seed=9)
    b = convexity_probe(GAUSS, CH, samples=200, seed=9)
    assert (a.chord_checks, a.hessian_checks) == (b.chord_checks, b.hessian_checks)


def test_convexity_probe_validates_samples():
    with pytest.raises(ValueError):
        convexity_probe(GAUSS, CH, samples=0, seed=0)


def _scalar_hessian_eligible(src, ch, p, q, hp, hq):
    if p - hp <= 0.0 or q - hq <= 0.0:
        return False
    if p < _EDGE_MARGIN or q < _EDGE_MARGIN:
        return False
    if distortion(src, ch, p, 1.0 / q) < _DISTORTION_FLOOR * src.d_max:
        return False
    if math.isinf(src.rate_threshold):
        return True
    for pp in (p - hp, p, p + hp):
        for qq in (q - hq, q, q + hq):
            if ch.rate(pp) / qq > src.rate_threshold - _BOUNDARY_MARGIN:
                return False
    return True


def _scalar_convexity_probe(src, ch, samples, seed=0, p_hi=10.0, q_hi=5.0):
    # convexity_probe as it was, one sample and one scalar D_dagger at a
    # time: the reference of the array form
    rng = Rng(seed)
    rep = ConvexityReport()
    f = lambda p, q: d_dagger(src, ch, p, q)
    for _ in range(samples):
        u = rng.uniform(size=5)
        p1, p2 = (1.0 - u[0]) * p_hi, (1.0 - u[1]) * p_hi
        q1, q2 = (1.0 - u[2]) * q_hi, (1.0 - u[3]) * q_hi
        t = u[4]
        lhs = f(t * p1 + (1 - t) * p2, t * q1 + (1 - t) * q2)
        rhs = t * f(p1, q1) + (1 - t) * f(p2, q2)
        rep.chord_checks += 1
        if lhs > rhs + 1e-9:
            rep.chord_violations.append(
                {"p1": p1, "q1": q1, "p2": p2, "q2": q2, "t": t, "gap": lhs - rhs}
            )
        hp = 1e-4 * max(1.0, abs(p1))
        hq = 1e-4 * max(1.0, abs(q1))
        if not _scalar_hessian_eligible(src, ch, p1, q1, hp, hq):
            continue
        fpp = (f(p1 + hp, q1) - 2 * f(p1, q1) + f(p1 - hp, q1)) / (hp * hp)
        fqq = (f(p1, q1 + hq) - 2 * f(p1, q1) + f(p1, q1 - hq)) / (hq * hq)
        fpq = (
            f(p1 + hp, q1 + hq)
            - f(p1 + hp, q1 - hq)
            - f(p1 - hp, q1 + hq)
            + f(p1 - hp, q1 - hq)
        ) / (4 * hp * hq)
        det = fpp * fqq - fpq * fpq
        rep.hessian_checks += 1
        if not (fpp > 0.0 and det > 0.0):
            rep.hessian_violations.append({"p": p1, "q": q1, "fpp": fpp, "det": det})
    return rep


@pytest.mark.parametrize("src", [GAUSS, BERN], ids=["gaussian", "bernoulli"])
@pytest.mark.parametrize("seed", range(4))
def test_convexity_probe_matches_the_scalar_probe(src, seed):
    # the same draws, eligibility rule and checks on arrays: equal counts
    # and witness lists
    got = convexity_probe(src, CH, samples=1000, seed=seed)
    want = _scalar_convexity_probe(src, CH, samples=1000, seed=seed)
    assert (got.chord_checks, got.hessian_checks) == (want.chord_checks, want.hessian_checks)
    assert got.chord_violations == want.chord_violations
    assert got.hessian_violations == want.hessian_violations
    assert 0 < got.hessian_checks < got.chord_checks


def test_distortion_takes_arrays():
    p = np.array([0.0, 0.5, 3.0, 8.0])
    kappa = np.array([2.0, 1.0, 1.0, 0.25])
    for src in (GAUSS, BERN):
        want = [distortion(src, CH, float(a), float(k)) for a, k in zip(p, kappa)]
        assert np.allclose(distortion(src, CH, p, kappa), want, rtol=1e-14, atol=0.0)
        assert np.allclose(d_dagger(src, CH, p, 1.0 / kappa), 1.0 / kappa * np.array(want),
                           rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError):
        distortion(GAUSS, CH, p, np.array([1.0, 1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        d_dagger(GAUSS, CH, p, np.array([1.0, -1.0, 1.0, 1.0]))


def test_chord_equality_when_endpoints_coincide():
    # [TRIVIAL] degenerate chord: both endpoints the same point
    val = d_dagger(GAUSS, CH, 2.0, 1.5)
    t = 0.37
    mix = t * val + (1 - t) * val
    assert mix <= val + 1e-9
    assert mix == pytest.approx(val, abs=1e-12)
