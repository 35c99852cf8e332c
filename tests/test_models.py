"""Tests for the source / channel / leakage / arrival models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehjscc.models import (
    ArrivalModel,
    AwgnChannel,
    BernoulliSource,
    ConstantLeakage,
    DecreasingLeakage,
    GaussianSource,
    IncreasingLeakage,
    SystemConfig,
    TabulatedLeakage,
    ZeroLeakage,
    binary_entropy,
)

GAUSS = GaussianSource(variance=1.0)
BERN = BernoulliSource(prob=0.5)
SOURCES = [GAUSS, GaussianSource(variance=2.5), BERN, BernoulliSource(prob=0.2)]


# ---------------------------------------------------------------------------
# binary entropy
# ---------------------------------------------------------------------------

def test_entropy_endpoints_and_max():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    # [TRIVIAL] hand value: H(0.11) = 0.11*log2(1/0.11) + 0.89*log2(1/0.89)
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-14)


@given(st.floats(min_value=1e-12, max_value=0.5))
def test_entropy_symmetry(d):
    assert binary_entropy(d) == pytest.approx(binary_entropy(1.0 - d), rel=1e-12)


def test_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


# ---------------------------------------------------------------------------
# rate-distortion curves
# ---------------------------------------------------------------------------

def test_gaussian_rate_values():
    # [TRIVIAL] 1/2 log2(1/0.25) = 1 bit
    assert GAUSS.rate(0.25) == pytest.approx(1.0, abs=1e-15)
    assert GAUSS.rate(GAUSS.d_max) == 0.0
    assert GAUSS.rate(2.0) == 0.0
    assert GAUSS.rate(0.0) == math.inf
    assert GAUSS.rate_threshold == math.inf


def test_bernoulli_rate_values():
    # rate at zero distortion is the source entropy, and d_max = min(p, 1-p)
    assert BERN.rate(0.0) == pytest.approx(1.0, abs=1e-15)
    assert BERN.rate_threshold == pytest.approx(1.0, abs=1e-15)
    assert BERN.d_max == 0.5
    b = BernoulliSource(prob=0.2)
    assert b.d_max == pytest.approx(0.2)
    assert b.rate_threshold == pytest.approx(0.7219280948873623, abs=1e-14)
    assert b.rate(0.3) == 0.0  # beyond d_max


def test_rate_rejects_negative_distortion():
    for src in SOURCES:
        with pytest.raises(ValueError):
            src.rate(-1e-9)


def test_monotone_decreasing_and_convex():
    # [S-properties] on 1000 random points per source: R_s strictly
    # decreasing and strictly convex inside (0, d_max)
    rng = np.random.default_rng(7)
    for src in SOURCES:
        d = np.sort(rng.uniform(1e-6, src.d_max * (1 - 1e-9), size=1000))
        r = np.array([src.rate(x) for x in d])
        assert np.all(np.diff(r) < 0.0)
        second = np.array([src.rate_derivatives(x)[1] for x in d])
        assert np.all(second > 0.0)
        first = np.array([src.rate_derivatives(x)[0] for x in d])
        assert np.all(first < 0.0)
        assert np.all(np.diff(first) > 0.0)  # derivative increasing <=> convex


def test_continuity_at_d_max():
    for src in SOURCES:
        eps = src.d_max * 1e-12
        assert src.rate(src.d_max - eps) == pytest.approx(0.0, abs=1e-10)
        assert src.rate(src.d_max) == 0.0


def test_slope_diverges_near_zero_distortion():
    # Gaussian slope blows up like -1/(2 D ln2); the Bernoulli slope only
    # diverges logarithmically, so the magnitude check differs per source.
    assert GAUSS.rate_derivatives(1e-8)[0] < -1e6
    assert GaussianSource(variance=3.0).rate_derivatives(9e-8)[0] < -1e6
    assert BERN.rate_derivatives(1e-300)[0] < -900.0
    d = np.logspace(-250, -1, 50)
    slopes = [BERN.rate_derivatives(x)[0] for x in d]
    assert np.all(np.diff(slopes) > 0.0)  # still monotone toward -inf


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(11)
    for src in SOURCES:
        for d in rng.uniform(0.05 * src.d_max, 0.95 * src.d_max, size=40):
            h = 1e-6 * d
            fd1 = (src.rate(d + h) - src.rate(d - h)) / (2 * h)
            # second difference needs a wider step or round-off dominates
            g = 1e-4 * d
            fd2 = (src.rate(d + g) - 2 * src.rate(d) + src.rate(d - g)) / (g * g)
            r1, r2 = src.rate_derivatives(d)
            assert r1 == pytest.approx(fd1, rel=1e-6)
            assert r2 == pytest.approx(fd2, rel=1e-4)


def test_derivatives_domain():
    for src in SOURCES:
        with pytest.raises(ValueError):
            src.rate_derivatives(0.0)
        with pytest.raises(ValueError):
            src.rate_derivatives(src.d_max)


# ---------------------------------------------------------------------------
# rate inverses
# ---------------------------------------------------------------------------

def test_inverse_round_trip():
    # rate(rate_inverse(r)) == r to 1e-10 over the whole operating range
    rng = np.random.default_rng(13)
    for src in SOURCES:
        if math.isinf(src.rate_threshold):
            rates = rng.uniform(1e-6, 30.0, size=1000)
        else:
            rates = rng.uniform(1e-6, src.rate_threshold * (1 - 1e-9), size=1000)
        for r in rates:
            d = src.rate_inverse(r)
            assert 0.0 < d < src.d_max
            assert src.rate(d) == pytest.approx(r, abs=1e-10)


def test_inverse_edge_cases():
    for src in SOURCES:
        assert src.rate_inverse(0.0) == src.d_max
        with pytest.raises(ValueError):
            src.rate_inverse(-1e-12)
    assert BERN.rate_inverse(1.0) == 0.0
    assert BERN.rate_inverse(5.0) == 0.0
    assert GAUSS.rate_inverse(math.inf) == 0.0


def test_bernoulli_inverse_oracle_values():
    # [DERIVED] bisection on H(D) = H(p) - r, frozen from an independent run
    assert BERN.rate_inverse(0.35342) == pytest.approx(0.16518899207619595, abs=1e-12)
    b = BernoulliSource(prob=0.2)
    assert b.rate_inverse(0.3) == pytest.approx(0.08569308013268963, abs=1e-12)


@given(st.floats(min_value=1e-4, max_value=0.4999))
@settings(max_examples=200)
def test_bernoulli_inverse_is_inverse(d):
    assert BERN.rate_inverse(BERN.rate(d)) == pytest.approx(d, rel=1e-9, abs=1e-12)


def test_bernoulli_inverse_is_relatively_accurate_at_small_distortion():
    # the bisection stops at a width relative to the root, so small
    # distortions keep their digits (an absolute width of 1e-15 left
    # 3e-10 relative error at d = 1e-6); scalar and array paths agree bit
    # for bit.  prob = 0.5 stops short of d_max = 0.5, where H is flat
    # and the inversion is ill-conditioned
    for src, top in ((BERN, 0.499), (BernoulliSource(prob=0.2), 0.2 * (1.0 - 1e-9))):
        d = np.geomspace(1e-6, top, 400)
        r = np.array([src.rate(float(x)) for x in d])
        back = src.rate_inverse(r)
        assert np.array_equal(back, [src.rate_inverse(float(x)) for x in r])
        assert np.max(np.abs(back - d) / d) <= 1e-11


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

def test_channel_rate_values():
    ch = AwgnChannel(noise=1.0)
    assert ch.rate(0.0) == 0.0
    assert ch.rate(3.0) == pytest.approx(1.0, abs=1e-15)  # 1/2 log2(4)
    assert AwgnChannel(noise=0.5).rate(0.5) == pytest.approx(0.5, abs=1e-15)


def test_channel_monotone_concave():
    ch = AwgnChannel(noise=0.8)
    p = np.linspace(0.0, 50.0, 1000)
    r = np.array([ch.rate(x) for x in p])
    assert np.all(np.diff(r) > 0.0)
    first = np.array([ch.rate_derivatives(x)[0] for x in p])
    second = np.array([ch.rate_derivatives(x)[1] for x in p])
    assert np.all(first > 0.0)
    assert np.all(second < 0.0)
    assert np.all(np.diff(first) < 0.0)


def test_channel_derivatives_match_finite_differences():
    ch = AwgnChannel(noise=1.0)
    for p in [0.1, 1.0, 2.7, 10.0]:
        h = 1e-6 * max(1.0, p)
        fd1 = (ch.rate(p + h) - ch.rate(p - h)) / (2 * h)
        g = 1e-4 * max(1.0, p)
        fd2 = (ch.rate(p + g) - 2 * ch.rate(p) + ch.rate(p - g)) / (g * g)
        r1, r2 = ch.rate_derivatives(p)
        assert r1 == pytest.approx(fd1, rel=1e-6)
        assert r2 == pytest.approx(fd2, rel=1e-4)


def test_channel_domain():
    with pytest.raises(ValueError):
        AwgnChannel(noise=0.0)
    ch = AwgnChannel(noise=1.0)
    with pytest.raises(ValueError):
        ch.rate(-0.1)
    with pytest.raises(ValueError):
        ch.rate_derivatives(-0.1)


# ---------------------------------------------------------------------------
# leakage
# ---------------------------------------------------------------------------

def test_leakage_shapes():
    z = np.array([0.0, 0.5, 2.0])
    assert ZeroLeakage().rate(1.3) == 0.0
    np.testing.assert_allclose(ZeroLeakage().rate(z), [0, 0, 0])
    np.testing.assert_allclose(IncreasingLeakage().rate(z), 1.0 - np.exp(-z))
    np.testing.assert_allclose(DecreasingLeakage().rate(z), np.exp(-z))
    np.testing.assert_allclose(ConstantLeakage().rate(z), [1, 1, 1])
    assert isinstance(IncreasingLeakage().rate(0.5), float)


def test_leakage_monotonicity():
    z = np.linspace(0.0, 5.0, 200)
    assert np.all(np.diff(IncreasingLeakage().rate(z)) > 0.0)
    assert np.all(np.diff(DecreasingLeakage().rate(z)) < 0.0)


def test_tabulated_leakage_interp_and_extrapolation():
    tab = TabulatedLeakage(charges=(0.0, 1.0, 2.0), rates=(0.0, 0.5, 0.5))
    assert tab.rate(0.5) == pytest.approx(0.25)
    assert tab.rate(1.5) == pytest.approx(0.5)
    assert tab.rate(100.0) == pytest.approx(0.5)  # constant beyond the table
    np.testing.assert_allclose(tab.rate(np.array([0.0, 2.0])), [0.0, 0.5])


def test_tabulated_leakage_validation():
    with pytest.raises(ValueError):
        TabulatedLeakage(charges=(0.0,), rates=(0.0,))
    with pytest.raises(ValueError):
        TabulatedLeakage(charges=(0.0, 0.0), rates=(0.0, 1.0))
    with pytest.raises(ValueError):
        TabulatedLeakage(charges=(0.0, 1.0), rates=(0.0, -1.0))
    with pytest.raises(ValueError):
        TabulatedLeakage(charges=(0.0, 1.0), rates=(0.0, math.nan))


def test_leakage_rejects_negative_charge():
    for model in [ZeroLeakage(), IncreasingLeakage(), ConstantLeakage()]:
        with pytest.raises(ValueError):
            model.rate(-0.1)


# ---------------------------------------------------------------------------
# arrivals / system config
# ---------------------------------------------------------------------------

def test_arrival_model():
    arr = ArrivalModel(delta=0.6, lam=1.2)
    assert arr.mean_harvest_rate == pytest.approx(0.5)
    # arrivals switched off entirely is allowed (drain-only runs)
    assert ArrivalModel(delta=0.0, lam=1.0).mean_harvest_rate == 0.0
    with pytest.raises(ValueError):
        ArrivalModel(delta=-0.1, lam=1.0)
    with pytest.raises(ValueError):
        ArrivalModel(delta=1.0, lam=-1.0)


def test_system_config():
    arr = ArrivalModel(delta=1.0, lam=1.0)
    cfg = SystemConfig(arrivals=arr, capacity=5.0, p0plus=1e-3)
    assert isinstance(cfg.leakage, ZeroLeakage)
    inf_cfg = SystemConfig(arrivals=arr)   # unbounded storage is allowed
    assert math.isinf(inf_cfg.capacity)
    with pytest.raises(ValueError):
        SystemConfig(arrivals=arr, capacity=0.0)
    with pytest.raises(ValueError):
        SystemConfig(arrivals=arr, p0plus=0.0)


# ---------------------------------------------------------------------------
# array forms of the rate maps
# ---------------------------------------------------------------------------

def test_array_forms_match_scalar_forms():
    ch = AwgnChannel(noise=2.0)
    p = np.concatenate(([0.0], np.geomspace(1e-6, 1e4, 60)))
    assert np.allclose(ch.rate(p), [ch.rate(float(x)) for x in p], rtol=1e-15, atol=0.0)
    for got, want in zip(ch.rate_derivatives(p), zip(*[ch.rate_derivatives(float(x)) for x in p])):
        assert np.allclose(got, want, rtol=1e-15, atol=0.0)
    for src in (GAUSS, BERN, BernoulliSource(prob=0.2)):
        d = np.linspace(1e-6, src.d_max * (1.0 - 1e-9), 50)
        for got, want in zip(src.rate_derivatives(d),
                             zip(*[src.rate_derivatives(float(x)) for x in d])):
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)
        r = np.concatenate(([0.0], np.linspace(1e-3, 2.0, 50), [src.rate_threshold]))
        want = np.array([src.rate_inverse(float(x)) for x in r])
        assert np.allclose(src.rate_inverse(r), want, rtol=1e-13, atol=1e-15)


def test_array_forms_reject_out_of_domain_entries():
    with pytest.raises(ValueError):
        AwgnChannel(noise=1.0).rate(np.array([1.0, -1e-9]))
    with pytest.raises(ValueError):
        AwgnChannel(noise=1.0).rate_derivatives(np.array([-1.0]))
    with pytest.raises(ValueError):
        BERN.rate_derivatives(np.array([0.1, 0.5]))
    with pytest.raises(ValueError):
        GAUSS.rate_derivatives(np.array([0.0, 0.5]))
    for src in (GAUSS, BERN):
        with pytest.raises(ValueError):
            src.rate_inverse(np.array([0.5, -1.0]))
