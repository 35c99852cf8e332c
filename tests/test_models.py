"""Tests for the source / channel / leakage / arrival models."""

import decimal
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


def _entropy_reference(d):
    # H(d) to 50 digits in decimal; ln(1 - d) by its series below 1e-3,
    # where 1 - d itself would round the d away
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        x = decimal.Decimal(d)
        if x > decimal.Decimal("1e-3"):
            ln_rest = (1 - x).ln()
        else:
            ln_rest, term, k = decimal.Decimal(0), x, 1
            while term > x * decimal.Decimal("1e-55"):
                ln_rest -= term / k
                term *= x
                k += 1
        return -(x * x.ln() + (1 - x) * ln_rest) / decimal.Decimal(2).ln()


def test_entropy_is_accurate_to_a_few_ulps_down_to_tiny_d():
    # the (1 - d) term matters to the last digits for every d: at
    # d = 1e-17 it is 2.5% of H, and log2 of the rounded 1 - d loses it
    for d in np.logspace(-300.0, math.log10(0.5), 400):
        ref = _entropy_reference(float(d))
        err = abs(decimal.Decimal(binary_entropy(float(d))) - ref)
        assert err <= 4 * decimal.Decimal(math.ulp(float(ref))), d


def test_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


# ---------------------------------------------------------------------------
# rate-distortion curves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("prob", [0.0, 1.0, math.nan])
def test_bernoulli_source_rejects_a_degenerate_prob(prob):
    with pytest.raises(ValueError, match="prob must be in"):
        BernoulliSource(prob=prob)


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


def _entropy_array(d):
    # H(d) on an array of d in (0, 1), its second term through log1p
    return -(d * np.log2(d) + (1.0 - d) * np.log1p(-d) / math.log(2.0))


def _bisection_inverse(src, r):
    """The bisection the Newton kernel replaced: the reference.

    Halves [1e-300, d_max] until its width is 1e-15 relative to its upper
    end, about 54 times.  Its entropy takes ln(1 - d) by log1p, where the
    old one took log2 of the rounded 1 - d: that form is off by up to
    ~1e-16/d relative in its second term, 2.4% of H at d ~ 1e-18, which
    would be the reference's error, not the kernel's.
    """
    target = src.rate_threshold - r
    lo = np.full(r.shape, 1e-300)
    # entries set to d_max or 0 below start closed
    hi = np.where((r > 0.0) & (r < src.rate_threshold), src.d_max, lo)
    for _ in range(200):
        open_ = hi - lo > 1e-15 * hi
        if not open_.any():
            break
        mid = 0.5 * (lo + hi)
        below = _entropy_array(mid) < target
        lo = np.where(open_ & below, mid, lo)
        hi = np.where(open_ & ~below, mid, hi)
    d = 0.5 * (lo + hi)
    d = np.where(r >= src.rate_threshold, 0.0, d)
    return np.where(r == 0.0, src.d_max, d)


def _rates_with_ends(src, n=760):
    # rates across [0, H(prob)] and within 1e-17 to 1e-9 of either end
    ends = np.geomspace(1e-17, 1e-9, 20)
    top = src.rate_threshold
    return np.concatenate((np.linspace(0.0, top, n), ends, top - ends))


@pytest.mark.parametrize("prob", [0.05, 0.2, 0.45, 0.4999, 0.5])
def test_bernoulli_inverse_matches_the_bisection(prob):
    # d within 1e-13 relative where H is not flat, H(d) within 1e-15
    # everywhere: near the flat top of H at prob ~ 0.5 both methods are
    # bounded by the rounding of t = H(prob) - r, so they are compared on H
    src = BernoulliSource(prob=prob)
    r = _rates_with_ends(src)
    assert r.size == 800
    got, want = src.rate_inverse(r), _bisection_inverse(src, r)
    inside = (want > 0.0) & (want < 0.5)
    assert np.array_equal(got > 0.0, want > 0.0)
    d, ref = got[inside], want[inside]
    steep = np.log2((1.0 - ref) / ref) >= 0.1
    assert steep.sum() > 700
    assert np.max(np.abs(d - ref)[steep] / ref[steep]) <= 1e-13
    assert np.max(np.abs(_entropy_array(d) - _entropy_array(ref))) <= 1e-15


def test_bernoulli_inverse_scalar_and_array_agree_at_the_ends():
    # scalars run through the kernel as NumPy scalars, so every digit
    # agrees, also where the old scalar loop stopped short of the array
    # bisection (0.4999999956 against 0.5 at r = 1e-17)
    for prob in (0.05, 0.2, 0.45, 0.4999, 0.5):
        src = BernoulliSource(prob=prob)
        r = _rates_with_ends(src, n=40)
        got = src.rate_inverse(r)
        assert np.array_equal(got, [src.rate_inverse(float(x)) for x in r])
        assert np.all((got >= 0.0) & (got <= src.d_max))
    assert BERN.rate_inverse(1e-17) == 0.5 == BERN.rate_inverse(np.array([1e-17]))[0]


def test_inverse_rejects_nan_rates():
    for src in SOURCES:
        with pytest.raises(ValueError):
            src.rate_inverse(math.nan)
        with pytest.raises(ValueError):
            src.rate_inverse(np.array([0.1, math.nan]))


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
