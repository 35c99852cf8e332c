import ast
import decimal
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehjscc import numerics
from ehjscc.numerics import (
    ConvergenceError,
    Grid,
    SingularityError,
    _gauss_tables,
    cumulative_integral,
    discounted_tail,
    endpoint_root,
    find_minimum,
    find_root,
    integrate_autonomous,
    integrate_ode,
    lambert_wm1,
    Rng,
    quadrature,
)

INV_E = math.exp(-1.0)


# ---------------------------------------------------------------------------
# lambert_wm1
# ---------------------------------------------------------------------------

def test_lambert_branch_point_and_zero():
    assert lambert_wm1(-INV_E) == pytest.approx(-1.0, abs=1e-9)
    # W_-1 runs to -inf as x rises to 0, which is outside its domain
    assert lambert_wm1(-1e-300) < -690.0
    with pytest.raises(ValueError):
        lambert_wm1(0.0)


def test_lambert_defining_identity_spot_values():
    for x in [-0.3678, -0.25, -0.1, -1e-3, -1e-9]:
        w = lambert_wm1(x)
        assert w <= -1.0
        assert abs(w * math.exp(w) - x) <= 1e-12


def test_lambert_against_bisection_oracle():
    # frozen from a 200-step bisection on w*exp(w) = x over w in [-60, -1]
    assert lambert_wm1(-0.1) == pytest.approx(-3.577152063957297, abs=1e-11)
    w = lambert_wm1(-0.8738 / math.e)
    assert w == pytest.approx(-1.6129988464487552, abs=1e-11)
    # the quantity the Gaussian policy machinery extracts from this root
    assert math.exp(w + 1.0) == pytest.approx(0.5417, abs=2e-3)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-INV_E + 1e-12, max_value=-1e-12))
def test_lambert_m1_identity_property(x):
    w = lambert_wm1(x)
    assert w <= -1.0
    assert abs(w * math.exp(w) - x) <= 1e-12


def test_lambert_m1_monotone_decreasing():
    # W_-1 decreases on (-1/e, 0): check 1000 random ordered pairs
    rng = np.random.default_rng(1234)
    xs = -INV_E + (INV_E - 1e-9) * rng.random((1000, 2))
    for x1, x2 in xs:
        x1, x2 = min(x1, x2), max(x1, x2)
        if x1 == x2:
            continue
        assert lambert_wm1(x1) > lambert_wm1(x2)


def _lambert_m1_reference(x, w):
    # W_-1(x) to 50 digits, by Newton on w*exp(w) = x in decimal
    # arithmetic from the float w
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x, w = decimal.Decimal(x), decimal.Decimal(w)
        for _ in range(60):
            ew = w.exp()
            step = (w * ew - x) / (ew * (w + 1))
            w -= step
            if abs(step) <= abs(w) * decimal.Decimal("1e-50"):
                return w
    raise AssertionError(f"reference did not converge at x={x}")


def test_lambert_m1_is_relatively_accurate_down_to_tiny_arguments():
    # relative to the conditioning of W_-1, which grows as 1/|w + 1| at
    # the branch point: an absolute residual of 1e-12 says nothing once
    # |x| is below it
    rng = np.random.default_rng(20)
    xs = np.concatenate((
        -np.exp(rng.uniform(math.log(1e-300), -1.0, 300)),
        -INV_E + np.exp(rng.uniform(math.log(1e-15), math.log(0.3), 60)),
        [-1e-300, -1e-100, -1e-12, -5e-12, -1e-10, -1e-3 / math.e],
    ))
    for x in xs:
        w = lambert_wm1(x)
        ref = _lambert_m1_reference(x, w)
        err = abs(float((decimal.Decimal(w) - ref) / ref))
        assert err <= 8.0 * 2.0 ** -52 * (1.0 + 1.0 / max(abs(float(ref) + 1.0), 1e-300))


def test_lambert_m1_frozen_near_minus_1e_12():
    # [DERIVED] 50-digit W_-1, rounded to 20 digits
    assert lambert_wm1(-1e-12) == pytest.approx(-31.067172842017230863, rel=4e-16)
    assert lambert_wm1(-5e-12) == pytest.approx(-29.402668643921116899, rel=4e-16)


def test_lambert_domain_errors():
    with pytest.raises(ValueError):
        lambert_wm1(0.1)
    with pytest.raises(ValueError):
        lambert_wm1(-0.5)  # below -1/e
    for x in (-math.inf, math.nan):
        with pytest.raises(ValueError):
            lambert_wm1(x)


# ---------------------------------------------------------------------------
# find_root
# ---------------------------------------------------------------------------

def test_find_root_linear():
    r = find_root(lambda x: x - 2.0, 0.0, 5.0)
    assert r == pytest.approx(2.0, abs=1e-11)


def binary_entropy(d):
    if d in (0.0, 1.0):
        return 0.0
    return -d * math.log2(d) - (1.0 - d) * math.log2(1.0 - d)


def test_find_root_binary_entropy_gap():
    # rate gap of a fair binary source at 0.35342 bits: distortion ~0.1651
    g = lambda d: 1.0 - binary_entropy(d) - 0.35342
    r = find_root(g, 1e-9, 0.5 - 1e-9)
    assert r == pytest.approx(0.1651, abs=1e-3)


def test_find_root_matches_lambert():
    g = lambda w: w * math.exp(w) + 0.1
    r = find_root(g, -10.0, -1.0)
    assert r == pytest.approx(lambert_wm1(-0.1), abs=1e-9)


def test_find_root_idempotent():
    g = lambda x: math.cos(x) - x
    r1 = find_root(g, 0.0, 1.0)
    r2 = find_root(g, r1 - 1e-6, r1 + 1e-6)
    assert r2 == pytest.approx(r1, abs=1e-9)


def test_find_root_rejects_bad_bracket():
    with pytest.raises(ValueError, match="same sign"):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="lo < hi"):
        find_root(lambda x: x, 2.0, 1.0)
    with pytest.raises(ValueError, match="tol"):
        find_root(lambda x: x, -1.0, 1.0, tol=0.0)


def test_find_root_returns_an_exact_zero_at_either_end():
    assert find_root(lambda x: x, 0.0, 1.0) == 0.0
    assert find_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def counted(g):
    # g plus a list whose length is the number of evaluations
    calls = []

    def wrapped(x):
        calls.append(x)
        return g(x)

    return wrapped, calls


def assert_near_sign_change(g, r, tol):
    # r is a root, or one end of a sign change no wider than tol
    gr = g(r)
    assert gr == 0.0 or any(
        (g(x) > 0.0) != (gr > 0.0) for x in (r - tol, r + tol)
    )


@pytest.mark.parametrize("g, lo, hi, root", [
    (lambda x: math.cos(x) - x, 0.0, 1.0, 0.7390851332151607),
    (lambda w: w * math.exp(w) + 0.1, -10.0, -1.0, lambert_wm1(-0.1)),
    (lambda x: x**9 - 1e-9, 0.0, 1.0, 0.1),
])
def test_find_root_is_superlinear_on_smooth_roots(g, lo, hi, root):
    # bisection would take 40-43 evaluations to reach 1e-12 on these
    h, calls = counted(g)
    r = find_root(h, lo, hi, tol=1e-12)
    assert len(calls) <= 20
    assert r == pytest.approx(root, abs=1e-12)
    assert_near_sign_change(g, r, 1e-12)


def test_find_root_on_a_jump_is_no_slower_than_bisection():
    g = lambda x: math.copysign(1.0, x - 0.3)
    h, calls = counted(g)
    r = find_root(h, 0.0, 1.0, tol=1e-12)
    assert len(calls) <= math.ceil(math.log2(1.0 / 1e-12)) + 2
    assert r == pytest.approx(0.3, abs=1e-12)
    assert_near_sign_change(g, r, 1e-12)


@pytest.mark.parametrize("g, root", [
    # +inf past the admissible range, as the endpoint root's Phi is
    (lambda x: math.inf if x > 0.7 else x - 0.4123, 0.4123),
    # -inf below it, as an unusable probe of the beta search is
    (lambda x: -math.inf if x < 0.2 else math.exp(x) - 1.5, math.log(1.5)),
])
def test_find_root_takes_the_finite_side_root(g, root):
    r = find_root(g, 0.0, 1.0, tol=1e-12)
    assert r == pytest.approx(root, abs=1e-12)
    assert_near_sign_change(g, r, 1e-12)


def test_find_root_respects_max_iter(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_ITER", 3)
    h, calls = counted(lambda x: math.cos(x) - x)
    r = find_root(h, 0.0, 1.0, tol=1e-15)
    assert len(calls) == 2 + 3
    assert 0.0 <= r <= 1.0
    assert r == pytest.approx(0.7390851332151607, abs=1e-2)


# ---------------------------------------------------------------------------
# find_minimum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f, x_min", [
    (lambda x: (x - 0.3) ** 2, 0.3),
    (lambda x: math.cosh(x - 1.234), 1.234),
])
@pytest.mark.parametrize("tol", [1e-3, 1e-6])
def test_find_minimum_is_quick_on_smooth_minima(f, x_min, tol):
    # golden-section steps alone would need 16 and 31 here
    h, calls = counted(f)
    x = find_minimum(h, 0.0, 2.0, lambda x: tol)
    assert len(calls) <= 10
    assert abs(x - x_min) <= tol
    assert f(x) == min(f(c) for c in calls)


def test_find_minimum_stop_width_may_depend_on_the_point():
    # a width relative to the best point, as the constant-mismatch
    # tuner's is (12 evaluations measured)
    tol = lambda x: 1e-4 * x
    h, calls = counted(lambda x: math.exp(x) - 2.0 * x)
    x = find_minimum(h, 0.0, 4.0, tol)
    assert abs(x - math.log(2.0)) <= tol(x)
    assert len(calls) <= 15


def test_find_minimum_converges_onto_an_infinite_edge_from_the_finite_side():
    # +inf below 0.3, values falling toward it: the least finite value
    # lies on the edge, which golden steps close in on
    f = lambda x: math.inf if x < 0.3 else x
    x = find_minimum(f, 0.0, 1.0, lambda x: 1e-9)
    assert 0.3 <= x <= 0.3 + 1e-9


def test_find_minimum_terminates_when_everything_is_infinite(monkeypatch):
    h, calls = counted(lambda x: math.inf)
    x = find_minimum(h, 0.0, 1.0, lambda x: 1e-9)
    assert 0.0 < x < 1.0
    assert len(calls) <= 50
    monkeypatch.setattr(numerics, "_MAX_ITER", 7)
    h, calls = counted(lambda x: math.inf)
    find_minimum(h, 0.0, 1.0, lambda x: 1e-300)
    assert len(calls) == 1 + 7


def test_find_minimum_is_deterministic():
    f = lambda x: math.inf if x < 0.2 else (x - 0.5) ** 4 + 0.1 * math.sin(9.0 * x)
    runs = []
    for _ in range(2):
        h, calls = counted(f)
        runs.append((find_minimum(h, 0.0, 1.0, lambda x: 1e-8), calls))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# integrate_ode
# ---------------------------------------------------------------------------

def test_ode_constant_rhs():
    zs, ps = integrate_ode(lambda z, p: 0.0, 0.0, 1.0, 5.0)
    assert np.allclose(ps, 1.0)
    assert zs[-1] == pytest.approx(5.0)


def test_ode_exponential_decay():
    zs, ps = integrate_ode(lambda z, p: -p, 0.0, 1.0, 1.0)
    assert ps[-1] == pytest.approx(math.exp(-1.0), rel=1e-8)


def test_ode_exponential_decay_long_range_relative_accuracy():
    # relative-dominant error control holds 1e-8 relative accuracy even as
    # the solution decays through five orders of magnitude
    zs, ps = integrate_ode(lambda z, p: -p, 0.0, 1.0, 10.0,
                           sample_points=np.linspace(0.5, 10.0, 20),
                           atol=1e-16, rtol=1e-11)
    exact = np.exp(-zs)
    assert np.max(np.abs(ps - exact) / exact) <= 1e-8


def test_ode_sampling_hits_requested_points():
    pts = np.array([0.1, 0.25, 0.5, 1.0])
    zs, ps = integrate_ode(lambda z, p: -p, 0.0, 1.0, 1.0, sample_points=pts)
    assert np.array_equal(zs, np.concatenate(([0.0], pts)))
    assert np.allclose(ps, np.exp(-zs), rtol=1e-9)


def test_ode_singularity_carries_position():
    # blows up at z = 1: p' = p^2 from p(0)=1 has p = 1/(1-z)
    with pytest.raises(SingularityError) as exc:
        integrate_ode(lambda z, p: p * p, 0.0, 1.0, 2.0, rhs_cap=1e6)
    assert 0.9 < exc.value.z <= 1.05


def test_ode_halts_when_state_hits_zero():
    # p' = -1 crosses zero at z = 1; the reported z localizes the crossing
    with pytest.raises(SingularityError) as exc:
        integrate_ode(lambda z, p: -1.0, 0.0, 1.0, 2.0)
    assert exc.value.z == pytest.approx(1.0, abs=1e-6)


def test_ode_input_validation():
    with pytest.raises(ValueError):
        integrate_ode(lambda z, p: 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_ode(lambda z, p: 0.0, 0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        integrate_ode(lambda z, p: 0.0, 0.0, 1.0, 1.0,
                      sample_points=[0.5, 0.25])


# ---------------------------------------------------------------------------
# integrate_autonomous
# ---------------------------------------------------------------------------

def test_gauss_rule_matches_numpy():
    nodes, weights, _, _ = _gauss_tables()
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(8)
    assert np.max(np.abs(nodes - ref_nodes)) <= 1e-15
    assert np.max(np.abs(weights - ref_weights)) <= 1e-15


def _p_end(path):
    # p at z_end, the last knot of the path's panel rule
    return path.knots()[1][-1]


def test_autonomous_exponential_decay():
    # p' = -p: z(p) = -ln p exactly, through ten e-folds
    path = integrate_autonomous(lambda p: -p, 1.0, 10.0)
    z, p = path.knots()
    assert z[0] == 0.0 and z[-1] == 10.0
    assert np.max(np.abs(p / np.exp(-z) - 1.0)) <= 1e-13
    assert _p_end(path) == pytest.approx(math.exp(-10.0), rel=1e-13)


def test_autonomous_matches_rkf45_on_a_nonlinear_field():
    # p' = 1 + p^2 / 4 from 0.5 stays finite up to z = 2 (tan profile)
    rhs = lambda p: 1.0 + 0.25 * p * p
    path = integrate_autonomous(rhs, 0.5, 2.0)
    z, p = path.knots()
    exact = 2.0 * np.tan(z / 2.0 + math.atan(0.25))
    assert np.max(np.abs(p / exact - 1.0)) <= 1e-12
    _, ref = integrate_ode(lambda _, p: rhs(p), 0.0, 0.5, 2.0, sample_points=z[1:],
                           atol=1e-13, rtol=1e-12)
    assert np.max(np.abs(p / ref - 1.0)) <= 1e-10


def test_autonomous_fixed_point_is_constant():
    path = integrate_autonomous(lambda p: 1.0 - p, 1.0, 5.0)
    assert path.direction == 0.0
    z, p = path.knots()
    assert z[0] == 0.0 and z[-1] == 5.0
    assert np.all(p == 1.0)
    # evenly cut panels in z, no wider than the span asked for
    z, p = path.knots(0.5)
    assert z.size == 10 * 9 + 1 and np.all(p == 1.0)
    assert np.array_equal(z[::9], np.linspace(0.0, 5.0, 11))


def test_autonomous_settles_on_interior_equilibrium():
    # logistic growth p' = p (1 - p) from 0.01: p -> 1 without reaching it,
    # and once 1 - p underflows the state sits on the equilibrium
    path = integrate_autonomous(lambda p: p * (1.0 - p), 0.01, 60.0)
    z, p = path.knots()
    exact = 1.0 / (1.0 + 99.0 * np.exp(-z))
    assert np.max(np.abs(p / exact - 1.0)) <= 1e-12
    # past the last edge the knots are those of even panels at the equilibrium
    assert path.z_edges[-1] < 60.0 and z[-1] == 60.0
    assert _p_end(path) == pytest.approx(1.0, abs=1e-13)
    # approached from above as well
    down = integrate_autonomous(lambda p: 1.0 - p, 3.0, 50.0)
    z, p = down.knots()
    assert np.max(np.abs(p / (1.0 + 2.0 * np.exp(-z)) - 1.0)) <= 1e-12


def test_autonomous_blow_up_carries_position():
    # p' = p^2 from 1 is p = 1 / (1 - z), so |F| passes 1e9 at
    # z = 1 - 10**-4.5, where p = 10**4.5
    with pytest.raises(SingularityError) as exc:
        integrate_autonomous(lambda p: p * p, 1.0, 2.0)
    assert "blew up" in exc.value.message
    assert exc.value.z == pytest.approx(1.0 - 10.0 ** -4.5, rel=1e-9)
    assert exc.value.state == pytest.approx(10.0 ** 4.5, rel=1e-9)


def test_autonomous_vanishing_denominator_is_singular():
    # p' = 1/(2 - p) from 1: the denominator vanishes at p = 2, reached
    # at z = 1/2; a right-hand side flags it with +inf, and a pole it
    # steps over without flagging turns up as a blow-up of |F|
    def flagged(p):
        den = 2.0 - p
        return np.where(np.abs(den) < 1e-12, np.inf, 1.0 / den)

    for rhs in (flagged, lambda p: 1.0 / (2.0 - p)):
        with pytest.raises(SingularityError) as exc:
            integrate_autonomous(rhs, 1.0, 1.0)
        assert "blew up" in exc.value.message
        assert exc.value.z == pytest.approx(0.5, abs=1e-9)


def test_autonomous_state_reaching_zero_is_singular():
    # p' = -1 from 1 hits 0 at z = 1
    with pytest.raises(SingularityError) as exc:
        integrate_autonomous(lambda p: -np.ones_like(p), 1.0, 2.0)
    assert exc.value.message == "state reached 0"
    assert exc.value.z == pytest.approx(1.0, abs=1e-12)
    # p' = -p only tends to 0, so it is not singular
    path = integrate_autonomous(lambda p: -p, 1.0, 50.0)
    assert _p_end(path) == pytest.approx(math.exp(-50.0), rel=1e-12)


def test_autonomous_domain_exit_is_singular():
    # a right-hand side undefined past p = 3, reached at z = 2
    with pytest.raises(SingularityError) as exc:
        integrate_autonomous(lambda p: np.where(p < 3.0, 1.0, np.nan), 1.0, 5.0)
    assert "domain" in exc.value.message
    assert exc.value.z == pytest.approx(2.0, abs=1e-12)
    # the same right-hand side is fine while the path stays inside
    inside = integrate_autonomous(lambda p: np.where(p < 3.0, 1.0, np.nan), 1.0, 1.5)
    assert _p_end(inside) == pytest.approx(2.5, rel=1e-14)


def test_autonomous_undefined_start_is_singular_at_zero():
    with pytest.raises(SingularityError) as exc:
        integrate_autonomous(lambda p: np.full_like(p, np.nan), 1.0, 1.0)
    assert exc.value.z == 0.0


def test_autonomous_input_validation():
    for p0 in (0.0, -1.0, 1e-320, math.inf, math.nan):
        with pytest.raises(ValueError):
            integrate_autonomous(lambda p: p, p0, 1.0)
    with pytest.raises(ValueError):
        integrate_autonomous(lambda p: p, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_autonomous(lambda p: p, 1.0, math.inf)


def test_endpoint_root_on_a_closed_form():
    # F = c with c = closing(P) = P: p(z) = p0 + P z, so the path from 1
    # ends at P at z_end = 1/2 for P = 2, and it never reaches P at
    # z_end >= 1
    terms = lambda q: (np.zeros_like(q), np.ones_like(q))
    c, start = endpoint_root(terms, 1.0, lambda end: (end, 1.0), 1.0, 0.5)
    assert c == pytest.approx(2.0, rel=1e-11)
    f0, lefts, widths, g = start
    assert f0 == c
    assert lefts[0] == 0.0 and lefts[-1] < math.log(c) <= lefts[-1] + widths[-1]
    assert g.shape == (lefts.size, 9)
    path = integrate_autonomous(lambda p: np.full_like(p, c), 1.0, 0.5, start=start)
    assert _p_end(path) == pytest.approx(2.0, rel=1e-11)
    assert endpoint_root(terms, 1.0, lambda end: (end, 1.0), 1.0, 1.5) is None
    # den vanishing at p0 itself
    assert endpoint_root(lambda q: (np.ones_like(q), np.zeros_like(q)), 1.0,
                         lambda end: (end, 1.0), 1.0, 0.5) is None
    # a rising path from the top of the state range has no table
    assert endpoint_root(terms, 1.0, lambda end: (end, 1.0), 1e300, 0.5) is None
    # |F| = 1e10 past the blow-up cap: Phi is +inf within the first panel
    assert endpoint_root(terms, 1.0, lambda end: (1e10, 0.0), 1.0, 0.5) is None


def test_endpoint_root_on_a_closed_form_falling():
    # F = c with c = closing(P) = P - 3: from p0 = 1 the state falls, and
    # p(z) = 1 + c z ends at P = 1/3 at z_end = 1/4 for c = -8/3
    terms = lambda q: (np.zeros_like(q), np.ones_like(q))
    c, start = endpoint_root(terms, 1.0, lambda end: (end - 3.0, 1.0), 1.0, 0.25)
    assert c == pytest.approx(-8.0 / 3.0, rel=1e-11)
    f0, lefts, widths, g = start
    assert f0 == c
    assert lefts[-1] < math.log(3.0) <= lefts[-1] + widths[-1]
    path = integrate_autonomous(lambda p: np.full_like(p, c), 1.0, 0.25, start=start)
    assert _p_end(path) == pytest.approx(1.0 / 3.0, rel=1e-11)


def test_endpoint_root_takes_a_jump_in_phi_at_its_upper_side():
    # F = c with c = closing(P) = 1 below P = 2 and 1/2 from there:
    # Phi(P) = (P - 1)/c - 3/2 jumps from -1/2 to +1/2 at P = 2 without a
    # root, and the bracket closes on the jump's upper side
    terms = lambda q: (np.zeros_like(q), np.ones_like(q))
    trials = []

    def closing(end):
        trials.append(end)
        return (1.0 if end < 2.0 else 0.5), 0.0

    c, (f0, lefts, widths, g) = endpoint_root(terms, 1.0, closing, 1.0, 1.5)
    assert c == f0 == 0.5
    assert min(end for end in trials if end >= 2.0) <= 2.0 * (1.0 + 1e-10)
    assert lefts[-1] < math.log(2.0) <= lefts[-1] + widths[-1]


def test_endpoint_root_through_an_overflowing_table():
    # F = 2/p^44: z(P) = (P^45 - 1)/90, and dz/du = p^45/2 overflows to
    # +inf on the first stretch's last panels, so Phi at its end is +inf
    # and the root is found inside
    terms = lambda q: (np.zeros_like(q), q ** 44)
    c, start = endpoint_root(terms, 1.0, lambda end: (2.0, 0.0), 1.0, 1.0)
    assert c == 2.0
    end = 91.0 ** (1.0 / 45.0)
    path = integrate_autonomous(lambda p: 2.0 / p ** 44, 1.0, 1.0, start=start)
    assert _p_end(path) == pytest.approx(end, rel=1e-11)


# ---------------------------------------------------------------------------
# Grid / quadrature / cumulative_integral
# ---------------------------------------------------------------------------

def _panel_nodes(edges, bend=0.0):
    # the knots of panels between the edges, each mapped by the rising
    # quadratic z = a + (b - a) * ((1 - bend) s + bend s^2) of its share s
    # of the panel's width in t
    share = numerics._panel_tables()[0]
    s = (1.0 - bend) * share + bend * share ** 2
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1, None], edges[1:, None]
    return np.append((a + (b - a) * s).ravel(), edges[-1])


def test_grid_invariants():
    edges = np.concatenate(([0.0], np.geomspace(1e-3, 5.0, 40)))
    g = Grid(_panel_nodes(edges, bend=0.3))
    assert g.nodes.size == 40 * 9 + 1
    assert np.array_equal(g.nodes[::9], edges)
    assert np.all(np.diff(g.nodes) > 0)
    # the edge knots carry no weight, the Gauss nodes a positive one
    assert np.all(g.weights[::9] == 0.0)
    assert np.all(np.delete(g.weights, np.s_[::9]) > 0.0)
    # the weights integrate the constant 1 over [0, L]
    assert g.weights.sum() == pytest.approx(5.0, abs=1e-14)
    # and they are those of cumulative_integral, fixed by the nodes alone
    y = np.exp(-g.nodes) * np.sin(g.nodes)
    assert quadrature(y, g) == pytest.approx(cumulative_integral(g, y)[-1], abs=1e-15)
    assert np.array_equal(Grid(g.nodes.copy()).weights, g.weights)
    for array in (g.nodes, g.weights):
        with pytest.raises(ValueError):
            array[1] = 99.0


def test_grid_rejects_bad_nodes():
    with pytest.raises(ValueError, match="first node must be 0"):
        Grid([0.5, 1.0, 2.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        Grid([0.0, 0.25, 0.25, 1.0])
    with pytest.raises(ValueError, match="at least two"):
        Grid([0.0])
    # 800 graded nodes, a layout of the old stencil rule, are not panels
    with pytest.raises(ValueError, match="nine per panel .* got 800 nodes"):
        Grid(np.concatenate(([0.0], np.geomspace(1e-6, 0.5, 320),
                             np.linspace(0.5, 5.0, 480)[1:])))
    # nine knots per panel, but no rising degree-8 map goes through them
    for nodes in (np.linspace(0.0, 5.0, 10),
                  np.concatenate(([0.0, 1e-300, 2e-300], _panel_nodes([0.0, 1.0])[3:]))):
        with pytest.raises(ValueError, match="rising"):
            Grid(nodes)
    # a panel whose inner knots are pulled toward its left edge still
    # rises, but its map stops halfway to the next edge: its weights
    # would sum to 1.5, not 2
    nodes = _panel_nodes([0.0, 1.0, 2.0])
    nodes[1:9] *= 0.5
    with pytest.raises(ValueError, match="panel knots that meet"):
        Grid(nodes)


def test_quadrature_constant():
    g = Grid(_panel_nodes(np.linspace(0.0, 5.0, 56), bend=0.5))
    assert quadrature(np.ones_like(g.nodes), g) == pytest.approx(5.0, abs=1e-13)


def test_quadrature_exponential():
    g = Grid(_panel_nodes(np.linspace(0.0, 1.0, 5), bend=0.5))
    val = quadrature(np.exp(g.nodes), g)
    assert val == pytest.approx(math.e - 1.0, abs=1e-14)


def test_quadrature_exact_for_cubics():
    # y(z(t)) z'(t) has degree 7 in t on panels mapped by quadratics,
    # which the 8-point Gauss rule integrates exactly; one panel, and
    # several of unequal widths
    for edges in ([0.0, 3.0], [0.0, 0.01, 0.5, 1.0, 1.25, 2.2, 3.0]):
        g = Grid(_panel_nodes(edges, bend=0.5))
        vals = g.nodes**3 - 2.0 * g.nodes + 1.0
        assert quadrature(vals, g) == pytest.approx(3.0**4 / 4.0 - 3.0**2 + 3.0, abs=1e-13)


def test_quadrature_length_mismatch():
    g = Grid(_panel_nodes(np.linspace(0.0, 1.0, 12)))
    with pytest.raises(ValueError):
        quadrature(np.ones(99), g)


def test_quadrature_rejects_non_finite_values():
    g = Grid(_panel_nodes(np.linspace(0.0, 1.0, 12)))
    values = np.ones_like(g.nodes)
    values[50] = math.nan
    with pytest.raises(ValueError, match="finite"):
        quadrature(values, g)


def test_cumulative_integral_cubic_exactness():
    # a cubic integrates exactly (up to rounding) to every node, the
    # panel's Gauss nodes included: y dz/dt has degree 7 in t, that of
    # the interpolant the partial integrals take
    x = _panel_nodes([0.0, 0.013, 0.4, 1.371, 2.0], bend=0.4)
    y = x**3 - 2.0 * x + 1.0
    exact = x**4 / 4.0 - x**2 + x
    c = cumulative_integral(Grid(x), y)
    assert np.max(np.abs(c - exact)) < 1e-14


def _cumulative_by_moment_matching(x, y):
    # each panel's z(t) solved from the 9x9 Vandermonde system of its
    # knots, and the weights of Int_{-1}^{t_i} from the 8x8 system that
    # matches the moments of t^0 .. t^7 on the Gauss nodes
    nodes = np.polynomial.legendre.leggauss(8)[0]
    knots_t = np.concatenate(([-1.0], nodes))
    out = [0.0]
    for k in range(0, x.size - 1, 9):
        poly = np.linalg.solve(np.vander(knots_t, increasing=True), x[k:k + 9])
        dz_dt = np.polynomial.polynomial.polyval(nodes, np.polynomial.polynomial.polyder(poly))
        powers = np.arange(8)
        moments = ((nodes[:, None] ** (powers + 1) - (-1.0) ** (powers + 1)) / (powers + 1))
        w = np.linalg.solve(np.vander(nodes, increasing=True).T, moments.T).T
        base = out[-1]
        out.extend(base + w @ (y[k + 1:k + 9] * dz_dt))
        total = np.linalg.solve(np.vander(nodes, increasing=True).T,
                                (1.0 - (-1.0) ** (powers + 1)) / (powers + 1))
        out.append(base + total @ (y[k + 1:k + 9] * dz_dt))
    return np.array(out)


def test_cumulative_integral_matches_moment_matching():
    grids = (
        _panel_nodes(np.concatenate(([0.0], np.geomspace(1e-6, 5.0, 90))), bend=0.3),
        _panel_nodes(np.linspace(0.0, 3.0, 89)),
        _panel_nodes(np.concatenate(([0.0], np.geomspace(1e-12, 1.0, 33)))),
    )
    for x in grids:
        for y in (np.exp(x), np.sin(3.0 * x) + x**2 + 2.0, 1.0 / (x + 0.01)):
            ref = _cumulative_by_moment_matching(x, y)
            got = cumulative_integral(Grid(x), y)
            assert np.max(np.abs(got[1:] - ref[1:]) / np.abs(ref[1:])) <= 1e-13


@pytest.mark.parametrize("capacity, lam, n", [(5.0, 1.0, 801), (1000.0, 1.0, 20001),
                                             (50.0, 30.0, 20001)])
def test_discounted_tail_matches_closed_form(capacity, lam, n):
    # Int_z^L (2 + sin u) e^{-lam (u - z)} du, over one stretch of scales
    # and over several, where e^{lam z} alone overflows, on even panels
    # of about n nodes in all
    x = _panel_nodes(np.linspace(0.0, capacity, (n - 1) // 9 + 1))
    d = capacity - x
    exact = (2.0 * -np.expm1(-lam * d) / lam
             + (np.exp(-lam * d) * (-lam * math.sin(capacity) - math.cos(capacity))
                + lam * np.sin(x) + np.cos(x)) / (lam * lam + 1.0))
    tail = discounted_tail(Grid(x), 2.0 + np.sin(x), lam)
    assert tail[-1] == 0.0
    assert np.max(np.abs(tail - exact)) <= 1e-11


def test_no_module_reads_another_modules_private_names():
    # every package module goes through the other modules' public names:
    # none imports another's underscore name or reads one as an attribute
    package = Path(numerics.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        # the local names of the package modules imported whole
        bound = {a.asname or a.name for node in imports if node.module in (None, "ehjscc")
                 for a in node.names if a.name in modules}
        for node in imports:
            source = (node.module or "").removeprefix("ehjscc.")
            if source in modules - {path.stem}:
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, f"{path.name} imports {private} from {source}"
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id in bound):
                raise AssertionError(f"{path.name} reads {node.value.id}.{node.attr}")


def test_cumulative_integral_smooth_accuracy():
    x = _panel_nodes(np.linspace(0.0, 3.0, 89))
    c = cumulative_integral(Grid(x), np.exp(x))
    exact = np.exp(x) - 1.0
    assert np.max(np.abs(c - exact)) < 1e-12


# ---------------------------------------------------------------------------
# random stream
# ---------------------------------------------------------------------------

def test_rng_reproducible():
    a = Rng(42)
    b = Rng(42)
    assert np.array_equal(a.uniform(size=1000), b.uniform(size=1000))
    assert np.array_equal(a.exponential(2.0, size=1000), b.exponential(2.0, size=1000))


def test_rng_streams_differ_across_seeds():
    assert not np.array_equal(
        Rng(1).uniform(size=100), Rng(2).uniform(size=100)
    )


def test_rng_exponential_means():
    r = Rng(7)
    x = r.exponential(1.0, size=1_000_000)
    assert abs(x.mean() - 1.0) < 0.01
    y = r.exponential(2.0, size=1_000_000)
    assert abs(y.mean() - 0.5) < 0.005


def test_rng_uniform_range():
    u = Rng(0).uniform(size=10000)
    assert np.all((u >= 0.0) & (u < 1.0))


def test_rng_rejects_bad_rate():
    with pytest.raises(ValueError):
        Rng(0).exponential(0.0, size=10)
