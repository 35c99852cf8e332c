"""Parity of the quadrature policy solvers with RKF45 stepping.

Both policy ODEs are autonomous, p' = F(p), and the solvers build p(z)
by quadrature of z(p) (``numerics.integrate_autonomous``).  Here the
same solves are repeated with that primitive swapped for the adaptive
Runge-Kutta-Fehlberg integrator (``numerics.integrate_ode``) the solvers
used to step, at the same tolerances: the stationary law and every other
stage run unchanged on top of either.  The published rows, the two
comparison constant-mismatch solves and a fixed set of probe constants
covering every outcome must agree.  A solve that polishes c2 finds it on
a table of the integrand (``numerics.endpoint_root``) and starts the
integration of its trajectory from that table's panels and F(p0)
(``integrate_autonomous(..., start=...)``); its reference is the
unpolished solve at the c2 it found, stepped by RKF45, whose path must
close the endpoint gap.

The integration from the table is also checked on its own: against the
integration from scratch at the same c2, panel by panel against the one
accuracy rule, by the states it evaluates F at, on a case where the
table's c2 is off, and on a closed form.  The inversion
``AutonomousPath.p_at`` is checked against the one it replaced.

The quadrature tables are built once per grid: a ``Grid`` keeps the
stencils of ``cumulative_integral``, and ``Grid.graded`` hands out one
shared read-only grid per (capacity, n, z_min).  The last part checks
that a cumulative integral on a grid equals, bit for bit, the one from
the per-call stencils it replaced, that the solvers' shared default grid
gives bit for bit the solves of a freshly built one, and that the shared
grid cannot be written to and its memo stays bounded.
"""

import math
import re

import numpy as np
import pytest

import ehjscc.numerics as numerics
import ehjscc.policy as policy
from ehjscc.distortion import distortion
from ehjscc.models import BernoulliSource, GaussianSource, ZeroLeakage
from ehjscc.numerics import Grid, cumulative_integral, integrate_ode
from ehjscc.policy import (
    VariationalConstants,
    optimality_residual,
    solve_adaptive,
    solve_constant_kappa,
)

from test_acceptance import ALL_BENCHMARKS, ARR, CH, ROWS_GAUSS_IDEAL

SOURCES = {"gaussian": GaussianSource(variance=1.0), "bernoulli": BernoulliSource(prob=0.5)}

# probe constants from constant scans at zero leakage, polished like
# search probes except the singular ones: a polished solve depends on
# (beta, c1) alone and integrates only at a c2 that closes the gap, so
# their own c2 is kept to reach each singularity.  (source, capacity,
# beta, c1, c2, expected outcome)
PROBES = [
    ("gaussian", 5.0, -0.41386, -0.92434, 0.06803, "feasible"),
    ("gaussian", 5.0, -0.90386, -0.92434, 0.56803, "normalization"),
    ("gaussian", 5.0, -0.88202, -0.90153, 0.22764, "normalization"),
    ("gaussian", 5.0, -0.90386, -0.75767, 0.06803, "singular"),  # F(p0) < 0: p runs to 0
    ("gaussian", 5.0, -0.90386, -0.75767, 0.56803, "singular"),
    ("gaussian", 5.0, -0.90386, -0.92434, 0.06803, "singular"),  # p blows up
    ("gaussian", 5.0, -0.74053, -0.92434, 0.06803, "singular"),
    ("bernoulli", 3.0, -0.28860, -0.46217, 0.23470, "feasible"),
    ("bernoulli", 3.0, -0.45193, -0.46217, 0.23470, "normalization"),
    ("bernoulli", 3.0, -0.45193, -0.37884, 0.23470, "singular"),  # F(p0) < 0
    ("bernoulli", 3.0, -0.37026, -0.29550, 0.73470, "singular"),  # p blows up
    ("bernoulli", 3.0, -0.37026, -0.21217, 0.73470, "singular"),
    ("bernoulli", 3.0, -0.20693, -0.12884, 0.23470, "singular"),  # pole of F
    ("bernoulli", 3.0, -0.37026, -0.12884, 0.73470, "no-convergence"),
]


class _Rkf45Path:
    """Stand-in for ``integrate_autonomous``'s result, stepped by RKF45."""

    def __init__(self, rhs, p0, z_end, *, atol, rtol, start=None):
        self._args = (lambda z, p: float(rhs(p)), 0.0, p0, z_end)
        self._kwargs = {"atol": atol, "rtol": rtol}

    def p_at(self, z):
        # z[0] = 0 is the start, which integrate_ode returns first
        return integrate_ode(*self._args, sample_points=z[1:], **self._kwargs)[1]


def _both(solve, monkeypatch):
    # solve(c2) solves as the case asks with c2 None, else at that c2
    # unpolished.  The reference is the solve at the c2 the new one found
    # (or the same solve where no c2 closes the endpoint gap), with its
    # one trajectory stepped by RKF45.  The bounds below hold at
    # 1e-13/1e-12; at the solvers' own target of 1e-10/1e-9 the two
    # paths' p differ by up to 2e-8 relative
    monkeypatch.setattr(policy, "_ODE_TOLERANCES", {"atol": 1e-13, "rtol": 1e-12})
    new = solve(None)
    no_root = new.message.startswith("endpoint condition has no root")
    stepped = []

    def rkf45(*args, **kwargs):
        stepped.append(1)
        return _Rkf45Path(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(policy, "integrate_autonomous", rkf45)
        ref = solve(None if no_root or new.constants is None else new.constants.c2)
    assert len(stepped) == (0 if no_root else 1)
    return new, ref


def _close(a, b, rel):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * abs(b)


def _outcome(sol):
    if sol.feasible:
        return "feasible"
    if sol.message.startswith("ODE singular"):
        return "singular"
    if "normalization" in sol.message:
        return "normalization"
    return "no-convergence"


def _singular_z(sol):
    return float(re.search(r"near z=([^:\s]+)", sol.message).group(1))


def _assert_same_solution(new, ref):
    assert new.feasible == ref.feasible
    for name in ("d_avg", "pi0", "kappa0"):
        assert _close(getattr(new, name), getattr(ref, name), 1e-8), name
    if new.constants is not None:
        assert _close(new.constants.c2, ref.constants.c2, 1e-8)
    assert np.max(np.abs(new.p - ref.p) / ref.p) <= 1e-9


@pytest.mark.parametrize("src,leak,rows", ALL_BENCHMARKS)
def test_published_rows_match_rkf45(src, leak, rows, monkeypatch):
    for cap, (_, beta, c1, c2) in rows.items():
        def solve(at):
            return solve_adaptive(
                src, CH, ARR, leak, float(cap), 1e-3,
                VariationalConstants(beta, c1, c2 if at is None else at), refine_c2=at is None,
            )
        new, ref = _both(solve, monkeypatch)
        _assert_same_solution(new, ref)
        # the stationarity residual at z = L, where its integral term is empty
        gap = policy._residual_profile(src, CH, ARR, ref)[-1]
        assert abs(gap) <= 1e-9
        if src == SOURCES["gaussian"] and isinstance(leak, ZeroLeakage) and cap == 4:
            # this row stays over-subscribed after the polish
            assert not new.feasible and "normalization" in new.message


def test_comparison_constant_kappa_solves_match_rkf45(monkeypatch):
    bern = SOURCES["bernoulli"]
    c_star = -ARR.lam * distortion(bern, CH, ARR.delta / ARR.lam, 1.0)
    for src, c in ((SOURCES["gaussian"], -0.55), (bern, c_star - 0.01)):
        new, ref = _both(
            lambda _: solve_constant_kappa(src, CH, ARR, ZeroLeakage(), 5.0, 1e-3, c),
            monkeypatch,
        )
        assert new.feasible and ref.feasible
        _assert_same_solution(new, ref)


@pytest.mark.parametrize("probe", PROBES, ids=lambda p: f"{p[0]}-{p[5]}-{p[3]}")
def test_probe_outcomes_match_rkf45(probe, monkeypatch):
    source, cap, beta, c1, c2, expected = probe
    new, ref = _both(
        lambda at: solve_adaptive(
            SOURCES[source], CH, ARR, ZeroLeakage(), cap, 1e-3,
            VariationalConstants(beta, c1, c2 if at is None else at),
            refine_c2=at is None and expected != "singular",
        ),
        monkeypatch,
    )
    assert _outcome(new) == _outcome(ref) == expected
    if expected == "singular":
        assert _singular_z(new) == pytest.approx(_singular_z(ref), rel=1e-4, abs=1e-9)
    elif math.isfinite(ref.d_avg):
        assert _close(new.d_avg, ref.d_avg, 1e-8)


# ---------------------------------------------------------------------------
# The trajectory of a polished solve, integrated from the endpoint table
# ---------------------------------------------------------------------------

@pytest.fixture
def seeded(monkeypatch):
    # every integrate_autonomous call of the policy module that starts
    # from the endpoint root's start: [its positional arguments, its
    # keyword arguments, the path it returned (None if it raised), the
    # number of states it evaluated F at]
    calls = []
    integrate = policy.integrate_autonomous

    def spy(rhs, *args, **kwargs):
        call = [(rhs,) + args, kwargs, None, 0]
        if kwargs.get("start") is not None:
            calls.append(call)

        def counted(p):
            call[3] += np.size(p)
            return rhs(p)

        call[2] = integrate(counted, *args, **kwargs)
        return call[2]

    monkeypatch.setattr(policy, "integrate_autonomous", spy)
    return calls


def _solve_rows(src, leak, rows):
    return [solve_adaptive(src, CH, ARR, leak, float(cap), 1e-3,
                           VariationalConstants(beta, c1, c2), refine_c2=True)
            for cap, (_, beta, c1, c2) in rows.items()]


@pytest.mark.parametrize("src,leak,rows", ALL_BENCHMARKS)
def test_table_path_matches_the_integrated_path(src, leak, rows, seeded, monkeypatch):
    # the same polished solves, once integrated from the table's panels
    # and once from scratch at the same c2
    new = _solve_rows(src, leak, rows)
    assert len(seeded) == len(rows)
    integrate = numerics.integrate_autonomous
    with monkeypatch.context() as m:
        m.setattr(policy, "integrate_autonomous",
                  lambda *args, start, **kwargs: integrate(*args, **kwargs))
        ref = _solve_rows(src, leak, rows)
    for a, b in zip(new, ref):
        assert a.constants.c2 == b.constants.c2
        assert a.feasible == b.feasible and a.message == b.message
        assert np.max(np.abs(a.p - b.p) / b.p) <= 1e-12
        assert _close(a.d_avg, b.d_avg, 1e-13)
        assert _close(a.pi0, b.pi0, 1e-13)
        # kappa0 = pi0 / (1 - int f/kappa) amplifies a rounding of the
        # integral by up to kappa0/pi0 ~ 1e4 here, so the split itself is
        # compared
        if b.feasible:
            assert abs(a.pi0 / a.kappa0 - b.pi0 / b.kappa0) <= 1e-13


def test_every_table_path_panel_passes_the_accuracy_rule(seeded):
    for src, leak, rows in ALL_BENCHMARKS:
        _solve_rows(src, leak, rows)
    nodes = numerics._gauss_tables()[0]
    cut = 0
    for (rhs, p0, z_end), kwargs, path, _ in seeded:
        # adjoining panels from p0 on that reach z_end, with dz/du
        # evaluated afresh at their nodes
        f0, lefts, _, g = kwargs["start"]
        sign = math.copysign(1.0, f0)
        assert g.shape == (lefts.size, nodes.size + 1)
        a, h = path.lefts, path.widths
        assert a[0] == 0.0 and np.allclose(a[1:], a[:-1] + h[:-1], rtol=1e-14, atol=0.0)
        assert path.direction == sign and path.z_edges[-1] >= z_end
        s0 = math.log(p0)
        p = np.exp(s0 + sign * (a[:, None] + (nodes + 1.0) * (0.5 * h[:, None])))
        g = sign * p / rhs(p.ravel()).reshape(p.shape)
        assert numerics._admissible(p, g).all()
        _, err, tol, floor = numerics._panel_test(a, h, p, g, s0, kwargs["atol"],
                                                  kwargs["rtol"])
        assert np.all((err <= tol) | floor)
        cut += a.size - lefts.size
    # the table's panels near the far end fail the rule and are cut
    assert cut > 0


def test_polished_rows_evaluate_few_states(seeded):
    # F is evaluated only at the pieces of the table's panels that fail
    # the accuracy rule: 4,007 states over the 20 rows, where the table
    # path and its fallback evaluated 5,737
    solves = 0
    for src, leak, rows in ALL_BENCHMARKS:
        solves += len(_solve_rows(src, leak, rows))
    assert solves == len(seeded) == 20
    assert sum(states for *_, states in seeded) <= 5737


def test_seeded_integration_blows_up_where_the_table_c2_is_off(seeded):
    # at L = 1000 the table's c2 is off by ~5e-6 relative: the
    # integration from the table's panels meets an inadmissible state
    # and blows up, at the z the integration from scratch reports
    gauss = SOURCES["gaussian"]
    c1 = policy.c1_edge(gauss, CH, -0.5, 1.0) - 1e-5
    sol = solve_adaptive(gauss, CH, ARR, ZeroLeakage(), 1000.0, 1.0,
                         VariationalConstants(-0.5, c1, 0.3), refine_c2=True)
    assert [path for *_, path, _ in seeded] == [None]
    assert sol.constants.c2 == pytest.approx(0.0360648, rel=1e-6)
    assert not sol.feasible
    assert sol.message == "ODE singular near z=859.76: right-hand side blew up"


def test_seeded_integration_on_a_closed_form():
    # p' = -p from 1: dz/du = 1, so z = u and p = exp(-z)
    rhs = lambda p: -p
    lefts = np.linspace(0.0, 6.0, 13)[:-1]
    widths = np.full(lefts.size, 0.5)
    start = (-1.0, lefts, widths, np.ones((lefts.size, 9)))
    path = numerics.integrate_autonomous(rhs, 1.0, 5.0, atol=1e-10, rtol=1e-9,
                                         start=start)
    z = np.linspace(0.0, 5.0, 41)
    assert np.max(np.abs(path.p_at(z) / np.exp(-z) - 1.0)) <= 1e-13
    assert path.z_edges[-1] == 5.0
    # panels that stop short of z_end: the path goes on past them
    longer = numerics.integrate_autonomous(rhs, 1.0, 7.0, atol=1e-10, rtol=1e-9,
                                           start=start)
    assert longer.z_edges[-1] >= 7.0
    z = np.linspace(0.0, 7.0, 57)
    assert np.max(np.abs(longer.p_at(z) / np.exp(-z) - 1.0)) <= 1e-13
    # a state the field does not admit, where the panels say so too
    hole = lambda p: np.where(np.abs(p - math.exp(-2.0)) < 1e-12, np.nan, -p)
    u = lefts[:, None] + (numerics._knot_tables()[0][1:] + 1.0) * (0.5 * widths[:, None])
    p = np.exp(-u)
    with pytest.raises(numerics.SingularityError, match="undefined") as exc:
        numerics.integrate_autonomous(hole, 1.0, 5.0, atol=1e-10, rtol=1e-9,
                                      start=(-1.0, lefts, widths, -p / hole(p)))
    assert exc.value.z == pytest.approx(2.0, abs=1e-9)
    # p0 on an equilibrium: the state stays there, whatever the panels say
    still = numerics.integrate_autonomous(lambda p: 1.0 - p, 1.0, 5.0,
                                          start=(0.0, lefts, widths, np.ones((lefts.size, 9))))
    assert still.direction == 0.0 and np.all(still.p_at(z) == 1.0)


def test_seeded_integration_takes_f0_in_place_of_a_call():
    # a start holds f0 = rhs(p0): the direction and the check of p0 are
    # read off it, and the path is the one found from scratch, whose first
    # round evaluates the same panels
    calls = []

    def rhs(p):
        calls.append(np.size(p))
        return -p

    lefts = np.linspace(0.0, 6.0, 13)[:-1]
    widths = np.full(lefts.size, 0.5)
    g = np.ones((lefts.size, 9))
    path = numerics.integrate_autonomous(rhs, 1.0, 5.0, start=(-1.0, lefts, widths, g))
    assert calls == []
    z = np.linspace(0.0, 5.0, 41)
    assert np.max(np.abs(path.p_at(z) / np.exp(-z) - 1.0)) <= 1e-13
    # the same panels from scratch: one call at p0 and one per round
    lefts, widths = np.linspace(0.0, 16.0, 33)[:-1], np.full(32, 0.5)
    path = numerics.integrate_autonomous(rhs, 1.0, 5.0, start=(-1.0, lefts, widths,
                                                                np.ones((32, 9))))
    ref = numerics.integrate_autonomous(rhs, 1.0, 5.0)
    assert calls[0] == 1
    assert np.array_equal(path.p_at(z), ref.p_at(z))
    with pytest.raises(numerics.SingularityError, match="blew up"):
        numerics.integrate_autonomous(rhs, 1.0, 5.0, start=(-math.inf, lefts, widths, g))
    still = numerics.integrate_autonomous(rhs, 1.0, 5.0, start=(0.0, lefts, widths, g))
    assert still.direction == 0.0


def test_polished_solves_call_no_field_at_p0_alone(monkeypatch):
    # the endpoint table hands over F(p0) at the c2 it found, equal bit
    # for bit to the field's own value, so the seeded integration of a
    # polished solve never evaluates F at p0 alone
    handed, single = [], []
    integrate = policy.integrate_autonomous

    def spy(rhs, p0, *args, **kwargs):
        handed.append(kwargs["start"][0] == float(rhs(np.array([p0]))[0]))

        def counted(p):
            single.append(np.size(p) == 1 and p[0] == p0)
            return rhs(p)

        return integrate(counted, p0, *args, **kwargs)

    monkeypatch.setattr(policy, "integrate_autonomous", spy)
    for src, leak, rows in ALL_BENCHMARKS:
        _solve_rows(src, leak, rows)
    assert handed == [True] * 20
    assert not any(single)


def _p_at_before(path, z):
    # AutonomousPath.p_at as it was: Newton from the chord across the
    # whole panel, on strided rows of the coefficients
    z = np.asarray(z, dtype=float)
    edges = path.z_edges
    k = np.clip(np.searchsorted(edges, z, side="right") - 1, 0, path.widths.size - 1)
    z_lo, rise = edges[k], edges[k + 1] - edges[k]
    half = 0.5 * path.widths[k]
    poly = path.antider[k].T
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(rise > 0.0, 2.0 * (z - z_lo) / rise - 1.0, 1.0)
    t = np.clip(t, -1.0, 1.0)
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
    u = path.lefts[k] + (t + 1.0) * half
    u = np.where(z > edges[-1], path.lefts[-1] + path.widths[-1], u)
    return np.where(z > 0.0, np.exp(math.log(path.p0) + path.direction * u), path.p0)


def _knots(path):
    # z at every panel's left edge and Gauss nodes, and at the last edge
    nodes = numerics._gauss_tables()[0]
    t = np.concatenate(([-1.0], nodes))
    inner = [path.z_edges[k] + 0.5 * path.widths[k]
             * np.polynomial.polynomial.polyval(t, path.antider[k])
             for k in range(path.widths.size)]
    return np.concatenate(inner + [path.z_edges])


def test_p_at_matches_the_inversion_it_replaced(seeded):
    gauss = SOURCES["gaussian"]
    _solve_rows(gauss, ZeroLeakage(), {5: ROWS_GAUSS_IDEAL[5]})
    row = seeded[-1][2]
    # logistic growth settles on p = 1 before z = 60
    logistic = numerics.integrate_autonomous(lambda p: p * (1.0 - p), 0.01, 60.0)
    assert logistic.z_edges[-1] < 60.0
    rng = np.random.default_rng(5)
    for path in (row, logistic):
        cases = {
            "zero": np.zeros(3),
            "knots and edges": _knots(path),
            "random": rng.uniform(0.0, path.z_end, 1000),
            "past the last edge": np.linspace(path.z_edges[-1], path.z_end, 7),
        }
        for name, z in cases.items():
            new, old = path.p_at(z), _p_at_before(path, z)
            assert new.shape == z.shape
            assert np.max(np.abs(new - old) / old) <= 4e-15, name
        assert np.all(path.p_at(np.zeros(3)) == path.p0)
        scalar = path.p_at(0.37 * path.z_end)
        assert scalar.shape == ()
        assert abs(scalar / _p_at_before(path, 0.37 * path.z_end) - 1.0) <= 4e-15


# ---------------------------------------------------------------------------
# Quadrature tables built once per grid
# ---------------------------------------------------------------------------

def _cumulative_per_call(x, y):
    # cumulative_integral as it was before grids kept their stencils:
    # the stencil coefficients rebuilt from x on every call
    n = x.size
    h = np.diff(x)
    if n < 4:
        j0, coef = np.arange(n - 1), [0.5 * h, 0.5 * h]
    else:
        j0 = np.clip(np.arange(n - 1) - 1, 0, n - 4)
        mid = 0.5 * (x[:-1] + x[1:])
        t = [x[j0 + k] - mid for k in range(4)]
        coef = []
        for k in range(4):
            a, b, c = (t[j] for j in range(4) if j != k)
            numer = -((a + b + c) * (h * h * h / 12.0) + a * b * c * h)
            coef.append(numer / ((t[k] - a) * (t[k] - b) * (t[k] - c)))
    inc = sum(c * y[j0 + k] for k, c in enumerate(coef))
    weights = sum(np.bincount(j0 + k, c, minlength=n) for k, c in enumerate(coef))
    return np.concatenate(([0.0], np.cumsum(inc))), weights


def _bits(a):
    # == on the bit patterns, so that 0.0 and -0.0 differ too
    return np.asarray(a, dtype=float).view(np.uint64)


QUADRATURE_GRIDS = {
    "graded-300": lambda: Grid.graded(5.0, n=300),
    "graded-800": lambda: Grid.graded(5.0),
    "graded-2000-zmin-1e-12": lambda: Grid.graded(3.0, n=2000, z_min=1e-12),
    "trapezoid-3": lambda: Grid([0.0, 1.0, 3.0]),
    "irregular": lambda: Grid([0.0, 1e-9, 0.01, 0.013, 0.5, 1.0, 1.25, 2.2, 3.0]),
}


@pytest.mark.parametrize("name", sorted(QUADRATURE_GRIDS))
def test_cumulative_integral_on_grid_matches_nodes_bit_for_bit(name):
    # against the stencils rebuilt from the grid's nodes on every call
    grid = QUADRATURE_GRIDS[name]()
    x = grid.nodes
    rng = np.random.default_rng(17)
    for y in (np.exp(-x), 1.0 / (x + 1e-3), np.sin(40.0 * x), rng.normal(size=x.size),
              np.zeros_like(x), -np.ones_like(x)):
        on_grid = cumulative_integral(grid, y)
        per_call, weights = _cumulative_per_call(x.copy(), y)
        assert np.array_equal(_bits(on_grid), _bits(per_call))
        assert np.array_equal(_bits(grid.weights), _bits(weights))
    with pytest.raises(ValueError, match="length mismatch"):
        cumulative_integral(grid, np.ones(x.size + 1))


def _solved_fields(sol):
    return {
        "feasible": sol.feasible,
        "d_avg, pi0, kappa0": _bits([sol.d_avg, sol.pi0, sol.kappa0]).tolist(),
        "c2": None if sol.constants is None else _bits(sol.constants.c2).tolist(),
        "nodes": _bits(sol.grid.nodes).tolist(),
        "p": _bits(sol.p).tolist(),
        "f": _bits(sol.f).tolist(),
    }


def _assert_default_grid_parity(solve, capacity, residual=None):
    # grid=None on a cold memo, then again from the memo, against a
    # grid built afresh from the default nodes, which no memo holds
    numerics._graded_grid.cache_clear()
    cold = solve(None)
    warm = solve(None)
    assert warm.grid is cold.grid
    nodes = numerics._graded_grid.__wrapped__(capacity, 800, 1e-6).nodes
    fresh = solve(Grid(nodes.copy()))
    want = _solved_fields(fresh)
    assert _solved_fields(cold) == want
    assert _solved_fields(warm) == want
    if residual is not None:
        assert residual(cold) == residual(warm) == residual(fresh)


@pytest.mark.parametrize("src,leak,rows", ALL_BENCHMARKS)
def test_published_rows_identical_on_shared_default_grid(src, leak, rows):
    for cap, (_, beta, c1, c2) in rows.items():
        consts = VariationalConstants(beta, c1, c2)
        _assert_default_grid_parity(
            lambda grid: solve_adaptive(src, CH, ARR, leak, float(cap), 1e-3, consts,
                                        grid=grid, refine_c2=True),
            float(cap),
            lambda sol: optimality_residual(src, CH, ARR, sol),
        )


def test_comparison_constant_kappa_solves_identical_on_shared_default_grid():
    bern = SOURCES["bernoulli"]
    c_star = -ARR.lam * distortion(bern, CH, ARR.delta / ARR.lam, 1.0)
    for src, c in ((SOURCES["gaussian"], -0.55), (bern, c_star - 0.01)):
        _assert_default_grid_parity(
            lambda grid: solve_constant_kappa(src, CH, ARR, ZeroLeakage(), 5.0, 1e-3, c,
                                              grid=grid),
            5.0,
        )


def test_shared_grid_is_read_only():
    grid = Grid.graded(5.0)
    assert Grid.graded(5.0) is grid
    assert Grid.graded(5, n=800, z_min=1e-6) is grid
    for name in ("nodes", "weights", "stencil_index", "stencil_coef"):
        array = getattr(grid, name)
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1
        with pytest.raises(ValueError, match="read-only"):
            array *= 2


def test_graded_grid_memo_stays_bounded():
    memo = numerics._graded_grid
    first = Grid.graded(1.0, n=16)
    capacities = np.linspace(1.0, 40.0, 4 * numerics._GRADED_MEMO)
    grids = [Grid.graded(float(cap), n=16) for cap in capacities]
    info = memo.cache_info()
    assert info.maxsize == numerics._GRADED_MEMO
    assert info.currsize == numerics._GRADED_MEMO
    # the most recent are shared, the oldest were dropped and are rebuilt
    assert Grid.graded(float(capacities[-1]), n=16) is grids[-1]
    again = Grid.graded(1.0, n=16)
    assert again is not first and np.array_equal(again.nodes, first.nodes)
    assert memo.cache_info().currsize == numerics._GRADED_MEMO
