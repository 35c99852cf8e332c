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
table's c2 is off, and on a closed form.  The knots a path hands the
law (``AutonomousPath.knots``) are checked against its panels' own
polynomials, and for a path that ends just past a panel's left edge.

The law is integrated on the path's panels: a ``Grid`` is the panel rule
of its nodes alone.  The last part checks that a grid rebuilt from a
copy of the nodes integrates bit for bit like the one it was copied
from, as the CLI rebuilds a solve's grid from its CSV, that a solve so
rebuilt gives the same law bit for bit, and that a solve's grid cannot
be written to.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

import ehjscc.numerics as numerics
import ehjscc.policy as policy
from ehjscc.distortion import distortion
from ehjscc.models import BernoulliSource, GaussianSource, ZeroLeakage
from ehjscc.numerics import Grid, cumulative_integral, integrate_ode, quadrature
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


def _even_knots(z_end, panels=89):
    # the knots of even panels in z over [0, z_end], about 800 nodes
    share = numerics._panel_tables()[0]
    edges = np.linspace(0.0, z_end, panels + 1)
    return np.append((edges[:-1, None] + np.diff(edges)[:, None] * share).ravel(), z_end)


class _Rkf45Path:
    """Stand-in for ``integrate_autonomous``'s result, stepped by RKF45.

    Its knots are the nodes it is given, or those of even panels where it
    has none; p is stepped to them at once, at the quadrature solver's
    error target, so that a singularity raises where
    ``integrate_autonomous`` would.
    """

    def __init__(self, rhs, p0, z_end, *, start=None, nodes=None):
        z = _even_knots(z_end) if nodes is None else nodes
        # z[0] = 0 is the start, which integrate_ode returns first
        self._knots = z, integrate_ode(lambda _, p: float(rhs(p)), 0.0, p0, z_end,
                                       sample_points=z[1:], atol=numerics._ODE_ATOL,
                                       rtol=numerics._ODE_RTOL)[1]

    def knots(self, span=math.inf):
        return self._knots


def _both(solve, monkeypatch):
    # solve(c2) solves as the case asks with c2 None, else at that c2
    # unpolished.  The reference is the solve at the c2 the new one found
    # (or the same solve where no c2 closes the endpoint gap), with its
    # one trajectory stepped by RKF45 to the new one's nodes.  The bounds
    # below hold at 1e-13/1e-12; at the solvers' own target of
    # 1e-10/1e-9 the two paths' p differ by up to 2e-8 relative
    monkeypatch.setattr(numerics, "_ODE_ATOL", 1e-13)
    monkeypatch.setattr(numerics, "_ODE_RTOL", 1e-12)
    new = solve(None)
    no_root = new.message.startswith("endpoint condition has no root")
    stepped = []
    nodes = None if new.grid is None else new.grid.nodes

    def rkf45(*args, **kwargs):
        stepped.append(1)
        return _Rkf45Path(*args, nodes=nodes, **kwargs)

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


def _p_gap(path, z, p):
    # p at each charge z against the path's state there, relative and to
    # first order: the path's charge where its state is p, less z, over
    # its dz/du there
    u = path.direction * np.log(p / path.p0)
    k = np.clip(np.searchsorted(path.lefts, u, side="right") - 1, 0, path.widths.size - 1)
    t = 2.0 * (u - path.lefts[k]) / path.widths[k] - 1.0
    rows = path.antider[k].T
    charge = path.z_edges[k] + 0.5 * path.widths[k] * np.polynomial.polynomial.polyval(
        t, rows, tensor=False)
    slope = np.polynomial.polynomial.polyval(
        t, np.polynomial.polynomial.polyder(rows, axis=0), tensor=False)
    return (charge - z) / slope


@pytest.mark.parametrize("src,leak,rows", ALL_BENCHMARKS)
def test_table_path_matches_the_integrated_path(src, leak, rows, seeded, monkeypatch):
    # the same polished solves, once integrated from the table's panels
    # and once from scratch at the same c2
    new = _solve_rows(src, leak, rows)
    assert len(seeded) == len(rows)
    integrate = numerics.integrate_autonomous
    scratch = []

    def from_scratch(*args, start, **kwargs):
        scratch.append(integrate(*args, **kwargs))
        return scratch[-1]

    with monkeypatch.context() as m:
        m.setattr(policy, "integrate_autonomous", from_scratch)
        ref = _solve_rows(src, leak, rows)
    for a, b, (*_, path, _), other in zip(new, ref, seeded, scratch):
        assert a.constants.c2 == b.constants.c2
        assert a.feasible == b.feasible and a.message == b.message
        # each path's knots lie on the other path, their panels differing
        assert np.max(np.abs(_p_gap(path, b.grid.nodes, b.p))) <= 1e-12
        assert np.max(np.abs(_p_gap(other, a.grid.nodes, a.p))) <= 1e-12
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
        _, err, tol, floor = numerics._panel_test(a, h, p, g, s0)
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
    path = numerics.integrate_autonomous(rhs, 1.0, 5.0, start=start)
    z, p = path.knots()
    assert np.max(np.abs(p / np.exp(-z) - 1.0)) <= 1e-13
    assert path.z_edges[-1] == 5.0 and z[-1] == 5.0
    # panels that stop short of z_end: the path goes on past them
    longer = numerics.integrate_autonomous(rhs, 1.0, 7.0, start=start)
    assert longer.z_edges[-1] >= 7.0
    z, p = longer.knots()
    assert z[-1] == 7.0 and np.max(np.abs(p / np.exp(-z) - 1.0)) <= 1e-13
    # a state the field does not admit, where the panels say so too
    hole = lambda p: np.where(np.abs(p - math.exp(-2.0)) < 1e-12, np.nan, -p)
    t = np.append(numerics._gauss_tables()[0], 1.0)
    u = lefts[:, None] + (t + 1.0) * (0.5 * widths[:, None])
    p = np.exp(-u)
    with pytest.raises(numerics.SingularityError, match="undefined") as exc:
        numerics.integrate_autonomous(hole, 1.0, 5.0,
                                      start=(-1.0, lefts, widths, -p / hole(p)))
    assert exc.value.z == pytest.approx(2.0, abs=1e-9)
    # p0 on an equilibrium: the state stays there, whatever the panels say
    still = numerics.integrate_autonomous(lambda p: 1.0 - p, 1.0, 5.0,
                                          start=(0.0, lefts, widths, np.ones((lefts.size, 9))))
    assert still.direction == 0.0 and np.all(still.knots()[1] == 1.0)


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
    z, p = path.knots()
    assert np.max(np.abs(p / np.exp(-z) - 1.0)) <= 1e-13
    # the same panels from scratch: one call at p0 and one per round
    lefts, widths = np.linspace(0.0, 16.0, 33)[:-1], np.full(32, 0.5)
    path = numerics.integrate_autonomous(rhs, 1.0, 5.0, start=(-1.0, lefts, widths,
                                                                np.ones((32, 9))))
    ref = numerics.integrate_autonomous(rhs, 1.0, 5.0)
    assert calls[0] == 1
    for a, b in zip(path.knots(), ref.knots()):
        assert np.array_equal(a, b)
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


def _knots(path, clip):
    # z at every panel's left edge and Gauss nodes, evaluated from the
    # monomials in t, and p there from u; the last panel's knots taken
    # between its left edge and t = clip
    nodes = numerics._gauss_tables()[0]
    t = np.concatenate(([-1.0], nodes))
    z, u = [], []
    for k in range(path.widths.size):
        tk = t if k < path.widths.size - 1 else -1.0 + (t + 1.0) * (clip + 1.0) / 2.0
        z.append(path.z_edges[k] + 0.5 * path.widths[k]
                 * np.polynomial.polynomial.polyval(tk, path.antider[k]))
        u.append(path.lefts[k] + 0.5 * (tk + 1.0) * path.widths[k])
    return np.concatenate(z), path.p0 * np.exp(path.direction * np.concatenate(u))


def test_knots_match_the_panel_polynomials(seeded):
    gauss = SOURCES["gaussian"]
    _solve_rows(gauss, ZeroLeakage(), {5: ROWS_GAUSS_IDEAL[5]})
    row = seeded[-1][2]
    # the row's last panel is clipped at z_end by a root in t
    z, p = row.knots()
    assert z[-1] == row.z_end < row.z_edges[-1]
    poly = 0.5 * row.widths[-1] * row.antider[-1]
    poly[0] -= row.z_end - row.z_edges[-2]
    clip = [r.real for r in np.polynomial.polynomial.polyroots(poly)
            if abs(r.imag) < 1e-9 and -1.0 <= r.real <= 1.0]
    assert len(clip) == 1
    # the leading panels, graded toward p0, are one piece in u up to the
    # left edge of panel m, with z at its knots on the panels they fall
    # in; no two knots lie within 1e-12 * z_end, and p rises at each
    m = int(np.searchsorted(row.z_edges, z[9]))
    assert m >= 2 and row.z_edges[m] == z[9]
    assert np.diff(z).min() > 1e-12 * row.z_end and np.all(np.diff(p) > 0.0)
    u = row.lefts[m] * numerics._panel_tables()[0]
    k = np.searchsorted(row.lefts, u, side="right") - 1
    head = [row.z_edges[j] + 0.5 * row.widths[j] * np.polynomial.polynomial.polyval(
        2.0 * (uj - row.lefts[j]) / row.widths[j] - 1.0, row.antider[j]) for j, uj in zip(k, u)]
    assert np.max(np.abs(z[:9] - head)) <= 1e-13 * row.z_end
    assert np.max(np.abs(p[:9] / (row.p0 * np.exp(u)) - 1.0)) <= 1e-15
    ref_z, ref_p = _knots(row, clip[0])
    assert np.max(np.abs(z[9:-1] - ref_z[9 * m:])) <= 1e-13 * row.z_end
    assert np.max(np.abs(p[9:-1] / ref_p[9 * m:] - 1.0)) <= 1e-14
    # logistic growth settles on p = 1 before z = 60: even panels at the
    # equilibrium follow the path's own
    logistic = numerics.integrate_autonomous(lambda p: p * (1.0 - p), 0.01, 60.0)
    assert logistic.z_edges[-1] < 60.0
    z, p = logistic.knots()
    ref_z, ref_p = _knots(logistic, 1.0)
    assert np.max(np.abs(z[:ref_z.size] - ref_z)) <= 1e-13 * 60.0
    assert np.max(np.abs(p[:ref_z.size] / ref_p - 1.0)) <= 1e-15
    assert np.all(p[ref_z.size:] == p[-1]) and z[ref_z.size] == logistic.z_edges[-1]
    # a span cuts the panels into pieces no wider than it, on the same path
    cut_z, cut_p = logistic.knots(0.25)
    assert np.diff(cut_z[::9]).max() <= 0.25 * (1.0 + 1e-12)
    assert cut_z.size > z.size and cut_z[-1] == 60.0
    exact = 1.0 / (1.0 + 99.0 * np.exp(-cut_z))
    assert np.max(np.abs(cut_p / exact - 1.0)) <= 1e-12


@pytest.mark.parametrize("ulps", [1, 16, 64, 1024])
def test_a_clip_next_to_a_left_edge_leaves_no_sliver(seeded, ulps):
    # the published L = 5 path ended a few ulps above its last panel's
    # left edge: a clip there would leave a piece narrower than the
    # knots' resolution, 1e-12 * z_end (~5,000 ulps here), so the path
    # ends at that edge, which meets z_end to the resolution, with p from
    # the edge's u.  The knots of the 64- and 1024-ulp slivers would still
    # rise, so Grid alone would not refuse them
    gauss = SOURCES["gaussian"]
    _solve_rows(gauss, ZeroLeakage(), {5: ROWS_GAUSS_IDEAL[5]})
    row = seeded[-1][2]
    k = row.widths.size - 1
    z_end = float(row.z_edges[k]) + ulps * float(np.spacing(row.z_edges[k]))
    path = numerics.AutonomousPath(row.p0, z_end, row.direction, row.lefts[:k + 1],
                                   row.widths[:k + 1], row.antider[:k + 1],
                                   row.z_edges[:k + 2])
    for span in (math.inf, 0.5):
        z, p = path.knots(span)
        grid = Grid(z)
        pieces = np.diff(np.append(grid.nodes[:-1:9], z_end))
        assert pieces.min() >= numerics.KNOT_RESOLUTION * z_end
        assert z[-1] == z_end
        assert p[-1] == pytest.approx(row.p0 * math.exp(row.direction * row.lefts[k]), rel=1e-15)


# ---------------------------------------------------------------------------
# The law on the path's own panels
# ---------------------------------------------------------------------------

def _bits(a):
    # == on the bit patterns, so that 0.0 and -0.0 differ too
    return np.asarray(a, dtype=float).view(np.uint64)


def _panels(edges):
    # the grid of panels between the edges, each mapped by a rising quadratic
    share = numerics._panel_tables()[0]
    share = 0.8 * share + 0.2 * share ** 2
    edges = np.asarray(edges, dtype=float)
    return Grid(np.append((edges[:-1, None] + np.diff(edges)[:, None] * share).ravel(),
                          edges[-1]))


def _graded_panels(capacity, panels, least):
    # panels from 0 whose edges are graded geometrically from least, then
    # even from a tenth of the capacity
    return _panels(np.concatenate(([0.0], np.geomspace(least, 0.1 * capacity, panels // 2),
                                   np.linspace(0.1 * capacity, capacity,
                                               panels - panels // 2 + 1)[1:])))


QUADRATURE_GRIDS = {
    "graded-300": lambda: _graded_panels(5.0, 33, 1e-6),
    "graded-800": lambda: _graded_panels(5.0, 89, 1e-6),
    "graded-2000-zmin-1e-12": lambda: _graded_panels(3.0, 222, 1e-12),
    "irregular": lambda: _panels([0.0, 1e-9, 0.01, 0.013, 0.5, 1.0, 1.25, 2.2, 3.0]),
}


@pytest.mark.parametrize("name", sorted(QUADRATURE_GRIDS))
def test_cumulative_integral_on_grid_matches_nodes_bit_for_bit(name):
    # a grid rebuilt from a copy of its nodes has the same weights and
    # integrates the same, bit for bit
    grid = QUADRATURE_GRIDS[name]()
    x = grid.nodes
    again = Grid(x.copy())
    assert np.array_equal(_bits(again.weights), _bits(grid.weights))
    rng = np.random.default_rng(17)
    for y in (np.exp(-x), 1.0 / (x + 1e-3), np.sin(40.0 * x), rng.normal(size=x.size),
              np.zeros_like(x), -np.ones_like(x)):
        assert np.array_equal(_bits(cumulative_integral(grid, y)),
                              _bits(cumulative_integral(again, y)))
        assert np.array_equal(_bits(numerics.discounted_tail(grid, y, 2.0)),
                              _bits(numerics.discounted_tail(again, y, 2.0)))
    with pytest.raises(ValueError, match="length mismatch"):
        cumulative_integral(grid, np.ones(x.size + 1))


def _solved_fields(sol):
    return {
        "feasible": sol.feasible,
        "d_avg, pi0, kappa0": _bits([sol.d_avg, sol.pi0, sol.kappa0]).tolist(),
        "c2": None if sol.constants is None else _bits(sol.constants.c2).tolist(),
        "nodes": _bits(sol.grid.nodes).tolist(),
        "weights": _bits(sol.grid.weights).tolist(),
        "p": _bits(sol.p).tolist(),
        "f": _bits(sol.f).tolist(),
    }


def _assert_rebuilt_grid_parity(solve, residual=None):
    # a solve twice, and its law on a grid rebuilt from a copy of its
    # nodes, as the CLI rebuilds it from a CSV: the solvers' grid is the
    # path's own panels, shared with whatever reads the solution
    first, second = solve(), solve()
    assert _solved_fields(first) == _solved_fields(second)
    grid = Grid(first.grid.nodes.copy())
    assert np.array_equal(_bits(grid.weights), _bits(first.grid.weights))
    rebuilt = replace(first, grid=grid)
    assert _bits(quadrature(rebuilt.f, grid)) == _bits(quadrature(first.f, first.grid))
    assert np.array_equal(_bits(cumulative_integral(grid, first.f)),
                          _bits(cumulative_integral(first.grid, first.f)))
    if residual is not None:
        assert residual(first) == residual(second) == residual(rebuilt)


@pytest.mark.parametrize("src,leak,rows", ALL_BENCHMARKS)
def test_published_rows_identical_on_shared_default_grid(src, leak, rows):
    for cap, (_, beta, c1, c2) in rows.items():
        consts = VariationalConstants(beta, c1, c2)
        _assert_rebuilt_grid_parity(
            lambda: solve_adaptive(src, CH, ARR, leak, float(cap), 1e-3, consts,
                                   refine_c2=True),
            lambda sol: optimality_residual(src, CH, ARR, sol),
        )


def test_comparison_constant_kappa_solves_identical_on_shared_default_grid():
    bern = SOURCES["bernoulli"]
    c_star = -ARR.lam * distortion(bern, CH, ARR.delta / ARR.lam, 1.0)
    for src, c in ((SOURCES["gaussian"], -0.55), (bern, c_star - 0.01)):
        _assert_rebuilt_grid_parity(
            lambda: solve_constant_kappa(src, CH, ARR, ZeroLeakage(), 5.0, 1e-3, c))


def test_shared_grid_is_read_only():
    # a solve's grid goes with it to the simulator and the CLI, and its
    # arrays cannot be written to; the grid keeps its own copy of the
    # nodes it was built from
    grid = solve_constant_kappa(SOURCES["gaussian"], CH, ARR, ZeroLeakage(), 5.0, 1e-3,
                                -0.55).grid
    for name in ("nodes", "weights"):
        array = getattr(grid, name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            array *= 2
    nodes = grid.nodes.copy()
    copy = Grid(nodes)
    nodes[1] = 0.5 * nodes[1]
    assert np.array_equal(copy.nodes, grid.nodes)

