"""Parity of the quadrature policy solvers with RKF45 stepping.

Both policy ODEs are autonomous, p' = F(p), and the solvers build p(z)
by quadrature of z(p) (``numerics.integrate_autonomous``).  Here the
same solves are repeated with that primitive swapped for the adaptive
Runge-Kutta-Fehlberg integrator (``numerics.integrate_ode``) the solvers
used to step, at the same tolerances: the stationary law and every other
stage run unchanged on top of either.  The published rows, the two
comparison constant-mismatch solves and a fixed set of probe constants
covering every outcome must agree.  The endpoint root that fixes c2
integrates no trajectory, so the swap leaves c2 as it is; the RKF45 path
at that c2 must close the endpoint gap instead.
"""

import math
import re

import numpy as np
import pytest

import ehjscc.policy as policy
from ehjscc.distortion import distortion
from ehjscc.models import BernoulliSource, GaussianSource, ZeroLeakage
from ehjscc.numerics import integrate_ode
from ehjscc.policy import VariationalConstants, solve_adaptive, solve_constant_kappa

from test_acceptance import ALL_BENCHMARKS, ARR, CH

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

    def __init__(self, rhs, p0, z_end, *, atol, rtol):
        self._args = (lambda z, p: float(rhs(p)), 0.0, p0, z_end)
        self._kwargs = {"atol": atol, "rtol": rtol}

    def p_at(self, z):
        # z[0] = 0 is the start, which integrate_ode returns first
        return integrate_ode(*self._args, sample_points=z[1:], **self._kwargs)[1]


def _both(solve, monkeypatch):
    # the bounds below hold at 1e-13/1e-12; at the solvers' own target
    # of 1e-10/1e-9 the two paths' p differ by up to 2e-8 relative
    monkeypatch.setattr(policy, "_ODE_TOLERANCES", {"atol": 1e-13, "rtol": 1e-12})
    new = solve()
    with monkeypatch.context() as m:
        m.setattr(policy, "integrate_autonomous", _Rkf45Path)
        ref = solve()
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
        def solve():
            return solve_adaptive(
                src, CH, ARR, leak, float(cap), 1e-3,
                VariationalConstants(beta, c1, c2), refine_c2=True,
            )
        new, ref = _both(solve, monkeypatch)
        _assert_same_solution(new, ref)
        d_beta = ref.d_beta
        gap = policy._endpoint_gap(CH, ref.constants, d_beta, src.rate(d_beta),
                                   src.rate_derivatives(d_beta)[0], ref.p[-1])
        assert abs(gap) <= 1e-9
        if src == SOURCES["gaussian"] and isinstance(leak, ZeroLeakage) and cap == 4:
            # this row stays over-subscribed after the polish
            assert not new.feasible and "normalization" in new.message


def test_comparison_constant_kappa_solves_match_rkf45(monkeypatch):
    bern = SOURCES["bernoulli"]
    c_star = -ARR.lam * distortion(bern, CH, ARR.delta / ARR.lam, 1.0)
    for src, c in ((SOURCES["gaussian"], -0.55), (bern, c_star - 0.01)):
        new, ref = _both(
            lambda: solve_constant_kappa(src, CH, ARR, ZeroLeakage(), 5.0, 1e-3, c),
            monkeypatch,
        )
        assert new.feasible and ref.feasible
        _assert_same_solution(new, ref)


@pytest.mark.parametrize("probe", PROBES, ids=lambda p: f"{p[0]}-{p[5]}-{p[3]}")
def test_probe_outcomes_match_rkf45(probe, monkeypatch):
    source, cap, beta, c1, c2, expected = probe
    new, ref = _both(
        lambda: solve_adaptive(
            SOURCES[source], CH, ARR, ZeroLeakage(), cap, 1e-3,
            VariationalConstants(beta, c1, c2), refine_c2=expected != "singular",
        ),
        monkeypatch,
    )
    assert _outcome(new) == _outcome(ref) == expected
    if expected == "singular":
        assert _singular_z(new) == pytest.approx(_singular_z(ref), rel=1e-4, abs=1e-9)
    elif math.isfinite(ref.d_avg):
        assert _close(new.d_avg, ref.d_avg, 1e-8)
