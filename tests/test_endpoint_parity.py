"""Parity of the endpoint root's Newton search with the Brent search it replaced.

``numerics.endpoint_root`` finds the end power of a polished solve by
Newton's method on the reciprocal charge, with Phi and its derivative
from one pass over the table.  The reference below is the search as it
was: the same table, Phi alone, and ``find_root`` (Brent-Dekker) on the
bracket, every end evaluated afresh.  The same polished solves are run
with either root, on the published rows, on every polished probe of the
Gaussian L=5 and Bernoulli L=3 tunes, on 320 random operating points
and on the near-equilibrium and falling-side cases named in CHANGES.md:
the outcome and message must agree, c2 to 1e-11 relative and d_avg to
1e-12 relative.  Both roots stop within 1e-12 of the reach, so on the
random points, where d_avg can move by more than that when c2 moves by
1e-12 relative (long capacities, paths that linger near an
equilibrium), a few cases are held to that sensitivity instead, as
measured by nudging the reference's c2.
"""

import functools
import math
import re

import numpy as np

import ehjscc.numerics as numerics
import ehjscc.policy as policy
import ehjscc.search as search
from ehjscc.models import (
    BernoulliSource,
    GaussianSource,
    IncreasingLeakage,
    ZeroLeakage,
)
from ehjscc.numerics import affine_field, find_root
from ehjscc.policy import VariationalConstants, solve_adaptive

from test_acceptance import ALL_BENCHMARKS, ARR, CH

GAUSS = GaussianSource(variance=1.0)
BERN = BernoulliSource(prob=0.5)


def _brent_endpoint_root(terms, scale, closing, p0, z_end, nudge=0.0):
    # numerics.endpoint_root as it was, Brent on Phi; the c it returns
    # may be nudged by a relative amount, with the start at that c
    gl = numerics._GL_ORDER
    base0, den0 = terms(np.array([p0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        f0 = float((base0[0] + scale * closing(p0)[0]) / den0[0])
    if not math.isfinite(f0):
        return None
    sign = 1.0 if f0 > 0.0 else -1.0
    s0 = math.log(p0)
    u_limit = numerics._S_MAX - sign * s0
    _, weights, to_coef, to_antider = numerics._gauss_tables()
    to_poly = to_coef.T @ to_antider.T
    table = {name: np.empty(0) for name in
             ("lefts", "widths", "numer", "denom", "least", "wts", "edge_numer", "edge_denom")}

    def extend(a, b):
        cuts = np.linspace(a, b, numerics._TABLE_PANELS + 1)
        if a == 0.0:
            steps = math.ceil(math.log(cuts[1] / numerics._TABLE_FLOOR, numerics._GRADING))
            cuts = np.concatenate(
                ([0.0], cuts[1] * numerics._GRADING ** -np.arange(steps, 0.0, -1.0), cuts[1:]))
        h = np.diff(cuts)
        q = numerics._knot_states(s0, sign, cuts[:-1], h)[1]
        base, den = terms(q)
        top = sign * q * den
        for name, more in (("lefts", cuts[:-1]), ("widths", h), ("numer", top[:, :-1]),
                           ("denom", base[:, :-1]), ("edge_numer", top[:, -1]),
                           ("edge_denom", base[:, -1]), ("least", q[:, :-1] / numerics._RHS_CAP),
                           ("wts", 0.5 * h[:, None] * weights)):
            table[name] = np.concatenate((table[name], more), axis=None)

    closed = math.inf

    def dz_du(u):
        lefts = table["lefts"]
        k = min(int(np.searchsorted(lefts, u, side="right")) - 1, lefts.size - 1)
        m = gl * (k + 1)
        c = closing(math.exp(s0 + sign * u))[0]
        return k, m, c, table["numer"][:m] / (table["denom"][:m] + scale * c)

    def phi(u):
        nonlocal closed
        k, m, _, v = dz_du(u)
        if not (v >= table["least"][:m]).all():
            return math.inf
        t = 2.0 * (u - table["lefts"][k]) / table["widths"][k] - 1.0
        part = 0.0
        for coef in (v[m - gl:] @ to_poly)[::-1].tolist():
            part = part * t + coef
        value = (float(v[:m - gl] @ table["wts"][:m - gl])
                 + 0.5 * table["widths"][k] * part - z_end)
        if not value < math.inf:
            return math.inf
        if value >= 0.0:
            closed = min(closed, u)
        return value

    lo = hi = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            if hi >= u_limit:
                return None
            lo, hi = hi, min(max(2.0 * hi, numerics._TABLE_REACH), u_limit)
            extend(lo, hi)
            if not phi(hi) < 0.0:
                break
        if not phi(lo) < 0.0:
            return None
        tol = numerics._ROOT_RTOL * max(1.0, hi)
        root = find_root(phi, lo, hi, tol=tol)
        if closed - root > tol:
            return None
        k, m, c, _ = dz_du(root)
        c *= 1.0 + nudge
        v = table["numer"][:m] / (table["denom"][:m] + scale * c)
        edge = table["edge_numer"][:k + 1] / (table["edge_denom"][:k + 1] + scale * c)
    g = np.concatenate((v.reshape(k + 1, gl), edge[:, None]), axis=1)
    start = (float(affine_field(base0, den0, scale * c)[0]),
             table["lefts"][:k + 1], table["widths"][:k + 1], g)
    return c, start


def _row_cases():
    return [(src, leak, float(cap), 1e-3, beta, c1)
            for src, leak, rows in ALL_BENCHMARKS
            for cap, (_, beta, c1, _) in rows.items()]


def _tune_cases(monkeypatch):
    # every polished probe of the benchmark's two tunes
    probes = []
    solve = search.solve_adaptive

    def spy(src, ch, arr, leak, capacity, p0plus, consts, **kwargs):
        if kwargs.get("refine_c2"):
            probes.append((src, leak, capacity, p0plus, consts.beta, consts.c1))
        return solve(src, ch, arr, leak, capacity, p0plus, consts, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(search, "solve_adaptive", spy)
        spec = search.SearchSpec(seed=0)
        search.capacity_sweep(search.Problem(GAUSS, CH, ARR, ZeroLeakage(), 5.0), [5.0], spec)
        search.tune_constants(search.Problem(BERN, CH, ARR, ZeroLeakage(), 3.0), spec)
    return probes


def _random_cases(count):
    # Gaussian or Bernoulli, beta in (-0.95, -0.05)*d_max, L in [0.5, 100],
    # p0plus in [1e-4, 1], c1 within 1e-6..1 of the edge on either side,
    # zero or increasing leakage
    rng = np.random.default_rng(2023)
    cases = []
    for _ in range(count):
        src = GAUSS if rng.random() < 0.5 else BERN
        beta = float(-src.d_max * rng.uniform(0.05, 0.95))
        capacity = float(math.exp(rng.uniform(math.log(0.5), math.log(100.0))))
        p0plus = float(math.exp(rng.uniform(math.log(1e-4), 0.0)))
        offset = math.exp(rng.uniform(math.log(1e-6), 0.0))
        c1 = policy.c1_edge(src, CH, beta, p0plus) + float(rng.choice((-1.0, 1.0))) * offset
        leak = ZeroLeakage() if rng.random() < 0.5 else IncreasingLeakage()
        cases.append((src, leak, capacity, p0plus, beta, c1))
    return cases


NAMED_CASES = [
    # near-equilibrium: no root at the table's resolution (FOUND in CHANGES.md)
    (BERN, ZeroLeakage(), 29.67, 1e-3, -0.47910, -1.35909),
    (BERN, ZeroLeakage(), 50.19, 1e-3, -0.28877, -0.74793),
    # the state falls from p0plus = 1
    (GAUSS, ZeroLeakage(), 1.0, 1.0, -0.3, 0.0064),
]


def _solve(case, monkeypatch, root=None):
    src, leak, capacity, p0plus, beta, c1 = case
    with monkeypatch.context() as m:
        if root is not None:
            m.setattr(policy, "endpoint_root", root)
        return solve_adaptive(src, CH, ARR, leak, capacity, p0plus,
                              VariationalConstants(beta, c1, 0.3), refine_c2=True)


def _rel(a, b):
    return abs(a - b) / abs(b)


def _assert_parity(cases, monkeypatch, conditioned=False):
    # the same outcome and message, c2 to 1e-11 and d_avg to 1e-12
    # relative.  With ``conditioned``, a case whose d_avg is further
    # apart may pass on its sensitivity: d_avg may differ by twice what a
    # relative nudge of 1e-12 to the reference's c2 moves it, times the
    # roots' relative distance in 1e-12, and a message may differ in the
    # figures it quotes.  Returns the number of cases that passed so
    cited = re.compile(r"-?[0-9.]+(e[-+]?[0-9]+)?")
    ill = 0
    for case in cases:
        new = _solve(case, monkeypatch)
        ref = _solve(case, monkeypatch, _brent_endpoint_root)
        assert new.feasible == ref.feasible, case
        if new.message != ref.message:
            assert conditioned and cited.sub("#", new.message) == cited.sub("#", ref.message), case
            ill += 1
        if new.message.startswith("endpoint condition has no root"):
            continue
        apart = _rel(new.constants.c2, ref.constants.c2)
        assert apart <= 1e-11, case
        if not math.isfinite(ref.d_avg) or _rel(new.d_avg, ref.d_avg) <= 1e-12:
            continue
        assert conditioned, case
        nudged = _solve(case, monkeypatch, functools.partial(_brent_endpoint_root, nudge=1e-12))
        moved = _rel(nudged.d_avg, ref.d_avg)
        assert _rel(new.d_avg, ref.d_avg) <= 2.0 * moved * max(1.0, apart / 1e-12), case
        ill += 1
    return ill


def test_published_rows_match_the_brent_root(monkeypatch):
    _assert_parity(_row_cases(), monkeypatch)


def test_tune_probes_match_the_brent_root(monkeypatch):
    probes = _tune_cases(monkeypatch)
    assert len(probes) >= 20
    _assert_parity(probes, monkeypatch)


def test_named_cases_match_the_brent_root(monkeypatch):
    _assert_parity(NAMED_CASES, monkeypatch)


def test_random_cases_match_the_brent_root(monkeypatch):
    cases = _random_cases(320)
    ill = _assert_parity(cases, monkeypatch, conditioned=True)
    assert ill <= len(cases) // 10


def test_published_rows_take_few_phi_evaluations(monkeypatch):
    # each evaluation of Phi, and the hand-over at the root, calls
    # closing once: the Brent search took 18.5 per polished row
    counts = []
    root = numerics.endpoint_root

    def counting(terms, scale, closing, p0, z_end):
        calls = []

        def counted(p_end):
            calls.append(p_end)
            return closing(p_end)

        found = root(terms, scale, counted, p0, z_end)
        counts.append(len(calls))
        return found

    for case in _row_cases():
        _solve(case, monkeypatch, counting)
    assert len(counts) == 20
    assert sum(counts) / len(counts) <= 10.0

