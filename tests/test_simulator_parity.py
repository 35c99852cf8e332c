"""Parity of the simulator with the per-event one it replaced.

``simulate`` finds the sample path a run of arrivals at a time, with
lanes of events advanced together by a vectorized step and a scalar
walker that checks them, and accounts for the drain segments and empty
intervals in bulk.  The earlier implementation stepped from event to
event and credited every segment as it went, through per-segment
closed-form integrals.  It is kept here, renamed, as the reference.  Both
draw the same random numbers in the same order and walk the same sample
path, so event counts and overflow agree exactly; only the summation
order of the accounting differs.  The vectorized step is checked against
the walker's scalar step bit for bit.
"""

import math
from bisect import bisect_right

import numpy as np
import pytest

from ehjscc.distortion import distortion
from ehjscc.models import (
    ArrivalModel,
    BernoulliSource,
    GaussianSource,
    IncreasingLeakage,
    SystemConfig,
    ZeroLeakage,
)
from ehjscc import simulator
from ehjscc.numerics import Rng
from ehjscc.policy import VariationalConstants, solve_adaptive, solve_constant_kappa
from ehjscc.search import Problem, tune_constants
from ehjscc.simulator import SimConfig, SimulationStats, simulate

from test_acceptance import ARR, CH, ROWS_BERN_LEAKY, ROWS_GAUSS_IDEAL

_BINS = 512
_BURN_IN_FRACTION = 0.01
_RNG_BLOCK = 8192

GAUSS = GaussianSource(variance=1.0)
BERN = BernoulliSource(prob=0.5)


# ---------------------------------------------------------------------------
# reference: the per-event simulator as it was before chunked accounting
# ---------------------------------------------------------------------------

class _ReferenceTable:
    # the policy nodes and the occupancy bin edges merged onto one
    # ascending charge grid, with per-cell linear profiles and closed-form
    # cumulatives of time, power, inverse mismatch and reported distortion
    # (all against the sojourn-time measure dt = dz / drain)
    def __init__(self, config):
        policy = config.policy
        leak = config.system.leakage
        cap = policy.grid.capacity
        edges = np.linspace(0.0, cap, _BINS + 1)

        merged = np.union1d(np.concatenate(([0.0], policy.grid.nodes)), edges)
        keep = np.concatenate(([True], np.diff(merged) > 1e-12 * cap))
        z = merged[keep]
        z[-1] = cap

        p = np.interp(z, policy.grid.nodes, policy.p)
        p[0] = policy.p0plus
        kappa = np.interp(z, policy.grid.nodes, policy.kappa)
        g = p + np.asarray(leak.rate(z), dtype=float)
        if np.any(g <= 0.0):
            raise ValueError("drain rate must stay positive everywhere")
        inv_kappa = 1.0 / kappa
        if policy.kind == "adaptive":
            d_dag = policy.d_beta * inv_kappa
        else:
            d_dag = np.array(
                [distortion(config.src, config.ch, x, 1.0) for x in p]
            )

        self.cap = cap
        self.edges = edges
        dz = np.diff(z)
        gs = np.diff(g) / dz                        # drain slope per cell
        weights = np.stack([p, inv_kappa, d_dag])   # node values
        wslopes = np.diff(weights, axis=1) / dz

        # hot-loop mirrors as plain python lists (scalar math is several
        # times faster than small-array numpy here)
        self.z_list = z.tolist()
        self.dz_l = dz.tolist()
        self.ga_l = g[:-1].tolist()
        self.gb_l = g[1:].tolist()
        self.gs_l = gs.tolist()
        self.wa = weights[:, :-1].T.tolist()        # per cell [wp, wk, wd]
        self.ws = wslopes.T.tolist()

        # cell-by-cell closed forms, then cumulative time-to-drain from the
        # top (z = cap) and matching cumulative weighted sojourn integrals
        n = len(z) - 1
        cell_t = np.empty(n)
        cell_w = np.empty((n, 3))
        for i in range(n):
            out = self._cell_integrals(i, 0.0, dz[i])
            cell_t[i] = out[0]
            cell_w[i] = out[1:]
        # u_node[j] = time to drain from cap down to z[j]; descending in j
        u_node = np.concatenate((np.cumsum(cell_t[::-1])[::-1], [0.0]))
        w_node = np.concatenate(
            (np.cumsum(cell_w[::-1], axis=0)[::-1], np.zeros((1, 3))), axis=0
        )
        self.u_node = u_node.tolist()
        self.w_node = w_node.tolist()               # per node [Wp, Wk, Wd]
        self.u_max = float(u_node[0])
        self.neg_u_list = (-u_node).tolist()        # ascending, for bisect

        # bin edges are a subset of the merged nodes: record their u values
        # and the fixed time each full-bin crossing takes
        idx = np.searchsorted(z, edges)
        self.u_edge = u_node[idx]
        self.crossing = self.u_edge[:-1] - self.u_edge[1:]

    def _cell_integrals(self, i, x1, x2):
        # time and weighted-time integrals over offsets [x1, x2] of cell i,
        # sharing one log across all weights; the drain is linear in z, so
        # int dz/g is a log and int w dz/g splits into linear + log parts
        ga = self.ga_l[i]
        gs = self.gs_l[i]
        wa = self.wa[i]
        ws = self.ws[i]
        dx = x2 - x1
        if abs(gs) * self.dz_l[i] > 1e-12 * ga:
            t = math.log1p(gs * dx / (ga + gs * x1)) / gs
            a = dx / gs
            b = t / gs
            return (
                t,
                ws[0] * a + (wa[0] * gs - ws[0] * ga) * b,
                ws[1] * a + (wa[1] * gs - ws[1] * ga) * b,
                ws[2] * a + (wa[2] * gs - ws[2] * ga) * b,
            )
        inv_gm = 1.0 / (ga + gs * 0.5 * (x1 + x2))
        q = 0.5 * (x2 * x2 - x1 * x1)
        return (
            dx * inv_gm,
            (wa[0] * dx + ws[0] * q) * inv_gm,
            (wa[1] * dx + ws[1] * q) * inv_gm,
            (wa[2] * dx + ws[2] * q) * inv_gm,
        )

    def u_of_z(self, z: float) -> float:
        # time to drain from the top down to charge z
        if z >= self.cap:
            return 0.0
        if z <= 0.0:
            return self.u_max
        i = bisect_right(self.z_list, z) - 1
        x1 = z - self.z_list[i]
        ga = self.ga_l[i]
        gs = self.gs_l[i]
        dx = self.dz_l[i] - x1
        if abs(gs) * self.dz_l[i] > 1e-12 * ga:
            t = math.log1p(gs * dx / (ga + gs * x1)) / gs
        else:
            t = dx / (ga + gs * 0.5 * (x1 + self.dz_l[i]))
        return self.u_node[i + 1] + t

    def z_of_u(self, u: float) -> float:
        # charge after draining from the top for time u
        if u <= 0.0:
            return self.cap
        if u >= self.u_max:
            return 0.0
        i = bisect_right(self.neg_u_list, -u) - 1   # cell [z[i], z[i+1]]
        tau = u - self.u_node[i + 1]                # time left inside the cell
        gb = self.gb_l[i]
        gs = self.gs_l[i]
        if abs(gs) * self.dz_l[i] > 1e-12 * self.ga_l[i]:
            drop = -(gb / gs) * math.expm1(-gs * tau)
        else:
            drop = gb * tau
        return self.z_list[i + 1] - drop

    def weighted_between(self, z_lo: float, z_hi: float):
        # sojourn integrals of (power, 1/kappa, d_dagger) while the charge
        # drains from z_hi down to z_lo
        zl = self.z_list
        last = len(zl) - 2
        i_lo = bisect_right(zl, z_lo) - 1
        if i_lo < 0:
            i_lo = 0
        elif i_lo > last:
            i_lo = last
        i_hi = bisect_right(zl, z_hi) - 1
        if i_hi < 0:
            i_hi = 0
        elif i_hi > last:
            i_hi = last
        if i_lo == i_hi:
            out = self._cell_integrals(i_lo, z_lo - zl[i_lo], z_hi - zl[i_lo])
            return out[1], out[2], out[3]
        lo = self._cell_integrals(i_lo, z_lo - zl[i_lo], self.dz_l[i_lo])
        hi = self._cell_integrals(i_hi, 0.0, z_hi - zl[i_hi])
        wn_a = self.w_node[i_lo + 1]
        wn_b = self.w_node[i_hi]
        return (
            lo[1] + hi[1] + wn_a[0] - wn_b[0],
            lo[2] + hi[2] + wn_a[1] - wn_b[1],
            lo[3] + hi[3] + wn_a[2] - wn_b[2],
        )


def reference_simulate(config):
    # per event: drain, clip to the window, credit, lift
    table = _ReferenceTable(config)
    arr = config.system.arrivals
    delta, lam = arr.delta, arr.lam
    horizon = config.horizon
    burn = _BURN_IN_FRACTION * horizon
    rng = Rng(config.seed)

    occupancy_partial = [0.0] * _BINS
    full_crossings = [0] * (_BINS + 1)              # difference form
    bin_width = table.cap / _BINS
    u_edge = table.u_edge.tolist()
    pi0_time = 0.0
    sum_p = sum_k = sum_d = 0.0

    # energy bookkeeping over the whole run, burn-in included
    z0 = min(max(config.z0, 0.0), table.cap)
    arrived = 0.0
    consumed = 0.0
    overflow = 0.0
    events = 0

    def accrue_drain(u_a, u_b, t_a, z_a, z_b):
        # clip a drain segment [u_a, u_b] (starting at wall time t_a, with
        # known endpoint charges) to the measurement window, then credit
        # the occupancy bins and the weighted sojourn integrals
        nonlocal sum_p, sum_k, sum_d
        lo = max(u_a, u_a + (burn - t_a))
        hi = min(u_b, u_a + (horizon - t_a))
        if hi <= lo:
            return
        z_hi = z_a if lo == u_a else table.z_of_u(lo)
        z_lo = z_b if hi == u_b else table.z_of_u(hi)
        wp, wk, wd = table.weighted_between(z_lo, z_hi)
        sum_p += wp
        sum_k += wk
        sum_d += wd

        k_hi = min(int(z_hi / bin_width), _BINS - 1)
        k_lo = min(int(z_lo / bin_width), _BINS - 1)
        if k_hi == k_lo:
            occupancy_partial[k_hi] += hi - lo
        else:
            occupancy_partial[k_hi] += u_edge[k_hi] - lo
            occupancy_partial[k_lo] += hi - u_edge[k_lo + 1]
            full_crossings[k_lo + 1] += 1
            full_crossings[k_hi] -= 1

    def accrue_empty(dt, t_a):
        nonlocal pi0_time
        lo = max(t_a, burn)
        hi = min(t_a + dt, horizon)
        if hi > lo:
            pi0_time += hi - lo

    t = 0.0
    z = z0
    u = table.u_of_z(z)
    block_t = block_e = None
    cursor = _RNG_BLOCK

    while t < horizon:
        if delta > 0.0:
            if cursor >= _RNG_BLOCK:
                block_t = rng.exponential(rate=delta, size=_RNG_BLOCK)
                block_e = rng.exponential(rate=lam, size=_RNG_BLOCK)
                cursor = 0
            tau = float(block_t[cursor])
            energy = float(block_e[cursor])
            cursor += 1
        else:
            tau = math.inf
            energy = 0.0
        seg = min(tau, horizon - t)

        # drain (and possibly empty out) for seg time units
        if z > 0.0:
            u_end = u + seg
            if u_end < table.u_max:
                z_new = table.z_of_u(u_end)
                accrue_drain(u, u_end, t, z, z_new)
                consumed += z - z_new
                z, u = z_new, u_end
            else:
                drain_time = table.u_max - u
                accrue_drain(u, table.u_max, t, z, 0.0)
                consumed += z
                accrue_empty(seg - drain_time, t + drain_time)
                z, u = 0.0, table.u_max
        else:
            accrue_empty(seg, t)

        t += seg
        if seg < tau:
            break   # horizon reached mid-interval

        events += 1
        arrived += energy
        lifted = z + energy
        if lifted > table.cap:
            overflow += lifted - table.cap
            lifted = table.cap
        z = lifted
        u = table.u_of_z(z)

    counts = np.cumsum(full_crossings[:-1])
    occupancy = counts * table.crossing + np.asarray(occupancy_partial)
    occ_cum = np.cumsum(occupancy)
    measured = pi0_time + occ_cum[-1]
    cdf = np.empty(_BINS + 1)
    cdf[0] = pi0_time / measured
    cdf[1:] = (pi0_time + occ_cum) / measured

    kappa0 = config.policy.kappa0
    empty_d = config.src.d_max / kappa0

    return SimulationStats(
        capacity=table.cap,
        horizon=horizon,
        bin_edges=table.edges,
        empirical_cdf=cdf,
        pi0_hat=cdf[0],
        mean_power=sum_p / measured,
        mean_inv_kappa=(sum_k + pi0_time / kappa0) / measured,
        mean_d_dagger=(sum_d + pi0_time * empty_d) / measured,
        overflow_energy=overflow,
        event_count=events,
        energy_residual=(
            abs(z0 + arrived - z - consumed - overflow)
            / max(1.0, z0 + arrived)
        ),
    )


# ---------------------------------------------------------------------------
# policies and runs
# ---------------------------------------------------------------------------

def _adaptive(src, leak, row, cap):
    _, beta, c1, c2 = row
    sol = solve_adaptive(
        src, CH, ARR, leak, cap, 1e-3, VariationalConstants(beta, c1, c2),
        refine_c2=True,
    )
    assert sol.feasible
    return sol


@pytest.fixture(scope="module")
def policies():
    c_star = -ARR.lam * distortion(BERN, CH, ARR.delta / ARR.lam, 1.0)
    out = {
        "gauss-L5": (_adaptive(GAUSS, ZeroLeakage(), ROWS_GAUSS_IDEAL[5], 5.0),
                     GAUSS, ZeroLeakage()),
        "bern-leaky-L3": (_adaptive(BERN, IncreasingLeakage(), ROWS_BERN_LEAKY[3], 3.0),
                          BERN, IncreasingLeakage()),
        "gauss-constk": (solve_constant_kappa(GAUSS, CH, ARR, ZeroLeakage(), 5.0,
                                              1e-3, -0.55), GAUSS, ZeroLeakage()),
        "bern-constk": (solve_constant_kappa(BERN, CH, ARR, ZeroLeakage(), 5.0,
                                             1e-3, c_star - 0.01), BERN, ZeroLeakage()),
        # p stays at 1: every cell takes the constant-drain-rate form
        "bern-fixed-point": (solve_constant_kappa(BERN, CH, ARR, ZeroLeakage(), 5.0,
                                                  1.0, c_star), BERN, ZeroLeakage()),
    }
    for sol, _, _ in out.values():
        assert sol.feasible
    return out


def _config(policies, name, *, horizon, seed=0, z0=0.0, arrivals=ARR):
    sol, src, leak = policies[name]
    system = SystemConfig(
        arrivals=arrivals, leakage=leak, capacity=sol.grid.capacity, p0plus=sol.p0plus
    )
    return SimConfig(policy=sol, system=system, horizon=horizon, seed=seed,
                     z0=z0, src=src, ch=CH)


def _assert_parity(config):
    new, ref = simulate(config), reference_simulate(config)
    assert isinstance(new, SimulationStats)
    assert new.event_count == ref.event_count
    assert new.overflow_energy == ref.overflow_energy
    assert new.capacity == ref.capacity
    assert new.horizon == ref.horizon
    assert np.array_equal(new.bin_edges, ref.bin_edges)
    assert np.max(np.abs(new.empirical_cdf - ref.empirical_cdf)) <= 1e-12
    assert new.empirical_cdf[-1] == 1.0
    assert abs(new.pi0_hat - ref.pi0_hat) <= 1e-12
    for name in ("mean_power", "mean_inv_kappa", "mean_d_dagger"):
        a, b = getattr(new, name), getattr(ref, name)
        assert abs(a - b) <= 1e-12 * abs(b), (name, a, b)
    assert new.energy_residual <= 1e-13 and ref.energy_residual <= 1e-13
    return new


@pytest.mark.parametrize("name", ["gauss-L5", "bern-leaky-L3", "gauss-constk",
                                  "bern-constk", "bern-fixed-point"])
@pytest.mark.parametrize("z0", ["empty", "interior", "full"])
def test_policies_match_reference(policies, name, z0):
    # from an interior charge the first u comes from the lift's closed
    # form, as every later one does, so the energy books agree exactly
    cap = policies[name][0].grid.capacity
    _assert_parity(_config(policies, name, horizon=2e3, seed=3,
                           z0={"empty": 0.0, "interior": 0.37 * cap, "full": cap}[z0]))


def test_long_run_crosses_chunk_and_block_boundaries(policies):
    # more than one block of random draws and many accounting chunks
    stats = _assert_parity(_config(policies, "gauss-L5", horizon=2.5e4, seed=1))
    assert stats.event_count > 2 * _RNG_BLOCK


def test_drain_only_run_matches_reference(policies):
    # without arrivals: a single drain segment from a full battery whose
    # burn-in boundary (0.3) and horizon both fall inside it, then a run
    # long enough to empty out
    no_arrivals = ArrivalModel(delta=0.0, lam=1.0)
    for horizon in (30.0, 1000.0):
        stats = _assert_parity(_config(policies, "gauss-L5", horizon=horizon,
                                       z0=5.0, arrivals=no_arrivals))
        assert stats.event_count == 0
    stats = _assert_parity(_config(policies, "gauss-L5", horizon=30.0, z0=0.0,
                                   arrivals=no_arrivals))
    assert stats.pi0_hat == 1.0


def test_burn_in_boundary_inside_a_drain_segment(policies):
    # the first wait from a full battery outlasts the burn-in, so the
    # first drain segment is cut at the burn-in boundary
    horizon, seed = 60.0, 4
    first_wait = Rng(seed).exponential(rate=ARR.delta, size=_RNG_BLOCK)[0]
    assert first_wait > _BURN_IN_FRACTION * horizon
    _assert_parity(_config(policies, "gauss-L5", horizon=horizon, seed=seed, z0=5.0))


# ---------------------------------------------------------------------------
# speculative lanes
# ---------------------------------------------------------------------------

@pytest.fixture
def runs(monkeypatch):
    # (events, lanes) of every run of the path that simulate computes
    seen = []
    true_path = simulator._true_path

    def spy(table, segs, energies, z, u, lanes):
        seen.append((len(segs), lanes))
        return true_path(table, segs, energies, z, u, lanes)

    monkeypatch.setattr(simulator, "_true_path", spy)
    return seen


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("name", ["gauss-L5", "bern-leaky-L3", "gauss-constk",
                                  "bern-constk", "bern-fixed-point"])
def test_vector_step_matches_the_walker_bit_for_bit(policies, name):
    # random states in every cell of the merged charge grid, advanced by
    # one event through the lanes' vector step and, one at a time,
    # through the walker; bern-fixed-point has only constant-rate cells
    table = simulator._DrainTable(_config(policies, name, horizon=1.0))
    cap, u_max = table.cap, table.u_max
    rng = np.random.default_rng(7)
    z = table.z[:-1] + rng.uniform(0.0, 1.0, len(table.dz)) * table.dz
    n = len(z)
    z = np.concatenate((z, z, z, z, [0.0, 0.0, cap, cap]))
    u = table.u_of_z(z)
    u[z == 0.0] = u_max
    seg = np.concatenate((
        rng.exponential(0.05, n),           # drains within a few cells
        rng.exponential(1.0, n),
        np.full(n, u_max),                  # runs dry mid-interval
        rng.exponential(1.0, n),
        [0.5, 0.0, 0.0, 0.5],
    ))
    energy = np.concatenate((
        rng.exponential(0.1, n),
        rng.exponential(1.0, n),
        rng.exponential(1.0, n),
        np.full(n, cap),                    # overflows
        [0.3, 0.0, 1.0, 0.0],
    ))
    drained, z_out, u_out = table.step(z, u, seg, energy)

    walked = [simulator._walk(table.walk_lists, [s], [e], [math.nan],
                              float(zk), float(uk))
              for zk, uk, s, e in zip(z, u, seg, energy)]
    assert np.array_equal(_bits(drained), _bits([w[2][0] for w in walked]))
    assert np.array_equal(_bits(z_out), _bits([w[3] for w in walked]))
    assert np.array_equal(_bits(u_out), _bits([w[4] for w in walked]))
    # the cases the states were drawn to reach
    assert np.count_nonzero((drained == 0.0) & (z > 0.0)) >= n
    assert np.count_nonzero(z_out == cap) >= n
    assert np.count_nonzero(u_out == 0.0) >= n


@pytest.fixture(scope="module")
def tuned_l30():
    tuned = tune_constants(Problem(GAUSS, CH, ARR, ZeroLeakage(), 30.0))
    assert tuned.feasible
    return {"gauss-L30": (tuned.solution, GAUSS, ZeroLeakage())}


def test_rarely_regenerating_chain_is_walked_without_lanes(tuned_l30, runs):
    # at a tuned L = 30 policy the battery almost never runs dry or
    # overflows, so a chain started empty would take most of a lane to
    # meet the true one: every run is walked
    stats = _assert_parity(_config(tuned_l30, "gauss-L30", horizon=2e4, seed=2))
    assert stats.event_count > simulator._SLICE + simulator._CHUNK
    assert len(runs) == 3 and all(lanes == 0 for _, lanes in runs)


@pytest.mark.parametrize("name", ["gauss-L5", "bern-leaky-L3", "gauss-constk",
                                  "bern-constk", "bern-fixed-point"])
def test_horizon_inside_the_second_run_of_lanes(policies, runs, name):
    # the first slice is walked; the horizon cuts the next run short,
    # after its last full lane, so the run is part lanes, part walk
    stats = _assert_parity(_config(policies, name, horizon=9000.5, seed=5))
    assert stats.event_count < simulator._SLICE + simulator._CHUNK
    assert runs[0] == (simulator._SLICE, 0)
    (events, lanes), = runs[1:]
    assert lanes == events // simulator._LANE >= simulator._MIN_LANES
    assert events % simulator._LANE
