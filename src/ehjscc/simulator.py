"""Event-driven Monte-Carlo simulation of the battery under a policy.

The battery charge drains deterministically between Poisson arrivals, so
the simulation never time-steps: the policy's drain field is frozen as a
piecewise-linear function of charge, every cell crossing gets a closed
form (exponential decay of the drain rate inside a cell), and each
inter-arrival interval is resolved exactly by table lookup in the
"time-to-drain" coordinate u.  Arrivals lift the charge, reflecting any
excess above the capacity, and a drained battery sits at zero until the
next arrival.  Consumed energy equals drained charge identically, so
energy conservation holds to rounding, not to an integrator tolerance.

The path is computed a run of arrivals at a time.  After a first run
of 1024 events, a run holds 16,384, and lanes of 128 consecutive events
are advanced together, one event per vectorized step: lane 0 from the
true state, every other lane from an empty battery.  Chains driven by
the same arrivals keep their order and coalesce once the upper one runs
dry or the lower one overflows, so a scalar walker follows each later
lane from the true end of the one before only until its charge equals
the speculated one; from there the speculation is exact, because the
vector step reads the walker's table, one row of constants per cell of
the charge grid, and does the walker's float operations in its order.
Where the chain seldom runs dry or overflows, a run gets no lanes and
the walker walks all of it.  Wall times and the energy books are
running sums by ``np.cumsum``, which adds in order as a loop does, so
the statistics do not depend on how the path was found.

Every run is then accounted for in bulk with array operations: its
drain segments and empty waits are clipped to the measurement window
(everything after the burn-in), and each segment end adds its count and
two closed-form moments to its cell of the charge grid.  Both the
time-weighted integrals of power, inverse mismatch and reported
distortion and the drain time spent below each bin edge of the charge
CDF are read off these per-cell sums.  Memory is bounded by the run
length, not the horizon.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .distortion import distortion
from .models import AwgnChannel, SourceModel, SystemConfig
from .numerics import KNOT_RESOLUTION, Rng, cumulative_integral
from .policy import PolicySolution

__all__ = [
    "SimConfig",
    "SimulationStats",
    "DivergenceReport",
    "simulate",
    "compare_to_analytic",
]

_BINS = 512
_BURN_IN_FRACTION = 0.01
_RNG_BLOCK = 8192
_SLICE = 1024               # events in the first run, which is walked
_CHUNK = 2 * _RNG_BLOCK     # events per run after the first
_LANE = 128                 # events per speculative lane
_MIN_LANES = 32             # fewer lanes do not repay a vector step's fixed cost
# lanes run while the last run's chain regenerated (ran dry or
# overflowed) at least this many times per lane length: a lane's walk
# lasts about one regeneration gap, and lanes pay while that is a small
# share of the lane
_REGENERATIONS_PER_LANE = 4


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: a solved policy driven by sampled arrivals.

    ``z0`` is the initial charge (default empty; the first 1% of the
    horizon is discarded as burn-in, so the start state washes out at any
    serious horizon).  ``src`` and ``ch`` give the reported distortion:
    d_max on an empty battery and, for a constant-mismatch policy, the
    profile along the charge, which the solution does not encode.  An
    adaptive policy must have been solved for this ``src`` and ``ch``:
    the distortion they give at its first node has to match its
    ``d_beta`` to 1e-6 relative.  A constant-mismatch policy carries no
    distortion level, so this check is skipped for it.
    """

    policy: PolicySolution
    system: SystemConfig
    horizon: float
    seed: int = 0
    z0: float = 0.0
    src: SourceModel = field(kw_only=True)
    ch: AwgnChannel = field(kw_only=True)

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if self.policy.grid is None or not self.policy.feasible:
            raise ValueError("policy must be a feasible solved policy")
        cap = self.policy.grid.capacity
        if not math.isclose(self.system.capacity, cap, rel_tol=1e-9):
            raise ValueError(
                f"system capacity {self.system.capacity} does not match "
                f"the policy's {cap}"
            )
        if not math.isclose(self.system.p0plus, self.policy.p0plus, rel_tol=1e-9):
            raise ValueError(
                f"system p0plus {self.system.p0plus} does not match "
                f"the policy's {self.policy.p0plus}"
            )
        d_beta = self.policy.d_beta
        if d_beta is not None:
            d_first = distortion(self.src, self.ch, self.policy.p[0], self.policy.kappa[0])
            if not math.isclose(d_first, d_beta, rel_tol=1e-6):
                raise ValueError(
                    "the policy was not solved for this source and channel: they "
                    f"give distortion {d_first:.6g} at its first node, not its "
                    f"d_beta {d_beta:.6g}"
                )
        if not 0.0 <= self.z0 <= cap:
            raise ValueError(f"z0 must lie in [0, {cap}], got {self.z0}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SimulationStats:
    """Time-averaged outcome of one run.

    ``empirical_cdf[k]`` is the fraction of post-burn-in time the charge
    spent at or below ``bin_edges[k]``; it starts at the empty-battery
    share and ends at exactly 1.  ``energy_residual`` is the relative
    bookkeeping gap of initial + arrived against final + consumed +
    reflected energy over the whole run (normalized by the total energy
    input, floored at 1).
    """

    capacity: float
    horizon: float
    bin_edges: np.ndarray
    empirical_cdf: np.ndarray
    pi0_hat: float
    mean_power: float
    mean_inv_kappa: float
    mean_d_dagger: float
    overflow_energy: float
    event_count: int
    energy_residual: float

    def __post_init__(self):
        for name in ("bin_edges", "empirical_cdf"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class DivergenceReport:
    """Gap between a run's empirical law and a solution's analytic one."""

    ks_distance: float
    pi0_gap: float
    inv_kappa_gap: float
    d_dagger_gap: float


class _DrainTable:
    # the policy nodes and the occupancy bin edges merged onto one
    # ascending charge grid z[0] = 0 < ... < z[n] = cap; in each cell the
    # drain rate g = p + leakage and the weights (power, 1/kappa,
    # d_dagger) are linear in z, so the time and the weighted times spent
    # draining through any part of a cell have closed forms
    def __init__(self, config: SimConfig):
        policy = config.policy
        leak = config.system.leakage
        cap = policy.grid.capacity
        edges = np.linspace(0.0, cap, _BINS + 1)

        # every bin edge stays a node; a policy node closer than the knots'
        # resolution to its neighbour below or above gives way
        z = np.union1d(policy.grid.nodes, edges)
        apart = np.diff(z) > KNOT_RESOLUTION * cap
        z = z[np.isin(z, edges) | (np.append(True, apart) & np.append(apart, True))]

        p = np.interp(z, policy.grid.nodes, policy.p)
        kappa = np.interp(z, policy.grid.nodes, policy.kappa)
        g = p + np.asarray(leak.rate(z), dtype=float)
        if np.any(g <= 0.0):
            raise ValueError("drain rate must stay positive everywhere")
        inv_kappa = 1.0 / kappa
        if policy.kind == "adaptive":
            d_dag = policy.d_beta * inv_kappa
        else:
            d_dag = np.asarray(distortion(config.src, config.ch, p, 1.0), dtype=float)

        self.cap = cap
        self.edges = edges
        self.edge_nodes = np.searchsorted(z, edges)
        self.z = z
        dz = self.dz = np.diff(z)
        ga = self.ga = g[:-1]
        gb = g[1:]
        gs = self.gs = np.diff(g) / dz                  # drain slope per cell
        # a cell whose drain rate barely changes takes the constant-rate
        # form instead: the log form would lose every digit
        self.curved = np.abs(gs) * dz > 1e-12 * ga
        self.any_flat = not self.curved.all()
        gs_c = self.gs_c = np.where(self.curved, gs, 1.0)

        # weighted times are per-cell linear combinations of two moments
        # (a, b) of each point (see moments): in a curved cell
        # w = wa + ws*x is linear in g, so int w dx/g = (ws/gs) dx +
        # ((wa*gs - ws*ga)/gs) int dx/g
        self.weights = np.stack([p, inv_kappa, d_dag], axis=1)  # node values
        wa = self.weights[:-1]
        ws = np.diff(self.weights, axis=0) / dz[:, None]
        curved = self.curved[:, None]
        self.coef_a = np.where(curved, ws / gs_c[:, None], wa)
        self.coef_b = np.where(
            curved, (wa * gs_c[:, None] - ws * ga[:, None]) / gs_c[:, None], ws
        )

        # u_node[j] = time to drain from cap down to z[j] (descending in
        # j); w_top[i] = weighted times from cap down to the top of cell i
        cell_t, a, b = self.moments(np.arange(len(dz)), np.zeros(len(dz)))
        # a curved cell's time again through libm's log1p, which the lifts
        # of _walk and step take too: numpy's SIMD log1p differs from it in
        # the last bit for some arguments, and u_node is summed from these
        curved_t = _mapped(math.log1p, gs_c * dz / ga) / gs_c
        cell_t, b = (np.where(self.curved, curved_t, x) for x in (cell_t, b))
        self.cell_t = cell_t
        cell_w = self.coef_a * a[:, None] + self.coef_b * b[:, None]
        self.u_node = np.concatenate((np.cumsum(cell_t[::-1])[::-1], [0.0]))
        self.w_top = np.concatenate(
            (np.cumsum(cell_w[:0:-1], axis=0)[::-1], np.zeros((1, 3)))
        )
        self.u_max = float(self.u_node[0])
        self.neg_u_cells = -self.u_node[:-1]            # ascending

        # one row of drain and lift constants per cell, which the vector
        # step gathers for its lanes in one indexing operation and _walk
        # reads as python lists (scalar math on lists is several times
        # faster than on small numpy arrays); the search tables leave out
        # the last node, so z = cap and u = 0 both land in the top cell
        u_top = self.u_node[1:]
        self.z_cells = z[:-1]
        self.rows = np.stack((self.z_cells, z[1:], dz, ga, gb, gs, gs_c, u_top,
                              gb / gs_c, self.curved), axis=1)
        self.walk_lists = (self.z_cells.tolist(), self.neg_u_cells.tolist(),
                           self.rows.tolist(), cap, self.u_max)

    def moments(self, i, x):
        # from offset x in cell i up to the cell's top, elementwise: the
        # drain time t and the moments (a, b) whose combination
        # coef_a[i]*a + coef_b[i]*b is the weighted time; a curved cell
        # has a = dx and b = t, a constant-rate one t = a = dx/g(mid) and
        # b = int x dx / g(mid)
        dz, ga, gs = self.dz[i], self.ga[i], self.gs_c[i]
        dx = dz - x
        t = np.log1p(gs * dx / (ga + gs * x)) / gs
        a, b = dx, t.copy()
        flat = ~self.curved[i]
        if flat.any():
            xf, dxf, dzf = x[flat], dx[flat], dz[flat]
            inv_gm = 1.0 / (ga[flat] + self.gs[i[flat]] * 0.5 * (xf + dzf))
            t[flat] = a[flat] = dxf * inv_gm
            b[flat] = 0.5 * (dzf * dzf - xf * xf) * inv_gm
        return t, a, b

    def cell_of(self, z):
        # the cell of each charge in [0, cap], for the lifts and the tally
        return self.z_cells.searchsorted(z, side="right") - 1

    def z_of_u(self, u):
        # the charge after draining from the top for time u (at most
        # u_max), elementwise: the drain of _walk, with searchsorted for
        # bisect and math.expm1 mapped over the array (numpy's SIMD
        # expm1 differs from libm's in the last bit), so that every
        # charge equals the walker's
        i = self.neg_u_cells.searchsorted(-u, side="right") - 1
        _, z_top, _, _, gb, gs, _, u_top, ratio, curved = self.rows.take(i, axis=0).T
        tau = u - u_top
        z = z_top + ratio * _mapped(math.expm1, -gs * tau)
        if self.any_flat:
            z = np.where(curved, z, z_top - gb * tau)
        return z

    def u_of_z(self, z):
        # the time to drain from the top down to charge z (at most cap),
        # elementwise: the lift of _walk, through libm's log1p as above;
        # at the capacity it gives u = 0 exactly
        i = self.cell_of(z)
        z_cell, _, dz, ga, _, gs, gs_c, u_top, _, curved = self.rows.take(i, axis=0).T
        x1 = z - z_cell
        dx = dz - x1
        u = u_top + _mapped(math.log1p, gs_c * dx / (ga + gs_c * x1)) / gs_c
        if self.any_flat:
            u = np.where(curved, u, u_top + dx / (ga + gs * 0.5 * (x1 + dz)))
        return u

    def step(self, z, u, seg, energy):
        # one event in every lane at once: drain for seg from charge z
        # (time-to-drain u), then lift by energy, elementwise, with the
        # same float operations as _walk.  Returns the drained charge and
        # the charge and u after the lift
        u_end = u + seg
        live = (z > 0.0) & (u_end < self.u_max)
        # a lane that is empty or runs dry takes 0; clipped, its lookup
        # stays in the table and its expm1 argument bounded
        drained = np.where(live, self.z_of_u(np.minimum(u_end, self.u_max)), 0.0)
        z = np.minimum(drained + energy, self.cap)
        return drained, z, self.u_of_z(z)


def _mapped(fn, x):
    # a scalar math function applied elementwise, through libm
    return np.fromiter(map(fn, x.tolist()), float, len(x))


def _walk(lists, segs, energies, targets, z, u):
    # the exact state recursion, one event at a time from charge z (u):
    # drain for seg (emptying out if the charge runs dry), then lift by
    # the energy and reflect at the capacity.  Stops after the first lift
    # whose charge equals its target, where a speculated path has met the
    # true one.  Returns every walked event's entry charge and u and the
    # charge its drain left, and the state after the last lift
    z_cells, neg_u_cells, rows, cap, u_max = lists
    expm1, log1p = math.expm1, math.log1p
    z_in, u_in, drained = [], [], []
    push_z, push_u, push_drained = z_in.append, u_in.append, drained.append
    for seg, energy, target in zip(segs, energies, targets):
        push_z(z)
        push_u(u)
        if z > 0.0:
            u_end = u + seg
            if u_end < u_max:
                i = bisect_right(neg_u_cells, -u_end) - 1
                _, z_top, _, _, gb, gs, _, u_top, ratio, curved = rows[i]
                if curved:
                    z = z_top + ratio * expm1(-gs * (u_end - u_top))
                else:
                    z = z_top - gb * (u_end - u_top)
            else:
                z = 0.0
        push_drained(z)
        z += energy
        if z > cap:
            z, u = cap, 0.0
        else:
            z_cell, _, dz, ga, _, gs, _, u_top, _, curved = rows[bisect_right(z_cells, z) - 1]
            x1 = z - z_cell
            if curved:
                u = u_top + log1p(gs * (dz - x1) / (ga + gs * x1)) / gs
            else:
                u = u_top + (dz - x1) / (ga + gs * 0.5 * (x1 + dz))
        if z == target:
            break
    return z_in, u_in, drained, z, u


class _Tally:
    # time-weighted statistics of the measurement window [burn, horizon],
    # accumulated a run of drain segments and empty waits at a time.  A
    # drain segment is recorded by its two ends: per cell, the net count
    # of segment ends (bottom ends +1, top ends -1) and the net sums of
    # their moments a and b
    def __init__(self, table: _DrainTable, burn: float, horizon: float):
        self.table = table
        self.burn = burn
        self.horizon = horizon
        self.end_moments = np.zeros((3, len(table.dz)))
        self.pi0_time = 0.0

    def add_run(self, t_at, segs, z_in, u_in, drained):
        # one run of the true path, event by event: wall time, interval
        # length, entry charge and u, and the charge the drain left.  An
        # event drains from its entry charge until its interval ends or the
        # battery runs dry at u_max, and waits empty for what is left.
        # Both are clipped to the window; every drain segment ends by the
        # horizon, so only the burn-in cuts one, and it is recorded by its
        # ends
        table = self.table
        u_max = table.u_max
        drains = z_in > 0.0
        # a drain runs from u_in, or from the burn-in if later, to u_end
        u_end = np.minimum(u_in + segs, u_max)
        lo = np.maximum(u_in, u_in + (self.burn - t_at))
        lo, u_a, z_hi, z_lo = (
            x[drains & (u_end > lo)] for x in (lo, u_in, z_in, drained)
        )
        cut = lo != u_a
        if cut.any():
            z_hi[cut] = table.z_of_u(lo[cut])
        self.end_moments += self._moment_sums(z_lo) - self._moment_sums(z_hi)

        # the battery waits empty through an interval it starts empty, or
        # from where a drain runs dry
        drain_time = u_max - u_in
        waits = ~drains | (u_end == u_max)
        t_a = np.where(drains, t_at + drain_time, t_at)[waits]
        dt = np.where(drains, segs - drain_time, segs)[waits]
        lo = np.maximum(t_a, self.burn)
        hi = np.minimum(t_a + dt, self.horizon)
        self.pi0_time += float(np.sum(np.maximum(hi - lo, 0.0)))

    def _moment_sums(self, z):
        # per cell: the number of points of z and the sums of their
        # moments; sorted keys make the cell search several times faster,
        # and the order changes the sums only in their rounding
        table = self.table
        z = np.sort(z)
        i = table.cell_of(z)
        _, a, b = table.moments(i, z - table.z[i])
        n = len(table.dz)
        return np.stack((
            np.bincount(i, minlength=n),
            np.bincount(i, weights=a, minlength=n),
            np.bincount(i, weights=b, minlength=n),
        ))

    def drain_times(self):
        # drain time spent at or below each merged node z[j]: the sum over
        # cells m < j of the ends' net times to the top of cell m (b in a
        # curved cell, a in a constant-rate one, see moments) plus the
        # full cell time for every segment with its bottom below cell m
        # and its top in it or above
        table = self.table
        count, sum_a, sum_b = self.end_moments
        ends = np.where(table.curved, sum_b, sum_a)
        crossing = np.concatenate(([0.0], np.cumsum(count[:-1])))
        return np.concatenate(([0.0], np.cumsum(ends + crossing * table.cell_t)))

    def weighted_times(self):
        # time integrals of (power, 1/kappa, d_dagger) over the window:
        # each segment gives W(bottom) - W(top), with W(z) = w_top +
        # coef_a*a + coef_b*b in the cell of z
        table = self.table
        count, sum_a, sum_b = self.end_moments[:, :, None]
        return (
            table.w_top * count + table.coef_a * sum_a + table.coef_b * sum_b
        ).sum(axis=0)


class _Arrivals:
    # inter-arrival times and packet energies, drawn in blocks of
    # _RNG_BLOCK times followed by _RNG_BLOCK energies and handed out in
    # runs of any length; without arrivals, one infinite wait
    def __init__(self, rng, delta: float, lam: float):
        self.rng, self.delta, self.lam = rng, delta, lam
        self.taus = self.energies = np.empty(0)

    def take(self, n: int):
        if self.delta == 0.0:
            return np.array([math.inf]), np.array([0.0])
        while len(self.taus) < n:
            taus = self.rng.exponential(rate=self.delta, size=_RNG_BLOCK)
            energies = self.rng.exponential(rate=self.lam, size=_RNG_BLOCK)
            self.taus = np.concatenate((self.taus, taus))
            self.energies = np.concatenate((self.energies, energies))
        taus, self.taus = self.taus[:n], self.taus[n:]
        energies, self.energies = self.energies[:n], self.energies[n:]
        return taus, energies


def _true_path(table, segs, energies, z, u, lanes):
    # the exact path through one run of events from state (z, u): every
    # event's entry charge and u, the charge its drain left, and the
    # state after the last lift.  ``lanes`` lanes of _LANE events are
    # advanced together by table.step; lane 0 starts from the true state
    # and is exact, the others start empty.  Chains driven by the same arrivals keep their
    # order and meet for good once the upper one runs dry or the lower
    # one overflows, so the walker follows each later lane from the true
    # end of the one before only until its charge equals the speculated
    # one: from there the same state and arrivals give the same floats.
    # Events past the last lane are walked
    n = len(segs)
    z_in, u_in, drained = np.empty(n), np.empty(n), np.empty(n)
    start = lanes * _LANE
    if lanes:
        lane_segs = segs[:start].reshape(lanes, _LANE)
        lane_energies = energies[:start].reshape(lanes, _LANE)
        lane_z = z_in[:start].reshape(lanes, _LANE)         # views
        lane_u = u_in[:start].reshape(lanes, _LANE)
        lane_drained = drained[:start].reshape(lanes, _LANE)
        zs, us = np.zeros(lanes), np.full(lanes, table.u_max)
        zs[0], us[0] = z, u
        for k in range(_LANE):
            lane_z[:, k], lane_u[:, k] = zs, us
            lane_drained[:, k], zs, us = table.step(
                zs, us, lane_segs[:, k], lane_energies[:, k]
            )
        # the speculated charge after each event's lift
        targets = np.concatenate((lane_z[:, 1:], zs[:, None]), axis=1)
        z, u = float(zs[0]), float(us[0])
        for j in range(1, lanes):
            lo = j * _LANE
            zw, uw, dw, z, u = _walk(table.walk_lists, lane_segs[j].tolist(),
                                     lane_energies[j].tolist(),
                                     targets[j].tolist(), z, u)
            hi = lo + len(zw)
            z_in[lo:hi], u_in[lo:hi], drained[lo:hi] = zw, uw, dw
            if hi < lo + _LANE:     # met: the rest of the lane is exact
                z, u = float(zs[j]), float(us[j])
    if start < n:
        # a NaN target is never met
        zw, uw, dw, z, u = _walk(table.walk_lists, segs[start:].tolist(),
                                 energies[start:].tolist(), repeat(math.nan), z, u)
        z_in[start:], u_in[start:], drained[start:] = zw, uw, dw
    return z_in, u_in, drained, z, u


def _running_sum(total: float, terms) -> float:
    # total + terms[0] + terms[1] + ... in that order: np.cumsum adds
    # sequentially, as a loop does, where np.sum adds pairwise
    return float(np.cumsum(np.concatenate(([total], terms)))[-1])


def simulate(config: SimConfig) -> SimulationStats:
    """Run one battery trajectory and collect its stationary statistics.

    Inter-arrival times are exponential with the arrival rate, packet
    energies exponential with the size parameter.  The charge drains
    through the policy's piecewise-linear drain field exactly, arrivals
    reflect at the capacity, and an empty battery waits for the next
    packet.  The first 1% of the horizon is discarded; all averages are
    time-weighted over the remainder.  Identical configs give identical
    statistics, bit for bit.
    """
    table = _DrainTable(config)
    arr = config.system.arrivals
    horizon = config.horizon
    tally = _Tally(table, _BURN_IN_FRACTION * horizon, horizon)
    cap = table.cap

    # energy bookkeeping over the whole run, burn-in included
    z0 = config.z0
    arrived = 0.0
    consumed = 0.0
    overflow = 0.0
    events = 0

    arrivals = _Arrivals(Rng(config.seed), arr.delta, arr.lam)
    t = 0.0
    z = z0
    u = float(table.u_of_z(np.array([z]))[0])
    # the first run is walked, to see how often the chain regenerates
    size, speculate = _SLICE, False
    while True:
        taus, energies = arrivals.take(size)
        # wall time before each interval, as a running sum; the interval
        # that reaches the horizon drains for the time left and brings no
        # energy, and the run ends with it
        t_at = np.cumsum(np.concatenate(([t], taus)))
        rest = horizon - t_at[:-1]
        ends = np.flatnonzero((rest <= 0.0) | (taus > rest))
        done = len(ends) > 0
        if done:
            full = int(ends[0])
            last = full + int(rest[full] > 0.0)
            taus, energies = taus[:last].copy(), energies[:last].copy()
            if last > full:
                taus[full], energies[full] = rest[full], 0.0
        else:
            full = len(taus)
        t_at = t_at[:len(taus) + 1]

        lanes = len(taus) // _LANE if speculate else 0
        z_in, u_in, drained, z, u = _true_path(
            table, taus, energies, z, u, lanes if lanes >= _MIN_LANES else 0
        )
        tally.add_run(t_at[:-1], taus, z_in, u_in, drained)
        events += full
        consumed = _running_sum(consumed, z_in - drained)
        arrived = _running_sum(arrived, energies)
        lifted = drained + energies
        overflow = _running_sum(overflow, np.where(lifted > cap, lifted - cap, 0.0))
        if done:
            break
        # the next run gets lanes if this one regenerated often enough
        regenerations = np.count_nonzero(drained == 0.0) + np.count_nonzero(lifted > cap)
        speculate = regenerations * _LANE >= _REGENERATIONS_PER_LANE * len(taus)
        t = float(t_at[-1])
        size = _CHUNK

    pi0_time = tally.pi0_time
    below = pi0_time + tally.drain_times()[table.edge_nodes]
    measured = below[-1]
    cdf = below / measured

    kappa0 = config.policy.kappa0
    empty_d = config.src.d_max / kappa0
    sum_p, sum_k, sum_d = tally.weighted_times().tolist()

    return SimulationStats(
        capacity=cap,
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


def _analytic_cdf(solution: PolicySolution, edges: np.ndarray) -> np.ndarray:
    # the solution's charge CDF at the charges `edges` (ascending, from 0
    # to the capacity): the empty-battery atom plus the integrated
    # density, closed at exactly 1
    cum_f = cumulative_integral(solution.grid, solution.f)
    cdf = solution.pi0 + np.interp(edges, solution.grid.nodes, cum_f)
    cdf[-1] = 1.0
    return cdf


def compare_to_analytic(
    stats: SimulationStats, solution: PolicySolution
) -> DivergenceReport:
    """Measure how far a run's empirical law sits from a solution's.

    Reports the Kolmogorov distance between the empirical charge CDF and
    the analytic one, plus absolute gaps of the empty-battery share, of
    the mean inverse mismatch against its constraint value 1, and of the
    mean reported distortion against the analytic average.
    """
    if solution.grid is None or not solution.feasible:
        raise ValueError("solution must be feasible")
    if not math.isclose(stats.capacity, solution.grid.capacity, rel_tol=1e-9):
        raise ValueError(
            f"stats capacity {stats.capacity} does not match the "
            f"solution's {solution.grid.capacity}"
        )
    analytic = _analytic_cdf(solution, np.asarray(stats.bin_edges))
    ks = float(np.max(np.abs(stats.empirical_cdf - analytic)))
    return DivergenceReport(
        ks_distance=ks,
        pi0_gap=abs(stats.pi0_hat - solution.pi0),
        inv_kappa_gap=abs(stats.mean_inv_kappa - 1.0),
        d_dagger_gap=abs(stats.mean_d_dagger - solution.d_avg),
    )
