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

The work splits in two.  A scalar loop only follows the trajectory in
u: drain, empty out, lift, reflect, keeping the energy books.  It
records each drain segment and each empty interval, and every chunk of
at most ``_CHUNK`` steps is accounted for in bulk with array operations:
the segments are clipped to the measurement window (everything after
the burn-in), their time-weighted integrals of power, inverse mismatch
and reported distortion come from a cumulative table W(z) (node
cumulatives plus per-cell closed forms), and their occupancy of a
uniform charge grid from ``np.bincount`` over partial bin times and a
difference array of full-bin crossings.  Memory stays flat in the
horizon.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .distortion import distortion
from .models import AwgnChannel, SourceModel, SystemConfig
from .numerics import cumulative_integral, quadrature, seeded_rng
from .policy import PolicySolution

__all__ = [
    "SimConfig",
    "SimulationStats",
    "DivergenceReport",
    "simulate",
    "analytic_stats",
    "compare_to_analytic",
]

_BINS = 512
_BURN_IN_FRACTION = 0.01
_RNG_BLOCK = 8192
_CHUNK = 1024   # event-loop steps per bulk accounting


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
            d_dag = np.asarray(distortion(config.src, config.ch, p, 1.0), dtype=float)

        self.cap = cap
        self.edges = edges
        self.z = z
        dz = self.dz = np.diff(z)
        ga = self.ga = g[:-1]
        self.gb = g[1:]
        gs = self.gs = np.diff(g) / dz                  # drain slope per cell
        # a cell whose drain rate barely changes takes the constant-rate
        # form instead: the log form would lose every digit
        self.curved = np.abs(gs) * dz > 1e-12 * ga
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
        cell_w = self.coef_a * a[:, None] + self.coef_b * b[:, None]
        self.u_node = np.concatenate((np.cumsum(cell_t[::-1])[::-1], [0.0]))
        self.w_top = np.concatenate(
            (np.cumsum(cell_w[:0:-1], axis=0)[::-1], np.zeros((1, 3)))
        )
        self.u_max = float(self.u_node[0])
        self.neg_u_cells = -self.u_node[:-1]            # ascending

        # bin edges are a subset of the merged nodes: record their u values
        # and the fixed time each full-bin crossing takes
        self.u_edge = self.u_node[np.searchsorted(z, edges)]
        self.crossing = self.u_edge[:-1] - self.u_edge[1:]

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
        i = np.searchsorted(self.z, z, side="right") - 1
        return np.clip(i, 0, len(self.dz) - 1)

    def u_of_z(self, z):
        # time to drain from the top down to charge z, elementwise
        i = self.cell_of(z)
        return self.u_node[i + 1] + self.moments(i, z - self.z[i])[0]

    def z_of_u(self, u):
        # charge after draining from the top for time u, elementwise; the
        # event loop inlines the scalar form of the same closed form
        i = np.searchsorted(self.neg_u_cells, -u, side="right") - 1
        i = np.clip(i, 0, len(self.dz) - 1)
        tau = u - self.u_node[i + 1]
        gb, gs = self.gb[i], self.gs_c[i]
        drop = np.where(self.curved[i], -(gb / gs) * np.expm1(-gs * tau), gb * tau)
        return self.z[i + 1] - drop

    def loop_tables(self):
        # plain python lists for the scalar event loop (scalar math on
        # lists is several times faster than on small numpy arrays); the
        # search lists leave out the last node, so z = cap and u = 0 both
        # land in the top cell instead of past the end
        return (
            self.z[:-1].tolist(),
            self.neg_u_cells.tolist(),
            self.z[1:].tolist(),
            self.u_node[1:].tolist(),
            self.dz.tolist(),
            self.ga.tolist(),
            self.gb.tolist(),
            self.gs.tolist(),
            (self.gb / self.gs_c).tolist(),
            self.curved.tolist(),
        )


class _Tally:
    # time-weighted statistics of the measurement window [burn, horizon],
    # accumulated from chunks of drain segments and empty intervals
    def __init__(self, table: _DrainTable, burn: float, horizon: float):
        self.table = table
        self.burn = burn
        self.horizon = horizon
        self.bin_width = table.cap / _BINS
        self.occupancy_partial = np.zeros(_BINS)
        self.full_crossings = np.zeros(_BINS + 1, dtype=np.int64)  # difference form
        # the weighted time of a segment is W(bottom) - W(top), with
        # W(z) = w_top + coef_a*a + coef_b*b in the cell of z; per cell,
        # the net count of segment ends (bottom ends +1, top ends -1) and
        # the net sums of their moments a and b
        self.end_moments = np.zeros((3, len(table.dz)))
        self.pi0_time = 0.0

    def add_drains(self, flat):
        # flat rows of (t_a, u_a, u_b, z_a, z_b): the charge drains from
        # z_a at wall time t_a (u = u_a) down to z_b (u = u_b); clip each
        # segment to the window, then credit the weighted times and bins.
        # The loop ends every segment by the horizon, so only the burn-in
        # cuts segments
        if not flat:
            return
        table = self.table
        t_a, u_a, hi, z_hi, z_lo = np.array(flat, dtype=float).reshape(-1, 5).T
        lo = np.maximum(u_a, u_a + (self.burn - t_a))
        live = hi > lo
        if not live.all():
            lo, hi, u_a, z_hi, z_lo = (x[live] for x in (lo, hi, u_a, z_hi, z_lo))
        cut = lo != u_a
        if cut.any():
            z_hi[cut] = table.z_of_u(lo[cut])
        self.end_moments += self._moment_sums(z_lo) - self._moment_sums(z_hi)

        # a segment inside one bin adds its duration there; one spanning
        # several adds partial times at both ends and a full crossing to
        # every bin in between
        k_hi = np.minimum((z_hi / self.bin_width).astype(np.intp), _BINS - 1)
        k_lo = np.minimum((z_lo / self.bin_width).astype(np.intp), _BINS - 1)
        same = k_hi == k_lo
        u_edge = table.u_edge
        span_lo = k_lo[~same]
        self.occupancy_partial += np.bincount(
            np.concatenate((k_hi, span_lo)),
            weights=np.concatenate((
                np.where(same, hi, u_edge[k_hi]) - lo,
                hi[~same] - u_edge[span_lo + 1],
            )),
            minlength=_BINS,
        )
        self.full_crossings += np.bincount(span_lo + 1, minlength=_BINS + 1)
        self.full_crossings -= np.bincount(k_hi[~same], minlength=_BINS + 1)

    def _moment_sums(self, z):
        # per cell: the number of points of z and the sums of their
        # moments; sorted keys make the cell search several times faster,
        # and the sums do not depend on the order
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

    def add_empty(self, flat):
        # flat rows of (t_a, dt): the battery sits empty from wall time t_a
        if not flat:
            return
        t_a, dt = np.array(flat, dtype=float).reshape(-1, 2).T
        lo = np.maximum(t_a, self.burn)
        hi = np.minimum(t_a + dt, self.horizon)
        self.pi0_time += float(np.sum(np.maximum(hi - lo, 0.0)))

    def occupancy(self):
        counts = np.cumsum(self.full_crossings[:-1])
        return counts * self.table.crossing + self.occupancy_partial

    def weighted_times(self):
        # time integrals of (power, 1/kappa, d_dagger) over the window
        table = self.table
        count, sum_a, sum_b = self.end_moments[:, :, None]
        return (
            table.w_top * count + table.coef_a * sum_a + table.coef_b * sum_b
        ).sum(axis=0)


def _arrival_chunks(rng, delta: float, lam: float):
    # (inter-arrival times, energies) in chunks of _CHUNK, drawn in blocks
    # of _RNG_BLOCK times followed by _RNG_BLOCK energies; without
    # arrivals, one infinite wait
    if delta == 0.0:
        while True:
            yield [math.inf], [0.0]
    while True:
        times = rng.exponential(rate=delta, size=_RNG_BLOCK).tolist()
        energies = rng.exponential(rate=lam, size=_RNG_BLOCK).tolist()
        for k in range(0, _RNG_BLOCK, _CHUNK):
            yield times[k:k + _CHUNK], energies[k:k + _CHUNK]


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
    (z_cells, neg_u_cells, z_top, u_top, dz_l, ga_l, gb_l, gs_l, ratio_l,
     curved_l) = table.loop_tables()
    cap, u_max = table.cap, table.u_max
    expm1, log1p = math.expm1, math.log1p

    # energy bookkeeping over the whole run, burn-in included
    z0 = min(max(config.z0, 0.0), cap)
    arrived = 0.0
    consumed = 0.0
    overflow = 0.0
    events = 0

    # the loop only advances the charge; each chunk's drain segments and
    # empty intervals are accounted for in bulk once the chunk is done
    drains, empties = [], []
    push_drain, push_empty = drains.extend, empties.extend
    t = 0.0
    z = z0
    u = float(table.u_of_z(np.array([z]))[0])
    done = False
    for taus, energies in _arrival_chunks(seeded_rng(config.seed), arr.delta, arr.lam):
        for tau, energy in zip(taus, energies):
            rest = horizon - t
            if rest <= 0.0:
                done = True
                break
            seg = tau if tau <= rest else rest

            # drain (and possibly empty out) for seg time units
            if z > 0.0:
                u_end = u + seg
                if u_end < u_max:
                    i = bisect_right(neg_u_cells, -u_end) - 1
                    if curved_l[i]:
                        z_new = z_top[i] + ratio_l[i] * expm1(-gs_l[i] * (u_end - u_top[i]))
                    else:
                        z_new = z_top[i] - gb_l[i] * (u_end - u_top[i])
                    push_drain((t, u, u_end, z, z_new))
                    consumed += z - z_new
                    z, u = z_new, u_end
                else:
                    drain_time = u_max - u
                    push_drain((t, u, u_max, z, 0.0))
                    consumed += z
                    push_empty((t + drain_time, seg - drain_time))
                    z, u = 0.0, u_max
            else:
                push_empty((t, seg))

            t += seg
            if seg < tau:
                done = True     # horizon reached mid-interval
                break

            events += 1
            arrived += energy
            lifted = z + energy
            if lifted > cap:
                overflow += lifted - cap
                z, u = cap, 0.0
            else:
                z = lifted
                i = bisect_right(z_cells, z) - 1
                x1 = z - z_cells[i]
                gs = gs_l[i]
                if curved_l[i]:
                    u = u_top[i] + log1p(gs * (dz_l[i] - x1) / (ga_l[i] + gs * x1)) / gs
                else:
                    u = u_top[i] + (dz_l[i] - x1) / (ga_l[i] + gs * 0.5 * (x1 + dz_l[i]))
        tally.add_drains(drains)
        tally.add_empty(empties)
        drains.clear()
        empties.clear()
        if done:
            break

    occ_cum = np.cumsum(tally.occupancy())
    pi0_time = tally.pi0_time
    measured = pi0_time + occ_cum[-1]
    cdf = np.empty(_BINS + 1)
    cdf[0] = pi0_time / measured
    cdf[1:] = (pi0_time + occ_cum) / measured

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
    # density, which is 0 at the first edge, closed at exactly 1
    cum_f = cumulative_integral(solution.grid.nodes, solution.f)
    cdf = solution.pi0 + np.interp(edges, solution.grid.nodes, cum_f, left=0.0)
    cdf[-1] = 1.0
    return cdf


def analytic_stats(solution: PolicySolution) -> SimulationStats:
    """Package a solution's stationary law in simulation-statistics form.

    Useful as the zero-divergence reference point: comparing the result
    against the same solution reports vanishing gaps everywhere.
    """
    if solution.grid is None or not solution.feasible:
        raise ValueError("solution must be feasible")
    cap = solution.grid.capacity
    edges = np.linspace(0.0, cap, _BINS + 1)
    cdf = _analytic_cdf(solution, edges)
    return SimulationStats(
        capacity=cap,
        horizon=math.inf,
        bin_edges=edges,
        empirical_cdf=cdf,
        pi0_hat=solution.pi0,
        mean_power=quadrature(solution.p * solution.f, solution.grid),
        mean_inv_kappa=1.0,
        mean_d_dagger=solution.d_avg,
        overflow_energy=0.0,
        event_count=0,
        energy_residual=0.0,
    )


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
