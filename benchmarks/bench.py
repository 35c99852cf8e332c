"""Benchmark of ehjscc: one workload per process, metrics as one JSON line.

    python3 benchmarks/bench.py --workload rows --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  With
``--trace 0`` the workload is set up several times (set-up time is the
median), then runs passes for ``--seconds`` and reports its end-to-end
metrics, with times scaled to nominal machine speed (see ``Speed``).
With ``--trace 1`` it runs one pass untraced and the same
pass traced, and reports the per-layer metrics of the traced pass; its
spans are written to ``.bench_out/``.  The last line of standard output
is always the result object; the lines before it start with ``#``.
See ``benchmarks/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

# one BLAS thread: the arrays here are small, and runs share two cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from tracer import LAYER_UNITS, NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, Ops  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9       # set-ups per run: at least this many,
SETUP_S = 2.0           # and for at least this long
REFERENCE_S = 0.0025    # reference_kernel() time at nominal machine speed
SAMPLE_EVERY_S = 0.15   # reference kernel period during untraced runs
SPEED_WINDOW_S = 1.0    # kernels this close to an interval set its speed
SPEED_KEEP = 0.9        # share of those kernels, fastest first, that count


def reference_kernel():
    """Fixed work that runs no ehjscc code, in the mix of the solver loops.

    Fixed-step RK4 on a scalar ODE through a Python closure (function
    calls, float arithmetic, one ``math`` call per evaluation), then
    NumPy passes over a 300-node array, the size of a search grid.
    """
    def rhs(p):
        return (0.3 * math.log1p(p) + 1.7) / (1.0 + p * p)

    p = 0.001
    for _ in range(1500):
        k1 = rhs(p)
        k2 = rhs(p + 0.5e-3 * k1)
        k3 = rhs(p + 0.5e-3 * k2)
        k4 = rhs(p + 1e-3 * k3)
        p += 1e-3 / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    grid = np.linspace(0.0, 1.0, 300)
    for _ in range(100):
        p += float(np.cumsum(np.exp(-grid) * np.log1p(grid))[-1])
    return p


class Speed:
    """Machine speed through an untraced run, from a timer-driven reference kernel.

    On a shared 2-vCPU host, speed swings by a quarter within tens of
    seconds, while ehjscc's time relative to the kernel stays within a
    few percent.
    ``SIGALRM`` runs ``reference_kernel()`` every ``SAMPLE_EVERY_S``;
    ``wall`` is an interval's wall time without the kernels that ran
    inside it, and ``nominal`` rescales that to the speed at which the
    kernel takes ``REFERENCE_S``.  The speed near an interval is the
    mean over the fastest ``SPEED_KEEP`` of the kernels within
    ``SPEED_WINDOW_S`` of it.  The host flips between a fast and a slow
    state, so a median picks one of the two; a mean follows the average
    speed the interval saw, and the slowest tenth are kernels that were
    descheduled outright.
    """

    def __init__(self):
        self.starts = []
        self.durations = []
        self._ticking = False

    def _tick(self, signum, frame):
        if self._ticking:   # a stall longer than the period re-enters here
            return
        self._ticking = True
        t0 = time.perf_counter()
        reference_kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)
        self._ticking = False

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def wall(self, t0, t1):
        # a kernel runs between two bytecodes, so it lies wholly inside
        # or wholly outside any interval the workloads time
        i, j = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        return t1 - t0 - sum(self.durations[i:j])

    def nominal(self, t0, t1):
        i = bisect_left(self.starts, t0 - SPEED_WINDOW_S)
        j = bisect_right(self.starts, t1 + SPEED_WINDOW_S)
        near = sorted(self.durations[i:j] or self.durations)
        kept = near[:max(1, int(len(near) * SPEED_KEEP))]
        return self.wall(t0, t1) * REFERENCE_S / statistics.fmean(kept)


def fresh_import():
    """Import ehjscc (with its CLI) from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "ehjscc" or n.startswith("ehjscc.")]:
        del sys.modules[name]
    eh = importlib.import_module("ehjscc")
    importlib.import_module("ehjscc.cli")
    return eh


def set_up(cls, seed):
    gc.collect()    # leftovers of the previous import are not set-up cost
    t0 = time.perf_counter()
    eh = fresh_import()
    workload = cls(eh, seed, str(OUT))
    return eh, workload, (t0, time.perf_counter())


def timed_passes(workload, ops, seconds):
    # stop before a pass that would likely end past the deadline
    start = time.perf_counter()
    passes = []
    while True:
        t0 = time.perf_counter()
        passes.append(workload.run_pass(len(passes), ops, NullTracer()))
        now = time.perf_counter()
        if len(passes) >= workload.min_passes and (now - start) + (now - t0) > seconds:
            return passes


def determinism_checks(workload, passes, ops):
    # repeated passes redo identical work, so they must agree bit for bit
    if workload.repeats:
        for p in passes[1:]:
            ops.check(f"{workload.name}: pass reproduces the first pass",
                      p["fingerprint"] == passes[0]["fingerprint"])


def digest(passes):
    return hashlib.sha256(repr([p["fingerprint"] for p in passes]).encode()).hexdigest()


def end_to_end(workload, setups, passes, duration):
    """The end-to-end metrics, every time taken with ``duration``.

    Every workload reports the same metrics; what a pass and an
    operation are is the workload's (see the README).  Operation
    latencies go to the ``#`` lines only: a run of ``cli`` or ``tune``
    has too few of them for a steady median.
    """
    op_ms = [1e3 * duration(*t) for p in passes for t in p["op_t"]]
    metrics = {
        "setup_s": (statistics.median(duration(*iv) for iv in setups), "s"),
        "pass_s": (statistics.median(duration(*p["pass_t"]) for p in passes), "s"),
    }
    info = {"passes": len(passes), "operations": len(op_ms), "set-ups": len(setups),
            "op ms p50": statistics.median(op_ms)}
    if len(op_ms) >= 100:   # ten samples beyond the 90th percentile
        info["op ms p90"] = statistics.quantiles(op_ms, n=10)[8]
    info.update(workload.info(passes, duration))
    return metrics, info


def measure(cls, seed, seconds):
    """Untraced run: set-ups, then timed passes, under the speed sampler."""
    speed, ops = Speed(), Ops()
    with speed.sampling():
        setups, workload = [], None
        while len(setups) < SETUP_REPEATS or setups[-1][1] - setups[0][0] < SETUP_S:
            workload = None     # the previous set-up's modules and inputs go
            _, workload, interval = set_up(cls, seed)
            setups.append(interval)
        try:
            passes = timed_passes(workload, ops, seconds)
        finally:
            workload.close()
    determinism_checks(workload, passes, ops)
    workload.finish(ops)

    metrics, samples = end_to_end(workload, setups, passes, speed.nominal)
    wall, _ = end_to_end(workload, setups, passes, speed.wall)
    wall = {name: value for name, (value, _) in sorted(wall.items())}
    metrics["err_max"] = (workload.err_max(passes), "ratio")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    samples["reference kernels"] = len(speed.durations)
    info = [f"samples {json.dumps(samples)}",
            f"reference kernel median {1e3 * statistics.median(speed.durations):.3f} ms "
            f"(nominal {1e3 * REFERENCE_S:g} ms)",
            f"wall {json.dumps(wall)}",
            f"digest {digest(passes[:workload.min_passes])}"]
    return ops, metrics, info


def trace(cls, seed):
    """Traced run: one pass untraced, the same pass traced."""
    eh, workload, _ = set_up(cls, seed)
    ops = Ops()
    try:
        return ops, *traced_pass(workload, eh, ops, seed)
    finally:
        workload.close()


def traced_pass(workload, eh, ops, seed):
    t0 = time.perf_counter()
    plain = workload.run_pass(0, ops, NullTracer())
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install(eh)
    try:
        t0 = time.perf_counter()
        traced = workload.run_pass(0, ops, tracer)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    ops.check(f"{workload.name}: traced pass reproduces the untraced pass",
              traced["fingerprint"] == plain["fingerprint"])
    workload.finish(ops)

    values = tracer.layer_metrics()
    values.update(workload.layer_probe(traced))
    values["trace.overhead_s"] = traced_s - untraced_s
    path = OUT / f"trace-{workload.name}-seed{seed}.jsonl"
    tracer.write(path)
    counts = {k: v for k, v in values.items() if LAYER_UNITS[k] == "count"}
    info = [f"spans {len(tracer.spans)} written to {path.relative_to(ROOT)}",
            f"digest {digest([traced])}",
            f"counts {hashlib.sha256(repr(sorted(counts.items())).encode()).hexdigest()}"]
    return {name: (values.get(name, 0), unit) for name, unit in LAYER_UNITS.items()}, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "ehjscc" / "__init__.py").is_file():
        print(f"bench: no ehjscc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    cls = WORKLOADS[args.workload]
    if args.trace:
        ops, metrics, info = trace(cls, args.seed)
    else:
        ops, metrics, info = measure(cls, args.seed, args.seconds)
    for line in info + [f"failures {json.dumps(dict(ops.failures))}"]:
        print("# " + line)
    print(json.dumps({
        "correct": ops.correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
