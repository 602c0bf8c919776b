"""One workload in one fresh interpreter: set up, then a closed loop of ops.

    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS MODE

MODE is ``setup`` (set up and exit), ``run`` (the untraced closed loop)
or ``trace`` (TRACE_SECONDS of ops untraced, then again with every layer
hooked).  Set-up is the engine's import plus the preparation of every
input in the workload's pool (``SetupClock``).  The interpreter's own start and the
benchmark's imports, which come first, are left out: they are the same
for any engine, and the interpreter's start spreads by a quarter from one
spawn to the next.  The last line of output is a JSON summary.

A run makes a fixed op list (``SECONDS`` of work at baseline speed), so a
faster engine is measured on the same inputs as a slower one.  A speed
probe runs before each op and one after the last; op latencies are
reported at reference speed (latency * PROBE_REF_S / probe, the probe the
mean of the two around the op), which removes the machine's slow phases
from the figures.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import sys
import time

import tracing
import workloads

TRACE_SECONDS = 5  # baseline work in each pass of the traced run
LAP_INPUTS = 4  # inputs prepared between two speed probes during set-up


class SetupClock:
    """Set-up time at reference speed.

    Set-up is cut into laps with a speed probe before the first and after
    each, and a lap is scaled by the mean of the probes on either side of
    it, as op latencies are: the machine's speed changes faster than one
    set-up lasts.  The probes' own time is left out.
    """

    def __init__(self):
        self.seconds = 0.0
        self.probe = workloads.speed_probe()
        self.mark = time.perf_counter()

    def lap(self) -> None:
        now = time.perf_counter()
        probe = workloads.speed_probe()
        self.seconds += (now - self.mark) * workloads.PROBE_REF_S / statistics.mean((self.probe, probe))
        self.probe = probe
        self.mark = time.perf_counter()


def main(root: str, workload: str, seed: str, seconds: str, mode: str) -> int:
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    setup = SetupClock()
    try:
        import stretchfactor as sf
    except ImportError as e:
        print(f"cannot import stretchfactor from {src}: {e}", file=sys.stderr)
        return 2
    if not os.path.abspath(sf.__file__).startswith(src):
        print(f"stretchfactor came from {sf.__file__}, not from this checkout", file=sys.stderr)
        return 2
    setup.lap()
    w = workloads.WORKLOADS[workload]
    pool = workloads.load_pool(workload)
    ops = workloads.op_list(w, pool, int(seed), TRACE_SECONDS if mode == "trace" else float(seconds))
    # every input the run could draw, so that set-up is the same work for every seed
    prepared = {}
    for entry in pool:
        prepared[entry["id"]] = workloads.prepare(sf, entry)
        if len(prepared) % LAP_INPUTS == 0:
            setup.lap()
    setup.lap()
    summary = {"setup_s": setup.seconds}
    # Keep the harness's own heap (pool, prepared inputs) out of the
    # collector, so an op's collections cost what they would in one CLI call
    # and do not depend on where in the run they fall.
    gc.collect()
    gc.freeze()
    check = Checker()
    try:
        if mode == "run":
            summary.update(closed_loop(sf, w, ops, prepared, check))
        elif mode == "trace":
            summary.update(traced(sf, w, ops, prepared, check))
    except workloads.WrongAnswer as e:
        summary.update(wrong=str(e), attempted=check.answers, solved=check.answers - 1)
    print(json.dumps(summary))
    return 0


class Checker:
    """Checks each solved answer once per input; later answers must repeat it."""

    def __init__(self):
        self.seen: dict = {}
        self.answers = 0

    def __call__(self, entry, answer) -> None:
        self.answers += 1
        if entry["id"] not in self.seen:
            workloads.check(entry, answer)
            self.seen[entry["id"]] = answer
        elif self.seen[entry["id"]] != answer:
            raise workloads.WrongAnswer(f"{entry['id']}: answer changed between repeats")


def at_reference_speed(seconds: list[float], probes: list[float]) -> list[float]:
    """Scale each time by the probes right before and right after it.

    The machine's speed changes within a second; on a length-cold run this
    pair tracks it better than a median over five or more ops.
    """
    return [t * workloads.PROBE_REF_S / statistics.mean(probes[i:i + 2]) for i, t in enumerate(seconds)]


def run_ops(sf, w, ops, prepared, check):
    """Each op once, one in flight, with a speed probe before it.

    Returns the outcome counts, each op's time at reference speed, whether
    each op was solved, the nodes spent in all and the machine's median
    speed relative to the reference.
    """
    outcomes: dict = {}
    times: list[float] = []
    probes: list[float] = []
    solved: list[bool] = []
    nodes = 0
    for entry in ops:
        budget = sf.Budget()
        probes.append(workloads.speed_probe())
        # the limit holds at reference speed, so a slow phase causes no timeouts
        limit_s = w.limit_s * max(1.0, probes[-1] / workloads.PROBE_REF_S)
        outcome, answer, dt = workloads.timed(sf, entry, prepared[entry["id"]], limit_s, budget)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if outcome == "solved":
            check(entry, answer)
        times.append(dt)
        solved.append(outcome == "solved")
        nodes += budget.spent
    probes.append(workloads.speed_probe())
    speed = workloads.PROBE_REF_S / statistics.median(probes)
    return outcomes, at_reference_speed(times, probes), solved, nodes, speed


def quantile(values: list[float], p: float) -> float:
    """The p-quantile of `values`, smoothed over the ranks around it.

    The mean of the order statistics within one binomial standard deviation,
    sqrt(n p (1 - p)), of rank p (n - 1): at 255 ops the 90th percentile
    averages ten ops, so one op's timing noise moves it less than it moves a
    single order statistic.
    """
    xs = sorted(values)
    n = len(xs)
    centre, half = p * (n - 1), math.sqrt(n * p * (1 - p))
    return statistics.fmean(xs[max(0, math.ceil(centre - half)):min(n - 1, math.floor(centre + half)) + 1])


def closed_loop(sf, w, ops, prepared, check) -> dict:
    """The end-to-end metrics; failed ops are charged the latency limit."""
    start = time.perf_counter()
    outcomes, times, solved, _, speed = run_ops(sf, w, ops, prepared, check)
    latencies = [t if ok else w.limit_s for t, ok in zip(times, solved)]
    return {
        "attempted": len(ops),
        "solved": sum(solved),
        "outcomes": outcomes,
        "wall_s": time.perf_counter() - start,
        "speed": speed,
        "solved_frac": sum(solved) / len(ops),
        "solved_per_s": sum(solved) / sum(latencies),
        "op_p50_ms": 1000 * quantile(latencies, 0.5),
        "op_p90_ms": 1000 * quantile(latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(sf, w, ops, prepared, check) -> dict:
    """The same ops untraced and then traced; per-layer totals over the traced pass."""
    plain = run_ops(sf, w, ops, prepared, check)[1]
    tr = tracing.Tracer()
    tracing.install(tr)
    outcomes, times, solved, nodes, _ = run_ops(sf, w, ops, prepared, check)
    return {
        "attempted": len(ops),
        "solved": sum(solved),
        "outcomes": outcomes,
        "per_layer": tracing.per_layer(tr, len(ops), nodes, outcomes, sum(times) / sum(plain) - 1),
        "absent": tr.absent,
    }


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:6]))
