"""Benchmark of the stretchfactor engine through its public API.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the engine is imported from ``src/``.
Without ``--workload`` it runs every workload in turn.  Each workload runs
in fresh interpreters (``worker.py``) with one closed-loop client, one op
in flight.  ``--seed`` picks the inputs and ``--seconds`` the amount of
work: ops whose solved part takes that long at baseline speed, mixed by
the rule in ``workloads.mix``, and at least 100 of them.  Every op gets a
fresh partition cache and node budget.

``--trace 0`` reports the end-to-end metrics:

* setup_s: importing the engine and parsing every input of the
  workload's pool, a superset of the run's inputs, in a fresh interpreter
  (``worker.SetupClock``); the median over interpreters spawned before the
  measured run and after it (``setup_samples``);
* solved_frac: ops that returned an answer that passed its check, over
  ops attempted;
* solved_per_s: solved ops over charged time, where a refused, crashed
  or timed-out op is charged the workload's per-op latency limit;
* op_p50_ms, op_p90_ms: per-op latency, failures counted at the limit,
  each quantile the mean of the ops within one binomial standard
  deviation of its rank (``worker.quantile``);
* peak_rss_mb: peak resident memory of the measuring interpreter.

Times are reported at reference speed: each is divided by a speed probe
taken alongside it (``workloads.speed_probe``) and multiplied by the
probe's time on the reference machine, because shared machines drift
between speed phases that differ by over 1.5x for tens of seconds.

``--trace 1`` runs a fixed amount of work twice in one interpreter,
plain and then with every layer hooked (``tracing.py``), and reports
per-layer totals over the hooked pass plus ``trace.overhead_frac``.

Every solved answer is checked (``workloads.check``); a wrong answer
ends the run with exit code 1.  The last line of output is a JSON object
with ``correct``, ``attempted``, ``failed`` (ops not solved) and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SECONDS = 1  # set-up is sampled this long before the measured run, and again after it
MIN_SETUP_SAMPLES, MAX_SETUP_SAMPLES = 1, 8  # on each side of the run
RUN_TIMEOUT_S = 170  # a worker still running at this point of the run is killed
FAILURES = ("refused_upfront", "refused_spent", "RecursionError", "timeout", "other")
END_TO_END = (
    ("setup_s", "s"),
    ("solved_frac", "ratio"),
    ("solved_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class HarnessError(Exception):
    pass


def spawn(workload: str, seed: int, seconds: int, mode: str, deadline: float) -> dict:
    """Run one worker, killing it at `deadline` (time.monotonic); return its JSON summary."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload, str(seed), str(seconds), mode]
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload} worker ({mode}) ran past {RUN_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise HarnessError(f"{workload} worker ({mode}) failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_samples(name: str, seed: int, seconds: int, deadline: float) -> list[float]:
    """Set-up times of fresh interpreters spawned one after another for
    SETUP_SECONDS, within the sample limits.  Samples from both sides of the
    run meet more than one of the machine's speed phases."""
    out: list[float] = []
    start = time.monotonic()
    while len(out) < MAX_SETUP_SAMPLES and (
        len(out) < MIN_SETUP_SAMPLES or time.monotonic() - start < SETUP_SECONDS
    ):
        out.append(spawn(name, seed, seconds, "setup", deadline)["setup_s"])
    return out


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    w = workloads.WORKLOADS[name]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if trace:
        s = spawn(name, seed, seconds, "trace", deadline)
        units = {m: u for m, u, _ in tracing.PER_LAYER}
        metrics = {m: (v, units[m]) for m, v in s.get("per_layer", {}).items()}
    else:
        setups = setup_samples(name, seed, seconds, deadline)
        s = spawn(name, seed, seconds, "run", deadline)
        setups += [s["setup_s"]] + setup_samples(name, seed, seconds, deadline)
        metrics = {"setup_s": (statistics.median(setups), "s")}
        metrics.update((m, (s[m], u)) for m, u in END_TO_END if m in s)
    s["metrics"] = metrics
    s["workload"] = w
    return s


def report(name: str, seed: int, s: dict) -> None:
    w = s["workload"]
    took = f" in {s['wall_s']:.1f} s at {s['speed']:.2f}x reference speed" if "wall_s" in s else ""
    print(f"[{name}] seed {seed}: {s.get('attempted', 0)} ops{took}, per-op limit {w.limit_s:g} s")
    for metric, (value, unit) in s["metrics"].items():
        print(f"  {metric:38s} {value:14.6f} {unit}")
    outcomes = s.get("outcomes", {})
    print("  failures: " + ", ".join(f"{k} {outcomes.get(k, 0)}" for k in FAILURES))
    if s.get("absent"):
        print("  absent layers: " + ", ".join(s["absent"]))
    if s.get("wrong"):
        print(f"  WRONG ANSWER: {s['wrong']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="stretchfactor benchmark")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "stretchfactor", "__init__.py")):
        print(f"no engine source under {ROOT}/src; run from a repository checkout", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
            report(name, args.seed, results[name])
    except HarnessError as e:
        print(e, file=sys.stderr)
        return 2
    correct = not any(s.get("wrong") for s in results.values())
    prefix = len(names) > 1
    out = {
        "correct": correct,
        "attempted": sum(s.get("attempted", 0) for s in results.values()),
        "failed": sum(s.get("attempted", 0) - s.get("solved", 0) for s in results.values()),
        "metrics": {
            (f"{name}.{m}" if prefix else m): {"value": v, "unit": u}
            for name, s in results.items()
            for m, (v, u) in s["metrics"].items()
        },
    }
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
