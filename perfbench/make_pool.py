"""Regenerate the committed input pools and their checked expectations.

    python3 perfbench/make_pool.py [workload ...]

Run from the repository root.  For every generated input it runs the
engine once under the workload's latency limit and records the outcome as
``baseline`` and the nodes it spent as ``nodes``; a second, sequential
pass records its latency at reference speed as ``ms``, by which runs
spread their draws.  It stores a Monte Carlo estimate of the input's length
(``oracle``) and, when the engine solved the input, its exact answer
(``expect``), after checking that answer against the oracle.  Any
disagreement aborts without writing a pool.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import random
import sys
import zlib
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402

JOBS = 2
POOL_SEED = 20061  # the seed of the committed pools, recorded in each


def _engine():
    src = os.path.join(os.getcwd(), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import stretchfactor

    return stretchfactor


def settle(job) -> dict:
    """Run the engine on one pool entry and attach its expectation and oracle."""
    entry, limit_s = job
    sf = _engine()
    budget = sf.Budget()
    outcome, answer, _ = workloads.timed(sf, entry, workloads.prepare(sf, entry), limit_s, budget)
    entry["baseline"] = outcome
    entry["nodes"] = budget.spent
    rank, op = entry["rank"], entry["op"]
    seed = zlib.crc32(f"{POOL_SEED}:{entry['id']}".encode())
    measure = entry.get("measure", "")
    if op != "spectrum" and not measure.startswith("rational:"):
        chain = oracle.markov_chain(json.loads(measure[len("markov:"):])) if measure.startswith("markov:") else None
        entry["oracle"] = oracle.estimate(oracle.images_of(entry), rank, seed, chain)
    if outcome != "solved":
        return entry
    if op == "factorize":
        value = answer.lengths[-1]
    elif op == "spectrum":
        value = None
        entry["expect"] = [str(v) for v in (e[0] for e in answer.entries)]
        workloads.check(dict(entry, expect=None), answer)  # every value against its own oracle
    elif measure == "uniform_as_markov":
        # the uniform-measure answer, from the engine's uniform path
        auto = workloads.prepare(sf, dict(entry, op="length"))
        value = sf.length_exact(auto, budget=sf.Budget(), cache=sf.PartitionCache()).value
        if value != answer:
            raise SystemExit(f"{entry['id']}: uniform_as_markov {answer} != uniform {value}")
    else:
        value = answer
    if value is not None and not measure.startswith("rational:"):
        if not oracle.agrees(value, entry["oracle"]):
            raise SystemExit(f"{entry['id']}: engine {value} = {float(value):.6f} vs oracle {entry['oracle']}")
        entry["expect"] = str(Fraction(value))
    workloads.check(entry, answer)
    return entry


def clock(entries: list[dict], limit_s: float) -> None:
    """Latency of each entry at reference speed, one op at a time."""
    sf = _engine()
    for entry in entries:
        prepared = workloads.prepare(sf, entry)
        probe = workloads.speed_probe()
        _, _, seconds = workloads.timed(sf, entry, prepared, limit_s)
        entry["ms"] = round(1000 * seconds * workloads.PROBE_REF_S / probe, 3)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(JOBS) as pool:
        for name in args.workloads:
            w = workloads.WORKLOADS[name]
            entries = workloads.generate(name, random.Random(f"{POOL_SEED}:{name}"))
            jobs = [(e, w.limit_s) for e in entries]
            settled = pool.map(settle, jobs, chunksize=1)
            clock(settled, w.limit_s)
            os.makedirs(workloads.POOL_DIR, exist_ok=True)
            path = os.path.join(workloads.POOL_DIR, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"pool_seed": POOL_SEED, "entries": settled}, fh, indent=0, sort_keys=True)
                fh.write("\n")
            counts: dict = {}
            for e in settled:
                counts[e["baseline"]] = counts.get(e["baseline"], 0) + 1
            print(f"{name}: {len(settled)} entries, baseline {counts}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
