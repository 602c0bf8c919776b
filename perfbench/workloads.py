"""The three workloads: how their inputs are generated, prepared, run and checked.

Inputs live in committed pools (``pools/<workload>.json``), made once by
``make_pool.py`` from generator rules and checked against the oracle in
``oracle.py``.  A run's ``--seed`` draws its op list from the pool by the
mix rule in ``mix``.  Within a group the draws are spread evenly over
the pool by baseline latency, so every seed gets the same mix of cheap
and costly inputs; where a group has more inputs than draws, the inputs
themselves differ from seed to seed.

Every op gets a fresh ``Budget`` and ``PartitionCache``, as one CLI call
does, so no op warms the next.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import signal
import time
import zlib
from dataclasses import dataclass
from fractions import Fraction

import oracle

POOL_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pools")


@dataclass(frozen=True)
class Workload:
    name: str
    limit_s: float  # per-op latency limit at reference speed; a failed op is charged this much
    groups: tuple  # (group, pool categories in it), one group per kind of input


# Each limit is twice the slowest baseline-solved input in the workload's
# pool (753 ms, 105 ms and 1079 ms at reference speed), rounded up to a
# tenth of a second: no solved input comes near it, and the charge for a
# failed op stays small beside the time of solved ones.
#
# The op mix of a run follows from the pool's measured latencies (``mix``):
# every group of baseline-solved inputs gets an equal share of the run's
# work, and inputs the baseline fails get FAIL_SHARE of its charged time.
# At 20 seconds that gives, as shares of ops / of charged time:
#   length-cold  rank2 25% / 25%, rank3-4 42% / 25%, raw 33% / 25%,
#                failures 0.7% / 24% (2 refused up front, 2 RecursionError)
#   currents     uniform_as_markov 34% / 33%, markov 31% / 33%, rational 34% / 33%
#   whitehead    factorize 90% / 41%, spectrum 9% / 41%, failures 0.8% / 18%
WORKLOADS = {
    w.name: w
    for w in (
        # The headline `length` command: the frontier sweep and family
        # assembly, with rank-3/4 and raw maps the baseline refuses up front
        # and rank-4 single-letter inner atoms that recurse without end.
        Workload(
            "length-cold",
            limit_s=1.6,
            groups=(("rank2", ("nielsen", "chain2")), ("rank3-4", ("chain3", "chain4")), ("raw", ("raw2",))),
        ),
        # eta_length against non-uniform measures: the same boundary engine
        # through the generic pair-mass loop and measure evaluation.
        Workload(
            "currents",
            limit_s=0.3,
            groups=(("uniform_as_markov", ("uniform_as_markov",)), ("markov", ("markov",)),
                    ("rational", ("rational",))),
        ),
        # factorize and spectrum: map construction, verification, compose,
        # the conjugation normal form and family reuse across descent
        # candidates; the baseline refuses rank-3 inputs.
        Workload(
            "whitehead",
            limit_s=2.2,
            groups=(("factorize", ("factorize2", "factorize3")), ("spectrum", ("spectrum",))),
        ),
    )
}


# -- machine speed ----------------------------------------------------------

# speed_probe() on the reference machine (2 vCPU VM, Python 3.11.7) when it
# runs at full speed.
PROBE_REF_S = 0.0012


def speed_probe() -> float:
    """Seconds a fixed pure-Python job (tuples, a dict, Fractions) takes now.

    Shared machines drift between speed phases that last tens of seconds
    and differ by over 1.5x.  Times divided by a probe taken alongside
    them, and multiplied by PROBE_REF_S, read as times on the reference
    machine at full speed; the engine's work does not touch the probe.
    """
    t0 = time.perf_counter()
    table: dict = {}
    acc = Fraction(0)
    for i in range(300):
        w = tuple((i + j) % 9 - 4 for j in range(8))
        table[w] = table.get(w[:4], 0) + 1
        acc += Fraction(i % 7 + 1, i % 5 + 2)
    return time.perf_counter() - t0


# -- input generation (used by make_pool.py) --------------------------------

_TYPES = ("FIX", "RIGHT", "LEFT", "CONJ")


def _letter(x: int) -> str:
    return oracle.text((x,))


def gen_w2(rng: random.Random, rank: int) -> str:
    a = rng.randint(1, rank) * rng.choice((1, -1))
    others = [x for x in range(1, rank + 1) if x != abs(a)]
    types = ["FIX"] * len(others)
    while all(t == "FIX" for t in types):
        types = [rng.choice(_TYPES) for _ in others]
    inside = ", ".join(f"{_letter(x)}:{t}" for x, t in zip(others, types) if t != "FIX")
    return f"W2[{_letter(a)}; {inside}]"


def gen_perm(rng: random.Random, rank: int) -> str:
    images = list(range(1, rank + 1))
    while images == list(range(1, rank + 1)):
        images = rng.sample(range(1, rank + 1), rank)
        images = [x * rng.choice((1, -1)) for x in images]
    return "perm[" + ",".join(f"{_letter(i)}->{_letter(y)}" for i, y in enumerate(images, 1)) + "]"


def gen_inner(rng: random.Random, rank: int) -> str:
    w: list = []
    for _ in range(rng.randint(1, 2)):
        choices = [x for i in range(1, rank + 1) for x in (i, -i) if not w or x != -w[-1]]
        w.append(rng.choice(choices))
    return f"inner[{oracle.text(w)}]"


def gen_atom(rng: random.Random, rank: int) -> str:
    r = rng.random()
    if r < 0.6:
        return gen_w2(rng, rank)
    return gen_perm(rng, rank) if r < 0.8 else gen_inner(rng, rank)


def gen_chain(rng: random.Random, rank: int, atoms: int) -> str:
    return " * ".join(gen_atom(rng, rank) for _ in range(atoms))


def gen_markov_spec(rng: random.Random) -> str:
    """Doubly stochastic rank-2 chain with P(x, x^-1) = 0, so p is uniform.

    P is a random positive combination of the 9 letter permutations that
    never send a letter to its inverse.
    """
    letters = (1, -1, 2, -2)
    perms = [p for p in itertools.permutations(letters) if all(y != -x for x, y in zip(letters, p))]
    weights = [rng.randint(1, 6) for _ in perms]
    total = sum(weights)
    rows = {x: {y: Fraction(0) for y in letters} for x in letters}
    for p, wt in zip(perms, weights):
        for x, y in zip(letters, p):
            rows[x][y] += Fraction(wt, total)
    doc = {
        "rank": 2,
        "mass": "1",
        "p": {_letter(x): "1/4" for x in letters},
        "P": {_letter(x): {_letter(y): str(q) for y, q in row.items()} for x, row in rows.items()},
    }
    return json.dumps(doc, sort_keys=True)


def gen_rational_word(rng: random.Random) -> str:
    """Cyclically reduced rank-2 word of length 1-16 that is not a proper power."""
    while True:
        n = rng.randint(1, 16)
        w = [rng.choice((1, -1, 2, -2))]
        while len(w) < n:
            x = rng.choice((1, -1, 2, -2))
            if x != -w[-1]:
                w.append(x)
        if n > 1 and w[0] == -w[-1]:
            continue
        if any(n % d == 0 and w == w[d:] + w[:d] for d in range(1, n)):
            continue
        return oracle.text(w)


def generate(workload: str, rng: random.Random) -> list[dict]:
    """The pool's inputs, before the engine or the oracle has seen them."""
    out: list[dict] = []

    def add(cat, stratum, count, make):
        for _ in range(count):
            entry = {"id": f"{cat}-{sum(e['cat'] == cat for e in out):04d}", "cat": cat, "stratum": stratum}
            entry.update(make())
            out.append(entry)

    if workload == "length-cold":
        for n in range(1, 32):
            add("nielsen", n, 1, lambda n=n: {"op": "length", "rank": 2, "map": " * ".join(["W2[a; b:RIGHT]"] * n)})
        for n in range(1, 25):
            add("chain2", n, 16, lambda n=n: {"op": "length", "rank": 2, "map": gen_chain(rng, 2, n)})
        for rank in (3, 4):
            for n in range(1, 5):
                add(f"chain{rank}", n, 12,
                    lambda n=n, rank=rank: {"op": "length", "rank": rank, "map": gen_chain(rng, rank, n)})

        def raw(n):
            fwd, bwd = oracle.expression(2, gen_chain(rng, 2, n))
            return {"op": "length", "rank": 2, "map": oracle.map_text(fwd), "inverse": oracle.map_text(bwd)}

        for n in range(1, 4):
            add("raw2", n, 20, lambda n=n: raw(n))
    elif workload == "currents":
        for n in range(1, 13):
            add("uniform_as_markov", n, 8,
                lambda n=n: {"op": "eta", "rank": 2, "map": gen_chain(rng, 2, n), "measure": "uniform_as_markov"})
            add("markov", n, 8,
                lambda n=n: {"op": "eta", "rank": 2, "map": gen_chain(rng, 2, n),
                             "measure": "markov:" + gen_markov_spec(rng)})
            add("rational", n, 8,
                lambda n=n: {"op": "eta", "rank": 2, "map": gen_chain(rng, 2, n),
                             "measure": "rational:" + gen_rational_word(rng)})
    elif workload == "whitehead":
        for n in range(1, 6):
            add("factorize2", n, 30,
                lambda n=n: {"op": "factorize", "rank": 2, "map": " * ".join(gen_w2(rng, 2) for _ in range(n))})
        for n in (1, 2):
            add("factorize3", n, 20,
                lambda n=n: {"op": "factorize", "rank": 3, "map": " * ".join(gen_w2(rng, 3) for _ in range(n))})
        for rank, m in ((2, 1), (2, 2), (2, 3), (3, 1)):
            add("spectrum", f"{rank},{m}", 1, lambda rank=rank, m=m: {"op": "spectrum", "rank": rank, "max_factors": m})
    else:
        raise KeyError(workload)
    return out


# -- op lists -----------------------------------------------------------------


def load_pool(workload: str) -> list[dict]:
    with open(os.path.join(POOL_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)["entries"]


MIN_OPS = 100
# Share of a run's charged time (solved ops' time plus limit_s per failed
# op) that goes to inputs the baseline fails.
FAIL_SHARE = 0.2


def _spread(entries: list, n: int, rng: random.Random) -> list:
    """n draws evenly spaced over `entries`, which are ordered by baseline latency.

    With at least as many draws as entries, every entry is drawn the same
    number of times, give or take one, for every seed, and the seed only
    orders the ops.  With fewer, a seeded start picks the entries drawn,
    except that the last draw is always the costliest entry: a run's
    longest op and peak memory then do not depend on the seed.
    """
    step = len(entries) / n
    if n >= len(entries):
        return [entries[int(step / 2 + j * step)] for j in range(n)]
    start = rng.random() * step
    return [entries[int(start + j * step)] for j in range(n - 1)] + [entries[-1]]


def mix(workload: Workload, pool: list[dict], seconds: float) -> list[tuple]:
    """The op counts of a run with `seconds` of baseline work: [(name, entries, count)].

    The rule, from the pool's baseline figures (``ms`` at reference speed):

    * each group of baseline-solved inputs gets an equal share of the
      `seconds`, so a group's count is its share over its mean ``ms``;
    * inputs the baseline fails get FAIL_SHARE of the charged time, split
      evenly between the failure classes and at least one op of each, so
      every class the baseline shows appears in every run.

    Counts grow in proportion until the run has MIN_OPS ops.
    """
    parts = []
    for group, cats in workload.groups:
        entries = [e for e in pool if e["cat"] in cats and e["baseline"] == "solved"]
        mean_s = sum(e["ms"] for e in entries) / len(entries) / 1000
        parts.append((group, entries, seconds / len(workload.groups) / mean_s))
    classes: dict = {}
    for e in pool:
        if e["baseline"] != "solved":
            classes.setdefault(e["baseline"], []).append(e)
    fail_s = seconds * FAIL_SHARE / (1 - FAIL_SHARE)
    parts += [(outcome, entries, fail_s / len(classes) / workload.limit_s)
              for outcome, entries in sorted(classes.items())]
    scale = max(1.0, MIN_OPS / sum(n for _, _, n in parts))
    return [(name, entries, max(1, round(n * scale))) for name, entries, n in parts]


def op_list(workload: Workload, pool: list[dict], seed: int, seconds: float) -> list[dict]:
    """The ops of a run with `seconds` of baseline work, drawn from the pool by the seed.

    Each part of the mix is ordered by baseline latency and sampled
    systematically, so every seed draws the same spread of cheap and
    costly inputs; the ops are then shuffled together.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    ops = []
    for _, entries, n in mix(workload, pool, seconds):
        ordered = sorted(entries, key=lambda e: (e["ms"], e["id"]))
        ops.extend(_spread(ordered, n, rng))
    rng.shuffle(ops)
    return ops


# -- preparing and running ops -------------------------------------------------


def prepare(sf, entry: dict):
    """Parse and verify the op's input text through the public API (set-up work)."""
    rank = entry["rank"]
    op = entry["op"]
    if op == "spectrum":
        return None
    if "inverse" in entry:
        auto = sf.make_automorphism(
            rank, sf.parse_map_text(rank, entry["map"]), sf.parse_map_text(rank, entry["inverse"])
        )
    else:
        auto = sf.parse_generator_expression(rank, entry["map"])
    if op != "eta":
        return auto
    measure = entry["measure"]
    if measure == "uniform_as_markov":
        mu = sf.markov_measure(sf.uniform_as_markov(rank))
    elif measure.startswith("markov:"):
        mu = sf.markov_measure(sf.load_markov_spec(measure[len("markov:"):]))
    else:
        mu = sf.rational_measure(rank, sf.parse_word(measure[len("rational:"):]))
    return auto, mu


def execute(sf, entry: dict, prepared, budget, cache):
    """One op through the public API; returns its answer."""
    op = entry["op"]
    if op == "length":
        return sf.length_exact(prepared, budget=budget, cache=cache).value
    if op == "eta":
        auto, mu = prepared
        return sf.eta_length(auto, mu, budget=budget, cache=cache).value
    if op == "factorize":
        return sf.factorize(prepared, budget=budget, cache=cache)
    return sf.spectrum(entry["rank"], entry["max_factors"], budget=budget, cache=cache)


class OpTimeout(BaseException):
    """The op ran past its latency limit (raised by SIGALRM)."""


def _alarm(signum, frame):
    raise OpTimeout()


def _raised_in(exc: BaseException, name: str) -> bool:
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_code.co_name == name


def timed(sf, entry: dict, prepared, limit_s: float, budget=None):
    """Run one op under the latency limit: (outcome, answer, seconds).

    The outcome is "solved" or the failure class: refused_upfront (the
    budget's up-front estimate), refused_spent (the budget ran out),
    RecursionError, timeout or other.  Failures are returned, never raised.
    """
    budget = budget if budget is not None else sf.Budget()
    cache = sf.PartitionCache()
    signal.signal(signal.SIGALRM, _alarm)
    answer, outcome = None, "solved"
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        try:
            answer = execute(sf, entry, prepared, budget, cache)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        outcome = "timeout"
    except sf.ResourceLimitError as e:
        outcome = "refused_upfront" if _raised_in(e, "require") else "refused_spent"
    except RecursionError:
        outcome = "RecursionError"
    except Exception:  # an engine bug is a failed op, not a failed run
        outcome = "other"
    return outcome, answer, time.perf_counter() - t0


# -- correctness ------------------------------------------------------------


class WrongAnswer(Exception):
    pass


def _length_ok(entry: dict, value: Fraction) -> bool:
    """Exact match with the expectation, or the stored oracle estimate when the
    baseline had no answer for this input."""
    if entry.get("expect") is not None:
        return value == Fraction(entry["expect"])
    return oracle.agrees(value, entry["oracle"])


def check(entry: dict, answer) -> None:
    """Raise WrongAnswer unless the answer is right; runs outside the timed region."""
    op = entry["op"]
    if op in ("length", "eta"):
        measure = entry.get("measure", "")
        if measure.startswith("rational:"):
            imgs = oracle.images_of(entry)
            ok = answer == oracle.cyclic_length(oracle.apply(imgs, oracle.word(measure[len("rational:"):])))
        else:
            ok = _length_ok(entry, answer)
        if not ok:
            raise WrongAnswer(f"{entry['id']}: got {answer}")
    elif op == "factorize":
        _check_factorization(entry, answer)
    else:
        _check_spectrum(entry, answer)


def _check_factorization(entry: dict, report) -> None:
    rank = entry["rank"]
    imgs = tuple(tuple(w) for w in report.sigma.fwd)
    for tau in reversed(report.taus):
        imgs = oracle.compose(oracle.atom(rank, tau.label())[0], imgs)
    if imgs != oracle.images_of(entry):
        raise WrongAnswer(f"{entry['id']}: the factors do not recompose to the input")
    lengths = report.lengths
    if any(a >= b for a, b in zip(lengths, lengths[1:])):
        raise WrongAnswer(f"{entry['id']}: lengths do not strictly increase")
    if not _length_ok(entry, lengths[-1]):
        raise WrongAnswer(f"{entry['id']}: L(phi) = {lengths[-1]}")


def _check_spectrum(entry: dict, report) -> None:
    values = [e[0] for e in report.entries]
    if any(a >= b for a, b in zip(values, values[1:])):
        raise WrongAnswer(f"{entry['id']}: values are not strictly increasing")
    gaps = [b - a for a, b in zip(values, values[1:])]
    if report.min_gap != (min(gaps) if gaps else None):
        raise WrongAnswer(f"{entry['id']}: min_gap {report.min_gap}")
    if entry.get("expect") is not None:
        if values != [Fraction(v) for v in entry["expect"]]:
            raise WrongAnswer(f"{entry['id']}: values {values}")
        return
    for value, _, rep in report.entries:
        imgs = tuple(oracle.word(w) for w in rep.split(","))
        if not oracle.agrees(value, oracle.estimate(imgs, entry["rank"], zlib.crc32(rep.encode()))):
            raise WrongAnswer(f"{entry['id']}: value {value} of {rep}")
