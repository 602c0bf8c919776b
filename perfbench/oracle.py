"""Independent free-group oracle for checking the engine's answers.

Nothing here imports `stretchfactor`: words, generator expressions, raw
maps, composition and the Monte Carlo length estimator are implemented
again from their definitions, so a bug in the engine cannot hide in the
oracle that checks it.

Letters are nonzero ints (+i basis letter, -i its inverse); text uses
lowercase for basis letters and uppercase for inverses.  An image tuple
``imgs`` holds the images of the basis letters 1..k.
"""

from __future__ import annotations

import random
import re
import statistics
from fractions import Fraction

MC_N = 600
MC_TRIALS = 120


def letter(ch: str) -> int:
    return ord(ch) - 96 if ch.islower() else -(ord(ch) - 64)


def word(text: str) -> tuple:
    return reduce_word(letter(c) for c in text.strip())


def text(w) -> str:
    return "".join(chr(96 + x) if x > 0 else chr(64 - x) for x in w)


def reduce_word(seq) -> tuple:
    out: list = []
    for x in seq:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inv(w) -> tuple:
    return tuple(-x for x in reversed(w))


def apply(imgs, w) -> tuple:
    out: list = []
    for x in w:
        for y in imgs[x - 1] if x > 0 else inv(imgs[-x - 1]):
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def cyclic_length(w) -> int:
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return j - i


def compose(outer, inner_):
    """Images of outer o inner_ (inner_ applied first)."""
    return tuple(apply(outer, w) for w in inner_)


# -- generator expressions and raw maps -----------------------------------

_ATOM = re.compile(r"^(W2|perm|inner)\[(.*)\]$")


def atom(rank: int, src: str):
    """(forward images, inverse images) of one W2/perm/inner atom."""
    kind, body = _ATOM.match(src.strip()).groups()
    basis = [(x,) for x in range(1, rank + 1)]
    if kind == "inner":
        v = word(body)
        fwd = [reduce_word(v + b + inv(v)) for b in basis]
        bwd = [reduce_word(inv(v) + b + v) for b in basis]
        return tuple(fwd), tuple(bwd)
    if kind == "perm":
        fwd = list(basis)
        for part in body.split(","):
            x, y = part.split("->")
            fwd[letter(x.strip()) - 1] = (letter(y.strip()),)
        bwd = list(basis)
        for x, (y,) in enumerate(fwd, start=1):
            bwd[abs(y) - 1] = (x if y > 0 else -x,)
        return tuple(fwd), tuple(bwd)
    head, _, rest = body.partition(";")
    a = letter(head.strip())
    fwd, bwd = list(basis), list(basis)
    for part in filter(None, (p.strip() for p in rest.split(","))):
        x, t = part.split(":")
        x = letter(x.strip())
        shapes = {"FIX": ((x,), (x,)), "RIGHT": ((x, a), (x, -a)),
                  "LEFT": ((-a, x), (a, x)), "CONJ": ((-a, x, a), (a, x, -a))}
        fwd[x - 1], bwd[x - 1] = shapes[t.strip().upper()]
    return tuple(fwd), tuple(bwd)


def expression(rank: int, src: str):
    """(forward, inverse) images of `A * B * ...`, the left factor applied last."""
    fwd = bwd = tuple((x,) for x in range(1, rank + 1))
    for part in src.split("*"):
        f, b = atom(rank, part)
        fwd, bwd = compose(fwd, f), compose(b, bwd)
    return fwd, bwd


def raw_map(rank: int, src: str):
    imgs = [()] * rank
    for part in filter(None, (p.strip() for p in src.split(","))):
        x, w = part.split("->")
        imgs[letter(x.strip()) - 1] = word(w)
    return tuple(imgs)


def map_text(imgs) -> str:
    return ", ".join(f"{text((x,))}->{text(w)}" for x, w in enumerate(imgs, start=1))


def images_of(entry):
    """Forward images of an entry's map, from its text alone."""
    if "inverse" in entry:
        return raw_map(entry["rank"], entry["map"])
    return expression(entry["rank"], entry["map"])[0]


# -- Monte Carlo lengths --------------------------------------------------


def uniform_chain(rank: int):
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    q = 1 / (2 * rank - 1)
    return {x: 1 / (2 * rank) for x in letters}, {
        x: {y: (0.0 if y == -x else q) for y in letters} for x in letters
    }


def sample_cyclic(n: int, p, rows, rng: random.Random) -> tuple:
    """A cyclic word of length n drawn from the periodic version of the chain.

    The path is accepted with probability P(last, first) / max P, which
    weights it by the transition that closes the cycle; for a doubly
    stochastic chain the cyclic words then carry exactly the periodic
    Markov weights, so cylinder frequencies match the measure up to a
    bias exponentially small in n.
    """
    letters = list(p)
    first_w = [p[x] for x in letters]
    cols = {x: (list(rows[x]), list(rows[x].values())) for x in letters}
    top = max(max(r.values()) for r in rows.values())
    while True:
        w = rng.choices(letters, first_w)
        for _ in range(n - 1):
            ys, ws = cols[w[-1]]
            w.append(rng.choices(ys, ws)[0])
        if rng.random() * top < rows[w[-1]][w[0]]:
            return tuple(w)


def markov_chain(spec_json: dict):
    p = {letter(x): float(Fraction(q)) for x, q in spec_json["p"].items()}
    rows = {
        letter(x): {letter(y): float(Fraction(q)) for y, q in row.items()}
        for x, row in spec_json["P"].items()
    }
    return p, rows


def agrees(value: Fraction, estimate: dict) -> bool:
    """Within 3 standard errors plus 4/n of a stored Monte Carlo estimate."""
    tol = 3 * estimate["stderr"] + 4 / estimate["n"]
    return abs(float(value) - estimate["mean"]) <= tol


def estimate(imgs, rank: int, seed: int, chain=None) -> dict:
    """Mean and standard error of |phi(w)|_cyclic / n over sampled cyclic
    words w of length n, for a unit-mass measure (uniform by default)."""
    p, rows = chain or uniform_chain(rank)
    rng = random.Random(seed)
    vals = [cyclic_length(apply(imgs, sample_cyclic(MC_N, p, rows, rng))) / MC_N for _ in range(MC_TRIALS)]
    stderr = statistics.stdev(vals) / MC_TRIALS**0.5
    return {"mean": statistics.fmean(vals), "stderr": stderr, "n": MC_N, "trials": MC_TRIALS, "seed": seed}
