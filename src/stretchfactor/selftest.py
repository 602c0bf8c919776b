"""Exact invariant suite behind `stretchfactor selftest`.

Each check prints one line and the run fails loudly on the first broken
identity.  `_check` raises AssertionError itself, so the checks still
run under `python -O`, which strips `assert` statements.  Everything
here is exact rational arithmetic; nothing is sampled except the choice
of random cylinder unions, which is seeded.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .automorphisms import identity, inner, make_automorphism
from .boundary import CylinderPartition, _graft, depth1_profile, preimage_partition
from .errors import InputError
from .measures import (
    criterion_check,
    current_pair_value,
    consistency_check,
    uniform_as_markov,
    uniform_measure,
)
from .words import Word, alphabet, all_words, comparable, extension_letters, lcp, random_reduced

ZERO = Fraction(0)


def _check(ok: bool, what: str, *detail) -> None:
    if not ok:
        raise AssertionError(f"selftest failed: {what}", *detail)


def _random_prefix_free(k: int, rng: random.Random, max_depth: int = 3) -> list[Word]:
    """A random nonempty prefix-free family built by recursive splitting."""
    cells: list[Word] = []

    def split(w: Word, depth: int) -> None:
        if depth >= max_depth or rng.random() < 0.55:
            cells.append(w)
            return
        for c in extension_letters(w, k):
            split(Word(tuple(w) + (c,)), depth + 1)

    for c in alphabet(k):
        split(Word((c,)), 1)
    # A proper subset, so translates stay representable as cylinder families.
    n = rng.randrange(1, len(cells))
    return rng.sample(cells, n)


def run_selftest(rank: int, depth: int) -> int:
    if depth < 1:
        raise InputError("depth must be at least 1")
    k = rank
    mu = uniform_measure(k)
    words = [w for n in range(1, depth + 1) for w in all_words(n, k)]

    # Cylinder-product disintegration and the product lower bound.
    factor_cache = {}
    checked = 0
    for v in words:
        for w in words:
            if comparable(v, w):
                continue
            shared = len(lcp(v, w))
            f = factor_cache.setdefault(
                shared, Fraction(2 * k, 2 * k - 1) * Fraction(2 * k - 1) ** (2 * shared)
            )
            value = current_pair_value(mu, v, w)
            expected = f * mu.eval(v) * mu.eval(w)
            _check(value == expected, "disintegration identity", v, w)
            _check(value >= mu.eval(v) * mu.eval(w), "product lower bound", v, w)
            checked += 1
    print(f"ok disintegration identity on {checked} non-comparable pairs")

    _check(consistency_check(mu, depth), "uniform measure consistency")
    print(f"ok additivity and shift invariance of the uniform measure to depth {depth}")

    rng = random.Random(20240 + k)
    for trial in range(100):
        family = _random_prefix_free(k, rng)
        e_mass = sum((mu.eval(w) for w in family), ZERO)
        for flen in (1, 2, 3):
            f = random_reduced(flen, k, rng)
            translated = _graft(CylinderPartition.from_words(k, family), f).words
            t_mass = sum((mu.eval(w) for w in translated), ZERO)
            _check(t_mass >= e_mass / (2 * k - 1) ** flen, "translation bound", f, family)
    print("ok translation lower bound on 100 random cylinder unions, |f| <= 3")

    # Concrete separation witness: f = a, E = Cyl(a^-1), S = Cyl(a).
    a = 1
    e_words, s_words = (Word((-a,)),), (Word((a,)),)
    complement_e = [Word((c,)) for c in alphabet(k) if c != -a]
    complement_s = [Word((c,)) for c in alphabet(k) if c != a]
    image = _graft(CylinderPartition.from_words(k, complement_e), Word((a,))).words
    _check(all(any(w[: len(s)] == s for s in s_words) for w in image), "a * E^c in S")
    image = _graft(CylinderPartition.from_words(k, complement_s), Word((-a,))).words
    _check(all(any(w[: len(e)] == e for e in e_words) for w in image), "a^-1 * S^c in E")
    pair = current_pair_value(mu, e_words[0], s_words[0])
    bound = (
        (1 - mu.eval(e_words[0]))
        * (1 - mu.eval(s_words[0]))
        / Fraction(2 * k - 1) ** 2
    )
    _check(pair >= bound, "separation bound", pair, bound)
    print(f"ok separation witness: {pair} >= {bound}")

    # Preimage partitions of a small family partition the boundary exactly.
    family = [identity(k), inner(k, Word((1,))), inner(k, Word((1, 2)))]
    if k == 2:
        family.append(
            make_automorphism(2, {1: Word((1,)), 2: Word((2, 1))},
                              {1: Word((1,)), 2: Word((2, -1))})
        )
    for auto in family:
        profile = depth1_profile(auto)
        _check(sum(profile.values(), ZERO) == 1, "depth-1 masses sum to one", auto.key())
        for u in all_words(2, k):
            whole = preimage_partition(auto, u)
            pieces = [
                w
                for c in extension_letters(u, k)
                for w in preimage_partition(auto, Word(tuple(u) + (c,))).words
            ]
            _check(CylinderPartition.from_words(k, pieces) == whole, "refinement", auto.key(), u)
    print(f"ok preimage partitions for {len(family)} maps: exact masses and refinement")

    report = criterion_check(uniform_as_markov(k))
    third = Fraction(1, 2 * k - 1)
    _check(report.passes, "uniform-as-markov criterion")
    _check(all(q == third for q in report.c1.values()), "C1 constants")
    _check(all(q == third for q in report.c2.values()), "C2 constants")
    print("ok uniform-as-markov criterion constants")
    print("selftest passed")
    return 0
