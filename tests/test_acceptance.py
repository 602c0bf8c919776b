"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here: exact equality for
rational values, 3*stderr + 4/n for the Monte Carlo cross-check, and
wall-clock ceilings where stated.
"""

import random
import time
from fractions import Fraction as F

from stretchfactor import (
    CylinderPartition,
    MarkovSpec,
    Word,
    canonical_out_key,
    compose,
    criterion_check,
    cyclic_length,
    enumerate_second_kind,
    enumerate_signed_permutations,
    eta_length,
    factorize,
    identity,
    inner,
    is_simple,
    length_exact,
    length_mc,
    parse_word,
    pushforward_table,
    random_reduced,
    rational_measure,
    recenter,
    spectrum,
    uniform_as_markov,
    uniform_measure,
)
from stretchfactor.measures import current_pair_value
from stretchfactor.words import (
    all_words,
    alphabet,
    comparable,
    cyclic_reduce,
    extension_letters,
    is_proper_power,
    lcp,
)

from conftest import nielsen, random_composition
from oracles import brute_preimage_mass, translate_cylinder


def w(text):
    return parse_word(text)


def _report(n, label, t0, limit=None):
    elapsed = time.monotonic() - t0
    if limit is not None:
        assert elapsed <= limit, f"criterion {n} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"PASS criterion {n}: {label} ({elapsed:.1f}s)")


def test_criterion_1_exact_unit_lengths():
    t0 = time.monotonic()
    maps = [identity(2)]
    maps += enumerate_signed_permutations(2)
    assert len(maps) == 9
    count = 0
    for n in range(0, 5):
        for v in all_words(n, 2):
            maps.append(inner(2, v))
            count += 1
    assert count == 161
    for phi in maps:
        assert length_exact(phi).value == 1
    _report(1, f"L = 1 exactly for {len(maps)} simple maps", t0, limit=30)


def test_criterion_2_nielsen_length_and_monte_carlo():
    t0 = time.monotonic()
    phi = nielsen()
    rep = length_exact(phi)
    assert rep.value == F(7, 6)
    est = length_mc(phi, n=2000, trials=200, seed=20240)
    tolerance = 3 * est.stderr + 4 / est.n
    assert abs(est.mean - float(rep.value)) <= tolerance
    _report(
        2,
        f"L = 7/6 exact; MC {est.mean:.5f} within {tolerance:.5f}",
        t0,
        limit=60,
    )


def test_criterion_3_rational_current_oracle():
    t0 = time.monotonic()
    rng = random.Random(33)
    pairs = 0
    while pairs < 50:
        phi = random_composition(2, rng.randrange(1, 4), rng)
        core = cyclic_reduce(random_reduced(rng.randrange(1, 9), 2, rng))[0]
        if not core or len(core) > 8 or is_proper_power(core):
            continue
        mu = rational_measure(2, core)
        assert eta_length(phi, mu).value == cyclic_length(phi.apply(core))
        pairs += 1
    _report(3, f"eta-length equals cyclic image length on {pairs} pairs", t0)


def test_criterion_4_appendix_suite_depth5():
    t0 = time.monotonic()
    k, depth = 2, 5
    mu = uniform_measure(k)
    words = [u for n in range(1, depth + 1) for u in all_words(n, k)]

    # disintegration identity on every non-comparable pair up to depth 5
    factors = {
        d: F(2 * k, 2 * k - 1) * F(2 * k - 1) ** (2 * d) for d in range(depth + 1)
    }
    pairs = 0
    for v in words:
        mv = mu.eval(v)
        for u in words:
            if comparable(v, u):
                continue
            value = current_pair_value(mu, v, u)
            assert value == factors[len(lcp(v, u))] * mv * mu.eval(u)
            assert value >= mv * mu.eval(u)
            pairs += 1
    from stretchfactor import consistency_check

    assert consistency_check(mu, depth)

    # translation bound on 100 random cylinder unions for |f| <= 2
    from stretchfactor.selftest import _random_prefix_free as random_prefix_free

    rng = random.Random(77)
    for _ in range(100):
        family = random_prefix_free(k, rng)
        e_mass = sum(mu.eval(x) for x in family)
        for flen in (1, 2):
            f = random_reduced(flen, k, rng)
            pieces = [p for x in family for p in translate_cylinder(f, x, k)]
            translated = CylinderPartition.from_words(k, pieces).words
            assert sum(mu.eval(x) for x in translated) >= e_mass / (2 * k - 1) ** flen

    # separation witness: eta(E x S) = 1/12 >= 1/16
    value = current_pair_value(mu, w("A"), w("a"))
    assert value == F(1, 12)
    assert value >= (1 - F(1, 4)) * (1 - F(1, 4)) / F(2 * k - 1) ** 2 == F(1, 16)
    _report(4, f"appendix identities ({pairs} pairs, 100 unions, witness)", t0, limit=120)


def test_criterion_5_engine_coherence():
    t0 = time.monotonic()
    rng = random.Random(501)
    mu = uniform_measure(2)
    for _ in range(20):
        phi = random_composition(2, rng.randrange(1, 4), rng)
        table = pushforward_table(phi, mu, 3)
        for n in (1, 2):
            for v in all_words(n, 2):
                children = sum(
                    table[Word(tuple(v) + (c,))] for c in extension_letters(v, 2)
                )
                assert children == table[v]
                shifted = sum(
                    table[Word((c,) + tuple(v))]
                    for c in alphabet(2)
                    if c != -v[0]
                )
                assert shifted == table[v]
        row_sum = sum(table[Word((c,))] for c in alphabet(2))
        assert row_sum == length_exact(phi).value
    _report(5, "20 pushforward tables exactly consistent, rows sum to L", t0)


def test_criterion_6_factorization_shape():
    t0 = time.monotonic()
    moves = [t for t in enumerate_second_kind(2) if not t.is_identity()]
    rng = random.Random(606)
    for _ in range(20):
        phi = moves[rng.randrange(len(moves))].automorphism()
        for _ in range(rng.randrange(0, 3)):
            phi = compose(moves[rng.randrange(len(moves))].automorphism(), phi)
        rep = factorize(phi)
        assert rep.recomposed() == phi
        assert all(a < b for a, b in zip(rep.lengths, rep.lengths[1:]))
        assert is_simple(rep.sigma) is not None
        assert all(q >= 1 for q in rep.lengths)
    _report(6, "20 factorizations: exact recomposition, strict descent", t0)


def test_criterion_7_spectrum_discreteness():
    t0 = time.monotonic()
    rep = spectrum(2, 3)
    values = rep.values()
    assert len(values) == len(set(values))
    assert values[0] == 1
    assert rep.min_gap is not None and rep.min_gap > 0
    assert all(v >= 1 for v in values)
    # L = 1 exactly on class members passing the simplicity test; both are
    # conjugation invariants, so each class is checked on one member
    gens = [t.automorphism() for t in enumerate_second_kind(2)]
    gens += enumerate_signed_permutations(2)
    seen = {}
    rng = random.Random(707)
    for _ in range(150):
        phi = random_composition(2, rng.randrange(1, 4), rng)
        seen.setdefault(canonical_out_key(phi), phi)
    for phi in seen.values():
        assert (length_exact(phi).value == 1) == (is_simple(phi) is not None)
    _report(
        7,
        f"spectrum {{{', '.join(str(v) for v in values)}}}, min gap {rep.min_gap}",
        t0,
        limit=600,
    )


def test_criterion_8_criterion_checker():
    t0 = time.monotonic()
    report = criterion_check(uniform_as_markov(2))
    assert report.passes
    assert all(q == F(1, 3) for q in report.c1.values())
    assert all(q == F(1, 3) for q in report.c2.values())
    # a stationary spec that never follows a by B: P(a, B) = 0, so C1(a) = 0
    letters = alphabet(2)
    nxt = {1: 2, 2: -1, -1: -2, -2: 1}  # a -> b -> A -> B -> a
    rows = {
        x: {y: (F(1, 2) if y in (x, nxt[x]) else F(0)) for y in letters} for x in letters
    }
    bad = MarkovSpec(rank=2, mass=F(1), initial={x: F(1, 4) for x in letters}, transitions=rows)
    report = criterion_check(bad)
    assert not report.passes
    assert report.witness == 1
    assert report.c1[1] == 0
    assert report.reason == "C1(a) = 0"
    _report(8, "uniform passes with C = 1/3; a spec with P(a, B) = 0 fails with witness a", t0)


def test_criterion_9_recentering():
    t0 = time.monotonic()
    for text in ("a", "ab"):
        phi = inner(2, w(text))
        v, psi = recenter(phi)
        assert v == w(text)
        assert psi.is_identity()
        # brute-force mass enumeration confirms each greedy decision
        path = w(text)
        for i in range(len(path) + 1):
            prefix = Word(path[:i])
            for c in extension_letters(prefix, 2):
                mass = brute_preimage_mass(phi, Word(tuple(prefix) + (c,)))
                if i < len(path) and c == path[i]:
                    assert mass >= F(1, 2)
                else:
                    assert mass < F(1, 2)
    _report(9, "recenter(inner(a)) = (a, id) and recenter(inner(ab)) = (ab, id)", t0)
