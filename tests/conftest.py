import random
from fractions import Fraction

import pytest

from stretchfactor import Word, make_automorphism
from stretchfactor.automorphisms import _shortest_conjugate
from stretchfactor.boundary import _class_rep, _depth1_family, _preimage, _words
from stretchfactor.measures import (
    MarkovSpec,
    markov_measure,
    rational_measure,
    uniform_as_markov,
    uniform_measure,
)
from stretchfactor.words import (
    alphabet,
    concat,
    extension_letters,
    inverse,
    is_cyclically_reduced,
    is_proper_power,
    random_reduced,
    validate_rank,
)

from oracles import pair_mass_by_pairs, shortest_conjugate_by_steps


def nielsen():
    return make_automorphism(
        2, {1: Word((1,)), 2: Word((2, 1))}, {1: Word((1,)), 2: Word((2, -1))}
    )


@pytest.fixture
def nielsen_map():
    return nielsen()


def random_composition(rank, n_factors, rng: random.Random):
    """A random composition of second-kind and permutation generators."""
    from stretchfactor import compose, enumerate_second_kind, enumerate_signed_permutations

    gens = [t.automorphism() for t in enumerate_second_kind(rank)]
    gens += enumerate_signed_permutations(rank)
    phi = gens[rng.randrange(len(gens))]
    for _ in range(n_factors - 1):
        phi = compose(gens[rng.randrange(len(gens))], phi)
    return phi


def conjugated_composition(rank, n_factors, v_len, rng: random.Random):
    """random_composition, conjugated by a random reduced word of length v_len."""
    from stretchfactor import conj

    phi = random_composition(rank, n_factors, rng)
    return conj(phi, random_reduced(v_len, rank, rng))


def given_chain_table(auto, mu, depth, budget, cache):
    """`boundary._table` read off the map's own Nielsen chain, pair by pair.

    The engine's table reads the chain of the map's shortest conjugate;
    this one assembles the given map's families, so comparing the two
    checks that a conjugate pushes mu to the same current.  It also grafts
    every preimage of the given depth and sums nu(v) as the pairs from the
    families of the letters a != v1 into phi^-1(Cyl v), one `mu.eval` per
    pair (`oracles.pair_mass_by_pairs`), where the engine walks the
    families (`_pair_mass`) or the preimages one level up (`_cross_mass`),
    so it is the reference for both walks.  Returns (1, {v: nu(v)}), the
    values as fractions over the denominator 1.
    """
    rank = auto.rank
    fam = _depth1_family(auto, budget, cache)
    deep = {}
    for v in _words(depth, rank):
        part = _preimage(auto.bwd, fam, v, budget)
        deep[v] = sum(
            (pair_mass_by_pairs(mu, fam[a], part) for a in alphabet(rank) if a != v[0]),
            Fraction(0),
        )
    levels = [deep]
    for n in range(depth - 1, 0, -1):
        below = levels[-1]
        levels.append({
            v: sum(below[v + (c,)] for c in extension_letters(v, rank))
            for v in _words(n, rank)
        })
    return 1, {v: q for level in reversed(levels) for v, q in level.items()}


def assert_class_rep_by_steps(phi):
    """`boundary._class_rep(phi)` is the shortest conjugate the former
    descent finds (`oracles.shortest_conjugate_by_steps`): the same psi and
    v, inverse images g phi^-1(y) g^-1 with g = phi^-1(v) reduced by
    `concat`, and every image a nonempty reduced Word in the rank, which
    the constructor no longer checks for the engine's own maps."""
    images, v = shortest_conjugate_by_steps(phi.fwd)
    assert _shortest_conjugate(phi.fwd) == (images, v)
    psi = _class_rep(phi)
    if not v:
        assert psi is phi
    g = phi.apply_inverse(v)
    assert psi.fwd == images
    assert psi.bwd == tuple(concat(concat(g, w), inverse(g)) for w in phi.bwd)
    for w in psi.fwd + psi.bwd:
        assert type(w) is Word and w
        Word(w)  # NotReducedError unless reduced
        validate_rank(w, phi.rank)


def is_atom(f):
    """True for an elementary transvection or a signed permutation."""
    if all(len(img) == 1 for img in f.fwd):
        return True
    moved = [x for x in range(1, f.rank + 1) if f.fwd[x - 1] != (x,)]
    if len(moved) != 1:
        return False
    x = moved[0]
    img = f.fwd[x - 1]
    return len(img) == 2 and (
        (img[0] == x and abs(img[1]) != x) or (img[1] == x and abs(img[0]) != x)
    )


def reversible_markov(rank, rng: random.Random, mass=Fraction(1)):
    """A Markov spec from random symmetric weights; detailed balance makes it stationary."""
    letters = alphabet(rank)
    weight = {}
    for x in letters:
        for y in letters:
            weight[x, y] = weight.get((y, x), 0 if y == -x else rng.randint(1, 4))
    row = {x: sum(weight[x, y] for y in letters) for x in letters}
    total = sum(row.values())
    return MarkovSpec(
        rank=rank,
        mass=mass,
        initial={x: Fraction(row[x], total) for x in letters},
        transitions={x: {y: Fraction(weight[x, y], row[x]) for y in letters} for x in letters},
    )


def doubly_stochastic_markov(rank, rng: random.Random):
    """A Markov spec whose P is a random positive mix of three permutations of
    the letters, none sending a letter to its inverse; so p is uniform."""
    letters = alphabet(rank)
    perms = []
    while len(perms) < 3:
        image = rng.sample(letters, len(letters))
        if all(y != -x for x, y in zip(letters, image)):
            perms.append(image)
    weights = [rng.randint(1, 6) for _ in perms]
    rows = {x: dict.fromkeys(letters, Fraction(0)) for x in letters}
    for image, weight in zip(perms, weights):
        for x, y in zip(letters, image):
            rows[x][y] += Fraction(weight, sum(weights))
    return MarkovSpec(
        rank=rank,
        mass=Fraction(1),
        initial=dict.fromkeys(letters, Fraction(1, 2 * rank)),
        transitions=rows,
    )


def primitive_cyclic_word(rank, rng: random.Random):
    """A random cyclically reduced word of 2 to 7 letters that is no proper power."""
    while True:
        word = random_reduced(rng.randint(2, 7), rank, rng)
        if is_cyclically_reduced(word) and not is_proper_power(word):
            return word


def sample_measures(rank, rng: random.Random):
    """One measure of each construction: uniform, uniform as Markov, a biased
    Markov measure of mass 3/2, a one-letter rational word and a longer one."""
    word = primitive_cyclic_word(rank, rng)
    return [
        uniform_measure(rank),
        markov_measure(uniform_as_markov(rank)),
        markov_measure(reversible_markov(rank, rng, Fraction(3, 2))),
        rational_measure(rank, Word((rank,))),
        rational_measure(rank, word),
    ]
