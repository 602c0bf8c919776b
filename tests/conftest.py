import random

import pytest

from stretchfactor import Word, make_automorphism


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
