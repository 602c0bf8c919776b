import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from stretchfactor import (
    canonical_out_key,
    compose,
    conj,
    descent_step,
    enumerate_second_kind,
    factorize,
    identity,
    inner,
    is_simple,
    length_exact,
    parse_word,
    spectrum,
)
from stretchfactor.words import random_reduced

from conftest import random_composition


def w(text):
    return parse_word(text)


def random_second_kind_composition(rank, n_factors, rng):
    moves = [t for t in enumerate_second_kind(rank) if not t.is_identity()]
    phi = moves[rng.randrange(len(moves))].automorphism()
    for _ in range(n_factors - 1):
        phi = compose(moves[rng.randrange(len(moves))].automorphism(), phi)
    return phi


def test_descent_on_single_move(nielsen_map):
    tau = descent_step(nielsen_map)
    assert tau is not None
    assert length_exact(compose(tau.automorphism(), nielsen_map)).value == 1


def test_descent_none_on_simple():
    assert descent_step(inner(2, w("ab"))) is None


def test_descent_on_two_moves(nielsen_map):
    right_on_a = next(
        t for t in enumerate_second_kind(2)
        if t.multiplier == 2 and t.types == ("RIGHT",)
    )
    phi = compose(nielsen_map, right_on_a.automorphism())
    assert is_simple(phi) is None
    base = length_exact(phi).value
    tau = descent_step(phi)
    assert length_exact(compose(tau.automorphism(), phi)).value < base


def test_factorize_simple_input():
    rep = factorize(inner(2, w("ab")))
    assert rep.taus == ()
    assert rep.lengths == (F(1),)
    assert rep.sigma == inner(2, w("ab"))


def test_factorize_nielsen(nielsen_map):
    rep = factorize(nielsen_map)
    assert len(rep.taus) == 1
    assert rep.lengths == (F(1), F(7, 6))
    assert is_simple(rep.sigma) is not None
    assert rep.recomposed() == nielsen_map


def _check_factorization(phi):
    rep = factorize(phi)
    assert rep.recomposed() == phi
    assert all(a < b for a, b in zip(rep.lengths, rep.lengths[1:]))
    assert is_simple(rep.sigma) is not None
    assert all(q >= 1 for q in rep.lengths)
    assert rep.lengths[0] == 1


@pytest.mark.parametrize("seed", range(20))
def test_factorize_random_compositions(seed):
    rng = random.Random(1000 + seed)
    _check_factorization(random_second_kind_composition(2, rng.randrange(1, 4), rng))


@pytest.mark.parametrize("seed", range(10))
def test_factorize_random_compositions_rank3(seed):
    rng = random.Random(3000 + seed)
    _check_factorization(random_second_kind_composition(3, rng.randrange(1, 3), rng))


def test_canonical_out_key_examples(nielsen_map):
    ident = identity(2)
    assert canonical_out_key(inner(2, w("ab"))) == ident.fwd
    assert canonical_out_key(ident) == ident.fwd
    for text in ["a", "ab", "Ba"]:
        assert canonical_out_key(conj(nielsen_map, w(text))) == canonical_out_key(
            nielsen_map
        )


@settings(max_examples=40, deadline=None)
@given(
    rank=st.integers(2, 4),
    n_factors=st.integers(1, 4),
    v_len=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_canonical_out_key_is_a_conjugation_invariant(rank, n_factors, v_len, seed):
    rng = random.Random(seed)
    phi = random_composition(rank, n_factors, rng)
    v = random_reduced(v_len, rank, rng)
    assert canonical_out_key(conj(phi, v)) == canonical_out_key(phi)


def test_spectrum_one_factor():
    rep = spectrum(2, 1)
    assert rep.values() == (F(1), F(7, 6))
    assert rep.min_gap == F(1, 6)
    assert rep.entries[0][0] == 1


def test_spectrum_discreteness_small():
    rep = spectrum(2, 2)
    values = rep.values()
    assert values[0] == 1
    assert rep.min_gap is not None and rep.min_gap > 0
    assert len(set(values)) == len(values)
    assert all(v >= 1 for v in values)


def test_spectrum_unit_length_iff_simple():
    # among classes of up to two generators, L = 1 exactly on simple maps;
    # both are conjugation invariants, so each class is checked on one member
    from stretchfactor import enumerate_signed_permutations

    gens = [t.automorphism() for t in enumerate_second_kind(2)]
    gens += enumerate_signed_permutations(2)
    seen = {}
    for g in gens:
        for h in gens:
            phi = compose(g, h)
            seen.setdefault(canonical_out_key(phi), phi)
    for rep in seen.values():
        simple = is_simple(rep) is not None
        unit = length_exact(rep).value == 1
        assert simple == unit


def test_spectrum_value_set_stable_under_extra_conjugation_dedup():
    # brute-force conjugators up to length 2 merge keys but not values
    from stretchfactor.words import all_words

    rep = spectrum(2, 2)
    values = set(rep.values())
    merged_values = set()
    seen_keys = set()
    gens = [t.automorphism() for t in enumerate_second_kind(2)]
    from stretchfactor import enumerate_signed_permutations

    gens += enumerate_signed_permutations(2)
    for g in gens:
        for h in gens:
            phi = compose(g, h)
            keys = {canonical_out_key(phi)}
            for n in (1, 2):
                for v in all_words(n, 2):
                    keys.add(canonical_out_key(conj(phi, v)))
            key = min(keys, key=lambda t: tuple(tuple(x) for x in t))
            if key in seen_keys:
                continue
            seen_keys.add(key)
            merged_values.add(length_exact(phi).value)
    assert merged_values == values


def test_rank3_spectrum_of_single_generators():
    rep = spectrum(3, 1)
    assert rep.values() == (1, F(6, 5), F(19, 15))
    assert rep.min_gap == F(1, 15)
