import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from stretchfactor import (
    InputError,
    ResourceLimitError,
    compose,
    conj,
    cyclic_length,
    enumerate_signed_permutations,
    eta_length,
    identity,
    inner,
    length_exact,
    length_mc,
    make_automorphism,
    markov_measure,
    parse_generator_expression,
    parse_map_text,
    parse_word,
    pushforward_table,
    random_reduced,
    rational_measure,
    spectrum,
    uniform_as_markov,
    uniform_measure,
)
from stretchfactor.boundary import Budget, PartitionCache
from stretchfactor.words import alphabet, cyclic_reduce, is_proper_power

from conftest import (
    conjugated_composition,
    doubly_stochastic_markov,
    given_chain_table,
    primitive_cyclic_word,
    random_composition,
    sample_measures,
)
from oracles import length_by_cancellation


def w(text):
    return parse_word(text)


def test_identity_and_inner_have_unit_length(nielsen_map):
    assert length_exact(identity(2)).value == 1
    for text in ["a", "ab", "aBA", "bbA"]:
        assert length_exact(inner(2, w(text))).value == 1


def test_nielsen_length(nielsen_map):
    rep = length_exact(nielsen_map)
    assert rep.value == F(7, 6)
    assert rep.breakdown == {1: F(1, 3), -1: F(1, 3), 2: F(1, 4), -2: F(1, 4)}
    assert rep.value == sum(rep.breakdown.values())


def test_eta_length_examples(nielsen_map):
    assert eta_length(identity(2), rational_measure(2, w("aab"))).value == 3
    assert eta_length(nielsen_map, rational_measure(2, w("b"))).value == 2
    markov = markov_measure(uniform_as_markov(2))
    assert eta_length(nielsen_map, markov).value == length_exact(nielsen_map).value


@given(
    rank=st.integers(2, 4),
    n_factors=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_length_by_cancellation_matches_pair_sums(rank, n_factors, seed):
    # a second exact length that reads preimages but no pair sums
    rng = random.Random(seed)
    phi = random_composition(rank, n_factors if rank < 4 else min(n_factors, 2), rng)
    for mu in sample_measures(rank, rng):
        assert length_by_cancellation(phi, mu) == eta_length(phi, mu).value, mu.kind


@st.composite
def _cyclic_words(draw, rank):
    """A cyclically reduced word of 1 to 6 letters that is no proper power."""
    letters = alphabet(rank)
    word = [draw(st.sampled_from(letters))]
    for _ in range(draw(st.integers(0, 5))):
        word.append(draw(st.sampled_from([c for c in letters if c != -word[-1]])))
    core = cyclic_reduce(word)[0]
    assume(not is_proper_power(core))
    return core


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rational_current_oracle_random(data):
    # The rational current of a cyclic word w has length |phi(w)|_cyclic.
    # Every example checks each rank once, so each rank gets 30 cases.
    for rank, max_factors in ((2, 3), (3, 3), (4, 2)):
        n_factors = data.draw(st.integers(1, max_factors), label=f"factors at rank {rank}")
        seed = data.draw(st.integers(0, 2**32 - 1), label=f"map seed at rank {rank}")
        core = data.draw(_cyclic_words(rank), label=f"word at rank {rank}")
        phi = random_composition(rank, n_factors, random.Random(seed))
        mu = rational_measure(rank, core)
        assert eta_length(phi, mu).value == cyclic_length(phi.apply(core)), (rank, phi.key())


def test_conjugation_invariance_exact(nielsen_map):
    base = length_exact(nielsen_map).value
    rng = random.Random(5)
    for _ in range(8):
        v = random_reduced(rng.randrange(0, 5), 2, rng)
        assert length_exact(conj(nielsen_map, v)).value == base


def test_signed_permutation_invariance(nielsen_map):
    base = length_exact(nielsen_map).value
    for pi in enumerate_signed_permutations(2):
        assert length_exact(compose(pi, nielsen_map)).value == base


@settings(max_examples=30, deadline=None)
@given(
    rank=st.integers(2, 4),
    n_factors=st.integers(1, 3),
    v_len=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_conjugation_and_signed_permutation_invariance(rank, n_factors, v_len, seed):
    # the length is a class function, and the uniform current and word
    # length are both invariant under signed permutations
    rng = random.Random(seed)
    phi = random_composition(rank, n_factors if rank < 4 else min(n_factors, 2), rng)
    base = length_exact(phi).value
    assert length_exact(conj(phi, random_reduced(v_len, rank, rng))).value == base
    pi = rng.choice(enumerate_signed_permutations(rank))
    assert length_exact(compose(pi, phi)).value == base
    assert length_exact(compose(phi, pi)).value == base


def _length_of_the_given_chain(phi, mu):
    """(value, breakdown) from the table of phi's own chain."""
    den, num = given_chain_table(phi, mu, 1, Budget(), PartitionCache())
    breakdown = {x: F(num[(x,)], den) for x in alphabet(phi.rank)}
    return F(sum(num.values()), den), breakdown


@settings(max_examples=30, deadline=None)
@given(
    rank=st.integers(2, 4),
    n_factors=st.integers(1, 3),
    v_len=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_length_of_the_shortest_conjugate_equals_the_given_chains(rank, n_factors, v_len, seed):
    # eta_length assembles the shortest conjugate's Nielsen chain;
    # given_chain_table assembles phi's own
    rng = random.Random(seed)
    phi = conjugated_composition(rank, n_factors if rank < 4 else min(n_factors, 2), v_len, rng)
    for mu in (
        uniform_measure(rank),
        markov_measure(doubly_stochastic_markov(rank, rng)),
        rational_measure(rank, primitive_cyclic_word(rank, rng)),
    ):
        rep = eta_length(phi, mu)
        assert (rep.value, rep.breakdown) == _length_of_the_given_chain(phi, mu), mu.kind
        assert rep.value == sum(rep.breakdown.values()), mu.kind


@settings(max_examples=20, deadline=None)
@given(n_factors=st.integers(1, 3), v_len=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_rank3_length_of_the_shortest_conjugate_against_cancellation(n_factors, v_len, seed):
    rng = random.Random(seed)
    phi = conjugated_composition(3, n_factors, v_len, rng)
    for mu in (uniform_measure(3), markov_measure(doubly_stochastic_markov(3, rng))):
        assert eta_length(phi, mu).value == length_by_cancellation(phi, mu), mu.kind


def test_length_at_least_one():
    rng = random.Random(11)
    for _ in range(10):
        phi = random_composition(2, rng.randrange(1, 4), rng)
        assert length_exact(phi).value >= 1


def test_mc_identity_close_to_one():
    est = length_mc(identity(2), 2000, 100, seed=3)
    assert 0.99 <= est.mean <= 1.0
    assert est.stderr >= 0


def test_mc_matches_exact(nielsen_map):
    est = length_mc(nielsen_map, 2000, 200, seed=41)
    exact = float(length_exact(nielsen_map).value)
    assert abs(est.mean - exact) <= 3 * est.stderr + 4 / est.n


def test_mc_deterministic(nielsen_map):
    a = length_mc(nielsen_map, 200, 10, seed=9)
    b = length_mc(nielsen_map, 200, 10, seed=9)
    assert a == b
    c = length_mc(nielsen_map, 200, 10, seed=10)
    assert a != c


def test_mc_preconditions(nielsen_map):
    with pytest.raises(InputError):
        length_mc(nielsen_map, 5, 10, seed=0)
    with pytest.raises(InputError):
        length_mc(nielsen_map, 100, 1, seed=0)


@pytest.mark.parametrize(
    "rank, expression, value",
    [
        (3, "W2[a; c:CONJ]", F(19, 15)),
        (4, "inner[a]", F(1)),
    ],
)
def test_rank3_and_rank4_expressions(rank, expression, value):
    assert length_exact(parse_generator_expression(rank, expression)).value == value


def test_repeated_calls_share_no_cache():
    # Without a caller's cache each call starts empty: the same node count
    # every time, and a budget that is too small fails every time.
    phi = parse_generator_expression(3, "W2[a; c:CONJ]")
    assert [length_exact(phi).nodes for _ in range(2)] == [6, 6]
    for _ in range(2):
        with pytest.raises(ResourceLimitError):
            length_exact(phi, budget=5)


def test_raw_nielsen_cube():
    cube = make_automorphism(
        2, parse_map_text(2, "a->a,b->baaa"), parse_map_text(2, "a->a,b->bAAA")
    )
    assert length_exact(cube).value == F(95, 54)


def test_eight_rounds_of_two_transvections():
    # feasible (9 954 nodes, L near 1088) but its tries are thousands of
    # levels deep, which the walkers cross without recursing.  L is the
    # row sum of the depth-2 table, and the image of a rational word's
    # current counts the cyclic word phi(w), an oracle that builds no
    # partition.
    phi = parse_generator_expression(2, " * ".join(["W2[a; b:RIGHT] * W2[b; a:RIGHT]"] * 8))
    budget, cache = Budget(), PartitionCache()
    report = length_exact(phi, budget=budget, cache=cache)
    assert report.nodes == budget.spent == 9954
    assert abs(float(report.value) - 1088.0487) < 1e-4
    table = pushforward_table(phi, uniform_measure(2), 2, cache=cache)
    assert sum(table[(x,)] for x in alphabet(2)) == report.value
    for text, image in (("ab", 4181), ("aab", 6765), ("aB", 987)):
        w = parse_word(text)
        assert cyclic_length(phi.apply(w)) == image
        assert eta_length(phi, rational_measure(2, w), cache=cache).value == image


def test_raw_rank3_map_against_monte_carlo():
    # No single transvection shortens this image tuple, so factoring it
    # needs the search over equal-length tuples.
    phi = make_automorphism(
        3,
        parse_map_text(3, "a->aB,b->abc,c->ac"),
        parse_map_text(3, "a->bCa,b->AbCa,c->AcBc"),
    )
    exact = length_exact(phi).value
    assert exact == F(133, 75)
    est = length_mc(phi, 2000, 400, seed=1)
    assert abs(est.mean - float(exact)) <= 3 * est.stderr + 4 / est.n


@pytest.mark.parametrize("rank", [3, 4])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_random_compositions_against_monte_carlo(rank, seed):
    # statistical, so fixed seeds: the exact length of a random product of
    # three generators against the mean cyclic image length of uniform words
    phi = random_composition(rank, 3, random.Random(seed))
    exact = length_exact(phi).value
    est = length_mc(phi, 2000, 200, seed=seed)
    assert abs(est.mean - float(exact)) <= 3 * est.stderr + 4 / est.n, exact


# -- closed forms ----------------------------------------------------------
#
# Two families whose lengths have closed forms, derived by hand from the
# cancellation formula that `oracles.length_by_cancellation` states:
# L = sum_x mu(x) (|phi(x)| - 2 E[c | x]), c the cancellation between
# phi(x) and the reduced image of the rest xi' of a uniform ray x xi'.
# Given x, the letters of xi' are uniform among the 2k - 1 letters that do
# not cancel the one before.


@pytest.mark.parametrize(
    "rank, value",
    zip(range(2, 11), [F(7, 6), F(6, 5), F(33, 28), F(52, 45), F(25, 22),
                       F(102, 91), F(133, 120), F(56, 51), F(207, 190)]),
)
def test_transvection_closed_form(rank, value):
    """The transvection b -> ba at rank k has L = 1 + (2k - 3)/(k(2k - 1)).

    Write xi' = a^e beta ..., beta its first letter other than a^+-1.  No
    letter other than a^+-1 is ever cancelled in a reduced image, so the
    image of xi' starts with the reduced word a^e phi(beta): with A when
    e < 0, or when beta = B and e = 0 (phi(B) = AB), never with AB, and
    with a or beta otherwise (B when beta = B and e = 1).  Then
    - x = a: c = 1 exactly when xi' starts with B, probability 1/(2k - 1);
    - x = b: phi(b) = ba loses its a exactly when xi' starts with A,
      probability 1/(2k - 1), and never its b;
    - x = A, B and the other letters cancel nothing: the image of xi'
      would have to start with a, b or x^-1, which needs xi' to start
      with the letter it may not start with.
    So L = (1/2k) ((2k + 2) - 4/(2k - 1)) = 1 + (2k - 3)/(k(2k - 1)).
    """
    phi = parse_generator_expression(rank, "W2[a; b:RIGHT]")
    assert phi.fwd[1] == (2, 1)
    assert value == 1 + F(2 * rank - 3, rank * (2 * rank - 1))
    assert length_exact(phi).value == value
    if rank <= 6:
        assert length_by_cancellation(phi, uniform_measure(rank)) == value


@pytest.mark.parametrize("n", [*range(1, 31), 60, 120, 240, 500])
def test_nielsen_power_closed_form(n):
    """The rank-2 power b -> ba^n has L = n/3 + 3/4 + 3^-n / 4.

    Write xi' = a^e beta ..., beta = b^+-1 its first letter other than
    a^+-1.  The letters b^+-1 are never cancelled in a reduced image, so
    the image of xi' starts with a^e b when beta = b and with a^(e-n) B
    when beta = B.  Given x, P(e >= t) = 3^-t for t >= 1 unless x = A,
    and P(e <= -t) = 3^-t unless x = a; given e != 0, beta is b or B
    with probability 1/2 each, and given e = 0 it is the first letter of
    xi'.  Then
    - x = a: c = 1 exactly when the image starts with A: beta = B and
      0 <= e < n, probability (1 - 3^-n)/2;
    - x = b: phi(b) = ba^n loses n - e letters against A^(n-e) B
      (0 < e < n, beta = B), min(m, n) against A^m b (e = -m < 0,
      beta = b) and n against A^(m+n) B (e = -m < 0, beta = B), so
      E[c | b] = (1/6)(n - (3/2)(1 - 3^-n)) + (1/6)(3/2)(1 - 3^-n) + n/6
               = n/3;
    - x = A and x = B cancel nothing: the image of xi' starts with a
      only if e > 0, and with b only if xi' starts with b.
    So L = (1/4)(2n + 4 - (1 - 3^-n) - 2n/3) = n/3 + 3/4 + 3^-n / 4.
    The chain spends n^2 + 2 nodes, a gate that a cheaper assembly of
    powers may only lower.
    """
    phi = make_automorphism(2, [(1,), (2,) + (1,) * n], [(1,), (2,) + (-1,) * n])
    report = length_exact(phi)
    assert report.value == F(n, 3) + F(3, 4) + F(1, 4 * 3**n)
    assert report.nodes <= n * n + 2
    if n <= 6:
        assert length_by_cancellation(phi, uniform_measure(2)) == report.value


def test_closed_forms_in_the_spectrum():
    # b -> ba^n for n = 1..4 is a product of n generators, and the least
    # value above 1 among single generators is the transvection's
    values = set(spectrum(2, 4).values())
    assert {F(n, 3) + F(3, 4) + F(1, 4 * 3**n) for n in range(1, 5)} <= values
    assert {F(7, 6), F(13, 9), F(95, 54), F(169, 81)} <= values
    for rank in (2, 3, 4):
        least = min(v for v in spectrum(rank, 1).values() if v > 1)
        assert least == 1 + F(2 * rank - 3, rank * (2 * rank - 1))
