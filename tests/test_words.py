import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from stretchfactor import (
    InputError,
    NotReducedError,
    Word,
    comparable,
    concat,
    cyclic_reduce,
    free_reduce,
    inverse,
    lcp,
    occurrences_in_cyclic,
    parse_word,
    format_word,
    random_reduced,
)
from stretchfactor.errors import NotCyclicallyReducedError
from stretchfactor.words import (
    all_words,
    alphabet,
    count_reduced_words,
    is_proper_power,
    letter_key,
    validate_rank,
    word_key,
)

letters = st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0)
raw_words = st.lists(letters, max_size=30)


def w(text):
    return parse_word(text)


def test_parse_and_format_round_trip():
    for text in ["", "a", "abAB", "zZ"[:0], "aBc"]:
        assert format_word(parse_word(text)) == text


def test_parser_rejects_unreduced():
    with pytest.raises(NotReducedError):
        parse_word("abB")
    assert parse_word("abB", reduce=True) == w("a")


def test_alphabet_is_built_once_per_rank_and_rejects_every_bad_rank():
    assert alphabet(3) == (1, -1, 2, -2, 3, -3)
    assert alphabet(3) is alphabet(3)
    for rank in (1, 27, 1, 0, 27):
        with pytest.raises(InputError):
            alphabet(rank)


def test_validate_rank_accepts_only_letters_of_the_rank():
    validate_rank((1, -1, 2, -2), 2)
    for bad in [(0,), (3,), (-3,), (1, 0, 2)]:
        with pytest.raises(InputError, match="outside the rank-2 alphabet"):
            validate_rank(bad, 2)


def test_free_reduce_examples():
    assert free_reduce([1, 2, -2]) == w("a")
    assert free_reduce([1, -1]) == w("")
    assert free_reduce([1, 2, -1, -2]) == w("abAB")


@given(raw_words)
def test_free_reduce_idempotent(seq):
    once = free_reduce(seq)
    assert free_reduce(once) == once


@given(raw_words, st.randoms(use_true_random=False))
def test_free_reduce_confluent(seq, rng):
    # Cancelling adjacent inverse pairs in any order gives the same word.
    items = list(seq)
    while True:
        spots = [i for i in range(len(items) - 1) if items[i] == -items[i + 1]]
        if not spots:
            break
        i = rng.choice(spots)
        del items[i : i + 2]
    assert Word(items) == free_reduce(seq)


def test_concat_examples():
    assert concat(w("ab"), w("BA")) == w("")
    assert concat(w("ab"), w("a")) == w("aba")
    assert concat(w("ab"), w("b")) == w("abb")


@given(raw_words, raw_words)
def test_concat_parity_and_bounds(s1, s2):
    u, v = free_reduce(s1), free_reduce(s2)
    p = concat(u, v)
    assert len(p) >= abs(len(u) - len(v))
    assert (len(p) - len(u) - len(v)) % 2 == 0


@given(raw_words)
def test_inverse_involution_and_cancellation(seq):
    u = free_reduce(seq)
    assert inverse(inverse(u)) == u
    assert concat(u, inverse(u)) == Word()


def test_inverse_examples():
    assert inverse(w("ab")) == w("BA")
    assert inverse(w("")) == w("")
    assert inverse(w("aBa")) == w("AbA")


def test_cyclic_reduce_examples():
    assert cyclic_reduce(w("aBA")) == (w("B"), w("a"))
    assert cyclic_reduce(w("ab")) == (w("ab"), w(""))
    assert cyclic_reduce(w("abA")) == (w("b"), w("a"))


@given(raw_words)
def test_cyclic_reduce_round_trip(seq):
    word = free_reduce(seq)
    core, conj = cyclic_reduce(word)
    assert concat(conj, concat(core, inverse(conj))) == word
    assert len(core) <= len(word)
    assert cyclic_reduce(core)[0] == core


def test_lcp_comparable_examples():
    assert lcp(w("ab"), w("aB")) == w("a") and not comparable(w("ab"), w("aB"))
    assert lcp(w("a"), w("ab")) == w("a") and comparable(w("a"), w("ab"))
    assert lcp(w("b"), w("Ba")) == w("") and not comparable(w("b"), w("Ba"))


def test_random_reduced_trivial():
    rng = random.Random(0)
    assert random_reduced(0, 2, rng) == w("")
    for _ in range(100):
        assert len(random_reduced(5, 2, rng)) == 5


def test_random_reduced_uniform_length1():
    # chi-square over 10^4 draws against 4 equiprobable letters (df = 3)
    rng = random.Random(12345)
    n = 10_000
    counts = Counter(random_reduced(1, 2, rng)[0] for _ in range(n))
    assert set(counts) == set(alphabet(2))
    expected = n / 4
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 25  # 0.1% critical value for df=3 is 16.27

def test_random_reduced_uniform_length2():
    rng = random.Random(999)
    n = 12_000
    support = list(all_words(2, 2))
    assert len(support) == count_reduced_words(2, 2) == 12
    counts = Counter(random_reduced(2, 2, rng) for _ in range(n))
    assert set(counts) <= set(support)
    expected = n / 12
    chi2 = sum((counts[s] - expected) ** 2 / expected for s in support)
    assert chi2 < 40  # 0.1% critical value for df=11 is 31.26


def test_occurrences_examples():
    assert occurrences_in_cyclic(w("a"), w("aab")) == 2
    assert occurrences_in_cyclic(w("ba"), w("aab")) == 1
    assert occurrences_in_cyclic(w("bb"), w("aab")) == 0
    with pytest.raises(NotCyclicallyReducedError):
        occurrences_in_cyclic(w("a"), w("abA"))


@given(raw_words.filter(lambda s: bool(s)))
def test_occurrence_letter_sum(seq):
    word = cyclic_reduce(free_reduce(seq))[0]
    if not word:
        return
    total = sum(occurrences_in_cyclic(Word((c,)), word) for c in alphabet(3))
    assert total == len(word)


def test_proper_power_detection():
    assert is_proper_power(w("abab"))
    assert not is_proper_power(w("aab"))
    assert is_proper_power(w("aa"))
    assert not is_proper_power(w("a"))


def test_canonical_letter_order():
    ordered = sorted([1, -1, 2, -2], key=letter_key)
    assert [format_word((c,)) for c in ordered] == ["a", "A", "b", "B"]


def test_word_key_orders_words_as_letter_key_pairs_do():
    # word_key reads each letter as one integer; shortlex over letter_key
    # pairs is the order it stands for
    words = [u for n in range(5) for u in all_words(n, 3)]
    random.Random(7).shuffle(words)
    assert len({word_key(u) for u in words}) == len(words)
    by_pairs = sorted(words, key=lambda u: (len(u), tuple(letter_key(x) for x in u)))
    assert sorted(words, key=word_key) == by_pairs
    # every one of the 52 letters has a place
    big = alphabet(26)
    assert sorted(big[::-1], key=lambda x: word_key((x,))) == list(big)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("n", range(6))
def test_all_words_lists_each_reduced_word_once_in_canonical_order(n, k):
    # the words are built without Word's check, so each must pass it
    items = list(all_words(n, k))
    assert len(set(items)) == len(items) == count_reduced_words(n, k)
    for item in items:
        assert type(item) is Word and Word(item) == item
    assert items == sorted(items, key=word_key)
