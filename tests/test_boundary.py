import random
from fractions import Fraction as F
from types import CodeType, FunctionType

import pytest
from hypothesis import given, settings, strategies as st

from stretchfactor import (
    InputError,
    PartitionCache,
    ResourceLimitError,
    Word,
    comparable,
    compose,
    depth1_profile,
    descent_step,
    enumerate_signed_permutations,
    factorize,
    identity,
    inner,
    length_exact,
    make_automorphism,
    parse_generator_expression,
    parse_word,
    partition_mass,
    preimage_partition,
    pushforward_current_value,
    pushforward_table,
    recenter,
    uniform_measure,
)
from stretchfactor.automorphisms import FIX, LEFT, RIGHT, WhiteheadSecondKind
from stretchfactor.boundary import (
    _LEAF,
    Budget,
    CylinderPartition,
    _cross_mass,
    _depth1_family,
    _family_from_factors,
    _graft,
    _merge,
    _one_state_cross_mass,
    _one_state_pair_mass,
    _pair_mass,
    _subtract,
    _table,
)
from stretchfactor.measures import (
    FrequencyMeasure,
    markov_measure,
    rational_measure,
    uniform_as_markov,
)
from stretchfactor.selftest import _random_prefix_free
from stretchfactor.words import (
    all_words,
    alphabet,
    cyclic_reduce,
    extension_letters,
    format_word,
    inverse,
    occurrences_in_cyclic,
    random_reduced,
)

from conftest import (
    assert_class_rep_by_steps,
    conjugated_composition,
    doubly_stochastic_markov,
    given_chain_table,
    is_atom,
    nielsen,
    primitive_cyclic_word,
    random_composition,
    reversible_markov,
    sample_measures,
)
from oracles import (
    brute_depth1,
    brute_preimage_mass,
    canonical_words_by_sort,
    covers_boundary,
    family_by_leaf_preimages,
    is_prefix,
    keyed_cross_mass,
    pair_mass_by_pairs,
    subtract_by_leaves,
    sweep_depth1,
    translate_cylinder,
)


def w(text):
    return parse_word(text)


def words(*texts):
    return tuple(w(t) for t in texts)


MAPS = {
    "identity": identity(2),
    "nielsen": nielsen(),
    "nielsen_inv": nielsen().inverse(),
    "swap": make_automorphism(2, {1: w("b"), 2: w("a")}, {1: w("b"), 2: w("a")}),
    "inner_a": inner(2, w("a")),
    "inner_ab": inner(2, w("ab")),
    "w2_product": parse_generator_expression(2, "W2[b; a:LEFT] * W2[a; b:CONJ]"),
}


def test_canonical_words_coalesces_and_sorts():
    got = CylinderPartition.from_words(2, words("aa", "ab", "aB", "b"))
    assert got.words == words("a", "b")
    with pytest.raises(InputError):
        CylinderPartition.from_words(2, words("a", "ab"))
    with pytest.raises(InputError):
        CylinderPartition.from_words(2, words("a", "b", "A", "B"))
    # Cyl(b) is filled below the root, and the family is the whole boundary
    with pytest.raises(InputError, match="full boundary"):
        CylinderPartition.from_words(2, words("A", "a", "B", "ba", "bb", "bA"))
    for rank in (2, 3):
        empty = CylinderPartition.from_words(rank, [])
        assert (empty.stem, empty.trie, len(empty), empty.words) == ((), {}, 0, ())


def test_canonical_trie_coalesces_a_filled_stem():
    # every label starts with ab and the three fill Cyl(ab): one label, ab
    filled = CylinderPartition.from_words(2, words("aba", "abb", "abA"))
    assert filled == CylinderPartition.from_words(2, words("ab"))
    assert filled.words == words("ab") and filled.stem == (1,)
    shuffled = CylinderPartition.from_words(2, words("bA", "aB", "ba", "bb"))
    assert shuffled == CylinderPartition.from_words(2, words("aB", "b"))


def _assert_matches_sorted_form(rank, family):
    part = CylinderPartition.from_words(rank, family)
    expected = canonical_words_by_sort(rank, family)
    assert part.words == expected
    assert len(part) == len(expected)


@settings(max_examples=40, deadline=None)
@given(rank=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_canonical_trie_matches_sorted_form(rank, seed):
    rng = random.Random(seed)
    family = _random_prefix_free(rank, rng)
    _assert_matches_sorted_form(rank, family)
    f = random_reduced(rng.randint(1, 3), rank, rng)
    pieces = [p for x in family for p in translate_cylinder(f, x, rank)]
    _assert_matches_sorted_form(rank, pieces)
    # an extension or a proper prefix of a member overlaps it, and is named
    member = rng.choice(family)
    if len(member) > 1 and rng.random() < 0.5:
        extra = Word(member[:-1])
    else:
        extra = Word(member + (rng.choice(extension_letters(member, rank)),))
    for canonical in (CylinderPartition.from_words, canonical_words_by_sort):
        with pytest.raises(InputError, match=f"'{format_word(extra)}'"):
            canonical(rank, family + [extra])
    # from_words names a member that extra overlaps too
    with pytest.raises(InputError) as error:
        CylinderPartition.from_words(rank, family + [extra])
    named = [x for x in family if f"'{format_word(x)}'" in str(error.value)]
    assert len(named) == 1 and comparable(named[0], extra)


def _recount(node):
    return sum(_recount(v) if isinstance(v, dict) else 1 for v in node.values())


def _assert_same_partition(got, expected):
    assert got.stem == expected.stem and got.trie == expected.trie
    assert got.words == expected.words
    assert len(got) == len(expected) == _recount(got.trie)
    assert got.height == max(map(len, expected.words))


def _built_nodes(part, inputs):
    """Dicts of part's trie that are not, by identity, dicts of an input's trie."""
    old = set()
    stack = [p.trie for p in inputs]
    while stack:
        node = stack.pop()
        old.add(id(node))
        stack.extend(v for v in node.values() if type(v) is dict)
    stack, built = [part.trie], 0
    while stack:
        node = stack.pop()
        built += id(node) not in old
        stack.extend(v for v in node.values() if type(v) is dict)
    return built


@settings(max_examples=150, deadline=None)
@given(rank=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_graft_matches_leaf_by_leaf_translation(rank, seed):
    # translate_cylinder piece by piece, then canonicalize, is the oracle
    rng = random.Random(seed)
    part = CylinderPartition.from_words(rank, _random_prefix_free(rank, rng))
    if rng.random() < 0.4:
        # g^-1 starts with a label, which g cancels whole and splits
        label = rng.choice(part.leaves)
        tail = random_reduced(rng.randint(0, 3), rank, rng)
        while tail and tail[0] == -label[-1]:
            tail = random_reduced(len(tail), rank, rng)
        g = inverse(label + tail)
    else:
        g = random_reduced(rng.randint(1, 5), rank, rng)
    pieces = [p for w in part.leaves for p in translate_cylinder(g, w, rank)]
    _assert_same_partition(_graft(part, g), CylinderPartition.from_words(rank, pieces))


@settings(max_examples=80, deadline=None)
@given(rank=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_merge_of_a_family_cut_in_two(rank, seed):
    rng = random.Random(seed)
    # a translated family, so that the halves have stems of their own
    f = random_reduced(rng.randint(0, 3), rank, rng)
    pieces = [p for x in _random_prefix_free(rank, rng) for p in translate_cylinder(f, x, rank)]
    family = list(CylinderPartition.from_words(rank, pieces).leaves)
    rng.shuffle(family)
    cut = rng.randint(0, len(family))
    halves = [CylinderPartition.from_words(rank, ws) for ws in (family[:cut], family[cut:])]
    whole = _merge(*halves)
    _assert_same_partition(whole, CylinderPartition.from_words(rank, family))
    # a proper prefix or an extension of a member overlaps it
    member = rng.choice(family)
    if len(member) > 1 and rng.random() < 0.5:
        extra = Word(member[:-1])
    else:
        extra = Word(member + (rng.choice(extension_letters(member, rank)),))
    with pytest.raises(AssertionError, match="overlapping"):
        _merge(whole, CylinderPartition.from_words(rank, [extra]))


def test_merge_coalesces_and_shares_subtrees():
    deep = CylinderPartition.from_words(2, words("bab", "baB"))
    left = CylinderPartition.from_words(2, words("ab", "aB"))
    merged = _merge(_merge(left, CylinderPartition.from_words(2, words("aa"))), deep)
    assert merged.words == words("a", "bab", "baB") and len(merged) == 3
    # a subtree only one input reaches is the input's own
    assert merged.trie[2][1] is deep.trie
    assert _merge(left, CylinderPartition.from_words(2, ())) is left
    # each stem is spelled below the common prefix, one dict per letter;
    # the union keeps those the walk does not enter
    for a, b, spent in [
        (("aba", "abb"), ("aBa", "aBB"), 1),
        (("abab", "abaB"), ("aBa", "aBB"), 2),
        # the second stem is walked twice, then hung
        (("aa", "abA", "abb"), ("ababa", "ababb"), 3),
    ]:
        parts = [CylinderPartition.from_words(2, words(*ws)) for ws in (a, b)]
        budget = Budget()
        union = _merge(*parts, budget)
        _assert_same_partition(union, CylinderPartition.from_words(2, words(*a, *b)))
        assert budget.spent == _built_nodes(union, parts) == spent


def _translated_family(rank, rng):
    """A random canonical family, translated so that it may have a stem."""
    f = random_reduced(rng.randint(0, 3), rank, rng)
    pieces = [p for x in _random_prefix_free(rank, rng) for p in translate_cylinder(f, x, rank)]
    return CylinderPartition.from_words(rank, pieces)


def _cells_inside(part, rng):
    """Disjoint cells inside part: whole labels, every label below a node of
    part's trie, or cells below a label, each way a third of the time."""
    rank, leaves = part.rank, list(part.leaves)
    mode = rng.randrange(3)
    if mode == 0:
        return rng.sample(leaves, rng.randint(1, len(leaves)))
    if mode == 1:
        label = rng.choice(leaves)
        node = label[: rng.randint(1, len(label))]
        return [x for x in leaves if is_prefix(node, x)]
    cells = []
    for label in rng.sample(leaves, rng.randint(1, min(3, len(leaves)))):
        # one extension of the label, or some of its children
        if rng.random() < 0.5:
            cell = label
            for _ in range(rng.randint(1, 3)):
                cell += (rng.choice(extension_letters(cell, rank)),)
            cells.append(cell)
        else:
            children = [label + (c,) for c in extension_letters(label, rank)]
            cells.extend(rng.sample(children, rng.randint(1, len(children) - 1)))
    return cells


@settings(max_examples=150, deadline=None)
@given(rank=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_subtract_matches_leaf_by_leaf_difference(rank, seed):
    rng = random.Random(seed)
    part = _translated_family(rank, rng)
    cells = _cells_inside(part, rng)
    sub = CylinderPartition.from_words(rank, cells)
    got = _subtract(part, sub)
    expected = CylinderPartition.from_words(rank, subtract_by_leaves(rank, part.leaves, cells))
    assert got.stem == expected.stem and got.trie == expected.trie
    assert got.words == expected.words and len(got) == len(expected) == _recount(got.trie)
    # cells outside part: a proper prefix of a label, or a disjoint cell
    label = rng.choice(part.leaves)
    outside = [Word(label[:-1])] if len(label) > 1 else []
    for _ in range(20):
        x = random_reduced(rng.randint(1, 4), rank, rng)
        if not any(is_prefix(x, y) or is_prefix(y, x) for y in part.leaves):
            outside.append(x)
            break
    for x in outside:
        with pytest.raises(AssertionError, match="outside"):
            _subtract(part, CylinderPartition.from_words(rank, [x]))
        with pytest.raises(AssertionError, match="outside"):
            subtract_by_leaves(rank, part.leaves, [x])


def test_subtract_shares_the_subtrees_off_its_paths():
    part = CylinderPartition.from_words(2, words("aab", "aaB", "ab", "bA", "bb"))
    # sub's stem ab runs past part's, and the label ab above sub's cells
    # keeps their complement in its cylinder
    cut = _subtract(part, CylinderPartition.from_words(2, words("abab", "abA")))
    assert set(cut.words) == set(words("aab", "aaB", "abaa", "abaB", "abb", "bA", "bb"))
    # a whole subtree goes, and the subtrees off sub's paths are part's own
    cut = _subtract(part, CylinderPartition.from_words(2, words("aab", "aaB")))
    assert set(cut.words) == set(words("ab", "bA", "bb")) and cut.trie[2] is part.trie[2]
    # a single-child top left behind moves into the stem
    cut = _subtract(part, CylinderPartition.from_words(2, words("bA", "bb", "ab")))
    assert set(cut.words) == set(words("aab", "aaB")) and cut.stem == (1, 1)
    assert len(_subtract(part, part)) == 0
    assert _subtract(part, CylinderPartition.from_words(2, ())) is part


@settings(max_examples=150, deadline=None)
@given(rank=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_graft_and_merge_spend_the_nodes_they_build(rank, seed):
    rng = random.Random(seed)
    part = CylinderPartition.from_words(rank, _random_prefix_free(rank, rng))
    if rng.random() < 0.4:
        # g cancels a label whole
        label = rng.choice(part.leaves)
        g = inverse(label + (rng.choice(extension_letters(label, rank)),))
    else:
        g = random_reduced(rng.randint(1, 5), rank, rng)
    budget = Budget()
    grafted = _graft(part, g, budget)
    assert budget.spent == _built_nodes(grafted, [part])
    # a translated family cut in two, merged back
    family = list(grafted.leaves)
    rng.shuffle(family)
    cut = rng.randint(0, len(family))
    pieces = [CylinderPartition.from_words(rank, ws) for ws in (family[:cut], family[cut:])]
    budget = Budget()
    merged = _merge(*pieces, budget)
    _assert_same_partition(merged, grafted)
    assert budget.spent == _built_nodes(merged, pieces)
    # a union that coalesces to one label builds the dict that holds it
    label = rng.choice(family)
    children = [label + (c,) for c in extension_letters(label, rank)]
    half = len(children) // 2
    budget = Budget()
    whole = _merge(
        CylinderPartition.from_words(rank, children[:half]),
        CylinderPartition.from_words(rank, children[half:]),
        budget,
    )
    assert whole.words == (label,) and budget.spent == 1
    # a difference builds only the dicts on the removed cells' paths, and
    # an empty one holds none
    budget = Budget()
    cut = _subtract(grafted, CylinderPartition.from_words(rank, _cells_inside(grafted, rng)), budget)
    assert budget.spent == (_built_nodes(cut, [grafted]) if cut.trie else 0)


def test_graft_shares_the_subtrees_off_the_path():
    part = CylinderPartition.from_words(2, words("aab", "aaB", "bA", "bb"))
    grafted = _graft(part, w("B"))
    # g^-1 = b: the subtree of a lands under B, bA's and bb's labels lose b
    assert grafted.words == words("A", "b", "Baab", "BaaB")
    assert grafted.trie[-2][1] is part.trie[1]


def test_covers_boundary():
    assert covers_boundary(2, words("a", "b", "A", "B"))
    assert covers_boundary(2, words("aa", "ab", "aB", "b", "A", "B"))
    assert not covers_boundary(2, words("a", "b", "A"))


def test_translate_cylinder_splits():
    # a * Cyl(A) needs splitting: the result is everything not starting a.
    got = CylinderPartition.from_words(2, translate_cylinder(w("a"), w("A"), 2))
    assert got.words == words("A", "b", "B")  # canonical order is a < A < b < B
    assert translate_cylinder(w("bA"), w("aa"), 2) == [w("ba")]
    # translating the full boundary by any word returns the full boundary
    full = [Word((c,)) for c in alphabet(2)]
    assert covers_boundary(2, [p for c in full for p in translate_cylinder(w("ab"), c, 2)])


def test_nielsen_partitions_match_hand_computation(nielsen_map):
    assert preimage_partition(nielsen_map, w("a")).words == words("aa", "ab")
    assert preimage_partition(nielsen_map, w("b")).words == words("b",)
    assert preimage_partition(nielsen_map, w("A")).words == words("A", "B")
    assert preimage_partition(nielsen_map, w("B")).words == words("aB",)
    masses = [
        partition_mass(uniform_measure(2), preimage_partition(nielsen_map, Word((c,))))
        for c in alphabet(2)
    ]
    assert sum(masses) == 1
    assert preimage_partition(identity(2), w("ab")).words == words("ab",)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_depth1_families_against_brute_force(name):
    auto = MAPS[name]
    fam = {
        c: preimage_partition(auto, Word((c,))).words for c in alphabet(2)
    }
    brute = brute_depth1(auto)
    assert brute is not None, "oracle undecided; deepen the enumeration"
    for c in alphabet(2):
        assert fam[c] == brute.get(c, ()), format_word((c,))


@pytest.mark.parametrize("name", sorted(MAPS))
def test_partition_masses_sum_to_one(name):
    auto = MAPS[name]
    profile = depth1_profile(auto)
    assert sum(profile.values()) == 1


def test_depth1_profile_examples(nielsen_map):
    assert depth1_profile(identity(2)) == {c: F(1, 4) for c in alphabet(2)}
    assert depth1_profile(nielsen_map) == {1: F(1, 6), -1: F(1, 2), 2: F(1, 4), -2: F(1, 12)}
    assert depth1_profile(inner(2, w("a")))[1] == F(3, 4)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_refinement_coherence(name):
    # preimage of Cyl(u) = coalesced union of the children's preimages
    auto = MAPS[name]
    for n in (1, 2):
        for u in all_words(n, 2):
            whole = preimage_partition(auto, u)
            pieces = [
                piece
                for c in extension_letters(u, 2)
                for piece in preimage_partition(auto, Word(tuple(u) + (c,))).words
            ]
            assert CylinderPartition.from_words(2, pieces).words == whole.words


@pytest.mark.parametrize("name", sorted(MAPS))
def test_partition_soundness_spot_check(name):
    # images of long random rays inside each piece start with the target
    auto = MAPS[name]
    rng = random.Random(hash(name) & 0xFFFF)
    for u in [w("a"), w("B"), w("ab")]:
        part = preimage_partition(auto, u)
        for piece in part.words:
            for _ in range(20):
                tail = piece
                while len(tail) < len(piece) + 12:
                    choices = extension_letters(tail, 2)
                    tail = Word(tuple(tail) + (rng.choice(choices),))
                img = auto.apply(tail)
                assert img[: len(u)] == tuple(u), (piece, tail)


def test_composite_assembly_matches_direct_atom():
    # The same maps computed as raw atoms and as 2-factor compositions.
    cases = [
        (
            make_automorphism(2, {1: w("b"), 2: w("ab")}, {1: w("bA"), 2: w("a")}),
            compose(MAPS["swap"], nielsen()),
        ),
        (
            make_automorphism(2, {1: w("a"), 2: w("baa")}, {1: w("a"), 2: w("bAA")}),
            compose(nielsen(), nielsen()),
        ),
    ]
    for raw, composed in cases:
        assert raw == composed
        for c in alphabet(2):
            direct = preimage_partition(raw, Word((c,)), cache=PartitionCache())
            built = preimage_partition(composed, Word((c,)), cache=PartitionCache())
            assert direct.words == built.words


def test_preimage_masses_against_brute_force():
    for auto in [MAPS["nielsen"], MAPS["inner_ab"], MAPS["w2_product"]]:
        for u in [w("a"), w("ba"), w("aB")]:
            expected = brute_preimage_mass(auto, u)
            part = preimage_partition(auto, u)
            assert partition_mass(uniform_measure(2), part) == expected


def test_pushforward_values(nielsen_map):
    mu = uniform_measure(2)
    assert pushforward_current_value(identity(2), mu, w("a")) == F(1, 4)
    assert pushforward_current_value(nielsen_map, mu, w("b")) == F(1, 4)
    assert pushforward_current_value(nielsen_map, mu, w("a")) == F(1, 3)


def test_pushforward_value_of_a_deep_cylinder():
    # the difference of a's family and Cyl((ab)^300) is a 600-letter spine
    # of cells, whose height is found without recursing level by level
    u = Word((1, 2) * 300)
    assert pushforward_current_value(identity(2), uniform_measure(2), u) == uniform_measure(2).eval(u)


def test_pushforward_value_of_a_1000_letter_cylinder():
    # a's family less Cyl((ab)^500) is a 1 000-letter spine, which the
    # difference, the height and the walk cross without recursing
    u = Word((1, 2) * 500)
    assert pushforward_current_value(identity(2), uniform_measure(2), u) == uniform_measure(2).eval(u)


def test_pushforward_table_consistency(nielsen_map):
    mu = uniform_measure(2)
    table = pushforward_table(nielsen_map, mu, 3)
    # row sums at depth 1 give the exact length
    assert sum(table[Word((c,))] for c in alphabet(2)) == F(7, 6)
    # additivity and shift invariance hold exactly inside the table
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
    ident_table = pushforward_table(identity(2), mu, 2)
    for v, value in ident_table.items():
        assert value == mu.eval(v)


def test_pushforward_table_builds_no_union(monkeypatch):
    from stretchfactor import boundary

    auto = parse_generator_expression(3, "W2[a; c:CONJ] * W2[b; a:RIGHT] * inner[ab]")
    mu = uniform_measure(3)
    cache = PartitionCache()
    # the families of the map, of its shortest conjugate (which the table
    # reads) and of their suffixes are merged first
    depth1_profile(auto, cache=cache)
    depth1_profile(boundary._class_rep(auto), cache=cache)
    merge = boundary._merge
    built = []

    def counting(*args):
        built.append(args)
        return merge(*args)

    # with the families built, a preimage grafts one family and a pair
    # sum walks the preimages one level up side by side: nothing merges
    monkeypatch.setattr(boundary, "_merge", counting)
    targets = [v for n in (1, 2, 3) for v in all_words(n, 3)]
    for v in targets:
        preimage_partition(auto, v, cache=cache)
    cross_mass, walks = boundary._cross_mass, []

    def counted(*args, **kwargs):
        walks.append(len(args[1]))
        return cross_mass(*args, **kwargs)

    monkeypatch.setattr(boundary, "_cross_mass", counted)
    table = pushforward_table(auto, mu, 3, cache=cache)
    assert len(table) == len(targets) == 186
    assert built == []
    # one walk of the 30 depth-2 preimages, shorter cylinders by additivity
    assert walks == [30]
    assert list(table) == targets
    # and each cylinder's own walk gives the same value
    fresh = PartitionCache()
    assert table == {v: pushforward_current_value(auto, mu, v, cache=fresh) for v in targets}


def test_pushforward_table_builds_each_preimage_once():
    # The product is one transvection, so its families are one atom step.
    # A depth-2 table walks the families themselves, so a cold one spends
    # exactly their nodes; a depth-3 table then grafts each depth-2
    # preimage once from them.
    auto = parse_generator_expression(2, "W2[A; b:LEFT] * W2[a; b:LEFT] * W2[A; b:LEFT]")
    assert len(auto.factors) == 1
    cache = PartitionCache()
    families = Budget()
    fam = _depth1_family(auto, families, cache)
    assert families.spent == 3
    cold = Budget()
    pushforward_table(auto, uniform_measure(2), 2, budget=cold)
    assert cold.spent == families.spent
    warm = Budget()
    pushforward_table(auto, uniform_measure(2), 2, budget=warm, cache=cache)
    assert warm.spent == 0
    budget = Budget()
    pushforward_table(auto, uniform_measure(2), 3, budget=budget, cache=cache)
    grafts = sum(
        _built_nodes(preimage_partition(auto, v, cache=cache), [fam[v[-1]]])
        for v in all_words(2, 2)
    )
    assert budget.spent == grafts == 8


def test_preimages_are_built_once_after_the_families():
    # The same map: a cold preimage of ab builds the families, one atom
    # step, and then one graft; with the families cached, a preimage or a
    # recentering spends only what it grafts.
    auto = parse_generator_expression(2, "W2[A; b:LEFT] * W2[a; b:LEFT] * W2[A; b:LEFT]")
    budget = Budget()
    preimage_partition(auto, w("ab"), budget=budget)
    assert budget.spent == 4
    calls = {
        "preimage": lambda b, c: preimage_partition(auto, w("ab"), budget=b, cache=c),
        "recenter": lambda b, c: recenter(auto, budget=b, cache=c),
    }
    for name, call in calls.items():
        cold = Budget()
        answer = call(cold, PartitionCache())
        warm, cache = Budget(), PartitionCache()
        depth1_profile(auto, budget=warm, cache=cache)
        assert call(warm, cache) == answer, name
        assert cold.spent == warm.spent, name


@settings(max_examples=25, deadline=None)
@given(
    rank=st.integers(2, 4),
    depth=st.integers(1, 3),
    n_factors=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_walk_table_matches_each_cylinders_value(rank, depth, n_factors, seed):
    # the grouped walk of the deepest preimages, summed up to shorter
    # cylinders, against one pair-sum walk per cylinder, for uniform,
    # Markov and rational measures alike
    rng = random.Random(seed)
    auto = random_composition(rank, n_factors if rank < 4 else min(n_factors, 2), rng)
    for mu in sample_measures(rank, rng):
        table = pushforward_table(auto, mu, depth, cache=PartitionCache())
        fresh = PartitionCache()
        assert list(table) == [v for n in range(1, depth + 1) for v in all_words(n, rank)]
        for v, value in table.items():
            assert value == pushforward_current_value(auto, mu, v, cache=fresh), (mu.label, v)


def test_pair_sum_fast_path_matches_generic(nielsen_map):
    # uniform-as-markov has the uniform values but another automaton for the
    # pair-sum walk: one state per letter instead of a single state
    mu_fast = uniform_measure(2)
    mu_slow = markov_measure(uniform_as_markov(2))
    for u in [w("a"), w("b"), w("Ba")]:
        fast = pushforward_current_value(nielsen_map, mu_fast, u)
        slow = pushforward_current_value(nielsen_map, mu_slow, u)
        assert fast == slow


def _expected(mu, around, part):
    """The oracle's pair mass of the cells outside `around` against `part`."""
    letters = [Word((x,)) for x in alphabet(mu.rank)]
    outside = subtract_by_leaves(mu.rank, letters, around.words)
    return pair_mass_by_pairs(mu, CylinderPartition.from_words(mu.rank, outside), part)


def _assert_tiling_masses(mu, parts):
    """_pair_mass of a tiling against the oracle at every part."""
    den, num = _pair_mass(mu, parts)
    assert list(num) == list(parts)
    for t, p in parts.items():
        assert F(num[t], den) == _expected(mu, p, p), (mu.label, t)


def _assert_pair_masses(auto, targets, measures):
    """The 2k families, which tile the boundary, and each target's
    pushforward value: the pairs from outside its first letter's family
    into its preimage."""
    rank, cache = auto.rank, PartitionCache()
    fam = {a: preimage_partition(auto, (a,), cache=cache) for a in alphabet(rank)}
    preimages = {u: preimage_partition(auto, u, cache=cache) for u in targets}
    for mu in measures:
        _assert_tiling_masses(mu, fam)
        for u, p_u in preimages.items():
            got = pushforward_current_value(auto, mu, u, cache=cache)
            assert got == _expected(mu, fam[u[0]], p_u), (mu.label, u)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_pair_mass_matches_pairwise_sum_on_depth1_families(rank):
    rng = random.Random(500 + rank)
    measures = sample_measures(rank, rng)
    letters = [Word((x,)) for x in alphabet(rank)]
    maps = [identity(rank), inner(rank, Word((1, 2)))]
    maps += [random_composition(rank, 3, rng) for _ in range(2)]
    for auto in maps:
        _assert_pair_masses(auto, letters, measures)


def test_pair_mass_matches_pairwise_sum_on_depth2_preimages():
    auto = parse_generator_expression(2, "W2[a; b:CONJ] * inner[ab] * W2[b; a:LEFT]")
    measures = sample_measures(2, random.Random(7))
    _assert_pair_masses(auto, list(all_words(2, 2)), measures)
    # the twelve depth-2 preimages as twelve colours, each a source and a target
    cache = PartitionCache()
    parts = {u: preimage_partition(auto, u, cache=cache) for u in all_words(2, 2)}
    for mu in measures:
        _assert_tiling_masses(mu, parts)


@settings(max_examples=25, deadline=None)
@given(
    rank=st.integers(2, 4),
    n_factors=st.integers(1, 4),
    target_len=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_mass_matches_pairwise_sum_property(rank, n_factors, target_len, seed):
    rng = random.Random(seed)
    auto = random_composition(rank, n_factors, rng)
    target = random_reduced(target_len, rank, rng)
    _assert_pair_masses(auto, [target], sample_measures(rank, rng))


@settings(max_examples=20, deadline=None)
@given(
    rank=st.integers(2, 4),
    n_factors=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_sum_identity(rank, n_factors, seed):
    # for a shift-invariant mu and a cell w of a partition of the
    # boundary, the pairs (w', w) over all the other cells sum to mu of
    # w's last letter; the 2k families of a map are such a partition
    rng = random.Random(seed)
    auto = random_composition(rank, n_factors if rank < 4 else min(n_factors, 2), rng)
    cache = PartitionCache()
    cells = [x for a in alphabet(rank) for x in preimage_partition(auto, (a,), cache=cache).words]
    for mu in sample_measures(rank, rng):
        for cell in rng.sample(cells, min(3, len(cells))):
            others = CylinderPartition.from_words(rank, [x for x in cells if x != cell])
            alone = CylinderPartition.from_words(rank, [cell])
            assert pair_mass_by_pairs(mu, others, alone) == mu.eval(cell[-1:]), (mu.label, cell)


def test_pair_mass_rejects_a_broken_tiling():
    _assert_rejects_broken_tilings(uniform_measure(2))


def test_generic_pair_mass_rejects_a_broken_tiling():
    # the uniform measure takes the one-state walk; uniform-as-Markov
    # holds the generic walk's tiling check to the same cases
    _assert_rejects_broken_tilings(markov_measure(uniform_as_markov(2)))


def _assert_rejects_broken_tilings(mu):
    # the twelve depth-2 preimages tile the boundary; a cell lost or
    # doubled breaks the tiling that the walk checks
    auto = parse_generator_expression(2, "W2[a; b:CONJ] * inner[ab] * W2[b; a:LEFT]")
    cache = PartitionCache()
    parts = {v: preimage_partition(auto, v, cache=cache) for v in all_words(2, 2)}
    _pair_mass(mu, parts)
    first, other = w("ab"), w("ba")
    label = parts[first].leaves[0]
    inside = CylinderPartition.from_words(2, [label + (extension_letters(label, 2)[0],)])
    # ba's preimage replaced by a cell inside one of ab's
    broken = dict(parts)
    broken[other] = inside
    assert partition_mass(mu, inside) != partition_mass(mu, parts[other])
    with pytest.raises(AssertionError):
        _pair_mass(mu, broken)
    with pytest.raises(AssertionError):
        _pair_mass(mu, {first: parts[first], other: inside})
    # that cell doubled as a part of its own, and ba's preimage lost
    with pytest.raises(AssertionError):
        _pair_mass(mu, dict(parts, extra=inside))
    with pytest.raises(AssertionError):
        _pair_mass(mu, {v: p for v, p in parts.items() if v != other})


@settings(max_examples=25, deadline=None)
@given(
    rank=st.integers(2, 4),
    n_factors=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_state_walk_matches_the_generic_walk(rank, n_factors, seed):
    # the uniform measure walks integers, uniform-as-Markov walks one state
    # per letter through the generic walk; both give the same integers
    auto = random_composition(rank, n_factors, random.Random(seed))
    fam = {a: preimage_partition(auto, (a,), cache=PartitionCache()) for a in alphabet(rank)}
    generic = markov_measure(uniform_as_markov(rank))
    assert _pair_mass(uniform_measure(rank), fam) == _pair_mass(generic, fam)


def test_one_state_walk_matches_the_generic_walk_on_a_3000_letter_tiling():
    parts, _ = _spine_tiling(3000)
    generic = markov_measure(uniform_as_markov(2))
    assert _pair_mass(uniform_measure(2), parts) == _pair_mass(generic, parts)


@settings(max_examples=25, deadline=None)
@given(
    rank=st.integers(2, 4),
    n_factors=st.integers(1, 5),
    depth=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_state_cross_walk_matches_the_generic_walk(rank, n_factors, depth, seed):
    # a depth-n table walks the preimages of the words of length n - 1;
    # the uniform measure walks them in integers, uniform-as-Markov one
    # state per letter, and both give the same (D, num).  The uniform
    # chain's weights are all 1, so a one-state chain of random weights
    # is held to its twin with a second state that nothing enters.
    rng = random.Random(seed)
    auto = random_composition(rank, n_factors, rng)
    cache = PartitionCache()
    parts = {v: preimage_partition(auto, v, cache=cache) for v in all_words(depth - 1, rank)}
    generic = markov_measure(uniform_as_markov(rank))
    assert _cross_mass(uniform_measure(rank), parts) == _cross_mass(generic, parts)
    one_state, twin = _weighted_chain_and_twin(rank, rng)
    assert one_state.scalars is not None and twin.scalars is None
    assert _cross_mass(one_state, parts) == _cross_mass(twin, parts)


def _weighted_chain_and_twin(rank, rng):
    """A one-state chain of random weights, and the same chain with a dead
    second state: the two walks sum one formula over it, measure or not."""
    letters = alphabet(rank)
    e, d = rng.randint(1, 9), rng.randint(1, 9)
    init = {x: rng.randint(0, 9) for x in letters}
    step = {x: rng.randint(0, 9) for x in letters}

    def chain(dead):
        rows = {x: {0: q, **({1: 0} if dead else {})} for x, q in init.items()}
        mats = {x: {(0, 0): q, **({(1, 1): 0} if dead else {})} for x, q in step.items()}
        return FrequencyMeasure(rank, "markov", F(1), None, (e, d, rows, mats), "weighted")

    return chain(False), chain(True)


def test_one_state_cross_walk_matches_the_generic_walk_on_a_3000_letter_tiling():
    parts, _ = _spine_tiling(3000)
    generic = markov_measure(uniform_as_markov(2))
    assert _cross_mass(uniform_measure(2), parts) == _cross_mass(generic, parts)


def test_the_chain_selects_the_one_state_walk(monkeypatch):
    # uniform and one-letter rational measures have one state; the Markov
    # measures and a longer rational word have one state per letter or
    # per position, and take the generic walk.  So it goes for the
    # depth-1 walk of the families and for the cross walk of the depth-2
    # preimages, which a depth-3 table takes.
    from stretchfactor import boundary

    calls = []

    def counted(integer_walk):
        def walk(mu, *args):
            calls.append(mu.label)
            return integer_walk(mu, *args)

        return walk

    for name in ("_one_state_pair_mass", "_one_state_cross_mass"):
        monkeypatch.setattr(boundary, name, counted(getattr(boundary, name)))
    rng = random.Random(11)
    auto = random_composition(3, 3, rng)
    cache = PartitionCache()
    measures = sample_measures(3, rng)
    for walk, depth in ((_pair_mass, 1), (_cross_mass, 2)):
        parts = {v: preimage_partition(auto, v, cache=cache) for v in all_words(depth, 3)}
        uniform, as_markov, markov, one_letter, word = measures
        for mu in (uniform, one_letter):
            del calls[:]
            walk(mu, parts)
            assert calls == [mu.label], walk.__name__
        for mu in (as_markov, markov, word):
            del calls[:]
            walk(mu, parts)
            assert calls == [], (walk.__name__, mu.label)


def test_pair_mass_of_empty_or_comparable_families():
    # empty families, or comparable cells across families, tile nothing
    empty = CylinderPartition.from_words(2, ())
    p1 = CylinderPartition.from_words(2, words("a"))
    p2 = CylinderPartition.from_words(2, words("ab", "b"))
    p3 = CylinderPartition.from_words(2, words("B"))
    for mu in sample_measures(2, random.Random(3)):
        with pytest.raises(AssertionError):
            _pair_mass(mu, {1: empty, 2: empty})
        for parts in ({1: p1, 2: p2}, {2: p2, 1: p1}, {1: p1, 2: p2, 3: p3}, {3: p3, 2: p2, 1: p1}):
            with pytest.raises(AssertionError):
                _pair_mass(mu, parts)


@settings(max_examples=30, deadline=None)
@given(
    rank=st.integers(2, 4),
    n_factors=st.integers(1, 3),
    target_len=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_preimage_is_the_translated_union_of_the_other_families(rank, n_factors, target_len, seed):
    # phi^-1(Cyl u) = g * (families of the letters but last(u)^-1), g = phi^-1(u)
    rng = random.Random(seed)
    auto = random_composition(rank, min(n_factors, 2) if rank == 4 else n_factors, rng)
    u = random_reduced(target_len, rank, rng)
    cache = PartitionCache()
    fam = {a: preimage_partition(auto, (a,), cache=cache) for a in alphabet(rank)}
    g = auto.apply_inverse(u)
    leaves = [w for a, p in fam.items() if a != -u[-1] for w in p.leaves]
    budget = Budget()
    got = preimage_partition(auto, u, budget=budget, cache=cache)
    pieces = [p for x in leaves for p in translate_cylinder(g, x, rank)]
    expected = CylinderPartition.from_words(rank, pieces)
    _assert_same_partition(got, expected)
    # one node per trie node the graft built: those fam[u[-1]] does not have
    assert budget.spent == _built_nodes(got, [fam[u[-1]]])


@settings(max_examples=20, deadline=None)
@given(
    rank=st.integers(2, 4),
    n_factors=st.integers(1, 3),
    target_len=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_coloured_pair_mass_property(rank, n_factors, target_len, seed):
    from stretchfactor import eta_length

    rng = random.Random(seed)
    auto = random_composition(rank, min(n_factors, 2) if rank == 4 else n_factors, rng)
    target = random_reduced(target_len, rank, rng)
    measures = sample_measures(rank, rng)
    _assert_pair_masses(auto, [target], measures)
    fam = {a: preimage_partition(auto, (a,)) for a in alphabet(rank)}
    for mu in measures:
        # the length's breakdown, letter by letter
        report = eta_length(auto, mu)
        for x in alphabet(rank):
            expected = sum(
                (pair_mass_by_pairs(mu, fam[a], fam[x]) for a in alphabet(rank) if a != x), F(0)
            )
            assert report.breakdown[x] == expected, (mu.label, x)
    # a cell inside a colour's part, as a part of its own, is a doubled
    # cell of the families' tiling
    x = rng.choice(alphabet(rank))
    label = rng.choice(fam[x].leaves)
    overlap = CylinderPartition.from_words(rank, [label + (rng.choice(extension_letters(label, rank)),)])
    with pytest.raises(AssertionError):
        _pair_mass(measures[0], dict(fam, overlap=overlap))


def test_a_measure_of_another_rank_is_an_input_error():
    # checked before any family is built, so a budget of 0 still sees the
    # input error, not its own exhaustion; and where the measure meets
    # one partition's cells
    from stretchfactor import eta_length

    auto = parse_generator_expression(2, "W2[a; b:RIGHT]")
    mu = uniform_measure(3)
    for budget in (None, 0):
        with pytest.raises(InputError, match="ranks differ"):
            eta_length(auto, mu, budget=budget)
        with pytest.raises(InputError, match="ranks differ"):
            pushforward_current_value(auto, mu, (1,), budget=budget)
        with pytest.raises(InputError, match="ranks differ"):
            pushforward_table(auto, mu, 1, budget=budget)
    with pytest.raises(InputError, match="ranks differ"):
        partition_mass(mu, preimage_partition(auto, (1,)))


@pytest.mark.parametrize("label", [(3,), (1, 3), (-3, 1), (0,)])
def test_a_label_outside_the_rank_is_an_input_error(label):
    # as a target of either entry point, or as a cell of a partition
    auto = parse_generator_expression(2, "W2[a; b:RIGHT]")
    with pytest.raises(InputError, match="outside the rank-2 alphabet"):
        preimage_partition(auto, label)
    with pytest.raises(InputError, match="outside the rank-2 alphabet"):
        pushforward_current_value(auto, uniform_measure(2), label)
    with pytest.raises(InputError, match="outside the rank-2 alphabet"):
        CylinderPartition.from_words(2, [(2,), label])


def test_recenter_examples(nielsen_map):
    v, psi = recenter(identity(2))
    assert v == w("") and psi.is_identity()
    v, psi = recenter(inner(2, w("a")))
    assert v == w("a") and psi.is_identity()
    v, psi = recenter(inner(2, w("ab")))
    assert v == w("ab") and psi.is_identity()


def test_recenter_against_brute_masses():
    # every descent decision agrees with brute-force mass enumeration
    for text in ["a", "ab"]:
        auto = inner(2, w(text))
        path = w(text)
        for i in range(len(path)):
            prefix = Word(path[:i])
            masses = {}
            for c in extension_letters(prefix, 2):
                masses[c] = brute_preimage_mass(auto, Word(tuple(prefix) + (c,)))
            qualifying = [c for c, m in masses.items() if m >= F(1, 2)]
            assert qualifying == [path[i]]
        # at the full word no extension keeps half the mass
        for c in extension_letters(path, 2):
            m = brute_preimage_mass(auto, Word(tuple(path) + (c,)))
            assert m < F(1, 2)


def test_recenter_ignores_inner_twist(nielsen_map):
    # Conjugated input recenters to the same map when no mass along the
    # greedy path sits exactly on the 1/2 threshold.  The Nielsen map has
    # a threshold preimage, so its twists legitimately recenter elsewhere;
    # its square is strictly off-threshold and the invariant is exact.
    base = compose(nielsen_map, nielsen_map)
    _, base_psi = recenter(base)
    assert base_psi.key() == "a->a,b->aba"
    for text in ["a", "ab", "B", "bA"]:
        twisted = compose(inner(2, w(text)), base)
        _, psi = recenter(twisted)
        assert psi == base_psi


def test_sweep_receives_only_small_atoms(monkeypatch):
    # every atom step reads the closed form of an atom that the sweep
    # oracle checks (test_atom_families_match_sweep)
    from stretchfactor import boundary, parse_map_text

    swept = []
    step = boundary._family_from_factors

    def recording(head, *args):
        swept.append(head)
        return step(head, *args)

    monkeypatch.setattr(boundary, "_family_from_factors", recording)
    maps = [
        parse_generator_expression(
            3, "W2[a; b:CONJ, c:LEFT] * inner[cA] * perm[a->C,c->b,b->a]"
        ),
        make_automorphism(
            3,
            parse_map_text(3, "a->aB,b->abc,c->ac"),
            parse_map_text(3, "a->bCa,b->AbCa,c->AcBc"),
        ),
        inner(4, w("a")),
    ]
    for auto in maps:
        length_exact(auto, cache=PartitionCache())
    assert swept
    assert all(is_atom(f) for f in swept)
    # A map that is not an atom has no closed-form step.
    identity_family = _depth1_family(identity(2), Budget(), PartitionCache())
    with pytest.raises(AssertionError):
        step(inner(2, w("a")), identity(2).bwd, identity_family, Budget())


def test_length_path_neither_rebuilds_tries_nor_sorts(monkeypatch):
    # Pair sums walk the partitions' stored tries, and no partition is
    # sorted while a length is computed: shortlex order is for output.
    import sys

    from stretchfactor import boundary, eta_length, markov_measure
    from stretchfactor import rational_measure, words as words_module

    calls = {"from_words": 0, "from_words_in_pair_mass": 0, "word_key": 0, "pair_mass": 0}
    in_pair_mass = []
    from_words = CylinderPartition.from_words
    pair_mass, word_key = boundary._pair_mass, words_module.word_key

    def counting_from_words(cls, *args):
        calls["from_words"] += 1
        calls["from_words_in_pair_mass"] += bool(in_pair_mass)
        return from_words(*args)

    def flagged_pair_mass(*args, **kwargs):
        calls["pair_mass"] += 1
        in_pair_mass.append(True)
        try:
            return pair_mass(*args, **kwargs)
        finally:
            in_pair_mass.pop()

    def counting_word_key(w):
        calls["word_key"] += 1
        return word_key(w)

    monkeypatch.setattr(CylinderPartition, "from_words", classmethod(counting_from_words))
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "stretchfactor":
            continue
        if getattr(module, "_pair_mass", None) is pair_mass:
            monkeypatch.setattr(module, "_pair_mass", flagged_pair_mass)
        if getattr(module, "word_key", None) is word_key:
            monkeypatch.setattr(module, "word_key", counting_word_key)
    auto = parse_generator_expression(3, "W2[a; c:CONJ] * W2[b; a:RIGHT] * inner[ab]")
    length_exact(auto, cache=PartitionCache())
    for mu in (
        markov_measure(reversible_markov(3, random.Random(3))),
        rational_measure(3, w("abC")),
    ):
        eta_length(auto, mu, cache=PartitionCache())
    # atom families are literal tries, so no partition is built from
    # words, inside a walk or out of it
    assert calls["from_words"] == 0
    # one walk per length
    assert calls["pair_mass"] == 3
    assert calls["from_words_in_pair_mass"] == 0
    assert calls["word_key"] == 0
    # the counters are live: output order still sorts, and a partition
    # given by its labels is counted
    assert preimage_partition(auto, w("ab")).words
    assert calls["word_key"] > 0
    assert CylinderPartition.from_words(3, words("ab", "c"))
    assert calls["from_words"] > 0


def transvection(rank, x, a, side):
    """The atom x -> xa (RIGHT) or x -> a^-1 x (LEFT): the second-kind move
    with multiplier a, that side at x and every other letter fixed."""
    types = tuple(side if y == x else FIX for y in range(1, rank + 1) if y != abs(a))
    return WhiteheadSecondKind(rank, a, types).automorphism()


def _atoms(rank):
    """Every elementary transvection and every signed permutation."""
    transvections = [
        transvection(rank, x, a, side)
        for x in range(1, rank + 1)
        for a in alphabet(rank)
        if abs(a) != x
        for side in (LEFT, RIGHT)
    ]
    return transvections + enumerate_signed_permutations(rank)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_atom_families_match_sweep(rank):
    for atom in _atoms(rank):
        budget = Budget()
        assert _depth1_family(atom, budget, PartitionCache()) == sweep_depth1(atom), atom.key()
        # one step from the identity's families, which cost nothing: a
        # signed permutation relabels them, and a transvection builds one
        # dict each in its graft, its difference and its merge
        expected = 0 if atom.lipschitz() == (1, 1) else 3
        assert budget.spent == expected, atom.key()


def test_atom_families_match_brute_force_rank2():
    # An atom's images lose at most one letter to cancellation, so five
    # letters below each cell decide every 3-letter image prefix.
    for atom in _atoms(2):
        fam = _depth1_family(atom, Budget(), PartitionCache())
        brute = brute_depth1(atom, frontier=9)
        assert brute is not None, atom.key()
        for c in alphabet(2):
            assert fam[c].words == brute.get(c, ()), (atom.key(), format_word((c,)))


def test_budget_limits_are_honest(nielsen_map):
    with pytest.raises(ResourceLimitError):
        preimage_partition(nielsen_map, w("ab"), budget=3, cache=PartitionCache())


def test_partition_cache_hit_equals_recomputation(nielsen_map):
    cache = PartitionCache()
    part = preimage_partition(nielsen_map, w("ab"), cache=cache)
    # an equal map built separately finds the families: keys are inverse
    # images, not objects, so only the graft of fam[b] is built again
    fam = cache.families[nielsen().bwd]
    budget = Budget()
    assert preimage_partition(nielsen(), w("ab"), budget=budget, cache=cache) == part
    assert budget.spent == _built_nodes(part, [fam[2]])
    assert preimage_partition(nielsen(), w("a"), budget=budget, cache=cache) is fam[1]
    again = preimage_partition(nielsen_map, w("ab"), cache=PartitionCache())
    assert again == part


def test_partition_cache_keeps_each_rank():
    # Rank-3 'a' has preimage {aa, ab, aB}, which rank-2 coalescing would
    # wrongly merge into {a}; one cache serves both ranks.
    rank3 = parse_generator_expression(3, "W2[a; c:CONJ]")
    cache = PartitionCache()
    part3 = preimage_partition(rank3, w("a"), cache=cache)
    part2 = preimage_partition(nielsen(), w("ab"), cache=cache)
    assert part3.words == words("aa", "ab", "aB")
    assert part2 == preimage_partition(nielsen(), w("ab"), cache=PartitionCache())
    assert set(cache.families) == {rank3.bwd, rank3.factors[-1].bwd, nielsen().bwd}
    assert cache.families[rank3.bwd][1] is part3
    assert preimage_partition(rank3, w("a"), cache=cache) is part3


def _random_atom(rank, rng):
    """A transvection or a signed permutation, each kind half the time."""
    if rng.random() < 0.5:
        return rng.choice(enumerate_signed_permutations(rank))
    x = rng.randint(1, rank)
    a = rng.choice([c for c in alphabet(rank) if abs(c) != x])
    return transvection(rank, x, a, rng.choice((LEFT, RIGHT)))


@settings(max_examples=40, deadline=None)
@given(
    rank=st.integers(2, 4),
    n_atoms=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_atom_steps_match_leaf_by_leaf_assembly(rank, n_atoms, seed):
    # each step of a chain mixing transvections and signed permutations
    # against the rest-preimages of every label of the head's family
    rng = random.Random(seed)
    chain = [_random_atom(rank, rng) for _ in range(n_atoms)]
    rest = chain[-1]
    for head in reversed(chain[:-1]):
        cache = PartitionCache()
        fam = _depth1_family(rest, Budget(), cache)
        step = _family_from_factors(head, rest.bwd, fam, Budget())
        expected = family_by_leaf_preimages(head, rest)
        assert {y: p.words for y, p in step.items()} == expected
        rest = compose(head, rest)
    whole = _depth1_family(rest, Budget(), PartitionCache())
    assert {y: p.words for y, p in whole.items()} == expected


def test_an_atom_step_builds_no_atom_family(monkeypatch):
    from stretchfactor import boundary

    calls = {"step": 0, "from_words": 0}
    step_fn, from_words = boundary._family_from_factors, CylinderPartition.from_words

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(boundary, "_family_from_factors", counted("step", step_fn))
    monkeypatch.setattr(
        CylinderPartition, "from_words", staticmethod(counted("from_words", from_words))
    )
    for rank, expression, n in [
        (2, " * ".join(["W2[a; b:RIGHT]"] * 6), 6),
        (3, "W2[a; c:CONJ] * W2[b; a:RIGHT] * inner[ab] * perm[a->C,c->b,b->a]", 9),
        (4, "inner[a] * perm[a->B,b->c,c->D,d->a]", 7),
    ]:
        phi = parse_generator_expression(rank, expression)
        assert len(phi.factors) == n
        calls.update(dict.fromkeys(calls, 0))
        _depth1_family(phi, Budget(), PartitionCache())
        # every atom, the last one included, is one step from the
        # identity's families, and no words are canonicalized
        assert calls == {"step": n, "from_words": 0}, expression
    # a signed permutation relabels the rest's partitions, spending nothing
    rest = parse_generator_expression(3, "W2[a; c:CONJ] * W2[b; a:RIGHT]")
    sigma = parse_generator_expression(3, "perm[a->C,c->b,b->a]")
    assert sigma.factors == (sigma,)
    cache = PartitionCache()
    fam = _depth1_family(rest, Budget(), cache)
    budget = Budget()
    step = _depth1_family(compose(sigma, rest), budget, cache)
    assert all(step[y] is fam[sigma.inverse_letter_image(y)[0]] for y in alphabet(3))
    assert budget.spent == 0
    # the transvection a -> ab (s = a, multiplier b) changes only the
    # families of s^-1 = A, b and B, and keeps every other one; it builds
    # one preimage, that of bA, and new[b] = fam[b] minus it, and makes
    # one merge, new[B] = fam[A] + fam[B]
    tau = transvection(3, 1, 2, RIGHT)
    grafted, merged = [], []
    preimage = boundary._preimage

    def recorded(bwd, fam, u, budget):
        grafted.append((bwd, u))
        return preimage(bwd, fam, u, budget)

    monkeypatch.setattr(boundary, "_preimage", recorded)
    monkeypatch.setattr(boundary, "_merge", lambda *args: merged.append(args) or _merge(*args))
    step = _depth1_family(compose(tau, rest), Budget(), cache)
    assert {y for y in alphabet(3) if step[y] is not fam[y]} == {-1, 2, -2}
    assert grafted == [(rest.bwd, Word((2, -1)))]
    assert [(a, b) for a, b, _ in merged] == [(fam[-1], fam[-2])]


@settings(max_examples=30, deadline=None)
@given(rank=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_pushforward_of_the_shortest_conjugate_equals_the_given_chains(rank, seed):
    # pushforward_table and pushforward_current_value assemble the shortest
    # conjugate's Nielsen chain; given_chain_table assembles phi's own
    rng = random.Random(seed)
    phi = conjugated_composition(rank, rng.randint(1, 2), rng.randint(0, 4), rng)
    measures = sample_measures(rank, rng) + [markov_measure(doubly_stochastic_markov(rank, rng))]
    mu = rng.choice(measures)
    den, num = given_chain_table(phi, mu, 2, Budget(), PartitionCache())
    assert pushforward_table(phi, mu, 2) == {v: F(q, den) for v, q in num.items()}
    u = random_reduced(rng.randint(1, 3), rank, rng)
    den, num = given_chain_table(phi, mu, len(u), Budget(), PartitionCache())
    assert pushforward_current_value(phi, mu, u) == F(num[u], den)


def test_the_given_chain_reference_reads_the_maps_own_chain():
    # a map that is not its own shortest conjugate: the engine's table and
    # the reference agree on every value but spend nodes on different
    # chains, so the reference above does not compare psi with psi
    from stretchfactor import boundary

    phi = parse_generator_expression(2, "W2[a; b:RIGHT] * inner[ab]")
    assert boundary._class_rep(phi) != phi
    mu = uniform_measure(2)
    tables, spent = [], []
    for table in (_table, given_chain_table):
        budget = Budget()
        den, num = table(phi, mu, 2, budget, PartitionCache())
        tables.append({v: F(q, den) for v, q in num.items()})
        spent.append(budget.spent)
    assert tables[0] == tables[1]
    # psi (a -> a, b -> ab) is one atom, and the table walks its families
    # as they are; the reference assembles phi's longer chain and grafts
    # every depth-2 preimage
    assert spent == [3, 17]


@settings(max_examples=30, deadline=None)
@given(rank=st.integers(2, 4), depth=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
def test_deep_tables_equal_the_grafted_reference(rank, depth, seed):
    # from depth 2 on the engine walks the preimages one level up, and the
    # reference grafts and walks those of the table's own depth; only the
    # common denominator may differ.  The maps are mostly conjugated, so
    # the engine reads the shortest conjugate's chain and the reference
    # the map's own.
    rng = random.Random(seed)
    phi = conjugated_composition(rank, rng.randint(1, 3), rng.randint(0, 4), rng)
    measures = sample_measures(rank, rng) + [markov_measure(doubly_stochastic_markov(rank, rng))]
    mu = rng.choice(measures)
    den, num = _table(phi, mu, depth, Budget(), PartitionCache())
    ref_den, ref = given_chain_table(phi, mu, depth, Budget(), PartitionCache())
    assert list(num) == list(ref)
    assert {v: F(q, den) for v, q in num.items()} == {v: F(q, ref_den) for v, q in ref.items()}


@settings(max_examples=30, deadline=None)
@given(rank=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
def test_deep_tables_count_the_image_of_a_rational_word(rank, seed):
    # phi pushes the counting current of w to that of phi(w), so every
    # entry counts occurrences in the cyclic word phi(w): an oracle that
    # builds no partition
    rng = random.Random(seed)
    phi = conjugated_composition(rank, rng.randint(1, 3), rng.randint(0, 3), rng)
    word = primitive_cyclic_word(rank, rng)
    image = cyclic_reduce(phi.apply(word))[0]
    mu = rational_measure(rank, word)
    for depth in (2, 3):
        table = pushforward_table(phi, mu, depth)
        assert list(table) == [v for n in range(1, depth + 1) for v in all_words(n, rank)]
        assert table == {v: F(occurrences_in_cyclic(v, image)) for v in table}


def test_cross_walk_rejects_a_broken_tiling():
    # the walk takes the preimages one level below a depth-3 table; a
    # cell inside another colour's is comparable, and a lost colour
    # leaves cells whose uniform masses do not sum to one.  The uniform
    # measure takes the integer walk, uniform-as-Markov the generic one.
    for mu in (uniform_measure(2), markov_measure(uniform_as_markov(2))):
        _assert_cross_walk_rejects_broken_tilings(mu)


def _assert_cross_walk_rejects_broken_tilings(mu):
    auto = parse_generator_expression(2, "W2[a; b:CONJ] * inner[ab] * W2[b; a:LEFT]")
    cache = PartitionCache()
    parts = {v: preimage_partition(auto, v, cache=cache) for v in all_words(2, 2)}
    den, num = _cross_mass(mu, parts)
    assert {v: F(q, den) for v, q in keyed_cross_mass(2, parts, num).items()} == {
        v: q for v, q in pushforward_table(auto, mu, 3).items() if len(v) == 3
    }
    first, other = w("ab"), w("ba")
    label = parts[first].leaves[0]
    inside = CylinderPartition.from_words(2, [label + (extension_letters(label, 2)[0],)])
    broken = dict(parts)
    broken[other] = inside
    with pytest.raises(AssertionError, match="comparable"):
        _cross_mass(mu, broken)
    with pytest.raises(AssertionError, match="tile"):
        _cross_mass(mu, {v: p for v, p in parts.items() if v != other})
    # one colour alone, or nothing, tiles nothing either
    with pytest.raises(AssertionError, match="tile"):
        _cross_mass(mu, {first: parts[first]})
    with pytest.raises(AssertionError, match="tile"):
        _cross_mass(mu, {first: CylinderPartition(2, (), {})})


def _spine_tiling(n):
    """Cyl(a) split into Cyl(a^n b) and the rest, a spine of n dicts, beside
    Cyl(A), Cyl(b) and Cyl(B), as parts keyed by two-letter colours; and
    the word a^n b."""
    spine: dict = {c: _LEAF for c in (1, -2)}
    for _ in range(n - 1):
        spine = {c: spine if c == 1 else _LEAF for c in (1, 2, -2)}
    rest = CylinderPartition(2, (1,), spine)
    assert rest.height == n + 1
    deep = w("a") * n + w("b")
    parts = {
        w("aa"): rest,
        w("ab"): CylinderPartition(2, deep[:-1], {2: _LEAF}),
        w("AA"): CylinderPartition(2, (), {-1: _LEAF}),
        w("bb"): CylinderPartition(2, (), {2: _LEAF}),
        w("BB"): CylinderPartition(2, (), {-2: _LEAF}),
    }
    return parts, deep


def test_cross_walk_of_a_3000_letter_tiling():
    # every colour is one cylinder or the rest of one, so each value is
    # mu of one word or a difference of two.  The walk iterates, so a
    # tiling far deeper than the interpreter's recursion limit is summed.
    parts, deep = _spine_tiling(3000)
    for mu in sample_measures(2, random.Random(5)):
        den, num = _cross_mass(mu, parts)
        num = keyed_cross_mass(2, parts, num)
        expected = {}
        for v in parts:
            for g in alphabet(2):
                if g != v[0]:
                    expected[Word((-g,) + v)] = mu.eval((-g, v[0]))
        for g in (-1, 2, -2):
            cut = mu.eval((-g,) + deep)
            expected[Word((-g,) + w("ab"))] = cut
            expected[Word((-g,) + w("aa"))] -= cut
        assert {v: F(q, den) for v, q in num.items()} == expected, mu.label


def test_pair_mass_of_a_3000_letter_tiling():
    # the pairs into a one-cell part from every other cell sum to mu of
    # its last letter, and those out of a^n b to mu(B); so the rest of
    # Cyl(a) takes what A, b and B send to Cyl(a) but not to a^n b, and
    # what a^n b sends to no one of them.  The walk iterates, so a tiling
    # far deeper than the interpreter's recursion limit is summed.
    parts, deep = _spine_tiling(3000)
    for mu in sample_measures(2, random.Random(5)):
        den, num = _pair_mass(mu, parts)
        expected = {v: mu.eval(p.leaves[0][-1:]) for v, p in parts.items() if len(p) == 1}
        expected[w("aa")] = mu.eval(w("B")) + sum(
            mu.eval((-g, 1)) - mu.eval((-g,) + deep) - mu.eval(inverse(deep) + (g,))
            for g in (-1, 2, -2)
        )
        assert {v: F(q, den) for v, q in num.items()} == expected, mu.label


@pytest.mark.parametrize(
    "walk",
    [_pair_mass, _one_state_pair_mass, _cross_mass, _one_state_cross_mass],
    ids=lambda walk: walk.__name__,
)
def test_pair_walks_do_not_recurse(walk):
    # each walk keeps its own stack: it does not call itself, and the only
    # code nested in it is comprehensions, which cannot
    from types import CodeType

    code = walk.__code__
    nested = [c for c in code.co_consts if isinstance(c, CodeType)]
    assert all(c.co_name.startswith("<") for c in nested)
    assert all(walk.__name__ not in c.co_names for c in [code, *nested])


def test_no_boundary_function_recurses():
    # as for the pair walks, for every function of the module, methods,
    # properties and cached functions included: none calls itself, and the
    # only code nested in one is comprehensions, so every trie walk, from
    # the merge to the leaf list and equality, keeps its own stack
    from stretchfactor import boundary

    functions = {}
    for obj in vars(boundary).values():
        for f in vars(obj).values() if isinstance(obj, type) else [obj]:
            f = getattr(f, "fget", f)
            f = getattr(f, "__func__", getattr(f, "__wrapped__", f))
            if isinstance(f, FunctionType) and f.__module__ == boundary.__name__:
                functions[f.__qualname__] = f
    walks = {"_merge", "_subtract", "_graft", "CylinderPartition.leaves", "CylinderPartition.__eq__"}
    assert walks <= set(functions)
    recursing = []
    for name, f in functions.items():
        nested = [c for c in f.__code__.co_consts if isinstance(c, CodeType)]
        if not all(c.co_name.startswith("<") for c in nested) or any(
            f.__name__ in c.co_names for c in [f.__code__, *nested]
        ):
            recursing.append(name)
    assert recursing == []


def test_merge_and_subtract_cross_a_3000_letter_spine():
    # the rest of Cyl(a) and Cyl(a^n b) merge back into Cyl(a), and Cyl(a)
    # less Cyl(a^n b) is the rest: both walks, and the leaf list of the
    # 6 000 cells, go 3 000 levels deep without recursing
    parts, deep = _spine_tiling(3000)
    rest, cell = parts[w("aa")], parts[w("ab")]
    whole = CylinderPartition.from_words(2, [w("a")])
    assert _merge(rest, cell) == whole
    assert _subtract(whole, cell) == rest
    assert len(rest) == 6000


def test_a_budget_stops_a_deep_table_before_it_lists_the_preimages():
    # the depth-11 preimages are built as the words are listed, so the
    # budget runs out after a few grafts, long before the 236 196 words
    # of length 11 would be held at once
    import tracemalloc

    phi = parse_generator_expression(2, "W2[a; b:RIGHT]")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            pushforward_table(phi, uniform_measure(2), 12, budget=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@settings(max_examples=40, deadline=None)
@given(
    rank=st.integers(2, 5),
    n_factors=st.integers(1, 3),
    v_len=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_class_rep_is_the_step_by_step_shortest_conjugate(rank, n_factors, v_len, seed):
    # the descent conjugates each image in place and psi's inverse images
    # are one reduction each; both agree with the former letter-by-letter
    # descent and with concat, conjugators of up to 40 letters included
    phi = conjugated_composition(rank, n_factors, v_len, random.Random(seed))
    assert_class_rep_by_steps(phi)


@settings(max_examples=20, deadline=None)
@given(rank=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_a_wrong_conjugator_is_an_engine_bug(rank, seed):
    # psi's inverse images are derived from phi's and the conjugator v;
    # with v wrong they do not invert psi, so peeling psi's chain off them
    # misses the basis letters, in every table that reads psi: lengths,
    # pushforwards and the descent's depth-2 tables
    from stretchfactor import boundary

    rng = random.Random(seed)
    phi = conjugated_composition(rank, rng.randint(1, 2), rng.randint(0, 4), rng)
    shortest = boundary._shortest_conjugate

    def wrong(images):
        psi, v = shortest(images)
        return psi, v + [rng.choice([c for c in alphabet(rank) if not v or c != -v[-1]])]

    mu = uniform_measure(rank)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(boundary, "_shortest_conjugate", wrong)
        for run in (
            lambda: length_exact(phi),
            lambda: pushforward_table(phi, mu, 2),
            lambda: pushforward_current_value(phi, mu, (1, 2)),
            lambda: factorize(phi),
            lambda: descent_step(phi),
        ):
            with pytest.raises(AssertionError, match="do not compose"):
                run()
