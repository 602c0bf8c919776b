import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from stretchfactor import (
    Automorphism,
    Budget,
    CylinderPartition,
    InputError,
    NotInverseError,
    PartitionCache,
    SignedPermutation,
    WhiteheadSecondKind,
    compose,
    conj,
    cyclic_length,
    enumerate_second_kind,
    enumerate_signed_permutations,
    identity,
    inner,
    is_simple,
    length_exact,
    make_automorphism,
    parse_generator_expression,
    parse_map_text,
    parse_word,
    random_reduced,
)
from stretchfactor.automorphisms import _certify, _parse_expr_atom
from stretchfactor.boundary import _depth1_family, _pair_mass
from stretchfactor.measures import uniform_measure
from stretchfactor.words import free_reduce, inverse

from conftest import is_atom, nielsen, random_composition
from oracles import compose_by_atoms, simple_witness

POOLS = Path(__file__).resolve().parent.parent / "perfbench" / "pools"


def w(text):
    return parse_word(text)


def test_make_automorphism_verified():
    phi = make_automorphism(2, {1: w("a"), 2: w("ba")}, {1: w("a"), 2: w("bA")})
    assert phi.apply(w("b")) == w("ba")
    with pytest.raises(NotInverseError):
        make_automorphism(2, {1: w("a"), 2: w("ba")}, {1: w("a"), 2: w("ba")})
    swap = make_automorphism(2, {1: w("b"), 2: w("a")}, {1: w("b"), 2: w("a")})
    assert swap.apply(w("aB")) == w("bA")
    # the constructor checks pairs from outside by brute force too
    with pytest.raises(NotInverseError):
        Automorphism(2, (w("a"), w("ba")), (w("A"), w("bA")))


@pytest.mark.parametrize(
    "fwd, bwd, key",
    [
        # the keys 3, 0 and -1 name no basis letter at rank 2
        ({1: (1,), 2: (2, 1), 3: (1,)}, {1: (1,), 2: (2, -1), 3: (5,)}, "3"),
        ({1: (1,), 2: (2, 1)}, {1: (1,), 2: (2, -1), 0: (1,)}, "0"),
        ({1: (1,), 2: (2, 1), -1: (-1,)}, {1: (1,), 2: (2, -1)}, "-1"),
    ],
)
def test_make_automorphism_refuses_a_key_outside_the_rank(fwd, bwd, key):
    with pytest.raises(InputError, match=f"image keyed by {key}:"):
        make_automorphism(2, fwd, bwd)


def test_apply_examples(nielsen_map):
    assert nielsen_map.apply(w("bA")) == w("b")
    assert nielsen_map.apply(w("")) == w("")


def test_compose_examples(nielsen_map):
    ident = identity(2)
    assert compose(nielsen_map, ident) == nielsen_map
    assert compose(nielsen_map, nielsen_map.inverse()) == ident
    swap = make_automorphism(2, {1: w("b"), 2: w("a")}, {1: w("b"), 2: w("a")})
    assert compose(swap, nielsen_map).apply(w("b")) == w("ab")


def test_inner_and_conj(nielsen_map):
    assert inner(2, w("")).is_identity()
    assert inner(2, w("a")).apply(w("b")) == w("abA")
    assert conj(nielsen_map, w("a")).apply(w("b")) == w("ab")


@given(st.integers(0, 2**32), st.integers(2, 12))
@settings(max_examples=25, deadline=None)
def test_homomorphism_law(seed, n):
    rng = random.Random(seed)
    phi = random_composition(2, 3, rng)
    psi = random_composition(2, 2, rng)
    word = random_reduced(n, 2, rng)
    assert compose(phi, psi).apply(word) == phi.apply(psi.apply(word))


@given(st.integers(2, 4), st.integers(1, 4), st.integers(0, 24), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_substitution_matches_letter_by_letter_reduction(rank, n_factors, n, seed):
    # seam-block substitution against freely reducing the concatenated images
    rng = random.Random(seed)
    phi = random_composition(rank, n_factors, rng)
    word = random_reduced(n, rank, rng)
    for images, image in ((phi.fwd, phi.apply), (phi.bwd, phi.apply_inverse)):
        letters = [y for x in word for y in (images[x - 1] if x > 0 else inverse(images[-x - 1]))]
        assert image(word) == free_reduce(letters)
    assert phi.apply_inverse(phi.apply(word)) == word
    assert phi.apply(phi.apply_inverse(word)) == word


@given(st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_conjugation_preserves_cyclic_length(seed):
    rng = random.Random(seed)
    phi = random_composition(2, 2, rng)
    v = random_reduced(rng.randrange(0, 5), 2, rng)
    word = random_reduced(rng.randrange(1, 12), 2, rng)
    assert cyclic_length(conj(phi, v).apply(word)) == cyclic_length(phi.apply(word))


def test_lipschitz_and_bound(nielsen_map):
    assert identity(2).lipschitz() == (1, 1)
    assert nielsen_map.lipschitz() == (2, 2)


def test_is_simple_examples():
    ident = identity(2)
    v, pi = is_simple(ident)
    assert v == w("") and pi.images == (1, 2)
    v, pi = is_simple(inner(2, w("ab")))
    assert v == w("ab") and pi.images == (1, 2)
    assert is_simple(nielsen()) is None
    swap_conj = conj(
        make_automorphism(2, {1: w("B"), 2: w("a")}, {1: w("b"), 2: w("A")}), w("ba")
    )
    v, pi = is_simple(swap_conj)
    assert pi.images == (-2, 1)
    assert v == w("ba")


@settings(max_examples=60, deadline=None)
@given(
    rank=st.integers(2, 4),
    v_len=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_is_simple_finds_the_oracle_witness(rank, v_len, seed):
    rng = random.Random(seed)
    perms = enumerate_signed_permutations(rank)
    sigma = perms[rng.randrange(len(perms))]
    v = random_reduced(v_len, rank, rng)
    phi = conj(sigma, v)
    pi = SignedPermutation(rank, tuple(img[0] for img in sigma.fwd))
    assert is_simple(phi) == simple_witness(phi) == (v, pi)


@settings(max_examples=60, deadline=None)
@given(
    rank=st.integers(2, 4),
    n_factors=st.integers(1, 5),
    v_len=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_is_simple_is_none_where_the_oracle_finds_no_witness(rank, n_factors, v_len, seed):
    rng = random.Random(seed)
    phi = conj(random_composition(rank, n_factors, rng), random_reduced(v_len, rank, rng))
    assume(simple_witness(phi) is None)
    assert is_simple(phi) is None


def test_enumerations():
    second = enumerate_second_kind(2)
    assert len(second) == 16
    perms = enumerate_signed_permutations(2)
    assert len(perms) == 8
    for tau in second:
        auto = tau.automorphism()  # construction verifies the inverse pair
        back = tau.inverse().automorphism()
        assert compose(auto, back).is_identity()
    assert len({p.key() for p in perms}) == 8


def test_second_kind_images():
    tau = next(
        t for t in enumerate_second_kind(2)
        if t.multiplier == 1 and t.types == ("RIGHT",)
    )
    auto = tau.automorphism()
    assert auto.apply(w("b")) == w("ba")
    assert auto.apply(w("a")) == w("a")


def test_map_text_round_trip(nielsen_map):
    text = nielsen_map.key()
    assert text == "a->a,b->ba"
    images = parse_map_text(2, text)
    rebuilt = make_automorphism(2, images, parse_map_text(2, "a->a,b->bA"))
    assert rebuilt == nielsen_map


def test_generator_expressions():
    phi = parse_generator_expression(2, "W2[a; b:RIGHT]")
    assert phi.key() == "a->a,b->ba"
    psi = parse_generator_expression(2, "perm[a->b,b->a] * inner[ab]")
    byhand = compose(
        make_automorphism(2, {1: w("b"), 2: w("a")}, {1: w("b"), 2: w("a")}),
        inner(2, w("ab")),
    )
    assert psi == byhand
    # left factor applied last
    comp = parse_generator_expression(2, "perm[a->b,b->a] * W2[a; b:RIGHT]")
    assert comp.apply(w("b")) == w("ab")


def random_expression(rank, rng, max_atoms=3):
    """A product of one to max_atoms random W2, perm and inner generators."""
    letters = "abcd"[:rank]
    parts = []
    for _ in range(rng.randrange(1, max_atoms + 1)):
        kind = rng.choice(["W2", "perm", "inner"])
        if kind == "W2":
            a = rng.randrange(rank)
            entries = ", ".join(
                f"{letters[x]}:{rng.choice(['FIX', 'RIGHT', 'LEFT', 'CONJ'])}"
                for x in range(rank)
                if x != a
            )
            head = letters[a] if rng.random() < 0.5 else letters[a].upper()
            parts.append(f"W2[{head}; {entries}]")
        elif kind == "perm":
            order = rng.sample(letters, rank)
            entries = ",".join(
                f"{x}->{y if rng.random() < 0.5 else y.upper()}"
                for x, y in zip(letters, order)
            )
            parts.append(f"perm[{entries}]")
        else:
            word = random_reduced(rng.randrange(1, 4), rank, rng)
            parts.append(f"inner[{word}]")
    return " * ".join(parts)


@given(st.integers(2, 4), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_the_fold_is_the_product_of_its_atoms(rank, seed):
    # Automorphism equality reads the forward images only
    text = random_expression(rank, random.Random(seed), max_atoms=12)
    phi, by_atoms = parse_generator_expression(rank, text), compose_by_atoms(rank, text)
    assert (phi.fwd, phi.bwd) == (by_atoms.fwd, by_atoms.bwd)


def test_every_pooled_expression_folds_to_the_product_of_its_atoms():
    checked = {}
    for workload in ("length-cold", "currents", "whitehead"):
        with open(POOLS / f"{workload}.json", encoding="utf-8") as fh:
            entries = json.load(fh)["entries"]
        expressions = [(e["rank"], e["map"]) for e in entries if "map" in e and "inverse" not in e]
        for rank, text in expressions:
            phi, by_atoms = parse_generator_expression(rank, text), compose_by_atoms(rank, text)
            assert (phi.fwd, phi.bwd) == (by_atoms.fwd, by_atoms.bwd), text
        checked[workload] = len(expressions)
    assert checked == {"length-cold": 511, "currents": 288, "whitehead": 190}


def test_a_one_atom_expression_is_the_shared_atom():
    move = WhiteheadSecondKind(2, 1, ("RIGHT",)).automorphism()
    factors = move.factors
    phi = parse_generator_expression(2, "W2[a; b:RIGHT]")
    assert phi is move and phi.factors is factors
    swap = SignedPermutation(2, (-2, 1)).automorphism()
    assert parse_generator_expression(2, "perm[a->B, b->a]") is swap
    # an inner atom is built once per (rank, stripped text)
    conjugation = parse_generator_expression(3, "inner[aB]")
    assert parse_generator_expression(3, " inner[aB] ") is conjugation
    assert conjugation == inner(3, w("aB"))
    assert parse_generator_expression(2, "inner[aB]") != conjugation


def _pooled_atoms():
    atoms = set()
    for workload in ("length-cold", "currents", "whitehead"):
        with open(POOLS / f"{workload}.json", encoding="utf-8") as fh:
            entries = json.load(fh)["entries"]
        for e in entries:
            if "map" in e and "inverse" not in e:
                atoms.update((e["rank"], t.strip()) for t in e["map"].split("*"))
    return sorted(atoms)


def test_every_pooled_atom_is_cached_as_it_parses():
    atoms = _pooled_atoms()
    assert len(atoms) == 241
    for rank, text in atoms:
        cached, fresh = _parse_expr_atom(rank, text), _parse_expr_atom.__wrapped__(rank, text)
        assert (cached.fwd, cached.bwd) == (fresh.fwd, fresh.bwd), text
        assert _parse_expr_atom(rank, text) is cached, text


@pytest.mark.parametrize("text", ["inner[ac]", "W2[a; b:UP]", "perm[a->b]", "W3[a]"])
def test_a_bad_atom_raises_on_every_call(text):
    messages = []
    for _ in range(2):
        with pytest.raises(InputError) as err:
            parse_generator_expression(2, text)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_the_atom_cache_is_bounded():
    assert 0 < _parse_expr_atom.cache_info().maxsize < 1 << 16


@given(st.integers(2, 4), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_factors_are_atoms_and_recompose(rank, seed):
    phi = parse_generator_expression(rank, random_expression(rank, random.Random(seed)))
    raw = make_automorphism(rank, phi.fwd, phi.bwd)  # factored by Nielsen reduction
    for auto in (phi, raw):
        assert all(is_atom(f) for f in auto.factors)
        recomposed = auto.factors[-1]
        for f in reversed(auto.factors[:-1]):
            recomposed = compose(f, recomposed)
        assert recomposed == phi and recomposed.bwd == phi.bwd


@given(st.integers(2, 4), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_the_chain_is_a_function_of_the_map(rank, seed):
    # however a map is spelled, it is Nielsen-factored from its images,
    # so its chain and the nodes its families cost are the same
    text = random_expression(rank, random.Random(seed))
    phi = parse_generator_expression(rank, text)
    regrouped = None
    for part in reversed(text.split(" * ")):
        atom = parse_generator_expression(rank, part)
        regrouped = atom if regrouped is None else compose(atom, regrouped)
    spellings = [
        phi,
        make_automorphism(rank, phi.fwd, phi.bwd),
        phi.inverse().inverse(),
        regrouped,
    ]
    chains, nodes = set(), set()
    for auto in spellings:
        assert auto == phi and auto.bwd == phi.bwd
        chains.add(tuple((f.fwd, f.bwd) for f in auto.factors))
        budget = Budget()
        length_exact(auto, budget=budget)
        nodes.add(budget.spent)
    assert len(chains) == 1
    assert len(nodes) == 1


@pytest.mark.parametrize(
    "build",
    [
        lambda rank: Automorphism(rank, [(1,)] * rank, [(1,)] * rank),
        lambda rank: make_automorphism(rank, [(1,)] * rank, [(1,)] * rank),
        lambda rank: make_automorphism(rank, {1: (1,)}, {1: (1,)}),
        lambda rank: parse_map_text(rank, "a->a"),
        lambda rank: parse_generator_expression(rank, "W2[a; b:RIGHT]"),
        lambda rank: parse_generator_expression(rank, "inner[a]"),
        lambda rank: CylinderPartition.from_words(rank, [(rank,)]),
        lambda rank: WhiteheadSecondKind(rank, rank, ("FIX",) * (rank - 1)),
        lambda rank: SignedPermutation(rank, tuple(range(1, rank + 1))),
    ],
    ids=[
        "constructor", "make-list", "make-dict", "map-text", "w2", "inner",
        "partition", "w2-move", "signed-perm",
    ],
)
@pytest.mark.parametrize("rank", [1, 27, 0])
def test_a_rank_outside_the_alphabet_is_refused(build, rank):
    with pytest.raises(InputError, match=f"^rank must be between 2 and 26, got {rank}$"):
        build(rank)


def letter_by_letter(rank, factors):
    """Forward and backward images of the composition of `factors`, one
    factor at a time by concatenating letter images and freely reducing."""
    fwd = bwd = [(x,) for x in range(1, rank + 1)]
    for f in reversed(factors):
        fwd = [free_reduce([y for x in u for y in f.letter_image(x)]) for u in fwd]
    for f in factors:
        bwd = [free_reduce([y for x in u for y in f.inverse_letter_image(x)]) for u in bwd]
    return tuple(fwd), tuple(bwd)


def corrupted(images, i):
    """The images with image i lengthened by its own last letter, still reduced."""
    images = list(images)
    images[i] = images[i] + images[i][-1:]
    return images


@given(st.integers(2, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_products_and_suffixes_are_certified(rank, m, n, seed):
    rng = random.Random(seed)
    phi = random_composition(rank, m, rng)
    psi = random_composition(rank, n, rng)
    for left, right in ((phi, psi), (psi, phi)):
        product = compose(left, right)
        product._verify()  # the brute-force check agrees with the certificate
        assert (product.fwd, product.bwd) == letter_by_letter(rank, product.factors)
        # the engine keys every suffix of the chain by its inverse images
        cache = PartitionCache()
        _depth1_family(product, Budget(), cache)
        for i in range(len(product.factors)):
            assert letter_by_letter(rank, product.factors[i:])[1] in cache.families
        pairs = ((left.fwd, left.bwd), (right.fwd, right.bwd))
        i = rng.randrange(rank)
        with pytest.raises(AssertionError, match="certificate"):
            _certify(*pairs, corrupted(product.fwd, i), product.bwd)
        with pytest.raises(AssertionError, match="certificate"):
            _certify(*pairs, product.fwd, corrupted(product.bwd, i))


@pytest.mark.parametrize("side", [0, 1])
def test_certificate_catches_a_wrong_image_through_either_factor(nielsen_map, side):
    # nielsen^3 has longer images than nielsen, so the two orders of the
    # product round-trip through different factors
    n, cube = nielsen_map, compose(nielsen_map, compose(nielsen_map, nielsen_map))
    cases = [
        ((n.fwd, n.bwd), (cube.fwd, cube.bwd), compose(n, cube)),
        ((cube.fwd, cube.bwd), (n.fwd, n.bwd), compose(cube, n)),
    ]
    for phi, psi, product in cases:
        _certify(phi, psi, product.fwd, product.bwd)
        for i in range(2):
            images = [product.fwd, product.bwd]
            images[side] = corrupted(images[side], i)
            with pytest.raises(AssertionError):
                _certify(phi, psi, *images)


@pytest.mark.parametrize(
    "rank, expression, value, spent",
    [
        (2, " * ".join(["W2[a; b:RIGHT]"] * 24), Fraction(2471258444209, 282429536481), 578),
        (3, "W2[a; c:CONJ] * W2[b; a:RIGHT] * inner[ab]", Fraction(42, 25), 29),
    ],
    ids=["nielsen-power-24", "rank3-chain"],
)
def test_cold_length_builds_each_suffix_once_without_brute_force(
    monkeypatch, rank, expression, value, spent
):
    phi = parse_generator_expression(rank, expression)
    phi.factors  # the Nielsen chain, factored before counting starts
    counts = {"built": 0, "verified": 0}
    init, verify = Automorphism.__init__, Automorphism._verify

    def counted_init(self, *args, **kwargs):
        counts["built"] += 1
        init(self, *args, **kwargs)

    def counted_verify(self):
        counts["verified"] += 1
        verify(self)

    monkeypatch.setattr(Automorphism, "__init__", counted_init)
    monkeypatch.setattr(Automorphism, "_verify", counted_verify)
    # the families of phi's own chain, and their pair walk, the length;
    # length_exact would read its shortest conjugate's
    budget = Budget()
    fam = _depth1_family(phi, budget, PartitionCache())
    den, num = _pair_mass(uniform_measure(rank), fam)
    assert (Fraction(sum(num.values()), den), budget.spent) == (value, spent)
    assert counts["verified"] == 0
    # suffixes of the chain are inverse-image tuples, not maps
    assert counts["built"] == 0


@pytest.mark.parametrize("wrong", ["nielsen-squared", "one-atom"])
def test_factors_that_do_not_compose_to_the_map_are_an_engine_bug(nielsen_map, wrong):
    # an inverse pair given another map's chain: peeling the chain ends
    # on inverse images that are not the basis letters
    factors = {
        "nielsen-squared": compose(nielsen_map, nielsen_map).factors,
        "one-atom": parse_generator_expression(2, "W2[b; a:RIGHT]").factors,
    }[wrong]
    n = nielsen_map
    phi = Automorphism(2, n.fwd, n.bwd, verify=False)
    phi._factors = factors
    with pytest.raises(AssertionError, match="do not compose"):
        length_exact(phi)


def test_second_kind_maps_are_built_once():
    for tau in enumerate_second_kind(3):
        assert tau.automorphism() is tau.automorphism()
        assert WhiteheadSecondKind(3, tau.multiplier, tau.types).automorphism() is tau.automorphism()
    # so is every signed permutation, and every atom of a Nielsen chain
    # is one of these cached maps
    cached = {f: f for f in enumerate_signed_permutations(3)}
    assert all(f is g for f, g in zip(cached, enumerate_signed_permutations(3)))
    cached.update((t.automorphism(), t.automorphism()) for t in enumerate_second_kind(3))
    phi = parse_generator_expression(3, "W2[a; b:RIGHT, c:LEFT] * perm[a->C,c->b,b->a]")
    assert len(phi.factors) == 3
    assert all(cached[f] is f for f in phi.factors)
