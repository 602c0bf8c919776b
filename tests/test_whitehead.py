import json
import random
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import stretchfactor.boundary as boundary_module
import stretchfactor.whitehead as whitehead_module
from stretchfactor import (
    Budget,
    DescentStuckError,
    PartitionCache,
    canonical_out_key,
    compose,
    conj,
    descent_step,
    enumerate_second_kind,
    enumerate_signed_permutations,
    eta_length,
    factorize,
    identity,
    inner,
    is_simple,
    length_exact,
    parse_generator_expression,
    parse_word,
    spectrum,
)
from stretchfactor.automorphisms import (
    SignedPermutation,
    _plateau,
    _plateau_around,
    _shortest_conjugate,
)
from stretchfactor.boundary import _cross_mass, _depth1_family
from stretchfactor.whitehead import _cut_scores, _cut_terms, _expand, _move_data
from stretchfactor.words import alphabet, random_reduced

from conftest import conjugated_composition, random_composition, sample_measures
from oracles import (
    class_step_by_table,
    cut_scores_by_turns,
    cut_table_by_keys,
    descent_step_by_lengths,
    normalize_by_costs,
    spectrum_by_keyed_steps,
    spectrum_by_lengths,
)

POOLS = Path(__file__).resolve().parent.parent / "perfbench" / "pools"


def w(text):
    return parse_word(text)


def pooled_map(entry_id):
    with open(POOLS / "whitehead.json", encoding="utf-8") as fh:
        entry = next(e for e in json.load(fh)["entries"] if e["id"] == entry_id)
    return parse_generator_expression(entry["rank"], entry["map"])


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


@pytest.mark.parametrize(
    "rank, max_factors", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]
)
def test_spectrum_matches_every_class_measured_alone(rank, max_factors):
    # values, multiplicities, representatives and min_gap all agree
    expected = spectrum_by_lengths(rank, max_factors, cache=PartitionCache())
    assert spectrum(rank, max_factors) == expected


@pytest.mark.parametrize(
    "rank, max_factors, spent",
    [(2, 1, 0), (2, 2, 12), (2, 3, 41), (2, 4, 149), (3, 1, 0), (3, 2, 126)],
)
def test_spectrum_budget_counts_the_chains_of_the_expanded_maps(rank, max_factors, spent):
    # the first map to reach a class is the one expanded, and the budget
    # counts the chain of its shortest conjugate
    budget = Budget()
    spectrum(rank, max_factors, budget=budget)
    assert budget.spent == spent


@pytest.mark.parametrize(
    "rank, max_factors, walks",
    [(2, 1, 5), (2, 2, 15), (2, 3, 37), (2, 4, 83), (3, 1, 43), (3, 2, 1201)],
)
def test_spectrum_walks_each_plateau_once(monkeypatch, rank, max_factors, walks):
    # at most one walk per class, the identity's included; a class first
    # reached by a signed permutation is relabelled from its base's
    # plateau.  At one factor those are the classes of L = 1 other than
    # the identity's, so the walks are the identity's and one per move class.
    # Each walk starts from a shortest conjugate already in hand.
    calls = []

    def counted(psi):
        assert _shortest_conjugate(psi)[0] == psi
        calls.append(psi)
        return _plateau_around(psi)

    monkeypatch.setattr(whitehead_module, "_plateau_around", counted)
    rep = spectrum(rank, max_factors)
    classes = sum(mult for _, mult, _ in rep.entries)
    assert len(calls) == walks <= classes
    if max_factors == 1:
        assert walks == 1 + sum(mult for value, mult, _ in rep.entries if value != 1)


@pytest.mark.parametrize(
    "rank, max_factors, tables",
    [(2, 1, 1), (2, 2, 5), (2, 3, 15), (2, 4, 37), (3, 1, 1), (3, 2, 43)],
)
def test_spectrum_builds_a_table_only_for_classes_reached_by_a_move(
    monkeypatch, rank, max_factors, tables
):
    # the identity's class and each expanded class first reached by a
    # move build one table, the one walk of its class step; a class first
    # reached by a signed permutation is not expanded (12, 48, 120 and 90
    # tables at (2, 2), (2, 3), (2, 4) and (3, 2) when every class below
    # the last level was)
    calls = []
    cross_mass = boundary_module._cross_mass

    def counted(*args, **kwargs):
        calls.append(args[1])
        return cross_mass(*args, **kwargs)

    monkeypatch.setattr(boundary_module, "_cross_mass", counted)
    spectrum(rank, max_factors)
    assert len(calls) == tables


@pytest.mark.parametrize(
    "rank, max_factors", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]
)
def test_spectrum_equals_the_loop_on_keyed_steps(rank, max_factors):
    # each class keyed once, each plateau walked from the conjugate in
    # hand and each (score, D) one Fraction: the same entries, min_gap
    # and budget as the loop that does each twice on keyed tables
    budget, ref_budget = Budget(), Budget()
    rep = spectrum(rank, max_factors, budget=budget)
    assert rep == spectrum_by_keyed_steps(rank, max_factors, budget=ref_budget)
    assert budget.spent == ref_budget.spent


@settings(max_examples=30, deadline=None)
@given(
    rank=st.integers(2, 5),
    n_factors=st.integers(1, 3),
    v_len=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_class_step_equals_the_keyed_step(rank, n_factors, v_len, seed):
    # the walk's integers scored by place give the keyed table's D, total
    # and scores, in the same move order (`_steepest` keeps the first
    # minimum), and spend the same nodes
    rng = random.Random(seed)
    phi = conjugated_composition(rank, n_factors, v_len, rng)
    budget, ref_budget = Budget(), Budget()
    step = _expand(phi, None, budget, PartitionCache())
    assert step == class_step_by_table(phi, ref_budget, PartitionCache())
    assert budget.spent == ref_budget.spent


def test_the_class_step_builds_no_word(monkeypatch):
    # a factorization and a spectrum: no Word is built by a class step,
    # outside the maps it reads (the shortest conjugate's construction
    # and its Nielsen chain), so no keyed table can come back unseen.
    # The move table is built once per rank, first.
    from stretchfactor import automorphisms, words

    for rank in (2, 3):
        _move_data(rank)
    built = []
    depth = [0]
    maps = {automorphisms.Automorphism.__init__.__code__, automorphisms._nielsen_factors.__code__}

    def counted(make):
        def wrapped(*args):
            if depth[0]:
                frame = sys._getframe(1)
                while frame.f_code is not _expand.__code__:
                    if frame.f_code in maps:
                        break
                    frame = frame.f_back
                else:
                    built.append(sys._getframe(1).f_code.co_name)
            return make(*args)
        return wrapped

    def expand(*args):
        depth[0] += 1
        try:
            return _expand(*args)
        finally:
            depth[0] -= 1

    new = counted(words.Word.__new__)
    monkeypatch.setattr(words.Word, "__new__", staticmethod(new))
    unchecked = counted(words._unchecked_word)
    for module in (words, automorphisms, boundary_module):
        if hasattr(module, "_unchecked_word"):
            monkeypatch.setattr(module, "_unchecked_word", unchecked)
    monkeypatch.setattr(whitehead_module, "_expand", expand)
    factorize(pooled_map("factorize3-0020"))
    spectrum(2, 3)
    assert built == []


def _patch_scores(monkeypatch, rescore):
    cut_scores = whitehead_module._cut_scores

    def patched(rank, num):
        total, scores = cut_scores(rank, num)
        return total, [(rescore(value, total), tau) for value, tau in scores]

    monkeypatch.setattr(whitehead_module, "_cut_scores", patched)


def test_spectrum_checks_each_class_against_its_parents_cut(monkeypatch):
    # every move's score off by 1/D: the first class reached by a move and
    # expanded at level 1 sums its own table to a different value
    _patch_scores(monkeypatch, lambda value, total: value + 1)
    with pytest.raises(AssertionError, match="the cut formula gave L = "):
        spectrum(2, 2)


def test_rank3_spectrum_of_single_generators():
    rep = spectrum(3, 1)
    assert rep.values() == (1, F(6, 5), F(19, 15))
    assert rep.min_gap == F(1, 15)


def random_map(rank, n_factors, v_len, rng):
    """A random composition of generators, conjugated by a random word."""
    phi = random_composition(rank, n_factors, rng)
    return conj(phi, random_reduced(v_len, rank, rng)) if v_len else phi


@settings(max_examples=40, deadline=None)
@given(
    rank=st.integers(2, 4),
    n_factors=st.integers(1, 5),
    v_len=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_normalize_matches_the_cost_search(rank, n_factors, v_len, seed):
    phi = random_map(rank, n_factors, v_len, random.Random(seed))
    assert canonical_out_key(phi) == normalize_by_costs(phi.fwd)


def _relabelled(sigma, images):
    return tuple(tuple(map(sigma, w)) for w in images)


@settings(max_examples=30, deadline=None)
@given(
    rank=st.integers(2, 4),
    n_factors=st.integers(1, 5),
    v_len=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_plateau_after_a_signed_permutation_is_the_relabelled_plateau(
    rank, n_factors, v_len, seed
):
    # spectrum relabels its base's plateau for each signed permutation
    phi = random_map(rank, n_factors, v_len, random.Random(seed))
    plateau = _plateau(phi.fwd)
    for g in enumerate_signed_permutations(rank):
        sigma = SignedPermutation(rank, tuple(x for (x,) in g.fwd))
        assert _plateau(compose(g, phi).fwd) == {_relabelled(sigma, t) for t in plateau}


def _conjugated_moves(rank, g):
    """j with tau_j = sigma^-1 o tau_i o sigma, for each move i of `_move_data`."""
    moves = [tau.automorphism() for tau, _, _ in _move_data(rank)]
    index = {phi: j for j, phi in enumerate(moves)}
    return [index[compose(g.inverse(), compose(tau, g))] for tau in moves]


def test_a_move_conjugated_by_a_signed_permutation_is_a_move():
    # Lyndon-Schupp I.4, on which spectrum's skipping of relabelled
    # classes rests: every sigma at ranks 2 and 3 and a seeded sample at
    # rank 4 permutes the non-identity moves, and the identity fixes each
    rng = random.Random(4)
    sigmas = {rank: enumerate_signed_permutations(rank) for rank in (2, 3)}
    sigmas[4] = [identity(4)] + rng.sample(enumerate_signed_permutations(4), 6)
    for rank, gs in sigmas.items():
        for g in gs:
            index = _conjugated_moves(rank, g)
            assert sorted(index) == list(range(len(index)))
            if g.is_identity():
                assert index == sorted(index)


@settings(max_examples=15, deadline=None)
@given(
    rank=st.integers(2, 4),
    n_factors=st.integers(1, 4),
    v_len=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_step_of_sigma_o_b_is_the_step_of_b_relabelled(rank, n_factors, v_len, seed):
    # tau_i o sigma o B = sigma o tau_j o B: the step built from scratch
    # for sigma o B, the reference, gives the same L and move scores as
    # fractions as B's, and each move's class is sigma applied to B's, so
    # expanding sigma o B finds no class that B's expansion cannot
    rng = random.Random(seed)
    base = conjugated_composition(rank, n_factors, v_len, rng)
    g = rng.choice(enumerate_signed_permutations(rank))
    sigma = SignedPermutation(rank, tuple(x for (x,) in g.fwd))
    phi = compose(g, base)
    cache = PartitionCache()
    den, total, scores = _expand(base, None, Budget(), cache)
    ref_den, ref_total, ref_scores = _expand(phi, None, Budget(), cache)
    assert F(ref_total, ref_den) == F(total, den)
    moves = [tau.automorphism() for tau, _, _ in _move_data(rank)]
    for i, j in enumerate(_conjugated_moves(rank, g)):
        assert F(ref_scores[i][0], ref_den) == F(scores[j][0], den)
        relabelled = {_relabelled(sigma, t) for t in _plateau(compose(moves[j], base).fwd)}
        assert _plateau(compose(moves[i], phi).fwd) == relabelled


@settings(max_examples=40, deadline=None)
@given(
    rank=st.integers(2, 4),
    n_factors=st.integers(1, 5),
    v_len=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_plateau_walked_from_any_of_its_tuples_is_the_same(rank, n_factors, v_len, seed):
    # so two plateaus are equal or disjoint, and spectrum decides a class
    # by looking up one tuple
    phi = random_map(rank, n_factors, v_len, random.Random(seed))
    plateau = _plateau(phi.fwd)
    for t in plateau:
        assert _plateau(t) == plateau


def test_move_data_seams_cancel_one_letter():
    # 2k * 4^(k-1) moves, less the 2k identity-typed ones; a move's turns
    # are those whose images cancel, one letter each (asserted on build)
    for rank in (2, 3, 4):
        data = _move_data(rank)
        assert len(data) == 2 * rank * (4 ** (rank - 1) - 1)
        assert data is _move_data(rank)
        for tau, lengths, turns in data:
            phi = tau.automorphism()
            letters = alphabet(rank)
            assert lengths == tuple(len(phi.letter_image(x)) for x in letters)
            for x, y in turns:
                u, v = phi.letter_image(x), phi.letter_image(y)
                assert y != -x and u[-1] == -v[0] == tau.multiplier


def test_every_move_cancels_at_two_turns_or_more():
    # so each move's getter returns a tuple of its turns' entries, read
    # off the cross walk's layout of the families
    for rank in range(2, 7):
        assert all(len(turns) >= 2 for _, _, turns in _move_data(rank)), rank
    num = [0 if j == i else 8 * i + j + 1 for i in range(8) for j in range(8)]
    table = cut_table_by_keys(4, num)
    for (_, _, turns), (_, _, getter) in zip(_move_data(4), _cut_terms(4)[1]):
        assert getter(num) == tuple(table[t] for t in turns)


def test_a_move_with_fewer_than_two_turns_is_an_engine_bug(monkeypatch):
    # a getter of one key would return the entry, not a tuple of it; the
    # first move is made to cancel at one turn only
    seams = iter([1])
    monkeypatch.setattr(whitehead_module, "cancellation", lambda u, v: next(seams, 0))
    with pytest.raises(AssertionError, match="cancels at 1 turns"):
        _move_data.__wrapped__(2)


@settings(max_examples=30, deadline=None)
@given(rank=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_cut_scores_match_the_turn_by_turn_sums(rank, seed):
    # any integers will do for the cut formula's sums, laid out as the
    # cross walk of the families lays them out (0 at each colour's own
    # group): the same total, and the same scores in the same move order,
    # as the turn-by-turn sums over the keyed table
    rng = random.Random(seed)
    bound = 10 ** rng.randint(1, 40)
    span = 2 * rank
    num = [
        0 if j == i else rng.randint(-bound, bound) for i in range(span) for j in range(span)
    ]
    table = cut_table_by_keys(rank, num)
    assert _cut_scores(rank, num) == cut_scores_by_turns(rank, table)


@settings(max_examples=12, deadline=None)
@given(
    rank=st.integers(2, 4),
    n_factors=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_cut_formula_matches_eta_length_for_every_move(rank, n_factors, seed):
    # ||tau_* nu|| from phi's depth-2 table is L_mu(tau o phi) for every
    # move and every kind of measure (module docstring of whitehead)
    rng = random.Random(seed)
    phi = random_composition(rank, n_factors, rng)
    cache = PartitionCache()
    fam = _depth1_family(phi, Budget(), cache)
    parts = {(x,): fam[x] for x in alphabet(rank)}
    for mu in sample_measures(rank, rng):
        den, num = _cross_mass(mu, parts)
        total, scores = _cut_scores(rank, num)
        assert F(total, den) == eta_length(phi, mu, cache=cache).value
        for value, tau in scores:
            moved = compose(tau.automorphism(), phi)
            assert F(value, den) == eta_length(moved, mu, cache=cache).value, tau.label()


@settings(max_examples=20, deadline=None)
@given(
    rank=st.integers(2, 4),
    n_factors=st.integers(1, 4),
    v_len=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_descent_step_matches_the_candidate_scan(rank, n_factors, v_len, seed):
    # the same move, ties broken toward the canonically smallest one
    phi = random_map(rank, n_factors, v_len, random.Random(seed))
    cache = PartitionCache()
    assert descent_step(phi, cache=cache) == descent_step_by_lengths(phi, cache=cache)


@settings(max_examples=25, deadline=None)
@given(
    rank=st.integers(2, 4),
    n_factors=st.integers(1, 5),
    v_len=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_factorize_lengths_are_the_partial_products_lengths(rank, n_factors, v_len, seed):
    phi = random_map(rank, n_factors, v_len, random.Random(seed))
    rep = factorize(phi)
    partial = rep.sigma
    assert rep.lengths[0] == length_exact(partial).value == 1
    for tau, value in zip(reversed(rep.taus), rep.lengths[1:]):
        partial = compose(tau.automorphism(), partial)
        assert length_exact(partial).value == value
    assert partial == phi


@settings(max_examples=40, deadline=None)
@given(
    rank=st.integers(2, 4),
    n_factors=st.integers(1, 6),
    v_len=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_non_simple_map_has_a_decreasing_move(rank, n_factors, v_len, seed):
    # the descent theorem: descent_step raises DescentStuckError otherwise
    phi = random_map(rank, n_factors, v_len, random.Random(seed))
    tau = descent_step(phi)
    if is_simple(phi) is not None:
        assert tau is None
    else:
        assert length_exact(compose(tau.automorphism(), phi)).value < length_exact(phi).value


def test_factorize_builds_no_candidate_map(monkeypatch):
    # A pooled rank-3 input of two steps.  Each step reads one depth-2
    # table, which is one pair-sum walk, and composes only the chosen
    # move; recomposing the report is one fold of its chain.  Measuring each
    # of the 90 candidate maps instead would take 184 compositions, 185
    # walks and, with one shared cache, 374 nodes (two steps of
    # oracles.descent_step_by_lengths).
    phi = pooled_map("factorize3-0020")
    counts = {"compose": 0, "fold": 0, "walks": 0}
    compose_, cross_mass = whitehead_module.compose, boundary_module._cross_mass
    fold = whitehead_module._fold

    def counted_compose(*args, **kwargs):
        counts["compose"] += 1
        return compose_(*args, **kwargs)

    def counted_fold(*args, **kwargs):
        counts["fold"] += 1
        return fold(*args, **kwargs)

    def counted_cross_mass(*args, **kwargs):
        counts["walks"] += 1
        return cross_mass(*args, **kwargs)

    monkeypatch.setattr(whitehead_module, "compose", counted_compose)
    monkeypatch.setattr(whitehead_module, "_fold", counted_fold)
    monkeypatch.setattr(boundary_module, "_cross_mass", counted_cross_mass)
    budget = Budget()
    rep = factorize(phi, budget=budget)
    assert rep.lengths == (1, F(6, 5), F(7, 5))
    assert len(rep.taus) == 2
    assert counts == {"compose": 2, "fold": 1, "walks": 2 * 1}
    assert budget.spent == 9


def test_factorize_checks_each_table_against_the_previous_cut(monkeypatch):
    # every move's score off by 1/D: the same moves are chosen, and the
    # second step's table sums to its true length, not to the first cut
    _patch_scores(monkeypatch, lambda value, total: value + 1)
    with pytest.raises(AssertionError, match="the cut formula gave L = "):
        factorize(pooled_map("factorize3-0020"))


def test_no_move_going_down_above_unit_length_is_stuck(monkeypatch, nielsen_map):
    # the descent theorem promises a move down whenever L > 1
    _patch_scores(monkeypatch, lambda value, total: total)
    message = f"L = 7/6 for the non-simple map {nielsen_map.key()!r}"
    for run in (descent_step, factorize):
        with pytest.raises(DescentStuckError, match=re.escape(message)):
            run(nielsen_map)


def test_a_non_simple_map_at_unit_length_is_an_engine_bug(monkeypatch, nielsen_map):
    # L = 1 holds exactly for simple maps (KKS), so descent trusts the cut
    # and checks simplicity once, where it stops
    monkeypatch.setattr(whitehead_module, "is_simple", lambda auto: None)
    for run, phi in ((factorize, nielsen_map), (descent_step, inner(2, w("ab")))):
        with pytest.raises(AssertionError, match="L = 1 at the non-simple map"):
            run(phi)


@pytest.mark.parametrize(
    "phi, walks, spent",
    [(inner(2, w("ab")), 1, 0), (pooled_map("factorize3-0020"), 2, 9)],
)
def test_factorize_tests_simplicity_once(monkeypatch, phi, walks, spent):
    # a simple input takes L = 1 from its one depth-2 table (one
    # _cross_mass walk, no _pair_mass walk), and a descent stops where
    # the cut gives L = 1; each checks simplicity once, at the end
    counts = {"is_simple": 0, "cross": 0, "pair": 0}

    def counted(name, f):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(whitehead_module, "is_simple", counted("is_simple", is_simple))
    for name, attr in (("cross", "_cross_mass"), ("pair", "_pair_mass")):
        monkeypatch.setattr(boundary_module, attr, counted(name, getattr(boundary_module, attr)))
    budget = Budget()
    factorize(phi, budget=budget)
    assert counts == {"is_simple": 1, "cross": walks, "pair": 0}
    assert budget.spent == spent


@settings(max_examples=40, deadline=None)
@given(
    rank=st.integers(2, 3),
    n_factors=st.integers(1, 4),
    v_len=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_descent_is_class_level(rank, n_factors, v_len, seed):
    # With one shortest conjugate psi, phi and every conjugate of it read
    # psi's table, so descent picks the same move for the same nodes, and
    # a factorization makes the same moves through the same lengths.
    rng = random.Random(seed)
    phi = random_composition(rank, n_factors, rng)
    assume(len(_plateau(phi.fwd)) == 1)
    other = conj(phi, random_reduced(v_len, rank, rng))
    steps = []
    for f in (phi, other):
        budget = Budget()
        steps.append((descent_step(f, budget=budget), budget.spent))
    assert steps[0] == steps[1]
    reports = [factorize(phi), factorize(other)]
    assert reports[0].taus == reports[1].taus
    assert reports[0].lengths == reports[1].lengths
