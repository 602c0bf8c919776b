"""Independent brute-force oracles for cross-checking the engine.

These deliberately avoid the engine's machinery (translation identity,
compositional assembly, closed-form atom families): every decision comes
from enumerating all reduced extensions of a cell to a fixed absolute
depth and comparing image prefixes directly.  The frontier depth used by
the tests far exceeds the observed cancellation of the maps under test,
and every decision is asserted to be unanimous over the whole frontier.

`sweep_depth1` is a generic maximal-subtree sweep that works for any
atom; it is the reference for the engine's closed-form atom families.
`family_by_leaf_preimages` assembles the families of head o rest the
generic way, one rest-preimage per label of the head atom's swept
family; it is the reference for the closed-form step of an assembly.
`translate_cylinder` translates one cylinder at a time, splitting a
cylinder that the translate cancels whole into its children; with
`CylinderPartition.from_words` it is the reference for the graft that
translates a whole trie.
`subtract_by_leaves` removes cells from a family by splitting every
label above a removed cell into its children until each piece is
removed whole or kept whole; it is the reference for the trie
difference that builds a transvection step's a-family.
`pair_mass_by_pairs` sums pair masses one pair at a time through
`mu.eval`; it is the reference for the engine's prefix-tree walk.
`covers_boundary` decides covering by uniform mass, not by coalescing.
`canonical_words_by_sort` is the engine's former canonical form: build a
prefix tree, coalesce, flatten to words and sort; it is the reference
for the canonical tries that partitions now keep.
`length_by_cancellation` computes a length by the cancellation (Busemann)
formula from preimage partitions and `mu.eval` alone, with no pair sums.
`descent_step_by_lengths` is the former descent step: it builds every
candidate move's composite and measures it; it is the reference for the
cut-formula scoring.  `cut_scores_by_turns` is the former `_cut_scores`,
which sums each move's turns through a generator of lookups into a
`Word`-keyed table; it is the reference for the one getter per move.
`keyed_cross_mass` keys the cross walk's layout as the walk once
returned it, and `cut_table_by_keys` builds from it the keyed depth-2
table that `cut_scores_by_turns` reads.  `class_step_by_table` is the
former class step, the keyed table of `boundary._table` scored by
`cut_scores_by_turns`; it is the reference for `whitehead._expand`,
which scores the walk's integers by place.  `spectrum_by_keyed_steps` is
the former spectrum loop on those steps, which descends each new class's
conjugate twice, takes each class key twice and builds a Fraction per
class; it is the reference for the loop that does each once.  `normalize_by_costs` is the
former conjugation normal form, which rebuilds and re-measures the image
tuple for every letter at every step; it is the reference for the
tally-driven one.
`shortest_conjugate_by_steps` is the former shortest-conjugate descent,
which rebuilds every image and recounts the first and last letters after
each letter of the conjugator; it is the reference for the descent that
conjugates each image in place at its ends.
`simple_witness` is the former simplicity test, which cyclically reduces
every image and searches the conjugators u<p> of one image; it is the
reference for the shortest-conjugate descent.
`spectrum_by_lengths` is the former spectrum: it builds every map of the
ball with `compose` and measures each class with `length_exact`; it is
the reference for the spectrum read off its parents' depth-2 tables.
`compose_by_atoms` is the former expression parser, which parses every
atom afresh, with no cache, and composes the atoms one at a time with
`compose`, building and certifying every intermediate map; it is the
reference for the one-fold parser and its atom cache.
`validate_by_fractions` is the former `MarkovSpec.validate`, which sums
and multiplies Fractions; it is the reference for the integer checks.
`markov_chain_by_fractions` is the former construction of a Markov
measure's chain from Fractions; it is the reference for the chain built
from the validated integers.
`is_prefix` and `dump_markov_spec` are helpers only tests need: a prefix
test on words, and the JSON text `load_markov_spec` reads.
"""

import json
import math
from fractions import Fraction
from operator import mul
from typing import Optional

from stretchfactor import (
    DescentStuckError,
    ForbiddenTransitionError,
    InputError,
    NotStationaryError,
    NotStochasticError,
    PartitionCache,
    SignedPermutation,
    SpectrumReport,
    Word,
    canonical_out_key,
    compose,
    enumerate_second_kind,
    enumerate_signed_permutations,
    identity,
    is_simple,
    length_exact,
    preimage_partition,
    uniform_measure,
)
from stretchfactor.automorphisms import (
    _parse_expr_atom,
    _plateau,
    _shortest_conjugate,
    _substitute,
)
from stretchfactor.boundary import CylinderPartition, _resolve, _table
from stretchfactor.measures import frac_str
from stretchfactor.whitehead import (
    _key_text,
    _move_data,
    _permutation_letters,
    _relabelled,
)
from stretchfactor.words import (
    all_words,
    alphabet,
    cancellation,
    concat,
    cyclic_reduce,
    extension_letters,
    format_letter,
    format_word,
    inverse,
    word_key,
)



def compose_by_atoms(rank, text):
    """The generator expression `text`, composed one atom at a time."""
    result = None
    for part in text.split("*"):
        # the uncached parser, so that the oracle shares no atom with the engine
        atom = _parse_expr_atom.__wrapped__(rank, part.strip())
        result = atom if result is None else compose(result, atom)
    return result


def validate_by_fractions(spec):
    """The checks of `MarkovSpec.validate`, in Fractions, in its order."""
    letters = alphabet(spec.rank)
    if spec.mass <= 0:
        raise NotStochasticError("mass must be positive")
    if set(spec.initial) != set(letters):
        raise InputError("initial distribution must cover the alphabet")
    if any(p < 0 for p in spec.initial.values()):
        raise NotStochasticError("initial probabilities must be nonnegative")
    if sum(spec.initial.values()) != 1:
        raise NotStochasticError("initial probabilities must sum to 1")
    for x in letters:
        row = spec.transitions.get(x)
        if row is None or set(row) != set(letters):
            raise InputError(f"transition row of {format_letter(x)} must cover the alphabet")
        if row[-x] != 0:
            raise ForbiddenTransitionError(
                f"P({format_letter(x)}, {format_letter(-x)}) must be 0"
            )
        if any(q < 0 for q in row.values()):
            raise NotStochasticError("transition probabilities must be nonnegative")
        if sum(row.values()) != 1:
            raise NotStochasticError(
                f"transition row of {format_letter(x)} must sum to 1"
            )
    for y in letters:
        inflow = sum(spec.initial[x] * spec.transitions[x][y] for x in letters)
        if inflow != spec.initial[y]:
            raise NotStationaryError(
                f"initial distribution is not stationary at {format_letter(y)}"
            )


def markov_chain_by_fractions(spec):
    """(E, D, init, step) of a valid spec's Markov measure, read off its Fractions."""
    letters = alphabet(spec.rank)
    start = {x: spec.mass * spec.initial[x] for x in letters}
    moves = spec.transitions
    e = math.lcm(*(q.denominator for q in start.values()))
    d = math.lcm(*(moves[y][x].denominator for y in letters for x in letters))
    init = {x: ({x: int(e * q)} if q else {}) for x, q in start.items()}
    step = {x: {(y, x): int(d * moves[y][x]) for y in letters if moves[y][x]} for x in letters}
    return e, d, init, step


def is_prefix(u, v):
    return len(u) <= len(v) and tuple(v[: len(u)]) == tuple(u)


def dump_markov_spec(spec):
    doc = {
        "rank": spec.rank,
        "mass": frac_str(spec.mass),
        "p": {format_letter(x): frac_str(q) for x, q in sorted(spec.initial.items())},
        "P": {
            format_letter(x): {
                format_letter(y): frac_str(q) for y, q in sorted(row.items())
            }
            for x, row in sorted(spec.transitions.items())
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)


CELL_DEPTH = 4
FRONTIER = 12
_PREFIX_LEN = 3

_PREFIX_SETS: dict = {}


def prefix_sets(auto, frontier=FRONTIER):
    """Per depth-4 cell, every image prefix of length 3 over the frontier.

    `frontier` is the absolute depth of the enumeration; a map whose
    images cancel little may use a shallower one than the default.

    Images are maintained incrementally on a mutable stack; since letter
    images are reduced, all cancellation happens before any append, so a
    step is undone by truncating and restoring the popped letters.
    """
    key = (auto.key(), frontier)
    cached = _PREFIX_SETS.get(key)
    if cached is not None:
        return cached
    k = auto.rank
    images = {c: auto.letter_image(c) for c in range(-k, k + 1) if c}

    def sweep(v, out, sink):
        if len(v) == frontier:
            assert len(out) >= _PREFIX_LEN, "frontier too shallow for this map"
            sink.add(tuple(out[:_PREFIX_LEN]))
            return
        for c in extension_letters(v, k):
            piece = images[c]
            popped = []
            appended = 0
            for y in piece:
                if appended == 0 and out and out[-1] == -y:
                    popped.append(out.pop())
                else:
                    out.append(y)
                    appended += 1
            sweep(v + (c,), out, sink)
            if appended:
                del out[-appended:]
            out.extend(reversed(popped))

    result = {}
    for cell in all_words(CELL_DEPTH, k):
        sink: set = set()
        sweep(tuple(cell), list(auto.apply(cell)), sink)
        result[cell] = sink
    _PREFIX_SETS[key] = result
    return result


def brute_depth1(auto, frontier=FRONTIER):
    """Depth-1 preimage families from the flat enumeration; None if undecided."""
    buckets: dict = {}
    for cell, prefixes in prefix_sets(auto, frontier).items():
        firsts = {p[0] for p in prefixes}
        if len(firsts) != 1:
            return None
        buckets.setdefault(firsts.pop(), []).append(cell)
    return {y: canonical_words_by_sort(auto.rank, ws) for y, ws in buckets.items()}


def brute_preimage_mass(auto, u):
    """Uniform mass of the preimage of Cyl(u), fully decided or AssertionError."""
    assert len(u) <= _PREFIX_LEN
    mu = uniform_measure(auto.rank)
    total = Fraction(0)
    target = tuple(u)
    for cell, prefixes in prefix_sets(auto).items():
        hits = {p[: len(u)] == target for p in prefixes}
        assert len(hits) == 1, f"cell {cell} undecided for target {u}"
        if hits.pop():
            total += mu.eval(cell)
    return total


def sweep_depth1(atom):
    """Depth-1 preimage partitions of an atom by a sound frontier sweep.

    Let M, M' be the letter-image length maxima of the atom and its
    inverse.  At depth L = max(2, M'(M + 1)) one more letter cancels at
    most M letters of an image, so a subtree whose frontier images all
    start with y maps into Cyl(y); a post-order sweep collects the
    maximal such subtrees, which cover the boundary.
    """
    k = atom.rank
    m, mp = atom.lipschitz()
    lstar = max(2, mp * (m + 1))
    buckets: dict[int, list[Word]] = {y: [] for y in alphabet(k)}

    def sweep(w: tuple, img: Word) -> Optional[int]:
        # Each further letter cancels at most m letters of the image, so a
        # long enough image pins the first letter of the whole subtree.
        if len(w) >= lstar or len(img) > m * (lstar - len(w)):
            return img[0]
        agreed: Optional[int] = None
        consistent = True
        kids = []
        for c in extension_letters(w, k):
            child = sweep(w + (c,), concat(img, atom.letter_image(c)))
            kids.append((c, child))
            if child is None or (agreed is not None and child != agreed):
                consistent = False
            elif agreed is None:
                agreed = child
        if consistent and agreed is not None:
            return agreed
        for c, child in kids:
            if child is not None:
                buckets[child].append(Word(w + (c,)))
        return None

    for c in alphabet(k):
        label = sweep((c,), atom.letter_image(c))
        if label is not None:
            buckets[label].append(Word((c,)))
    return {y: CylinderPartition.from_words(k, ws) for y, ws in buckets.items()}


def family_by_leaf_preimages(head, rest):
    """Depth-1 families of head o rest, as shortlex label tuples: for each
    letter y, the rest-preimages of every label of head's swept family of
    y, their labels canonicalized together."""
    cache = PartitionCache()
    return {
        y: canonical_words_by_sort(
            head.rank,
            [v for w in part.leaves for v in preimage_partition(rest, w, cache=cache).leaves],
        )
        for y, part in sweep_depth1(head).items()
    }


def translate_cylinder(f, v, rank):
    """The set f * Cyl(v) as disjoint cylinders.

    A single cylinder Cyl(reduce(f v)) unless v is a prefix of f^-1, that
    is, unless f cancels all of v, in which case Cyl(v) splits into
    children first.  Accepts the empty v (the whole boundary).
    """
    f = Word(f)
    n = len(f)
    out = []
    stack = [Word(v)]
    while stack:
        u = stack.pop()
        c = cancellation(f, u)
        if c == len(u):
            stack.extend(Word(u + (x,)) for x in extension_letters(u, rank))
        else:
            out.append(Word(f[: n - c] + u[c:]))
    return out


def subtract_by_leaves(rank, words, removed):
    """The labels of (union of words) minus (union of removed), uncoalesced.

    A label that properly contains a removed cell splits into its
    children; a label equal to a removed cell is dropped.  Raises
    AssertionError if a removed cell is not inside the union of words.
    """
    removed = {tuple(r) for r in removed}
    out = []
    stack = [tuple(p) for p in words]
    while stack:
        p = stack.pop()
        if p in removed:
            removed.discard(p)
        elif any(len(r) > len(p) and is_prefix(p, r) for r in removed):
            stack.extend(p + (c,) for c in extension_letters(p, rank))
        else:
            out.append(p)
    if removed:
        raise AssertionError("removed cells outside the family")
    return out


def pair_mass_by_pairs(mu, p1, p2):
    """Sum of mu(w1^-1 w2) over w1 in p1 and w2 in p2, one eval per pair."""
    total = Fraction(0)
    for w1 in p1.words:
        left = inverse(w1)
        for w2 in p2.words:
            total += mu.eval(concat(left, w2))
    return total


def covers_boundary(rank, words):
    """True iff the cylinders are nonempty, pairwise disjoint and cover the boundary.

    The complement of finitely many cylinders is a finite union of
    cylinders, so disjoint cylinders cover exactly when their uniform
    masses sum to one.
    """
    words = [tuple(w) for w in words]
    if not all(words):
        return False
    for i, p in enumerate(words):
        if any(i != j and is_prefix(p, q) for j, q in enumerate(words)):
            return False
    mu = uniform_measure(rank)
    return sum((mu.eval(w) for w in words), Fraction(0)) == 1


def length_by_cancellation(auto, mu):
    """L_mu(phi) as the drift of the image of a mu-random ray.

    Write the ray as x xi' (xi' not starting with x^-1).  Its image gains
    |phi(x)| - 2c letters, c the cancellation between phi(x) and
    phi(xi'), and c >= j exactly when phi(xi') lies in Cyl(s_j), s_j the
    first j letters of phi(x)^-1.  So
      L = sum_x mu(x) |phi(x)|
          - 2 sum_x sum_{j <= |phi(x)|} sum mu(x w),
    the last sum over the cells w of phi^-1 Cyl(s_j) with w_1 != x^-1
    (Kaimanovich-Kapovich-Schupp, math/0504105; Cooper's bounded
    cancellation).  It reads preimage partitions and mu.eval, and neither
    pair sums nor the measure's automaton.
    """
    cache = PartitionCache()
    total = Fraction(0)
    for x in alphabet(auto.rank):
        image = auto.letter_image(x)
        total += mu.eval((x,)) * len(image)
        s = inverse(image)
        for j in range(1, len(s) + 1):
            for w in preimage_partition(auto, s[:j], cache=cache):
                if w[0] != -x:
                    total -= 2 * mu.eval((x,) + w)
    return total


def canonical_words_by_sort(rank, words):
    """Sort, check pairwise disjointness, coalesce complete sibling families."""
    root = _trie(words)
    if not root:
        return ()
    if _collapse(root, rank, 0):
        raise InputError("partition coalesces to the full boundary")
    out: list[Word] = []
    _collect(root, (), out)
    out.sort(key=word_key)
    return tuple(out)


_MISSING = object()


def _trie(words):
    """Prefix tree of disjoint nonempty labels: nested dicts, None at the leaves.

    Raises InputError naming a word whose cylinder overlaps an earlier one.
    """
    root: dict = {}
    for w in words:
        if not w:
            raise InputError("partition labels must be nonempty")
        node = root
        for c in w[:-1]:
            nxt = node.get(c, _MISSING)
            if nxt is None:
                raise InputError(f"overlapping cylinders at {format_word(w)!r}")
            if nxt is _MISSING:
                node[c] = nxt = {}
            node = nxt
        if w[-1] in node:
            raise InputError(f"overlapping cylinders: {format_word(w)!r} collides")
        node[w[-1]] = None
    return root


def _collapse(node: dict, rank: int, depth: int) -> bool:
    complete = True
    for c in list(node):
        child = node[c]
        if child is not None:
            if _collapse(child, rank, depth + 1):
                node[c] = None
            else:
                complete = False
    needed = 2 * rank if depth == 0 else 2 * rank - 1
    return complete and len(node) == needed


def _collect(node: dict, prefix: tuple, out: list[Word]) -> None:
    for c, child in node.items():
        if child is None:
            out.append(Word(prefix + (c,)))
        else:
            _collect(child, prefix + (c,), out)


def descent_step_by_lengths(auto, *, budget=None, cache=None):
    """The second-kind move minimizing L(tau o phi), if one goes strictly down.

    Ties break toward the canonically smallest move.  Raises
    DescentStuckError when phi is non-simple yet no move decreases the
    length, since the descent theorem promises one exists.
    """
    budget, cache = _resolve(budget, cache)
    base = length_exact(auto, budget=budget, cache=cache).value
    best = None
    for tau in enumerate_second_kind(auto.rank):
        if tau.is_identity():
            continue
        value = length_exact(
            compose(tau.automorphism(), auto), budget=budget, cache=cache
        ).value
        key = (value, tau.sort_key())
        if value < base and (best is None or key < best[:2]):
            best = (value, tau.sort_key(), tau)
    if best is not None:
        return best[2]
    if is_simple(auto) is not None:
        return None
    raise DescentStuckError(
        f"no second-kind move decreases L = {frac_str(base)} for the "
        f"non-simple map {auto.key()!r}"
    )


def cut_scores_by_turns(rank, num):
    """(D ||nu||, [(D ||tau_* nu||, tau) for each non-identity move]), each
    move's turns summed one lookup at a time."""
    ones = [num[(x,)] for x in alphabet(rank)]
    scores = [
        (sum(map(mul, ones, lengths)) - 2 * sum(num[t] for t in turns), tau)
        for tau, lengths, turns in _move_data(rank)
    ]
    return sum(ones), scores


def keyed_cross_mass(rank, parts, num):
    """{(a^-1,) + v: num's entry for the colour v and the group a} over
    a != v1, from `boundary._cross_mass`'s layout of `parts`: the entry of
    the i-th colour and the j-th letter of `alphabet` at 2k i + j.  The
    place of a colour's own first letter must hold 0."""
    letters = alphabet(rank)
    span = len(letters)
    assert len(num) == span * len(parts)
    out = {}
    for i, v in enumerate(parts):
        for j, a in enumerate(letters):
            if a == v[0]:
                assert num[span * i + j] == 0, (v, a)
            else:
                out[Word((-a,) + tuple(v))] = num[span * i + j]
    return out


def cut_table_by_keys(rank, num):
    """The keyed depth-2 table {v: D nu(v)} of a cross-walk layout of the
    2k families, one colour per letter in `alphabet` order: D nu(xy) from
    `keyed_cross_mass`, and D nu(x) the sum of D nu(xc) over c."""
    letters = alphabet(rank)
    two = keyed_cross_mass(rank, [(x,) for x in letters], num)
    table = {Word((x,)): sum(two[(x, c)] for c in letters if c != -x) for x in letters}
    table.update((v, two[v]) for v in all_words(2, rank))
    return table


def class_step_by_table(auto, budget, cache):
    """(D, D L(phi), scores) of phi's class step as it was: the `Word`-keyed
    depth-2 table of the uniform measure (`boundary._table`), scored by
    `cut_scores_by_turns`."""
    den, num = _table(auto, uniform_measure(auto.rank), 2, budget, cache)
    total, scores = cut_scores_by_turns(auto.rank, num)
    return den, total, scores


def spectrum_by_keyed_steps(rank, max_factors, *, budget=None, cache=None):
    """The former `spectrum` loop, on `class_step_by_table`.

    Each class step checks its table against its parent's cut as a
    Fraction; each class reached by a move is descended again before its
    plateau is walked; each class key is the shortlex-least tuple of its
    plateau, taken again from the keys to name each value; each class's
    L is a new Fraction.
    """
    budget, cache = _resolve(budget, cache)
    root = identity(rank)
    plateau = _plateau(root.fwd)
    key = min(plateau, key=_tuple_sort_key)
    classes = {key: Fraction(1)}
    met = set(plateau)
    frontier = [(root, key, plateau)]
    for level in range(1, max_factors + 1):
        sources, frontier = frontier, []
        for base, t, plateau in sources:
            den, total, scores = class_step_by_table(base, budget, cache)
            assert Fraction(total, den) == classes[t]
            moves = [(tau.automorphism(), score, None) for score, tau in scores]
            moves += [(None, total, letters) for letters in _permutation_letters(rank)]
            for g, score, letters in moves:
                if letters is None:
                    psi = _shortest_conjugate([_substitute(g.fwd, w) for w in t])[0]
                    if psi in met:
                        continue
                    new = _plateau(psi)
                else:
                    if _relabelled(letters, t) in met:
                        continue
                    new = {_relabelled(letters, u) for u in plateau}
                key = min(new, key=_tuple_sort_key)
                met.update(new)
                classes[key] = Fraction(score, den)
                if level < max_factors and letters is None:
                    frontier.append((compose(g, base), key, new))
    by_value = {}
    for key, value in classes.items():
        by_value.setdefault(value, []).append(key)
    entries = tuple(
        (value, len(keys), _key_text(min(keys, key=_tuple_sort_key)))
        for value, keys in sorted(by_value.items())
    )
    values = [e[0] for e in entries]
    min_gap = min((b - a for a, b in zip(values, values[1:])), default=None)
    return SpectrumReport(
        rank=rank, max_factors=max_factors, entries=entries, min_gap=min_gap
    )


def _tuple_sort_key(images):
    return tuple(word_key(w) for w in images)


def _conjugate(c, images):
    """Images of x -> c phi(x) c^-1, given the reduced images of phi."""
    out = []
    for w in images:
        w = w[1:] if w and w[0] == -c else (c,) + w
        out.append(w[:-1] if w and w[-1] == c else w + (-c,))
    return tuple(out)


def _cost(images):
    return sum(len(w) for w in images)


def _deltas(images):
    """The change of the total image length under conjugation by each letter."""
    deltas = dict.fromkeys(alphabet(len(images)), 2 * len(images))
    for w in images:
        deltas[-w[0]] -= 2
        deltas[w[-1]] -= 2
    return deltas


def shortest_conjugate_by_steps(images):
    """(psi, v) with phi(x) = v psi(x) v^-1, psi of least total length.

    Letters are tried in `alphabet` order and c is taken when conjugating
    by it shrinks the total length; the images are rebuilt and the
    length changes recounted after every letter taken, until a pass over
    the alphabet takes none.
    """
    current = tuple(tuple(w) for w in images)
    v = []
    deltas = _deltas(current)
    improved = True
    while improved:
        improved = False
        for c in alphabet(len(current)):
            if deltas[c] < 0:
                current = _conjugate(c, current)
                v.append(-c)
                deltas = _deltas(current)
                improved = True
    return current, v


def normalize_by_costs(images):
    rank = len(images)
    current = tuple(tuple(w) for w in images)
    cost = _cost(current)
    # strict descent reaches a global minimum (canonical_out_key)
    improved = True
    while improved:
        improved = False
        for c in alphabet(rank):
            psi = _conjugate(c, current)
            if _cost(psi) < cost:
                current, cost, improved = psi, _cost(psi), True
    # the minimizers are the equal-cost plateau around it
    seen = {current}
    queue = [current]
    while queue:
        phi = queue.pop()
        for c in alphabet(rank):
            psi = _conjugate(c, phi)
            if psi not in seen and _cost(psi) == cost:
                seen.add(psi)
                queue.append(psi)
    return tuple(Word(w) for w in min(seen, key=_tuple_sort_key))


def simple_witness(phi):
    """Find (v, pi) with phi(x) = v pi(x) v^-1 for all x, if they exist.

    Each image must cyclically reduce to a single letter; writing
    phi(x) = u_x p_x u_x^-1 exactly, any valid conjugator lies in
    u_x <p_x> for every x, so candidates are enumerated from one letter
    and verified on all.  The search is complete for |v| <= max |phi(x)|
    and some witness is always that short.
    """
    cores = []
    conjs = []
    for x in range(1, phi.rank + 1):
        core, u = cyclic_reduce(phi.fwd[x - 1])
        if len(core) != 1:
            return None
        cores.append(core[0])
        conjs.append(u)
    if sorted(abs(c) for c in cores) != list(range(1, phi.rank + 1)):
        return None
    pi = SignedPermutation(phi.rank, tuple(cores))
    bound = max(len(w) for w in phi.fwd)
    x0 = min(range(phi.rank), key=lambda i: len(conjs[i]))
    u0, p0 = conjs[x0], Word((cores[x0],))
    for m in range(-(bound - len(u0)), bound - len(u0) + 1):
        power = Word(tuple(p0) * m if m >= 0 else tuple(inverse(p0)) * (-m))
        v = concat(u0, power)
        vi = inverse(v)
        if all(
            concat(v, concat(Word((cores[i],)), vi)) == phi.fwd[i]
            for i in range(phi.rank)
        ):
            return v, pi
    return None


def spectrum_by_lengths(rank, max_factors, *, cache=None):
    """Exact lengths of all compositions of up to max_factors generators.

    Every composition of the ball is built with `compose` and merged by
    `canonical_out_key`; each class is measured on the first map that
    reached it, by `length_exact`, and named by its least key in shortlex
    order.
    """
    gens = [t.automorphism() for t in enumerate_second_kind(rank)]
    gens += enumerate_signed_permutations(rank)
    seen = {}
    frontier = [identity(rank)]
    for _ in range(max_factors):
        sources, frontier = frontier, []
        for base in sources:
            for g in gens:
                phi = compose(g, base)
                key = canonical_out_key(phi)
                if key not in seen:
                    seen[key] = phi
                    frontier.append(phi)
    by_value = {}
    for key in sorted(seen, key=_tuple_sort_key):
        value = length_exact(seen[key], cache=cache).value
        by_value.setdefault(value, []).append(key)
    entries = tuple(
        (value, len(keys), ",".join(format_word(w) for w in keys[0]))
        for value, keys in sorted(by_value.items())
    )
    values = [e[0] for e in entries]
    min_gap = min((b - a for a, b in zip(values, values[1:])), default=None)
    return SpectrumReport(
        rank=rank, max_factors=max_factors, entries=entries, min_gap=min_gap
    )
