"""Exact preimages of boundary cylinders under an automorphism.

The engine computes, for an automorphism phi and a cylinder Cyl(u), the
finite prefix-free family of cylinders whose union is exactly
{rays xi : phi(xi) starts with u}.  Everything else (pushforward current
values, exact lengths, recentering) reduces to these partitions plus
exact rational arithmetic.

Four facts drive the computation:

* Closed-form atom families.  Every map factors into atoms, whose
  depth-1 preimage families are explicit.  A signed permutation sigma
  has sigma^-1(Cyl y) = Cyl(sigma^-1(y)).  An elementary transvection
  (x -> xa or x -> a^-1 x) fixes a and sends one signed letter s to
  s a: s = x for x -> xa, and s = x^-1 for x -> a^-1 x, since then
  x^-1 -> x^-1 a.  Letter images cancel only at the pairs (s, a^-1) and
  (a, s^-1), and each pair removes one letter and leaves one that
  nothing later cancels, so the first image letter of a ray is known
  from its first two letters:
    phi^-1(Cyl s)    = Cyl(s)
    phi^-1(Cyl s^-1) = Cyl(a s^-1)
    phi^-1(Cyl a)    = union of Cyl(a c) over c not in {a^-1, s^-1}
    phi^-1(Cyl a^-1) = Cyl(s^-1) union Cyl(a^-1)
    phi^-1(Cyl z)    = Cyl(z) for every other letter z.

* Translation identity.  Cyl(u) = u * (boundary minus Cyl(l)) for
  l = last(u)^-1, hence
  phi^-1(Cyl u) = phi^-1(u) * disjoint-union of phi^-1(Cyl z), z != l.
  Long targets therefore reduce to depth-1 partitions via exact
  word-by-cylinder translation.

* Compositionality.  (phi o psi)^-1(Cyl u) is the disjoint union of
  psi^-1(Cyl w) over the pieces w of phi^-1(Cyl u), so partitions of a
  composition assemble from the partitions of its factors.  A chain's
  family is assembled from its atoms in one right-to-left pass that
  builds each suffix of the chain once.

* Pair sums.  The current value on Cyl(a) x Cyl(u) is the sum of
  mu(w1^-1 w2) over w1 in phi^-1(Cyl a) and w2 in phi^-1(Cyl u)
  (Kapovich, "Currents on free groups", math/0412128).  A pair c x u,
  c y v splitting after a common prefix c has mass (init and steps of
  (x u)^-1) (steps of y v) 1 / (E D^(|u|+|v|+1)) over mu's automaton,
  so each edge of one prefix tree carries a row, each edge of the other
  a column, each summed over its subtree, and one walk of both trees
  gives the whole sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .automorphisms import Automorphism, conj
from .errors import InputError, ResourceLimitError
from .measures import FrequencyMeasure, uniform_measure
from .words import (
    EMPTY,
    Word,
    alphabet,
    all_words,
    concat,
    extension_letters,
    format_word,
    inverse,
    is_prefix,
    word_key,
)

DEFAULT_BUDGET = 10**7

ZERO = Fraction(0)
HALF = Fraction(1, 2)


class Budget:
    """Node counter shared across one public computation; never approximate.

    Every cylinder of an atom family and every assembled or translated
    cylinder is spent as it is made, and the computation stops with a
    ResourceLimitError as soon as the total passes the limit, so no work
    that fits is refused in advance.
    """

    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit = limit
        self.spent = 0

    def spend(self, n: int = 1) -> None:
        self.spent += n
        if self.spent > self.limit:
            raise ResourceLimitError(
                f"node budget exhausted ({self.spent} > {self.limit})",
                spent=self.spent,
                limit=self.limit,
            )


@dataclass(frozen=True)
class CylinderPartition:
    """Canonical prefix-free family of nonempty cylinder labels."""

    rank: int
    words: tuple[Word, ...]

    @classmethod
    def from_words(cls, rank: int, words: Iterable[Sequence[int]]) -> "CylinderPartition":
        return cls(rank, canonical_words(rank, words))

    def contains_cylinder(self, w: Sequence[int]) -> bool:
        # Canonical families have no complete sibling sets, so Cyl(w) lies in
        # the union iff some member is a prefix of w.
        return any(is_prefix(p, w) for p in self.words)

    def __iter__(self):
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)


def canonical_words(rank: int, words: Iterable[Sequence[int]]) -> tuple[Word, ...]:
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


def _trie(words: Iterable[Sequence[int]]) -> dict:
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


# -- exact translation of cylinder unions ---------------------------------


def translate_cylinder(f: Sequence[int], v: Sequence[int], rank: int) -> list[Word]:
    """The set f * Cyl(v) as disjoint cylinders.

    A single cylinder Cyl(reduce(f v)) unless v is a prefix of f^-1, in
    which case Cyl(v) splits into children first.  Accepts the empty v
    (the whole boundary).
    """
    fi = inverse(f)
    out: list[Word] = []
    stack = [Word(v)]
    while stack:
        u = stack.pop()
        if is_prefix(u, fi):
            base = tuple(u)
            for c in extension_letters(u, rank):
                stack.append(Word(base + (c,)))
        else:
            out.append(concat(f, u))
    return out


def translate_union(
    f: Sequence[int], words: Iterable[Sequence[int]], rank: int
) -> tuple[Word, ...]:
    """Canonical form of f * (disjoint union of cylinders)."""
    pieces: list[Word] = []
    for w in words:
        pieces.extend(translate_cylinder(f, w, rank))
    return canonical_words(rank, pieces)


# -- partition cache -------------------------------------------------------


class PartitionCache:
    """In-memory partitions, owned by the caller and keyed by the map.

    `families` maps an Automorphism to its depth-1 preimage families and
    `partitions` maps (Automorphism, target word) to a preimage
    partition; maps hash and compare by rank and forward images.
    """

    def __init__(self):
        self.families: dict[Automorphism, dict[int, CylinderPartition]] = {}
        self.partitions: dict[tuple[Automorphism, Word], CylinderPartition] = {}


def _resolve(budget: Optional[int | Budget], cache: Optional[PartitionCache]):
    """The caller's budget and cache, or fresh ones: no state outlives a call."""
    if budget is None:
        budget = Budget()
    elif isinstance(budget, int):
        budget = Budget(budget)
    return budget, (cache if cache is not None else PartitionCache())


# -- depth-1 partitions ----------------------------------------------------


def _atom_depth1(atom: Automorphism, budget: Budget) -> dict[int, CylinderPartition]:
    """Depth-1 preimage partitions of a single atom, in closed form.

    Spends one node per cylinder: 2k for a signed permutation, 4k - 2
    for a transvection.  Anything else is an engine bug and raises.
    """
    k = atom.rank
    if all(len(img) == 1 for img in atom.fwd):
        fam = {y: [atom.inverse_letter_image(y)] for y in alphabet(k)}
    else:
        s, a = _transvection_letters(atom)
        fam = {z: [Word((z,))] for z in alphabet(k)}
        fam[-s] = [Word((a, -s))]
        fam[a] = [Word((a, c)) for c in alphabet(k) if c not in (-a, -s)]
        fam[-a] = [Word((-s,)), Word((-a,))]
    budget.spend(sum(map(len, fam.values())))
    return {y: CylinderPartition.from_words(k, ws) for y, ws in fam.items()}


def _transvection_letters(atom: Automorphism) -> tuple[int, int]:
    """(s, a) with atom(s) = s a, for x -> xa (s = x) or x -> a^-1 x (s = x^-1)."""
    moved = [x for x in range(1, atom.rank + 1) if atom.fwd[x - 1] != (x,)]
    if len(moved) == 1 and len(atom.fwd[moved[0] - 1]) == 2:
        x = moved[0]
        first, last = atom.fwd[x - 1]
        if first == x and abs(last) != x:
            return x, last
        if last == x and abs(first) != x:
            return -x, -first
    raise AssertionError(
        f"{atom.key()} is neither a transvection nor a signed permutation"
    )


def _depth1_family(
    auto: Automorphism, budget: Budget, cache: PartitionCache
) -> dict[int, CylinderPartition]:
    """Depth-1 preimage partitions of a map, cached by the map.

    Leading factors are peeled off until a suffix of the chain is cached
    or is a single atom, whose family is closed-form; the longer suffixes are
    then assembled right to left, so each suffix is built once.
    """
    suffixes = [auto]
    fam = cache.families.get(auto)
    while fam is None and len(suffixes[-1].factors) > 1:
        suffixes.append(suffixes[-1].tail())
        fam = cache.families.get(suffixes[-1])
    if fam is None:
        fam = _atom_depth1(suffixes[-1].factors[0], budget)
        cache.families[suffixes[-1]] = fam
    for i in range(len(suffixes) - 2, -1, -1):
        chain, rest = suffixes[i], suffixes[i + 1]
        fam = _family_from_factors(chain.factors[0], rest, budget, cache)
        cache.families[chain] = fam
    return fam


def _family_from_factors(
    head: Automorphism,
    rest: Automorphism,
    budget: Budget,
    cache: PartitionCache,
) -> dict[int, CylinderPartition]:
    """Family of head o rest: rest-preimages of the pieces of head's family."""
    head_fam = _depth1_family(head, budget, cache)
    fam: dict[int, CylinderPartition] = {}
    for y in alphabet(head.rank):
        pieces: list[Word] = []
        for w in head_fam[y].words:
            pieces.extend(_preimage(rest, w, budget, cache).words)
        budget.spend(len(pieces))
        fam[y] = CylinderPartition.from_words(head.rank, pieces)
    return fam


def _preimage(
    auto: Automorphism, u: Word, budget: Budget, cache: PartitionCache
) -> CylinderPartition:
    key = (auto, u)
    part = cache.partitions.get(key)
    if part is not None:
        return part
    fam = _depth1_family(auto, budget, cache)
    if len(u) == 1:
        part = fam[u[0]]
    else:
        g = auto.apply_inverse(u)
        ell = -u[-1]
        pieces: list[Word] = []
        for z in alphabet(auto.rank):
            if z == ell:
                continue
            for w in fam[z].words:
                pieces.extend(translate_cylinder(g, w, auto.rank))
        budget.spend(len(pieces))
        part = CylinderPartition.from_words(auto.rank, pieces)
    cache.partitions[key] = part
    return part


# -- public operations -------------------------------------------------------


def preimage_partition(
    auto: Automorphism,
    u: Sequence[int],
    *,
    budget: Optional[int | Budget] = None,
    cache: Optional[PartitionCache] = None,
) -> CylinderPartition:
    """Exact canonical partition of {xi : phi(xi) in Cyl(u)}."""
    u = Word(u)
    if not u:
        raise InputError("target cylinder label must be nonempty")
    budget, cache = _resolve(budget, cache)
    return _preimage(auto, u, budget, cache)


def partition_mass(mu: FrequencyMeasure, part: CylinderPartition) -> Fraction:
    return sum((mu.eval(w) for w in part.words), ZERO)


def stable_prefix(
    auto: Automorphism,
    w: Sequence[int],
    *,
    refine: bool = True,
    budget: Optional[int | Budget] = None,
    cache: Optional[PartitionCache] = None,
) -> Word:
    """A word s with phi(Cyl w) inside Cyl(s).

    The unrefined answer truncates phi(w) by the certified cancellation
    bound.  Refinement walks the preimage partitions and returns the
    longest s whose preimage contains Cyl(w), which is the exact common
    prefix of all ray images.
    """
    w = Word(w)
    if not w:
        raise InputError("stable_prefix needs a nonempty cylinder label")
    img = auto.apply(w)
    coarse = Word(img[: max(0, len(img) - auto.cancellation_bound())])
    if not refine:
        return coarse
    budget, cache = _resolve(budget, cache)
    s = EMPTY
    while True:
        step = None
        for c in extension_letters(s, auto.rank):
            cand = Word(tuple(s) + (c,))
            if _preimage(auto, cand, budget, cache).contains_cylinder(w):
                step = cand
                break
        if step is None:
            break
        s = step
    return s if len(s) >= len(coarse) else coarse


# -- current values under pushforward ---------------------------------------


def _pair_mass(
    mu: FrequencyMeasure, p1: CylinderPartition, p2: CylinderPartition
) -> Fraction:
    """Sum of mu(w1^-1 w2) over w1 in p1 and w2 in p2, two disjoint families.

    One walk of both prefix trees (module docstring).  Rows carry
    D^(h1-|w1|) and columns D^(h2-|w2|), h the longest word of each
    family, so a pair splitting at depth d counts E D^(h1+h2-2d-1) times
    its mass, and D^(2d) brings it to the denominator E D^(h1+h2-1).
    """
    if not p1.words or not p2.words:
        return ZERO
    e, d, init, step = mu.chain
    h1 = max(map(len, p1.words))
    h2 = max(map(len, p2.words))
    power = [d**i for i in range(2 * max(h1, h2))]
    total = 0

    def walk(n1: dict, n2: dict, depth: int) -> tuple[dict, dict]:
        # Count the pairs splitting at this node; return the summed rows of
        # the edges below n1 and the summed columns of those below n2.
        nonlocal total
        rows: dict = {}
        cols: dict = {}
        same = 0
        for x, c1 in n1.items():
            c2 = n2.get(x, {})
            if c2 is None or (c1 is None and x in n2):
                raise AssertionError("comparable cylinders across disjoint partitions")
            if c1 is None:
                row = {s: q * power[h1 - depth - 1] for s, q in init[-x].items()}
            else:
                below1, below2 = walk(c1, c2, depth + 1)
                row = _row_times(below1, step[-x])
                if c2:
                    col = _times_column(step[x], below2)
                    same += _dot(row, col)
                    _add(cols, col)
            _add(rows, row)
        for y, c2 in n2.items():
            if y not in n1:
                if c2 is None:
                    below2 = {t: power[h2 - depth - 1] for _, t in step[y]}
                else:
                    below2 = walk({}, c2, depth + 1)[1]
                _add(cols, _times_column(step[y], below2))
        total += (_dot(rows, cols) - same) * power[2 * depth]
        return rows, cols

    walk(_trie(p1.words), _trie(p2.words), 0)
    return Fraction(total, e * power[h1 + h2 - 1])


# Vectors are dicts state -> int, matrices dicts (from, to) -> int.


def _row_times(vec: dict, mat: dict) -> dict:
    out: dict = {}
    for (s, t), q in mat.items():
        if s in vec:
            out[t] = out.get(t, 0) + vec[s] * q
    return out


def _times_column(mat: dict, vec: dict) -> dict:
    out: dict = {}
    for (s, t), q in mat.items():
        if t in vec:
            out[s] = out.get(s, 0) + q * vec[t]
    return out


def _add(into: dict, vec: dict) -> None:
    for s, q in vec.items():
        into[s] = into.get(s, 0) + q


def _dot(r: dict, c: dict) -> int:
    return sum(q * c[s] for s, q in r.items() if s in c)


def pushforward_current_value(
    auto: Automorphism,
    mu: FrequencyMeasure,
    u: Sequence[int],
    *,
    budget: Optional[int | Budget] = None,
    cache: Optional[PartitionCache] = None,
) -> Fraction:
    """Value of the pushed-forward current on the geodesic cylinder at u.

    Cyl[1,u] splits into products Cyl(a) x Cyl(u) over letters a other
    than the first letter of u.  Their preimage families are disjoint and
    pair sums are bilinear, so the value is one exact pair sum between
    the union of those families and the preimage of Cyl(u).
    """
    u = Word(u)
    if not u:
        raise InputError("target label must be nonempty")
    budget, cache = _resolve(budget, cache)
    fam = _depth1_family(auto, budget, cache)
    p_u = _preimage(auto, u, budget, cache)
    others = CylinderPartition.from_words(
        auto.rank, (w for a, part in fam.items() if a != u[0] for w in part.words)
    )
    return _pair_mass(mu, others, p_u)


def pushforward_table(
    auto: Automorphism,
    mu: FrequencyMeasure,
    depth: int,
    *,
    budget: Optional[int | Budget] = None,
    cache: Optional[PartitionCache] = None,
) -> dict[Word, Fraction]:
    """Pushforward measure of every cylinder up to the given depth."""
    if depth < 1:
        raise InputError("depth must be at least 1")
    budget, cache = _resolve(budget, cache)
    table: dict[Word, Fraction] = {}
    for n in range(1, depth + 1):
        for v in all_words(n, auto.rank):
            table[v] = pushforward_current_value(
                auto, mu, v, budget=budget, cache=cache
            )
    return table


def depth1_profile(
    auto: Automorphism,
    *,
    budget: Optional[int | Budget] = None,
    cache: Optional[PartitionCache] = None,
) -> dict[int, Fraction]:
    """Uniform mass of each depth-1 preimage; the values sum to one."""
    budget, cache = _resolve(budget, cache)
    fam = _depth1_family(auto, budget, cache)
    mu = uniform_measure(auto.rank)
    return {a: partition_mass(mu, fam[a]) for a in alphabet(auto.rank)}


def recenter(
    auto: Automorphism,
    *,
    budget: Optional[int | Budget] = None,
    cache: Optional[PartitionCache] = None,
) -> tuple[Word, Automorphism]:
    """Greedy recentering: descend while a child cylinder preimage has mass >= 1/2.

    Returns the final word v (ties broken toward the canonically smallest
    letter) and the conjugated map x -> v^-1 phi(x) v.
    """
    budget, cache = _resolve(budget, cache)
    mu = uniform_measure(auto.rank)
    v: tuple = ()
    while True:
        step = None
        for c in extension_letters(v, auto.rank):
            part = _preimage(auto, Word(v + (c,)), budget, cache)
            if partition_mass(mu, part) >= HALF:
                step = c
                break
        if step is None:
            break
        v = v + (step,)
    vw = Word(v)
    return vw, conj(auto, inverse(vw))
