"""Exact preimages of boundary cylinders under an automorphism.

The engine computes, for an automorphism phi and a cylinder Cyl(u), the
finite prefix-free family of cylinders whose union is exactly
{rays xi : phi(xi) starts with u}.  Everything else (pushforward current
values, exact lengths, recentering) reduces to these partitions plus
exact rational arithmetic.

Six facts drive the computation:

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
                     = Cyl(a) minus Cyl(a s^-1)
    phi^-1(Cyl a^-1) = Cyl(s^-1) union Cyl(a^-1)
    phi^-1(Cyl z)    = Cyl(z) for every other letter z.

* Translation identity.  Cyl(u) = u' * Cyl(x) for u = u' x, hence
  phi^-1(Cyl u) = phi^-1(u') * phi^-1(Cyl x).
  Long targets therefore reduce to one depth-1 family, translated by
  one graft (`_graft`) of its trie.

* Compositionality.  (phi o psi)^-1(Cyl u) is the disjoint union of
  psi^-1(Cyl w) over the pieces w of phi^-1(Cyl u), so partitions of a
  composition assemble from the partitions of its factors.  A map's
  family is assembled along its Nielsen chain (`Automorphism.factors`)
  from the identity's families {z: Cyl(z)} in one right-to-left pass,
  one atom step per suffix of the chain, the last atom's included.  A
  preimage reads only the map's inverse images, so a suffix is its tuple
  of inverse images, each got from the next longer one by substituting
  into a peeled atom's images.  Nielsen reduction never returns to an
  image tuple, so no suffix of one chain repeats, and the chain and every
  node count depend on the map alone, not on how it was spelled.
  A step builds no atom family but reads the atom's closed form: a
  signed permutation relabels the families, and a transvection changes
  only those of s^-1, a and a^-1, with one graft (the preimage of
  a s^-1), one difference (the family of a less that preimage) and one
  merge (those of s^-1 and a^-1).

* Pair sums.  The current value on Cyl(a) x Cyl(u) is the sum of
  mu(w1^-1 w2) over w1 in phi^-1(Cyl a) and w2 in phi^-1(Cyl u)
  (Kapovich, "Currents on free groups", math/0412128).  A pair c x u,
  c y v splitting after a common prefix c has mass (init and steps of
  (x u)^-1) (steps of y v) 1 / (E D^(|u|+|v|+1)) over mu's automaton,
  so each edge carries a row and a column, each summed over the cells
  below it.  For a cell w = x1...xn of a partition of the boundary, the
  pairs (w', w) over the other cells sum to mu(xn): the cells below
  x1...xd y tile Cyl(x1...xd y), so by shift invariance the pairs
  splitting after depth d add mu(x(d+1)...xn) - mu(xd...xn), or mu(w)
  for d = 0, and the sum telescopes.  So the pairs into w from the
  other parts of a tiling are mu(xn) less those from w's own part, and
  a length, whose table has depth 1, walks each of the 2k families of
  the map alone (`_pair_mass`).  Seen from the vertex between its
  letters, the cylinder a^-1 y (a != y) is Cyl(a) x Cyl(y), so
  nu(a^-1 y) for nu = phi_* mu is the pair mass of the families of a
  and y: the depth-2 table is the weighted Whitehead graph of nu
  (J. H. C. Whitehead, Ann. of Math. 37 (1936)), and the 2k families,
  which tile the boundary, give all of it in one walk.  Likewise
  nu(a^-1 v) is the pair mass of the family of a, the union of the
  depth-(n-1) preimages of the words that start with a, against
  phi^-1(Cyl v), so a depth-n table walks the depth-(n-1) preimages
  once (`_cross_mass`) and builds none of depth n; a single value
  nu(u) walks the families once, that of u1 split into phi^-1(Cyl u)
  and the rest.  The depth picks the walk: at each node the tiling's
  walk makes one product per pair of first letter and colour, where
  the telescoped walk makes one per part, so depth 1 keeps the latter.
  A chain with one state (the uniform measure, a one-letter rational
  measure) has rows and columns of one entry, and both of its walks, the
  telescoped one and the tiling's, carry them as integers.  The chain
  selects those walks: every length, and every depth-2 table that
  descent and the spectrum score moves from, reads the uniform measure,
  and few other measures have one state.  The walks for several states
  stay the reference.

* Class invariance.  Inner automorphisms act trivially on currents
  (Kapovich, as above), so pushforward tables and current values, and
  the lengths and descent scores read off them, are the same for every
  map of an outer class.  Every table (`_table`) and current value is
  computed on the map's shortest conjugate psi, from psi's Nielsen chain
  (`_class_rep`), and a budget counts the nodes of psi's chain: the chain
  of a conjugate of psi pays for steps that cannot change the answer.
  psi costs one pass over phi's images: the descent conjugates each
  image in place at its two ends, each inverse image of psi is one
  reduction of g phi^-1(y) g^-1, and psi is built without a re-scan.
  Its inverse images come from phi's and the conjugator alone, so the
  peel of psi's chain still checks them.  Preimages, profiles and
  recentering are not class invariants and read the map's own chain.

* Canonical partitions are shared, immutable tries.  A partition is
  stored as its canonical prefix tree (complete sibling sets coalesced;
  the path every label shares kept as a tuple, not one dict per letter),
  and a leaf is a marker whose label is its path.  No trie changes once
  built, so partitions share subtrees: a translation grafts, building
  only the new path along g (`_graft`); a union copies only the nodes
  two inputs share, where alone siblings can coalesce (`_merge`); a
  difference copies only the paths to the cells it cuts (`_subtract`).
  Every partition is built by a graft, a merge or a difference.  The
  pair-sum walks read the tries directly.  A partition keeps no label
  count: it is empty when its trie is, and `len()` counts the leaves on
  first use.  Label words are built from paths on first request, and
  sorted only for output, keys and tests.  No trie walk recurses: each
  keeps its own stack or work list, so a trie thousands of letters deep
  is as good as a shallow one.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul, neg
from os.path import commonprefix
from typing import Iterable, Optional, Sequence

from .automorphisms import Automorphism, _shortest_conjugate, _substitute, conj
from .errors import InputError, ResourceLimitError
from .measures import FrequencyMeasure, uniform_measure
from .words import (
    _LETTER_ORDER,
    Word,
    alphabet,
    all_words,
    as_word,
    cancellation,
    check_rank,
    extension_letters,
    format_word,
    inverse,
    validate_rank,
    word_key,
)

DEFAULT_BUDGET = 10**7

ZERO = Fraction(0)
HALF = Fraction(1, 2)


class Budget:
    """Node counter shared across one public computation; never approximate.

    One node is spent per trie dict that a graft, a merge or a difference
    builds and keeps, as it is made; families start from the identity's,
    on which nothing is spent, so a signed permutation spends nothing,
    nor does its depth-2 table, which walks the families as they are.
    The computation stops with a ResourceLimitError as soon as the total
    passes the limit, so no work that fits is refused in advance.  A
    negative limit raises InputError.
    """

    def __init__(self, limit: int = DEFAULT_BUDGET):
        if limit < 0:
            raise InputError(f"node budget must be nonnegative, got {limit}")
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


# A trie leaf.  Its label is the path of letters from the root to it.
_LEAF = True


class CylinderPartition:
    """A disjoint family of nonempty cylinders, stored as its canonical trie.

    The canonical trie is the prefix tree of the labels with complete
    sibling sets coalesced: nested dicts keyed by letter, with `_LEAF`
    at the leaves; a leaf's label is its path.  The single-child path
    from the root is kept as the tuple `stem` and the tree below it as
    `trie`: translated families share long prefixes, and a dict per
    shared letter would outweigh the rest.  Tries are never changed once
    built, so partitions share subtrees: a graft, a merge or a difference
    copies only the nodes it changes.  The trie is all a partition keeps,
    with no label count: the family is empty when the trie is, and
    `len()` counts the leaves on first use.  Two partitions are equal
    when their label sets are, and comparing stems and tries decides that
    without sorting.  Every partition is built by a graft, a merge or a
    difference; `from_words` merges the one-cell partitions of its
    labels.  `height`, `leaves` (trie order) and `words` (shortlex) are
    built on first use and kept; only output, keys and tests read
    `words`.  No walk of the trie, equality included, recurses.
    """

    __slots__ = ("rank", "stem", "trie", "_height", "_leaves", "_words")

    def __init__(self, rank: int, stem: tuple, trie: dict):
        self.rank = rank
        self.stem = stem
        self.trie = trie
        self._height: Optional[int] = None
        self._leaves: Optional[tuple[Word, ...]] = None
        self._words: Optional[tuple[Word, ...]] = None

    @classmethod
    def from_words(cls, rank: int, words: Iterable[Sequence[int]]) -> "CylinderPartition":
        """The canonical partition of a disjoint family of labels.

        Each label must be nonempty, reduced and in the rank.  Sorted, a
        label that overlaps another is a prefix of the one after it, so
        neighbours are compared; an overlap names both.  A family whose
        uniform masses sum to one is the whole boundary and is refused.
        The rest is the union (`_merge`) of the labels' one-cell partitions.
        """
        check_rank(rank)
        labels = [as_word(w) for w in words]
        for w in labels:
            if not w:
                raise InputError("partition labels must be nonempty")
            validate_rank(w, rank)
        labels.sort()
        for u, v in zip(labels, labels[1:]):
            if v[: len(u)] == u:
                raise InputError(
                    f"overlapping cylinders {format_word(u)!r} and {format_word(v)!r}"
                )
        if sum(map(uniform_measure(rank).eval, labels)) == 1:
            raise InputError("partition coalesces to the full boundary")
        cells = (cls(rank, w[:-1], {w[-1]: _LEAF}) for w in labels)
        return functools.reduce(_merge, cells, cls(rank, (), {}))

    def root(self, start: int = 0) -> dict:
        """The trie below stem[:start], the rest of the stem one dict per letter."""
        node = self.trie
        for c in reversed(self.stem[start:]):
            node = {c: node}
        return node

    @property
    def height(self) -> int:
        """Length of the longest label; 0 for the empty family."""
        if self._height is None:
            self._height = len(self.stem) + _depth(self.trie)
        return self._height

    @property
    def leaves(self) -> tuple[Word, ...]:
        if self._leaves is None:
            # a preorder walk on a stack of (path, child at its end)
            out: list[Word] = []
            stack = [(self.stem + (c,), v) for c, v in reversed(self.trie.items())]
            while stack:
                path, child = stack.pop()
                if type(child) is dict:
                    stack.extend((path + (x,), v) for x, v in reversed(child.items()))
                else:
                    out.append(Word(path))
            self._leaves = tuple(out)
        return self._leaves

    @property
    def words(self) -> tuple[Word, ...]:
        if self._words is None:
            self._words = tuple(sorted(self.leaves, key=word_key))
        return self._words

    def __iter__(self):
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.leaves)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CylinderPartition):
            return NotImplemented
        if (self.rank, self.stem) != (other.rank, other.stem):
            return False
        # node by node on a work list, since dict equality recurses; a
        # leaf is one object, so only dicts are listed or differ
        pairs = [(self.trie, other.trie)]
        for x, y in pairs:
            if type(x) is not dict or type(y) is not dict or x.keys() != y.keys():
                return False
            pairs += [(v, y[c]) for c, v in x.items() if v is not y[c]]
        return True

    def __hash__(self) -> int:
        return hash((self.rank, self.words))

    def __repr__(self) -> str:
        return f"CylinderPartition(rank={self.rank}, words={self.words!r})"


def _complete(node: dict, needed: int) -> bool:
    """Whether a node's children are `needed` leaves: a complete sibling set."""
    return len(node) == needed and all(type(v) is not dict for v in node.values())


def _depth(node: dict) -> int:
    depth, level = 0, [node]
    while any(level):
        depth += 1
        level = [v for n in level for v in n.values() if type(v) is dict]
    return depth


def _partition(
    rank: int, stem: tuple, node, built: int = 0, budget: Optional[Budget] = None
) -> CylinderPartition:
    """The partition whose trie is `node` hung under `stem`, in canonical form.

    A coalesced node becomes one label, hung from one new dict, and a
    single-child path at the top of the node moves into the stem.  The
    top `built` dicts of the node are new, and each one the trie keeps
    is spent from `budget`.
    """
    if type(node) is not dict:
        if not stem:
            raise AssertionError("partition coalesces to the full boundary")
        stem, node, built = stem[:-1], {stem[-1]: _LEAF}, 1
    top = len(stem)
    while len(node) == 1:
        ((c, child),) = node.items()
        if type(child) is not dict:
            break
        stem += (c,)
        node = child
    if budget is not None:
        budget.spend(max(built - (len(stem) - top), 0))
    return CylinderPartition(rank, stem, node)


def _merge(
    a: CylinderPartition, b: CylinderPartition, budget: Optional[Budget] = None
) -> CylinderPartition:
    """Union of two disjoint partitions, sharing their subtrees.

    Both stems are spelled below their common prefix m by `root`, and the
    two tries are walked together.  A node both reach is copied, and only
    there are complete sibling sets coalesced; every other subtree is
    reused.  The walk does not recurse: it lists the nodes both reach
    top-down, each with the copy of its parent, and hangs each copy from
    that parent, or coalesces it there, in reverse; a holder dict stands
    in for the root's parent.  Spends one node per dict it builds that
    the union keeps: the copies, and the spelled stem dicts the walk does
    not enter, which hang whole.  Overlapping labels raise AssertionError.
    """
    if not b.trie:
        return a
    if not a.trie:
        return b
    rank, m = a.rank, len(commonprefix([a.stem, b.stem]))
    la, lb = len(a.stem) - m, len(b.stem) - m
    full = 2 * rank - 1
    # nodes[i] = (copy of the parent, letter from it, depth, copy of x, y);
    # the spelled dicts at a depth the walk enters are copied, not kept
    holder: dict = {}
    nodes = [(holder, None, 0, dict(a.root(m)), b.root(m))]
    built = la + lb
    for _, _, depth, out, y in nodes:
        for c, child in y.items():
            have = out.get(c)
            if have is None:
                out[c] = child
            elif type(have) is not dict or type(child) is not dict:
                raise AssertionError("overlapping cylinders across disjoint partitions")
            else:
                nodes.append((out, c, depth + 1, dict(have), child))
    for parent, c, depth, out, _ in reversed(nodes):
        built -= (depth < la) + (depth < lb)
        if _complete(out, full + (m + depth == 0)):
            parent[c] = _LEAF
        else:
            parent[c] = out
            built += 1
    return _partition(rank, a.stem[:m], holder[None], built, budget)


def _subtract(
    part: CylinderPartition, sub: CylinderPartition, budget: Optional[Budget] = None
) -> CylinderPartition:
    """The partition part minus sub, for sub inside part, sharing part's subtrees.

    Walks sub's trie inside part's and copies only the dicts of part on
    sub's paths; every other subtree is reused.  A leaf both hold is
    dropped, and a leaf of part above cells of sub is split into its
    2k - 1 children first, so what stays of it is the complement of
    sub's subtree.  Removing cells completes no sibling set, so nothing
    coalesces.  The walk does not recurse: it lists the copies top-down,
    each with the copy of its parent, and in reverse hangs each one that
    keeps a cell from that parent and drops the rest; a holder dict
    stands in for the root's parent.  Spends one node per copied dict the
    result keeps.  Cells of sub outside part raise AssertionError.
    """
    if not sub.trie:
        return part
    rank, m = part.rank, len(part.stem)
    if sub.stem[:m] != part.stem:
        raise AssertionError("subtracted cells lie outside the partition")
    # nodes[i] = (copy of the parent, letter from it, copy of the node,
    # sub's node there)
    holder: dict = {None: part.trie}
    nodes = [(holder, None, dict(part.trie), sub.root(m))]
    for _, _, out, gone in nodes:
        for c, below in gone.items():
            have = out.get(c)
            if have is None or (type(have) is dict and type(below) is not dict):
                raise AssertionError("subtracted cells lie outside the partition")
            if type(below) is not dict:
                del out[c]
                continue
            if type(have) is not dict:
                have = dict.fromkeys([y for y in alphabet(rank) if y != -c], _LEAF)
            nodes.append((out, c, dict(have), below))
    built = 0
    for parent, c, out, _ in reversed(nodes):
        if out:
            parent[c] = out
            built += 1
        else:
            del parent[c]
    if not holder:
        return CylinderPartition(rank, (), {})
    return _partition(rank, part.stem, holder[None], built, budget)


def _graft(
    part: CylinderPartition, g: Sequence[int], budget: Optional[Budget] = None
) -> CylinderPartition:
    """The partition g * part, sharing part's subtrees.

    With n = |g| and h = g^-1, a label w agreeing with h in exactly its
    first c < |w| letters translates to g[:n-c] w[c:], so the subtree
    hanging off the path along h at depth c lands, unchanged, under
    g[:n-c].  A label on that path is cancelled whole: it splits into
    its 2k - 1 children, which the walk then meets in turn.  Only the new
    path along g is built, and only its nodes can coalesce.  Spends one
    node per dict of that path that the result keeps.
    """
    rank, n = part.rank, len(g)
    if not part.trie or not n:
        return part
    h = [-x for x in reversed(g)]
    stem, m = part.stem, len(part.stem)
    c = 0
    while c < m and c < n and stem[c] == h[c]:
        c += 1
    if c < m:
        # every label agrees with h in exactly c letters: the trie moves whole
        return CylinderPartition(rank, tuple(g[: n - c]) + stem[c:], part.trie)
    # hung[c - m]: the children of the node along h at depth c, but for h[c]
    hung: list[dict] = []
    node = part.trie
    while True:
        # at the end of h, or where it leaves the trie, every child hangs
        x = h[c] if c < n else None
        child = node.get(x)
        if child is None:
            hung.append(dict(node))
            break
        hung.append({y: v for y, v in node.items() if y != x})
        if type(child) is not dict:
            # the label h[:c+1] is cancelled whole
            child = dict.fromkeys([y for y in alphabet(rank) if y != -x], _LEAF)
        node = child
        c += 1
    below = None
    built = 0
    for c, node in enumerate(hung, m):
        if below is not None:
            node[g[n - c]] = below
        elif not node:
            continue
        needed = 2 * rank - 1 if c < n else 2 * rank
        if _complete(node, needed):
            node = _LEAF
        else:
            built += 1
        below = node
    return _partition(rank, tuple(g[: n - m - len(hung) + 1]), below, built, budget)


# -- partition cache -------------------------------------------------------


class PartitionCache:
    """In-memory depth-1 families, owned by the caller and keyed by the map.

    A map is keyed by its inverse images, one per basis letter, which
    keeps ranks apart; Words compare and hash as tuples, so a chain
    suffix, known by its images alone, finds an equal map's entry.
    `families` maps a key to the map's depth-1 preimage families, which
    every preimage and pair sum reads; a preimage of a longer cylinder is
    one graft of them and is not kept.
    """

    def __init__(self):
        self.families: dict[tuple, dict[int, CylinderPartition]] = {}


def _resolve(budget: Optional[int | Budget], cache: Optional[PartitionCache]):
    """The caller's budget and cache, or fresh ones: no state outlives a call."""
    if budget is None:
        budget = Budget()
    elif isinstance(budget, int):
        budget = Budget(budget)
    return budget, (cache if cache is not None else PartitionCache())


# -- depth-1 partitions ----------------------------------------------------


@functools.cache
def _identity_family(rank: int) -> dict[int, CylinderPartition]:
    """The identity's depth-1 families {z: Cyl(z)}, built once per rank."""
    return {z: CylinderPartition(rank, (), {z: _LEAF}) for z in alphabet(rank)}


@functools.cache
def _words(n: int, rank: int) -> tuple[Word, ...]:
    """The reduced words of length n in `all_words` order, built once per (n, rank).

    Only the keys of a table that has been summed are read from here; its
    preimages are built as `all_words` lists them, so that a budget stops
    a deep table before so many words are held.
    """
    return tuple(all_words(n, rank))


def _class_rep(auto: Automorphism) -> Automorphism:
    """psi, the shortest conjugate of a map: class-level answers are psi's.

    With phi(x) = v psi(x) v^-1, psi is phi followed by conjugation by
    v^-1.  Inner automorphisms act trivially on currents, so psi pushes
    every current where phi does, and its inverse images are
    psi^-1(y) = phi^-1(v y v^-1) = g phi^-1(y) g^-1 with g = phi^-1(v).
    Each is one reduction of three reduced words, cancelled at the left
    seam and then at the right, and psi is built without a re-scan of
    its images.  It is Nielsen-factored on first use.  Nothing else
    certifies it: `_depth1_family` peels that chain off psi's inverse
    images, derived from phi's and v alone, and must reach the basis
    letters, so a wrong psi, a wrong v or a wrong chain raises
    AssertionError.  A map that is its own shortest conjugate is
    returned as it is.
    """
    images, v = _shortest_conjugate(auto.fwd)
    if not v:
        return auto
    g = tuple(_substitute(auto.bwd, v))
    g_inv = tuple(map(neg, reversed(g)))
    n = len(g)
    bwd = []
    for w in auto.bwd:
        c = cancellation(g, w)
        w = g[: n - c] + w[c:]
        c = cancellation(w, g_inv)
        bwd.append(w[: len(w) - c] + g_inv[c:])
    return Automorphism(auto.rank, images, bwd, verify=False)


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
    """Depth-1 preimage partitions of a map, cached by its inverse images.

    Leading atoms of the map's Nielsen chain are peeled off until a
    suffix of the chain is cached or every atom is peeled.  A suffix is
    known by its inverse images alone: peeling the atom a off a o rest
    gives rest^-1(x) = (a o rest)^-1(a(x)), where a(x) has at most two
    letters; where a(x) is one positive letter y, that is the previous
    suffix's image of y, kept as it is.  With every atom peeled, these
    must be the basis letters, which proves that the chain composes to
    the map, and the families start from the identity's.  The longer
    suffixes are then assembled right to left, one atom step each; none
    of them repeats, since Nielsen reduction never returns to an image
    tuple.
    """
    families, factors = cache.families, auto.factors
    suffixes = [auto.bwd]
    while suffixes[-1] not in families and len(suffixes) <= len(factors):
        prev, atom = suffixes[-1], factors[len(suffixes) - 1]
        suffixes.append(tuple(
            prev[w[0] - 1] if len(w) == 1 and w[0] > 0 else tuple(_substitute(prev, w))
            for w in atom.fwd
        ))
    fam = families.get(suffixes[-1])
    if fam is None:
        if suffixes[-1] != tuple((x,) for x in range(1, auto.rank + 1)):
            raise AssertionError(f"the factors of {auto.key()} do not compose to it")
        fam = _identity_family(auto.rank)
    for i in range(len(suffixes) - 2, -1, -1):
        fam = _family_from_factors(factors[i], suffixes[i + 1], fam, budget)
        families[suffixes[i]] = fam
    return fam


def _family_from_factors(
    head: Automorphism, bwd: tuple, fam: dict, budget: Budget
) -> dict[int, CylinderPartition]:
    """Family of head o rest, rest given by its inverse images and family:
    rest^-1 of head's closed-form preimages (module docstring), which are
    never built.  Only the families of s^-1, a and a^-1 change: the first
    is the preimage of a s^-1, which lies inside fam[a], and the family
    of a is fam[a] less it."""
    k = head.rank
    if all(len(img) == 1 for img in head.fwd):
        # sigma^-1(y) is one letter: sigma^-1(x) or its inverse
        inv = head.bwd
        return {y: fam[inv[y - 1][0] if y > 0 else -inv[-y - 1][0]] for y in alphabet(k)}
    s, a = _transvection_letters(head)
    out = dict(fam)
    out[-s] = _preimage(bwd, fam, (a, -s), budget)
    out[a] = _subtract(fam[a], out[-s], budget)
    out[-a] = _merge(fam[-s], fam[-a], budget)
    return out


def _preimage(bwd: tuple, fam: dict, u: Sequence[int], budget: Budget) -> CylinderPartition:
    """Preimage of Cyl(u), u reduced, under the map with inverse images bwd
    and depth-1 families fam."""
    if len(u) == 1:
        return fam[u[0]]
    # the translation identity: phi^-1(u' x) = phi^-1(u') * phi^-1(Cyl x)
    return _graft(fam[u[-1]], _substitute(bwd, u[:-1]), budget)


# -- public operations -------------------------------------------------------


def preimage_partition(
    auto: Automorphism,
    u: Sequence[int],
    *,
    budget: Optional[int | Budget] = None,
    cache: Optional[PartitionCache] = None,
) -> CylinderPartition:
    """Exact canonical partition of {xi : phi(xi) in Cyl(u)}."""
    u = _target(auto, u)
    budget, cache = _resolve(budget, cache)
    fam = _depth1_family(auto, budget, cache)
    return _preimage(auto.bwd, fam, u, budget)


def _target(auto: Automorphism, u: Sequence[int]) -> Word:
    """u as a target cylinder label: nonempty, reduced and in the map's rank."""
    u = Word(u)
    if not u:
        raise InputError("target cylinder label must be nonempty")
    validate_rank(u, auto.rank)
    return u


def partition_mass(mu: FrequencyMeasure, part: CylinderPartition) -> Fraction:
    if mu.rank != part.rank:
        raise InputError("measure and partition ranks differ")
    return sum((mu.eval(w) for w in part.leaves), ZERO)


# -- current values under pushforward ---------------------------------------


def _scaling(mu: FrequencyMeasure, h: int) -> tuple:
    """(den, power, ends, weigh, whole): the scaling both pair walks share.

    h is the longest cell of the parts, which the caller knows: the
    one-state walks read it off the nodes they list, the generic walks
    take `CylinderPartition.height`.  Rows carry D^(h-|w1|) and columns
    D^(h-|w2|), so a pair splitting at depth d counts E D^(2h-2d-1) times
    its mass, and power[2d] = D^(2d) brings it to the common denominator
    den = E D^(2h-1).  ends[x], step[x] times the all-ones column, is the
    column of a cell's last letter x; the measure read it off its chain
    once.  A one-state chain's walks scale the same way, with rows and
    columns of one integer (`_one_state_pair_mass`,
    `_one_state_cross_mass`).  A cell of length n
    weighs weigh[h-n], its uniform mass in units of 1 / (2k (2k-1)^h),
    and the boundary weighs whole: a walk whose cells weigh otherwise
    lost or doubled a cell, and raises AssertionError (`_check_tiling`).
    """
    k = mu.rank
    e, d = mu.chain[:2]
    power = list(accumulate(repeat(d, 2 * h), mul, initial=1))
    weigh = [(2 * k - 1) ** (i + 1) for i in range(h)]
    return e * power[2 * h - 1], power, mu.ends, weigh, 2 * k * (2 * k - 1) ** h


def _check_tiling(weight: int, whole: int) -> None:
    if weight != whole:
        raise AssertionError("the parts do not tile the boundary")


def _pair_mass(mu: FrequencyMeasure, parts: dict) -> tuple[int, dict]:
    """(D, {c: D times the sum of mu(w1^-1 w2) over w2 in parts[c] and w1
    in the other parts}), D one common denominator.

    `parts` maps colours to partitions that tile the boundary, as a map's
    2k families do.  By the pair-sum identity (module docstring) the
    pairs into a cell ending in x from the other parts are mu(x) less
    those from its own part, so each part's trie is walked alone, with
    one row and one column, and only the pairs split inside it are
    counted.  The walk does not recurse: it lists a part's nodes
    top-down, each child after its parent, and sums them bottom-up in
    reverse.  Scaling is `_scaling`'s, and cells whose uniform masses do
    not sum to one raise AssertionError.

    A chain with one state, as the uniform measure's and a one-letter
    rational measure's, has rows and columns of one entry, so its walk
    (`_one_state_pair_mass`) carries them as integers.  The chain, not the
    caller, selects it: every `length` reads the uniform measure (all 606
    ops of the benchmark's length-cold workload), while the currents
    workload reaches it only through one-letter rational measures (41 of
    1 448 ops) and the whitehead workload reads no depth-1 table.  The
    walk below is the one for every other chain, and the reference the
    tests hold the integer walk to.
    """
    if mu.scalars is not None:
        return _one_state_pair_mass(mu, parts)
    h = max(p.height for p in parts.values())
    den, power, ends, weigh, whole = _scaling(mu, h)
    # each cell ending in x adds D^(2h-2) lasts[x] (FrequencyMeasure.lasts)
    lift = power[2 * h - 2] if h else 0
    _, d, init, step = mu.chain
    lasts = mu.lasts
    weight, num = 0, {}
    for c, part in parts.items():
        # nodes[i] = (parent, letter from it, depth, node); its sums are
        # [row, col, same]: the summed row and column of the cells below
        # it, and the products within each child
        nodes = [(-1, None, len(part.stem), part.trie)]
        sums: list = []
        q = top = 0
        for i, (_, _, depth, node) in enumerate(nodes):
            leaf, below = power[h - depth - 1], depth + 1
            row, col = {}, {}
            for x, child in node.items():
                if type(child) is dict:
                    nodes.append((i, x, below, child))
                else:
                    _add(row, init[-x], leaf)
                    _add(col, ends[x], leaf)
                    top += lasts[x]
                    weight += weigh[h - below]
            sums.append([row, col, 0])
        for i in range(len(nodes) - 1, -1, -1):
            parent, x, depth, _ = nodes[i]
            row, col, same = sums[i]
            # less the pairs split at this node
            q -= (_dot(row, col) - same) * power[2 * depth]
            if parent >= 0:
                row, col = _row_times(row, step[-x]), _times_column(step[x], col)
                above = sums[parent]
                above[2] += _dot(row, col)
                _add(above[0], row)
                _add(above[1], col)
        num[c] = q + top * lift
    _check_tiling(weight, whole)
    return den, num


def _one_state_pair_mass(mu: FrequencyMeasure, parts: dict) -> tuple[int, dict]:
    """`_pair_mass` for a one-state chain.

    The same telescoped walk, node list and scaling, with each row and
    column one integer: a leaf x adds init[x^-1] to its node's row and
    ends[x] to its column, and an edge x multiplies them by step[x^-1] and
    step[x] (`FrequencyMeasure.scalars`).  The leaves of a node share its
    scale and weight, so each is applied once per node.  Every part's
    nodes are listed first, with their leaves' sums unscaled, so h, the
    longest cell, is read off the lists, and no walk of the tries is
    made for it; the bottom-up pass then scales each node's leaves.
    """
    init, ends, step = mu.scalars
    lasts = mu.lasts
    walks = []
    h = 0
    for c, part in parts.items():
        # nodes[i] = (parent, letter from it, depth, node); its sums are
        # [row, col, count] of its leaves, unscaled, and [row, col, same]
        # of its children, scaled
        nodes = [(-1, 0, len(part.stem), part.trie)]
        sums: list = []
        top = 0
        for i, (_, _, depth, node) in enumerate(nodes):
            row = col = n = 0
            for x, child in node.items():
                if type(child) is dict:
                    nodes.append((i, x, depth + 1, child))
                else:
                    row += init[-x]
                    col += ends[x]
                    top += lasts[x]
                    n += 1
            if n and depth >= h:
                h = depth + 1
            sums.append([row, col, n, 0, 0, 0])
        walks.append((c, nodes, sums, top))
    den, power, _, weigh, whole = _scaling(mu, h)
    lift = power[2 * h - 2] if h else 0
    weight, num = 0, {}
    for c, nodes, sums, top in walks:
        q = 0
        for i in range(len(nodes) - 1, -1, -1):
            parent, x, depth, _ = nodes[i]
            row, col, n, child_row, child_col, same = sums[i]
            if n:
                leaf = power[h - depth - 1]
                row = row * leaf + child_row
                col = col * leaf + child_col
                weight += n * weigh[h - depth - 1]
            else:
                row, col = child_row, child_col
            q -= (row * col - same) * power[2 * depth]
            if parent >= 0:
                row *= step[-x]
                col *= step[x]
                above = sums[parent]
                above[3] += row
                above[4] += col
                above[5] += row * col
        num[c] = q + top * lift
    _check_tiling(weight, whole)
    return den, num


def _cross_mass(mu: FrequencyMeasure, parts: dict) -> tuple[int, list[int]]:
    """(D, num), num[2k i + j] being D times the sum of mu(w1^-1 w2) over
    w2 in the i-th part and w1 in the cells of the colours that start
    with the j-th letter of `alphabet`, for j other than the i-th
    colour's first letter, whose place holds 0; D is one common
    denominator.

    `parts` maps colours, words, to partitions that tile the boundary, so
    every pair of cells splits at one node of the tiling and all the
    pairs are counted in one walk, with a row per group (the colour's
    first letter) and a column per colour.  At a node, the pairs split
    there are R[g] C[c] less the products within each child, for
    g != c1; cells of one group pair with no other.  Only nodes that two
    colours reach are walked: a colour alone below a node covers that
    node's cylinder, so its canonical trie has one leaf there.  Scaling
    is `_scaling`'s.  The walk does not recurse: it lists the nodes
    top-down, each child after its parent, and sums them bottom-up in
    reverse.  Comparable cells raise AssertionError, and so do cells
    whose uniform masses do not sum to one.  The layout depends only on
    the colours' order, so readers take entries by place and no key is
    built: `_table` keys it once for a table, and the class step reads
    it by index (`whitehead._cut_scores`).

    A one-state chain selects its integer form (`_one_state_cross_mass`),
    as it does at depth 1: every table of the uniform measure takes it,
    so every class step of `factorize` and `spectrum` does.  The walk
    below is the one for every other chain, and the reference the tests
    hold the integer walk to.
    """
    if mu.scalars is not None:
        return _one_state_cross_mass(mu, parts)
    h = max(p.height for p in parts.values())
    den, power, ends, weigh, whole = _scaling(mu, h)
    init, step = mu.chain[2:]
    span = 2 * mu.rank
    groups = [_LETTER_ORDER[c[0]] - 1 for c in parts]  # place in `alphabet`
    weight = 0
    num = [0] * (span * len(groups))
    m = len(commonprefix([p.stem for p in parts.values() if p.trie]))
    # nodes[i] = (parent, letter from it, depth, [(colour, node) below one
    # path]), a colour by its place in parts; its sums are [rows, cols, same]
    nodes = [
        (-1, None, m, [(c, p.root(m)) for c, p in enumerate(parts.values()) if p.trie])
    ]
    sums: list = []
    for i, (_, _, depth, node) in enumerate(nodes):
        leaf, below = power[h - depth - 1], depth + 1
        by_letter: dict = {}
        for c, child in node:
            for x, grand in child.items():
                by_letter.setdefault(x, []).append((c, grand))
        rows, cols = {}, {}
        for x, entries in by_letter.items():
            if len(entries) > 1:
                if any(type(grand) is not dict for _, grand in entries):
                    raise AssertionError("comparable cylinders across the parts")
                nodes.append((i, x, below, entries))
            elif type(entries[0][1]) is not dict:
                c = entries[0][0]
                _add(rows.setdefault(groups[c], {}), init[-x], leaf)
                _add(cols.setdefault(c, {}), ends[x], leaf)
                weight += weigh[h - below]
            # a colour alone with a subtree is in no tiling: its cells go
            # uncounted, and the weights fall short
        sums.append([rows, cols, {}])
    _check_tiling(weight, whole)
    for i in range(len(nodes) - 1, -1, -1):
        parent, x, depth, _ = nodes[i]
        rows, cols, same = sums[i]
        scale = power[2 * depth]
        for c, col in cols.items():
            first = groups[c]
            for g, row in rows.items():
                if g != first:
                    num[span * c + g] += (_dot(row, col) - same.get((g, c), 0)) * scale
        if parent < 0:
            continue
        rows = {g: _row_times(r, step[-x]) for g, r in rows.items()}
        cols = {c: _times_column(step[x], v) for c, v in cols.items()}
        prows, pcols, psame = sums[parent]
        for g, r in rows.items():
            _add(prows.setdefault(g, {}), r)
        for c, v in cols.items():
            _add(pcols.setdefault(c, {}), v)
            first = groups[c]
            for g, r in rows.items():
                if g != first:
                    psame[g, c] = psame.get((g, c), 0) + _dot(r, v)
    return den, num


def _one_state_cross_mass(mu: FrequencyMeasure, parts: dict) -> tuple[int, list[int]]:
    """`_cross_mass` for a one-state chain, in the same layout.

    The same node list, scaling and checks, with each group's row and
    each colour's column one integer: a leaf x adds init[x^-1] to its
    group's row and ends[x] to its colour's column, and an edge x
    multiplies them by step[x^-1] and step[x] (`FrequencyMeasure.scalars`).
    The nodes are listed with their leaves' sums unscaled, so h, the
    longest cell, is read off the list, as in `_one_state_pair_mass`;
    one pass then scales the leaves and weighs them.  The pairs split at
    a node of depth d are D^(2d) R[g] C[c] less, for each child x,
    D^(2d) step[x^-1] step[x] times the child's own products.  Summed
    over the tiling, each node's products therefore count once, times
    D^(2d) less D^(2d-2) step[x^-1] step[x] for the edge x from its
    parent, and no products within a child are kept.
    """
    init, ends, step = mu.scalars
    span = 2 * mu.rank
    groups = [_LETTER_ORDER[c[0]] - 1 for c in parts]  # place in `alphabet`
    m = len(commonprefix([p.stem for p in parts.values() if p.trie]))
    # nodes[i] = (parent, letter from it, depth, [(colour, node) below one
    # path]), a colour by its place in parts; its sums are [rows, cols,
    # count] of its leaves, unscaled until h is known
    nodes = [(-1, 0, m, [(c, p.root(m)) for c, p in enumerate(parts.values()) if p.trie])]
    sums: list = []
    h = 0
    for i, (_, _, depth, node) in enumerate(nodes):
        by_letter: dict = {}
        for c, child in node:
            for x, grand in child.items():
                by_letter.setdefault(x, []).append((c, grand))
        rows, cols = {}, {}
        n = 0
        for x, entries in by_letter.items():
            if len(entries) > 1:
                if any(type(grand) is not dict for _, grand in entries):
                    raise AssertionError("comparable cylinders across the parts")
                nodes.append((i, x, depth + 1, entries))
            elif type(entries[0][1]) is not dict:
                c = entries[0][0]
                g = groups[c]
                rows[g] = rows.get(g, 0) + init[-x]
                cols[c] = cols.get(c, 0) + ends[x]
                n += 1
            # a colour alone with a subtree is in no tiling: its cells go
            # uncounted, and the weights fall short
        if n and depth >= h:
            h = depth + 1
        sums.append([rows, cols, n])
    den, power, _, weigh, whole = _scaling(mu, h)
    weight = 0
    for (_, _, depth, _), (rows, cols, n) in zip(nodes, sums):
        if n:
            leaf = power[h - depth - 1]
            for g in rows:
                rows[g] *= leaf
            for c in cols:
                cols[c] *= leaf
            weight += n * weigh[h - depth - 1]
    _check_tiling(weight, whole)
    num = [0] * (span * len(groups))
    for i in range(len(nodes) - 1, -1, -1):
        parent, x, depth, _ = nodes[i]
        rows, cols, _ = sums[i]
        scale = power[2 * depth]
        if parent >= 0:
            up, down = step[-x], step[x]
            scale -= power[2 * depth - 2] * up * down
            prows, pcols, _ = sums[parent]
            for g, r in rows.items():
                prows[g] = prows.get(g, 0) + r * up
            for c, v in cols.items():
                pcols[c] = pcols.get(c, 0) + v * down
        for c, v in cols.items():
            first, v, at = groups[c], v * scale, span * c
            for g, r in rows.items():
                if g != first:
                    num[at + g] += r * v
    return den, num


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


def _add(into: dict, vec: dict, scale: int = 1) -> None:
    for s, q in vec.items():
        into[s] = into.get(s, 0) + q * scale


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
    than the first letter u1 of u, so nu(u) is the sum of nu(a^-1 u) over
    a != u1 (module docstring): the pairs from the families of those
    letters into phi^-1(Cyl u).  One walk of the 2k families, with the
    family of u1 split into phi^-1(Cyl u) and the rest (a difference),
    counts them (`_cross_mass`): nu(u) is the sum of the colour u's
    entries in its layout, that of the group u1 being 0.  The preimages
    are those of the map's shortest conjugate, which pushes mu to the
    same current.  A measure of another rank raises InputError.
    """
    if mu.rank != auto.rank:
        raise InputError("measure and map ranks differ")
    u = _target(auto, u)
    budget, cache = _resolve(budget, cache)
    auto = _class_rep(auto)
    fam = _depth1_family(auto, budget, cache)
    part = _preimage(auto.bwd, fam, u, budget)
    letters = alphabet(auto.rank)
    parts = {(a,): fam[a] for a in letters}
    # for a one-letter u the rest is empty, and the preimage replaces it
    parts[u[:1]] = _subtract(fam[u[0]], part, budget)
    parts[u] = part
    den, num = _cross_mass(mu, parts)
    at = len(letters) * list(parts).index(u)
    return Fraction(sum(num[at : at + len(letters)]), den)


def pushforward_table(
    auto: Automorphism,
    mu: FrequencyMeasure,
    depth: int,
    *,
    budget: Optional[int | Budget] = None,
    cache: Optional[PartitionCache] = None,
) -> dict[Word, Fraction]:
    """Pushforward measure of every cylinder up to the given depth.

    One pair-sum walk gives every value of the deepest length n, and
    each shorter cylinder adds up its children (`_table`).  At depth 1
    it walks each family alone; from depth 2 on it walks the
    depth-(n-1) preimages, or the depth-1 families for n = 2, as one
    tiling, so no preimage of length n is built.
    """
    if depth < 1:
        raise InputError("depth must be at least 1")
    budget, cache = _resolve(budget, cache)
    den, num = _table(auto, mu, depth, budget, cache)
    return {v: Fraction(q, den) for v, q in num.items()}


def _table(
    auto: Automorphism,
    mu: FrequencyMeasure,
    depth: int,
    budget: Budget,
    cache: PartitionCache,
) -> tuple[int, dict[Word, int]]:
    """(D, {v: D nu(v)}) for every cylinder v of length 1 to depth, nu = phi_* mu.

    At depth 1, the 2k families tile the boundary, and one walk takes
    each alone and checks that they tile (`_pair_mass`): the pairs
    counted for a come from the other families, which is Cyl[1, a].
    From depth 2 on, nu(a^-1 v) is the pair mass of the family of a
    against the preimage of v (module docstring), so one walk of the
    preimages of the words of length depth - 1, grouped by first letter,
    gives every value of the deepest length and checks that they tile
    (`_cross_mass`); at depth 2 these are the families, and nothing is
    grafted.  The walk's layout is keyed once, each word of the deepest
    length read at its place (`_cross_place`).  A shorter v sums its
    children in integers, nu(v) = sum of nu(vc).  Keys run by length,
    then in `all_words` order.  The table is a class invariant, read off
    the map's shortest conjugate psi (`_class_rep`), whose chain the
    budget counts; a measure of another rank raises InputError first.
    """
    if mu.rank != auto.rank:
        raise InputError("measure and map ranks differ")
    auto = _class_rep(auto)
    rank = auto.rank
    fam = _depth1_family(auto, budget, cache)
    parts = {v: _preimage(auto.bwd, fam, v, budget) for v in all_words(max(depth - 1, 1), rank)}
    if depth == 1:
        den, deep = _pair_mass(mu, parts)
    else:
        den, cross = _cross_mass(mu, parts)
        colour = {c: i for i, c in enumerate(parts)}
        span = 2 * rank
        deep = {v: cross[_cross_place(span, colour[v[1:]], v[0])] for v in _words(depth, rank)}
    levels = [deep]
    for n in range(depth - 1, 0, -1):
        below = levels[-1]
        levels.append({
            v: sum(below[v + (c,)] for c in extension_letters(v, rank))
            for v in _words(n, rank)
        })
    return den, {v: q for level in reversed(levels) for v, q in level.items()}


def _cross_place(span: int, colour: int, x: int) -> int:
    """The place of D nu(x v) in `_cross_mass`'s layout of 2k = span
    letters, v the colour at place `colour`: its column of the group x^-1."""
    return span * colour + _LETTER_ORDER[-x] - 1


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
    fam = _depth1_family(auto, budget, cache)
    mu = uniform_measure(auto.rank)
    v: tuple = ()
    while True:
        step = None
        for c in extension_letters(v, auto.rank):
            part = _preimage(auto.bwd, fam, Word(v + (c,)), budget)
            if partition_mass(mu, part) >= HALF:
                step = c
                break
        if step is None:
            break
        v = v + (step,)
    vw = Word(v)
    return vw, conj(auto, inverse(vw))
