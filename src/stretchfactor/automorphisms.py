"""Automorphisms as inverse pairs (forward and inverse basis images).

An Automorphism stores the images of the positive basis letters under the
map and under its inverse.  Pairs that come from outside the engine
(`make_automorphism`, or the constructor with verify=True) are checked by
brute force: both substitutions must send every generator to itself.
Products of two such pairs (`compose`) are certified instead, by round
trips through the factor with the shorter images, in time linear in the
product's images.  A chain of atoms (a generator expression, or a
factorization recomposed) is folded as one product (`_fold`): each atom
recomputes and round-trips only the images of the letters it moves, and
one map is built at the end.  Inner automorphisms and signed
permutations are inverse pairs by construction, each signed permutation
is built once per process, and each second-kind move once and verified,
so the boundary engine always has a certified inverse available.  Each
atom of a generator expression is parsed once per process too, cached by
its rank and text (`_parse_expr_atom`); only the fold runs per expression.
Every map also factors into atoms of two kinds, elementary
transvections (the second-kind moves that move one letter on one side)
and signed permutations, whose preimage families the boundary engine
knows in closed form.  The chain is found one way only, by Nielsen reduction of the map's image
tuple on first use, so it depends on the map and not on how the map was
spelled; the engine reads each suffix of the chain as inverse images
alone, not as a map.

Maps are read from text in one entry grammar.  A raw map is a list of
`x->w` entries, one per basis letter (`parse_map_text`); a generator
expression multiplies `W2[m; x:TYPE, ...]`, `perm[x->y, ...]` and
`inner[w]` with `*`, the left factor applied last.  Every entry list is
split on commas and empty entries are skipped.  Each key is a lowercase
basis letter of the rank, named at most once (in W2, not the
multiplier's), and an error names the offending entry.  A perm image and
the W2 multiplier are letters of the rank of either sign, checked the
same way.  A raw map needs every letter; perm and W2 fix the letters
they omit.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import deque
from dataclasses import dataclass
from operator import itemgetter, neg
from typing import Optional, Sequence

from .errors import InputError, NotInverseError
from .words import (
    MAX_RANK,
    Word,
    _unchecked_word,
    alphabet,
    cancellation,
    check_rank,
    format_letter,
    format_word,
    free_reduce,
    inverse,
    letter_key,
    parse_word,
    validate_rank,
    word_key,
)

FIX, RIGHT, LEFT, CONJ = "FIX", "RIGHT", "LEFT", "CONJ"
_W2_TYPES = (FIX, RIGHT, LEFT, CONJ)


def _substitute(images: tuple[Word, ...], w: Sequence[int]) -> list[int]:
    """Reduced image of w under the map sending basis letter i to images[i - 1].

    Each letter image is reduced, so appending one cancels only a run at
    the seam: count the run, append the image whole and delete the run
    from both sides.  Inverse images are lists, made once per call.
    """
    out: list[int] = []
    inverses: dict[int, list[int]] = {}
    for x in w:
        img = images[x - 1] if x > 0 else inverses.get(x)
        if img is None:
            img = inverses[x] = list(map(neg, reversed(images[-x - 1])))
        if out and out[-1] == -img[0]:
            n = len(out)
            c = 1
            while c < n and c < len(img) and out[n - 1 - c] == -img[c]:
                c += 1
            out += img
            del out[n - c : n + c]
        else:
            out += img
    return out


class Automorphism:
    """An automorphism of the rank-k free group with a verified inverse.

    `factors` writes the map as a composition of atoms, leftmost factor
    applied last.  Every atom is an elementary transvection (x -> xa or
    x -> a^-1 x with every other basis letter fixed) or a signed
    permutation.  The chain is the Nielsen reduction of the image tuple,
    found on first use, so equal maps have equal chains; a signed
    permutation's is (self,).

    A rank outside 2..26, or a number of images other than the rank,
    raises InputError.  With verify=True (the default) every image must
    be a nonempty reduced word in the rank (InputError or
    NotReducedError), and the constructor checks by brute force that
    `bwd` inverts `fwd` and raises NotInverseError otherwise.
    verify=False is for callers whose pair is inverse by construction or
    already certified; nothing checks it then, not even a letter of an
    image, and images that are not Words become Words unchecked.  The
    engine's products are certified from their verified factors: two
    maps by `compose`'s round trips, and a chain of atoms by `_fold`,
    whose every step round-trips the images it changed through its
    atom's other side.
    """

    __slots__ = ("rank", "fwd", "bwd", "_factors", "_hash")

    def __init__(
        self,
        rank: int,
        fwd: Sequence[Word],
        bwd: Sequence[Word],
        *,
        verify: bool = True,
    ):
        check_rank(rank)
        if len(fwd) != rank or len(bwd) != rank:
            raise InputError("need exactly one image per basis letter")
        self.rank = rank
        word = Word if verify else _unchecked_word
        self.fwd = tuple(w if type(w) is Word else word(w) for w in fwd)
        self.bwd = tuple(w if type(w) is Word else word(w) for w in bwd)
        self._factors: Optional[tuple] = None
        self._hash = hash((rank, self.fwd))
        if verify:
            for w in self.fwd + self.bwd:
                if not w:
                    raise InputError("automorphism images must be nonempty")
                validate_rank(w, rank)
            self._verify()

    def _verify(self) -> None:
        for x in range(1, self.rank + 1):
            img = self.apply_inverse(self.fwd[x - 1])
            if img != Word((x,)):
                raise NotInverseError(
                    f"inverse check failed: maps send {format_letter(x)} "
                    f"to {format_word(img)!r} instead of itself"
                )
            img = self.apply(self.bwd[x - 1])
            if img != Word((x,)):
                raise NotInverseError(
                    f"inverse check failed on the backward map at {format_letter(x)}"
                )

    # -- basic action ---------------------------------------------------

    def letter_image(self, x: int) -> Word:
        return self.fwd[x - 1] if x > 0 else inverse(self.fwd[-x - 1])

    def inverse_letter_image(self, x: int) -> Word:
        return self.bwd[x - 1] if x > 0 else inverse(self.bwd[-x - 1])

    def apply(self, w: Sequence[int]) -> Word:
        return Word(_substitute(self.fwd, w))

    def apply_inverse(self, w: Sequence[int]) -> Word:
        return Word(_substitute(self.bwd, w))

    def inverse(self) -> "Automorphism":
        return Automorphism(self.rank, self.bwd, self.fwd, verify=False)

    @property
    def factors(self) -> tuple:
        """Atoms whose composition (left applied last) equals this map."""
        if self._factors is None:
            self._factors = _nielsen_factors(self)
        # A signed permutation keeps () rather than a reference to itself.
        return self._factors or (self,)

    # -- metrics --------------------------------------------------------

    def lipschitz(self) -> tuple[int, int]:
        """(max |phi(x)|, max |phi^-1(x)|) over all letters x."""
        return (max(len(w) for w in self.fwd), max(len(w) for w in self.bwd))

    def is_identity(self) -> bool:
        return all(self.fwd[x - 1] == Word((x,)) for x in range(1, self.rank + 1))

    # -- plumbing -------------------------------------------------------

    def key(self) -> str:
        """Canonical text of the forward map, for output and messages."""
        return ",".join(
            f"{format_letter(x)}->{format_word(self.fwd[x - 1])}"
            for x in range(1, self.rank + 1)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Automorphism)
            and self.rank == other.rank
            and self.fwd == other.fwd
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Automorphism({self.key()!r})"


def make_automorphism(
    rank: int,
    fwd: dict[int, Sequence[int]] | Sequence[Sequence[int]],
    bwd: dict[int, Sequence[int]] | Sequence[Sequence[int]],
) -> Automorphism:
    """Build a verified automorphism from basis images of phi and phi^-1."""
    check_rank(rank)

    def as_tuple(maps) -> tuple[Word, ...]:
        if isinstance(maps, dict):
            _require_basis_keys(rank, maps)
            return tuple(Word(maps[x]) for x in range(1, rank + 1))
        return tuple(Word(w) for w in maps)

    return Automorphism(rank, as_tuple(fwd), as_tuple(bwd))


def _require_basis_keys(rank: int, images: dict) -> None:
    """Refuse images keyed by anything but the basis letters 1..rank, or missing one."""
    basis = range(1, rank + 1)
    for x in images:
        if x not in basis:
            raise InputError(
                f"image keyed by {x!r}: the basis letters of rank {rank} "
                f"are 1 to {rank}"
            )
    missing = [x for x in basis if x not in images]
    if missing:
        raise InputError(
            f"missing image for {', '.join(format_letter(x) for x in missing)}"
        )


def identity(rank: int) -> Automorphism:
    basis = [Word((x,)) for x in range(1, rank + 1)]
    return Automorphism(rank, basis, basis, verify=False)


def inner(rank: int, v: Sequence[int]) -> Automorphism:
    """x -> v x v^-1."""
    v = Word(v)
    validate_rank(v, rank)
    if not v:
        return identity(rank)
    vi = inverse(v)
    fwd = [free_reduce(v + (x,) + vi) for x in range(1, rank + 1)]
    bwd = [free_reduce(vi + (x,) + v) for x in range(1, rank + 1)]
    return Automorphism(rank, fwd, bwd, verify=False)


def compose(phi: Automorphism, psi: Automorphism) -> Automorphism:
    """x -> phi(psi(x)); the left factor is applied last.

    Both factors are inverse pairs already, so the product is certified
    from them (`_certify`) rather than verified by brute force.
    """
    if phi.rank != psi.rank:
        raise InputError("cannot compose automorphisms of different ranks")
    fwd = [_substitute(phi.fwd, w) for w in psi.fwd]
    bwd = [_substitute(psi.bwd, w) for w in phi.bwd]
    _certify((phi.fwd, phi.bwd), (psi.fwd, psi.bwd), fwd, bwd)
    return Automorphism(phi.rank, fwd, bwd, verify=False)


# An inverse pair (forward images, backward images) of basis letters.
_Pair = tuple[Sequence[Word], Sequence[Word]]


def _certify(phi: _Pair, psi: _Pair, fwd: Sequence[Word], bwd: Sequence[Word]) -> None:
    """Check that (fwd, bwd) is the inverse pair of phi o psi.

    Two round trips run through the factor with the shorter images.  If
    that is phi: phi^-1(fwd[x]) = psi(x) gives fwd = phi o psi, and
    bwd(phi(x)) = psi^-1(x) gives bwd = psi^-1 o phi^-1.  Otherwise
    fwd(psi^-1(x)) = phi(x) and psi(bwd[x]) = phi^-1(x) give the same.
    So fwd and bwd are inverse, as the brute-force check proves, but
    each substitution costs the product's images times the short factor's
    instead of the product's images times each other.  Both factors are
    inverse pairs, so a failure is an engine bug: AssertionError, not
    NotInverseError.
    """
    (phi_f, phi_b), (psi_f, psi_b) = phi, psi
    if _size(phi) <= _size(psi):
        trips = ((phi_b, fwd, psi_f), (bwd, phi_f, psi_b))
    else:
        trips = ((fwd, psi_b, phi_f), (psi_f, bwd, phi_b))
    for images, words, expected in trips:
        _round_trip(images, words, expected, range(1, len(words) + 1))


def _round_trip(
    images: Sequence[Sequence[int]],
    words: Sequence[Word],
    expected: Sequence[Sequence[int]],
    letters: Sequence[int],
) -> None:
    """Check that images sends words[x - 1] to expected[x - 1] for each x in letters.

    Every caller's maps are inverse pairs already, so a failure is an
    engine bug: AssertionError, not NotInverseError.
    """
    for x in letters:
        if tuple(_substitute(images, words[x - 1])) != expected[x - 1]:
            raise AssertionError(
                f"product certificate failed at {format_letter(x)}: "
                "a substitution of two verified maps is wrong"
            )


def _size(pair: _Pair) -> int:
    return sum(map(len, pair[0])) + sum(map(len, pair[1]))


def _fold(atoms: Sequence[Automorphism]) -> Automorphism:
    """a_1 o ... o a_n, the left factor applied last, certified step by step.

    Every factor is an inverse pair already.  Forward images are folded
    left to right and inverse images right to left (`_fold_images`), and
    one Automorphism is built, at the end; one factor is returned as it is.
    """
    if len(atoms) == 1:
        return atoms[0]
    fwd = _fold_images([(a.fwd, a.bwd) for a in atoms])
    bwd = _fold_images([(a.bwd, a.fwd) for a in reversed(atoms)])
    return Automorphism(atoms[0].rank, fwd, bwd, verify=False)


def _fold_images(pairs: Sequence[_Pair]) -> list:
    """Images of f_1 o ... o f_n, given each f_j as (images, inverse images).

    A step recomputes only the images of the letters f_j moves, P_j(x) =
    P_(j-1)(f_j(x)), and keeps the others.  It checks each recomputed
    image through f_j's other side, P_j(f_j^-1(x)) = P_(j-1)(x): that is
    `_certify`'s round trip through the short factor on the letters that
    changed, and on the others it holds trivially, so P_j = P_(j-1) o f_j
    and by induction the fold is the product.
    """
    images = list(pairs[0][0])
    for step, back in pairs[1:]:
        previous = images[:]
        moved = [x for x, w in enumerate(step, 1) if len(w) != 1 or w[0] != x]
        for x in moved:
            images[x - 1] = tuple(_substitute(previous, step[x - 1]))
        _round_trip(images, back, previous, moved)
    return images


def conj(phi: Automorphism, v: Sequence[int]) -> Automorphism:
    """x -> v phi(x) v^-1."""
    return compose(inner(phi.rank, v), phi)


# -- signed permutations ------------------------------------------------


@dataclass(frozen=True)
class SignedPermutation:
    """A bijection of the alphabet commuting with inversion.

    `images[i]` is the (possibly negative) image of basis letter i+1.
    """

    rank: int
    images: tuple[int, ...]

    def __post_init__(self):
        check_rank(self.rank)
        if sorted(abs(x) for x in self.images) != list(range(1, self.rank + 1)):
            raise InputError("signed permutation images must hit each basis letter once")

    def __call__(self, x: int) -> int:
        return self.images[x - 1] if x > 0 else -self.images[-x - 1]

    def automorphism(self) -> Automorphism:
        return _signed_permutation(self.rank, self.images)


def enumerate_signed_permutations(rank: int) -> list[Automorphism]:
    """All 2^k k! signed permutations as verified automorphisms."""
    out = []
    for perm in itertools.permutations(range(1, rank + 1)):
        for signs in itertools.product((1, -1), repeat=rank):
            images = tuple(s * p for s, p in zip(signs, perm))
            out.append(SignedPermutation(rank, images).automorphism())
    return out


# -- Whitehead automorphisms of the second kind ---------------------------


@dataclass(frozen=True)
class WhiteheadSecondKind:
    """Multiplier letter a plus a type for every other basis letter.

    The induced map fixes the basis letter under the multiplier and sends
    each other basis letter x to x, xa, a^-1 x or a^-1 x a.
    """

    rank: int
    multiplier: int
    types: tuple[str, ...]  # indexed by basis letters != |multiplier|, ascending

    def __post_init__(self):
        check_rank(self.rank)
        if not (1 <= abs(self.multiplier) <= self.rank):
            raise InputError("multiplier outside alphabet")
        if len(self.types) != self.rank - 1:
            raise InputError("need a type for every non-multiplier basis letter")
        for t in self.types:
            if t not in _W2_TYPES:
                raise InputError(f"unknown type {t!r}")

    def _others(self) -> list[int]:
        return [x for x in range(1, self.rank + 1) if x != abs(self.multiplier)]

    def automorphism(self) -> Automorphism:
        return _second_kind(self.rank, self.multiplier, self.types)

    def inverse(self) -> "WhiteheadSecondKind":
        return WhiteheadSecondKind(self.rank, -self.multiplier, self.types)

    def is_identity(self) -> bool:
        return all(t == FIX for t in self.types)

    def sort_key(self) -> tuple:
        return (letter_key(self.multiplier), tuple(_W2_TYPES.index(t) for t in self.types))

    def label(self) -> str:
        inside = ", ".join(
            f"{format_letter(x)}:{t}" for x, t in zip(self._others(), self.types)
        )
        return f"W2[{format_letter(self.multiplier)}; {inside}]"


def _w2_image(x: int, a: int, t: str) -> Word:
    if t == FIX:
        return Word((x,))
    if t == RIGHT:
        return free_reduce((x, a))
    if t == LEFT:
        return free_reduce((-a, x))
    return free_reduce((-a, x, a))


# At most 2k * 4^(k-1) moves per rank, each built and verified once and
# shared by every caller.
@functools.cache
def _second_kind(rank: int, a: int, types: tuple[str, ...]) -> Automorphism:
    """The map of the second-kind move with multiplier a and these types."""
    others = [x for x in range(1, rank + 1) if x != abs(a)]
    type_of = dict(zip(others, types))  # the multiplier's letter is fixed
    letters = [(x, type_of.get(x, FIX)) for x in range(1, rank + 1)]
    fwd = [_w2_image(x, a, t) for x, t in letters]
    bwd = [_w2_image(x, -a, t) for x, t in letters]
    return Automorphism(rank, fwd, bwd, verify=True)


def enumerate_second_kind(rank: int) -> list[WhiteheadSecondKind]:
    """All 2k * 4^(k-1) second-kind moves, identity-typed ones included."""
    out = []
    for a in alphabet(rank):
        for types in itertools.product(_W2_TYPES, repeat=rank - 1):
            out.append(WhiteheadSecondKind(rank, a, types))
    return sorted(out, key=WhiteheadSecondKind.sort_key)


# -- Nielsen reduction ----------------------------------------------------


def _nielsen_factors(auto: Automorphism) -> tuple:
    """Factors of a map into transvections and one signed permutation.

    Composing auto on the right with x -> xa replaces the image w_x by
    w_x auto(a) in the image tuple, and x -> a^-1 x replaces it by
    auto(a)^-1 w_x.  A move that shortens the tuple most is taken while
    one exists.  Otherwise the finitely many tuples reachable by moves
    that keep the total length are searched breadth first for one with a
    shortening move, which exists until the tuple is a signed permutation
    (Lyndon-Schupp, Combinatorial Group Theory, Prop. I.2.2).  Moves
    t_1, ..., t_n reaching sigma give auto = sigma o t_n^-1 o ... o t_1^-1.
    Returns () when auto is itself a signed permutation.
    """
    k = auto.rank
    current = tuple(tuple(w) for w in auto.fwd)
    moves: list[tuple[int, int, str]] = []
    while sum(map(len, current)) > k:
        path, current = _shortening_path(k, current)
        moves += path
    if not moves:
        return ()
    # x -> xa or x -> a^-1 x: the second-kind move with multiplier a, side at x
    factors = tuple(
        _second_kind(k, -a, tuple(side if y == x else FIX for y in range(1, k + 1) if y != abs(a)))
        for x, a, side in reversed(moves)
    )
    images = tuple(w[0] for w in current)
    if images == tuple(range(1, k + 1)):
        return factors
    return (_signed_permutation(k, images),) + factors


# At most 2^k k! signed permutations per rank, each built once and shared
# by every chain that ends in it and every caller that names it.
@functools.cache
def _signed_permutation(rank: int, images: tuple[int, ...]) -> Automorphism:
    """The signed permutation sending basis letter i to images[i - 1]."""
    bwd: list = [None] * rank
    for x, y in enumerate(images, 1):
        bwd[abs(y) - 1] = Word((x if y > 0 else -x,))
    return Automorphism(rank, [Word((y,)) for y in images], bwd, verify=False)


def _shortening_path(k: int, start: tuple) -> tuple[list, tuple]:
    """Moves through equal-length tuples ending in one shortening move.

    Moves are scored by their cancellation alone, and only the tuples
    taken are built: the first best shortening move's, or, when no move
    shortens, those of the moves that keep the total length.
    """
    parent: dict[tuple, Optional[tuple]] = {start: None}
    queue = deque([start])
    while queue:
        images = queue.popleft()
        moves = _nielsen_moves(k, images)
        gain, move, c = max(moves, key=itemgetter(0), default=(0, None, 0))
        if gain > 0:
            shorter = _nielsen_move(images, move, c)
            path = [move]
            step = parent[images]
            while step is not None:
                images, move = step
                path.append(move)
                step = parent[images]
            return path[::-1], shorter
        for gain, move, c in moves:
            if gain == 0:
                new = _nielsen_move(images, move, c)
                if new not in parent:
                    parent[new] = (images, move)
                    queue.append(new)
    raise AssertionError("Nielsen reduction stalled on a basis image tuple")


def _nielsen_moves(k: int, images: tuple) -> list[tuple[int, tuple, int]]:
    """(gain, move, c) for every move that cancels, in a fixed order.

    The move x -> xa makes w_x img and x -> a^-1 x makes img^-1 w_x, img
    the image of a; cancelling c letters at the seam, either shortens the
    tuple by gain = 2c - |img|.  A move that cancels nothing lengthens it,
    so it is left out.  With u the image of y, img is u for a = y and
    u^-1 for a = y^-1, so every seam is read off u without inverting it:
    a move is kept when the two letters at its seam cancel, and against
    u^-1 the cancelling pairs are the letters w and u share at one end.
    Moves run by x, then by a in `alphabet` order, x -> xa before
    x -> a^-1 x.
    """
    out = []
    for x, w in enumerate(images, 1):
        first, last = w[0], w[-1]
        for y, u in enumerate(images, 1):
            if y == x:
                continue
            n = len(u)
            if last == -u[0]:  # w u
                c = cancellation(w, u)
                out.append((2 * c - n, (x, y, RIGHT), c))
            if first == u[0]:  # u^-1 w
                c = _shared(w, u, 0, 1)
                out.append((2 * c - n, (x, y, LEFT), c))
            if last == u[-1]:  # w u^-1
                c = _shared(w, u, -1, -1)
                out.append((2 * c - n, (x, -y, RIGHT), c))
            if first == -u[-1]:  # u w
                c = cancellation(u, w)
                out.append((2 * c - n, (x, -y, LEFT), c))
    return out


def _shared(w: tuple, u: tuple, i: int, step: int) -> int:
    """Letters w and u share, read from index i (0 or -1) by step (1 or -1)."""
    c, n = 0, min(len(w), len(u))
    while c < n and w[i] == u[i]:
        c += 1
        i += step
    return c


def _nielsen_move(images: tuple, move: tuple, c: int) -> tuple:
    """The tuple a move gives, cancelling c letters at its seam."""
    x, a, side = move
    w = images[x - 1]
    img = images[a - 1] if a > 0 else tuple(-y for y in reversed(images[-a - 1]))
    u, v = (w, img) if side == RIGHT else (tuple(-y for y in reversed(img)), w)
    return images[: x - 1] + (u[: len(u) - c] + v[c:],) + images[x:]


# -- conjugation ------------------------------------------------------------


def _tuple_sort_key(images: tuple[Word, ...]) -> tuple:
    return tuple(word_key(w) for w in images)


def _conjugate(c: int, images: tuple) -> tuple:
    """Images of x -> c phi(x) c^-1, given the reduced images of phi."""
    out = []
    for w in images:
        w = w[1:] if w and w[0] == -c else (c,) + w
        out.append(w[:-1] if w and w[-1] == c else w + (-c,))
    return tuple(out)


def _deltas(images: tuple) -> dict[int, int]:
    """The change of the total image length under conjugation by each letter.

    Conjugating a reduced nonempty image by c drops its first letter if
    that is c^-1 and its last if that is c, and adds a letter at each
    other end, so the total changes by 2k - 2(F(c^-1) + E(c)), where
    F(c^-1) counts the images that start with c^-1 and E(c) those that
    end with c.
    """
    deltas = dict.fromkeys(alphabet(len(images)), 2 * len(images))
    for w in images:
        deltas[-w[0]] -= 2
        deltas[w[-1]] -= 2
    return deltas


def _shortest_conjugate(images) -> tuple[tuple, list[int]]:
    """(psi, v) with psi of least total length and phi(x) = v psi(x) v^-1.

    The cost u -> sum of |u phi(x) u^-1| is convex on the Cayley tree, so
    single-letter conjugations that shrink it reach a global minimum.  At
    rank >= 2 a minimum of total length k, every image one letter, is the
    only minimum, since conjugating it by any letter adds at least 2k - 2.

    Letters are tried in `alphabet` order, and c is taken when it shrinks
    the cost, F(c^-1) + E(c) > k (`_deltas`), read again after each
    conjugation; a pass that takes none ends the descent.  At most one
    letter shrinks the cost at a time, since F(c^-1) + F(d^-1) <= k and
    E(c) + E(d) <= k for letters c != d, so v does not depend on the
    order in which letters are tried.  The tallies F and E of first and
    last letters are kept as the images change, and each image is
    conjugated in place at its two ends, so a letter of v costs O(k), not
    a copy of every image.  A map that is its own shortest conjugate is
    returned as tuples of its images' letters.
    """
    k = len(images)
    v: list[int] = []
    first = dict.fromkeys(alphabet(k), 0)
    last = dict(first)
    for w in images:
        first[w[0]] += 1
        last[w[-1]] += 1
    words = None
    improved = True
    while improved:
        improved = False
        for c in alphabet(k):
            if first[-c] + last[c] <= k:
                continue
            if words is None:
                words = [deque(w) for w in images]
            for w in words:
                first[w[0]] -= 1
                last[w[-1]] -= 1
                if w[0] == -c:
                    w.popleft()
                else:
                    w.appendleft(c)
                if w and w[-1] == c:
                    w.pop()
                else:
                    w.append(-c)
                first[w[0]] += 1
                last[w[-1]] += 1
            v.append(-c)
            improved = True
    return tuple(map(tuple, words if words is not None else images)), v


def _plateau(images) -> set[tuple]:
    """The shortest conjugates of phi, as tuples of letter tuples.

    The minimizers of the cost form a finite subtree, the equal-cost
    plateau around `_shortest_conjugate`'s, which is walked whole.  Maps
    that differ by an inner automorphism have the same plateau, so any
    rule that picks one of its tuples is a class key.  Walked from any of
    its own tuples the plateau is the same, so two plateaus are equal or
    disjoint and one tuple decides the class.  A signed permutation
    sigma keeps lengths and sends conjugates to conjugates, so the
    plateau of sigma o phi is sigma applied letter by letter to phi's.
    """
    return _plateau_around(_shortest_conjugate(images)[0])


def _plateau_around(current: tuple) -> set[tuple]:
    """`_plateau` walked from current, one of its tuples: a caller that
    holds a shortest conjugate needs no second descent."""
    seen = {current}
    queue = [current]
    while queue:
        phi = queue.pop()
        for c, delta in _deltas(phi).items():
            if delta == 0:
                psi = _conjugate(c, phi)
                if psi not in seen:
                    seen.add(psi)
                    queue.append(psi)
    return seen


def is_simple(phi: Automorphism) -> Optional[tuple[Word, SignedPermutation]]:
    """Find (v, pi) with phi(x) = v pi(x) v^-1 for all x, if they exist.

    phi is simple exactly when its shortest conjugate sends every basis
    letter to one letter; v is then unique.
    """
    images, v = _shortest_conjugate(phi.fwd)
    if any(len(w) != 1 for w in images):
        return None
    return Word(v), SignedPermutation(phi.rank, tuple(w[0] for w in images))


# -- text formats ---------------------------------------------------------


def _entries(text: str, sep: str, keys: Sequence[int]) -> dict[int, str]:
    """{key: value text} of the comma-separated `x<sep>value` entries of text.

    Empty entries are skipped; each key must be one of `keys`, named once.
    """
    out: dict[int, str] = {}
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        key, found, value = entry.partition(sep)
        if not found:
            raise InputError(f"expected 'x{sep}...' entries, got {entry!r}")
        key = key.strip()
        x = _letter(key, keys, f"entry {entry!r}: key")
        if x in out:
            raise InputError(f"entry {entry!r}: key {key!r} is named twice")
        out[x] = value.strip()
    return out


# Every letter of every rank, by its text.
_LETTERS = {format_letter(x): x for x in alphabet(MAX_RANK)}


def _letter(text: str, letters: Sequence[int], what: str) -> int:
    """The one of `letters` that text spells; an error names `what` it is."""
    x = _LETTERS.get(text)
    if x is not None and x in letters:
        return x
    raise InputError(
        f"{what} {text!r} is not one of the letters "
        f"{', '.join(map(format_letter, letters))}"
    )


def parse_map_text(rank: int, text: str) -> dict[int, Word]:
    """Parse 'a->a, b->ba' into basis-letter images."""
    check_rank(rank)
    images = {}
    for x, value in _entries(text, "->", range(1, rank + 1)).items():
        images[x] = w = parse_word(value)
        validate_rank(w, rank)
    _require_basis_keys(rank, images)
    return images


_EXPR_ATOM = re.compile(r"^(W2|perm|inner)\[(.*)\]$")


def parse_generator_expression(rank: int, text: str) -> Automorphism:
    """Parse `W2[a; b:RIGHT] * perm[a->b,b->a] * inner[ab]` style expressions.

    `*` composes left-to-right with the left factor applied last.  Every
    named generator carries its inverse, so no `--inverse` text is needed.
    Every atom is parsed first, and each atom text once per process: the
    parsed atom is cached by rank and stripped text, and a text that fails
    to parse is not cached, so it raises again.  W2 and perm atoms are the
    cached maps of `_second_kind` and `_signed_permutation`, and an inner
    atom is built once per text.  The chain is then one fold
    (`_fold`): forward images left to right, P_j = P_(j-1) o a_j, inverse
    images right to left, Q_j = Q_(j+1) o a_j^-1, each step recomputing
    only the letters a_j moves and checking each new image through a_j's
    other side, P_j(a_j^-1(x)) = P_(j-1)(x).  By induction the pair is
    a_1 o ... o a_n and its inverse, with no intermediate map built, and
    every fold step's round trip runs on every call.  A one-atom
    expression returns the shared atom itself, the same object on every
    call.
    """
    check_rank(rank)
    return _fold([_parse_expr_atom(rank, t.strip()) for t in text.split("*")])


# A few hundred distinct atom texts serve every pooled expression; the bound
# keeps a long-running caller that parses ever new inner[w] atoms from
# growing the cache without limit.  Errors propagate and are not cached.
@functools.lru_cache(maxsize=1024)
def _parse_expr_atom(rank: int, text: str) -> Automorphism:
    m = _EXPR_ATOM.match(text)
    if not m:
        raise InputError(
            f"cannot parse {text!r}: expected W2[...], perm[...] or inner[...]"
        )
    kind, body = m.group(1), m.group(2).strip()
    if kind == "inner":
        return inner(rank, parse_word(body))
    if kind == "perm":
        images = list(range(1, rank + 1))
        entries = _entries(body, "->", range(1, rank + 1))
        # the basis letter each image hits, and the first letter mapped to it
        hit = {z: z for z in images if z not in entries}
        for x, value in entries.items():
            images[x - 1] = y = _letter(
                value, alphabet(rank), f"perm entry for {format_letter(x)!r}: image"
            )
            z = hit.setdefault(abs(y), x)
            if z != x:
                raise InputError(
                    f"entry '{format_letter(x)}->{value}': image {value!r} is given "
                    f"twice, up to sign: {format_letter(z)!r} maps to "
                    f"{format_letter(images[z - 1])!r}"
                )
        return _signed_permutation(rank, tuple(images))
    # W2[a; x:TYPE, ...] with unlisted basis letters fixed
    head, _, rest = body.partition(";")
    head = head.strip()
    a = _letter(head, alphabet(rank), "W2 multiplier")
    others = [x for x in range(1, rank + 1) if x != abs(a)]
    types = _entries(rest, ":", others)
    for x, t in types.items():
        if t.upper() not in _W2_TYPES:
            raise InputError(
                f"entry '{format_letter(x)}:{t}': type {t!r} is not one of "
                f"{', '.join(_W2_TYPES)}"
            )
    return _second_kind(rank, a, tuple(types.get(x, FIX).upper() for x in others))
