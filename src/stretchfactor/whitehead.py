"""Descent through second-kind moves, factorization, and length spectra.

A non-simple automorphism always admits a second-kind move that strictly
decreases its length; greedily composing the steepest such move yields a
factorization into second-kind moves times a simple map with strictly
increasing lengths.  It stops at L = 1, which holds exactly for simple
maps (Kaimanovich-Kapovich-Schupp, math/0504105), and checks simplicity
once, on the map it reaches.  Enumerating bounded compositions of the
generating moves up to conjugacy exhibits the discreteness of the length
spectrum at small scale.

Every candidate move is scored by Whitehead's cut formula instead of
being built and measured.  A second-kind move tau with multiplier a
fixes a and sends each other basis letter x to a^-e x a^f (e, f in
{0, 1}), so every letter image starts with a^-1 or its own letter and
ends with a or its own letter.  At a turn xy (y != x^-1) the images
tau(x) tau(y) can therefore cancel only a against a^-1, one letter; what
is left of them then meets as x against y, which does not cancel, and
tau(a) = a is never cancelled from its left, so no cancellation runs
through a neighbouring image.  For a cyclic word w, |tau(w)| is thus the
sum of |tau(x)| over its letters minus 2 for each turn whose images
cancel.  Both sides are linear in the current of w and read finitely
many cylinder values, and rational currents are dense (Kapovich,
"Currents on free groups", math/0412128), so for every current nu

    ||tau_* nu|| = sum_x nu(x) |tau(x)| - 2 sum nu(xy),

the last sum over the turns xy whose images cancel.  With nu = phi_* mu,
||nu|| = sum_x nu(x) = L(phi), so the lengths of all tau o phi are read
off one depth-2 pushforward table of phi (J. H. C. Whitehead, Ann. of
Math. 37 (1936); Lyndon-Schupp, Combinatorial Group Theory, I.4).  That
table is the weighted Whitehead graph of nu: nu(x^-1 y) is the pair mass
of the depth-1 families of x and y, so one walk of the 2k families gives
it (`boundary._cross_mass`), and no longer preimage is built.  The walk
lays its integers out by place, per colour y and group x, and the
scores read them there: no cylinder is keyed and no level is summed.

That table is a class invariant, read off the shortest conjugate psi
of phi (`boundary._class_rep`): every conjugate of phi gets the same
move, a budget (`--budget`) counts psi's chain, and the moves are still
composed with phi, so a factorization recomposes to its input.

Descent and the spectrum read each class through one step, `_expand`.
A signed permutation sigma sends letters to letters, so nothing cancels
and L(sigma o phi) = L(phi); inner automorphisms act trivially on
currents, so L is constant on a conjugacy class.  So each class the
enumeration expands gets one depth-2 table, which gives the lengths of
the classes one generator away and must sum to the value its parent's
cut gave it; no class is measured alone.

Nor is a class's plateau of shortest conjugates walked more than once.
Since tau o iota_v = iota_tau(v) o tau, a move is applied to one shortest
conjugate of phi, its class key, and the plateau is walked, from the
conjugate that descends from it, only when that conjugate is new.  A
signed permutation needs neither: sigma o phi's plateau is sigma applied
letterwise to phi's.

A class the spectrum first reaches as sigma o B, B the class being
expanded, is a relabelled class.  Its step would be B's seen through
sigma: L(sigma o B) = L(B), and with tau' = sigma^-1 tau sigma, again a
second-kind move (Lyndon-Schupp, I.4), tau o sigma o B = sigma o tau' o B.
It would find no new class, so a relabelled class is recorded but never
expanded.  Its children by signed permutations, sigma' sigma o B, are
children of B.  Its child by tau is sigma o K, K the class of tau' o B,
which B's expansion met before sigma o B, since moves are tried first.
So K was expanded before sigma o B would be, and recorded sigma o K; or
K is itself relabelled, sigma'' o B'', and sigma o K is a child of B''.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul
from types import MappingProxyType
from typing import Mapping, Optional

from .automorphisms import (
    Automorphism,
    WhiteheadSecondKind,
    _fold,
    _plateau,
    _plateau_around,
    _shortest_conjugate,
    _substitute,
    _tuple_sort_key,
    compose,
    enumerate_second_kind,
    enumerate_signed_permutations,
    identity,
    is_simple,
)
from . import boundary
from .boundary import (
    Budget,
    PartitionCache,
    _class_rep,
    _cross_place,
    _depth1_family,
    _resolve,
)
from .errors import DescentStuckError, InputError
from .measures import frac_str, uniform_measure
from .words import Word, alphabet, cancellation, format_word

ONE = Fraction(1)


@dataclass(frozen=True)
class FactorizationReport:
    """phi = taus[0] o ... o taus[-1] o sigma with strictly increasing lengths."""

    rank: int
    sigma: Automorphism
    taus: tuple[WhiteheadSecondKind, ...]
    lengths: tuple[Fraction, ...]  # L(sigma), L(tau_1 sigma), ..., L(phi)

    def recomposed(self) -> Automorphism:
        """taus[0] o ... o taus[-1] o sigma, folded as one certified chain."""
        return _fold([tau.automorphism() for tau in self.taus] + [self.sigma])


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted distinct lengths with class multiplicities and the least gap."""

    rank: int
    max_factors: int
    entries: tuple[tuple[Fraction, int, str], ...]  # (length, multiplicity, rep key)
    min_gap: Optional[Fraction]

    def values(self) -> tuple[Fraction, ...]:
        return tuple(e[0] for e in self.entries)

    def csv_lines(self) -> list[str]:
        lines = ["length_num,length_den,multiplicity,representative"]
        for value, mult, rep in self.entries:
            lines.append(f"{value.numerator},{value.denominator},{mult},\"{rep}\"")
        return lines


def descent_step(
    auto: Automorphism,
    *,
    budget: Optional[int | Budget] = None,
    cache: Optional[PartitionCache] = None,
) -> Optional[WhiteheadSecondKind]:
    """The second-kind move minimizing L(tau o phi), if one goes strictly down.

    Every L(tau o phi) is read off phi's class step (`_expand`), so no
    candidate map is built; ties break toward the canonically smallest
    move.  None comes only at L = 1, which holds exactly for simple maps
    (KKS), so simplicity is checked only then.  Raises DescentStuckError
    when L > 1 yet no move goes down.
    """
    budget, cache = _resolve(budget, cache)
    best = _steepest(auto, None, budget, cache)[1]
    if best is None:
        _check_simple(auto)
        return None
    return best[0]


def factorize(
    auto: Automorphism,
    *,
    budget: Optional[int | Budget] = None,
    cache: Optional[PartitionCache] = None,
) -> FactorizationReport:
    """Greedy steepest-descent factorization into second-kind moves.

    Each step is the current map's class step (`_expand`): its table must
    sum to the value the previous step's cut gave it, and the chosen
    move's cut value is the next map's length, so no length is measured
    alone.  The descent stops when that value is 1, which holds exactly
    for simple maps (KKS), so a simple input reads one table; simplicity
    is checked once, on the map reached.  A failed check is an engine
    bug (AssertionError).
    """
    budget, cache = _resolve(budget, cache)
    length, best = _steepest(auto, None, budget, cache)
    lengths = [length]
    moves: list[WhiteheadSecondKind] = []
    current = auto
    while best is not None:
        tau, length = best
        moves.append(tau)
        lengths.append(length)
        current = compose(tau.automorphism(), current)
        best = None if length == ONE else _steepest(current, length, budget, cache)[1]
    _check_simple(current)
    taus = tuple(m.inverse() for m in moves)  # phi = w1^-1 o ... o wm^-1 o sigma
    report = FactorizationReport(
        rank=auto.rank,
        sigma=current,
        taus=taus,
        lengths=tuple(reversed(lengths)),
    )
    if report.recomposed() != auto:
        raise AssertionError("factorization failed to recompose exactly")
    if any(a >= b for a, b in zip(report.lengths, report.lengths[1:])):
        raise AssertionError("factorization lengths are not strictly increasing")
    return report


def _check_simple(auto: Automorphism) -> None:
    if is_simple(auto) is None:  # L = 1 exactly for simple maps (KKS)
        raise AssertionError(
            f"descent reached L = 1 at the non-simple map {auto.key()!r}"
        )


def _expand(
    auto: Automorphism, expected: Optional[Fraction], budget: Budget, cache: PartitionCache
) -> tuple[int, int, list[tuple[int, WhiteheadSecondKind]]]:
    """(D, D L(phi), `_cut_scores`) of phi's depth-2 table: one class step.

    The table is that of psi, phi's shortest conjugate (`_class_rep`),
    whose chain the budget counts: one walk of psi's 2k families under
    the uniform measure, whose one state selects the integer walk
    (`boundary._one_state_cross_mass`).  The cut scores read the walk's
    integers by place, so no cylinder of the table is keyed as a `Word`.
    A table that does not sum to `expected`, the value the parent's cut
    gave, is an engine bug.
    """
    rank = auto.rank
    psi = _class_rep(auto)
    fam = _depth1_family(psi, budget, cache)
    parts = {(x,): fam[x] for x in alphabet(rank)}
    den, num = boundary._cross_mass(uniform_measure(rank), parts)
    total, scores = _cut_scores(rank, num)
    if expected is not None and total * expected.denominator != den * expected.numerator:
        raise AssertionError(
            f"the cut formula gave L = {frac_str(expected)} but the "
            f"table of {auto.key()!r} sums to {frac_str(Fraction(total, den))}"
        )
    return den, total, scores


def _steepest(
    auto: Automorphism, expected: Optional[Fraction], budget: Budget, cache: PartitionCache
) -> tuple[Fraction, Optional[tuple[WhiteheadSecondKind, Fraction]]]:
    """L(phi), and the least (move, L(tau o phi)) below it, None at L = 1.

    Moves are compared in integers; only the values returned are
    fractions.  Raises DescentStuckError when L > 1 and no move goes down.
    """
    den, total, scores = _expand(auto, expected, budget, cache)
    # scores run in canonical move order, and min keeps the first minimum
    value, tau = min(scores, key=itemgetter(0))
    if value < total:
        return Fraction(total, den), (tau, Fraction(value, den))
    if total != den:
        raise DescentStuckError(
            f"no second-kind move decreases L = {frac_str(Fraction(total, den))} "
            f"for the non-simple map {auto.key()!r}"
        )
    return ONE, None


def _cut_scores(
    rank: int, num: list[int]
) -> tuple[int, list[tuple[int, WhiteheadSecondKind]]]:
    """(D ||nu||, [(D ||tau_* nu||, tau) for each non-identity move]).

    `num` is `boundary._cross_mass`'s layout of the 2k families, one
    colour per letter in `alphabet` order, for one common denominator D:
    D nu(xy) sits in the column of the group x^-1 of the colour y, and
    D nu(x) = sum of D nu(xy) over y is that column's sum.  So every
    move is scored by integer sums of the cut formula, and each reads its
    cancelling turns through one getter of their places (`_cut_terms`),
    with no key and no lookup per turn in Python.
    """
    span = 2 * rank
    columns, terms = _cut_terms(rank)
    ones = [sum(num[j::span]) for j in columns]
    scores = [
        (sum(map(mul, ones, lengths)) - 2 * sum(turns(num)), tau)
        for tau, lengths, turns in terms
    ]
    return sum(ones), scores


@functools.cache
def _move_data(rank: int) -> tuple:
    """(tau, |tau(x)| per letter x, cancelling turns xy) per non-identity move.

    Built from the moves' letter images on first use at each rank, in
    canonical move order.  Every move cancels at two turns or more: a
    letter x that it sends to a^-1 x cancels at the turns a x and
    x^-1 a^-1, and one that it sends to x a at x a^-1 and a x^-1.  A move
    with fewer, or with a seam that cancels two letters, raises
    AssertionError.
    """
    letters = alphabet(rank)
    out = []
    for tau in enumerate_second_kind(rank):
        if tau.is_identity():
            continue
        images = [tau.automorphism().letter_image(x) for x in letters]
        turns = []
        for x, u in zip(letters, images):
            for y, v in zip(letters, images):
                if y == -x:
                    continue
                c = cancellation(u, v)
                if c > 1:
                    raise AssertionError(
                        f"{tau.label()} cancels {c} letters at a seam"
                    )
                if c:
                    turns.append((x, y))
        if len(turns) < 2:
            raise AssertionError(f"{tau.label()} cancels at {len(turns)} turns")
        out.append((tau, tuple(map(len, images)), tuple(turns)))
    return tuple(out)


@functools.cache
def _cut_terms(rank: int) -> tuple:
    """(columns, terms), built once per rank for `_cut_scores`' layout
    (`boundary._cross_place`): the first place of each letter's column,
    and `_move_data` with each move's turns read by one
    `operator.itemgetter` of their places.  A getter of two or more
    places returns a tuple, which `_move_data` makes sure of."""
    letters = alphabet(rank)
    span = len(letters)
    place = {y: i for i, y in enumerate(letters)}
    columns = tuple(_cross_place(span, 0, x) for x in letters)
    terms = tuple(
        (tau, lengths, itemgetter(*(_cross_place(span, place[y], x) for x, y in turns)))
        for tau, lengths, turns in _move_data(rank)
    )
    return columns, terms


def canonical_out_key(auto: Automorphism) -> tuple[Word, ...]:
    """Conjugation normal form of the image tuple: a class invariant.

    The shortest conjugates of phi form a finite plateau that maps
    differing by an inner automorphism share (`_plateau`).  The key is
    its `_class_key`, by which `spectrum` keys and names classes, so two
    maps have equal keys exactly when they differ by an inner
    automorphism.
    """
    return tuple(Word(w) for w in _class_key(_plateau(auto.fwd))[1])


def _class_key(plateau) -> tuple:
    """(order, key): the shortlex-least image tuple of a plateau, its class's
    key, and its shortlex order (`_tuple_sort_key`), which no two tuples
    share."""
    return min(zip(map(_tuple_sort_key, plateau), plateau))


def spectrum(
    rank: int,
    max_factors: int,
    *,
    budget: Optional[int | Budget] = None,
    cache: Optional[PartitionCache] = None,
) -> SpectrumReport:
    """Exact lengths of all compositions of up to max_factors generators.

    Generators are the signed permutations plus all second-kind moves.
    Maps are merged by conjugacy class, so multiplicities count maps up to
    inner automorphisms.  Classes are found level by level from the
    identity's.  The identity's class, and each class below the last
    level first reached by a move, built with `compose`, is expanded by
    `_expand`: one depth-2 table of it, its shortest conjugate's, gives
    L(tau o phi) for every move tau by the cut formula and L(sigma o phi)
    = L(phi) for every signed permutation sigma (module docstring); the
    budget counts those chains.  One tuple keys, names and expands a
    class: the shortlex-least of its plateau of shortest conjugates, its
    `_class_key`, taken once with its shortlex order, which then picks
    each value's representative.  Each class's plateau is walked once:
    every tuple of it is recorded, a move's candidate is the key with the
    move applied and descended to a shortest conjugate, and only a
    conjugate not yet recorded is walked, from that conjugate, with no
    second descent (`_plateau_around`).  A signed permutation's candidate
    is relabelled, not walked.  A class's L is its parent's cut score
    over the table's D, one Fraction per distinct pair; a relabelled
    class takes its base's.

    A class first reached by a signed permutation, sigma o B, is
    relabelled: every class its expansion would meet is already recorded
    (module docstring), so it is neither composed nor expanded.  It
    builds no table, so no check against its parent's cut meets it; the
    relabelling holds instead (tests).  Skipping it leaves the budget as
    it was: such a table spent no nodes, its chain being B's
    transvections under another permutation, whose families were
    cached.  Tables drop from 12 to 5 at (2, 2), 48 to 15 at (2, 3), 120
    to 37 at (2, 4) and 90 to 43 at (3, 2); at one factor only the
    identity's class is expanded.
    """
    if max_factors < 1:
        raise InputError("max_factors must be at least 1")
    budget, cache = _resolve(budget, cache)
    root = identity(rank)
    plateau = _plateau_around(_shortest_conjugate(root.fwd)[0])
    order, key = _class_key(plateau)
    found = [(order, key, ONE)]  # (shortlex order, class key, L) per class
    met = set(plateau)  # every shortest conjugate of a class found
    frontier = [(root, key, plateau, ONE)]
    lengths: dict[tuple[int, int], Fraction] = {}  # (D L, D) -> L, built once
    for level in range(1, max_factors + 1):
        sources, frontier = frontier, []
        for base, t, plateau, value in sources:
            den, _, scores = _expand(base, value, budget, cache)
            # identity-typed moves are the identity map and are not scored;
            # the identity permutation already stands for them.  A signed
            # permutation is read as its letter map, its class has the
            # base's L, and it is not expanded (docstring)
            moves = [(tau.automorphism(), score, None) for score, tau in scores]
            moves += [(None, None, letters) for letters in _permutation_letters(rank)]
            for g, score, letters in moves:
                if letters is None:
                    psi = _shortest_conjugate([_substitute(g.fwd, w) for w in t])[0]
                    if psi in met:
                        continue
                    new = _plateau_around(psi)
                    child = lengths.get((score, den))
                    if child is None:
                        child = lengths[score, den] = Fraction(score, den)
                else:
                    if _relabelled(letters, t) in met:
                        continue
                    new = {_relabelled(letters, u) for u in plateau}
                    child = value
                order, key = _class_key(new)
                met.update(new)
                found.append((order, key, child))
                if level < max_factors and letters is None:
                    frontier.append((compose(g, base), key, new, child))
    by_value: dict[Fraction, list[tuple]] = {}
    for order, key, value in found:
        by_value.setdefault(value, []).append((order, key))
    entries = tuple(
        (value, len(keys), _key_text(min(keys)[1]))
        for value, keys in sorted(by_value.items())
    )
    values = [e[0] for e in entries]
    min_gap = min(
        (b - a for a, b in zip(values, values[1:])), default=None
    )
    return SpectrumReport(
        rank=rank, max_factors=max_factors, entries=entries, min_gap=min_gap
    )


@functools.cache
def _permutation_letters(rank: int) -> tuple[Mapping[int, int], ...]:
    """The letter map x -> sigma(x) of each signed permutation sigma, in
    `enumerate_signed_permutations` order, built once per rank and shared
    read-only."""
    return tuple(
        MappingProxyType({s * x: s * y for x, (y,) in enumerate(g.fwd, 1) for s in (1, -1)})
        for g in enumerate_signed_permutations(rank)
    )


def _relabelled(letters: Mapping[int, int], images: tuple) -> tuple:
    return tuple(tuple(map(letters.__getitem__, w)) for w in images)


def _key_text(key: tuple[tuple[int, ...], ...]) -> str:
    return ",".join(format_word(w) for w in key)
