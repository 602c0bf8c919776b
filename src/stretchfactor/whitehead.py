"""Descent through second-kind moves, factorization, and length spectra.

A non-simple automorphism always admits a second-kind move that strictly
decreases its length; greedily composing the steepest such move yields a
factorization into second-kind moves times a simple map with strictly
increasing lengths.  Enumerating bounded compositions of the generating
moves up to conjugacy exhibits the discreteness of the length spectrum
at small scale.

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
it, and no longer preimage is built.

That table is a class invariant, read off the shortest conjugate psi
of phi (`boundary._table`): every conjugate of phi gets the same move,
a budget (`--budget`) counts psi's chain, and the moves are still
composed with phi, so a factorization recomposes to its input.

The spectrum reads its lengths the same way.  A signed permutation sigma
sends letters to letters, so nothing cancels and L(sigma o phi) = L(phi);
inner automorphisms act trivially on currents, so L is constant on a
conjugacy class.  Each class the enumeration expands therefore gets one
depth-2 table, and the classes one generator away get their lengths from
it; no class is measured alone.  A class's own table, when it is
expanded in turn, must sum to the value its parent's cut gave it.

Nor is a class's plateau of shortest conjugates walked more than once.
Since tau o iota_v = iota_tau(v) o tau, a move is applied to one shortest
conjugate of phi, and the plateau is walked only when the conjugate that
descends from it is new.  A signed permutation needs neither: the
plateau of sigma o phi is sigma applied letter by letter to phi's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul
from typing import Optional

from .automorphisms import (
    Automorphism,
    WhiteheadSecondKind,
    _plateau,
    _shortest_conjugate,
    _substitute,
    _tuple_sort_key,
    compose,
    enumerate_second_kind,
    enumerate_signed_permutations,
    identity,
    is_simple,
)
from .boundary import Budget, PartitionCache, _resolve, _table
from .errors import DescentStuckError, InputError
from .length import length_exact
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
        result = self.sigma
        for tau in reversed(self.taus):
            result = compose(tau.automorphism(), result)
        return result


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

    Every L(tau o phi) is read off one depth-2 pushforward table of phi
    by the cut formula (module docstring), so no candidate map is built.
    Ties break toward the canonically smallest move.  Raises
    DescentStuckError when phi is non-simple yet no move decreases the
    length, since the descent theorem promises one exists.
    """
    budget, cache = _resolve(budget, cache)
    length, best = _steepest(auto, budget, cache)
    if best is not None:
        return best[0]
    if is_simple(auto) is not None:
        return None
    raise _stuck(auto, length)


def factorize(
    auto: Automorphism,
    *,
    budget: Optional[int | Budget] = None,
    cache: Optional[PartitionCache] = None,
) -> FactorizationReport:
    """Greedy steepest-descent factorization into second-kind moves.

    Each step reads one depth-2 pushforward table of the current map (its
    shortest conjugate's, whose chain the budget counts): its length is
    the sum of the depth-1 values, and the chosen move's cut-formula
    value is the next map's length, so lengths are not measured one by
    one.  `length_exact` runs only on an input that is already simple.
    Each table's own length must equal the value the cut formula gave it
    one step earlier, and the simple map reached must have length 1;
    either failing is an engine bug (AssertionError).
    """
    budget, cache = _resolve(budget, cache)
    lengths: list[Fraction] = []
    moves: list[WhiteheadSecondKind] = []
    current = auto
    while is_simple(current) is None:
        length, best = _steepest(current, budget, cache)
        if lengths:
            _check_cut(current, lengths[-1], length)
        else:
            lengths.append(length)
        if best is None:
            raise _stuck(current, length)
        moves.append(best[0])
        lengths.append(best[1])
        current = compose(best[0].automorphism(), current)
    if not lengths:
        lengths.append(length_exact(auto, budget=budget, cache=cache).value)
    if lengths[-1] != ONE:
        raise AssertionError(
            f"descent reached the simple map {current.key()!r} at "
            f"L = {frac_str(lengths[-1])}, not 1"
        )
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


def _check_cut(auto: Automorphism, cut: Fraction, length: Fraction) -> None:
    """An engine bug unless phi's own table sums to the value a cut gave it."""
    if length != cut:
        raise AssertionError(
            f"the cut formula gave L = {frac_str(cut)} but the "
            f"table of {auto.key()!r} sums to {frac_str(length)}"
        )


def _stuck(auto: Automorphism, length: Fraction) -> DescentStuckError:
    return DescentStuckError(
        f"no second-kind move decreases L = {frac_str(length)} for the "
        f"non-simple map {auto.key()!r}"
    )


def _steepest(
    auto: Automorphism, budget: Budget, cache: PartitionCache
) -> tuple[Fraction, Optional[tuple[WhiteheadSecondKind, Fraction]]]:
    """L(phi), and the least (L(tau o phi), move) below it if there is one.

    Reads the integer numerators of the depth-2 table (psi's, whose chain
    the budget counts) over their common denominator D, so every move is
    compared in integers and only the two values returned become fractions.
    """
    den, num = _table(auto, uniform_measure(auto.rank), 2, budget, cache)
    total, scores = _cut_scores(auto.rank, num)
    # scores run in canonical move order, and min keeps the first minimum
    value, tau = min(scores, key=itemgetter(0))
    best = (tau, Fraction(value, den)) if value < total else None
    return Fraction(total, den), best


def _cut_scores(
    rank: int, num: dict[Word, int]
) -> tuple[int, list[tuple[int, WhiteheadSecondKind]]]:
    """(D ||nu||, [(D ||tau_* nu||, tau) for each non-identity move]).

    `num` holds D nu(v) for every cylinder v of length 1 and 2, for one
    common denominator D, as `boundary._table` returns it, so every move
    is scored by integer sums of the cut formula.
    """
    ones = [num[(x,)] for x in alphabet(rank)]
    scores = [
        (sum(map(mul, ones, lengths)) - 2 * sum(num[t] for t in turns), tau)
        for tau, lengths, turns in _move_data(rank)
    ]
    return sum(ones), scores


@functools.cache
def _move_data(rank: int) -> tuple:
    """(tau, |tau(x)| per letter x, cancelling turns xy) per non-identity move.

    Built from the moves' letter images on first use at each rank, in
    canonical move order.
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
        out.append((tau, tuple(map(len, images)), tuple(turns)))
    return tuple(out)


def canonical_out_key(auto: Automorphism) -> tuple[Word, ...]:
    """Conjugation normal form of the image tuple: a class invariant.

    The shortest conjugates of phi form a finite plateau that maps
    differing by an inner automorphism share (`_plateau`).  The key is
    its shortlex-least tuple, the rule by which `spectrum` names classes,
    so two maps have equal keys exactly when they differ by an inner
    automorphism.
    """
    return tuple(Word(w) for w in min(_plateau(auto.fwd), key=_tuple_sort_key))


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
    identity's.  Each class below the last level is built with `compose`
    and expanded: one depth-2 table of it, its shortest conjugate's,
    gives L(tau o phi) for every move tau by the cut formula and
    L(sigma o phi) = L(phi) for every signed permutation sigma (module
    docstring); the budget counts those chains.  A class's key is the
    least tuple of its plateau of shortest conjugates, and its name the
    shortlex-least, its `canonical_out_key`.  Each class's plateau is
    walked once: every tuple of it is recorded, a move's candidate is
    one tuple of the base's plateau with the move applied and descended
    to a shortest conjugate, and only a conjugate not yet recorded is
    walked.  A signed permutation's candidate is relabelled, not walked.
    A class's own table must sum to the value its parent's cut gave it,
    or AssertionError is raised: the engine is at fault.
    """
    if max_factors < 1:
        raise InputError("max_factors must be at least 1")
    budget, cache = _resolve(budget, cache)
    mu = uniform_measure(rank)
    # each signed permutation with its letter map; its score is the base's
    perms = [
        (g, None, {s * x: s * y for x, (y,) in enumerate(g.fwd, 1) for s in (1, -1)})
        for g in enumerate_signed_permutations(rank)
    ]
    root = identity(rank)
    plateau = _plateau(root.fwd)
    basis = min(plateau)
    classes = {basis: (ONE, basis)}  # class key -> (L, name)
    owner = dict.fromkeys(plateau, basis)  # shortest conjugate met -> class key
    frontier = [(root, ONE, plateau)]
    for level in range(1, max_factors + 1):
        sources, frontier = frontier, []
        for base, value, plateau in sources:
            den, num = _table(base, mu, 2, budget, cache)
            total, scores = _cut_scores(rank, num)
            _check_cut(base, value, Fraction(total, den))
            t = min(plateau)  # any shortest conjugate of base stands for it
            # identity-typed moves are the identity map and are not scored;
            # the identity permutation already stands for them
            moves = [(tau.automorphism(), score, None) for score, tau in scores]
            for g, score, letters in moves + perms:
                if letters is None:
                    psi = _shortest_conjugate([_substitute(g.fwd, w) for w in t])[0]
                    if psi in owner:
                        continue
                    new = _plateau(psi)
                else:
                    if _relabelled(letters, t) in owner:
                        continue
                    new, score = {_relabelled(letters, u) for u in plateau}, total
                key = min(new)
                owner.update(dict.fromkeys(new, key))
                found = Fraction(score, den)
                classes[key] = found, min(new, key=_tuple_sort_key)
                if level < max_factors:
                    frontier.append((compose(g, base), found, new))
    by_value: dict[Fraction, list[tuple]] = {}
    for value, name in classes.values():
        by_value.setdefault(value, []).append(name)
    entries = tuple(
        (value, len(names), _key_text(min(names, key=_tuple_sort_key)))
        for value, names in sorted(by_value.items())
    )
    values = [e[0] for e in entries]
    min_gap = min(
        (b - a for a, b in zip(values, values[1:])), default=None
    )
    return SpectrumReport(
        rank=rank, max_factors=max_factors, entries=entries, min_gap=min_gap
    )


def _relabelled(letters: dict[int, int], images: tuple) -> tuple:
    return tuple(tuple(map(letters.__getitem__, w)) for w in images)


def _key_text(key: tuple[tuple[int, ...], ...]) -> str:
    return ",".join(format_word(w) for w in key)
