"""Descent through second-kind moves, factorization, and length spectra.

A non-simple automorphism always admits a second-kind move that strictly
decreases its length; greedily composing the steepest such move yields a
factorization into second-kind moves times a simple map with strictly
increasing lengths.  Enumerating bounded compositions of the generating
moves and deduplicating by a conjugation-normal form exhibits the
discreteness of the length spectrum at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .automorphisms import (
    Automorphism,
    WhiteheadSecondKind,
    compose,
    enumerate_second_kind,
    enumerate_signed_permutations,
    identity,
    is_simple,
)
from .boundary import Budget, PartitionCache, _resolve
from .errors import DescentStuckError, InputError
from .length import length_exact
from .measures import frac_str
from .words import Word, alphabet, format_word, word_key

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

    Ties break toward the canonically smallest move.  Raises
    DescentStuckError when phi is non-simple yet no move decreases the
    length, since the descent theorem promises one exists.
    """
    budget, cache = _resolve(budget, cache)
    base = length_exact(auto, budget=budget, cache=cache).value
    best: Optional[tuple[Fraction, tuple, WhiteheadSecondKind]] = None
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


def factorize(
    auto: Automorphism,
    *,
    budget: Optional[int | Budget] = None,
    cache: Optional[PartitionCache] = None,
) -> FactorizationReport:
    """Greedy steepest-descent factorization into second-kind moves."""
    budget, cache = _resolve(budget, cache)
    lengths = [length_exact(auto, budget=budget, cache=cache).value]
    moves: list[WhiteheadSecondKind] = []
    current = auto
    while is_simple(current) is None:
        step = descent_step(current, budget=budget, cache=cache)
        if step is None:
            raise DescentStuckError(f"descent returned no move for {current.key()!r}")
        moves.append(step)
        current = compose(step.automorphism(), current)
        lengths.append(length_exact(current, budget=budget, cache=cache).value)
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


def canonical_out_key(auto: Automorphism) -> tuple[Word, ...]:
    """Conjugation normal form of the image tuple: a class invariant.

    The cost v -> sum of |v phi(x) v^-1| is convex on the Cayley tree, so
    single-letter conjugations that shrink the total image length reach
    a global minimum, and the minimizers form a finite subtree that the
    equal-cost search walks whole.  The key is the lexicographically
    least minimizing tuple, so two maps have equal keys exactly when
    they differ by an inner automorphism.
    """
    return _normalize(auto.fwd)


def _tuple_sort_key(images: tuple[Word, ...]) -> tuple:
    return tuple(word_key(w) for w in images)


def _conjugate(c: int, images: tuple) -> tuple:
    """Images of x -> c phi(x) c^-1, given the reduced images of phi."""
    out = []
    for w in images:
        w = w[1:] if w and w[0] == -c else (c,) + w
        out.append(w[:-1] if w and w[-1] == c else w + (-c,))
    return tuple(out)


def _cost(images: tuple) -> int:
    return sum(len(w) for w in images)


def _normalize(images: tuple) -> tuple[Word, ...]:
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


def spectrum(
    rank: int,
    max_factors: int,
    *,
    budget: Optional[int | Budget] = None,
    cache: Optional[PartitionCache] = None,
) -> SpectrumReport:
    """Exact lengths of all compositions of up to max_factors generators.

    Generators are the signed permutations plus all second-kind moves.
    Maps are merged by the conjugation normal form, a class invariant, so
    multiplicities count maps up to inner automorphisms.
    """
    if max_factors < 1:
        raise InputError("max_factors must be at least 1")
    budget, cache = _resolve(budget, cache)
    gens = [t.automorphism() for t in enumerate_second_kind(rank)]
    gens += enumerate_signed_permutations(rank)
    # Each class is measured on the composition that found it: L is a
    # conjugacy invariant, and compositions carry their factors.
    seen: dict[tuple[Word, ...], Automorphism] = {}
    frontier: dict[tuple[Word, ...], Automorphism] = {}
    for level in range(1, max_factors + 1):
        sources = [identity(rank)] if level == 1 else list(frontier.values())
        frontier = {}
        for base in sources:
            for g in gens:
                candidate = compose(g, base)
                key = _normalize(candidate.fwd)
                if key not in seen:
                    seen[key] = candidate
                    frontier[key] = candidate
    by_value: dict[Fraction, list[tuple[Word, ...]]] = {}
    for key, rep in sorted(
        seen.items(), key=lambda kv: tuple(word_key(w) for w in kv[0])
    ):
        value = length_exact(rep, budget=budget, cache=cache).value
        by_value.setdefault(value, []).append(key)
    entries = tuple(
        (value, len(keys), _key_text(keys[0]))
        for value, keys in sorted(by_value.items())
    )
    values = [e[0] for e in entries]
    min_gap = min(
        (b - a for a, b in zip(values, values[1:])), default=None
    )
    return SpectrumReport(
        rank=rank, max_factors=max_factors, entries=entries, min_gap=min_gap
    )


def _key_text(key: tuple[Word, ...]) -> str:
    return ",".join(format_word(w) for w in key)
