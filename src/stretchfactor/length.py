"""Exact and Monte Carlo stretching factors.

The length of an automorphism is the mass the pushed-forward uniform
current gives to the set of geodesics through the base vertex; it is
computed exactly as a sum of pair masses over the depth-1 preimage
families, one term per oriented letter: the pairs from outside the
letter's family into it, which by shift invariance is a walk of that
family alone (`boundary` module docstring).  Inner automorphisms act
trivially on currents, so the length and its breakdown are the same for
every map of an outer class; they are read off the depth-1 table of the
map's shortest conjugate psi (`boundary._table`).  The Monte Carlo
estimator divides the cyclically reduced image length of a uniform
random reduced word by the word length; the two agree up to sampling
error plus an O(1/n) seam bias.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .automorphisms import Automorphism
from .boundary import Budget, PartitionCache, _resolve, _table
from .errors import InputError
from .measures import FrequencyMeasure, uniform_measure
from .words import alphabet, cyclic_length, random_reduced


@dataclass(frozen=True)
class LengthReport:
    """Exact length with its per-letter decomposition.

    Value and breakdown are read off the table of the map's shortest
    conjugate psi and equal the map's; `nodes` counts psi's chain.
    """

    value: Fraction
    breakdown: dict[int, Fraction]
    measure: str
    nodes: int


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n: int
    trials: int
    seed: int


def eta_length(
    auto: Automorphism,
    mu: FrequencyMeasure,
    *,
    budget: Optional[int | Budget] = None,
    cache: Optional[PartitionCache] = None,
) -> LengthReport:
    """Length of the pushforward of the current attached to mu.

    The term of letter x is the pushed-forward current of Cyl[1, x]: the
    pair sum of the families of the other letters against that of x.
    The 2k terms are the depth-1 pushforward table, over one common
    denominator, so the value is their summed numerators over it; the
    table's walk checks that the families tile the boundary.  The table
    is that of the shortest conjugate psi of the map, which pushes mu to
    the same current, so the report's `nodes` counts psi's chain, not the
    map's own.  A measure of another rank than the map raises InputError.
    """
    budget, cache = _resolve(budget, cache)
    den, num = _table(auto, mu, 1, budget, cache)
    breakdown = {x: Fraction(num[(x,)], den) for x in alphabet(auto.rank)}
    return LengthReport(
        value=Fraction(sum(num.values()), den),
        breakdown=breakdown,
        measure=mu.label or mu.kind,
        nodes=budget.spent,
    )


def length_exact(
    auto: Automorphism,
    *,
    budget: Optional[int | Budget] = None,
    cache: Optional[PartitionCache] = None,
) -> LengthReport:
    """Exact generic stretching factor: the uniform-current length."""
    return eta_length(auto, uniform_measure(auto.rank), budget=budget, cache=cache)


def length_mc(
    auto: Automorphism, n: int, trials: int, seed: int
) -> McEstimate:
    """Mean of |phi(w)|_cyclic / n over uniform random reduced words w.

    Deterministic given the seed; trial t draws from its own stream so
    results do not depend on evaluation order.
    """
    if n < 10:
        raise InputError("word length must be at least 10")
    if trials < 2:
        raise InputError("need at least two trials")
    values = []
    for t in range(trials):
        rng = random.Random((seed << 32) ^ t)
        w = random_reduced(n, auto.rank, rng)
        values.append(cyclic_length(auto.apply(w)) / n)
    mean = statistics.fmean(values)
    stderr = statistics.stdev(values) / trials**0.5
    return McEstimate(mean=mean, stderr=stderr, n=n, trials=trials, seed=seed)
