"""Shift-invariant cylinder measures on the boundary and their currents.

A frequency measure is represented by an exact-rational evaluator on
cylinder labels; that determines the measure completely.  Three families
are provided: the uniform measure, Markov measures given by a stationary
letter chain, and the counting measures of rational currents.  The
correspondence with currents is used through one formula: the current
value of a product of disjoint ray-cylinders Cyl(v) x Cyl(w) equals the
measure of Cyl(v^-1 w).

Each measure also carries its values as an integer weighted automaton,
`chain = (E, D, init, step)`: E D^(n-1) mu(v) = init[v_1] step[v_2] ...
step[v_n] 1 for every nonempty reduced word v of length n, with init[x]
a row {state: weight}, step[x] a matrix {(from, to): weight} and 1 the
all-ones column.  The boundary engine sums pair masses through `chain`;
`eval` stays the direct evaluator, and tests check that the two agree.

The chain is read-only: its init rows, step matrices and the maps that
hold them are `MappingProxyType`s over the dicts each constructor builds,
so a measure shared between callers cannot be edited.  What the pair walks
read off the chain alone is read off it once, when the measure is built:
`ends`, `lasts` and, for a chain with one state, `scalars`.  The uniform
measure depends on the rank alone and is built once per rank.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

from .errors import (
    ComparableCylindersError,
    ForbiddenTransitionError,
    InputError,
    NotCyclicallyReducedError,
    NotStationaryError,
    NotStochasticError,
    ProperPowerError,
)
from .words import (
    Word,
    alphabet,
    all_words,
    comparable,
    concat,
    count_reduced_words,
    extension_letters,
    format_letter,
    format_word,
    inverse,
    is_cyclically_reduced,
    is_proper_power,
    letter_key,
    occurrences_in_cyclic,
    parse_letter,
    parse_word,
    validate_rank,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_frac(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise InputError(f"malformed rational {text!r}: expected 'num/den'") from None


@dataclass(frozen=True)
class FrequencyMeasure:
    """Exact nonnegative cylinder evaluator, shift invariant by construction.

    `chain` holds the same measure as an integer weighted automaton (module
    docstring), with an init row and a step matrix for every letter; it is
    stored read-only.  Read off it once, for the pair walks:

    * `ends[x]`, step[x] times the all-ones column: the column of a cell
      whose last letter is x;
    * `lasts[x]`, |init[x]| D + init[x^-1] ends[x]: in the telescoped
      walk at height h, a cell ending in x starts from D^(2h-2) lasts[x],
      which is E D^(2h-1) mu(x) plus the cell's pair with itself; the walk
      takes that pair out again;
    * `scalars`, for a chain with one state, the per-letter (init, end,
      step) weights of that state as three maps; None for more states.

    These take no constructor argument and stay out of == and repr.
    """

    rank: int
    kind: str  # uniform | markov | rational-word
    mass: Fraction
    _eval: Callable[[Word], Fraction]
    chain: tuple[int, int, Mapping[int, Mapping], Mapping[int, Mapping]]
    label: str = ""
    ends: Mapping[int, Mapping] = field(init=False, repr=False, compare=False)
    lasts: Mapping[int, int] = field(init=False, repr=False, compare=False)
    scalars: Optional[tuple[Mapping[int, int], ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        e, d, init, step = self.chain
        init, step = _read_only(init), _read_only(step)
        ends = {}
        for x, mat in step.items():
            col: dict = {}
            for (s, _), q in mat.items():
                col[s] = col.get(s, 0) + q
            ends[x] = col
        lasts = {
            x: sum(init[x].values()) * d
            + sum(q * ends[x].get(s, 0) for s, q in init[-x].items())
            for x in step
        }
        states = {s for row in init.values() for s in row}
        states.update(s for mat in step.values() for pair in mat for s in pair)
        scalars = None
        if len(states) <= 1:
            s = next(iter(states), 0)
            scalars = tuple(
                MappingProxyType({x: m[x].get(key, 0) for x in step})
                for m, key in ((init, s), (ends, s), (step, (s, s)))
            )
        set_field = object.__setattr__
        set_field(self, "chain", (e, d, init, step))
        set_field(self, "ends", _read_only(ends))
        set_field(self, "lasts", MappingProxyType(lasts))
        set_field(self, "scalars", scalars)

    def eval(self, v: Sequence[int]) -> Fraction:
        w = Word(v)
        validate_rank(w, self.rank)
        if not w:
            return self.mass
        return self._eval(w)


def _read_only(maps: Mapping[int, Mapping]) -> Mapping[int, Mapping]:
    """maps and each map in it as read-only views; the maps are not copied."""
    return MappingProxyType({x: MappingProxyType(m) for x, m in maps.items()})


@functools.cache
def uniform_measure(k: int) -> FrequencyMeasure:
    """The uniform measure of rank k, built once per rank."""
    letters = alphabet(k)  # one state, E = 2k, D = 2k - 1, every weight 1
    return FrequencyMeasure(
        rank=k,
        kind="uniform",
        mass=ONE,
        _eval=lambda w: Fraction(1, count_reduced_words(len(w), k)),
        chain=(2 * k, 2 * k - 1, {x: {0: 1} for x in letters}, {x: {(0, 0): 1} for x in letters}),
        label="uniform",
    )


# -- Markov measures -------------------------------------------------------


@dataclass(frozen=True)
class MarkovSpec:
    """Stationary letter chain: mass, initial p on letters, transitions P.

    P(x, x^-1) must vanish (images of reduced rays stay reduced) and p must
    be stationary, which is exactly shift invariance of the measure.
    """

    rank: int
    mass: Fraction
    initial: dict[int, Fraction]
    transitions: dict[int, dict[int, Fraction]]

    def validate(self) -> None:
        """Check the spec in integers, raising the first failure found.

        In order: the mass is positive; p covers the alphabet, is
        nonnegative and sums to 1; each row of P, in turn, covers the
        alphabet, has P(x, x^-1) = 0, is nonnegative and sums to 1; p is
        stationary, letter by letter.  The mass and every entry of p and
        P must be an int or a Fraction (InputError naming the entry).
        The checks read m p over E and P over D, the lcms of their
        denominators, as integers (`_integers`): the 2k products m p(x)
        are the only Fractions formed.
        """
        self._integers()

    def _integers(self) -> tuple[int, int, dict[int, int], dict[int, dict[int, int]]]:
        """(E, D, E m p, D P): the validated spec as integers over its lcms.

        E is the lcm of the denominators of m p(x) over the letters x and D
        that of the entries of P, so E m p(x) and D P(x, y) are integers;
        `markov_measure` builds its chain from them.  Each row is first
        read over the lcm of its own denominators, so that its checks run
        before a later row is read.
        """
        letters = alphabet(self.rank)
        mass = _exact(self.mass, "mass")
        if mass <= 0:
            raise NotStochasticError("mass must be positive")
        if set(self.initial) != set(letters):
            raise InputError("initial distribution must cover the alphabet")
        start = {x: mass * _exact(self.initial[x], "p", x) for x in letters}
        e = math.lcm(*(q.denominator for q in start.values()))
        init = {x: q.numerator * (e // q.denominator) for x, q in start.items()}
        if any(q < 0 for q in init.values()):
            raise NotStochasticError("initial probabilities must be nonnegative")
        # sum m p = E m, which is p summing to 1
        if sum(init.values()) * mass.denominator != e * mass.numerator:
            raise NotStochasticError("initial probabilities must sum to 1")
        rows = {}
        for x in letters:
            row = self.transitions.get(x)
            if row is None or set(row) != set(letters):
                raise InputError(f"transition row of {format_letter(x)} must cover the alphabet")
            for y in letters:
                _exact(row[y], "P", x, y)
            r = math.lcm(*(q.denominator for q in row.values()))
            ints = {y: q.numerator * (r // q.denominator) for y, q in row.items()}
            if ints[-x] != 0:
                raise ForbiddenTransitionError(
                    f"P({format_letter(x)}, {format_letter(-x)}) must be 0"
                )
            if any(q < 0 for q in ints.values()):
                raise NotStochasticError("transition probabilities must be nonnegative")
            if sum(ints.values()) != r:
                raise NotStochasticError(
                    f"transition row of {format_letter(x)} must sum to 1"
                )
            rows[x] = r, ints
        d = math.lcm(*(r for r, _ in rows.values()))
        moves = {x: {y: q * (d // r) for y, q in ints.items()} for x, (r, ints) in rows.items()}
        # sum_x p(x) P(x, y) = p(y), times E m D
        for y in letters:
            if sum(init[x] * moves[x][y] for x in letters) != d * init[y]:
                raise NotStationaryError(
                    f"initial distribution is not stationary at {format_letter(y)}"
                )
        return e, d, init, moves


def _exact(q, field: str, *letters: int):
    """q itself if it is an int or a Fraction; otherwise InputError naming the entry."""
    if type(q) is not int and not isinstance(q, Fraction):
        name = f"{field}({', '.join(map(format_letter, letters))})" if letters else field
        raise InputError(
            f"markov spec {name} must be an integer or a fraction, not {type(q).__name__} {q!r}"
        )
    return q


def markov_measure(spec: MarkovSpec) -> FrequencyMeasure:
    e, d, start, moves = spec._integers()

    def evaluate(w: Word) -> Fraction:
        q = spec.mass * spec.initial[w[0]]
        for x, y in zip(w, w[1:]):
            q *= spec.transitions[x][y]
        return q

    # one state per letter: init[x] = {x: E m p(x)}, step[x] = {(y, x): D P(y, x)},
    # E and D the lcm of the denominators of m p and of P
    letters = alphabet(spec.rank)
    init = {x: ({x: q} if q else {}) for x, q in start.items()}
    step = {x: {(y, x): moves[y][x] for y in letters if moves[y][x]} for x in letters}
    return FrequencyMeasure(
        rank=spec.rank, kind="markov", mass=spec.mass, _eval=evaluate,
        chain=(e, d, init, step), label="markov",
    )


def uniform_as_markov(k: int) -> MarkovSpec:
    letters = alphabet(k)
    p = {x: Fraction(1, 2 * k) for x in letters}
    rows = {
        x: {y: (ZERO if y == -x else Fraction(1, 2 * k - 1)) for y in letters}
        for x in letters
    }
    return MarkovSpec(rank=k, mass=ONE, initial=p, transitions=rows)


def load_markov_spec(text: str) -> MarkovSpec:
    """Parse the JSON document {rank, mass, p, P} with 'num/den' rationals."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"markov spec is not valid JSON: {e}") from e
    doc = _object(doc, "document")
    try:
        rank = _parse_rank(doc["rank"])
        mass = parse_frac(str(doc["mass"]))
        p = {parse_letter(x): parse_frac(str(q)) for x, q in _object(doc["p"], "p").items()}
        rows = {
            parse_letter(x): {
                parse_letter(y): parse_frac(str(q))
                for y, q in _object(row, f"row {x} of P").items()
            }
            for x, row in _object(doc["P"], "P").items()
        }
    except (KeyError, TypeError) as e:
        raise InputError(f"markov spec is missing field {e}") from e
    return MarkovSpec(rank=rank, mass=mass, initial=p, transitions=rows)


def _parse_rank(value) -> int:
    if type(value) is not int:
        raise InputError(f"markov spec rank {json.dumps(value)} is not an integer")
    return value


def _object(value, name: str) -> dict:
    if type(value) is not dict:
        raise InputError(f"markov spec {name} must be a JSON object, not {json.dumps(value)}")
    return value


def read_markov_file(path: str) -> MarkovSpec:
    """Load a Markov spec file; a file that cannot be read is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read markov spec: {e}") from None
    return load_markov_spec(text)


# -- rational currents ------------------------------------------------------


def rational_measure(k: int, w: Sequence[int]) -> FrequencyMeasure:
    """Counting measure of the current carried by the conjugacy class of w."""
    w = Word(w)
    validate_rank(w, k)
    if not w:
        raise InputError("rational currents need a nonempty word")
    if not is_cyclically_reduced(w):
        raise NotCyclicallyReducedError(f"{format_word(w)!r} is not cyclically reduced")
    if is_proper_power(w):
        raise ProperPowerError(
            f"{format_word(w)!r} is a proper power; its current duplicates the root's"
        )
    # one state per position i of w, E = D = 1: the word read so far ends at w[i]
    n, letters = len(w), alphabet(k)
    init = {x: {i: 1 for i in range(n) if w[i] == x} for x in letters}
    step = {x: {(i, (i + 1) % n): 1 for i in range(n) if w[(i + 1) % n] == x} for x in letters}
    return FrequencyMeasure(
        rank=k,
        kind="rational-word",
        mass=Fraction(n),
        _eval=lambda u: Fraction(occurrences_in_cyclic(u, w)),
        chain=(1, 1, init, step),
        label=f"rational:{format_word(w)}",
    )


# -- current-side values -----------------------------------------------------


def current_pair_value(mu: FrequencyMeasure, v: Sequence[int], w: Sequence[int]) -> Fraction:
    """Current value of Cyl(v) x Cyl(w) for non-comparable labels: mu(v^-1 w)."""
    v, w = Word(v), Word(w)
    if not v or not w:
        raise InputError("cylinder labels must be nonempty")
    if comparable(v, w):
        raise ComparableCylindersError(
            f"cylinders {format_word(v)!r} and {format_word(w)!r} are nested"
        )
    return mu.eval(concat(inverse(v), w))


def current_length(mu: FrequencyMeasure) -> Fraction:
    """Sum of the single-letter cylinder values; equals the total mass."""
    return sum((mu.eval(Word((x,))) for x in alphabet(mu.rank)), ZERO)


def consistency_check(mu: FrequencyMeasure, depth: int) -> bool:
    """Exact additivity and shift invariance on all words up to `depth`."""
    if depth < 1:
        raise InputError("depth must be at least 1")
    k = mu.rank
    for n in range(0, depth):
        for v in all_words(n, k):
            total = mu.eval(v)
            children = sum(
                (mu.eval(Word(tuple(v) + (c,))) for c in extension_letters(v, k)), ZERO
            )
            if children != total:
                return False
            shifted = sum(
                (mu.eval(Word((c,) + tuple(v))) for c in alphabet(k) if not v or c != -v[0]),
                ZERO,
            )
            if shifted != total:
                return False
    return True


# -- compactness criterion ---------------------------------------------------


@dataclass(frozen=True)
class CriterionReport:
    """Per-letter translation constants and the compactness verdict."""

    rank: int
    c1: dict[int, Fraction]
    c2: dict[int, Fraction]
    b: dict[int, Fraction]
    passes: bool
    witness: Optional[int] = None
    reason: str = ""

    def as_dict(self) -> dict:
        def by_letter(d: dict[int, Fraction]) -> dict[str, str]:
            items = sorted(d.items(), key=lambda kv: letter_key(kv[0]))
            return {format_letter(x): frac_str(q) for x, q in items}

        out = {
            "passes": self.passes,
            "C1": by_letter(self.c1),
            "C2": by_letter(self.c2),
            "b": by_letter(self.b),
        }
        if self.witness is not None:
            out["witness"] = format_letter(self.witness)
            out["reason"] = self.reason
        return out


def criterion_check(spec: MarkovSpec) -> CriterionReport:
    """Check the per-letter translation bounds that give length compactness.

    C1(a) and C2(a) are the extreme ratios p(a)P(a,b)/p(b) over b != a^-1;
    the criterion passes iff every C1(a) is positive, every C2(a) is at
    most 1 and C1(a^-1) >= C2(a).  Single-letter powers make these
    per-letter conditions equivalent to the word-level sup/inf conditions.
    b(a) = min(C1(a), 1/C2(a^-1)) is the certified one-letter translation
    constant.  The spec is validated first, and stationarity gives
    p(b) = sum of p(x)P(x,b) >= p(a)P(a,b), so with every p > 0 each
    C2(a) is at most 1 and only the other two conditions can fail.
    """
    spec.validate()
    letters = alphabet(spec.rank)
    if any(spec.initial[x] <= 0 for x in letters):
        raise InputError("criterion requires strictly positive letter probabilities")
    c1: dict[int, Fraction] = {}
    c2: dict[int, Fraction] = {}
    for a in letters:
        ratios = [
            spec.initial[a] * spec.transitions[a][b] / spec.initial[b]
            for b in letters
            if b != -a
        ]
        c1[a] = min(ratios)
        c2[a] = max(ratios)
    b = {
        a: min(c1[a], 1 / c2[-a]) if c2[-a] > 0 else c1[a]
        for a in letters
    }
    witness: Optional[int] = None
    reason = ""
    for a in letters:
        if c1[a] <= 0:
            witness, reason = a, f"C1({format_letter(a)}) = 0"
            break
        if c1[-a] < c2[a]:
            witness, reason = a, (
                f"C1({format_letter(-a)}) < C2({format_letter(a)})"
            )
            break
    return CriterionReport(
        rank=spec.rank, c1=c1, c2=c2, b=b, passes=witness is None,
        witness=witness, reason=reason,
    )


def parse_measure_selector(
    k: int, text: str, *, reduce: bool = False
) -> FrequencyMeasure:
    """Resolve 'uniform', 'markov:<file>' or 'rational:<word>'."""
    if text == "uniform":
        return uniform_measure(k)
    if text.startswith("markov:"):
        return markov_measure(_markov_spec(k, text.split(":", 1)[1]))
    if text.startswith("rational:"):
        return rational_measure(k, parse_word(text.split(":", 1)[1], reduce=reduce))
    raise InputError(f"unknown measure selector {text!r}")


def _markov_spec(k: int, path: str) -> MarkovSpec:
    """The Markov spec in the file at path, which must have rank k."""
    spec = read_markov_file(path)
    if spec.rank != k:
        raise InputError(f"markov spec has rank {spec.rank}, expected {k}")
    return spec
