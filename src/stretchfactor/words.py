"""Freely and cyclically reduced words over a rank-k alphabet.

Letters are nonzero signed integers: +1..+k are the basis letters, -i is
the inverse of +i.  Text form uses lowercase for basis letters and
uppercase for inverses ('a' = +1, 'A' = -1, ...), so ranks up to 26 are
expressible.  A Word is an immutable tuple of letters with no adjacent
inverse pair; the empty word is the identity.
"""

from __future__ import annotations

import functools
import random
from typing import Iterable, Iterator, Sequence

from .errors import InputError, NotCyclicallyReducedError, NotReducedError

MAX_RANK = 26


class Word(tuple):
    """A freely reduced word; construction does not re-reduce its input."""

    __slots__ = ()

    def __new__(cls, letters: Iterable[int] = ()):
        w = super().__new__(cls, letters)
        for x, y in zip(w, w[1:]):
            if x == -y:
                raise NotReducedError(f"word {format_word(w)!r} is not freely reduced")
        return w

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"

    def __str__(self) -> str:
        return format_word(self)


EMPTY = Word()


# letters as a Word without `Word`'s check, for words reduced by construction
_unchecked_word = functools.partial(tuple.__new__, Word)


def as_word(w: Sequence[int]) -> Word:
    """w as a Word: NotReducedError unless it is freely reduced."""
    return w if type(w) is Word else Word(w)


def letter_key(x: int) -> tuple[int, int]:
    # Canonical letter order a < A < b < B < ...
    return (abs(x), 0 if x > 0 else 1)


# The place of each of the 52 letters in the canonical order a < A < b < B < ...
_LETTER_ORDER = {x: 2 * abs(x) - (x > 0) for x in range(-MAX_RANK, MAX_RANK + 1) if x}


def word_key(w: Sequence[int]) -> tuple:
    # Shortlex with the canonical letter order, each letter read as its place.
    return (len(w), tuple(map(_LETTER_ORDER.__getitem__, w)))


def check_rank(k: int) -> None:
    """Refuse a rank outside 2..MAX_RANK, the ranks letters can spell."""
    if not 2 <= k <= MAX_RANK:
        raise InputError(f"rank must be between 2 and {MAX_RANK}, got {k}")


@functools.cache
def alphabet(k: int) -> tuple[int, ...]:
    """All 2k letters in canonical order a, A, b, B, ...

    Built once per rank; an invalid rank raises InputError on every
    call, since the cache keeps only results.
    """
    check_rank(k)
    out = []
    for i in range(1, k + 1):
        out.extend((i, -i))
    return tuple(out)


def parse_letter(ch: str) -> int:
    if len(ch) == 1 and "a" <= ch <= "z":
        return ord(ch) - ord("a") + 1
    if len(ch) == 1 and "A" <= ch <= "Z":
        return -(ord(ch) - ord("A") + 1)
    raise InputError(f"invalid letter {ch!r}: expected [a-zA-Z]")


def format_letter(x: int) -> str:
    if x > 0:
        return chr(ord("a") + x - 1)
    return chr(ord("A") - x - 1)


def parse_word(text: str, *, reduce: bool = False) -> Word:
    """Parse a word; rejects non-reduced input unless reduce=True."""
    letters = [parse_letter(c) for c in text.strip()]
    if reduce:
        return free_reduce(letters)
    return Word(letters)


def format_word(w: Sequence[int]) -> str:
    return "".join(format_letter(x) for x in w)


def validate_rank(w: Sequence[int], k: int) -> None:
    for x in w:
        if not 0 < abs(x) <= k:
            name = repr(format_letter(x)) if x else "0"
            raise InputError(f"letter {name} is outside the rank-{k} alphabet")


def free_reduce(seq: Iterable[int]) -> Word:
    """Iterated cancellation of adjacent inverse pairs; confluent, idempotent."""
    stack: list[int] = []
    for x in seq:
        if x == 0:
            raise InputError("0 is not a letter")
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return Word(stack)


def concat(u: Sequence[int], v: Sequence[int]) -> Word:
    """Reduced product u*v of two reduced words."""
    v = as_word(v)
    u = list(as_word(u))
    i = len(v)
    j = 0
    while u and j < i and u[-1] == -v[j]:
        u.pop()
        j += 1
    u.extend(v[j:])
    return Word(u)


def inverse(w: Sequence[int]) -> Word:
    return Word(-x for x in reversed(w))


def cancellation(u: Sequence[int], v: Sequence[int]) -> int:
    """Number of letter pairs cancelled when forming the reduced product u*v."""
    c = 0
    while c < len(u) and c < len(v) and u[len(u) - 1 - c] == -v[c]:
        c += 1
    return c


def cyclic_reduce(w: Sequence[int]) -> tuple[Word, Word]:
    """Split w = conj * core * conj^-1 with core cyclically reduced."""
    w = as_word(w)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return Word(w[i:j]), Word(w[:i])


def cyclic_length(w: Sequence[int]) -> int:
    return len(cyclic_reduce(w)[0])


def is_cyclically_reduced(w: Sequence[int]) -> bool:
    return len(w) < 2 or w[0] != -w[-1]


def lcp(u: Sequence[int], v: Sequence[int]) -> Word:
    u, v = as_word(u), as_word(v)
    n = 0
    for x, y in zip(u, v):
        if x != y:
            break
        n += 1
    return Word(u[:n])


def comparable(u: Sequence[int], v: Sequence[int]) -> bool:
    """True iff one word is a prefix of the other (nested cylinders)."""
    u, v = as_word(u), as_word(v)
    n = min(len(u), len(v))
    return tuple(u[:n]) == tuple(v[:n])


def extension_letters(w: Sequence[int], k: int) -> list[int]:
    last = w[-1] if w else 0
    return [c for c in alphabet(k) if c != -last]


def count_reduced_words(n: int, k: int) -> int:
    """2k(2k-1)^(n-1) reduced words of length n >= 1; one empty word."""
    if n == 0:
        return 1
    return 2 * k * (2 * k - 1) ** (n - 1)


def all_words(n: int, k: int) -> Iterator[Word]:
    """All reduced words of length exactly n, lexicographic in canonical order.

    `extension_letters` keeps every word reduced, so the words are built
    without `Word`'s check.
    """
    if n == 0:
        yield EMPTY
        return
    stack = [(c,) for c in reversed(alphabet(k))]
    while stack:
        w = stack.pop()
        if len(w) == n:
            yield _unchecked_word(w)
            continue
        for c in reversed(extension_letters(w, k)):
            stack.append(w + (c,))


def random_reduced(n: int, k: int, rng: random.Random) -> Word:
    """Uniform sample among the 2k(2k-1)^(n-1) reduced words of length n."""
    if n < 0:
        raise InputError("length must be nonnegative")
    if n == 0:
        return EMPTY
    letters = list(alphabet(k))
    out = [letters[rng.randrange(2 * k)]]
    for _ in range(n - 1):
        choices = [c for c in letters if c != -out[-1]]
        out.append(choices[rng.randrange(2 * k - 1)])
    return Word(out)


def occurrences_in_cyclic(u: Sequence[int], w: Sequence[int]) -> int:
    """Occurrences of u in the bi-infinite periodic word ...www... per period."""
    u, w = as_word(u), as_word(w)
    if not u:
        raise InputError("pattern must be nonempty")
    if not w:
        raise InputError("cyclic word must be nonempty")
    if not is_cyclically_reduced(w):
        raise NotCyclicallyReducedError(
            f"{format_word(w)!r} is not cyclically reduced"
        )
    n = len(w)
    count = 0
    for i in range(n):
        if all(u[j] == w[(i + j) % n] for j in range(len(u))):
            count += 1
    return count


def is_proper_power(w: Sequence[int]) -> bool:
    """True iff the cyclically reduced word w equals z^m for some m >= 2."""
    n = len(w)
    if n == 0:
        return False
    for p in range(1, n):
        if n % p == 0 and all(w[i] == w[(i + p) % n] for i in range(n)):
            return True
    return False
