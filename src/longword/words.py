"""Reduced words: evaluation, adjacent-pair statistics, exact counting.

A word is a tuple of simple indices (i_1, ..., i_k).  Reading left to
right from the identity, each letter acts on the right, swapping the
entries in positions i and i+1.  The word is reduced when every step
increases the inversion count, so a reduced word of w has exactly
length(w) letters.  Removing the first letter i_1 of a reduced word of
w leaves a reduced word of s_{i_1} w (the value swap i_1 <-> i_1 + 1),
which drives both the counting recursion and lexicographic enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .permutations import (
    Permutation,
    check_permutation,
    identity,
    longest_element,
)

Word = tuple[int, ...]

MAX_MEMO_ENTRIES = 10_000_000
MAX_ENUMERATED_WORDS = 10_000_000


class NotReducedError(ValueError):
    """A word stopped being reduced at a specific letter.

    The offending 1-based position is available as .position.
    """

    def __init__(self, position: int, letter: int):
        super().__init__(
            f"word is not reduced: letter {letter} at position {position} "
            f"does not lengthen the permutation"
        )
        self.position = position
        self.letter = letter


class ResourceCapError(RuntimeError):
    """A counting or enumeration request exceeded its configured cap."""


def evaluate(n: int, letters: Sequence[int]) -> Permutation:
    """Permutation reached by applying the letters to the identity.

    Raises ValueError for letters outside [1, n-1] and NotReducedError
    when some step fails to increase the inversion count.

    >>> evaluate(3, (1, 2, 1))
    (3, 2, 1)
    >>> evaluate(4, (1, 3, 2, 1))
    (4, 2, 1, 3)
    """
    if n < 1:
        raise ValueError(f"degree must be at least 1, got {n}")
    w = list(range(1, n + 1))
    for k, i in enumerate(letters, start=1):
        if not 1 <= i <= n - 1:
            raise ValueError(
                f"letter {i} at position {k} is outside [1, {n - 1}]"
            )
        if w[i - 1] > w[i]:
            raise NotReducedError(k, i)
        w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


@dataclass(frozen=True)
class WordStats:
    """Adjacent-pair and windowed move counts for one word.

    commutations counts positions k with |i_k - i_{k+1}| > 1,
    noncommuting the positions with |i_k - i_{k+1}| = 1, split into
    ascending_pairs (difference +1) and descending_pairs (-1).  braids
    counts windows (i_k, i_{k+1}, i_k) with |i_k - i_{k+1}| = 1.
    Overlapping windows count separately.
    """

    commutations: int
    noncommuting: int
    braids: int
    ascending_pairs: int
    descending_pairs: int


def word_stats(letters: Sequence[int]) -> WordStats:
    """Count adjacent commuting/noncommuting pairs and braid windows.

    >>> word_stats((1, 2, 1, 3, 2, 1))
    WordStats(commutations=1, noncommuting=4, braids=1, ascending_pairs=1, descending_pairs=3)
    """
    comm = nonc = asc = desc = braids = 0
    for a, b in zip(letters, letters[1:]):
        d = b - a
        if d == 1:
            nonc += 1
            asc += 1
        elif d == -1:
            nonc += 1
            desc += 1
        else:
            comm += 1
    for a, b, c in zip(letters, letters[1:], letters[2:]):
        if a == c and abs(a - b) == 1:
            braids += 1
    return WordStats(comm, nonc, braids, asc, desc)


def _reach_bound(w: Permutation, cap: int) -> int:
    """Bound on the permutations the counting recursion reaches from w.

    They are the permutations below w in the left weak order.  Each is
    fixed by its counts d_a = #{b > a : b stands left of a}, and each
    count is at most w's, so there are at most prod(d_a(w) + 1) of them
    (n! for the longest element).  The product is returned as soon as it
    exceeds cap.  Only a value below the running maximum has d_a > 0 and
    doubles the product at least, so at most log2(cap) + 1 values are
    counted by a scan of the prefix.
    """
    bound = 1
    top = 0
    for p, v in enumerate(w):
        if v > top:
            top = v
            continue
        bound *= 1 + sum(u > v for u in w[:p])
        if bound > cap:
            break
    return bound


class CountingSession:
    """Memoized reduced-word counter for one degree n.

    The table maps each reached permutation to its number of reduced
    words via the first-letter recursion count(w) = sum of count(s_i w)
    over left descents i.  The table is shared across calls; counting
    the longest element fills it for the whole group, after which every
    lookup is a read (safe to share between threads).  A query whose
    fill could pass max_entries raises ResourceCapError before filling.
    """

    def __init__(self, n: int, max_entries: int = MAX_MEMO_ENTRIES):
        if n < 1:
            raise ValueError(f"degree must be at least 1, got {n}")
        self.n = n
        self.max_entries = max_entries
        self._memo: dict[Permutation, int] = {identity(n): 1}

    @property
    def entries(self) -> int:
        """Number of memoized permutations."""
        return len(self._memo)

    def count(self, w: Sequence[int]) -> int:
        """Exact number of reduced words of w.

        >>> CountingSession(4).count((4, 3, 2, 1))
        16
        """
        t = check_permutation(w)
        if len(t) != self.n:
            raise ValueError(f"expected degree {self.n}, got {len(t)}")
        self._check_fill(t)
        return self._count(t)

    def _check_fill(self, w: Permutation) -> None:
        """Refuse a fill from w that could exceed the table cap."""
        if w not in self._memo and _reach_bound(w, self.max_entries) > self.max_entries:
            raise ResourceCapError(
                f"counting words of this degree-{self.n} permutation could need "
                f"more than {self.max_entries} table entries"
            )

    def _count(self, w: Permutation) -> int:
        memo = self._memo
        cached = memo.get(w)
        if cached is not None:
            return cached
        n = self.n
        pos = [0] * (n + 1)
        for p, v in enumerate(w):
            pos[v] = p
        total = 0
        for i in range(1, n):
            a, b = pos[i], pos[i + 1]
            if a > b:
                child = list(w)
                child[a] = i + 1
                child[b] = i
                total += self._count(tuple(child))
        if len(memo) >= self.max_entries:
            raise ResourceCapError(
                f"counting table exceeded {self.max_entries} entries"
            )
        memo[w] = total
        return total

    def prefix_probability(self, w: Sequence[int], prefix: Sequence[int]) -> Fraction:
        """Probability that a uniform reduced word of w starts with prefix.

        Exact: the count of words of the stripped permutation over the
        count of words of w, or 0 when some step fails to shorten.

        >>> CountingSession(4).prefix_probability((4, 3, 2, 1), (1, 2))
        Fraction(3, 16)
        """
        t = check_permutation(w)
        if len(t) != self.n:
            raise ValueError(f"expected degree {self.n}, got {len(t)}")
        self._check_fill(t)
        denom = self._count(t)
        if denom == 0:
            raise ValueError(f"{t!r} has no reduced words to condition on")
        v = list(t)
        n = self.n
        for p in prefix:
            if not 1 <= p <= n - 1:
                raise ValueError(f"letter {p} is outside [1, {n - 1}]")
            a, b = v.index(p), v.index(p + 1)
            if a < b:
                return Fraction(0)
            v[a], v[b] = p + 1, p
        return Fraction(self._count(tuple(v)), denom)


def count_words(w: Sequence[int], session: CountingSession | None = None) -> int:
    """Exact number of reduced words of w (fresh session unless given).

    >>> count_words((4, 3, 2, 1))
    16
    >>> count_words((1, 2, 3))
    1
    """
    if session is None:
        session = CountingSession(len(tuple(w)))
    return session.count(w)


def prefix_probability(
    w: Sequence[int],
    prefix: Sequence[int],
    session: CountingSession | None = None,
) -> Fraction:
    """Exact probability that a uniform reduced word of w starts with prefix."""
    if session is None:
        session = CountingSession(len(tuple(w)))
    return session.prefix_probability(w, prefix)


def enumerate_words(
    w: Sequence[int],
    session: CountingSession | None = None,
    max_words: int = MAX_ENUMERATED_WORDS,
) -> Iterator[Word]:
    """All reduced words of w in lexicographic order, each exactly once.

    Refuses with ResourceCapError when the exact count exceeds
    max_words, before yielding anything.

    >>> list(enumerate_words((3, 2, 1)))
    [(1, 2, 1), (2, 1, 2)]
    >>> list(enumerate_words((1, 2, 3)))
    [()]
    """
    t = check_permutation(w)
    n = len(t)
    if session is None:
        session = CountingSession(n)
    total = session.count(t)
    if total > max_words:
        raise ResourceCapError(
            f"{t!r} has {total} reduced words, above the cap of {max_words}"
        )
    ident = identity(n)

    def walk(v: Permutation, prefix: list[int]) -> Iterator[Word]:
        if v == ident:
            yield tuple(prefix)
            return
        pos = [0] * (n + 1)
        for p, val in enumerate(v):
            pos[val] = p
        for i in range(1, n):
            a, b = pos[i], pos[i + 1]
            if a > b:
                child = list(v)
                child[a] = i + 1
                child[b] = i
                prefix.append(i)
                yield from walk(tuple(child), prefix)
                prefix.pop()

    return walk(t, [])


def rotate(n: int, letters: Sequence[int]) -> Word:
    """Rotate a reduced word of the longest element into another one.

    Moves the first letter i to the end as n - i; the result is again a
    reduced word of the longest element.  Raises ValueError when the
    input does not evaluate to the longest element of degree n.

    >>> rotate(3, (1, 2, 1))
    (2, 1, 2)
    >>> rotate(4, (1, 2, 1, 3, 2, 1))
    (2, 1, 3, 2, 1, 3)
    """
    word = tuple(letters)
    if evaluate(n, word) != longest_element(n):
        raise ValueError(
            f"{word!r} is not a reduced word of the longest element of degree {n}"
        )
    if not word:
        return word
    return word[1:] + (n - word[0],)
