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
    _inversion_code,
    check_permutation,
    longest_element,
)

Word = tuple[int, ...]

# The table holds n! entries; 10! fill in about 5 s and 193 MiB (2 CPUs).
DP_CAP = 10
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


class CountingSession:
    """Reduced-word counter for one degree n, over the whole group.

    The table holds the number of reduced words of every permutation of
    degree n, indexed by the rank sum(d[a] * (n - a)!) of its inversion
    code (0 is the identity).  Stripping a left descent lowers the rank,
    so one forward loop over the ranks fills it from the first-letter
    recursion count(w) = sum of count(s_i w) over left descents i.  The
    first query fills it; a session of degree n > DP_CAP refuses to be
    built, with ResourceCapError.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"degree must be at least 1, got {n}")
        if n > DP_CAP:
            raise ResourceCapError(f"degree {n} is above the table's cap of {DP_CAP}")
        self.n = n
        self._table: list[int] = []

    @property
    def entries(self) -> int:
        """Number of permutations in the table: 0 before the first query, n! after."""
        return len(self._table)

    def _fill(self) -> None:
        """Fill the table once."""
        if self._table:
            return
        n = self.n
        # block[a] = (n - a)! is the weight of d[a]: the permutations that
        # share d[1..a] hold that many consecutive ranks.  block[0] = n!.
        block = [1] * (n + 1)
        for a in range(n - 1, -1, -1):
            block[a] = block[a + 1] * (n - a)
        table = [1] + [0] * (block[0] - 1)
        d = [0] * (n + 1)
        for r in range(1, block[0]):
            a = n - 1
            while d[a] == n - a:
                d[a] = 0
                a -= 1
            d[a] += 1
            # Descent i holds on all block[i + 1] ranks from r on that share
            # d[1..i + 1]; only the blocks of i = a - 1 and i = a start at r,
            # as d[a + 1..] = 0.  Stripping i moves a whole block back by
            # off >= block[i], onto ranks already filled.
            for i in (a - 1, a):
                g = d[i] - d[i + 1]
                if g > 0:
                    m = block[i + 1]
                    off = g * (block[i] - m) + m
                    for k in range(r, r + m):
                        table[k] += table[k - off]
        self._table = table

    def _rank(self, d: list[int]) -> int:
        """Table index of the permutation with inversion code d."""
        n = self.n
        r = 0
        for a in range(1, n):
            r = r * (n - a + 1) + d[a]
        return r

    def _code(self, w: Sequence[int]) -> list[int]:
        """Inversion code of w, after checking its degree and filling the table."""
        t = check_permutation(w)
        if len(t) != self.n:
            raise ValueError(f"expected degree {self.n}, got {len(t)}")
        self._fill()
        return _inversion_code(t)

    def count(self, w: Sequence[int]) -> int:
        """Exact number of reduced words of w.

        >>> CountingSession(4).count((4, 3, 2, 1))
        16
        """
        d = self._code(w)
        return self._table[self._rank(d)]

    def prefix_probability(self, w: Sequence[int], prefix: Sequence[int]) -> Fraction:
        """Probability that a uniform reduced word of w starts with prefix.

        Exact: the count of words of the stripped permutation over the
        count of words of w, or 0 when some step fails to shorten.

        >>> CountingSession(4).prefix_probability((4, 3, 2, 1), (1, 2))
        Fraction(3, 16)
        """
        n = self.n
        for p in prefix:
            if not 1 <= p <= n - 1:
                raise ValueError(f"letter {p} is outside [1, {n - 1}]")
        d = self._code(w)
        denom = self._table[self._rank(d)]
        for p in prefix:
            if d[p] <= d[p + 1]:
                return Fraction(0)
            d[p], d[p + 1] = d[p + 1], d[p] - 1
        return Fraction(self._table[self._rank(d)], denom)


def count_words(w: Sequence[int]) -> int:
    """Exact number of reduced words of w, from a fresh CountingSession.

    >>> count_words((4, 3, 2, 1))
    16
    >>> count_words((1, 2, 3))
    1
    """
    return CountingSession(len(tuple(w))).count(w)


def prefix_probability(w: Sequence[int], prefix: Sequence[int]) -> Fraction:
    """Exact probability that a uniform reduced word of w starts with prefix."""
    return CountingSession(len(tuple(w))).prefix_probability(w, prefix)


def _walk_words(t: Permutation) -> Iterator[tuple[list[int], int]]:
    """Walk the reduced words of the permutation t, in lexicographic order.

    Yields (letters, noncommuting) once per word: letters is one buffer
    that is overwritten in place after the yield, and noncommuting counts
    its adjacent pairs with |a - b| = 1, as word_stats does.  The walk
    goes down the tree of left-descent prefixes with an explicit stack:
    depth k holds the letter letters[k], the next letter to try there
    and the pair count of letters[:k].  When one letter is left, the
    remaining permutation is s_k, whose inversion code is a single 1 at
    k, so the leaf is found without trying the letters one by one.
    """
    n = len(t)
    d = _inversion_code(t)
    length = sum(d)
    letters = [0] * length
    if length < 2:
        if length:
            letters[0] = d.index(1)
        yield letters, 0
        return
    last = length - 1
    pairs = [0] * last
    after = [1] * last
    depth = 0
    while True:
        i = after[depth]
        while i < n and d[i] <= d[i + 1]:
            i += 1
        if i == n:
            # no letter is left to try here: step back and undo the letter above
            if not depth:
                return
            depth -= 1
            i = letters[depth]
            d[i], d[i + 1] = d[i + 1] + 1, d[i]
            after[depth] = i + 1
            continue
        d[i], d[i + 1] = d[i + 1], d[i] - 1
        letters[depth] = i
        c = pairs[depth]
        if depth and (letters[depth - 1] - i) in (1, -1):
            c += 1
        if depth + 1 == last:
            k = d.index(1)
            letters[last] = k
            yield letters, c + ((i - k) in (1, -1))
            d[i], d[i + 1] = d[i + 1] + 1, d[i]
            after[depth] = i + 1
        else:
            depth += 1
            pairs[depth] = c
            after[depth] = 1


def enumerate_words(w: Sequence[int]) -> Iterator[Word]:
    """All reduced words of w in lexicographic order, each exactly once.

    Refuses with ResourceCapError when the exact count exceeds
    MAX_ENUMERATED_WORDS, when called and before yielding anything.
    The words come from one explicit-stack walk, with no recursion.

    >>> list(enumerate_words((3, 2, 1)))
    [(1, 2, 1), (2, 1, 2)]
    >>> list(enumerate_words((1, 2, 3)))
    [()]
    """
    t = check_permutation(w)
    total = CountingSession(len(t)).count(t)
    if total > MAX_ENUMERATED_WORDS:
        raise ResourceCapError(
            f"{t!r} has {total} reduced words, above the cap of {MAX_ENUMERATED_WORDS}"
        )
    return (tuple(letters) for letters, _ in _walk_words(t))


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
