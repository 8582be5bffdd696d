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

import functools
import operator
import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat
from math import factorial
from typing import Iterator, Sequence

from .permutations import (
    Permutation,
    ResourceCapError,
    _inversion_code,
    check_int,
    check_permutation,
    check_sequence,
    longest_element,
)
from .walk import _walk_blocks

Word = tuple[int, ...]

# The table holds n! entries; 10! filled in 1.52 s with a 193 MiB process
# peak (one fresh process, 2-CPU Intel Xeon, Python 3.11).
DP_CAP = 10
# Admits 4,993 of the 5,040 permutations of degree 7.  Iterating the largest,
# (6, 7, 3, 5, 4, 2, 1) at 9,189,180 words, took 3.7-4.6 s (about 0.45 us a
# word, 19.9 MiB peak; 2 CPUs).
MAX_ENUMERATED_WORDS = 10_000_000
# The fill runs the pair kernel on blocks of _TAIL! ranks that share all
# but the last _TAIL code digits.  Measured at n = 9 (2 CPUs, best of 3):
# tails of 3, 4, 5 and 6 digits filled in 0.25, 0.13-0.17, 0.11-0.14 and
# 0.09-0.13 s; 5 and 6 tied at n = 10 (1.3-1.6 s); slice adds all the way
# down to single ranks took 1.0-1.4 s.  Five keeps the pair list at 240.
_TAIL = 5


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


def evaluate(n: int, letters: Sequence[int]) -> Permutation:
    """Permutation reached by applying the letters to the identity.

    Raises ValueError when letters is not a sequence or holds a letter that
    is not an int in [1, n-1] (a float or a bool is refused), and
    NotReducedError when some step fails to increase the inversion count.

    >>> evaluate(3, (1, 2, 1))
    (3, 2, 1)
    >>> evaluate(4, (1, 3, 2, 1))
    (4, 2, 1, 3)
    """
    check_int(n)
    try:
        steps = enumerate(letters, start=1)
    except TypeError:  # not iterable; each letter is checked inline, per step
        raise ValueError(f"letters must be a sequence, got {letters!r}") from None
    w = list(range(1, n + 1))
    for k, i in steps:
        if type(i) is not int or not 1 <= i <= n - 1:
            raise ValueError(
                f"letter {i!r} at position {k} is not an int in [1, {n - 1}]"
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

    Raises ValueError when letters is not a sequence or holds a letter
    that is not an int (a float, a bool or a string is refused).

    >>> word_stats((1, 2, 1, 3, 2, 1))
    WordStats(commutations=1, noncommuting=4, braids=1, ascending_pairs=1, descending_pairs=3)
    """
    try:
        kinds = {*map(type, letters)}
    except TypeError:  # not iterable; each letter's type is checked below
        raise ValueError(f"letters must be a sequence, got {letters!r}") from None
    if not kinds <= {int}:
        k, i = next((k, i) for k, i in enumerate(letters, start=1) if type(i) is not int)
        raise ValueError(f"letter {i!r} at position {k} is not an int")
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


def _rank(d: Sequence[int]) -> int:
    """Table index sum(d[a] * (n - a)!) of the inversion code d of degree n."""
    n = len(d) - 1
    r = 0
    for a in range(1, n):
        r = r * (n - a + 1) + d[a]
    return r


@functools.cache
def _strip_pairs(k: int) -> tuple[tuple[int, int], ...]:
    """The (rank, source) pairs of the first-letter recursion in degree k.

    For each inversion code d of degree k, in rank order, and each left
    descent i of it (d[i] > d[i + 1]), the pair holds the rank of d and
    that of s_i w, whose code has (d[i], d[i + 1]) -> (d[i + 1], d[i] - 1).
    The source rank is always the lower one.
    """
    pairs = []
    for r, digits in enumerate(product(*(range(k - a + 1) for a in range(1, k)))):
        d = [0, *digits, 0]
        for i in range(1, k):
            if d[i] > d[i + 1]:
                e = d.copy()
                e[i], e[i + 1] = d[i + 1], d[i] - 1
                pairs.append((r, _rank(e)))
    return tuple(pairs)


class _Table(list):
    """A filled word-count table: a list that a weak reference can name."""

    __slots__ = ("__weakref__",)


# The filled table of each degree, for as long as some session holds it.
_FILLED: weakref.WeakValueDictionary[int, _Table] = weakref.WeakValueDictionary()


def _fill_block(table: list[int], lo: int, k: int) -> None:
    """Finish the k! ranks from lo whose codes share all but the last k - 1 digits.

    Call the free digits e[1..k - 1], with e[k] = 0.  On entry the block
    holds the terms of the descents that involve a shared digit; this adds
    those of the descents from e[1] on.  The block splits by e[1] = x into
    sub-blocks of (k - 1)! ranks.  For each y < x, descent 1 holds on the
    run e[2] = y of (k - 2)! ranks, and stripping it gives (e[1], e[2]) =
    (y, x - 1), in the sub-block y that was finished before; the run takes
    that as one slice add before the recursion enters sub-block x.  A
    block of at most _TAIL! ranks runs the (rank, source) pairs of
    _strip_pairs on a local copy.
    """
    if k <= _TAIL:
        size = factorial(k)
        v = table[lo : lo + size]
        for r, s in _strip_pairs(k):
            v[r] += v[s]
        table[lo : lo + size] = v
        return
    sub = factorial(k - 1)
    run = sub // (k - 1)
    add = operator.add
    for x in range(k):
        b = lo + x * sub
        for y in range(x):
            t = b + y * run
            s = lo + y * sub + (x - 1) * run
            table[t : t + run] = map(add, table[t : t + run], table[s : s + run])
        _fill_block(table, b, k - 1)


class CountingSession:
    """Reduced-word counter for one degree n, over the whole group.

    The table holds the number of reduced words of every permutation of
    degree n, indexed by the rank sum(d[a] * (n - a)!) of its inversion
    code (0 is the identity).  Stripping a left descent lowers the rank,
    so the table fills in rank order from the first-letter recursion
    count(w) = sum of count(s_i w) over left descents i, by one recursion
    over the code digits (_fill_block).  The first query fills it, unless
    a live session of the same degree already holds a filled table: then
    it shares that one, which nothing writes to after its fill.  A table
    is freed with the last session that holds it; no cache keeps it
    beyond that.  A degree that is not an int (a float or a bool) is
    refused with ValueError, and a session of degree n > DP_CAP refuses
    to be built, with ResourceCapError.
    """

    def __init__(self, n: int):
        check_int(n)
        if n > DP_CAP:
            raise ResourceCapError(f"degree {n} is above the table's cap of {DP_CAP}")
        self.n = n
        self._table: list[int] = []

    @property
    def entries(self) -> int:
        """Number of permutations in the table: 0 before the first query, n! after."""
        return len(self._table)

    def _fill(self) -> None:
        """Fill the table once, or share the live filled table of this degree."""
        if not self._table:
            table = _FILLED.get(self.n)
            if table is None:
                table = _Table(repeat(0, factorial(self.n)))
                table[0] = 1
                _fill_block(table, 0, self.n)
                _FILLED[self.n] = table
            self._table = table

    def _code(self, w: Sequence[int]) -> list[int]:
        """Inversion code of w, after checking its degree and filling the table."""
        t = check_permutation(w)
        check_int(len(t), self.n, self.n, "degree of w")
        self._fill()
        return _inversion_code(t)

    def count(self, w: Sequence[int]) -> int:
        """Exact number of reduced words of w.

        >>> CountingSession(4).count((4, 3, 2, 1))
        16
        """
        d = self._code(w)
        return self._table[_rank(d)]

    def prefix_probability(self, w: Sequence[int], prefix: Sequence[int]) -> Fraction:
        """Probability that a uniform reduced word of w starts with prefix.

        Exact: the count of words of the stripped permutation over the
        count of words of w, or 0 when some step fails to shorten.
        Raises ValueError when prefix is not a sequence of ints in [1, n-1].

        >>> CountingSession(4).prefix_probability((4, 3, 2, 1), (1, 2))
        Fraction(3, 16)
        """
        prefix = check_sequence(prefix, "prefix")
        for p in prefix:
            check_int(p, 1, self.n - 1, "letter")
        d = self._code(w)
        denom = self._table[_rank(d)]
        for p in prefix:
            if d[p] <= d[p + 1]:
                return Fraction(0)
            d[p], d[p + 1] = d[p + 1], d[p] - 1
        return Fraction(self._table[_rank(d)], denom)


def count_words(w: Sequence[int]) -> int:
    """Exact number of reduced words of w, from a fresh CountingSession.

    >>> count_words((4, 3, 2, 1))
    16
    >>> count_words((1, 2, 3))
    1
    """
    return CountingSession(len(check_permutation(w))).count(w)


def prefix_probability(w: Sequence[int], prefix: Sequence[int]) -> Fraction:
    """Exact probability that a uniform reduced word of w starts with prefix."""
    return CountingSession(len(check_permutation(w))).prefix_probability(w, prefix)


def enumerate_words(w: Sequence[int]) -> Iterator[Word]:
    """All reduced words of w in lexicographic order, each exactly once.

    Refuses with ResourceCapError when the exact count exceeds
    MAX_ENUMERATED_WORDS, when called and before yielding anything.  The
    words of w use only the letters lo..hi - 1 between the first and last
    positions lo, hi that w moves, so the count comes from the table of
    that window, standardized, of degree hi - lo + 1, and the words from
    _walk_blocks on that window: the walk costs the same wherever the
    window sits.  Each word is the block's prefix tuple plus one of its
    suffix tuples, every letter raised by lo; the suffixes of a list are
    raised once, when the list is first met, not once per word.

    >>> list(enumerate_words((3, 2, 1)))
    [(1, 2, 1), (2, 1, 2)]
    >>> list(enumerate_words((1, 2, 3)))
    [()]
    """
    t = check_permutation(w)
    moved = [p for p, v in enumerate(t) if v != p + 1] or [0]
    lo, hi = moved[0], moved[-1]
    window = tuple(v - lo for v in t[lo : hi + 1])
    total = CountingSession(len(window)).count(window)
    if total > MAX_ENUMERATED_WORDS:
        raise ResourceCapError(
            f"{t!r} has {total} reduced words, above the cap of {MAX_ENUMERATED_WORDS}"
        )

    def words() -> Iterator[Word]:
        tails: dict[int, tuple[list, list[Word]]] = {}  # id -> (list, shifted words)
        for letters, _, _, suffixes in _walk_blocks(window):
            entry = tails.get(id(suffixes))
            if entry is None:
                entry = tails[id(suffixes)] = (
                    suffixes,
                    [tuple(i + lo for i in v) for v, _, _ in suffixes],
                )
            head = tuple(i + lo for i in letters[: len(letters) - len(suffixes[0][0])])
            yield from map(head.__add__, entry[1])

    return words()


def rotate(n: int, letters: Sequence[int]) -> Word:
    """Rotate a reduced word of the longest element into another one.

    Moves the first letter i to the end as n - i; the result is again a
    reduced word of the longest element.  Raises ValueError when the
    input does not evaluate to the longest element of degree n, first of
    all when it does not have n(n - 1)/2 letters.

    >>> rotate(3, (1, 2, 1))
    (2, 1, 2)
    >>> rotate(4, (1, 2, 1, 3, 2, 1))
    (2, 1, 3, 2, 1, 3)
    """
    check_int(n)
    word = check_sequence(letters, "letters")
    if len(word) != n * (n - 1) // 2 or evaluate(n, word) != longest_element(n):
        raise ValueError(
            f"{word!r} is not a reduced word of the longest element of degree {n}"
        )
    if not word:
        return word
    return word[1:] + (n - word[0],)
