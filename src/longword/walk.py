"""Lexicographic walk of the reduced words of a permutation, a block at a time.

Every reduced word of w is a prefix, walked letter by letter, plus a
suffix of its last _SPLICE letters from a list memoized on the inversion
code that the prefix leaves.  The walk yields one block per prefix: the
prefix and its list.  _walk_words writes the words out, _walk_totals
counts them and their noncommuting pairs without writing them, and
words.enumerate_words builds them as tuples.  The walk reads no
word-count table, so enumeration stays a route independent of counting.
"""

from __future__ import annotations

from typing import Iterator

from .permutations import Permutation, _inversion_code

# (word, first letter, noncommuting count) for each word of one code
Suffixes = list[tuple[tuple[int, ...], int, int]]

# The word walk splices in its last _SPLICE letters from memoized suffix lists.
# Measured (2 CPUs, fresh processes, best of 3 walks): the walk of w0(6)
# took 0.29-0.41, 0.20-0.33, 0.18-0.26 and 0.16-0.22 s for 3, 4, 5 and 6
# letters (0.44-0.64 s letter by letter), and 2,000,000 words of
# (6, 7, 3, 5, 4, 2, 1) through enumerate_words 1.8-2.9, 1.5-2.1, 1.2-1.6
# and 1.0-1.3 s (3.8-4.7 s).  Six won 2 of 3 paired runs against five.
_SPLICE = 6


def _suffixes(d: list[int], memo: dict) -> Suffixes:
    """The reduced words of the permutation whose inversion code is d.

    Each comes as (word, first letter, noncommuting count), in
    lexicographic order: the first letter i runs over the left descents
    of d, each followed by the words of s_i w.  The empty word's first
    letter is -1, which pairs with no letter.  memo keeps the list of
    every code met, keyed by the code.
    """
    key = tuple(d)
    words = memo.get(key)
    if words is None:
        words = []
        for i in range(1, len(d) - 1):
            if d[i] > d[i + 1]:
                d[i], d[i + 1] = d[i + 1], d[i] - 1
                words += [((i, *v), i, m + ((i - f) in (1, -1))) for v, f, m in _suffixes(d, memo)]
                d[i], d[i + 1] = d[i + 1] + 1, d[i]
        memo[key] = words = words or [((), -1, 0)]
    return words


def _walk_blocks(
    t: Permutation,
) -> Iterator[tuple[list[int], int, int, Suffixes]]:
    """Walk the reduced words of the permutation t a block at a time.

    Every word is a walked prefix of the first top = max(length - _SPLICE, 0)
    letters plus a suffix from _suffixes, memoized per call on the inversion
    code left after the prefix.  Yields (letters, last, pairs, suffixes)
    once per prefix, in lexicographic order: letters is one buffer of
    length(t) letters whose first top hold the prefix, overwritten in place
    after the yield (a consumer may write letters[top:]); last is the
    prefix's last letter, -1 when it is empty; pairs counts its adjacent
    pairs with |a - b| = 1; suffixes is the memoized list, shared by every
    prefix that leaves the same code.  The walk goes down the tree of
    left-descent prefixes with an explicit stack: depth k holds letters[k],
    the letter before it (-1 at depth 0) and the pair count of letters[:k];
    undoing letters[k] resumes the scan at depth k from letters[k] + 1.
    """
    n = len(t)
    d = _inversion_code(t)
    letters = [0] * sum(d)
    top = max(len(letters) - _SPLICE, 0)
    memo: dict[tuple[int, ...], Suffixes] = {}
    last = [-1] * (top + 1)  # last[k] = letters[k - 1], and -1 at depth 0
    pairs = [0] * (top + 1)  # pairs[k] counts the pairs of letters[:k]
    depth, i = 0, 1
    while True:
        if depth == top:
            yield letters, last[top], pairs[top], _suffixes(d, memo)
        else:
            while i < n and d[i] <= d[i + 1]:
                i += 1
            if i < n:
                d[i], d[i + 1] = d[i + 1], d[i] - 1
                letters[depth] = i
                pairs[depth + 1] = pairs[depth] + ((last[depth] - i) in (1, -1))
                depth += 1
                last[depth], i = i, 1
                continue
        if not depth:
            return
        depth -= 1
        i = letters[depth]
        d[i], d[i + 1] = d[i + 1] + 1, d[i]
        i += 1


def _walk_words(t: Permutation) -> Iterator[tuple[list[int], int]]:
    """Walk the reduced words of the permutation t, in lexicographic order.

    Yields (letters, noncommuting) once per word: letters is one buffer
    that is overwritten in place after the yield, and noncommuting counts
    its adjacent pairs with |a - b| = 1, as word_stats does.  Each block of
    _walk_blocks is expanded by writing every suffix after the prefix; the
    suffix's pair count adds to the prefix's, plus one when the junction
    letters differ by 1.
    """
    for letters, a, c, suffixes in _walk_blocks(t):
        top = len(letters) - len(suffixes[0][0])
        for v, f, m in suffixes:
            letters[top:] = v
            yield letters, c + m + ((a - f) in (1, -1))


def _walk_totals(t: Permutation) -> tuple[int, int]:
    """The number of reduced words of t and the sum of their noncommuting counts.

    Folds each block of _walk_blocks without expanding it: a list of k
    suffixes after a prefix with last letter a and c pairs adds k words and
    k c + plus[a] pairs, where plus[a] sums the suffixes' own pair counts
    and the suffixes whose first letter f has |a - f| = 1.  plus is made
    once per list, for a = -1 and every letter, keyed by the list's id; the
    entry holds the list, so no other list takes that id.  Reads no
    word-count table, so the totals stay independent of the counting route.
    """
    words = total = 0
    tallies: dict[int, tuple[Suffixes, dict[int, int]]] = {}  # id -> (list, plus)
    for _, a, c, suffixes in _walk_blocks(t):
        entry = tallies.get(id(suffixes))
        if entry is None:
            plus = {
                b: sum(m + ((b - f) in (1, -1)) for _, f, m in suffixes)
                for b in range(-1, len(t))
            }
            entry = tallies[id(suffixes)] = (suffixes, plus)
        k = len(suffixes)
        words += k
        total += k * c + entry[1][a]
    return words, total
