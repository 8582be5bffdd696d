"""Permutations of {1, ..., n} in one-line notation.

A permutation w is stored as the tuple (w(1), ..., w(n)) with 1-based
values.  The simple transposition s_i exchanges i and i+1; acting on the
right it swaps the entries in positions i and i+1, acting on the left it
swaps the values i and i+1 wherever they sit.  Length means the number
of inversions, so the longest element of degree n has length n(n-1)/2.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Permutation = tuple[int, ...]
Shape = tuple[int, ...]


class ResourceCapError(RuntimeError):
    """A counting or enumeration request exceeded its configured cap."""


def is_permutation(seq: Iterable[int]) -> bool:
    """True when seq is a sequence of ints (not bools) that rearranges 1..len(seq)."""
    try:
        check_permutation(seq)
    except ValueError:
        return False
    return True


def check_int(value: int, least: int = 1, most: int | None = None, name: str = "degree") -> int:
    """Return value, or raise ValueError naming it unless it is an int in [least, most]."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < least or most is not None and value > most:
        span = f"be at least {least}" if most is None else f"lie in [{least}, {most}]"
        raise ValueError(f"{name} must {span}, got {value}")
    return value


def check_cap(value: int, cap: int, what: str) -> int:
    """Return value, or raise ResourceCapError when it is above cap."""
    if value > cap:
        raise ResourceCapError(f"{what} {value} is above the cap of {cap}")
    return value


def check_sequence(seq: Iterable, name: str) -> tuple:
    """Return seq as a tuple; raise ValueError naming it when it is not iterable."""
    try:
        return tuple(seq)
    except TypeError:
        raise ValueError(f"{name} must be a sequence, got {seq!r}") from None


def identity(n: int) -> Permutation:
    check_int(n)
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Permutation:
    """The order-reversing permutation (n, n-1, ..., 1).

    >>> longest_element(4)
    (4, 3, 2, 1)
    >>> longest_element(1)
    (1,)
    """
    check_int(n)
    return tuple(range(n, 0, -1))


def _inversion_code(w: Permutation) -> list[int]:
    """Counts d[a] = #{b > a : b stands left of a}, for a = 1..n.

    d[0] is unused and d[n] is 0.  Value i is a left descent of w (i + 1
    stands left of i) exactly when d[i] > d[i + 1], and then s_i w has
    (d[i], d[i + 1]) replaced by (d[i + 1], d[i] - 1).  The only count of
    inversions: length, left_descents and shape_of all read it.  A
    Fenwick tree over the values read so far gives each d[v] in O(log n);
    w must be a checked permutation, as the tree is indexed by value.
    """
    n = len(w)
    d = [0] * (n + 1)
    tree = [0] * (n + 1)
    for p, v in enumerate(w):
        i, at_most = v, 0
        while i:
            at_most += tree[i]
            i &= i - 1
        d[v] = p - at_most
        while v <= n:
            tree[v] += 1
            v += v & -v
    return d


def length(w: Permutation) -> int:
    """Number of inversions, i.e. pairs p < q with w(p) > w(q)."""
    return sum(_inversion_code(check_permutation(w)))


def apply_simple_left(i: int, w: Permutation) -> Permutation:
    """Compose s_i on the left: swap the values i and i+1 inside w.

    Raises ValueError when w is not a permutation or i is not an int in
    [1, n-1].

    >>> apply_simple_left(1, (4, 3, 2, 1))
    (4, 3, 1, 2)
    >>> apply_simple_left(2, (4, 3, 1, 2))
    (4, 2, 1, 3)
    """
    w = check_permutation(w)
    check_int(i, 1, len(w) - 1, "simple index")
    swap = {i: i + 1, i + 1: i}
    return tuple(swap.get(v, v) for v in w)


def left_descents(w: Permutation) -> set[int]:
    """Indices i with length(s_i w) < length(w).

    These are exactly the i whose value i+1 appears before i in w.

    >>> sorted(left_descents((4, 2, 1, 3)))
    [1, 3]
    >>> left_descents((1, 2, 3))
    set()
    """
    w = check_permutation(w)
    d = _inversion_code(w)
    return {i for i in range(1, len(w)) if d[i] > d[i + 1]}


def is_vexillary(w: Sequence[int]) -> bool:
    """True when w has no positions p1<p2<p3<p4 patterned like (2,1,4,3).

    Such positions exist exactly when a[p2] < b[p3] for some p2 < p3,
    where a[p] is the least value left of p above w(p) and b[p] the
    greatest value right of p below w(p).  Both are read off a doubly
    linked list of the values 0..n+1 (0 and n+1 mean none) that drops
    w(p) once p is read: O(n) after the check that w is a permutation.

    >>> is_vexillary((2, 1, 4, 3))
    False
    >>> is_vexillary((4, 3, 2, 1))
    True
    """
    w = check_permutation(w)
    n = len(w)
    lower, higher = list(range(-1, n + 1)), list(range(1, n + 3))
    least_above = [0] * n
    for p in range(n - 1, -1, -1):  # the list holds the values at positions <= p
        lo, hi = lower[w[p]], higher[w[p]]
        least_above[p] = hi
        higher[lo], lower[hi] = hi, lo
    lower, higher = list(range(-1, n + 1)), list(range(1, n + 3))
    lowest = n + 1  # least a[p2] over p2 < p
    for p, v in enumerate(w):  # the list holds the values at positions >= p
        lo, hi = lower[v], higher[v]
        if lowest < lo:
            return False
        lowest = min(lowest, least_above[p])
        higher[lo], lower[hi] = hi, lo
    return True


def shape_of(w: Permutation) -> Shape:
    """Partition of length(w) recording inversions by position.

    Entry r_p = d[w(p)] counts the earlier positions carrying a larger
    value than position p; the partition is the multiset of nonzero r_p
    sorted in weakly decreasing order.

    >>> shape_of((4, 3, 2, 1))
    (3, 2, 1)
    >>> shape_of((4, 2, 1, 3))
    (2, 1, 1)
    """
    d = _inversion_code(check_permutation(w))
    return tuple(sorted(filter(None, d), reverse=True))


def two_step_lowering(n: int, j: int) -> Permutation:
    """The permutation s_{j+1} s_j w0 of degree n, for 1 <= j <= n-2.

    One-line form: n, ..., j+3, j+1, j, j+2, j-1, ..., 1.  It arises by
    removing the first two letters (j, j+1) from a reduced word of the
    longest element, and it is always vexillary.

    >>> two_step_lowering(4, 1)
    (4, 2, 1, 3)
    >>> two_step_lowering(4, 2)
    (3, 2, 4, 1)
    """
    check_int(n, 3)
    check_int(j, 1, n - 2, "index")
    return apply_simple_left(j + 1, apply_simple_left(j, longest_element(n)))


def check_permutation(w: Sequence[int]) -> Permutation:
    """Return w as a tuple, raising ValueError when it is not a permutation.

    The entries must be of type int, so (1.0, 2.0), (1, 'a') and (True,)
    are refused, as is a w that is not iterable.
    """
    t = check_sequence(w, "permutation")
    if not all(type(v) is int for v in t) or sorted(t) != list(range(1, len(t) + 1)):
        raise ValueError(f"not a permutation of 1..{len(t)}: {t!r}")
    return t
