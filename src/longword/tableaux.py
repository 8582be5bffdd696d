"""Hook lengths, exact tableau counts, staircases, corner deletion."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

from .permutations import ResourceCapError, Shape, check_int, check_sequence

# hook_length_count takes 2.1-2.6 s at 79,800 cells (staircase(400)), and at
# the cap 3.0-4.0 s for staircase(447) (99,681 cells) and 4.3-5.2 s for the
# hook (50000, 1 x 50000); 43 s at 319,600 cells (2 CPUs).
HOOK_CELLS_CAP = 10**5


def check_partition(parts: Sequence[int]) -> Shape:
    """Return parts as a tuple without trailing zeros; ValueError unless a partition of ints."""
    t = check_sequence(parts, "shape")
    if any(type(p) is not int or p < 0 for p in t) or any(a < b for a, b in zip(t, t[1:])):
        raise ValueError(f"not a partition of ints: {t!r}")
    return t[: len(t) - t.count(0)]  # a partition's zeros all trail


def staircase(n: int) -> Shape:
    """The shape (n-1, n-2, ..., 1) of size n(n-1)/2.

    >>> staircase(4)
    (3, 2, 1)
    >>> staircase(1)
    ()
    """
    check_int(n)
    return tuple(range(n - 1, 0, -1))


def conjugate(shape: Shape) -> Shape:
    """Column lengths of the diagram; refuses over HOOK_CELLS_CAP cells first."""
    parts = check_partition(shape)
    if sum(parts) > HOOK_CELLS_CAP:
        raise ResourceCapError(f"{sum(parts)} cells exceed the cap of {HOOK_CELLS_CAP}")
    ascending = [-p for p in parts]  # column c is as long as the count of parts > c
    return tuple(bisect_left(ascending, -c) for c in range(parts[0] if parts else 0))


def delete_corners(shape: Shape, rows: tuple[int, int]) -> Shape:
    """Remove one corner cell from each of two adjacent rows (1-based).

    The rows (r, r + 1) must be ints of the shape, each ending in a removable
    corner, i.e. strictly longer than the row below it; else ValueError.

    >>> delete_corners((3, 2, 1), (1, 2))
    (2, 1, 1)
    >>> delete_corners((3, 2, 1), (2, 3))
    (3, 1)
    """
    parts = check_partition(shape)
    r1, r2 = (check_int(r, 1, len(parts), "row") for r in check_sequence(rows, "rows"))
    if r2 != r1 + 1:
        raise ValueError(f"rows must be adjacent, got {rows!r}")
    out = list(parts)
    for r in (r1, r2):
        below = parts[r] if r < len(parts) else 0
        if parts[r - 1] <= below:
            raise ValueError(f"row {r} of {parts!r} has no removable corner")
        out[r - 1] -= 1
    return check_partition(out)


@dataclass(frozen=True)
class HookGrid:
    """Per-cell hook lengths of a shape, row by row."""

    shape: Shape
    hooks: tuple[tuple[int, ...], ...]


def hook_grid(shape: Shape) -> HookGrid:
    """Hook length of each cell: arm + leg + 1.

    Refuses more than HOOK_CELLS_CAP cells, in conjugate, before any work.

    >>> hook_grid((3, 2, 1)).hooks
    ((5, 3, 1), (3, 1), (1,))
    """
    cols = conjugate(shape)
    parts = check_partition(shape)
    rows = tuple(
        tuple(parts[r] - c + cols[c] - r - 1 for c in range(parts[r]))
        for r in range(len(parts))
    )
    return HookGrid(parts, rows)


def hook_length_count(shape: Shape) -> int:
    """Number of standard fillings: size! / product of hooks, exactly.

    Refuses over HOOK_CELLS_CAP cells with ResourceCapError first, in hook_grid.

    >>> hook_length_count((3, 2, 1))
    16
    >>> hook_length_count((2, 1, 1))
    3
    """
    grid = hook_grid(shape)
    size = sum(grid.shape)
    product = 1
    for row in grid.hooks:
        for h in row:
            product *= h
    count, remainder = divmod(factorial(size), product)
    assert remainder == 0, f"hook product does not divide {size}! for {shape!r}"
    return count


def tableau_ratio(n: int, j: int) -> Fraction:
    """Filling count of the corner-deleted staircase over the staircase's.

    Equals the probability that a uniform reduced word of the longest
    element of degree n starts with the letters (j, j+1).

    >>> tableau_ratio(4, 1)
    Fraction(3, 16)
    >>> tableau_ratio(3, 1)
    Fraction(1, 2)
    """
    check_int(n, 3)
    check_int(j, 1, n - 2, "index")
    if n * (n - 1) // 2 > HOOK_CELLS_CAP:  # before the staircase is built
        raise ResourceCapError(f"degree {n} is above the cap of {HOOK_CELLS_CAP} cells")
    delta = staircase(n)
    deleted = delete_corners(delta, (j, j + 1))
    return Fraction(hook_length_count(deleted), hook_length_count(delta))
