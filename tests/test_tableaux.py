import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from longword.permutations import longest_element
from longword.tableaux import (
    HOOK_CELLS_CAP,
    conjugate,
    delete_corners,
    hook_grid,
    hook_length_count,
    staircase,
    tableau_ratio,
)
from longword.words import ResourceCapError, count_words, prefix_probability


@st.composite
def partitions(draw, max_part=6, max_rows=5):
    parts = draw(st.lists(st.integers(1, max_part), min_size=1, max_size=max_rows))
    return tuple(sorted(parts, reverse=True))


def oracle_fillings(shape, _cache={(): 1}):
    """Standard fillings counted by corner-removal recursion, no hooks."""
    shape = tuple(p for p in shape if p)
    if shape not in _cache:
        total = 0
        for r in range(len(shape)):
            if r == len(shape) - 1 or shape[r] > shape[r + 1]:
                smaller = list(shape)
                smaller[r] -= 1
                total += oracle_fillings(tuple(smaller))
        _cache[shape] = total
    return _cache[shape]


def test_staircase_examples():
    assert staircase(2) == (1,)
    assert staircase(4) == (3, 2, 1)
    assert staircase(9) == (8, 7, 6, 5, 4, 3, 2, 1)
    assert staircase(1) == ()
    assert sum(staircase(9)) == 36
    with pytest.raises(ValueError):
        staircase(0)


def test_conjugate():
    assert conjugate((3, 2, 1)) == (3, 2, 1)
    assert conjugate((4, 1)) == (2, 1, 1, 1)
    assert conjugate(()) == ()


@given(partitions())
def test_conjugate_is_involutive(shape):
    assert conjugate(conjugate(shape)) == shape


def test_delete_corners_examples():
    assert delete_corners((3, 2, 1), (1, 2)) == (2, 1, 1)
    assert delete_corners((3, 2, 1), (2, 3)) == (3, 1)
    assert delete_corners((2, 1), (1, 2)) == (1,)


def test_delete_corners_rejections():
    with pytest.raises(ValueError):
        delete_corners((3, 2, 1), (1, 3))  # not adjacent
    with pytest.raises(ValueError):
        delete_corners((2, 2), (1, 2))  # row 1 has no removable corner
    with pytest.raises(ValueError):
        delete_corners((3, 2, 1), (3, 4))  # row 4 outside the shape
    with pytest.raises(ValueError):
        delete_corners((3, 1, 1), (2, 3))  # row 2 corner not removable


def test_hook_grid_staircase():
    assert hook_grid((3, 2, 1)).hooks == ((5, 3, 1), (3, 1), (1,))
    assert hook_grid((2, 1, 1)).hooks == ((4, 1), (2,), (1,))


@given(partitions())
def test_hooks_strictly_decrease(shape):
    grid = hook_grid(shape)
    for row in grid.hooks:
        assert all(a > b for a, b in zip(row, row[1:]))
    for c in range(shape[0]):
        column = [row[c] for row in grid.hooks if c < len(row)]
        assert all(a > b for a, b in zip(column, column[1:]))


@given(partitions())
def test_hook_product_divides_factorial(shape):
    product = 1
    for row in hook_grid(shape).hooks:
        for h in row:
            product *= h
    assert factorial(sum(shape)) % product == 0


def test_hook_length_count_examples():
    assert hook_length_count((1,)) == 1
    assert hook_length_count(()) == 1
    assert hook_length_count((3, 2, 1)) == 16  # 720 / (5*3*1*3*1*1)
    assert hook_length_count((2, 1, 1)) == 3  # 24 / (4*1*2*1)


@given(partitions(max_part=5, max_rows=4))
def test_hook_length_count_matches_corner_recursion(shape):
    assert hook_length_count(shape) == oracle_fillings(shape)


def test_oversized_shape_is_refused_up_front():
    assert sum(staircase(447)) <= HOOK_CELLS_CAP < sum(staircase(448))
    started = time.perf_counter()
    for shape in (staircase(2000), staircase(448), (HOOK_CELLS_CAP + 1,)):
        with pytest.raises(ResourceCapError):
            hook_length_count(shape)
    for shape in (staircase(448), (10**7,), (1,) * (HOOK_CELLS_CAP + 1)):
        for helper in (hook_grid, conjugate):
            with pytest.raises(ResourceCapError):
                helper(shape)
    assert hook_length_count((1,) + (0,) * 10**5) == 1  # trailing zeros are dropped
    hook = (HOOK_CELLS_CAP // 2,) + (1,) * (HOOK_CELLS_CAP // 2)  # at the cap
    assert conjugate(hook)[:2] == (HOOK_CELLS_CAP // 2 + 1, 1)
    for n in (448, 10**9):
        with pytest.raises(ResourceCapError):
            tableau_ratio(n, 1)
    assert time.perf_counter() - started < 1


def test_tableau_ratio_examples():
    assert tableau_ratio(4, 1) == Fraction(3, 16)
    assert tableau_ratio(4, 2) == Fraction(3, 16)
    assert tableau_ratio(3, 1) == Fraction(1, 2)


def test_tableau_ratio_symmetry():
    for n in range(3, 10):
        for j in range(1, n - 1):
            assert tableau_ratio(n, j) == tableau_ratio(n, n - 1 - j)


def test_tableau_ratio_is_a_probability():
    for n in range(3, 9):
        total = sum(tableau_ratio(n, j) for j in range(1, n - 1))
        assert 0 < total < 1


def test_tableau_ratio_equals_prefix_probability():
    for n in range(3, 7):
        w0 = longest_element(n)
        for j in range(1, n - 1):
            assert tableau_ratio(n, j) == prefix_probability(w0, (j, j + 1))


def test_staircase_count_matches_word_count():
    for n in range(3, 8):
        assert hook_length_count(staircase(n)) == count_words(longest_element(n))


def test_hook_difference_region():
    """Hooks of the staircase and its corner-deleted shape differ exactly
    in rows j, j+1 and in the two columns above the removed corners."""
    for n in range(3, 11):
        for j in range(1, n - 1):
            delta = staircase(n)
            lam = delete_corners(delta, (j, j + 1))
            delta_hooks = hook_grid(delta).hooks
            lam_hooks = hook_grid(lam).hooks
            actual = {
                (r + 1, c + 1)
                for r in range(len(lam))
                for c in range(lam[r])
                if lam_hooks[r][c] != delta_hooks[r][c]
            }
            predicted = set()
            for r in (j, j + 1):
                if r > len(lam):
                    continue
                for c in range(1, lam[r - 1] + 1):
                    predicted.add((r, c))
            for r in range(1, j):
                for c in (n - j - 1, n - j):
                    if c <= lam[r - 1]:
                        predicted.add((r, c))
            assert actual == predicted, (n, j)
