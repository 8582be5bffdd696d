import time
from itertools import combinations, permutations as iter_permutations

import pytest
from hypothesis import given, strategies as st

from longword.permutations import (
    apply_simple_left,
    identity,
    is_permutation,
    is_vexillary,
    left_descents,
    length,
    longest_element,
    shape_of,
    two_step_lowering,
)
from longword.tableaux import delete_corners, staircase


@st.composite
def perms(draw, min_degree=1, max_degree=8):
    n = draw(st.integers(min_degree, max_degree))
    return tuple(draw(st.permutations(range(1, n + 1))))


def brute_inversions(w):
    return sum(1 for p, q in combinations(range(len(w)), 2) if w[p] > w[q])


def test_longest_element_basics():
    assert longest_element(1) == (1,)
    assert longest_element(4) == (4, 3, 2, 1)
    assert longest_element(3) == (3, 2, 1)
    assert length(longest_element(3)) == 3
    with pytest.raises(ValueError):
        longest_element(0)


@given(st.integers(1, 30))
def test_longest_element_length_is_binomial(n):
    assert length(longest_element(n)) == n * (n - 1) // 2


def test_is_permutation():
    assert is_permutation((2, 1, 3))
    assert not is_permutation((1, 1, 3))
    assert not is_permutation((0, 1, 2))
    assert is_permutation(())


def test_apply_simple_left_examples():
    assert apply_simple_left(1, (3, 2, 1)) == (3, 1, 2)
    assert apply_simple_left(2, (1, 2, 3)) == (1, 3, 2)
    assert apply_simple_left(2, apply_simple_left(1, (4, 3, 2, 1))) == (4, 2, 1, 3)
    with pytest.raises(ValueError):
        apply_simple_left(0, (2, 1))
    with pytest.raises(ValueError):
        apply_simple_left(3, (2, 1, 3))
    # w must be a permutation: these used to swap values silently
    for w in ((1, 1, 2), (1, 3), (0, 1), (2, 3)):
        with pytest.raises(ValueError):
            apply_simple_left(1, w)


def test_length_examples():
    assert length((1, 2, 3)) == 0
    assert length((4, 3, 2, 1)) == 6
    assert brute_inversions((4, 2, 1, 3)) == 4
    assert length((4, 2, 1, 3)) == 4


@given(perms())
def test_length_matches_brute_inversions(w):
    assert length(w) == brute_inversions(w)


@given(perms(min_degree=2), st.data())
def test_simple_left_changes_length_by_one(w, data):
    i = data.draw(st.integers(1, len(w) - 1))
    assert abs(length(apply_simple_left(i, w)) - length(w)) == 1


def test_left_descents_examples():
    assert left_descents((1, 2, 3)) == set()
    assert left_descents((3, 2, 1)) == {1, 2}
    assert left_descents((4, 2, 1, 3)) == {1, 3}


@given(perms(min_degree=2))
def test_left_descents_are_the_shortening_letters(w):
    by_length = {
        i
        for i in range(1, len(w))
        if length(apply_simple_left(i, w)) == length(w) - 1
    }
    assert left_descents(w) == by_length


def oracle_vexillary(w):
    """Pattern scan done differently: standardize every 4-subsequence."""
    for quad in combinations(w, 4):
        ranks = tuple(sorted(quad).index(v) + 1 for v in quad)
        if ranks == (2, 1, 4, 3):
            return False
    return True


def test_is_vexillary_examples():
    assert not is_vexillary((2, 1, 4, 3))
    assert is_vexillary((4, 3, 2, 1))
    assert is_vexillary((4, 2, 1, 3))


@given(perms())
def test_is_vexillary_matches_oracle(w):
    assert is_vexillary(w) == oracle_vexillary(w)


def test_is_vexillary_answers_large_degrees_quickly():
    n = 10**4
    started = time.perf_counter()
    assert is_vexillary(longest_element(n))
    assert not is_vexillary(tuple(range(n, 4, -1)) + (2, 1, 4, 3))
    assert time.perf_counter() - started < 1


def test_inversion_counts_answer_large_degrees_quickly():
    n = 20000
    w0 = longest_element(n)
    started = time.perf_counter()
    assert length(w0) == n * (n - 1) // 2
    assert left_descents(w0) == set(range(1, n))
    assert shape_of(w0) == staircase(n)
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("count", [length, left_descents, shape_of])
@pytest.mark.parametrize("w", [(0, 1, 2), (2, 2, 1), (3, 1)])
def test_inversion_counts_reject_non_permutations(count, w):
    with pytest.raises(ValueError):
        count(w)


def test_shape_of_examples():
    assert shape_of((4, 3, 2, 1)) == (3, 2, 1)
    assert shape_of((4, 2, 1, 3)) == (2, 1, 1)
    assert shape_of((3, 2, 4, 1)) == (3, 1)
    assert shape_of((1, 2, 3)) == ()


@given(perms())
def test_shape_size_is_length(w):
    shape = shape_of(w)
    assert sum(shape) == length(w)
    assert all(a >= b for a, b in zip(shape, shape[1:]))
    assert all(part > 0 for part in shape)


@given(perms())
def test_shape_of_is_the_sorted_per_position_counts(w):
    rows = [sum(1 for q in range(p) if w[q] > w[p]) for p in range(len(w))]
    assert shape_of(w) == tuple(sorted((r for r in rows if r), reverse=True))


@given(st.integers(1, 10))
def test_shape_of_longest_element_is_staircase(n):
    assert shape_of(longest_element(n)) == staircase(n)


def test_two_step_lowering_examples():
    assert two_step_lowering(4, 1) == (4, 2, 1, 3)
    assert two_step_lowering(4, 2) == (3, 2, 4, 1)
    assert shape_of(two_step_lowering(9, 3)) == delete_corners(staircase(9), (3, 4))
    with pytest.raises(ValueError):
        two_step_lowering(4, 3)
    with pytest.raises(ValueError):
        two_step_lowering(4, 0)
    with pytest.raises(ValueError):
        two_step_lowering(2, 1)


@given(st.integers(3, 12), st.data())
def test_two_step_lowering_explicit_form(n, data):
    j = data.draw(st.integers(1, n - 2))
    explicit = (
        tuple(range(n, j + 2, -1))
        + (j + 1, j, j + 2)
        + tuple(range(j - 1, 0, -1))
    )
    a = two_step_lowering(n, j)
    assert a == explicit
    assert is_vexillary(a)
    assert length(a) == n * (n - 1) // 2 - 2


def test_identity_rejects_zero():
    with pytest.raises(ValueError):
        identity(0)
    assert identity(3) == (1, 2, 3)


def test_degree_five_vexillary_census():
    # fixed census guards the pattern scan: 103 of 120 avoid the pattern
    census = sum(
        1 for w in iter_permutations(range(1, 6)) if is_vexillary(tuple(w))
    )
    assert census == 103
