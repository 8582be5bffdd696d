import gc
import hashlib
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import islice, permutations as iter_permutations, zip_longest
from math import factorial

import pytest
from hypothesis import given, strategies as st

from longword.permutations import (
    apply_simple_left,
    check_permutation,
    identity,
    is_vexillary,
    left_descents,
    length,
    longest_element,
    shape_of,
)
import longword.words
from longword.expectations import expectation_report, expected_braids_by_counts
from longword.tableaux import hook_length_count, staircase
from longword.walk import _SPLICE, _walk_totals, _walk_words
from longword.words import (
    DP_CAP,
    CountingSession,
    NotReducedError,
    ResourceCapError,
    count_words,
    enumerate_words,
    evaluate,
    prefix_probability,
    rotate,
    word_stats,
)


def test_evaluate_examples():
    assert evaluate(3, (1, 2, 1)) == (3, 2, 1)
    assert evaluate(4, (1, 2, 1, 3, 2, 1)) == (4, 3, 2, 1)
    assert evaluate(3, ()) == (1, 2, 3)


def test_evaluate_rejects_unreduced():
    with pytest.raises(NotReducedError) as info:
        evaluate(3, (1, 1))
    assert info.value.position == 2
    with pytest.raises(NotReducedError) as info:
        evaluate(4, (1, 2, 1, 2, 1))
    assert info.value.position == 4


def test_evaluate_rejects_bad_letters():
    with pytest.raises(ValueError):
        evaluate(3, (1, 3))
    with pytest.raises(ValueError):
        evaluate(3, (0,))
    with pytest.raises(ValueError):
        evaluate(0, ())


def test_word_stats_examples():
    stats = word_stats((1, 2, 1))
    assert (stats.commutations, stats.noncommuting, stats.braids) == (0, 2, 1)
    stats = word_stats((1, 2, 1, 3, 2, 1))
    assert (stats.commutations, stats.noncommuting, stats.braids) == (1, 4, 1)
    assert word_stats((1, 3)).commutations == 1
    assert word_stats(()) == word_stats((2,))


@given(st.lists(st.integers(1, 6), max_size=30))
def test_word_stats_partition_identities(letters):
    stats = word_stats(letters)
    assert stats.commutations + stats.noncommuting == max(len(letters) - 1, 0)
    assert stats.ascending_pairs + stats.descending_pairs == stats.noncommuting
    assert stats.braids <= stats.noncommuting


def test_enumerate_words_examples():
    assert list(enumerate_words((3, 2, 1))) == [(1, 2, 1), (2, 1, 2)]
    assert list(enumerate_words((1, 2, 3))) == [()]
    words = list(enumerate_words((4, 3, 2, 1)))
    assert len(words) == 16
    assert words[:3] == [(1, 2, 1, 3, 2, 1), (1, 2, 3, 1, 2, 1), (1, 2, 3, 2, 1, 2)]


def test_enumerate_words_over_whole_degree_four():
    for n in (4, 5):
        for w in iter_permutations(range(1, n + 1)):
            words = list(enumerate_words(w))
            assert words == sorted(words)
            assert len(set(words)) == len(words) == count_words(w)
            for word in words:
                assert evaluate(n, word) == w


def _walk_digest(perms, limit=None) -> str:
    h = hashlib.sha256()
    for w in perms:
        for letters, noncommuting in islice(_walk_words(w), limit):
            h.update(bytes(letters))
            h.update(bytes([noncommuting, 255]))
    return h.hexdigest()


def test_walk_output_is_pinned():
    # the same digest over every permutation of degree 6 is pinned in CI
    assert (
        _walk_digest(iter_permutations(range(1, 6)))
        == "3b6be4b5d64e510030f88452774345d5a56cbe0cced97348f301d811c7c182ed"
    )
    assert (
        _walk_digest([longest_element(6)])
        == "6be9012994e8146e7a74573378e545cdfec23cd63301c05b2212d3f385816844"
    )
    for n in range(1, 6):  # words of 0 to 10 letters, the shortest one suffix each
        for w in iter_permutations(range(1, n + 1)):
            for letters, noncommuting in _walk_words(w):
                assert noncommuting == word_stats(letters).noncommuting


def test_long_walks_are_pinned():
    # words of length 7 to 28, where the splice does most of its work; the
    # digest was taken from the walk before it spliced
    rng = random.Random(7)
    perms = [tuple(rng.sample(range(1, n + 1), n)) for n in (7, 8) * 100]
    assert (
        _walk_digest(perms, 30_000)
        == "68150e8f6f22205f2026d5c18a6681523b062c54b985d1582fa59257b813b3cd"
    )


def _reference_words(w):
    """The words of w: (i,) + v over the left descents i, in increasing order,
    and the words v of s_i w."""
    if length(w) == 0:
        yield ()
    for i in sorted(left_descents(w)):
        for v in _reference_words(apply_simple_left(i, w)):
            yield (i,) + v


def test_walk_matches_the_recursive_reference():
    rng = random.Random(17)
    perms = [tuple(rng.sample(range(1, n + 1), n)) for n in (7, 8) * 10]
    # length _SPLICE is one suffix with no walked prefix; _SPLICE + 1 splices
    # after one walked letter, and _SPLICE + 2 after a prefix with a pair of its own
    for target in (_SPLICE, _SPLICE + 1, _SPLICE + 2):
        found = []
        while len(found) < 4:
            w = tuple(rng.sample(range(1, 8), 7))
            if length(w) == target:
                found.append(w)
        perms += found
    # every permutation of degree <= 5: lengths 0 to 10, both sides of _SPLICE
    perms += [w for n in range(1, 6) for w in iter_permutations(range(1, n + 1))]
    for w in perms:
        walked = [(tuple(letters), m) for letters, m in islice(_walk_words(w), 2_000)]
        assert [v for v, _ in walked] == list(islice(_reference_words(w), 2_000))
        for v, m in walked:
            assert m == word_stats(v).noncommuting


@pytest.mark.parametrize(
    "perms",
    [
        [w for n in range(1, 6) for w in iter_permutations(range(1, n + 1))],
        [longest_element(6)],
    ],
    ids=["degree<=5", "w0(6)"],
)
def test_walk_totals_fold_the_walk(perms):
    # the fold never expands a block; the walk writes out every word
    for w in perms:
        walked = [m for _, m in _walk_words(w)]
        assert _walk_totals(w) == (len(walked), sum(walked)), w


_NON_INT_CALLS = [
    *(
        (f, (w,))
        for f in (
            check_permutation,
            length,
            shape_of,
            is_vexillary,
            left_descents,
            count_words,
            enumerate_words,
        )
        for w in ((1.0, 2.0), (1, "a"), (True,))
    ),
    (evaluate, (3, (1.5,))),
    (evaluate, (3, (True,))),
    (rotate, (3, (1.0, 2, 1))),
    (prefix_probability, ((3, 2, 1), (1.5,))),
    (apply_simple_left, (1.0, (2, 1))),
    (apply_simple_left, (1, (1.0, 2.0))),
    (apply_simple_left, (1, (True, 2))),
    *((word_stats, (w,)) for w in ((1.5, 2.5), (True, False), ("1", "2"), (1, 2, 1.0))),
    # a non-int degree would be served the live table of an equal int degree
    *((CountingSession, (n,)) for n in (1.5, 9.0, True)),
]


@pytest.mark.parametrize(
    "f, args",
    _NON_INT_CALLS,
    ids=[f"{f.__name__}{args!r}".replace(" ", "") for f, args in _NON_INT_CALLS],
)
def test_non_int_entries_and_letters_are_refused(f, args):
    # each used to pass, or die with TypeError, before entries had to be ints
    with pytest.raises(ValueError):
        f(*args)


def test_word_stats_names_the_first_non_int_letter():
    with pytest.raises(ValueError, match=r"letter 1\.0 at position 3 is not an int"):
        word_stats((1, 2, 1.0, 2.5))


def test_enumerate_words_cap():
    # 1,100,742,656 words of degree 7 exceed MAX_ENUMERATED_WORDS = 10^7
    with pytest.raises(ResourceCapError):
        enumerate_words(longest_element(7))


def test_count_words_examples():
    assert count_words((1, 2, 3)) == 1
    assert count_words((4, 3, 2, 1)) == 16
    assert count_words(longest_element(5)) == 768


def test_count_words_validates_input():
    with pytest.raises(ValueError):
        count_words((1, 1, 2))
    session = CountingSession(3)
    with pytest.raises(ValueError):
        session.count((1, 2, 3, 4))


def test_counting_session_cap():
    started = time.perf_counter()
    for n in (DP_CAP + 1, 10**8):
        with pytest.raises(ResourceCapError):
            CountingSession(n)
    assert time.perf_counter() - started < 1
    with pytest.raises(ResourceCapError):
        count_words(identity(DP_CAP + 1))


def test_oversized_count_is_refused_up_front():
    started = time.perf_counter()
    with pytest.raises(ResourceCapError):
        count_words(longest_element(50))
    assert time.perf_counter() - started < 1


def test_oversized_prefix_probability_is_refused_up_front():
    started = time.perf_counter()
    with pytest.raises(ResourceCapError):
        CountingSession(40).prefix_probability(longest_element(40), (1, 2))
    assert time.perf_counter() - started < 1


def test_enumerate_words_counts_on_the_moved_window():
    # one word, though a table of the full degree 10 would cost the 10! fill
    started = time.perf_counter()
    assert list(enumerate_words((2, 1) + tuple(range(3, 11)))) == [(1,)]
    assert time.perf_counter() - started < 1
    # degree 12, past DP_CAP, moving only positions 3..6
    w = (1, 2, 6, 4, 3, 5) + tuple(range(7, 13))
    window = (4, 2, 1, 3)
    assert list(enumerate_words(w)) == [
        tuple(i + 2 for i in word) for word in enumerate_words(window)
    ]
    assert list(enumerate_words(identity(DP_CAP + 1))) == [()]
    # w0(6) at the far end of degree 10^4: the walk sees the window only
    lo = 10**4 - 6
    w = tuple(range(1, lo + 1)) + tuple(range(10**4, lo, -1))
    started = time.perf_counter()
    shifted = (tuple(i + lo for i in word) for word in enumerate_words(longest_element(6)))
    assert all(a == b for a, b in zip_longest(enumerate_words(w), shifted))
    assert time.perf_counter() - started < 5


def test_deep_permutation_is_refused_up_front():
    # Few permutations lie below these, but their degree is far past the cap.
    started = time.perf_counter()
    with pytest.raises(ResourceCapError):
        count_words(tuple(range(2, 2001)) + (1,))
    with pytest.raises(ResourceCapError):
        list(enumerate_words(tuple(range(2, 1501)) + (1,)))
    assert time.perf_counter() - started < 1


def count_via_right_descents(w, memo):
    """Mirror oracle: strip the LAST letter i, a right descent w(i) > w(i+1)."""
    if w not in memo:
        memo[w] = sum(
            count_via_right_descents(w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :], memo)
            for i in range(1, len(w))
            if w[i - 1] > w[i]
        )
    return memo[w]


def test_left_and_right_recursions_agree():
    # n = 4, 5 fill by the pair kernel alone; from n = 6 on, _fill_block adds
    # runs as slices above blocks of _TAIL! ranks, one more level per degree
    for n in range(4, 9):
        session = CountingSession(n)
        memo = {identity(n): 1}
        for w in iter_permutations(range(1, n + 1)):
            assert session.count(tuple(w)) == count_via_right_descents(tuple(w), memo)


# sha256 of the comma-joined table after one query; n = 10 is pinned in CI
TABLE_DIGESTS = {
    7: "6bbd394177d6f41fd47a5211ba47692197d1121a458be96f282650a296f7ebe5",
    8: "5afe0fc414e2c8eb364ba5fe5c97f715b208fee29d03ff28391447f68ee54c17",
    9: "77e1582572b992d6b86725238ede31d30dbf8b68407f765f22a03f3a52298190",
}


@pytest.mark.parametrize("n", sorted(TABLE_DIGESTS))
def test_counting_table_is_pinned(n):
    session = CountingSession(n)
    session.count(longest_element(n))
    text = ",".join(map(str, session._table))
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[n]


def test_entries_count_the_filled_table():
    for n in range(1, 7):
        session = CountingSession(n)
        assert session.entries == 0
        session.count(longest_element(n))
        assert session.entries == factorial(n)


def test_live_sessions_of_one_degree_share_the_filled_table(monkeypatch):
    n = 7
    fills = []
    fill_block = longword.words._fill_block

    def counting_fill_block(table, lo, k):
        if k == n:
            fills.append(k)
        fill_block(table, lo, k)

    read = []
    prefix_probability = CountingSession.prefix_probability

    def recording_prefix_probability(self, w, prefix):
        result = prefix_probability(self, w, prefix)
        read.append(self._table)
        return result

    held = CountingSession(n)
    held.count(longest_element(n))
    monkeypatch.setattr(longword.words, "_fill_block", counting_fill_block)
    monkeypatch.setattr(CountingSession, "prefix_probability", recording_prefix_probability)
    second = CountingSession(n)
    assert second.count(longest_element(n)) == hook_length_count(staircase(n))
    assert second._table is held._table
    closed = expectation_report(n, "closed_form").e_noncommuting
    assert expectation_report(n, "dp").e_noncommuting == closed
    assert expected_braids_by_counts(n) == 1
    assert read and all(table is held._table for table in read)
    assert fills == []


def test_a_dropped_session_frees_its_table():
    # No reference cycle may hold the table until the cyclic collector runs,
    # and a table shared by two sessions lives until both are dropped.
    n = 8
    collecting = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        first = CountingSession(n)
        first.count(longest_element(n))
        second = CountingSession(n)
        second.count(longest_element(n))
        assert second._table is first._table
        filled, _ = tracemalloc.get_traced_memory()
        del first
        kept, _ = tracemalloc.get_traced_memory()
        del second
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if collecting:
            gc.enable()
    assert kept > filled * 9 / 10
    assert left < filled / 10
    assert longword.words._FILLED.get(n) is None
    session = CountingSession(n)
    session.count(longest_element(n))
    text = ",".join(map(str, session._table))
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[n]


def test_stanley_count_for_every_vexillary_degree_five():
    session = CountingSession(5)
    for w in iter_permutations(range(1, 6)):
        w = tuple(w)
        if is_vexillary(w):
            assert session.count(w) == hook_length_count(shape_of(w))


def test_prefix_probability_examples():
    w0 = longest_element(4)
    assert prefix_probability(w0, (1, 2)) == Fraction(3, 16)
    assert prefix_probability(longest_element(3), (1,)) == Fraction(1, 2)
    assert prefix_probability(w0, ()) == 1


def test_prefix_probability_zero_when_not_shortening():
    w0 = longest_element(4)
    assert prefix_probability(w0, (1, 1)) == 0
    assert prefix_probability((1, 2, 3), (1,)) == 0


def test_prefix_probability_rejects_bad_letters():
    with pytest.raises(ValueError):
        prefix_probability(longest_element(4), (4,))
    with pytest.raises(ValueError):
        prefix_probability(longest_element(4), (1, 1, 99))


def test_prefix_probability_matches_enumeration(words_of_longest):
    for n in range(3, 6):
        words = words_of_longest(n)
        for j in range(1, n - 1):
            starting = sum(1 for word in words if word[:2] == (j, j + 1))
            assert prefix_probability(longest_element(n), (j, j + 1)) == Fraction(
                starting, len(words)
            )


def test_prefix_probabilities_sum_to_one_over_first_letters():
    for n in range(2, 6):
        w0 = longest_element(n)
        total = sum(prefix_probability(w0, (i,)) for i in range(1, n))
        assert total == 1


def test_rotate_examples():
    assert rotate(3, (1, 2, 1)) == (2, 1, 2)
    assert rotate(3, (2, 1, 2)) == (1, 2, 1)
    assert rotate(4, (1, 2, 1, 3, 2, 1)) == (2, 1, 3, 2, 1, 3)
    assert rotate(2, (1,)) == (1,)


def test_rotate_rejects_other_permutations():
    with pytest.raises(ValueError):
        rotate(3, (1, 2))
    with pytest.raises(ValueError):
        rotate(4, (1, 2, 1))
    with pytest.raises(NotReducedError):
        rotate(3, (1, 1, 2))
    # a word of the wrong length is refused before anything of degree n is built
    started = time.perf_counter()
    with pytest.raises(ValueError):
        rotate(10**12, (1,))
    assert time.perf_counter() - started < 1


def test_rotate_is_a_bijection_on_words(words_of_longest):
    for n in range(3, 6):
        words = words_of_longest(n)
        rotated = {rotate(n, word) for word in words}
        assert rotated == set(words)


def test_ascending_equals_descending_in_total(words_of_longest):
    for n in range(3, 6):
        totals = [0, 0]
        for word in words_of_longest(n):
            stats = word_stats(word)
            totals[0] += stats.ascending_pairs
            totals[1] += stats.descending_pairs
        assert totals[0] == totals[1]
