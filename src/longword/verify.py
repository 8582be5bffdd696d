"""Self-verification: recompute every published identity end to end.

Each check yields legs (label, ok, shown) that compare two independent
routes (enumeration, word counts or hook lengths, closed forms, sampling)
one degree at a time; one runner stops at the first failing leg.
"""

from __future__ import annotations

import functools
import time
from fractions import Fraction
from typing import NamedTuple

from . import expectations as ex
from .permutations import check_int, is_vexillary, longest_element, shape_of, two_step_lowering
from .sampling import monte_carlo, sample_word, trial_generator
from .tableaux import delete_corners, hook_length_count, staircase
from .walk import _walk_words
from .words import CountingSession, enumerate_words, evaluate, word_stats

# 99.9% point of the chi-square distribution with 15 degrees of freedom
CHI2_15_Q999 = 37.69729821835383

MIN_N = 3
MAX_N = 10


class CheckResult(NamedTuple):
    """One check's verdict; seconds is the wall time spent draining its legs.

    It includes each shared enumeration pass the check is the first to ask
    for, so a later check that reuses the pass looks cheaper than alone.
    """

    name: str
    passed: bool
    detail: str
    seconds: float


def _same(label: str, a, b) -> tuple[str, bool, str]:
    return label, a == b, f"{a}" if a == b else f"{a} != {b}"


def _within(label: str, off: float, bound: float, spec: str) -> tuple[str, bool, str]:
    return label, off <= bound, f"off by {off:{spec}}, bound {bound:{spec}}"


def _enumeration_pass(n: int):
    """One walk over w0's words: the braid mean, the word count, the first bad word.

    Each word faces two legs.  Its commutations, counted by word_stats,
    and the noncommuting pairs that the walk counts on its own add up to
    ell - 1.  Its rotation i_2 ... i_ell (n - i_1) evaluates to w0: as
    w0 s_i w0 = s_{n-i}, the rotation's product is s_{i_1} P w0 s_{i_1} w0,
    where P = s_{i_1} ... s_{i_ell} is the word's own, so it is w0 exactly
    when P is, and a word of ell letters with product w0 is reduced.  So
    one evaluation, of the rotation, checks both words and names any
    non-word the walk yields; a first letter outside [1, n - 1] stays
    outside as n - i_1, and evaluate refuses it.
    """
    w0 = longest_element(n)
    ell = n * (n - 1) // 2
    words = braids = 0
    bad = None
    for letters, noncommuting in _walk_words(w0):
        stats = word_stats(letters)
        words += 1
        braids += stats.braids
        if bad is None:
            try:
                rotates = evaluate(n, [*letters[1:], n - letters[0]]) == w0
            except ValueError:  # evaluate refuses a non-word of w0
                rotates = False
            if not (rotates and stats.commutations + noncommuting == ell - 1):
                bad = tuple(letters)
    return Fraction(braids, words), words, bad


def _commutation_enumeration(max_n: int, tally):
    for n in range(MIN_N, min(6, max_n) + 1):
        via_words = ex.expectation_report(n, "enumeration").e_commutations
        yield _same(f"n={n}", via_words, ex.expected_commutations(n))


def _commutation_dp(max_n: int, tally):
    for n in range(7, min(9, max_n) + 1):
        via_counts = ex.expectation_report(n, "dp").e_commutations
        yield _same(f"n={n}", via_counts, ex.expected_commutations(n))


def _braid_mean(max_n: int, tally):
    for n in range(MIN_N, min(6, max_n) + 1):
        mean, _, _ = tally(n)
        yield _same(f"enum n={n}", mean, ex.expected_braids())
    for n in range(7, min(9, max_n) + 1):
        via_counts = ex.expected_braids_by_counts(n)
        yield _same(f"counts n={n}", via_counts, ex.expected_braids())


def _counts_vs_hooks(max_n: int, tally):
    for n in range(MIN_N, min(9, max_n) + 1):
        count = CountingSession(n).count
        yield _same(f"n={n}", count(longest_element(n)), hook_length_count(staircase(n)))
        for j in range(1, n - 1) if n <= 7 else ():
            by_words = count(two_step_lowering(n, j))
            by_hooks = hook_length_count(delete_corners(staircase(n), (j, j + 1)))
            yield _same(f"n={n}, j={j}", by_words, by_hooks)
    return "count pairs agree"


def _shapes(max_n: int, tally):
    for n in range(MIN_N, max_n + 1):
        for j in range(1, n - 1):
            a = two_step_lowering(n, j)
            expect = delete_corners(staircase(n), (j, j + 1)), True
            yield _same(f"n={n}, j={j}", (shape_of(a), is_vexillary(a)), expect)
    return "shapes agree"


def _complement_and_rotation(max_n: int, tally):
    for n in range(MIN_N, min(6, max_n) + 1):
        _, words, bad = tally(n)
        yield f"n={n}", bad is None, f"fails for {bad}" if bad else f"{words} words"


def _sampler(max_n: int, tally):
    if max_n >= 4:
        words = enumerate_words(longest_element(4))
        observed = dict.fromkeys(words, 0)
        for index in range(16000):
            word = sample_word(4, trial_generator(2024, index))
            if word not in observed:
                yield f"draw {index} (n=4)", False, f"{word} is not a word of w0"
                return
            observed[word] += 1
        expected = 16000 / len(observed)
        chi_square = sum((c - expected) ** 2 / expected for c in observed.values())
        shown = f"{chi_square:.2f}, bound {CHI2_15_Q999}"
        yield "chi-square(n=4)", chi_square < CHI2_15_Q999, shown
    if max_n >= 10:
        summary = monte_carlo(10, 100_000, seed=42)
        err = abs(summary.mean_commutations - float(ex.expected_commutations(10)))
        yield _within("n=10 commutation mean", err, 4 * summary.se_commutations, ".4f")
        err = abs(summary.mean_braids - 1.0)
        yield _within("n=10 braid mean", err, 4 * summary.se_braids, ".4f")


def _linear_asymptotics(max_n: int, tally):
    distances = [
        abs(ex.expected_noncommuting_float(m) / m - ex.ASYMPTOTIC_COEFFICIENT)
        for m in (100, 200, 400, 800)
    ]
    decreasing = all(a > b for a, b in zip(distances, distances[1:]))
    yield "distances", decreasing, " > ".join(f"{d:.2e}" for d in distances)
    yield _within("n=800", distances[-1] / ex.ASYMPTOTIC_COEFFICIENT, 0.01, ".3%")


def _proportions(max_n: int, tally):
    ell = 800 * 799 // 2
    _, nonc_lead, braid_lead = ex.proportions(800)
    off = abs(ex.expected_noncommuting_float(800) / ell - nonc_lead) / nonc_lead
    yield _within("noncommuting share", off, 0.03, ".3%")
    off = abs(1 / (ell - 2) - braid_lead) / braid_lead
    yield _within("braid share", off, 0.01, ".3%")


def _run(name: str, legs) -> CheckResult:
    """Name the first failing leg, else list the legs or count them by a noun."""
    started = time.perf_counter()
    shown = []
    try:
        while True:
            label, ok, text = next(legs)
            if not ok:
                passed, detail = False, f"{label}: {text}"
                break
            shown.append(f"{label}: {text}")
    except StopIteration as done:
        detail = f"{len(shown)} {done.value}" if done.value else "; ".join(shown)
        passed, detail = True, detail or "no n in range"
    return CheckResult(name, passed, detail, time.perf_counter() - started)


_CHECKS = (
    ("commutation mean by enumeration (n 3..6)", _commutation_enumeration),
    ("commutation mean by word-count recursion (n 7..9)", _commutation_dp),
    ("braid mean equals 1 (enumeration 3..6, counts 7..9)", _braid_mean),
    ("word counts match tableau counts (n 3..9)", _counts_vs_hooks),
    ("two-step shapes are corner-deleted staircases (n 3..10)", _shapes),
    ("per-word complement and rotation (n 3..6)", _complement_and_rotation),
    ("sampler uniformity and means", _sampler),
    ("noncommuting mean grows linearly (n 100..800)", _linear_asymptotics),
    ("per-length proportions at n=800", _proportions),
)


def run_all(max_n: int = 6) -> list[CheckResult]:
    """Run every check clamped to degrees <= max_n; asymptotic checks always run."""
    check_int(max_n, MIN_N, MAX_N, "max_n")
    tally = functools.cache(_enumeration_pass)
    return [_run(name, check(max_n, tally)) for name, check in _CHECKS]
