"""Acceptance gate: one test per published criterion, at stated tolerance.

Each test prints one summary line; `pytest -v` therefore shows one
pass/fail line per criterion.  Exact claims are checked with rational
arithmetic and zero tolerance.  The sampler checks run a fixed seed, so
they are deterministic here; over re-seeded runs the chi-square bound
would fail with probability 0.1% by construction (budget documented).
"""

import json
import time
from fractions import Fraction

from longword.cli import main
from longword.expectations import (
    ASYMPTOTIC_COEFFICIENT,
    expected_commutations,
    expected_noncommuting_float,
)
from longword.permutations import (
    is_vexillary,
    longest_element,
    shape_of,
    two_step_lowering,
)
from longword.sampling import monte_carlo, sample_word, trial_generator
from longword.tableaux import delete_corners, hook_length_count, staircase
from longword.verify import CHI2_15_Q999
from longword.words import evaluate, rotate, word_stats

EXACT_MEANS = {3: Fraction(0), 4: Fraction(5, 4), 5: Fraction(231, 64)}


def test_c01_enumeration_reproduces_exact_commutation_means(words_of_longest):
    """Criterion 1: enumerated means equal the closed form, n=3..6, <1 min."""
    started = time.perf_counter()
    for n in range(3, 7):
        words = words_of_longest(n)
        mean = Fraction(sum(word_stats(w).commutations for w in words), len(words))
        assert mean == expected_commutations(n), n
        if n in EXACT_MEANS:
            assert mean == EXACT_MEANS[n], n
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    print(f"criterion 1 PASS: enumeration means match exactly ({elapsed:.1f}s)")


def test_c02_word_count_recursion_reproduces_closed_form(sessions):
    """Criterion 2: closed form equals the prefix-probability identity, n=7..9, <5 min."""
    started = time.perf_counter()
    for n in range(7, 10):
        session = sessions(n)
        w0 = longest_element(n)
        ell = n * (n - 1) // 2
        start_sum = sum(
            (session.prefix_probability(w0, (j, j + 1)) for j in range(1, n - 1)),
            Fraction(0),
        )
        assert expected_commutations(n) == (ell - 1) * (1 - 2 * start_sum), n
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    print(f"criterion 2 PASS: recursion identity exact for n=7..9 ({elapsed:.1f}s)")


def test_c03_braid_mean_is_exactly_one(sessions, words_of_longest):
    """Criterion 3: braid mean 1 by enumeration (3..6) and prefix counts (7..9)."""
    for n in range(3, 7):
        words = words_of_longest(n)
        assert Fraction(sum(word_stats(w).braids for w in words), len(words)) == 1, n
    for n in range(7, 10):
        session = sessions(n)
        w0 = longest_element(n)
        ell = n * (n - 1) // 2
        window = sum(
            (
                session.prefix_probability(w0, (j, j + 1, j))
                + session.prefix_probability(w0, (j + 1, j, j + 1))
                for j in range(1, n - 1)
            ),
            Fraction(0),
        )
        assert (ell - 2) * window == 1, n
    print("criterion 3 PASS: braid mean exactly 1 for n=3..9")


def test_c04_word_counts_equal_tableau_counts(sessions):
    """Criterion 4: word counts equal hook-length counts for the matching shapes."""
    for n in range(3, 10):
        assert sessions(n).count(longest_element(n)) == hook_length_count(staircase(n)), n
    for n in range(3, 8):
        for j in range(1, n - 1):
            assert sessions(n).count(two_step_lowering(n, j)) == hook_length_count(
                delete_corners(staircase(n), (j, j + 1))
            ), (n, j)
    print("criterion 4 PASS: counts agree for staircases (3..9) and deletions (3..7)")


def test_c05_two_step_shapes_are_corner_deleted_staircases():
    """Criterion 5: shape and vexillarity of every two-step lowering, n=3..10."""
    for n in range(3, 11):
        for j in range(1, n - 1):
            a = two_step_lowering(n, j)
            assert shape_of(a) == delete_corners(staircase(n), (j, j + 1)), (n, j)
            assert is_vexillary(a), (n, j)
    print("criterion 5 PASS: 36 shapes match with vexillarity, n=3..10")


def test_c06_complement_identity_and_rotation_per_word(words_of_longest):
    """Criterion 6: every enumerated word splits into ell-1 pairs and rotates validly."""
    total = 0
    for n in range(3, 7):
        w0 = longest_element(n)
        ell = n * (n - 1) // 2
        for word in words_of_longest(n):
            stats = word_stats(word)
            assert stats.commutations + stats.noncommuting == ell - 1, (n, word)
            assert evaluate(n, rotate(n, word)) == w0, (n, word)
            total += 1
    assert total == 2 + 16 + 768 + 292864
    print(f"criterion 6 PASS: complement and rotation hold for {total} words")


def test_c07_sampler_uniformity_and_means(words_of_longest):
    """Criterion 7: chi-square at n=4 under the 99.9% quantile; n=10 means in 4 se; <2 min."""
    started = time.perf_counter()
    observed = {word: 0 for word in words_of_longest(4)}
    for index in range(16000):
        observed[sample_word(4, trial_generator(2024, index))] += 1
    chi_square = sum((count - 1000) ** 2 / 1000 for count in observed.values())
    assert chi_square < CHI2_15_Q999, chi_square

    summary = monte_carlo(10, 100_000, seed=42)
    target = float(expected_commutations(10))
    assert abs(summary.mean_commutations - target) <= 4 * summary.se_commutations
    assert abs(summary.mean_braids - 1.0) <= 4 * summary.se_braids
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    print(
        f"criterion 7 PASS: chi-square {chi_square:.2f} < {CHI2_15_Q999:.2f}, "
        f"n=10 means within 4 se ({elapsed:.1f}s)"
    )


def test_c08_noncommuting_mean_approaches_linear_growth():
    """Criterion 8: distance of mean/n to 128/(9 pi^2) shrinks over 100..800, <1% at 800."""
    grid = (100, 200, 400, 800)
    distances = [
        abs(expected_noncommuting_float(n) / n - ASYMPTOTIC_COEFFICIENT) for n in grid
    ]
    assert all(a > b for a, b in zip(distances, distances[1:])), distances
    relative = distances[-1] / ASYMPTOTIC_COEFFICIENT
    assert relative < 0.01, relative
    print(
        "criterion 8 PASS: distances "
        + " > ".join(f"{d:.2e}" for d in distances)
        + f", n=800 off by {relative:.3%}"
    )


def test_c09_proportions_at_degree_800():
    """Criterion 9: per-length shares match leading-order forms at n=800."""
    n = 800
    ell = n * (n - 1) // 2
    nonc_share = expected_noncommuting_float(n) / ell
    nonc_lead = 256 / (9 * 3.141592653589793**2 * n)
    rel_nonc = abs(nonc_share - nonc_lead) / nonc_lead
    assert rel_nonc < 0.03, rel_nonc
    braid_share = 1 / (ell - 2)
    braid_lead = 2 / n**2
    rel_braid = abs(braid_share - braid_lead) / braid_lead
    assert rel_braid < 0.01, rel_braid
    print(
        f"criterion 9 PASS: noncommuting share off {rel_nonc:.3%} (<3%), "
        f"braid share off {rel_braid:.3%} (<1%)"
    )


def test_c10_sample_output_is_job_count_invariant(capsys):
    """Criterion 10: `sample` emits byte-identical JSON for any --jobs value."""
    outputs = []
    for jobs in ("1", "2", "4"):
        code = main(
            ["sample", "--n", "5", "--trials", "300", "--seed", "99", "--jobs", jobs]
        )
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0])["trials"] == 300
    print("criterion 10 PASS: byte-identical JSON across --jobs 1, 2, 4")
