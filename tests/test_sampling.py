import hashlib
import math
import time

import pytest

from longword.expectations import (
    expected_braids,
    expected_commutations,
    expected_noncommuting,
    proportions,
)
from longword.permutations import longest_element
from longword.render import sample_json
from longword.sampling import (
    DEGREE_CAP,
    TRIALS_CAP,
    SampleSummary,
    _hook_walk,
    _insertion_word,
    monte_carlo,
    sample_word,
    trial_generator,
)
from longword.tableaux import hook_length_count, staircase
from longword.words import ResourceCapError, evaluate, word_stats


def test_trial_generator_is_deterministic():
    a = trial_generator(42, 7)
    b = trial_generator(42, 7)
    assert [a.randrange(1000) for _ in range(5)] == [
        b.randrange(1000) for _ in range(5)
    ]


def test_trial_generator_separates_trials():
    draws = {
        (seed, index): trial_generator(seed, index).randrange(2**40)
        for seed in (0, 1, -5)
        for index in (0, 1, 2)
    }
    assert len(set(draws.values())) == len(draws)


def test_sample_word_degree_three():
    seen = set()
    for index in range(60):
        word = sample_word(3, trial_generator(0, index))
        assert word in {(1, 2, 1), (2, 1, 2)}
        seen.add(word)
    assert seen == {(1, 2, 1), (2, 1, 2)}


def test_sample_word_degree_two():
    assert sample_word(2, trial_generator(0, 0)) == (1,)
    with pytest.raises(ValueError):
        sample_word(1, trial_generator(0, 0))


def test_sampled_words_are_valid():
    n = 5
    w0 = longest_element(n)
    ell = n * (n - 1) // 2
    for index in range(50):
        word = sample_word(n, trial_generator(3, index))
        assert evaluate(n, word) == w0
        stats = word_stats(word)
        assert stats.commutations + stats.noncommuting == ell - 1


def test_sample_word_frequency_degree_three():
    draws = 4000
    hits = sum(
        sample_word(3, trial_generator(17, index)) == (1, 2, 1)
        for index in range(draws)
    )
    # binomial(4000, 1/2): four standard deviations is ~126
    assert abs(hits - draws / 2) <= 4 * math.sqrt(draws / 4)


def test_monte_carlo_degree_three_braids():
    summary = monte_carlo(3, 250, seed=5)
    assert summary.mean_braids == 1.0
    assert summary.se_braids == 0.0
    assert summary.mean_commutations == 0.0
    assert summary.mean_noncommuting == 2.0
    assert summary.word_length == 3


def test_monte_carlo_totals_are_exact():
    n, trials = 4, 300
    summary = monte_carlo(n, trials, seed=8)
    ell = n * (n - 1) // 2
    assert summary.total_commutations + summary.total_noncommuting == trials * (ell - 1)
    assert summary.mean_commutations == summary.total_commutations / trials
    assert summary.trials == trials and summary.seed == 8


def test_monte_carlo_single_trial_has_nan_errors():
    summary = monte_carlo(4, 1, seed=0)
    assert math.isnan(summary.se_commutations)
    assert math.isnan(summary.se_noncommuting)
    assert math.isnan(summary.se_braids)


def test_monte_carlo_rejects_bad_arguments():
    with pytest.raises(ValueError):
        monte_carlo(4, 0, seed=0)
    with pytest.raises(ValueError):
        monte_carlo(4, 10, seed=0, workers=0)
    for seed in (2**63, -(2**63) - 1):
        with pytest.raises(ValueError):
            monte_carlo(4, 3, seed)
    for seed, index in ((0, -1), (0, 2**64), (2**63, 0)):
        with pytest.raises(ValueError):
            trial_generator(seed, index)
    start = time.perf_counter()
    with pytest.raises(ResourceCapError):
        monte_carlo(10, TRIALS_CAP + 1, seed=0)
    with pytest.raises(ResourceCapError):
        monte_carlo(300, 10**6, seed=0)
    with pytest.raises(ResourceCapError):
        monte_carlo(100, 1001, seed=0)
    assert time.perf_counter() - start < 1


def test_monte_carlo_worker_counts_agree():
    summaries = [monte_carlo(4, 120, seed=21, workers=w) for w in (1, 2, 5, 7)]
    assert all(s == summaries[0] for s in summaries[1:])
    assert len({sample_json(s) for s in summaries}) == 1


def test_monte_carlo_matches_per_index_derivation():
    """Trial k of any run is exactly sample_word(trial_generator(seed, k))."""
    n, trials, seed = 4, 40, 33
    summary = monte_carlo(n, trials, seed, workers=3)
    total = sum(
        word_stats(sample_word(n, trial_generator(seed, k))).braids
        for k in range(trials)
    )
    assert summary.total_braids == total


def test_monte_carlo_consistency_over_growing_trials():
    """Fixed seed; errors stay inside 4 se and shrink from first to last."""
    n, seed = 5, 11
    target = float(expected_commutations(n))
    errors = []
    for trials in (400, 1600, 6400):
        summary = monte_carlo(n, trials, seed)
        err = abs(summary.mean_commutations - target)
        assert err <= 4 * summary.se_commutations, trials
        errors.append(err)
    assert errors[-1] < errors[0]


def test_sample_summary_validates_totals():
    with pytest.raises(ValueError):
        SampleSummary(
            n=3,
            trials=2,
            seed=0,
            word_length=3,
            mean_commutations=0.0,
            se_commutations=0.0,
            mean_noncommuting=2.0,
            se_noncommuting=0.0,
            mean_braids=1.0,
            se_braids=0.0,
            total_commutations=1,
            total_noncommuting=2,
            total_braids=2,
        )


def test_chi_square_threshold_matches_distribution_quantile():
    stats = pytest.importorskip("scipy.stats")
    from longword.verify import CHI2_15_Q999

    assert CHI2_15_Q999 == pytest.approx(stats.chi2.ppf(0.999, 15), abs=1e-9)


def staircase_tableaux(n):
    """Every standard Young tableau of shape (n-1, ..., 1), as row tuples."""
    shape = list(staircase(n))
    rows = [[0] * length for length in shape]
    found = []

    def place(m):
        if m == 0:
            found.append(tuple(map(tuple, rows)))
            return
        for i, length in enumerate(shape):
            below = shape[i + 1] if i + 1 < len(shape) else 0
            if length > below:
                shape[i] -= 1
                rows[i][shape[i]] = m
                place(m - 1)
                shape[i] += 1

    place(sum(shape))
    return found


def promotion_word(rows):
    """Reference Edelman-Greene word of a staircase tableau, by promotion.

    The corner holding the largest original entry gives the next letter
    (its row, 1-based); the entry is removed, the hole slides to the
    top-left cell by jeu de taquin and a new smallest entry fills it.
    Originals are stored shifted up by the size, so new entries stay
    below them; cell (i, j) sits at (i + 1) * n + j + 1 of a grid whose
    zero padding row and column stop the slide.
    """
    n = len(rows) + 1
    size = n * (n - 1) // 2
    grid = [0] * (n * n)
    pos = [0] * (2 * size + 1)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            grid[(i + 1) * n + j + 1] = v + size
            pos[v + size] = (i + 1) * n + j + 1
    origin = n + 1
    letters = []
    for v in range(2 * size, size, -1):
        p = pos[v]
        letters.append(p // n)
        while p != origin:
            step = n if grid[p - n] > grid[p - 1] else 1
            grid[p] = grid[p - step]
            pos[grid[p]] = p
            p -= step
        grid[origin] = v - size
    return tuple(letters)


def corner_rows(rows):
    """The row of each entry of a tableau, largest entry first."""
    row_of = {v: i for i, row in enumerate(rows) for v in row}
    return [row_of[m] for m in range(len(row_of), 0, -1)]


def tableau_of(n, corners):
    """The staircase tableau whose entry m ends row corners[size - m]."""
    rows = [[] for _ in range(n - 1)]
    for m, i in enumerate(reversed(corners), 1):
        rows[i].append(m)
    return rows


@pytest.mark.parametrize("n", [3, 4, 5])
def test_promotion_word_is_a_bijection_onto_reduced_words(n, words_of_longest):
    tableaux = staircase_tableaux(n)
    assert len(tableaux) == hook_length_count(staircase(n))
    words = [_insertion_word(n, corner_rows(rows)) for rows in tableaux]
    assert len(set(words)) == len(words)
    assert set(words) == set(words_of_longest(n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_insertion_word_equals_promotion_on_every_tableau(n):
    for rows in staircase_tableaux(n):
        assert _insertion_word(n, corner_rows(rows)) == promotion_word(rows), rows


@pytest.mark.parametrize("n, draws", [*((n, 40) for n in range(6, 13)), (30, 4)])
def test_insertion_word_equals_promotion_on_seeded_draws(n, draws):
    for index in range(draws):
        corners = _hook_walk(n, trial_generator(n, index))
        assert _insertion_word(n, corners) == promotion_word(tableau_of(n, corners))


def test_drawn_words_are_pinned():
    """Digest of the words drawn for seed n, index i; fixed since the hook walk."""
    digest = hashlib.sha256()
    for n, draws in [*((n, 40) for n in range(2, 13)), (30, 10), (100, 2)]:
        for index in range(draws):
            digest.update(bytes(sample_word(n, trial_generator(n, index))))
    assert digest.hexdigest() == (
        "ed0e24c14daf9a480b373fe3b449ef2362e50e718a6cbad35a0b68ed08bb0377"
    )


def test_hook_walk_draws_standard_staircase_tableaux():
    for n in range(2, 9):
        size = n * (n - 1) // 2
        for index in range(20):
            corners = _hook_walk(n, trial_generator(n, index))
            assert len(corners) == size
            rows = tableau_of(n, corners)
            assert [len(row) for row in rows] == list(staircase(n))
            assert sorted(v for row in rows for v in row) == list(range(1, size + 1))
            for i, row in enumerate(rows):
                assert all(a < b for a, b in zip(row, row[1:]))
                if i:
                    assert all(rows[i - 1][j] < v for j, v in enumerate(row))


def test_oversized_degree_is_refused_up_front():
    assert DEGREE_CAP >= 30
    started = time.perf_counter()
    with pytest.raises(ResourceCapError):
        sample_word(10**5, trial_generator(0, 0))
    with pytest.raises(ResourceCapError):
        monte_carlo(10**5, 10, seed=0)
    with pytest.raises(ResourceCapError):
        sample_word(DEGREE_CAP + 1, trial_generator(0, 0))
    assert time.perf_counter() - started < 1


def test_sample_word_degree_thirty():
    assert evaluate(30, sample_word(30, trial_generator(30, 0))) == longest_element(30)


@pytest.mark.parametrize("n, trials", [(12, 2000), (30, 200), (45, 80), (60, 40)])
def test_monte_carlo_means_beyond_the_tables(n, trials):
    """Seeded means within 4 se of the closed form and of braid mean 1."""
    summary = monte_carlo(n, trials, seed=n)
    err = abs(summary.mean_commutations - float(expected_commutations(n)))
    assert err <= 4 * summary.se_commutations
    err = abs(summary.mean_braids - float(expected_braids()))
    assert err <= 4 * summary.se_braids


def test_noncommuting_share_tracks_leading_order_at_degree_hundred():
    """Sampled share vs 256/(9 pi^2 n): 4 se plus the exact O(1/n) gap."""
    n = 100
    ell = n * (n - 1) // 2
    summary = monte_carlo(n, 20, seed=n)
    lead = proportions(n)[1]
    gap = abs(float(expected_noncommuting(n)) / ell - lead)
    err = abs(summary.mean_noncommuting / ell - lead)
    assert err <= 4 * summary.se_noncommuting / ell + gap
