"""Exact uniform sampling of reduced words and seeded Monte Carlo estimates.

A word is drawn in two steps, with no counting table.  The hook walk of
Greene, Nijenhuis and Wilf (1979) draws a uniform standard Young
tableau of the staircase shape (n-1, ..., 1): it picks a uniform cell,
jumps to a uniform cell of its hook until it lands on a corner, puts
the largest unused entry there and removes the corner.  The
Edelman-Greene bijection (1987) then reads a reduced word of the
longest element off that tableau by promotion: the corner holding the
largest entry gives the next letter (its row, 1-based), the entry is
removed, the hole slides back to the top-left cell by jeu de taquin,
and a new smallest entry fills that cell.  A bijection carries the
uniform tableau to a uniform word.  Every random integer is drawn
exactly uniformly by rejection on getrandbits, as randrange does.

Per-trial generators are derived by hashing (seed, trial index) with
SHA-256 and seeding a Mersenne Twister with the 256-bit digest, so trial
i of a seeded run draws the same word however the run is batched, and
the summary is built from exact integer totals.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .permutations import check_cap, check_int
from .words import Word, word_stats

# A draw costs about 75-130 ns * n^3 for n >= 10 (2 CPUs), so TRIALS_CAP
# draws at n <= 10, scaled by (10 / n)^3 above, are about two minutes.
TRIALS_CAP = 10**6
# One draw takes about 0.1 s at n = 100, 1 s at 200 and 4 s at 300 (2 CPUs).
DEGREE_CAP = 300


def trial_generator(seed: int, index: int) -> random.Random:
    """Deterministic generator for one trial of one seeded run.

    seed must be an int in [-2**63, 2**63) and index one in [0, 2**64), else ValueError.
    """
    if not (type(seed) is type(index) is int and -(2**63) <= seed < 2**63 and 0 <= index < 2**64):
        check_int(seed, -(2**63), 2**63 - 1, "seed")  # name the argument at fault
        check_int(index, 0, 2**64 - 1, "index")
    key = hashlib.sha256(struct.pack("<qQ", seed, index)).digest()
    return random.Random(int.from_bytes(key, "big"))


def _hook_walk(n: int, rng: random.Random) -> list[list[int]]:
    """Uniform standard Young tableau of shape (n-1, ..., 1), as rows."""
    getrandbits = rng.getrandbits
    rows = [[0] * (n - 1 - i) for i in range(n - 1)]
    row_len = [n - 1 - i for i in range(n - 1)]
    col_len = list(row_len)
    for m in range(n * (n - 1) // 2, 0, -1):
        # a uniform cell of the remaining shape, found by a row scan
        k = m.bit_length()
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        i = 0
        while r >= row_len[i]:
            r -= row_len[i]
            i += 1
        j = r
        # uniform steps within the hook until the walk stops at a corner
        while True:
            arm = row_len[i] - j - 1
            hook = arm + col_len[j] - i - 1
            if not hook:
                break
            k = hook.bit_length()
            r = getrandbits(k)
            while r >= hook:
                r = getrandbits(k)
            if r < arm:
                j += r + 1
            else:
                i += r - arm + 1
        rows[i][j] = m
        row_len[i] -= 1
        col_len[j] -= 1
    return rows


def _promotion_word(rows: Sequence[Sequence[int]]) -> Word:
    """Edelman-Greene word of a standard staircase tableau given as rows.

    Promotion as in the module docstring.  New entries are smaller than
    every original one, so the originals leave in decreasing order and
    tracking their positions replaces a search of the corners.

    Entries are stored shifted up by the tableau's size, leaving the
    values 1..size free for the new smallest entries and 0 for the
    sentinels on a padding row above and column to the left; cell
    (i, j) sits at index (i + 1) * n + j + 1, so the slide needs no
    bounds checks.
    """
    n = len(rows) + 1
    size = n * (n - 1) // 2
    grid = [0] * (n * n)
    pos = [0] * (2 * size + 1)
    for i, row in enumerate(rows):
        p = (i + 1) * n + 1
        for v in row:
            grid[p] = v + size
            pos[v + size] = p
            p += 1
    origin = n + 1
    letters = []
    for v in range(2 * size, size, -1):
        p = pos[v]
        letters.append(p // n)
        while p != origin:
            up = grid[p - n]
            left = grid[p - 1]
            if up > left:
                grid[p] = up
                pos[up] = p
                p -= n
            else:
                grid[p] = left
                pos[left] = p
                p -= 1
        grid[origin] = v - size
    return tuple(letters)


def sample_word(n: int, rng: random.Random, session: object = None) -> Word:
    """One reduced word of the longest element, exactly uniform.

    Draws a staircase tableau by the hook walk and maps it to a word by
    Edelman-Greene promotion; cost is O(n^3) with no set-up.  session
    is accepted for compatibility with callers that pass a counting
    session, and ignored.  Refuses n > DEGREE_CAP with ResourceCapError,
    and an rng that is not a random.Random with ValueError, before any work.
    """
    check_cap(check_int(n, 2), DEGREE_CAP, "sampler degree")
    if not isinstance(rng, random.Random):
        raise ValueError(f"rng must be a random.Random, got {rng!r}")
    return _promotion_word(_hook_walk(n, rng))


@dataclass(frozen=True)
class SampleSummary:
    """Aggregated Monte Carlo estimates for one (n, trials, seed) run.

    Totals are exact integers; means and standard errors are derived
    from them at the end.  Standard errors use the unbiased sample
    variance and are NaN when trials == 1.
    """

    n: int
    trials: int
    seed: int
    word_length: int
    mean_commutations: float
    se_commutations: float
    mean_noncommuting: float
    se_noncommuting: float
    mean_braids: float
    se_braids: float
    total_commutations: int
    total_noncommuting: int
    total_braids: int

    def __post_init__(self):
        expected = self.trials * (self.word_length - 1)
        if self.total_commutations + self.total_noncommuting != expected:
            raise ValueError(
                f"totals {self.total_commutations} + {self.total_noncommuting} "
                f"do not sum to trials * (length - 1) = {expected}"
            )


def _mean_and_se(total: int, total_sq: int, trials: int) -> tuple[float, float]:
    mean = float(Fraction(total, trials))
    if trials < 2:
        return mean, math.nan
    variance = Fraction(trials * total_sq - total * total, trials * (trials - 1))
    return mean, math.sqrt(float(variance) / trials)


def monte_carlo(
    n: int,
    trials: int,
    seed: int,
    workers: int = 1,
    session: object = None,
) -> SampleSummary:
    """Draw `trials` words and summarize the three statistics.

    Bit-identical output for fixed (n, trials, seed): trials are
    indexed, generators are derived per index, and totals are exact
    integers.  The draws are pure Python, so threads would not run them
    faster; workers (an int of at least 1) and session are accepted for
    compatibility and ignored.  A draw costs O(n^3), so trials above
    TRIALS_CAP * (10 / max(n, 10))^3 (37 at n = 300) are refused with
    ResourceCapError before any draw; the first trial refuses n > DEGREE_CAP
    the same way, and a seed that is not an int64 with ValueError, as it
    does a degree below 2, trials or workers below 1, or any not an int.
    """
    check_int(n, 2)
    check_int(trials, name="trials")
    check_cap(trials, TRIALS_CAP * 10**3 // max(n, 10) ** 3, f"at degree {n}, trials")
    check_int(workers, name="workers")
    sc = snc = sb = sc2 = snc2 = sb2 = 0
    for index in range(trials):
        stats = word_stats(sample_word(n, trial_generator(seed, index)))
        sc += stats.commutations
        snc += stats.noncommuting
        sb += stats.braids
        sc2 += stats.commutations**2
        snc2 += stats.noncommuting**2
        sb2 += stats.braids**2
    mean_c, se_c = _mean_and_se(sc, sc2, trials)
    mean_n, se_n = _mean_and_se(snc, snc2, trials)
    mean_b, se_b = _mean_and_se(sb, sb2, trials)
    return SampleSummary(
        n=n,
        trials=trials,
        seed=seed,
        word_length=n * (n - 1) // 2,
        mean_commutations=mean_c,
        se_commutations=se_c,
        mean_noncommuting=mean_n,
        se_noncommuting=se_n,
        mean_braids=mean_b,
        se_braids=se_b,
        total_commutations=sc,
        total_noncommuting=snc,
        total_braids=sb,
    )
