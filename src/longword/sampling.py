"""Exact uniform sampling of reduced words and seeded Monte Carlo estimates.

A word is drawn in two steps, with no counting table.  The hook walk of
Greene, Nijenhuis and Wilf (1979) draws a uniform standard Young
tableau of the staircase shape (n-1, ..., 1): it picks a uniform cell,
jumps to a uniform cell of its hook until it lands on a corner, puts
the largest unused entry there and removes the corner; the corner rows
fix the tableau.  Edelman and Greene (1987) map it to a reduced word of
the longest element by promotion, and show that their insertion gives
the same bijection, up to a transpose.  So the word is read by reverse
insertion: start from the insertion tableau of the longest element,
whose row r holds r+1, ..., n-1; for each corner row i, largest entry
first, take the last entry y off row i and bump it up through rows
i-1, ..., 0, where the largest entry x below y moves up as the next y
and y takes its place unless y is already in the row.  The y leaving
row 0 gives the letter n - y: promotion's word, with about n^3/6 row
searches in place of its n^3/2 slides.  A bijection carries the uniform
tableau to a uniform word.  Every random integer is drawn exactly
uniformly by rejection on getrandbits, as randrange does.

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
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .permutations import check_cap, check_int
from .words import Word, word_stats

# A trial costs about 45-100 ns * n^3 for n >= 10, the most at n = 10
# (2 CPUs), so TRIALS_CAP trials at n <= 10, scaled by (10 / n)^3 above,
# take 1-1.5 minutes at every degree.
TRIALS_CAP = 10**6
# One draw takes about 0.05 s at n = 100, 0.4 s at 200 and 1.3 s at 300 (2 CPUs).
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


def _hook_walk(n: int, rng: random.Random) -> list[int]:
    """Uniform staircase tableau of shape (n-1, ..., 1), as the row of each entry, largest first."""
    getrandbits = rng.getrandbits
    row_len = [n - 1 - i for i in range(n - 1)]
    col_len = list(row_len)
    corners = []
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
        corners.append(i)
        row_len[i] -= 1
        col_len[j] -= 1
    return corners


def _insertion_word(n: int, corners: Sequence[int]) -> Word:
    """Edelman-Greene word of the staircase tableau given by its corner rows.

    Reverse insertion as in the module docstring, on the insertion
    tableau of the longest element, whose row r holds r+1, ..., n-1.
    """
    rows = [list(range(r + 1, n)) for r in range(n - 1)]
    letters = []
    for i in corners:
        y = rows[i].pop()
        while i:
            i -= 1
            row = rows[i]
            p = bisect_left(row, y)
            x = row[p - 1]
            if p == len(row) or row[p] != y:
                row[p - 1] = y
            y = x
        letters.append(n - y)
    return tuple(letters)


def sample_word(n: int, rng: random.Random, session: object = None) -> Word:
    """One reduced word of the longest element, exactly uniform.

    Draws a staircase tableau by the hook walk and maps it to a word by
    reverse Edelman-Greene insertion; cost is O(n^3) with no set-up.  session
    is accepted for compatibility with callers that pass a counting
    session, and ignored.  Refuses n > DEGREE_CAP with ResourceCapError,
    and an rng that is not a random.Random with ValueError, before any work.
    """
    check_cap(check_int(n, 2), DEGREE_CAP, "sampler degree")
    if not isinstance(rng, random.Random):
        raise ValueError(f"rng must be a random.Random, got {rng!r}")
    return _insertion_word(n, _hook_walk(n, rng))


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
