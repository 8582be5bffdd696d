"""Self-verification: recompute every published identity end to end.

Each check recomputes both sides of one identity from scratch through
independent code paths (enumeration vs closed form, word counts vs hook
lengths, samples vs expectations) and reports pass/fail with the first
counterexample.  The CLI `verify` command prints one line per check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expectations import (
    ASYMPTOTIC_COEFFICIENT,
    expected_braids,
    expected_commutations,
    expected_noncommuting,
    expected_noncommuting_float,
)
from .permutations import (
    is_vexillary,
    longest_element,
    shape_of,
    two_step_lowering,
)
from .render import sample_json
from .sampling import monte_carlo, sample_word, trial_generator
from .tableaux import delete_corners, hook_length_count, staircase
from .words import CountingSession, enumerate_words, evaluate, rotate, word_stats

# 99.9% point of the chi-square distribution with 15 degrees of freedom
CHI2_15_Q999 = 37.69729821835383

MIN_N = 3
MAX_N = 10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class _EnumAggregate:
    words: int
    sum_commutations: int
    sum_braids: int
    bad_complement: tuple | None
    bad_rotation: tuple | None


class _Workspace:
    """Shared counting sessions and one-pass enumeration aggregates."""

    def __init__(self):
        self._sessions: dict[int, CountingSession] = {}
        self._aggregates: dict[int, _EnumAggregate] = {}

    def session(self, n: int) -> CountingSession:
        if n not in self._sessions:
            self._sessions[n] = CountingSession(n)
        return self._sessions[n]

    def aggregates(self, n: int) -> _EnumAggregate:
        if n not in self._aggregates:
            w0 = longest_element(n)
            ell = n * (n - 1) // 2
            words = sum_comm = sum_braids = 0
            bad_complement = bad_rotation = None
            for word in enumerate_words(w0, session=self.session(n)):
                stats = word_stats(word)
                words += 1
                sum_comm += stats.commutations
                sum_braids += stats.braids
                if bad_complement is None:
                    if stats.commutations + stats.noncommuting != ell - 1:
                        bad_complement = word
                if bad_rotation is None:
                    if evaluate(n, rotate(n, word)) != w0:
                        bad_rotation = word
            self._aggregates[n] = _EnumAggregate(
                words, sum_comm, sum_braids, bad_complement, bad_rotation
            )
        return self._aggregates[n]


def check_commutation_mean_enumeration(ws: _Workspace, max_n: int) -> CheckResult:
    """Mean commutations over all enumerated words equals the closed form."""
    name = "commutation mean by enumeration (n 3..6)"
    seen = []
    for n in range(MIN_N, min(6, max_n) + 1):
        agg = ws.aggregates(n)
        mean = Fraction(agg.sum_commutations, agg.words)
        expect = expected_commutations(n)
        if mean != expect:
            return CheckResult(
                name, False, f"n={n}: enumeration mean {mean} != closed form {expect}"
            )
        seen.append(f"n={n}: {mean}")
    if not seen:
        return CheckResult(name, True, "no n in range")
    return CheckResult(name, True, "; ".join(seen))


def check_commutation_mean_dp(ws: _Workspace, max_n: int) -> CheckResult:
    """Closed form equals (ell-1)(1 - 2 sum of starting-pair probabilities)."""
    name = "commutation mean by word-count recursion (n 7..9)"
    seen = []
    for n in range(7, min(9, max_n) + 1):
        session = ws.session(n)
        w0 = longest_element(n)
        ell = n * (n - 1) // 2
        start = sum(
            (session.prefix_probability(w0, (j, j + 1)) for j in range(1, n - 1)),
            Fraction(0),
        )
        via_counts = (ell - 1) * (1 - 2 * start)
        expect = expected_commutations(n)
        if via_counts != expect:
            return CheckResult(
                name, False, f"n={n}: recursion gives {via_counts}, closed form {expect}"
            )
        seen.append(f"n={n}: {expect}")
    if not seen:
        return CheckResult(name, True, "no n in range")
    return CheckResult(name, True, "; ".join(seen))


def check_braid_mean(ws: _Workspace, max_n: int) -> CheckResult:
    """Braid-window mean equals 1, by enumeration and by prefix counts."""
    name = "braid mean equals 1 (enumeration 3..6, counts 7..9)"
    one = expected_braids()
    legs = []
    for n in range(MIN_N, min(6, max_n) + 1):
        agg = ws.aggregates(n)
        mean = Fraction(agg.sum_braids, agg.words)
        if mean != one:
            return CheckResult(name, False, f"n={n}: enumeration braid mean {mean}")
        legs.append(f"enum n={n}")
    for n in range(7, min(9, max_n) + 1):
        session = ws.session(n)
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
        if (ell - 2) * window != one:
            return CheckResult(
                name, False, f"n={n}: (ell-2) * window probability = {(ell - 2) * window}"
            )
        legs.append(f"counts n={n}")
    if not legs:
        return CheckResult(name, True, "no n in range")
    return CheckResult(name, True, ", ".join(legs))


def check_word_counts_vs_tableaux(ws: _Workspace, max_n: int) -> CheckResult:
    """Word counts equal standard-filling counts of the matching shapes."""
    name = "word counts match tableau counts (n 3..9)"
    checked = 0
    for n in range(MIN_N, min(9, max_n) + 1):
        session = ws.session(n)
        by_words = session.count(longest_element(n))
        by_hooks = hook_length_count(staircase(n))
        if by_words != by_hooks:
            return CheckResult(
                name, False, f"n={n}: counts {by_words} vs hooks {by_hooks}"
            )
        checked += 1
        if n <= 7:
            for j in range(1, n - 1):
                a = two_step_lowering(n, j)
                by_words = session.count(a)
                by_hooks = hook_length_count(delete_corners(staircase(n), (j, j + 1)))
                if by_words != by_hooks:
                    return CheckResult(
                        name,
                        False,
                        f"n={n}, j={j}: counts {by_words} vs hooks {by_hooks}",
                    )
                checked += 1
    if not checked:
        return CheckResult(name, True, "no n in range")
    return CheckResult(name, True, f"{checked} count pairs agree")


def check_shapes(ws: _Workspace, max_n: int) -> CheckResult:
    """Two-step lowerings are vexillary with corner-deleted staircase shapes."""
    name = "two-step shapes are corner-deleted staircases (n 3..10)"
    checked = 0
    for n in range(MIN_N, min(10, max_n) + 1):
        for j in range(1, n - 1):
            a = two_step_lowering(n, j)
            expect = delete_corners(staircase(n), (j, j + 1))
            if shape_of(a) != expect:
                return CheckResult(
                    name, False, f"n={n}, j={j}: shape {shape_of(a)} vs {expect}"
                )
            if not is_vexillary(a):
                return CheckResult(name, False, f"n={n}, j={j}: not vexillary")
            checked += 1
    return CheckResult(name, True, f"{checked} shapes agree")


def check_complement_and_rotation(ws: _Workspace, max_n: int) -> CheckResult:
    """Every enumerated word splits into ell-1 pairs and rotates validly."""
    name = "per-word complement and rotation (n 3..6)"
    words = 0
    for n in range(MIN_N, min(6, max_n) + 1):
        agg = ws.aggregates(n)
        if agg.bad_complement is not None:
            return CheckResult(
                name, False, f"n={n}: complement fails for {agg.bad_complement}"
            )
        if agg.bad_rotation is not None:
            return CheckResult(
                name, False, f"n={n}: rotation invalid for {agg.bad_rotation}"
            )
        words += agg.words
    if not words:
        return CheckResult(name, True, "no n in range")
    return CheckResult(name, True, f"{words} words checked")


def check_sampler(ws: _Workspace, max_n: int) -> CheckResult:
    """Chi-square uniformity at n=4; sample means near expectations at n=10."""
    name = "sampler uniformity and means"
    legs = []
    if max_n >= 4:
        n, draws, seed = 4, 16000, 2024
        words = list(enumerate_words(longest_element(n), session=ws.session(n)))
        observed = {word: 0 for word in words}
        for index in range(draws):
            observed[sample_word(n, trial_generator(seed, index))] += 1
        expected = draws / len(words)
        chi_square = sum((c - expected) ** 2 / expected for c in observed.values())
        if chi_square >= CHI2_15_Q999:
            return CheckResult(
                name, False, f"chi-square {chi_square:.2f} >= {CHI2_15_Q999}"
            )
        legs.append(f"chi-square(n=4) {chi_square:.2f} < {CHI2_15_Q999}")
    if max_n >= 10:
        summary = monte_carlo(10, 100_000, seed=42)
        target = float(expected_commutations(10))
        err = abs(summary.mean_commutations - target)
        if err > 4 * summary.se_commutations:
            return CheckResult(
                name, False, f"n=10 commutation mean off by {err:.4f} > 4 se"
            )
        err_b = abs(summary.mean_braids - 1.0)
        if err_b > 4 * summary.se_braids:
            return CheckResult(name, False, f"n=10 braid mean off by {err_b:.4f} > 4 se")
        legs.append("n=10 means within 4 se")
    if not legs:
        return CheckResult(name, True, "no n in range")
    return CheckResult(name, True, "; ".join(legs))


def check_linear_asymptotics(ws: _Workspace, max_n: int) -> CheckResult:
    """Noncommuting mean over n approaches 128/(9 pi^2), closing monotonically."""
    name = "noncommuting mean grows linearly (n 100..800)"
    grid = (100, 200, 400, 800)
    distances = [
        abs(expected_noncommuting_float(m) / m - ASYMPTOTIC_COEFFICIENT) for m in grid
    ]
    if not all(a > b for a, b in zip(distances, distances[1:])):
        return CheckResult(name, False, f"distances not decreasing: {distances}")
    relative = distances[-1] / ASYMPTOTIC_COEFFICIENT
    if relative > 0.01:
        return CheckResult(name, False, f"n=800 off by {relative:.3%} > 1%")
    return CheckResult(name, True, f"distances {distances[0]:.2e} .. {distances[-1]:.2e}")


def check_proportions(ws: _Workspace, max_n: int) -> CheckResult:
    """Per-length proportions at n=800 match their leading-order forms."""
    name = "per-length proportions at n=800"
    n = 800
    ell = n * (n - 1) // 2
    nonc_share = expected_noncommuting_float(n) / ell
    nonc_lead = 2 * ASYMPTOTIC_COEFFICIENT / n
    rel_nonc = abs(nonc_share - nonc_lead) / nonc_lead
    if rel_nonc > 0.03:
        return CheckResult(name, False, f"noncommuting share off by {rel_nonc:.3%} > 3%")
    braid_share = 1 / (ell - 2)
    braid_lead = 2 / n**2
    rel_braid = abs(braid_share - braid_lead) / braid_lead
    if rel_braid > 0.01:
        return CheckResult(name, False, f"braid share off by {rel_braid:.3%} > 1%")
    return CheckResult(
        name, True, f"noncommuting off {rel_nonc:.3%}, braid off {rel_braid:.3%}"
    )


def check_worker_independence(ws: _Workspace, max_n: int) -> CheckResult:
    """Identical sample JSON regardless of worker count."""
    name = "sampling is worker-count independent"
    n = min(5, max_n)
    outputs = {
        sample_json(monte_carlo(n, 200, seed=123, workers=w))
        for w in (1, 2, 3)
    }
    if len(outputs) != 1:
        return CheckResult(name, False, f"{len(outputs)} distinct outputs for workers 1..3")
    return CheckResult(name, True, f"workers 1..3 agree at n={n}")


ALL_CHECKS = (
    check_commutation_mean_enumeration,
    check_commutation_mean_dp,
    check_braid_mean,
    check_word_counts_vs_tableaux,
    check_shapes,
    check_complement_and_rotation,
    check_sampler,
    check_linear_asymptotics,
    check_proportions,
    check_worker_independence,
)


def run_all(max_n: int = 6) -> list[CheckResult]:
    """Run every check clamped to degrees <= max_n; asymptotic checks always run."""
    if not MIN_N <= max_n <= MAX_N:
        raise ValueError(f"max_n must lie in [{MIN_N}, {MAX_N}], got {max_n}")
    ws = _Workspace()
    return [check(ws, max_n) for check in ALL_CHECKS]
