"""The three workloads: seeded inputs, the timed phase, and answer checks.

Every workload is a fixed list of calls into longword's public API whose
inputs come from the benchmark seed.  ``solve`` is the timed phase; it
returns the answers, which ``check`` compares with a route independent
of the one that produced them.  A run repeats ``solve`` on the same
inputs, so the first round is checked against the independent routes
and each later round must repeat the first round's answers exactly.

Seeded degrees are drawn from fixed, narrow strata, so the cost of a
round is about the same under every seed.  No module of longword is
imported at module level: the set-up measurement times that import.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from tracing import Tracer

ASYMPTOTE = 128 / (9 * math.pi**2)
# expected_noncommuting_float(n) - ASYMPTOTE * n is about -0.72 for n >= 1e3;
# any error in the log-space path larger than this shows as a miss.
ASYMPTOTE_GAP = 1.0
MC_SEED_MASK = 2**63 - 1


@dataclass(frozen=True)
class Sizes:
    sample_n: int
    sample_trials: int
    fill_degrees: tuple[int, ...]
    enum_n: int
    pair_queries: int
    prefix_walks: int
    lowering_queries: int
    sweep_to: int
    sweep_rows_checked: int
    exact_strata: tuple[tuple[int, int], ...]
    float_strata: tuple[tuple[int, int], ...]
    # sizes of the traced run's layer probes
    probe_trials: int
    probe_calls: int
    fill_repeats: int
    exact_probe: tuple[int, int]
    float_probe: int


FULL = Sizes(
    sample_n=9,
    sample_trials=20_000,
    fill_degrees=(7, 8, 9),
    enum_n=6,
    pair_queries=48,
    prefix_walks=128,
    lowering_queries=32,
    sweep_to=160,
    sweep_rows_checked=8,
    exact_strata=((301, 320), (641, 660), (981, 1000)),
    float_strata=((100_000, 110_000), (490_000, 500_000)),
    probe_trials=5_000,
    probe_calls=2_000,
    fill_repeats=5,
    exact_probe=(300, 1000),
    float_probe=10**6,
)

# Tiny sizes for the smoke mode: the same calls and metric names, in seconds.
SMOKE = Sizes(
    sample_n=6,
    sample_trials=300,
    fill_degrees=(5, 6, 7),
    enum_n=5,
    pair_queries=8,
    prefix_walks=16,
    lowering_queries=4,
    sweep_to=40,
    sweep_rows_checked=4,
    exact_strata=((41, 50), (91, 100)),
    float_strata=((1_000, 1_100), (5_000, 5_100)),
    probe_trials=200,
    probe_calls=100,
    fill_repeats=2,
    exact_probe=(30, 60),
    float_probe=10**4,
)


class Checker:
    """Counts answers checked and answers that failed their check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def is_reduced_word_of_w0(n: int, word) -> bool:
    """True when word is a reduced word of the reversal of degree n."""
    w = list(range(1, n + 1))
    if len(word) != n * (n - 1) // 2:
        return False
    for i in word:
        if not 1 <= i <= n - 1 or w[i - 1] > w[i]:
            return False
        w[i - 1], w[i] = w[i], w[i - 1]
    return w == list(range(n, 0, -1))


def random_prefix(n: int, rng: random.Random) -> tuple[int, ...]:
    """A uniform-step walk down from the reversal: a valid reduced prefix.

    Letter p may come next when p + 1 stands left of p; the walk stops
    before the identity, so every prefix has a next letter.
    """
    ell = n * (n - 1) // 2
    w = list(range(n, 0, -1))
    prefix = []
    for _ in range(rng.randint(1, ell - 1)):
        pos = {v: k for k, v in enumerate(w)}
        p = rng.choice([p for p in range(1, n) if pos[p] > pos[p + 1]])
        w[pos[p]], w[pos[p + 1]] = p + 1, p
        prefix.append(p)
    return tuple(prefix)


class Sample:
    """Seeded monte_carlo(9, workers=2), as `longword sample --n 9 --jobs 2` runs it.

    The only workload that runs the sampler, its table fill and its
    thread pool.
    """

    name = "sample"

    @staticmethod
    def first_call(sz: Sizes, seed: int):
        from longword import sample_word, trial_generator

        return sample_word(sz.sample_n, trial_generator(seed & MC_SEED_MASK, 0))

    @staticmethod
    def check_first(sz: Sizes, word, check: Checker) -> None:
        check(is_reduced_word_of_w0(sz.sample_n, word), f"cold draw {word}")

    @staticmethod
    def prepare(sz: Sizes, seed: int) -> dict:
        return {"seed": seed & MC_SEED_MASK}

    @staticmethod
    def solve(sz: Sizes, inputs: dict, tr: Tracer):
        from longword import monte_carlo

        with tr.span("sampling.monte_carlo", draws=sz.sample_trials):
            return monte_carlo(sz.sample_n, sz.sample_trials, inputs["seed"], workers=2)

    @staticmethod
    def check(sz: Sizes, inputs: dict, summary, check: Checker, tr: Tracer) -> None:
        from longword import expected_braids, expected_commutations, expected_noncommuting

        n = sz.sample_n
        for label, mean, se, exact in (
            ("commutations", summary.mean_commutations, summary.se_commutations,
             expected_commutations(n)),
            ("noncommuting", summary.mean_noncommuting, summary.se_noncommuting,
             expected_noncommuting(n)),
            ("braids", summary.mean_braids, summary.se_braids, expected_braids()),
        ):
            check(
                abs(mean - float(exact)) <= 4 * se,
                f"{label} mean {mean} is more than 4 se ({se}) from {exact}",
            )


class ExactCounts:
    """Cold table fills, dp and enumeration reports, seeded prefix queries.

    Writes the counting table where `sample` reads it, and never runs the
    sampler, so a sampler change should leave it unchanged.
    """

    name = "exact-counts"

    @staticmethod
    def first_call(sz: Sizes, seed: int):
        from longword import CountingSession, longest_element

        n = sz.fill_degrees[0]
        return CountingSession(n).count(longest_element(n))

    @staticmethod
    def check_first(sz: Sizes, count, check: Checker) -> None:
        from longword import hook_length_count, staircase

        n = sz.fill_degrees[0]
        check(count == hook_length_count(staircase(n)), f"count {count} at n={n}")

    @staticmethod
    def prepare(sz: Sizes, seed: int) -> dict:
        rng = random.Random(f"exact-counts:{seed}")
        n = sz.fill_degrees[-1]
        pairs = [rng.randint(1, n - 2) for _ in range(sz.pair_queries)]
        walks = [random_prefix(n, rng) for _ in range(sz.prefix_walks)]
        queries = [(j, j + 1) for j in pairs]
        for walk in walks:
            queries.append(walk)
            queries.extend(walk + (i,) for i in range(1, n))
        lowerings = [rng.randint(1, n - 2) for _ in range(sz.lowering_queries)]
        return {"pairs": pairs, "walks": walks, "queries": queries, "lowerings": lowerings}

    @staticmethod
    def solve(sz: Sizes, inputs: dict, tr: Tracer):
        from longword import (
            CountingSession,
            expectation_report,
            longest_element,
            two_step_lowering,
        )

        fills = {}
        for n in sz.fill_degrees:
            session = CountingSession(n)
            with tr.span("words.fill", n=n) as counts:
                fills[n] = session.count(longest_element(n))
                counts["entries"] = session.entries
        table = session  # the largest degree's table, warm for the queries
        reports = {}
        for n in sz.fill_degrees:
            with tr.span("expectations.report_dp", n=n):
                reports[n] = expectation_report(n, "dp")
        with tr.span("expectations.report_enumeration", n=sz.enum_n):
            enumerated = expectation_report(sz.enum_n, "enumeration")
        n = sz.fill_degrees[-1]
        w0 = longest_element(n)
        probabilities = [
            tr.call("words.prefix_probability", table.prefix_probability, w0, q)
            for q in inputs["queries"]
        ]
        lowered = [
            tr.call("words.count", table.count, two_step_lowering(n, j))
            for j in inputs["lowerings"]
        ]
        return fills, reports, enumerated, probabilities, lowered

    @staticmethod
    def check(sz: Sizes, inputs: dict, answers, check: Checker, tr: Tracer) -> None:
        from longword import (
            delete_corners,
            expected_commutations,
            hook_length_count,
            staircase,
            tableau_ratio,
        )

        fills, reports, enumerated, probabilities, lowered = answers
        for n, count in fills.items():
            by_hooks = tr.call("tableaux.hook_length_count", hook_length_count, staircase(n))
            check(count == by_hooks, f"table count {count} at n={n}, hooks {by_hooks}")
        for report in [*reports.values(), enumerated]:
            exact = expected_commutations(report.n)
            check(
                report.e_commutations == exact,
                f"{report.method} mean {report.e_commutations} at n={report.n}, closed {exact}",
            )
        n = sz.fill_degrees[-1]
        answers_by_query = iter(probabilities)
        for j in inputs["pairs"]:
            p = next(answers_by_query)
            ratio = tr.call("tableaux.tableau_ratio", tableau_ratio, n, j)
            check(p == ratio, f"P({j},{j + 1}) = {p}, tableau ratio {ratio}")
        for walk in inputs["walks"]:
            p = next(answers_by_query)
            following = sum((next(answers_by_query) for _ in range(1, n)), Fraction(0))
            check(0 < p == following, f"P{walk} = {p}, sum over next letter {following}")
        for j, count in zip(inputs["lowerings"], lowered):
            shape = delete_corners(staircase(n), (j, j + 1))
            by_hooks = tr.call("tableaux.hook_length_count", hook_length_count, shape)
            check(count == by_hooks, f"lowering j={j}: {count} words, hooks {by_hooks}")


class ClosedForm:
    """A `longword table` sweep, then isolated exact and float degrees.

    Consecutive degrees of the sweep could share work and the isolated
    degrees share none, so caching gains and per-degree gains both show.
    Bypasses the word-count table and the sampler.
    """

    name = "closed-form"

    @staticmethod
    def first_call(sz: Sizes, seed: int):
        from longword import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["table", "--from", "3", "--to", "3"])
        return code, out.getvalue()

    @staticmethod
    def check_first(sz: Sizes, answer, check: Checker) -> None:
        code, text = answer
        # n = 3: two reduced words, and neither has a commuting pair
        check(code == 0 and text.splitlines()[1].startswith("3,2,0,1,"),
              f"table row 3: {text!r}")

    @staticmethod
    def prepare(sz: Sizes, seed: int) -> dict:
        rng = random.Random(f"closed-form:{seed}")
        return {
            "exact": [rng.randint(lo, hi) for lo, hi in sz.exact_strata],
            "float": [rng.randint(lo, hi) for lo, hi in sz.float_strata],
            "rows": rng.sample(range(3, sz.sweep_to + 1), sz.sweep_rows_checked),
        }

    @staticmethod
    def solve(sz: Sizes, inputs: dict, tr: Tracer):
        from longword import cli, expected_noncommuting, expected_noncommuting_float

        out = io.StringIO()
        with contextlib.redirect_stdout(out), tr.span(
            "cli.table", degrees=sz.sweep_to - 2
        ), tr.wrap(cli, ("longword.expectations", "longword.tableaux"), "cli->"):
            code = cli.main(["table", "--from", "3", "--to", str(sz.sweep_to)])
        exact = [
            tr.call("expectations.exact_noncommuting", expected_noncommuting, n)
            for n in inputs["exact"]
        ]
        floats = [
            tr.call("expectations.float_noncommuting", expected_noncommuting_float, n)
            for n in inputs["float"]
        ]
        return code, out.getvalue(), exact, floats

    @staticmethod
    def check(sz: Sizes, inputs: dict, answers, check: Checker, tr: Tracer) -> None:
        from longword.expectations import expected_noncommuting_product_form as product

        code, text, exact, floats = answers
        check(code == 0, f"table exit code {code}")
        header, *rows = csv.reader(io.StringIO(text))
        rows = {int(r[0]): dict(zip(header, r)) for r in rows}
        check(list(rows) == list(range(3, sz.sweep_to + 1)), f"table degrees {list(rows)}")
        for n, row in rows.items():
            ell = n * (n - 1) // 2
            ec, nc = float(row["ec_float"]), float(row["noncomm_float"])
            asymptote = float(row["asymp_noncomm_float"])
            check(
                abs(ec + nc - (ell - 1)) <= 1e-9 * ell
                and math.isclose(asymptote, ASYMPTOTE * n, rel_tol=1e-12),
                f"table row {n}: {row}",
            )
        for n in inputs["rows"]:
            row = rows.get(n)
            if row is None:
                check(False, f"table row {n} is missing")
                continue
            ec = n * (n - 1) // 2 - 1 - product(n)
            # exact columns are filled only for small degrees
            exact_ok = row["ec_num"] == "" or Fraction(int(row["ec_num"]), int(row["ec_den"])) == ec
            check(
                float(row["ec_float"]) == float(ec) and exact_ok,
                f"table row {n} against the product form {ec}: {row}",
            )
        for n, value in zip(inputs["exact"], exact):
            check(value == product(n), f"exact noncommuting mean at n={n}")
        for n, value in zip(inputs["float"], floats):
            check(
                abs(value - ASYMPTOTE * n) <= ASYMPTOTE_GAP,
                f"float noncommuting mean {value} at n={n}, asymptote {ASYMPTOTE * n}",
            )


WORKLOADS = {w.name: w for w in (Sample, ExactCounts, ClosedForm)}
