"""The traced run: one traced round of a workload plus its layer probes.

Each function below runs in a fresh process for one workload.  It
repeats that workload's round with spans on, then probes the layers the
round exercises at the fixed sizes the per-layer metrics name, and
derives those metrics from the spans.  The metric names carry the full
sizes (n8, n9, n1000, ...); the smoke mode keeps the names at its tiny
sizes.  Probe answers are checked like the round's.
"""

from __future__ import annotations

import random
import statistics

from tracing import Tracer, percentile
from workloads import ClosedForm, ExactCounts, Sample, Sizes, is_reduced_word_of_w0

# name -> unit of every per-layer metric; the traced run reports all of them
PER_LAYER = {
    "words.fill_s.n8": "s",
    "words.fill_s.n9": "s",
    "words.fill_entries_per_s.n8": "1/s",
    "words.fill_entries_per_s.n9": "1/s",
    "words.fill_entries.n9": "count",
    "words.fill_rss_mib.n9": "MiB",
    "words.enumerate_words_per_s.n6": "1/s",
    "words.prefix_probability_us.p50": "us",
    "words.prefix_probability_us.p99": "us",
    "words.word_stats_us.n9.p50": "us",
    "words.word_stats_us.n9.p99": "us",
    "words.word_stats_us.n6.p50": "us",
    "words.word_stats_us.n6.p99": "us",
    "sampling.draws_per_s": "1/s",
    "sampling.sample_word_us.p50": "us",
    "sampling.sample_word_us.p99": "us",
    "sampling.trial_generator_us.p50": "us",
    "sampling.trial_generator_us.p99": "us",
    "sampling.monte_carlo_self_s": "s",
    "sampling.parallel_efficiency": "ratio",
    "expectations.exact_noncommuting_s.n300": "s",
    "expectations.exact_noncommuting_s.n1000": "s",
    "expectations.product_form_s.n1000": "s",
    "expectations.float_noncommuting_s.n1e6": "s",
    "expectations.sweep_row_ms": "ms",
    "expectations.report_dp_s.n9": "s",
    "expectations.report_enumeration_s.n6": "s",
    "tableaux.hook_length_count_us.p50": "us",
    "tableaux.hook_length_count_us.p99": "us",
    "tableaux.tableau_ratio_us.p50": "us",
    "tableaux.tableau_ratio_us.p99": "us",
    "cli.table_self_s": "s",
    "trace.overhead_ratio": "ratio",
}


PROBE_REPEATS = 3


def put_percentiles(metrics: dict, notes: dict, key: str, tr: Tracer, name: str, **counts):
    """Store p50 and p99 of a span's duration in microseconds under key."""
    values = [1e6 * d for d in tr.durations(name, **counts)]
    metrics[f"{key}.p50"] = percentile(values, 50)
    metrics[f"{key}.p99"] = percentile(values, 99)
    notes[key] = f"{len(values)} calls"


def traced_sample(sz: Sizes, seed: int, tr: Tracer, check) -> tuple[float, dict, dict]:
    """Sampler layers: draws, per-call costs, pool overhead and efficiency."""
    from longword import (
        CountingSession,
        longest_element,
        monte_carlo,
        sample_word,
        trial_generator,
        word_stats,
    )

    inputs = Sample.prepare(sz, seed)
    summary = Sample.solve(sz, inputs, tr)
    Sample.check(sz, inputs, summary, check, tr)
    (round_span,) = tr.select("sampling.monte_carlo")
    round_s = round_span["end"] - round_span["start"]

    n, trials, mc_seed = sz.sample_n, sz.probe_trials, inputs["seed"]
    session = CountingSession(n)
    session.count(longest_element(n))
    # Alternate the three measurements so host-speed drift hits each alike.
    for _ in range(PROBE_REPEATS):
        by_workers = {}
        for workers in (1, 2):
            with tr.span("sampling.monte_carlo", draws=trials, workers=workers):
                by_workers[workers] = monte_carlo(n, trials, mc_seed, workers, session)
        one, two = by_workers[1], by_workers[2]
        check(one == two, f"workers=1 gave {one}, workers=2 gave {two}")
        totals = [0, 0, 0]
        with tr.span("sampling.replay", draws=trials):
            for index in range(trials):
                stats = word_stats(sample_word(n, trial_generator(mc_seed, index), session))
                totals[0] += stats.commutations
                totals[1] += stats.noncommuting
                totals[2] += stats.braids
        check(
            totals == [two.total_commutations, two.total_noncommuting, two.total_braids],
            f"replayed totals {totals} differ from monte_carlo's",
        )
    for index in range(trials, trials + sz.probe_calls):
        rng = tr.call("sampling.trial_generator", trial_generator, mc_seed, index)
        word = tr.call("sampling.sample_word", sample_word, n, rng, session)
        with tr.span("words.word_stats", n=n):
            stats = word_stats(word)
        check(
            is_reduced_word_of_w0(n, word)
            and stats.commutations + stats.noncommuting == len(word) - 1,
            f"draw {word} with {stats}",
        )

    one_s = tr.durations("sampling.monte_carlo", workers=1)
    two_s = tr.durations("sampling.monte_carlo", workers=2)
    replay_s = tr.durations("sampling.replay")
    metrics = {
        "sampling.draws_per_s": sz.sample_trials / round_s,
        "sampling.parallel_efficiency": statistics.median(
            a / (2 * b) for a, b in zip(one_s, two_s)
        ),
        "sampling.monte_carlo_self_s": statistics.median(
            b - r for b, r in zip(two_s, replay_s)
        ),
    }
    notes = {
        "sampling.parallel_efficiency": f"median of {PROBE_REPEATS} pairs",
        "sampling.monte_carlo_self_s": f"median of {PROBE_REPEATS} pairs",
    }
    put_percentiles(metrics, notes, "sampling.sample_word_us", tr, "sampling.sample_word")
    put_percentiles(metrics, notes, "sampling.trial_generator_us", tr, "sampling.trial_generator")
    put_percentiles(metrics, notes, "words.word_stats_us.n9", tr, "words.word_stats", n=n)
    return round_s, metrics, notes


def traced_exact_counts(sz: Sizes, seed: int, tr: Tracer, check) -> tuple[float, dict, dict]:
    """Counting-table layers: fills, enumeration, queries, reports, tableaux."""
    from longword import (
        CountingSession,
        delete_corners,
        enumerate_words,
        hook_length_count,
        longest_element,
        staircase,
        tableau_ratio,
        word_stats,
    )

    inputs = ExactCounts.prepare(sz, seed)
    with tr.span("round"):
        answers = ExactCounts.solve(sz, inputs, tr)
    (round_span,) = tr.select("round")
    round_s = round_span["end"] - round_span["start"]
    ExactCounts.check(sz, inputs, answers, check, tr)
    fills, _, _, probabilities, lowered = answers

    n8, n9 = sz.fill_degrees[-2:]
    for _ in range(sz.fill_repeats - 1):
        session = CountingSession(n8)
        with tr.span("words.fill", n=n8) as counts:
            count = session.count(longest_element(n8))
            counts["entries"] = session.entries
        check(count == fills[n8], f"repeated fill at n={n8} counted {count}")

    n6 = sz.enum_n
    total = hook_length_count(staircase(n6))
    stride = max(1, total // sz.probe_calls)
    kept = []
    with tr.span("words.enumerate_words", n=n6) as counts:
        words = 0
        for words, word in enumerate(enumerate_words(longest_element(n6)), start=1):
            if words % stride == 0:
                kept.append(word)
        counts["words"] = words
    check(words == total, f"enumerated {words} words at n={n6}, hooks say {total}")
    for word in kept:
        with tr.span("words.word_stats", n=n6):
            stats = word_stats(word)
        check(stats.commutations + stats.noncommuting == len(word) - 1, f"{word}: {stats}")

    # Tableaux probe: the identities the round's checks use, on seeded indices.
    rng = random.Random(f"tableaux:{seed}")
    for _ in range(sz.probe_calls):
        k = rng.randrange(len(inputs["pairs"]))
        j = inputs["pairs"][k]
        ratio = tr.call("tableaux.tableau_ratio", tableau_ratio, n9, j)
        check(ratio == probabilities[k], f"tableau_ratio({n9}, {j}) = {ratio}")
        k = rng.randrange(len(inputs["lowerings"]))
        j = inputs["lowerings"][k]
        shape = delete_corners(staircase(n9), (j, j + 1))
        count = tr.call("tableaux.hook_length_count", hook_length_count, shape)
        check(count == lowered[k], f"hook_length_count({shape}) = {count}")

    fill8 = tr.select("words.fill", n=n8)
    fill9 = tr.select("words.fill", n=n9)[0]
    fill8_s = statistics.median(s["end"] - s["start"] for s in fill8)
    fill9_s = fill9["end"] - fill9["start"]
    (enumeration,) = tr.select("words.enumerate_words")
    (report_dp,) = tr.durations("expectations.report_dp", n=n9)
    (report_enum,) = tr.durations("expectations.report_enumeration")
    metrics = {
        "words.fill_s.n8": fill8_s,
        "words.fill_s.n9": fill9_s,
        "words.fill_entries_per_s.n8": fill8[0]["counts"]["entries"] / fill8_s,
        "words.fill_entries_per_s.n9": fill9["counts"]["entries"] / fill9_s,
        "words.fill_entries.n9": fill9["counts"]["entries"],
        # the first n9 fill of a fresh process raises its peak RSS by the table
        "words.fill_rss_mib.n9": (fill9["maxrss_kib"][1] - fill9["maxrss_kib"][0]) / 1024,
        "words.enumerate_words_per_s.n6": enumeration["counts"]["words"]
        / (enumeration["end"] - enumeration["start"]),
        "expectations.report_dp_s.n9": report_dp,
        "expectations.report_enumeration_s.n6": report_enum,
    }
    notes = {"words.fill_s.n8": f"median of {len(fill8)} cold fills"}
    put_percentiles(metrics, notes, "words.prefix_probability_us", tr, "words.prefix_probability")
    put_percentiles(metrics, notes, "words.word_stats_us.n6", tr, "words.word_stats", n=n6)
    put_percentiles(
        metrics, notes, "tableaux.hook_length_count_us", tr, "tableaux.hook_length_count"
    )
    put_percentiles(metrics, notes, "tableaux.tableau_ratio_us", tr, "tableaux.tableau_ratio")
    return round_s, metrics, notes


def traced_closed_form(sz: Sizes, seed: int, tr: Tracer, check) -> tuple[float, dict, dict]:
    """Closed-form layers: the table sweep's own cost and isolated degrees."""
    from longword import expected_noncommuting, expected_noncommuting_float
    from longword.expectations import expected_noncommuting_product_form
    from workloads import ASYMPTOTE, ASYMPTOTE_GAP

    inputs = ClosedForm.prepare(sz, seed)
    with tr.span("round"):
        answers = ClosedForm.solve(sz, inputs, tr)
    (round_span,) = tr.select("round")
    round_s = round_span["end"] - round_span["start"]
    ClosedForm.check(sz, inputs, answers, check, tr)

    small, large = sz.exact_probe
    exact = {}
    for n in (small,) * 5 + (large,):
        with tr.span("expectations.exact_noncommuting", n=n):
            exact[n] = expected_noncommuting(n)
    with tr.span("expectations.product_form", n=large):
        product = expected_noncommuting_product_form(large)
    check(product == exact[large], f"exact and product form differ at n={large}")
    check(
        exact[small] == expected_noncommuting_product_form(small),
        f"exact and product form differ at n={small}",
    )
    with tr.span("expectations.float_noncommuting", n=sz.float_probe):
        value = expected_noncommuting_float(sz.float_probe)
    check(
        abs(value - ASYMPTOTE * sz.float_probe) <= ASYMPTOTE_GAP,
        f"float noncommuting mean {value} at n={sz.float_probe}",
    )

    (table,) = tr.select("cli.table")
    metrics = {
        "cli.table_self_s": tr.self_time(table),
        "expectations.sweep_row_ms": 1e3
        * (table["end"] - table["start"])
        / table["counts"]["degrees"],
        "expectations.exact_noncommuting_s.n300": statistics.median(
            tr.durations("expectations.exact_noncommuting", n=small)
        ),
        "expectations.exact_noncommuting_s.n1000": tr.durations(
            "expectations.exact_noncommuting", n=large
        )[0],
        "expectations.product_form_s.n1000": tr.durations("expectations.product_form")[0],
        "expectations.float_noncommuting_s.n1e6": tr.durations(
            "expectations.float_noncommuting", n=sz.float_probe
        )[0],
    }
    notes = {"expectations.exact_noncommuting_s.n300": "median of 5 calls"}
    return round_s, metrics, notes


TRACED = {
    Sample.name: traced_sample,
    ExactCounts.name: traced_exact_counts,
    ClosedForm.name: traced_closed_form,
}
