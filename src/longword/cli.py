"""Command-line surface: counting, expectations, sampling, tables, checks."""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Iterable, Iterator

from . import verify
from .expectations import (
    ASYMPTOTIC_CAP,
    ASYMPTOTIC_COEFFICIENT,
    ENUMERATE_CAP,
    EXACT_CLOSED_CAP,
    FLOAT_CAP,
    _check_asymptotic_degree,
    _closed_forms,
    asymptotic_noncommuting,
    expectation_report,
    proportions,
)
from .permutations import ResourceCapError, check_cap, check_int, longest_element
from .sampling import DEGREE_CAP, TRIALS_CAP, SampleSummary, monte_carlo
from .tableaux import hook_length_count, staircase
from .words import DP_CAP, count_words

TABLE_EXACT_CAP = 10
# Rows are written as they are built: the 10^5 rows 3..100002 took 0.7-1.2 s
# as csv and 1.3-2.0 s as json, with a 19 MiB process peak in both formats,
# what the import alone takes (2 CPUs).  The cap bounds the time of a table
# and refuses a longer range before any row is built.
TABLE_ROWS_CAP = 10**5

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# the table's columns in order; the last one, braid_expectation, is json-only
_TABLE_COLUMNS = (
    "n", "word_count", "ec_num", "ec_den", "ec_float", "noncomm_float", "asymp_noncomm_float",
    "braid_expectation",
)
CSV_HEADER = ",".join(_TABLE_COLUMNS[:-1])

_CAPS_NOTE = (
    f"caps: count and dp require n <= {DP_CAP}, enumerate requires n <= {ENUMERATE_CAP}, "
    f"sample requires n <= {DEGREE_CAP} and --trials <= {TRIALS_CAP} at n <= 10, scaled "
    f"by (10/n)^3 beyond, exact closed-form rationals stop at n <= {EXACT_CLOSED_CAP} "
    f"(floating path beyond, up to n <= {FLOAT_CAP}), asymptotics requires "
    f"n <= {ASYMPTOTIC_CAP:.6g}, a table has at most {TABLE_ROWS_CAP} rows, which "
    f"carry exact columns only for n <= {TABLE_EXACT_CAP}"
)


def float_text(x: float) -> str:
    """17-significant-digit rendering; NaN and infinities as JSON-ish literals."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def json_object(pairs: Iterable[tuple[str, object]]) -> str:
    """One-line JSON object with the given key order.

    Values may be int, float (rendered via float_text), str, or None.
    """
    chunks = []
    for key, value in pairs:
        if value is None:
            text = "null"
        elif isinstance(value, int):
            text = str(value)
        elif isinstance(value, float):
            text = float_text(value)
        else:
            text = json.dumps(value)
        chunks.append(f"{json.dumps(key)}: {text}")
    return "{" + ", ".join(chunks) + "}"


def sample_json(summary: SampleSummary) -> str:
    """Fixed-schema JSON line for one Monte Carlo summary."""
    return json_object(
        [
            ("n", summary.n),
            ("trials", summary.trials),
            ("seed", summary.seed),
            ("mean_commutations", summary.mean_commutations),
            ("se_commutations", summary.se_commutations),
            ("mean_noncommuting", summary.mean_noncommuting),
            ("se_noncommuting", summary.se_noncommuting),
            ("mean_braids", summary.mean_braids),
            ("se_braids", summary.se_braids),
            ("word_length", summary.word_length),
        ]
    )


def cmd_count(args: argparse.Namespace) -> int:
    n = check_int(args.n, 2, DP_CAP, "--n")  # the library admits n = 1
    by_words = count_words(longest_element(n))
    by_hooks = hook_length_count(staircase(n))
    if by_words != by_hooks:
        print(
            f"count mismatch at n={n}: word recursion {by_words}, "
            f"hook lengths {by_hooks}",
            file=sys.stderr,
        )
        return EXIT_FAIL
    print(by_words)
    return EXIT_OK


# each method's library name and the largest --n the CLI takes for it
_METHODS = {
    "closed": ("closed_form", None),
    "dp": ("dp", DP_CAP),
    "enumerate": ("enumeration", ENUMERATE_CAP),
}


def cmd_expect(args: argparse.Namespace) -> int:
    method, most = _METHODS[args.method]
    if most is not None:  # refused as a usage error, not at the library's cap
        check_int(args.n, 2, most, "--n")
    report = expectation_report(args.n, method)
    if report.e_commutations is not None:
        print(report.e_commutations)
    print(float_text(report.float_value))
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    check_int(args.n, 2, DEGREE_CAP, "--n")  # a usage error, not the sampler's cap
    check_int(args.jobs, name="--jobs")
    summary = monte_carlo(args.n, args.trials, args.seed)
    if args.trials == 1:
        print("note: standard errors are NaN with a single trial", file=sys.stderr)
    print(sample_json(summary))
    return EXIT_OK


def _table_rows(first: int, last: int) -> Iterator[tuple[object, ...]]:
    """Yield rows first..last as _TABLE_COLUMNS values; one run of _closed_forms gives every mean."""
    for n, (_, ec, nonc_float, ec_float) in zip(range(first, last + 1), _closed_forms(first)):
        word_count = ec_num = ec_den = None
        if n <= TABLE_EXACT_CAP:
            word_count = str(hook_length_count(staircase(n)))
            ec_num, ec_den = str(ec.numerator), str(ec.denominator)
        yield (n, word_count, ec_num, ec_den, ec_float, nonc_float, asymptotic_noncommuting(n), "1")


def _write_table(rows: Iterable[tuple[object, ...]], fmt: str, stream) -> None:
    """Write each row as it comes, so memory does not grow with the row count."""
    if fmt == "csv":
        # every cell is an int, a float_text decimal or empty, so none needs quoting
        stream.write(CSV_HEADER + "\n")
        for values in rows:
            cells = (
                "" if value is None
                else float_text(value) if isinstance(value, float)
                else str(value)
                for value in values[:-1]
            )
            stream.write(",".join(cells) + "\n")
    else:
        separator = "[\n  "
        for values in rows:
            stream.write(separator + json_object(zip(_TABLE_COLUMNS, values)))
            separator = ",\n  "
        stream.write("\n]\n")


def cmd_table(args: argparse.Namespace) -> int:
    # rows stream out, so every refusal comes before the first one
    first = check_int(getattr(args, "from"), 3, name="--from")
    last = check_int(args.to, first, name="--to")
    check_cap(last - first + 1, TABLE_ROWS_CAP, "table row count")
    check_cap(last, FLOAT_CAP, "--to")
    rows = _table_rows(first, last)
    if args.out is None:
        _write_table(rows, args.format, sys.stdout)
        return EXIT_OK
    try:  # newline="": "\n" is written as is on every platform
        with open(args.out, "w", encoding="utf-8", newline="") as stream:
            _write_table(rows, args.format, stream)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_asymptotics(args: argparse.Namespace) -> int:
    _check_asymptotic_degree(args.n, "--n")  # the library's check, naming the flag
    comm, nonc, braids = proportions(args.n)
    print(
        json_object(
            [
                ("n", args.n),
                ("coefficient", ASYMPTOTIC_COEFFICIENT),
                ("asymptotic_noncommuting", asymptotic_noncommuting(args.n)),
                ("proportion_commutations", comm),
                ("proportion_noncommuting", nonc),
                ("proportion_braids", braids),
            ]
        )
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_all(args.max_n)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name}: {result.detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longword",
        description=(
            "Reduced words of the longest permutation: exact counts, "
            "commutation/braid statistics, expectations, uniform sampling."
        ),
        epilog=_CAPS_NOTE,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count reduced words two independent ways")
    p.add_argument("--n", type=int, required=True, help=f"degree, 2..{DP_CAP}")
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("expect", help="exact/float expected commutation count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--method",
        choices=sorted(_METHODS),
        default="closed",
        help=f"enumerate needs n <= {ENUMERATE_CAP}, dp needs n <= {DP_CAP}",
    )
    p.set_defaults(handler=cmd_expect)

    p = sub.add_parser("sample", help="seeded Monte Carlo summary as JSON")
    p.add_argument("--n", type=int, required=True, help=f"degree, 2..{DEGREE_CAP}")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")
    p.add_argument("--jobs", type=int, default=1, help="ignored (trials run in one thread); output identical for any value")
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("table", help="per-degree table as CSV or JSON")
    p.add_argument("--from", type=int, required=True, dest="from")
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (stdout when omitted)")
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("asymptotics", help="leading-order constants and proportions")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=cmd_asymptotics)

    p = sub.add_parser("verify", help="run the self-check suite")
    p.add_argument(
        "--max-n",
        type=int,
        default=6,
        dest="max_n",
        help=f"largest degree exercised, {verify.MIN_N}..{verify.MAX_N} (default 6)",
    )
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:  # an argument refused, by the CLI or by the library
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
