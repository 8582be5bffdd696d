"""Command-line surface: counting, expectations, sampling, tables, checks."""

from __future__ import annotations

import argparse
import csv
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
    _noncommuting_means,
    asymptotic_noncommuting,
    expectation_report,
    expected_noncommuting_float,
    proportions,
)
from .permutations import ResourceCapError, check_cap, check_int, longest_element
from .render import float_text, json_object, sample_json
from .sampling import DEGREE_CAP, TRIALS_CAP, monte_carlo
from .tableaux import hook_length_count, staircase
from .words import DP_CAP, count_words

TABLE_EXACT_CAP = 10
# Rows are written as they are built: the 10^5 rows 3..100002 took 1.0-1.2 s
# as csv and 1.6-1.8 s as json, with a 20 MiB process peak in both formats,
# what the import alone takes (2 CPUs).  The cap bounds the time of a table
# and refuses a longer range before any row is built.
TABLE_ROWS_CAP = 10**5

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

CSV_HEADER = "n,word_count,ec_num,ec_den,ec_float,noncomm_float,asymp_noncomm_float"

_CAPS_NOTE = (
    f"caps: count and dp require n <= {DP_CAP}, enumerate requires n <= {ENUMERATE_CAP}, "
    f"sample requires n <= {DEGREE_CAP} and --trials <= {TRIALS_CAP} at n <= 10, scaled "
    f"by (10/n)^3 beyond, exact closed-form rationals stop at n <= {EXACT_CLOSED_CAP} "
    f"(floating path beyond, up to n <= {FLOAT_CAP}), asymptotics requires "
    f"n <= {ASYMPTOTIC_CAP:.6g}, a table has at most {TABLE_ROWS_CAP} rows, which "
    f"carry exact columns only for n <= {TABLE_EXACT_CAP}"
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


def _table_rows(first: int, last: int) -> Iterator[list[tuple[str, object]]]:
    """Yield the rows first..last; one recurrence run gives every exact mean."""
    means = _noncommuting_means(first)
    for n in range(first, last + 1):
        ell = n * (n - 1) // 2
        word_count = ec_num = ec_den = None
        if n <= EXACT_CLOSED_CAP:
            nonc = next(means)
            ec = ell - 1 - nonc
            if n <= TABLE_EXACT_CAP:
                word_count = str(hook_length_count(staircase(n)))
                ec_num, ec_den = str(ec.numerator), str(ec.denominator)
            ec_float, nonc_float = float(ec), float(nonc)
        else:
            nonc_float = expected_noncommuting_float(n)
            ec_float = ell - 1 - nonc_float
        yield [
            ("n", n),
            ("word_count", word_count),
            ("ec_num", ec_num),
            ("ec_den", ec_den),
            ("ec_float", ec_float),
            ("noncomm_float", nonc_float),
            ("asymp_noncomm_float", asymptotic_noncommuting(n)),
            ("braid_expectation", "1"),
        ]


def _write_table(rows: Iterable[list[tuple[str, object]]], fmt: str, stream) -> None:
    """Write each row as it comes, so memory does not grow with the row count."""
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for row in rows:
            cells = []
            for key, value in row[:-1]:  # braid_expectation is json-only
                if value is None:
                    cells.append("")
                elif isinstance(value, float):
                    cells.append(float_text(value))
                else:
                    cells.append(str(value))
            writer.writerow(cells)
    else:
        separator = "[\n  "
        for row in rows:
            stream.write(separator + json_object(row))
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
    try:
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
