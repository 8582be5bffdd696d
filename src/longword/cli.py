"""Command-line surface: counting, expectations, sampling, tables, checks."""

from __future__ import annotations

import argparse
import csv
import sys

from . import verify
from .expectations import (
    ASYMPTOTIC_COEFFICIENT,
    EXACT_CLOSED_CAP,
    asymptotic_noncommuting,
    expectation_report,
    expected_noncommuting,
    expected_noncommuting_float,
    proportions,
)
from .permutations import longest_element
from .render import float_text, json_object, sample_json
from .sampling import monte_carlo
from .tableaux import hook_length_count, staircase
from .words import ResourceCapError, count_words

ENUMERATE_CAP = 6
DP_CAP = 10
SAMPLE_CAP = 10
TABLE_EXACT_CAP = 10

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

CSV_HEADER = "n,word_count,ec_num,ec_den,ec_float,noncomm_float,asymp_noncomm_float"

_CAPS_NOTE = (
    "caps: count and dp require n <= %d, enumerate requires n <= %d, "
    "sample requires n <= %d, "
    "exact closed-form rationals stop at n <= %d (floating path beyond), "
    "table rows carry exact columns only for n <= %d"
    % (DP_CAP, ENUMERATE_CAP, SAMPLE_CAP, EXACT_CLOSED_CAP, TABLE_EXACT_CAP)
)


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def cmd_count(args: argparse.Namespace) -> int:
    n = args.n
    if not 2 <= n <= DP_CAP:
        return _usage(f"--n must lie in [2, {DP_CAP}], got {n}")
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


_METHODS = {"closed": "closed_form", "dp": "dp", "enumerate": "enumeration"}


def cmd_expect(args: argparse.Namespace) -> int:
    n = args.n
    if n < 2:
        return _usage(f"--n must be at least 2, got {n}")
    if args.method == "enumerate" and n > ENUMERATE_CAP:
        return _usage(f"--method enumerate requires n <= {ENUMERATE_CAP}, got {n}")
    if args.method == "dp" and n > DP_CAP:
        return _usage(f"--method dp requires n <= {DP_CAP}, got {n}")
    report = expectation_report(n, _METHODS[args.method])
    if report.e_commutations is not None:
        print(report.e_commutations)
    print(float_text(report.float_value))
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    if not 2 <= args.n <= SAMPLE_CAP:
        return _usage(f"--n must lie in [2, {SAMPLE_CAP}], got {args.n}")
    if args.trials < 1:
        return _usage(f"--trials must be at least 1, got {args.trials}")
    if args.jobs < 1:
        return _usage(f"--jobs must be at least 1, got {args.jobs}")
    if not -(2**63) <= args.seed < 2**63:
        return _usage("--seed must fit in a signed 64-bit integer")
    if args.trials == 1:
        print("note: standard errors are NaN with a single trial", file=sys.stderr)
    summary = monte_carlo(args.n, args.trials, args.seed, workers=args.jobs)
    print(sample_json(summary))
    return EXIT_OK


def _table_rows(first: int, last: int) -> list[list[tuple[str, object]]]:
    rows = []
    for n in range(first, last + 1):
        ell = n * (n - 1) // 2
        word_count = ec_num = ec_den = None
        if n <= EXACT_CLOSED_CAP:
            nonc = expected_noncommuting(n)
            ec = ell - 1 - nonc
            if n <= TABLE_EXACT_CAP:
                word_count = str(hook_length_count(staircase(n)))
                ec_num, ec_den = str(ec.numerator), str(ec.denominator)
            ec_float, nonc_float = float(ec), float(nonc)
        else:
            nonc_float = expected_noncommuting_float(n)
            ec_float = ell - 1 - nonc_float
        rows.append(
            [
                ("n", n),
                ("word_count", word_count),
                ("ec_num", ec_num),
                ("ec_den", ec_den),
                ("ec_float", ec_float),
                ("noncomm_float", nonc_float),
                ("asymp_noncomm_float", asymptotic_noncommuting(n)),
                ("braid_expectation", "1"),
            ]
        )
    return rows


def _write_table(rows: list[list[tuple[str, object]]], fmt: str, stream) -> None:
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
        stream.write("[\n")
        stream.write(",\n".join("  " + json_object(row) for row in rows))
        stream.write("\n]\n")


def cmd_table(args: argparse.Namespace) -> int:
    first, last = getattr(args, "from"), args.to
    if not 3 <= first <= last:
        return _usage(f"need 3 <= --from <= --to, got {first}..{last}")
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
    if args.n < 3:
        return _usage(f"--n must be at least 3, got {args.n}")
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
    if not verify.MIN_N <= args.max_n <= verify.MAX_N:
        return _usage(
            f"--max-n must lie in [{verify.MIN_N}, {verify.MAX_N}], got {args.max_n}"
        )
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
    p.add_argument("--n", type=int, required=True, help=f"degree, 2..{SAMPLE_CAP}")
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
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
