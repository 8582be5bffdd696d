import dataclasses
import doctest
import hashlib
import itertools
import json
import math
import re
import shlex
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import longword.cli
import longword.expectations
import longword.verify
import longword.walk
import longword.words
from longword.cli import _CAPS_NOTE, CSV_HEADER, TABLE_ROWS_CAP, main
from longword.expectations import (
    ASYMPTOTIC_COEFFICIENT,
    EXACT_CLOSED_CAP,
    FLOAT_CAP,
    expected_commutations,
    expected_commutations_float,
    expected_noncommuting,
    expected_noncommuting_float,
)
from longword.permutations import longest_element
from longword.render import float_text
from longword.sampling import DEGREE_CAP, TRIALS_CAP, sample_word
from longword.tableaux import hook_length_count
from longword.words import enumerate_words


def run_cli(capsys, *args):
    try:
        code = main(list(args))
    except SystemExit as exc:  # argparse's own usage failures
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_count_agreeing_methods(capsys):
    code, out, err = run_cli(capsys, "count", "--n", "4")
    assert (code, out) == (0, "16\n")
    code, out, err = run_cli(capsys, "count", "--n", "5")
    assert (code, out) == (0, "768\n")
    code, out, err = run_cli(capsys, "count", "--n", "2")
    assert (code, out) == (0, "1\n")


def test_count_usage_errors(capsys):
    assert run_cli(capsys, "count", "--n", "1")[0] == 2
    assert run_cli(capsys, "count", "--n", "11")[0] == 2
    assert run_cli(capsys, "count")[0] == 2
    assert run_cli(capsys, "bogus")[0] == 2


def test_count_mismatch_exits_one(capsys, monkeypatch):
    """Seeded-bug drill: a hook-length count off by one fails count with exit 1."""
    monkeypatch.setattr(
        longword.cli, "hook_length_count", lambda shape: hook_length_count(shape) + 1
    )
    code, out, err = run_cli(capsys, "count", "--n", "4")
    assert (code, out) == (1, "")
    assert err == "count mismatch at n=4: word recursion 16, hook lengths 17\n"


def test_expect_methods_agree(capsys):
    for method in ("closed", "dp", "enumerate"):
        code, out, _ = run_cli(capsys, "expect", "--n", "4", "--method", method)
        assert code == 0
        assert out.splitlines()[0] == "5/4"
    code, out, _ = run_cli(capsys, "expect", "--n", "5", "--method", "dp")
    assert code == 0
    assert out.splitlines() == ["231/64", "3.609375"]
    code, out, _ = run_cli(capsys, "expect", "--n", "3")
    assert out.splitlines()[0] == "0"


def test_expect_caps(capsys):
    assert run_cli(capsys, "expect", "--n", "7", "--method", "enumerate")[0] == 2
    # refused before enumerate_words fills the n! count table
    started = time.perf_counter()
    assert run_cli(capsys, "expect", "--n", "10", "--method", "enumerate")[0] == 2
    assert time.perf_counter() - started < 1
    assert run_cli(capsys, "expect", "--n", "11", "--method", "dp")[0] == 2
    assert run_cli(capsys, "expect", "--n", "1")[0] == 2
    assert run_cli(capsys, "expect", "--n", "4", "--method", "guess")[0] == 2


def test_expect_beyond_exact_cap_is_float_only(capsys):
    code, out, _ = run_cli(capsys, "expect", "--n", "400")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert "/" not in lines[0]
    assert float(lines[0]) == pytest.approx(
        400 * 399 / 2 - 1 - ASYMPTOTIC_COEFFICIENT * 400, rel=1e-2
    )


def test_sample_schema_and_values(capsys):
    code, out, err = run_cli(
        capsys, "sample", "--n", "3", "--trials", "100", "--seed", "7"
    )
    assert code == 0
    record = json.loads(out)
    assert list(record) == [
        "n",
        "trials",
        "seed",
        "mean_commutations",
        "se_commutations",
        "mean_noncommuting",
        "se_noncommuting",
        "mean_braids",
        "se_braids",
        "word_length",
    ]
    assert record["mean_braids"] == 1.0
    assert record["n"] == 3 and record["trials"] == 100 and record["seed"] == 7
    assert record["word_length"] == 3


def test_sample_deterministic_across_jobs(capsys):
    outputs = set()
    for jobs in ("1", "3", "4"):
        code, out, _ = run_cli(
            capsys, "sample", "--n", "4", "--trials", "200", "--seed", "9",
            "--jobs", jobs,
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_sample_repeat_is_byte_identical(capsys):
    first = run_cli(capsys, "sample", "--n", "5", "--trials", "50", "--seed", "1")
    second = run_cli(capsys, "sample", "--n", "5", "--trials", "50", "--seed", "1")
    assert first == second


def test_sample_single_trial_flags_nan(capsys):
    code, out, err = run_cli(capsys, "sample", "--n", "4", "--trials", "1")
    assert code == 0
    assert "NaN" in out
    assert math.isnan(json.loads(out)["se_braids"])
    assert "NaN" in err


def test_sample_usage_errors(capsys):
    assert run_cli(capsys, "sample", "--n", str(DEGREE_CAP + 1), "--trials", "5")[0] == 2
    assert run_cli(capsys, "sample", "--n", "4", "--trials", "0")[0] == 2
    assert run_cli(capsys, "sample", "--n", "4", "--trials", "5", "--jobs", "0")[0] == 2
    assert (
        run_cli(capsys, "sample", "--n", "4", "--trials", "5", "--seed", str(2**63))[0]
        == 2
    )


def test_table_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "table", "--from", "3", "--to", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    row4 = lines[2].split(",")
    assert row4[:4] == ["4", "16", "5", "4"]
    assert float(row4[4]) == 1.25
    for n, line in zip((3, 4, 5), lines[1:]):
        cells = line.split(",")
        assert Fraction(int(cells[2]), int(cells[3])) == expected_commutations(n)
        assert float(cells[4]) == float(expected_commutations(n))
        assert float(cells[5]) == float(expected_noncommuting(n))
        assert float(cells[6]) == ASYMPTOTIC_COEFFICIENT * n


def test_table_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "table", "--from", "3", "--to", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["n"] == 3
    assert row["word_count"] == "2"
    assert Fraction(int(row["ec_num"]), int(row["ec_den"])) == expected_commutations(3)
    assert row["braid_expectation"] == "1"


def test_table_float_only_above_exact_cap(capsys):
    code, out, _ = run_cli(capsys, "table", "--from", "100", "--to", "100")
    assert code == 0
    cells = out.splitlines()[1].split(",")
    assert cells[0] == "100"
    assert cells[1] == cells[2] == cells[3] == ""
    assert float(cells[4]) == float(expected_commutations(100))


def test_table_rows_across_exact_closed_cap(capsys):
    degrees = range(EXACT_CLOSED_CAP - 1, EXACT_CLOSED_CAP + 3)
    expect = {
        n: (float(expected_commutations(n)), float(expected_noncommuting(n)))
        if n <= EXACT_CLOSED_CAP
        else (expected_commutations_float(n), expected_noncommuting_float(n))
        for n in degrees
    }
    args = ("table", "--from", str(degrees[0]), "--to", str(degrees[-1]))
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out.splitlines()[1:]
    assert len(lines) == 4
    for n, line in zip(degrees, lines):
        cells = line.split(",")
        assert cells[:4] == [str(n), "", "", ""]
        assert cells[4:6] == [float_text(v) for v in expect[n]]
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [row["n"] for row in rows] == list(degrees)
    for row in rows:
        assert (row["ec_float"], row["noncomm_float"]) == expect[row["n"]]


def test_table_exact_rows_golden(capsys):
    # every row through the exact cap, pinned byte for byte
    digests = {
        "csv": "295fb34e186b1416513c76e69fade3ff875132aca5adfcf47d3ee9e5d4b937e0",
        "json": "f01eb9f710b8ee0ba98c5aa3ed48b69203d75f44ac71d905633a1c2f5fce94c2",
    }
    for fmt, digest in digests.items():
        code, out, _ = run_cli(
            capsys, "table", "--from", "3", "--to", str(EXACT_CLOSED_CAP), "--format", fmt
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_table_float_rows_golden(capsys):
    # the first floating rows past the exact cap, pinned byte for byte
    code, out, _ = run_cli(capsys, "table", "--from", "301", "--to", "400", "--format", "csv")
    assert code == 0
    digest = "ab4123ab6a46f8e5fa0d61f30619faced5af7d8374a4b507d2a8d06b97c68488"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    for line in out.splitlines()[1:]:
        n, nonc = int(line.split(",")[0]), float(line.split(",")[5])
        rounded = float(expected_noncommuting(n))
        assert abs(nonc - rounded) <= math.ulp(rounded), n


def test_float_cap_is_refused_up_front(capsys):
    # the first table from 3 with more rows than the cap
    last = 100_003
    assert last - 3 == TABLE_ROWS_CAP
    for args in (
        ("expect", "--n", str(10**12)),
        ("expect", "--n", str(FLOAT_CAP + 1)),
        ("table", "--from", "3", "--to", str(10**6)),
        ("table", "--from", "3", "--to", str(last)),
        ("table", "--from", str(FLOAT_CAP), "--to", str(FLOAT_CAP + 1)),
        ("sample", "--n", "10", "--trials", str(TRIALS_CAP + 1)),
        ("sample", "--n", "10", "--trials", str(10**9)),
        ("sample", "--n", "300", "--trials", "1000"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *args)
        assert time.perf_counter() - start < 1
        assert code == 3 and out == "" and "cap" in err


def test_largest_degree_sum_table_is_admitted(capsys):
    # the largest table from 3 whose rows above 300 sum to at most FLOAT_CAP
    # degrees, the bound this command kept before its row cap
    code, out, _ = run_cli(capsys, "table", "--from", "3", "--to", "14144")
    assert code == 0
    assert len(out.splitlines()) == 1 + 14142


def test_caps_note_is_pinned():
    # the --help epilog restates every cap, wherever its constant lives
    assert _CAPS_NOTE == (
        "caps: count and dp require n <= 10, enumerate requires n <= 6, "
        "sample requires n <= 300 and --trials <= 1000000 at n <= 10, "
        "scaled by (10/n)^3 beyond, "
        "exact closed-form rationals stop at n <= 300 (floating path beyond, "
        "up to n <= 100000000), asymptotics requires n <= 1.24752e+308, "
        "a table has at most 100000 rows, "
        "which carry exact columns only for n <= 10"
    )


def test_table_writes_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "table", "--from", "3", "--to", "4", "--out", str(path))
    assert code == 0 and out == ""
    stdout_version = run_cli(capsys, "table", "--from", "3", "--to", "4")[1]
    assert path.read_text(encoding="utf-8") == stdout_version


def test_table_past_float_cap_writes_nothing(tmp_path, capsys):
    # rows stream out as they are built, so the cap is checked before the first
    path = tmp_path / "rows.json"
    args = ("--from", str(FLOAT_CAP - 1), "--to", str(FLOAT_CAP + 1), "--format", "json")
    code, out, err = run_cli(capsys, "table", *args, "--out", str(path))
    assert code == 3 and out == "" and "cap" in err
    assert not path.exists()


def test_table_io_failure(tmp_path, capsys):
    missing = tmp_path / "absent" / "rows.csv"
    code, _, err = run_cli(
        capsys, "table", "--from", "3", "--to", "4", "--out", str(missing)
    )
    assert code == 1
    assert str(missing) in err


def test_table_usage_errors(capsys):
    assert run_cli(capsys, "table", "--from", "2", "--to", "4")[0] == 2
    assert run_cli(capsys, "table", "--from", "5", "--to", "4")[0] == 2
    assert run_cli(capsys, "table", "--from", "3", "--to", "4", "--format", "xml")[0] == 2


def test_asymptotics_output(capsys):
    code, out, _ = run_cli(capsys, "asymptotics", "--n", "800")
    assert code == 0
    record = json.loads(out)
    assert record["coefficient"] == ASYMPTOTIC_COEFFICIENT
    assert record["asymptotic_noncommuting"] == 800 * ASYMPTOTIC_COEFFICIENT
    assert record["proportion_braids"] == 2 / 800**2
    assert record["proportion_commutations"] == 1.0
    assert run_cli(capsys, "asymptotics", "--n", "2")[0] == 2
    code, out, err = run_cli(capsys, "asymptotics", "--n", str(10**400))
    assert (code, out) == (2, "")
    assert err.startswith("error: --n is above 1.24752e+308")


@pytest.mark.parametrize(
    "argv, code, cap",
    [
        ("count --n 1", 2, None),
        ("count --n 11", 2, None),
        ("expect --n 1", 2, None),
        ("expect --n 7 --method enumerate", 2, None),
        ("sample --n 301 --trials 5", 2, None),
        ("sample --n 4 --trials 0", 2, None),
        ("sample --n 4 --trials 5 --jobs 0", 2, None),
        (f"sample --n 4 --trials 5 --seed {2**63}", 2, None),
        ("table --from 5 --to 4", 2, None),
        ("table --from 3 --to 200000", 3, TABLE_ROWS_CAP),
        ("asymptotics --n 2", 2, None),
        ("verify --max-n 11", 2, None),
        (f"expect --n {FLOAT_CAP + 1}", 3, FLOAT_CAP),
    ],
)
def test_a_refused_option_exits_with_its_code_and_prefix(capsys, argv, code, cap):
    """A refused argument exits 2 with `error:`; a cap exits 3 and names the cap."""
    got, out, err = run_cli(capsys, *argv.split())
    assert (got, out) == (code, "")
    assert err.count("\n") == 1
    if cap is None:
        assert err.startswith("error: ")
    else:
        assert err.startswith("resource cap exceeded: ")
        assert err.endswith(f" is above the cap of {cap}\n")


_CHEAP = {
    "count": ["--n", "2"],
    "expect": ["--n", "2"],
    "sample": ["--n", "2", "--trials", "1"],
    "table": ["--from", "3", "--to", "3"],
    "asymptotics": ["--n", "3"],
    "verify": ["--max-n", "3"],
}
_INTEGER_OPTIONS = [
    ("count", "--n"),
    ("expect", "--n"),
    ("sample", "--n"),
    ("sample", "--trials"),
    ("sample", "--seed"),
    ("sample", "--jobs"),
    ("table", "--from"),
    ("table", "--to"),
    ("asymptotics", "--n"),
    ("verify", "--max-n"),
]


@pytest.mark.parametrize("value", [-1, 0, 2**64, 10**400], ids=["-1", "0", "2**64", "10**400"])
@pytest.mark.parametrize("command,option", _INTEGER_OPTIONS)
def test_extreme_integers_end_in_an_exit_code(capsys, command, option, value):
    argv = [command, *_CHEAP[command]]
    if option in argv:
        argv[argv.index(option) + 1] = str(value)
    else:
        argv += [option, str(value)]
    code, _, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3")
    assert code == 0
    assert [line.split(": ")[0] for line in out.splitlines()] == [
        "PASS  commutation mean by enumeration (n 3..6)",
        "PASS  commutation mean by word-count recursion (n 7..9)",
        "PASS  braid mean equals 1 (enumeration 3..6, counts 7..9)",
        "PASS  word counts match tableau counts (n 3..9)",
        "PASS  two-step shapes are corner-deleted staircases (n 3..10)",
        "PASS  per-word complement and rotation (n 3..6)",
        "PASS  sampler uniformity and means",
        "PASS  noncommuting mean grows linearly (n 100..800)",
        "PASS  per-length proportions at n=800",
    ]


def test_verify_usage(capsys):
    assert run_cli(capsys, "verify", "--max-n", "2")[0] == 2
    assert run_cli(capsys, "verify", "--max-n", "11")[0] == 2


def test_verify_detects_tampered_recurrence(capsys, monkeypatch):
    """Seeded-bug drill: doubling U(3), a start of the recurrence, must trip the checks."""
    u2, u3 = longword.expectations._U_START
    monkeypatch.setattr(longword.expectations, "_U_START", (u2, 2 * u3))
    assert longword.expectations.expected_noncommuting(3) == 4
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3")
    assert code == 1
    assert any(line.startswith("FAIL") for line in out.splitlines())


def _fill_losing_a_word(true_fill):
    """A table fill that gives the last rank, the longest element, one word too few."""

    def fill(table, lo, k):
        true_fill(table, lo, k)
        if len(table) == math.factorial(k):  # the outermost call: the whole table
            table[-1] -= 1

    return fill


def _braids_counted_twice(true_stats):
    def stats(letters):
        counted = true_stats(letters)
        return dataclasses.replace(counted, braids=2 * counted.braids)

    return stats


@pytest.mark.parametrize(
    "module, route, tamper, max_n, check, first_bad",
    [
        (
            longword.verify,
            "hook_length_count",
            lambda true: lambda shape: true(shape) + 1,
            "3",
            "word counts match tableau counts (n 3..9)",
            "n=3",
        ),
        (
            longword.verify,
            "evaluate",
            lambda true: lambda n, letters: tuple(letters),
            "3",
            "per-word complement and rotation (n 3..6)",
            "n=3",
        ),
        (
            longword.words,
            "_fill_block",
            _fill_losing_a_word,
            "7",
            "commutation mean by word-count recursion (n 7..9)",
            "n=7",
        ),
        (
            longword.verify,
            "word_stats",
            _braids_counted_twice,
            "3",
            "braid mean equals 1 (enumeration 3..6, counts 7..9)",
            "enum n=3",
        ),
        (
            longword.verify,
            "is_vexillary",
            lambda true: lambda w: False,
            "3",
            "two-step shapes are corner-deleted staircases (n 3..10)",
            "n=3, j=1",
        ),
        (
            longword.verify,
            "shape_of",
            lambda true: lambda w: true(w)[:-1],  # drops the smallest part
            "3",
            "two-step shapes are corner-deleted staircases (n 3..10)",
            "n=3, j=1",
        ),
    ],
    ids=[
        "hook_length_count",
        "evaluate",
        "fill_block",
        "word_stats_braids",
        "is_vexillary",
        "shape_of",
    ],
)
def test_verify_names_first_bad_degree(
    capsys, monkeypatch, module, route, tamper, max_n, check, first_bad
):
    """Seeded-bug drill: a tampered route fails its check at the first degree.

    The registry of filled tables is emptied for each drill, so no table
    filled before the patch is shared with it and none it fills outlives it.
    """
    monkeypatch.setattr(longword.words, "_FILLED", weakref.WeakValueDictionary())
    monkeypatch.setattr(module, route, tamper(getattr(module, route)))
    code, out, _ = run_cli(capsys, "verify", "--max-n", max_n)
    assert code == 1
    line = next(line for line in out.splitlines() if f"  {check}: " in line)
    assert line.startswith(f"FAIL  {check}: {first_bad}: ")


def test_verify_names_an_enumerated_non_word(capsys, monkeypatch):
    """Seeded-bug drill: a word walk that yields a non-word fails, naming it."""
    true_walk = longword.verify._walk_words

    def corrupted(w):
        walk = true_walk(w)
        if len(w) == 4:
            first, noncommuting = next(walk)
            yield [first[0], *first[:-1]], noncommuting
        yield from walk

    monkeypatch.setattr(longword.verify, "_walk_words", corrupted)
    code, out, _ = run_cli(capsys, "verify", "--max-n", "4")
    lines = out.splitlines()
    assert code == 1 and len(lines) == 9
    check = "FAIL  per-word complement and rotation (n 3..6): n=4: "
    assert next(x for x in lines if x.startswith(check)).endswith("(1, 1, 2, 1, 3, 2)")


def _miscount_first_word(walk):
    letters, noncommuting = next(walk)
    yield letters, noncommuting + 1
    yield from walk


def _drop_first_suffix(blocks):
    letters, last, pairs, suffixes = next(blocks)
    yield letters, last, pairs, suffixes[1:]
    yield from blocks


def _miscount_first_block(blocks):
    letters, last, pairs, suffixes = next(blocks)
    yield letters, last, pairs + 1, suffixes
    yield from blocks


@pytest.mark.parametrize(
    "tamper, first_bad",
    [(_drop_first_suffix, 4), (_miscount_first_block, 3)],
    ids=["drop", "miscount"],
)
def test_verify_reads_the_library_enumeration_mean(
    capsys, monkeypatch, tamper, first_bad
):
    """Seeded-bug drill: a tampered block walk fails the enumeration mean.

    Every word of degree 3 has two noncommuting pairs, so a dropped word
    first shows at degree 4.
    """
    true_walk = longword.walk._walk_blocks
    monkeypatch.setattr(longword.walk, "_walk_blocks", lambda t: tamper(true_walk(t)))
    code, out, _ = run_cli(capsys, "verify", "--max-n", "4")
    assert code == 1
    check = "commutation mean by enumeration (n 3..6)"
    line = next(line for line in out.splitlines() if f"  {check}: " in line)
    assert line.startswith(f"FAIL  {check}: n={first_bad}: ")


def test_verify_reads_the_walk_pair_count(capsys, monkeypatch):
    """Seeded-bug drill: the complement leg reads the walk's own pair count."""
    true_walk = longword.verify._walk_words
    monkeypatch.setattr(
        longword.verify, "_walk_words", lambda t: _miscount_first_word(true_walk(t))
    )
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3")
    assert code == 1
    check = "per-word complement and rotation (n 3..6)"
    line = next(line for line in out.splitlines() if f"  {check}: " in line)
    assert line.startswith(f"FAIL  {check}: n=3: ")


def test_verify_names_a_sampled_non_word(capsys, monkeypatch):
    """Seeded-bug drill: a sampler that draws a non-word fails, naming the word."""
    monkeypatch.setattr(longword.verify, "sample_word", lambda n, rng: (1,) * 6)
    code, out, _ = run_cli(capsys, "verify", "--max-n", "4")
    lines = out.splitlines()
    assert code == 1 and len(lines) == 9
    check = "FAIL  sampler uniformity and means: "
    assert "(1, 1, 1, 1, 1, 1)" in next(x for x in lines if x.startswith(check))


def test_verify_names_a_sampler_with_a_biased_law(capsys, monkeypatch):
    """Seeded-bug drill: a sampler of valid words with a biased law fails chi-square.

    Even trials return the first word of w0 and odd ones a true draw, as
    verify draws trial i by the i-th call.  Only the chi-square leg at
    n = 4 sees the law: the n = 10 legs compare means, so they cannot see
    a bias that keeps them.
    """
    calls = itertools.count()

    def biased(n, rng):
        if next(calls) % 2:
            return sample_word(n, rng)
        return next(iter(enumerate_words(longest_element(n))))

    monkeypatch.setattr(longword.verify, "sample_word", biased)
    code, out, _ = run_cli(capsys, "verify", "--max-n", "4")
    lines = out.splitlines()
    assert code == 1 and len(lines) == 9
    check = "FAIL  sampler uniformity and means: chi-square(n=4): "
    assert sum(x.startswith(check) for x in lines) == 1


def test_float_text_renders_specials():
    assert float_text(float("nan")) == "NaN"
    assert float_text(float("inf")) == "Infinity"
    assert float_text(float("-inf")) == "-Infinity"
    assert float_text(1.25) == "1.25"
    assert float(float_text(1 / 3)) == 1 / 3


def readme_commands():
    """(argv, shown output) for each README block that starts `$ longword`."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    found = []
    for block in re.findall(r"^```\n(\$ longword .*?)^```", text, re.M | re.S):
        command, shown = block.split("\n", 1)
        found.append((shlex.split(command)[2:], shown))
    return found


def test_readme_cli_examples_match(capsys):
    """Each README command prints what README shows; `...` stands for any text."""
    examples = readme_commands()
    subcommands = ["count", "expect", "sample", "table", "asymptotics", "verify"]
    assert [argv[0] for argv, _ in examples] == subcommands
    checker = doctest.OutputChecker()
    flags = doctest.ELLIPSIS | doctest.DONT_ACCEPT_TRUE_FOR_1
    for argv, shown in examples:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert checker.check_output(shown, out, flags), (argv, out)
