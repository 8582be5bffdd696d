import json
import math
from fractions import Fraction

import pytest

import longword.expectations
from longword.cli import CSV_HEADER, main
from longword.expectations import (
    ASYMPTOTIC_COEFFICIENT,
    EXACT_CLOSED_CAP,
    expected_commutations,
    expected_commutations_float,
    expected_noncommuting,
    expected_noncommuting_float,
)
from longword.render import float_text


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
    assert run_cli(capsys, "sample", "--n", "12", "--trials", "5")[0] == 2
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


def test_table_writes_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "table", "--from", "3", "--to", "4", "--out", str(path))
    assert code == 0 and out == ""
    stdout_version = run_cli(capsys, "table", "--from", "3", "--to", "4")[1]
    assert path.read_text(encoding="utf-8") == stdout_version


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


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS") for line in lines)


def test_verify_usage(capsys):
    assert run_cli(capsys, "verify", "--max-n", "2")[0] == 2
    assert run_cli(capsys, "verify", "--max-n", "11")[0] == 2


def test_verify_detects_tampered_sigma(capsys, monkeypatch):
    """Seeded-bug drill: doubling one closed-form term must trip the checks."""
    true_sigma = longword.expectations.sigma

    def tampered(n, j):
        value = true_sigma(n, j)
        return 2 * value if j == 1 else value

    monkeypatch.setattr(longword.expectations, "sigma", tampered)
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3")
    assert code == 1
    assert any(line.startswith("FAIL") for line in out.splitlines())


def test_float_text_renders_specials():
    assert float_text(float("nan")) == "NaN"
    assert float_text(float("inf")) == "Infinity"
    assert float_text(float("-inf")) == "-Infinity"
    assert float_text(1.25) == "1.25"
    assert float(float_text(1 / 3)) == 1 / 3
