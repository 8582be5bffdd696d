"""Acceptance gate: one test per published criterion, at stated tolerance.

Criteria 1-9 are the nine checks of `longword verify`.  The battery runs
once, at its largest degree, and each criterion pins its check's full
detail line as `verify --max-n 10` prints it: the exact rationals, the
word totals, the chi-square value, both 4-se legs and the distances are
compared byte for byte, and criteria 1, 2 and 7 keep their runtime
bounds.  The sampler checks run a fixed seed, so they are deterministic
here; over re-seeded runs the chi-square bound would fail with
probability 0.1% by construction (budget documented).  Criterion 10
drives the CLI, which no check covers.
"""

import json
import math

import pytest

from longword.cli import main
from longword.verify import MAX_N, run_all

# criterion id: (check name, its detail at max_n = 10)
CRITERIA = {
    "c01": (
        "commutation mean by enumeration (n 3..6)",
        "n=3: 0; n=4: 5/4; n=5: 231/64; n=6: 1799/256",
    ),
    "c02": (
        "commutation mean by word-count recursion (n 7..9)",
        "n=7: 47025/4096; n=8: 1111311/65536; n=9: 49177975/2097152",
    ),
    "c03": (
        "braid mean equals 1 (enumeration 3..6, counts 7..9)",
        "enum n=3: 1; enum n=4: 1; enum n=5: 1; enum n=6: 1; "
        "counts n=7: 1; counts n=8: 1; counts n=9: 1",
    ),
    "c04": (
        "word counts match tableau counts (n 3..9)",
        "22 count pairs agree",
    ),
    "c05": (
        "two-step shapes are corner-deleted staircases (n 3..10)",
        "36 shapes agree",
    ),
    "c06": (
        "per-word complement and rotation (n 3..6)",
        "n=3: 2 words; n=4: 16 words; n=5: 768 words; n=6: 292864 words",
    ),
    "c07": (
        "sampler uniformity and means",
        "chi-square(n=4): 13.32, bound 37.69729821835383; "
        "n=10 commutation mean: off by 0.0109, bound 0.0375; "
        "n=10 braid mean: off by 0.0048, bound 0.0123",
    ),
    "c08": (
        "noncommuting mean grows linearly (n 100..800)",
        "distances: 8.20e-03 > 3.88e-03 > 1.88e-03 > 9.21e-04; "
        "n=800: off by 0.064%, bound 1.000%",
    ),
    "c09": (
        "per-length proportions at n=800",
        "noncommuting share: off by 0.061%, bound 3.000%; "
        "braid share: off by 0.126%, bound 1.000%",
    ),
}
BOUNDS = {"c01": 60, "c02": 300, "c07": 120}  # seconds


@pytest.fixture(scope="module")
def battery():
    """The verify battery, run once at its largest degree, keyed by check name."""
    return {result.name: result for result in run_all(MAX_N)}


@pytest.mark.parametrize("criterion", CRITERIA)
def test_criterion(battery, criterion):
    name, detail = CRITERIA[criterion]
    result = battery[name]
    assert result.passed, result.detail
    assert result.detail == detail
    assert result.seconds < BOUNDS.get(criterion, math.inf), result.seconds


def test_c10_sample_output_is_job_count_invariant(capsys):
    """Criterion 10: `sample` emits byte-identical JSON for any --jobs value."""
    outputs = []
    for jobs in ("1", "2", "4"):
        code = main(
            ["sample", "--n", "5", "--trials", "300", "--seed", "99", "--jobs", jobs]
        )
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0])["trials"] == 300
    print("criterion 10 PASS: byte-identical JSON across --jobs 1, 2, 4")
