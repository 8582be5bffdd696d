import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from longword.expectations import (
    ASYMPTOTIC_COEFFICIENT,
    EXACT_CLOSED_CAP,
    ExpectationReport,
    asymptotic_noncommuting,
    double_factorial,
    expectation_report,
    expected_braids,
    expected_braids_by_counts,
    expected_commutations,
    expected_commutations_float,
    expected_noncommuting,
    expected_noncommuting_float,
    expected_noncommuting_product_form,
    half_integer_ratio,
    proportions,
    sigma,
    sigma_float,
)
from longword.tableaux import tableau_ratio
from longword.words import word_stats


def test_double_factorial():
    assert double_factorial(5) == 15
    assert double_factorial(0) == 1
    assert double_factorial(-1) == 1
    assert double_factorial(7) == 105
    assert double_factorial(6) == 48
    with pytest.raises(ValueError):
        double_factorial(-2)


@given(st.integers(1, 40))
def test_double_factorial_recurrence(m):
    assert double_factorial(m) == m * double_factorial(m - 2)


def test_half_integer_ratio():
    assert half_integer_ratio(0) == 1
    assert half_integer_ratio(1) == Fraction(3, 2)
    assert half_integer_ratio(2) == Fraction(15, 8)
    with pytest.raises(ValueError):
        half_integer_ratio(-1)


def test_sigma_examples():
    assert sigma(4, 1) == Fraction(15, 8)
    assert sigma(4, 2) == Fraction(15, 8)
    assert sigma(3, 1) == 2
    with pytest.raises(ValueError):
        sigma(4, 3)
    with pytest.raises(ValueError):
        sigma(4, 0)
    with pytest.raises(ValueError):
        sigma(2, 1)


@given(st.integers(3, 40), st.data())
def test_sigma_symmetry(n, data):
    j = data.draw(st.integers(1, n - 2))
    assert sigma(n, j) == sigma(n, n - 1 - j)


def test_sigma_equals_scaled_tableau_ratio():
    # independent route: per-pair term = 2 (ell - 1) * ratio of filling counts
    for n in range(3, 9):
        ell = n * (n - 1) // 2
        for j in range(1, n - 1):
            assert sigma(n, j) == 2 * (ell - 1) * tableau_ratio(n, j)


def test_expected_noncommuting_examples():
    assert expected_noncommuting(3) == 2
    assert expected_noncommuting(4) == Fraction(15, 4)
    assert expected_noncommuting(5) == Fraction(345, 64)
    assert expected_noncommuting(2) == 0


def test_expected_commutations_examples():
    assert expected_commutations(3) == 0
    assert expected_commutations(4) == Fraction(5, 4)
    assert expected_commutations(5) == Fraction(231, 64)
    assert expected_commutations(2) == 0
    assert expected_commutations(10) == Fraction(259662337, 8388608)


@given(st.integers(2, 60))
def test_complement_identity(n):
    ell = n * (n - 1) // 2
    assert expected_commutations(n) + expected_noncommuting(n) == ell - 1


@given(st.integers(2, 50))
def test_product_form_agrees_with_sigma_sum(n):
    assert expected_noncommuting_product_form(n) == expected_noncommuting(n)


def test_expected_braids_is_one():
    assert expected_braids() == 1
    assert expected_braids() == Fraction(1)


def test_braid_mean_by_counts_is_one(sessions):
    for n in range(3, 9):
        assert expected_braids_by_counts(n, sessions(n)) == 1


def test_braid_mean_by_counts_matches_enumeration(sessions, words_of_longest):
    for n in range(3, 6):
        words = words_of_longest(n)
        mean = Fraction(sum(word_stats(w).braids for w in words), len(words))
        assert mean == expected_braids_by_counts(n, sessions(n))


def test_float_path_agrees_with_exact_at_cap():
    exact = float(expected_noncommuting(EXACT_CLOSED_CAP))
    floated = expected_noncommuting_float(EXACT_CLOSED_CAP)
    assert math.isclose(floated, exact, rel_tol=1e-12)
    exact_c = float(expected_commutations(EXACT_CLOSED_CAP))
    assert math.isclose(expected_commutations_float(EXACT_CLOSED_CAP), exact_c, rel_tol=1e-12)


@given(st.integers(3, 120))
def test_float_path_agrees_with_exact_generally(n):
    assert math.isclose(
        expected_noncommuting_float(n), float(expected_noncommuting(n)), rel_tol=1e-11
    )


def test_sigma_float_matches_exact():
    for n in (3, 7, 40):
        for j in range(1, n - 1):
            assert math.isclose(sigma_float(n, j), float(sigma(n, j)), rel_tol=1e-12)


def test_asymptotic_coefficient_against_high_precision():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    oracle = mpmath.mpf(128) / (9 * mpmath.pi**2)
    assert float(oracle) == ASYMPTOTIC_COEFFICIENT
    assert abs(ASYMPTOTIC_COEFFICIENT - 1.4410123895799150) < 1e-15


def test_asymptotic_noncommuting_values():
    assert asymptotic_noncommuting(3) == pytest.approx(4.3230371687, abs=1e-9)
    assert asymptotic_noncommuting(800) == 800 * ASYMPTOTIC_COEFFICIENT
    with pytest.raises(ValueError):
        asymptotic_noncommuting(2)


def test_distance_to_coefficient_shrinks():
    distances = [
        abs(expected_noncommuting_float(n) / n - ASYMPTOTIC_COEFFICIENT)
        for n in (100, 200, 400, 800)
    ]
    assert all(a > b for a, b in zip(distances, distances[1:]))


def test_proportions():
    comm, nonc, braids = proportions(800)
    assert comm == 1.0
    assert nonc == 2 * ASYMPTOTIC_COEFFICIENT / 800
    assert nonc == pytest.approx(256 / (9 * math.pi**2 * 800), rel=1e-14)
    assert braids == 2 / 800**2
    with pytest.raises(ValueError):
        proportions(2)


def test_expectation_report_methods_agree(sessions):
    for n in (4, 5):
        closed = expectation_report(n, "closed_form")
        dp = expectation_report(n, "dp", session=sessions(n))
        enum = expectation_report(n, "enumeration", session=sessions(n))
        assert closed.e_commutations == dp.e_commutations == enum.e_commutations
        assert closed.e_noncommuting == dp.e_noncommuting == enum.e_noncommuting
        assert {closed.method, dp.method, enum.method} == {
            "closed_form",
            "dp",
            "enumeration",
        }
        assert closed.float_value == float(closed.e_commutations)
        assert closed.e_braids_reference == 1


def test_expectation_report_beyond_exact_cap():
    report = expectation_report(400)
    assert report.e_commutations is None
    assert report.e_noncommuting is None
    assert report.float_value == expected_commutations_float(400)


def test_expectation_report_validates():
    with pytest.raises(ValueError):
        ExpectationReport(4, Fraction(1), Fraction(1), "closed_form", 1.0)
    with pytest.raises(ValueError):
        ExpectationReport(4, Fraction(1), None, "closed_form", 1.0)
    with pytest.raises(ValueError):
        expectation_report(4, "guess")
    with pytest.raises(ValueError):
        expectation_report(1)
