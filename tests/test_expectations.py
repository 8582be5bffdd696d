import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import longword.expectations
from longword.expectations import (
    ASYMPTOTIC_CAP,
    ASYMPTOTIC_COEFFICIENT,
    ENUMERATE_CAP,
    EXACT_CAP,
    EXACT_CLOSED_CAP,
    FLOAT_CAP,
    REFERENCE_CAP,
    ExpectationReport,
    _noncommuting_expansion,
    _noncommuting_means,
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
)
from longword.permutations import identity, longest_element
from longword.sampling import monte_carlo, sample_word, trial_generator
from longword.tableaux import conjugate, hook_length_count, staircase, tableau_ratio
from longword.verify import run_all
from longword.words import DP_CAP, CountingSession, ResourceCapError, evaluate, word_stats


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


def _f_squared_coefficients(count):
    """[z^M] F(z)^2 for M < count, F = 2F1(3/2, 5/2; 2; z), by convolution."""
    a = [Fraction(1)]
    for k in range(count - 1):
        # (3/2)_k (5/2)_k / ((2)_k k!), one factor of each at a time
        a.append(a[-1] * Fraction(2 * k + 3, 2) * Fraction(2 * k + 5, 2) / ((k + 2) * (k + 1)))
    return [sum(a[i] * a[m - i] for i in range(m + 1)) for m in range(count)]


def test_recurrence_derivation_from_f_squared():
    # the module docstring's relation for c_M = [z^M] F^2, and E(n) = 6 c_(n-3) / ell
    c = _f_squared_coefficients(62)
    for m in range(61):
        below = c[m - 1] if m else 0
        assert 2 * (m + 1) * (m + 2) * (m + 3) * c[m + 1] == (
            (2 * m + 5) * (2 * m * m + 10 * m + 9) * c[m]
            - 2 * (m + 2) * (m + 3) * (m + 4) * below
        ), m
    for n in range(3, 41):
        assert 6 * c[n - 3] / (n * (n - 1) // 2) == expected_noncommuting(n), n


def test_one_recurrence_run_gives_every_mean():
    means = _noncommuting_means(2)
    for n in range(2, 120):
        assert next(means) == expected_noncommuting(n), n
    later = _noncommuting_means(500)
    assert [next(later) for _ in range(3)] == [expected_noncommuting(n) for n in (500, 501, 502)]


@pytest.mark.parametrize("n", [301, 1000])
def test_product_form_agrees_beyond_hypothesis_range(n):
    # the reference takes about 0.5 s at n = 1000, past the hypothesis deadline
    assert expected_noncommuting_product_form(n) == expected_noncommuting(n)


def test_exact_cap_is_refused_up_front():
    for exact, n in (
        (expected_noncommuting, EXACT_CAP + 1),
        (expected_commutations, 10**6),
        (expected_noncommuting_product_form, REFERENCE_CAP + 1),
        (expected_noncommuting_product_form, 10**6),
        (lambda n: sigma(n, 1), REFERENCE_CAP + 1),
        (lambda n: sigma(n, 1), 10**6),
        (half_integer_ratio, REFERENCE_CAP + 1),
        (half_integer_ratio, 10**5),
        (double_factorial, 2 * REFERENCE_CAP + 2),
        (double_factorial, 2 * 10**5 + 1),
    ):
        start = time.perf_counter()
        with pytest.raises(ResourceCapError):
            exact(n)
        assert time.perf_counter() - start < 1, n


@pytest.mark.parametrize(
    "mean, degrees",
    [
        (lambda n: expectation_report(n, "dp"), (DP_CAP + 1, 10**8)),
        (
            lambda n: expectation_report(n, "enumeration"),
            (ENUMERATE_CAP + 1, DP_CAP, DP_CAP + 1, 10**8),
        ),
        (expected_braids_by_counts, (DP_CAP + 1, 10**8)),
    ],
    ids=["dp", "enumeration", "braids"],
)
def test_word_count_means_refuse_before_building_w0(mean, degrees, monkeypatch):
    def unbuilt(n):
        raise AssertionError(f"longest_element({n}) was built before the cap")

    monkeypatch.setattr(longword.expectations, "longest_element", unbuilt)
    for n in degrees:
        started = time.perf_counter()
        with pytest.raises(ResourceCapError):
            mean(n)
        assert time.perf_counter() - started < 1, n


def test_word_count_means_have_no_window_at_degree_two():
    assert expectation_report(2, "dp").e_noncommuting == 0
    assert expected_braids_by_counts(2) == 0


def test_expected_braids_is_one():
    assert expected_braids() == 1
    assert expected_braids() == Fraction(1)


def test_braid_mean_by_counts_is_one():
    for n in range(3, 9):
        assert expected_braids_by_counts(n) == 1


def test_braid_mean_by_counts_matches_enumeration(words_of_longest):
    for n in range(3, 6):
        words = words_of_longest(n)
        mean = Fraction(sum(word_stats(w).braids for w in words), len(words))
        assert mean == expected_braids_by_counts(n)


def test_float_path_agrees_with_exact_at_cap():
    exact = float(expected_noncommuting(EXACT_CLOSED_CAP))
    assert expected_noncommuting_float(EXACT_CLOSED_CAP) == exact
    exact_c = float(expected_commutations(EXACT_CLOSED_CAP))
    assert math.isclose(expected_commutations_float(EXACT_CLOSED_CAP), exact_c, rel_tol=1e-12)


@given(st.integers(2, EXACT_CLOSED_CAP))
def test_float_path_agrees_with_exact_generally(n):
    assert expected_noncommuting_float(n) == float(expected_noncommuting(n))


def test_float_mean_within_an_ulp_above_exact_closed_cap():
    # above the switch the expansion stands in for the rounded exact mean
    for n in (301, 302, 350, 500, 1000, 2000, 4000):
        rounded = float(expected_noncommuting(n))
        assert abs(expected_noncommuting_float(n) - rounded) <= math.ulp(rounded), n


def test_float_path_against_high_precision():
    mpmath = pytest.importorskip("mpmath")
    for n in (1000, 3000):
        with mpmath.workdps(30):
            h = [mpmath.rf(1.5, x) / mpmath.factorial(x) for x in range(n - 1)]
            total = mpmath.fsum(
                h[j - 1] * h[j] * h[n - j - 2] * h[n - j - 1] for j in range(1, n - 1)
            )
            oracle = mpmath.mpf(8) / (3 * (n * (n - 1) // 2)) * total
        assert math.isclose(expected_noncommuting_float(n), float(oracle), rel_tol=1e-13)


def test_expansion_matches_exact_means():
    mpmath = pytest.importorskip("mpmath")
    for n in (2000, 3000, 4000):
        exact = expected_noncommuting(n)
        # the first dropped term is about 0.4 Lambda/n^6 here
        with mpmath.workdps(40):
            lam = mpmath.log(16 * n) + mpmath.euler
            expansion = (
                mpmath.mpf(128) * n / 9
                - mpmath.mpf(64) / 9
                + (mpmath.mpf(88) / 3 - 16 * lam) / n
                + (mpmath.mpf(68) / 3 - 8 * lam) / n**2
                + (mpmath.mpf(163) / 8 - 13 * lam / 2) / n**3
                + (mpmath.mpf(919) / 48 - 23 * lam / 4) / n**4
                + (mpmath.mpf(3027) / 160 - 359 * lam / 64) / n**5
            ) / mpmath.pi**2
            gap = abs(expansion - mpmath.mpf(exact.numerator) / exact.denominator)
            assert gap <= lam / n**6, (n, gap)
        # the library's float evaluation of the same expansion
        rounded = float(exact)
        assert abs(_noncommuting_expansion(n) - rounded) <= math.ulp(rounded)


def test_exact_and_expansion_meet_at_exact_closed_cap():
    rounded = float(expected_noncommuting(EXACT_CLOSED_CAP))
    assert expected_noncommuting_float(EXACT_CLOSED_CAP) == rounded
    assert abs(_noncommuting_expansion(EXACT_CLOSED_CAP) - rounded) <= math.ulp(rounded)
    above = EXACT_CLOSED_CAP + 1
    assert expected_noncommuting_float(above) == _noncommuting_expansion(above)


def test_float_mean_at_float_cap_is_immediate():
    # the mean at the cap comes from the O(1) expansion, not a walk over n terms
    started = time.perf_counter()
    value = expected_noncommuting_float(FLOAT_CAP)
    assert time.perf_counter() - started < 0.1
    assert math.isclose(value, ASYMPTOTIC_COEFFICIENT * FLOAT_CAP, rel_tol=1e-8)


def test_distance_to_coefficient_shrinks_above_exact_cap():
    distances = [
        abs(expected_noncommuting_float(n) / n - ASYMPTOTIC_COEFFICIENT)
        for n in (10**5, 10**6, 10**7, 10**8)
    ]
    assert all(a > b > 0 for a, b in zip(distances, distances[1:]))


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


def test_asymptotic_cap_is_where_the_floats_stop_being_finite():
    assert math.isfinite(asymptotic_noncommuting(ASYMPTOTIC_CAP))
    assert all(map(math.isfinite, proportions(ASYMPTOTIC_CAP)))
    # the next float up overflows, so no larger bound keeps the mean finite
    assert math.isinf(ASYMPTOTIC_COEFFICIENT * math.nextafter(ASYMPTOTIC_CAP, math.inf))
    # the message gives the cap to six digits, not all 309 of them
    above = r"^degree is above 1\.24752e\+308, where the leading-order mean stops being finite$"
    for n in (ASYMPTOTIC_CAP + 1, 10**400):
        with pytest.raises(ValueError, match=above):
            asymptotic_noncommuting(n)
        with pytest.raises(ValueError, match=above):
            proportions(n)
    for f in (asymptotic_noncommuting, proportions):
        with pytest.raises(ValueError, match=r"^degree must be at least 3, got 2$"):
            f(2)


def test_expectation_report_methods_agree():
    for n in (3, 4, 5, 6):
        closed = expectation_report(n, "closed_form")
        dp = expectation_report(n, "dp")
        enum = expectation_report(n, "enumeration")
        assert closed.e_commutations == dp.e_commutations == enum.e_commutations
        assert closed.e_noncommuting == dp.e_noncommuting == enum.e_noncommuting
        assert {closed.method, dp.method, enum.method} == {
            "closed_form",
            "dp",
            "enumeration",
        }
        assert closed.float_value == float(closed.e_commutations)


def test_enumeration_report_counts_pairs_as_word_stats_does(words_of_longest):
    for n in range(3, 6):
        words = words_of_longest(n)
        mean = Fraction(sum(word_stats(w).noncommuting for w in words), len(words))
        assert expectation_report(n, "enumeration").e_noncommuting == mean


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


@pytest.mark.parametrize(
    "call, args",
    [
        (expected_noncommuting, (1,)),
        (expected_noncommuting_float, (1,)),
        (expected_noncommuting_product_form, (1,)),
        (expected_braids_by_counts, (1,)),
        (conjugate, ((1, 2),)),
        (tableau_ratio, (2, 1)),
        (tableau_ratio, (5, 4)),
        (CountingSession, (0,)),
        (run_all, (2,)),  # the CLI checks --max-n before the library can
        (run_all, (11,)),
    ],
)
def test_invalid_arguments_are_refused(call, args):
    with pytest.raises(ValueError):
        call(*args)


@pytest.mark.parametrize(
    "call, n",
    [
        (longest_element, 1.5),
        (longest_element, True),
        (run_all, 3.5),
        (run_all, 4.0),
        (identity, 1.5),
        (staircase, 1.5),
        pytest.param(lambda n: evaluate(n, ()), 1.5, id="evaluate-1.5"),
        (expected_noncommuting, 5.0),
        (expected_noncommuting_float, 5.0),
        (expected_noncommuting_float, 20000.5),
        (expected_commutations_float, 400.0),
        (expected_noncommuting_product_form, 5.0),
        pytest.param(lambda n: sigma(n, 1), 5.0, id="sigma-5.0"),
        (expected_braids_by_counts, 4.0),
        (expectation_report, 5.0),
        pytest.param(lambda n: expectation_report(n, "dp"), 5.0, id="expectation_report_dp-5.0"),
        pytest.param(lambda n: tableau_ratio(n, 1), 4.0, id="tableau_ratio-4.0"),
        (asymptotic_noncommuting, 800.0),
        (proportions, 800.0),
        pytest.param(lambda n: sample_word(n, trial_generator(0, 0)), 5.0, id="sample_word-5.0"),
        pytest.param(lambda n: monte_carlo(n, 10, 0), 5.0, id="monte_carlo-5.0"),
        pytest.param(lambda n: monte_carlo(n, 10**7, 0), 20.0, id="monte_carlo-20.0-past-cap"),
        pytest.param(lambda n: hook_length_count((n, 1)), 2.0, id="hook_length_count-2.0"),
        pytest.param(lambda n: hook_length_count((n, 1)), True, id="hook_length_count-True"),
        (half_integer_ratio, 2.0),
        (double_factorial, 5.0),
        (double_factorial, True),
    ],
)
def test_non_int_degrees_are_refused(call, n):
    # each used to die with TypeError, or to return a value for True or a float
    with pytest.raises(ValueError, match="int"):
        call(n)
