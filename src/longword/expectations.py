"""Exact and floating expectations of word statistics for the longest element.

For a uniform random reduced word of the longest element of degree n
(length ell = n(n-1)/2), the expected number of adjacent noncommuting
pairs is a sum of n-2 explicit rationals, one per possible starting
pair (j, j+1); commutations are the complement ell - 1 minus that.  The
expected number of braid windows is the constant 1 for every degree n >= 3.

Every closed form is built from one ratio sequence
h(x) = (2x+1)!!/(2^x x!), with h(x) = h(x-1) (2x+1)/(2x).  sigma and the
product form code the terms from half-integer ratios, as the independent
reference.  Since h(x) is the coefficient of z^x in (1-z)^(-3/2), the
mean is E(n) = 6/ell [z^(n-3)] F(z)^2 with F = 2F1(3/2, 5/2; 2; z), and
the exact mean runs a three-term recurrence for the coefficients of F^2.

F solves Euler's hypergeometric equation y'' + P y' + Q y = 0, with
P = (2 - 5z)/(z(1-z)) and Q = -(15/4)/(z(1-z)), so u = F^2 solves its
symmetric square u''' + 3P u'' + (2P^2 + P' + 4Q) u' + (4PQ + 2Q') u = 0.
Clearing denominators and taking [z^M] gives, for c_M = [z^M] F^2,

    2(M+1)(M+2)(M+3) c_(M+1) = (2M+5)(2M^2+10M+9) c_M
                               - 2(M+2)(M+3)(M+4) c_(M-1).

The recurrence runs on U(n) = (9/4) 256^(n-2) c_(n-3), which is the sum
over j of s^4 h(j-1) h(j) h(k-1) h(k) with s = 4^(n-2) and k = n-1-j.
Each s h(x) with x <= n-2 is an integer, so U(n) is one, and
E(n) = 8 U(n) / (3 ell 4^(4(n-2))).  With M = n-2 the relation reads

    (n-1) n (n+1) U(n+2) = 128 (4n^3 + 6n^2 - 4n - 3) U(n+1)
                           - 65536 n (n+1) (n+2) U(n),

from U(2) = 0 and U(3) = 576, and its division is exact.

The floating means are the exact means rounded, up to EXACT_CLOSED_CAP,
and from the asymptotic expansion above it, in O(1); _closed_forms is the
one switch between the two, for the library and the CLI.  The singular
expansion of F at z = 1 (Abramowitz-Stegun 15.3.12) carries
ln((1-z)/16), and extracting coefficients from F^2 gives, with
Lambda = ln(16 n) + Euler's constant,

    pi^2 E(n) = 128 n/9 - 64/9 + (88/3 - 16 Lambda)/n
                + (68/3 - 8 Lambda)/n^2 + (163/8 - 13 Lambda/2)/n^3
                + (919/48 - 23 Lambda/4)/n^4 + (3027/160 - 359 Lambda/64)/n^5
                + O(ln(n)/n^6).

The first dropped term, (37187/1920 - 739 Lambda/128)/(pi^2 n^6), is
-4.5e-15 at n = 301, under a tenth of an ulp of the mean there.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import count
from math import factorial
from typing import NamedTuple

from .permutations import check_cap, check_int, longest_element
from .walk import _walk_totals
from .words import CountingSession, word_stats

EXACT_CLOSED_CAP = 300
# The recurrence of expected_noncommuting(10^4) took 0.36-0.45 s in six
# fresh processes, with a 19 MiB peak (2 CPUs, Python 3.11); its cost grows
# about as n^2 (1.4 s at 2 * 10^4).  It caps only the exact rational.
EXACT_CAP = 10**4
# U(2) and U(3), the two totals that start the recurrence
_U_START = (0, 576)
REFERENCE_CAP = 2000
# Above EXACT_CLOSED_CAP the floating mean costs about 2 us at any degree, so
# this cap bounds no time.  It keeps ell - 1 below 2^53 (which n passes near
# 1.34e8), so the floating commutation mean ell - 1 - E(n) starts from an
# exact float; `expect` and `table` refuse degrees above it.
FLOAT_CAP = 10**8
# The enumeration mean folds one block of the word walk per reduced prefix
# of all but the last six letters of w0: 19,402 blocks (292,864 words) at
# n = 6 took 0.04-0.05 s, and the 54,412,488 blocks (1,100,742,656 words)
# at n = 7 would take about 110 s at the 2 us a block that the walk took
# over the first 10^6 of them (2 CPUs).  A cap on the degree refuses
# before any work.
ENUMERATE_CAP = 6
ASYMPTOTIC_COEFFICIENT = 128 / (9 * math.pi**2)
# The largest float n whose leading-order mean ASYMPTOTIC_COEFFICIENT * n is
# finite: the quotient max / coefficient itself rounds up to inf when
# multiplied back, so the bound is the float just below it (about 1.2475e308).
ASYMPTOTIC_CAP = int(math.nextafter(sys.float_info.max / ASYMPTOTIC_COEFFICIENT, 0))


def double_factorial(m: int) -> int:
    """Product m(m-2)(m-4)... down to 1 or 2; (-1)!! = 0!! = 1.

    Refuses m > 2 REFERENCE_CAP + 1, the range sigma needs, before any work.

    >>> double_factorial(5)
    15
    >>> double_factorial(0)
    1
    """
    check_int(m, -1, name="m")
    check_cap(m, 2 * REFERENCE_CAP + 1, "m")  # 4.5 s at m = 2 * 10^5 + 1 (2 CPUs)
    result = 1
    while m > 1:
        result *= m
        m -= 2
    return result


def half_integer_ratio(i: int) -> Fraction:
    """The ratio (2i+1)!! / (2^i i!), equal to 1 at i = 0.

    Refuses i > REFERENCE_CAP before any work, in double_factorial.

    >>> half_integer_ratio(1)
    Fraction(3, 2)
    >>> half_integer_ratio(2)
    Fraction(15, 8)
    """
    check_int(i, 0, name="i")
    return Fraction(double_factorial(2 * i + 1), 2**i * factorial(i))


def sigma(n: int, j: int) -> Fraction:
    """Exact contribution of starting pair (j, j+1) to the noncommuting mean.

    Value: 8/(3 ell) h(j-1) h(j) h(k-1) h(k) with k = n-j-1 and
    h = half_integer_ratio.  Symmetric under j <-> n-1-j.  Refuses
    n > REFERENCE_CAP before any work.

    >>> sigma(4, 1)
    Fraction(15, 8)
    >>> sigma(3, 1)
    Fraction(2, 1)
    """
    check_int(n, 3)
    check_int(j, 1, n - 2, "index")
    # the sum over j takes 6-8 s at n = 2000 and 50 s at 4000 (2 CPUs)
    check_cap(n, REFERENCE_CAP, "reference degree")
    ell = n * (n - 1) // 2
    k = n - j - 1
    return Fraction(8, 3 * ell) * (
        half_integer_ratio(j - 1)
        * half_integer_ratio(j)
        * half_integer_ratio(k - 1)
        * half_integer_ratio(k)
    )


def expected_noncommuting_product_form(n: int) -> Fraction:
    """Reference noncommuting mean: the sum of sigma(n, j), independent of the recurrence.

    Refuses n > REFERENCE_CAP before any work, at its first term.
    """
    check_int(n, 2)
    return sum((sigma(n, j) for j in range(1, n - 1)), Fraction(0))


def _noncommuting_means(n: int):
    """Yield the exact means E(n), E(n+1), ... of a degree n >= 2, without end.

    Runs the module docstring's recurrence on U(m) from U(2) = 0 and
    U(3) = 576: a step multiplies the two O(m)-bit totals by small integers.
    """
    u, u_next = _U_START
    m = 2
    while True:
        if m >= n:
            yield Fraction(8 * u, (3 * (m * (m - 1) // 2)) << (8 * (m - 2)))
        u, u_next = u_next, (
            128 * (4 * m**3 + 6 * m**2 - 4 * m - 3) * u_next
            - 65536 * m * (m + 1) * (m + 2) * u
        ) // ((m - 1) * m * (m + 1))
        m += 1


def expected_noncommuting(n: int) -> Fraction:
    """Exact mean count of adjacent noncommuting pairs, by the recurrence.

    Refuses n > EXACT_CAP before any work.

    >>> expected_noncommuting(3)
    Fraction(2, 1)
    >>> expected_noncommuting(4)
    Fraction(15, 4)
    """
    check_cap(check_int(n, 2), EXACT_CAP, "exact mean degree")
    return next(_noncommuting_means(n))


def expected_commutations(n: int) -> Fraction:
    """Exact mean count of adjacent commuting pairs: ell - 1 minus noncommuting.

    >>> expected_commutations(3)
    Fraction(0, 1)
    >>> expected_commutations(4)
    Fraction(5, 4)
    """
    e_nonc = expected_noncommuting(n)  # checks n before ell is formed
    return Fraction(n * (n - 1) // 2 - 1) - e_nonc


def expected_braids() -> Fraction:
    """Mean count of braid windows in a uniform word: 1 for n >= 3 (none at n = 2)."""
    return Fraction(1)


def _window_mean(n: int, m: int, stat: str) -> Fraction:
    """Mean count of the m-letter windows of a uniform word of w0 that score stat.

    Rotation (words.rotate) is a bijection on the words of w0 that moves
    letters 2..ell one place left, so each of the ell - m + 1 windows has
    the law of the first.  One walk over w0's m-letter prefixes, in a
    CountingSession of degree n, weighs each prefix's word_stats field stat
    by its word count, so what a window scores is coded only in word_stats.
    The session refuses n > DP_CAP before w0 is built.
    """
    session, w0 = CountingSession(n), longest_element(n)
    prefixes = session._prefix_counts(session._code(w0), m)
    hits = sum(c * getattr(word_stats(v), stat) for v, c in prefixes)
    return Fraction((n * (n - 1) // 2 - m + 1) * hits, session.count(w0))


def expected_braids_by_counts(n: int) -> Fraction:
    """Braid-window mean by word counts, independent of expected_braids().

    >>> expected_braids_by_counts(4)
    Fraction(1, 1)
    """
    check_int(n, 2)
    return _window_mean(n, 3, "braids")


def _noncommuting_expansion(n: int) -> float:
    """The module docstring's expansion of the noncommuting mean, in floats."""
    lam = math.log(16 * n) + 0.5772156649015329  # Euler's constant
    tail = (919 / 48 - 5.75 * lam + (3027 / 160 - 5.609375 * lam) / n) / n
    tail = (88 / 3 - 16 * lam + (68 / 3 - 8 * lam + (163 / 8 - 6.5 * lam + tail) / n) / n) / n
    # the two leading terms are 128/(9 pi^2) (n - 1/2), and n - 1/2 is exact
    return ASYMPTOTIC_COEFFICIENT * (n - 0.5) + tail / math.pi**2


def _closed_forms(n: int):
    """Yield (E, ell - 1 - E, both as floats) for the degrees n, n + 1, ... without end.

    The one exact/float switch: up to EXACT_CLOSED_CAP, one run of
    _noncommuting_means and its means rounded; above it, no exact means,
    and the floats are the expansion and ell - 1 minus it.
    """
    means = _noncommuting_means(n)
    for m in count(n):
        ell_1 = m * (m - 1) // 2 - 1
        if m > EXACT_CLOSED_CAP:
            e = _noncommuting_expansion(m)
            yield None, None, e, ell_1 - e
        else:
            e = next(means)
            c = ell_1 - e
            yield e, c, float(e), float(c)


def expected_noncommuting_float(n: int) -> float:
    """Floating noncommuting mean, for 2 <= n <= FLOAT_CAP, by _closed_forms."""
    check_cap(check_int(n, 2), FLOAT_CAP, "floating mean degree")
    return next(_closed_forms(n))[2]


def expected_commutations_float(n: int) -> float:
    """Floating commutation mean, for 2 <= n <= FLOAT_CAP, by _closed_forms."""
    check_cap(check_int(n, 2), FLOAT_CAP, "floating mean degree")
    return next(_closed_forms(n))[3]


def _check_asymptotic_degree(n: int, name: str = "degree") -> int:
    """Return n, or raise ValueError naming it; the cap is shown to 6 digits, not 309."""
    check_int(n, 3, name=name)
    if n > ASYMPTOTIC_CAP:
        raise ValueError(
            f"{name} is above {ASYMPTOTIC_CAP:.6g}, where the leading-order mean stops being finite"
        )
    return n


def asymptotic_noncommuting(n: int) -> float:
    """Leading-order noncommuting mean: 128/(9 pi^2) times n, for 3 <= n <= ASYMPTOTIC_CAP."""
    _check_asymptotic_degree(n)
    return ASYMPTOTIC_COEFFICIENT * n


def proportions(n: int) -> tuple[float, float, float]:
    """Leading-order per-length proportions of the three statistics.

    Returns (commutations, noncommuting, braids) as
    (1, 256/(9 pi^2 n), 2/n^2), for 3 <= n <= ASYMPTOTIC_CAP.
    """
    _check_asymptotic_degree(n)
    return (1.0, 2 * ASYMPTOTIC_COEFFICIENT / n, 2 / n**2)


class _ExpectationReportFields(NamedTuple):
    n: int
    e_commutations: Fraction | None
    e_noncommuting: Fraction | None
    method: str
    float_value: float


class ExpectationReport(_ExpectationReportFields):
    """Expectations for one degree, with the method that produced them.

    Exact fields are None when the degree is beyond the exact cap and
    only the floating path was evaluated.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if (self.e_commutations is None) != (self.e_noncommuting is None):
            raise ValueError("exact fields must be present or absent together")
        if self.e_commutations is not None:
            ell = self.n * (self.n - 1) // 2
            if self.e_commutations + self.e_noncommuting != ell - 1:
                raise ValueError(
                    f"expectations for n={self.n} do not sum to {ell - 1}"
                )
        return self

    # lets inspect.signature and help() show the fields, not *args
    __new__.__wrapped__ = _ExpectationReportFields.__new__

    @classmethod
    def _make(cls, iterable):
        # the inherited _make, and so _replace, would skip the check in __new__
        return cls(*iterable)


def expectation_report(n: int, method: str = "closed_form") -> ExpectationReport:
    """Compute the commutation expectation by the requested method.

    closed_form takes the first item of _closed_forms (no exact fields
    above EXACT_CLOSED_CAP); dp is _window_mean's walk over w0's 2-letter
    prefixes in the whole-group word-count table of degree n, shared,
    copied or filled as CountingSession states; enumeration averages the
    noncommuting pairs over every word, folded a block of the word walk
    at a time (a prefix and its list of suffixes, never expanded into
    words), with no word-count table.  closed_form refuses n > FLOAT_CAP,
    enumeration n > ENUMERATE_CAP and dp n > DP_CAP, with
    ResourceCapError, before any work.  All methods agree exactly
    wherever more than one applies.
    """
    check_int(n, 2)
    if method == "closed_form":
        check_cap(n, FLOAT_CAP, "floating mean degree")
        e_nonc, e_comm, _, e_float = next(_closed_forms(n))
        return ExpectationReport(n, e_comm, e_nonc, method, e_float)
    if method == "dp":
        e_nonc = _window_mean(n, 2, "noncommuting")
    elif method == "enumeration":
        check_cap(n, ENUMERATE_CAP, "enumeration degree")
        words, total = _walk_totals(longest_element(n))
        e_nonc = Fraction(total, words)
    else:
        raise ValueError(f"unknown method {method!r}")
    e_comm = Fraction(n * (n - 1) // 2 - 1) - e_nonc
    return ExpectationReport(n, e_comm, e_nonc, method, float(e_comm))
