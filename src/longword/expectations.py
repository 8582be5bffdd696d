"""Exact and floating expectations of word statistics for the longest element.

For a uniform random reduced word of the longest element of degree n
(length ell = n(n-1)/2), the expected number of adjacent noncommuting
pairs is a sum of n-2 explicit rationals, one per possible starting
pair (j, j+1); commutations are the complement ell - 1 minus that.  The
expected number of braid windows is the constant 1 for every degree.

Two independent codings of the noncommuting expectation are provided
(per-term rationals and a product of half-integer ratios), plus a
log-gamma floating path that stays accurate far beyond the range where
exact rationals are practical to carry around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lgamma

from .permutations import longest_element
from .words import CountingSession, enumerate_words, word_stats

EXACT_CLOSED_CAP = 300
ASYMPTOTIC_COEFFICIENT = 128 / (9 * math.pi**2)

_LN2 = math.log(2)


def double_factorial(m: int) -> int:
    """Product m(m-2)(m-4)... down to 1 or 2; (-1)!! = 0!! = 1.

    >>> double_factorial(5)
    15
    >>> double_factorial(0)
    1
    """
    if m < -1:
        raise ValueError(f"double factorial needs m >= -1, got {m}")
    result = 1
    while m > 1:
        result *= m
        m -= 2
    return result


def half_integer_ratio(i: int) -> Fraction:
    """The ratio (2i+1)!! / (2^i i!), equal to 1 at i = 0.

    >>> half_integer_ratio(1)
    Fraction(3, 2)
    >>> half_integer_ratio(2)
    Fraction(15, 8)
    """
    if i < 0:
        raise ValueError(f"index must be nonnegative, got {i}")
    return Fraction(double_factorial(2 * i + 1), 2**i * factorial(i))


def sigma(n: int, j: int) -> Fraction:
    """Exact contribution of starting pair (j, j+1) to the noncommuting mean.

    Value: 1/(3 C(n,2) 2^(2n-7)) times the four ratios
    (2j-1)!!/(j-1)!, (2j+1)!!/j!, (2k-1)!!/(k-1)!, (2k+1)!!/k!
    with k = n-j-1.  Symmetric under j <-> n-1-j.

    >>> sigma(4, 1)
    Fraction(15, 8)
    >>> sigma(3, 1)
    Fraction(2, 1)
    """
    if n < 3:
        raise ValueError(f"degree must be at least 3, got {n}")
    if not 1 <= j <= n - 2:
        raise ValueError(f"index must lie in [1, {n - 2}], got {j}")
    ell = n * (n - 1) // 2
    k = n - j - 1
    value = Fraction(1, 3 * ell) * Fraction(1, 2) ** (2 * n - 7)
    value *= Fraction(double_factorial(2 * j - 1), factorial(j - 1))
    value *= Fraction(double_factorial(2 * j + 1), factorial(j))
    value *= Fraction(double_factorial(2 * k - 1), factorial(k - 1))
    value *= Fraction(double_factorial(2 * k + 1), factorial(k))
    return value


def expected_noncommuting(n: int) -> Fraction:
    """Exact mean count of adjacent noncommuting pairs, sum of sigma(n, j).

    >>> expected_noncommuting(3)
    Fraction(2, 1)
    >>> expected_noncommuting(4)
    Fraction(15, 4)
    """
    if n < 2:
        raise ValueError(f"degree must be at least 2, got {n}")
    return sum((sigma(n, j) for j in range(1, n - 1)), Fraction(0))


def expected_noncommuting_product_form(n: int) -> Fraction:
    """Same mean coded independently: 8/(3 ell) times a sum of ratio products."""
    if n < 2:
        raise ValueError(f"degree must be at least 2, got {n}")
    ell = n * (n - 1) // 2
    total = Fraction(0)
    for j in range(1, n - 1):
        total += (
            half_integer_ratio(j - 1)
            * half_integer_ratio(j)
            * half_integer_ratio(n - j - 2)
            * half_integer_ratio(n - j - 1)
        )
    return Fraction(8, 3 * ell) * total


def expected_commutations(n: int) -> Fraction:
    """Exact mean count of adjacent commuting pairs: ell - 1 minus noncommuting.

    >>> expected_commutations(3)
    Fraction(0, 1)
    >>> expected_commutations(4)
    Fraction(5, 4)
    """
    ell = n * (n - 1) // 2
    return Fraction(ell - 1) - expected_noncommuting(n)


def expected_braids() -> Fraction:
    """Mean count of braid windows in a uniform word: the constant 1."""
    return Fraction(1)


def expected_braids_by_counts(
    n: int, session: CountingSession | None = None
) -> Fraction:
    """Braid-window mean by word counts, independent of expected_braids().

    Equals (ell-2) times the probability that a uniform word starts with
    j, j+1, j or j+1, j, j+1 for some j.

    >>> expected_braids_by_counts(4)
    Fraction(1, 1)
    """
    if n < 2:
        raise ValueError(f"degree must be at least 2, got {n}")
    if session is None:
        session = CountingSession(n)
    w0 = longest_element(n)
    ell = n * (n - 1) // 2
    window = sum(
        (
            session.prefix_probability(w0, (j, j + 1, j))
            + session.prefix_probability(w0, (j + 1, j, j + 1))
            for j in range(1, n - 1)
        ),
        Fraction(0),
    )
    return (ell - 2) * window


def _ln_lower_ratio(x: int) -> float:
    # ln((2x-1)!!/(x-1)!)  via  (2x-1)!! = (2x)!/(2^x x!)
    return lgamma(2 * x + 1) - x * _LN2 - lgamma(x + 1) - lgamma(x)


def _ln_upper_ratio(x: int) -> float:
    # ln((2x+1)!!/x!)  via  (2x+1)!! = (2x+2)!/(2^(x+1) (x+1)!)
    return lgamma(2 * x + 3) - (x + 1) * _LN2 - lgamma(x + 2) - lgamma(x + 1)


def sigma_float(n: int, j: int) -> float:
    """Log-space evaluation of sigma(n, j); accurate for very large n."""
    if n < 3:
        raise ValueError(f"degree must be at least 3, got {n}")
    if not 1 <= j <= n - 2:
        raise ValueError(f"index must lie in [1, {n - 2}], got {j}")
    ell = n * (n - 1) // 2
    k = n - j - 1
    ln_value = (
        -math.log(3)
        - math.log(ell)
        - (2 * n - 7) * _LN2
        + _ln_lower_ratio(j)
        + _ln_upper_ratio(j)
        + _ln_lower_ratio(k)
        + _ln_upper_ratio(k)
    )
    return math.exp(ln_value)


def expected_noncommuting_float(n: int) -> float:
    """Floating noncommuting mean via the log-space path, any degree."""
    if n < 2:
        raise ValueError(f"degree must be at least 2, got {n}")
    return math.fsum(sigma_float(n, j) for j in range(1, n - 1))


def expected_commutations_float(n: int) -> float:
    """Floating commutation mean via the log-space path, any degree."""
    ell = n * (n - 1) // 2
    return ell - 1 - expected_noncommuting_float(n)


def asymptotic_noncommuting(n: int) -> float:
    """Leading-order noncommuting mean: 128/(9 pi^2) times n."""
    if n < 3:
        raise ValueError(f"degree must be at least 3, got {n}")
    return ASYMPTOTIC_COEFFICIENT * n


def proportions(n: int) -> tuple[float, float, float]:
    """Leading-order per-length proportions of the three statistics.

    Returns (commutations, noncommuting, braids) as
    (1, 256/(9 pi^2 n), 2/n^2).
    """
    if n < 3:
        raise ValueError(f"degree must be at least 3, got {n}")
    return (1.0, 2 * ASYMPTOTIC_COEFFICIENT / n, 2 / n**2)


@dataclass(frozen=True)
class ExpectationReport:
    """Expectations for one degree, with the method that produced them.

    Exact fields are None when the degree is beyond the exact cap and
    only the floating path was evaluated.
    """

    n: int
    e_commutations: Fraction | None
    e_noncommuting: Fraction | None
    method: str
    float_value: float
    e_braids_reference: Fraction = field(default_factory=expected_braids)

    def __post_init__(self):
        if (self.e_commutations is None) != (self.e_noncommuting is None):
            raise ValueError("exact fields must be present or absent together")
        if self.e_commutations is not None:
            ell = self.n * (self.n - 1) // 2
            if self.e_commutations + self.e_noncommuting != ell - 1:
                raise ValueError(
                    f"expectations for n={self.n} do not sum to {ell - 1}"
                )


def expectation_report(
    n: int,
    method: str = "closed_form",
    session: CountingSession | None = None,
) -> ExpectationReport:
    """Compute the commutation expectation by the requested method.

    closed_form sums the per-pair rationals (floating path beyond the
    exact cap of 300); dp uses memoized word counts through the
    starting-pair probabilities; enumeration averages over every word.
    All methods agree exactly wherever more than one applies.
    """
    if n < 2:
        raise ValueError(f"degree must be at least 2, got {n}")
    ell = n * (n - 1) // 2
    if method == "closed_form":
        if n > EXACT_CLOSED_CAP:
            return ExpectationReport(
                n, None, None, method, expected_commutations_float(n)
            )
        e_nonc = expected_noncommuting(n)
    elif method == "dp":
        if session is None:
            session = CountingSession(n)
        w0 = longest_element(n)
        start = sum(
            (session.prefix_probability(w0, (j, j + 1)) for j in range(1, n - 1)),
            Fraction(0),
        )
        e_nonc = 2 * (ell - 1) * start
    elif method == "enumeration":
        w0 = longest_element(n)
        total = 0
        words = 0
        for word in enumerate_words(w0, session=session):
            total += word_stats(word).noncommuting
            words += 1
        e_nonc = Fraction(total, words)
    else:
        raise ValueError(f"unknown method {method!r}")
    e_comm = Fraction(ell - 1) - e_nonc
    return ExpectationReport(n, e_comm, e_nonc, method, float(e_comm))
