"""Reduced words of the longest permutation: counts, statistics, sampling.

The longest element of degree n is the order-reversing permutation
(n, ..., 2, 1); its reduced words are the maximal sorting networks.
This package counts them exactly, enumerates and uniformly samples
them, and evaluates the exact and asymptotic expectations of their
adjacent-pair statistics: commutations, noncommuting pairs, and braid
windows.
"""

from .expectations import (
    ASYMPTOTIC_COEFFICIENT,
    EXACT_CAP,
    EXACT_CLOSED_CAP,
    FLOAT_CAP,
    REFERENCE_CAP,
    ExpectationReport,
    asymptotic_noncommuting,
    double_factorial,
    expectation_report,
    expected_braids,
    expected_commutations,
    expected_commutations_float,
    expected_noncommuting,
    expected_noncommuting_float,
    half_integer_ratio,
    proportions,
    sigma,
)
from .permutations import (
    Permutation,
    ResourceCapError,
    Shape,
    apply_simple_left,
    identity,
    is_permutation,
    is_vexillary,
    left_descents,
    length,
    longest_element,
    shape_of,
    two_step_lowering,
)
from .sampling import SampleSummary, monte_carlo, sample_word, trial_generator
from .tableaux import (
    HookGrid,
    conjugate,
    delete_corners,
    hook_grid,
    hook_length_count,
    staircase,
    tableau_ratio,
)
from .verify import CheckResult, run_all
from .words import (
    CountingSession,
    NotReducedError,
    Word,
    WordStats,
    count_words,
    enumerate_words,
    evaluate,
    prefix_probability,
    rotate,
    word_stats,
)

__version__ = "0.1.0"
