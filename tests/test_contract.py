"""One input contract for the public API of longword.

Every public function in the `longword` namespace, fed a bad value in one
argument while the others stay valid, ends in a result, a `ValueError` or
a `ResourceCapError`, and does so within TIME_BOUND seconds.  Each
argument takes the values of BAD in turn; an argument that reads a
sequence (a permutation, a shape, a word or the pair of rows) also takes
the one-entry tuples of BAD_ENTRIES.  A value that is not exactly an int
(a float, a bool, a string, None or a tuple) is refused everywhere, as no
argument takes one, except by the predicate `is_permutation`, which
answers False.

Exclusions, named here so that nothing is skipped silently:
- the record and exception classes (RECORDS_AND_EXCEPTIONS), which
  validate nothing a caller passes to them;
- the `session` of `monte_carlo` and `sample_word`, accepted and ignored
  for the benchmark's callers (EXCLUDED);
- the O(n) builders (BUILDERS): their output has n entries by design and
  they have no cap, so a degree of 10**400 raises `OverflowError`, the
  one documented exception at that value.
"""

import inspect
import random
import time
import types
from collections.abc import Iterator

import pytest

import longword
from longword import ResourceCapError

HUGE = 10**400
BAD = {"-1": -1, "0": 0, "1.5": 1.5, "True": True, "'a'": "a", "None": None, "10**400": HUGE}
BAD_ENTRIES = {"(1.5,)": (1.5,), "('a',)": ("a",), "(True,)": (True,), "(None,)": (None,)}
TIME_BOUND = 5.0

# Valid keyword arguments of every public callable; methods of a
# CountingSession run on a session of degree 3.
VALID = {
    "apply_simple_left": {"i": 1, "w": (3, 2, 1)},
    "asymptotic_noncommuting": {"n": 5},
    "conjugate": {"shape": (3, 2, 1)},
    "count_words": {"w": (3, 2, 1)},
    "CountingSession": {"n": 3},
    "CountingSession.count": {"w": (3, 2, 1)},
    "CountingSession.prefix_probability": {"w": (3, 2, 1), "prefix": (1,)},
    "delete_corners": {"shape": (3, 2, 1), "rows": (1, 2)},
    "double_factorial": {"m": 5},
    "enumerate_words": {"w": (3, 2, 1)},
    "evaluate": {"n": 3, "letters": (1, 2, 1)},
    "expectation_report": {"n": 5, "method": "closed_form"},
    "expected_braids": {},
    "expected_commutations": {"n": 5},
    "expected_commutations_float": {"n": 5},
    "expected_noncommuting": {"n": 5},
    "expected_noncommuting_float": {"n": 5},
    "half_integer_ratio": {"i": 2},
    "hook_grid": {"shape": (3, 2, 1)},
    "hook_length_count": {"shape": (3, 2, 1)},
    "identity": {"n": 3},
    "is_permutation": {"seq": (2, 1)},
    "is_vexillary": {"w": (3, 2, 1)},
    "left_descents": {"w": (3, 2, 1)},
    "length": {"w": (3, 2, 1)},
    "longest_element": {"n": 3},
    "monte_carlo": {"n": 4, "trials": 3, "seed": 0, "workers": 1},
    "prefix_probability": {"w": (3, 2, 1), "prefix": (1,)},
    "proportions": {"n": 5},
    "rotate": {"n": 3, "letters": (1, 2, 1)},
    "run_all": {"max_n": 3},
    "sample_word": {"n": 4, "rng": random.Random(0)},
    "shape_of": {"w": (3, 2, 1)},
    "sigma": {"n": 5, "j": 2},
    "staircase": {"n": 3},
    "tableau_ratio": {"n": 5, "j": 2},
    "trial_generator": {"seed": 0, "index": 0},
    "two_step_lowering": {"n": 5, "j": 2},
    "word_stats": {"letters": (1, 2, 1)},
}
SEQUENCES = {
    ("apply_simple_left", "w"),
    ("conjugate", "shape"),
    ("count_words", "w"),
    ("CountingSession.count", "w"),
    ("CountingSession.prefix_probability", "w"),
    ("CountingSession.prefix_probability", "prefix"),
    ("delete_corners", "shape"),
    ("delete_corners", "rows"),
    ("enumerate_words", "w"),
    ("evaluate", "letters"),
    ("hook_grid", "shape"),
    ("hook_length_count", "shape"),
    ("is_permutation", "seq"),
    ("is_vexillary", "w"),
    ("left_descents", "w"),
    ("length", "w"),
    ("prefix_probability", "w"),
    ("prefix_probability", "prefix"),
    ("rotate", "letters"),
    ("shape_of", "w"),
    ("word_stats", "letters"),
}
EXCLUDED = {("monte_carlo", "session"), ("sample_word", "session")}
BUILDERS = {"identity", "longest_element", "staircase", "evaluate", "two_step_lowering"}
RECORDS_AND_EXCEPTIONS = {
    "CheckResult",
    "ExpectationReport",
    "HookGrid",
    "SampleSummary",
    "WordStats",
    "NotReducedError",
    "ResourceCapError",
}


def _target(name):
    owner, _, method = name.partition(".")
    if method:
        return getattr(getattr(longword, owner)(3), method)
    return getattr(longword, name)


def _public(kind):
    return {
        name
        for name, obj in vars(longword).items()
        if not name.startswith("_") and kind(obj) and not isinstance(obj, types.GenericAlias)
    }


def test_every_public_callable_is_covered():
    assert _public(inspect.isfunction) | {"CountingSession"} == {
        name.partition(".")[0] for name in VALID
    }
    assert _public(inspect.isclass) == RECORDS_AND_EXCEPTIONS | {"CountingSession"}
    for name, valid in VALID.items():
        parameters = set(inspect.signature(_target(name)).parameters)
        assert parameters == set(valid) | {a for n, a in EXCLUDED if n == name}, name
        _target(name)(**valid)


def _cases():
    for name, valid in VALID.items():
        for arg in valid:
            values = BAD | (BAD_ENTRIES if (name, arg) in SEQUENCES else {})
            for label, value in values.items():
                yield pytest.param(name, arg, value, id=f"{name}-{arg}={label}")


@pytest.mark.parametrize("name, arg, value", _cases())
def test_every_input_ends_in_a_result_or_a_refusal(name, arg, value):
    started = time.perf_counter()
    try:
        result = _target(name)(**{**VALID[name], arg: value})
        if isinstance(result, Iterator):
            list(result)
        if type(value) is not int:
            assert name == "is_permutation" and result is False, result
    except (ValueError, ResourceCapError):
        pass
    except OverflowError:
        if not (name in BUILDERS and arg == "n" and value is HUGE):
            raise
    assert time.perf_counter() - started < TIME_BOUND


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: longword.sigma(5, 1.5), "index must be an int, got 1.5"),
        (lambda: longword.tableau_ratio(5, True), "index must be an int, got True"),
        (lambda: longword.half_integer_ratio(-1), "i must be at least 0, got -1"),
        (lambda: longword.apply_simple_left(3, (2, 1, 3)), "simple index must lie in [1, 2], got 3"),
        (lambda: longword.run_all(11), "max_n must lie in [3, 10], got 11"),
        (lambda: longword.monte_carlo(4, 1.5, 0), "trials must be an int, got 1.5"),
        (lambda: longword.count_words(None), "permutation must be a sequence, got None"),
        (lambda: longword.hook_length_count(3), "shape must be a sequence, got 3"),
        (lambda: longword.word_stats(None), "letters must be a sequence, got None"),
        (lambda: longword.evaluate(3, 1), "letters must be a sequence, got 1"),
        (lambda: longword.prefix_probability((2, 1), None), "prefix must be a sequence, got None"),
    ],
)
def test_a_refusal_names_the_argument(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message
