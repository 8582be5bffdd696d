import functools

import pytest

from longword.permutations import longest_element
from longword.words import enumerate_words


@pytest.fixture(scope="session")
def words_of_longest():
    """Materialized reduced-word lists of the longest element, per degree."""
    return functools.cache(lambda n: list(enumerate_words(longest_element(n))))
