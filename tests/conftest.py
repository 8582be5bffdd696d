import pytest

from longword.permutations import longest_element
from longword.words import CountingSession, enumerate_words


@pytest.fixture(scope="session")
def sessions():
    """Shared per-degree counting sessions; the DP tables are expensive."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = CountingSession(n)
        return cache[n]

    return get


@pytest.fixture(scope="session")
def words_of_longest():
    """Materialized reduced-word lists of the longest element, per degree."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = list(enumerate_words(longest_element(n)))
        return cache[n]

    return get
