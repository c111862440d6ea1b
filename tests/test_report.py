"""The report's seeded draws against the ``random.Random`` streams they
reproduce: the draw helper call by call, and the words and shuffles of
entries c05 and c07 (c08's points are pinned in ``test_vmaps.py``)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from greenbox import munn, report

BOUNDS = st.one_of(st.integers(1, 2 ** 40),
                   st.integers(0, 40).map(lambda e: 2 ** e),
                   st.integers(0, 40).map(lambda e: 2 ** e + 1),
                   st.integers(1, 50))
CALLS = st.one_of(
    st.tuples(st.just("randrange"), BOUNDS),
    st.tuples(st.just("randint"), BOUNDS,
              st.integers(-2 ** 40, 2 ** 40)),
    st.tuples(st.just("choice"), BOUNDS),
    st.tuples(st.just("shuffle"), st.integers(0, 40)))


def draw(source, call):
    """One call of ``source``, a ``random.Random`` or a report ``_Draws``."""
    method, n, *low = call
    if method == "randrange":
        return source.randrange(n)
    if method == "randint":
        return source.randint(low[0], low[0] + n - 1)
    if method == "choice":
        return source.choice(range(n))
    items = list(range(n))
    source.shuffle(items)
    return items


@settings(max_examples=300, deadline=None)
@given(st.integers(-2 ** 64, 2 ** 64), st.lists(CALLS, min_size=1,
                                                max_size=30))
def test_draws_match_the_stdlib_streams(seed, calls):
    draws, rng = report._Draws(seed), random.Random(seed)
    for call in calls:
        assert draw(draws, call) == draw(rng, call)
    # Both consumed the same words of the Mersenne Twister stream.
    assert draws.getrandbits(64) == rng.getrandbits(64)


def test_draws_refuse_an_empty_range():
    for n in (0, -1, -2 ** 40):
        with pytest.raises(ValueError, match="empty range"):
            report._Draws(0).randrange(n)


def reference_random_word(rng, letters, max_len):
    """A report word as randint and choice drew it."""
    length = rng.randint(1, max_len)
    return tuple(rng.choice([1, -1]) * rng.randint(1, letters)
                 for _ in range(length))


def reference_munn_samples(seed):
    """c05's words and fold orders as random.Random drew them."""
    rng = random.Random(seed)
    words = [reference_random_word(rng, 3, 12) for _ in range(500)]
    orders = []
    for u in words[:100]:
        shuffles = []
        for _ in range(5):
            order = list(range(len(munn.linear_automaton(u).edges)))
            rng.shuffle(order)
            shuffles.append(order)
        orders.append(shuffles)
    return words, orders


def reference_word_pairs(seed):
    """c07's word pairs as random.Random drew them."""
    rng = random.Random(seed)
    return [(reference_random_word(rng, 2, 8), reference_random_word(rng, 2, 8))
            for _ in range(100)]


def test_c05_words_and_shuffles_match_the_stdlib_draws():
    for seed in range(10):
        assert report._munn_samples(seed) == reference_munn_samples(seed)


def test_c07_word_pairs_match_the_stdlib_draws():
    for seed in range(20):
        assert report._word_pairs(seed) == reference_word_pairs(seed)
