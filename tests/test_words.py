import pytest
from hypothesis import given, strategies as st

from greenbox.limits import LIMITS
from greenbox.words import (Alphabet, WordSyntaxError, format_word,
                            free_reduce, invert_word, parse_word)

ABC = Alphabet(["a", "b", "c"])
A, B, C = 1, 2, 3


def alphabet_names(alpha):
    """The letter names of an alphabet, in index order."""
    return tuple(map(alpha.name, range(len(alpha))))


def is_reduced(w):
    return all(w[i] != -w[i + 1] for i in range(len(w) - 1))


def test_invert_single_letter():
    assert invert_word((A,)) == (-A,)


def test_invert_reverses_and_flips():
    # a b^-1 c  ->  c^-1 b a^-1
    assert invert_word((A, -B, C)) == (-C, B, -A)


def test_invert_empty():
    assert invert_word(()) == ()


def test_reduce_single_cancellation():
    assert free_reduce((A, -A)) == ()


def test_reduce_inner_cancellation():
    assert free_reduce((A, B, -B, A)) == (A, A)


def test_reduce_already_reduced():
    assert free_reduce((A, B, C)) == (A, B, C)


def test_parse_basic():
    assert parse_word("a b^-1 a", ABC) == (A, -B, A)


def test_parse_power_sugar():
    assert parse_word("a^3", ABC) == (A, A, A)


def test_parse_negative_power():
    assert parse_word("a^-2", ABC) == (-A, -A)


def test_parse_zero_power_is_empty():
    assert parse_word("a^0", ABC) == ()


def test_parse_glued_single_char_alphabet():
    assert parse_word("aba^-1", ABC) == (A, B, -A)


def test_parse_longest_match():
    alpha = Alphabet(["a", "ab"])
    assert parse_word("ab a", alpha) == (2, 1)


def test_parse_reports_position():
    with pytest.raises(WordSyntaxError) as err:
        parse_word("a ^2", ABC)
    assert err.value.position == 2


def test_parse_unknown_letter():
    with pytest.raises(WordSyntaxError):
        parse_word("a d", ABC)


def test_parse_auto_registers_letters():
    alpha = Alphabet()
    w = parse_word("foo bar^-1 foo", alpha, add_letters=True)
    assert w == (1, -2, 1)
    assert alphabet_names(alpha) == ("foo", "bar")


def test_format_round_trip():
    for text in ["a", "a b^-1 a", "a^3 b^-2 c", "b^-1"]:
        w = parse_word(text, ABC)
        assert parse_word(format_word(w, ABC), ABC) == w


words_st = st.lists(
    st.tuples(st.integers(1, 3), st.sampled_from([1, -1]))
    .map(lambda p: p[0] * p[1]),
    max_size=50).map(tuple)


@given(words_st)
def test_reduce_idempotent(w):
    assert free_reduce(free_reduce(w)) == free_reduce(w)


@given(words_st)
def test_reduce_result_is_reduced(w):
    assert is_reduced(free_reduce(w))


@given(words_st)
def test_word_times_inverse_reduces_to_empty(w):
    assert free_reduce(w + invert_word(w)) == ()


@given(words_st)
def test_invert_is_involution(w):
    assert invert_word(invert_word(w)) == w


@given(words_st, words_st)
def test_invert_is_anti_homomorphism(u, v):
    assert invert_word(u + v) == invert_word(v) + invert_word(u)


@given(words_st)
def test_printer_parser_round_trip(w):
    assert parse_word(format_word(w, ABC), ABC) == w


def test_word_length_budget():
    budget = LIMITS["word_letters"]
    assert len(parse_word(f"a^{budget}", ABC)) == budget
    assert len(parse_word(f"b a^{budget - 1}", ABC)) == budget
    assert parse_word("a^0000000000000000000003 b^-00", ABC) == (A, A, A)
    for text in (f"a^{budget + 1}", f"a^-{budget + 1}", f"a^{budget} b",
                 "a^100000000", f"c a^{budget // 2} b^-{budget // 2}",
                 "a^" + "9" * 5000, "a^-" + "9" * 5000):
        with pytest.raises(WordSyntaxError, match="longer than 100000 letters"):
            parse_word(text, ABC)
