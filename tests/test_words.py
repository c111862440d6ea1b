import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from greenbox import words
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


# Reference parser: one character at a time over the whole text, as words
# were parsed before chunks were scanned once each.  It crashes on a
# non-ASCII lowercase letter, where parse_word reports the character.

_REF_NAME_RE = re.compile(r"[a-z][a-z0-9]*")
_REF_INT_RE = re.compile(r"-?[0-9]+")


def reference_parse_word(text, alphabet=None, *, add_letters=None):
    if alphabet is None:
        alphabet = Alphabet()
        add = True
    else:
        add = bool(add_letters)
    out = []
    pos = 0
    n = len(text)
    cap = LIMITS["word_letters"]
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if not ch.isalpha() or not ch.islower():
            raise WordSyntaxError(f"unexpected character {ch!r}", pos)
        start = pos
        name, pos = reference_scan_name(text, pos, alphabet, add)
        exponent = 1
        if pos < n and text[pos] == "^":
            m = _REF_INT_RE.match(text, pos + 1)
            if not m:
                raise WordSyntaxError("expected integer exponent after '^'",
                                      pos + 1)
            if len(m.group().lstrip("-0")) > len(str(cap)):
                exponent = cap + 1
            else:
                exponent = int(m.group())
            pos = m.end()
        signed = alphabet.index(name) + 1
        if len(out) + abs(exponent) > cap:
            raise WordSyntaxError(f"word longer than {cap} letters", start)
        if exponent >= 0:
            out.extend([signed] * exponent)
        else:
            out.extend([-signed] * (-exponent))
    return tuple(out)


def reference_scan_name(text, pos, alphabet, add):
    m = _REF_NAME_RE.match(text, pos)
    token = m.group()
    if add:
        alphabet.add(token)
        return token, m.end()
    for k in range(len(token), 0, -1):
        if token[:k] in alphabet:
            return token[:k], pos + k
    raise WordSyntaxError(f"unknown letter {token!r}", pos)


def outcome(parse, text, alphabet, add_letters):
    """What parse makes of text: the word or the error, and the alphabet's
    names afterwards."""
    try:
        got = parse(text, alphabet, add_letters=add_letters)
    except WordSyntaxError as exc:
        got = (str(exc), exc.position)
    except AttributeError:
        got = "crash"
    return got, alphabet_names(alphabet) if alphabet is not None else None


# Exponents near the limit: distinct names whose letters add up past it,
# and a repeated factor that crosses it in the middle of the text.
PIECES = ["a", "b", "ab", "c1", "^", "-", "0", "2", "7", "^-1", " ", "  ",
          "\t", "A", "9", "\u00e9", "^12345678901234567890", "a^50000",
          " x1^40000", " x2^40000", " x3^40000", " a^40000"]
texts_st = st.lists(st.sampled_from(PIECES), max_size=16).map("".join)
# No alphabet, the known alphabet a b ab (longest match), and that alphabet
# grown on unknown names.
MODES = [(lambda: None, None), (lambda: Alphabet(["a", "b", "ab"]), None),
         (lambda: Alphabet(["a", "b", "ab"]), True)]


@settings(max_examples=200, deadline=None)
@given(texts_st)
@example("a^50000 b a^50000 a^50000")
@example("c1 c1^-2 c1\u00e9")
@example("ab^2 ab ab9")
@example("x1^40000 x2^40000 x3^40000")
@example("x1^40000 a^40000 x1^40000 x2 \u00e9")
@example("a^40000 c1 a^40000 b a^40000 c2 \u00e9 x1")
def test_parse_matches_reference(text):
    for make, add_letters in MODES:
        want = outcome(reference_parse_word, text, make(), add_letters)
        got = outcome(parse_word, text, make(), add_letters)
        if want[0] == "crash":
            position = next(i for i, ch in enumerate(text)
                            if ch.isalpha() and ch.islower() and ch > "z")
            want = ((f"unexpected character {text[position]!r} "
                     f"(at position {position})", position), want[1])
        assert got == want


def test_non_ascii_letter_is_an_unexpected_character():
    for text, alphabet, position in (("\u00e9", None, 0),
                                     ("a b\u00e9", ABC, 3),
                                     ("a \u00df^2", None, 2)):
        with pytest.raises(WordSyntaxError) as err:
            parse_word(text, alphabet)
        assert str(err.value) == (f"unexpected character {text[position]!r} "
                                  f"(at position {position})")


def test_repeated_chunk_crossing_the_budget_names_its_factor():
    budget = LIMITS["word_letters"]
    third = budget // 3
    text = f"b a^{third} b a^{third} b a^{third} b"
    crossing = text.rindex("a^")
    with pytest.raises(WordSyntaxError) as err:
        parse_word(text, ABC)
    assert str(err.value) == (f"word longer than {budget} letters "
                              f"(at position {crossing})")
    with pytest.raises(WordSyntaxError) as ref:
        reference_parse_word(text, ABC)
    assert str(ref.value) == str(err.value)
    half = f"a^{budget // 2}"
    assert len(parse_word(f"{half} {half}", ABC)) == budget


def test_each_distinct_chunk_is_scanned_once(monkeypatch):
    chunks = []
    scan = words._scan_chunk

    def counted(text, pos, end, *args):
        chunks.append(text[pos:end])
        return scan(text, pos, end, *args)

    monkeypatch.setattr(words, "_scan_chunk", counted)
    assert parse_word("a b^-1 a\ta  b^-1 a^2", ABC) == (A, -B, A, A, -B, A, A)
    assert chunks == ["a", "b^-1", "a^2"]


def test_refusing_distinct_large_factors_stays_within_the_limit():
    # Without the running letter budget each distinct factor would be
    # expanded before the total is checked: about 40 MB here.
    text = " ".join(f"x{i}^99999" for i in range(50))
    alphabet = Alphabet(["a"])
    tracemalloc.start()
    try:
        with pytest.raises(WordSyntaxError) as err:
            parse_word(text, alphabet, add_letters=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == ("word longer than 100000 letters "
                              f"(at position {text.index(' x1^') + 1})")
    assert alphabet_names(alphabet) == ("a", "x0", "x1")
    assert peak < 8 * 2**20
