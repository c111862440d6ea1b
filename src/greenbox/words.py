"""Words over a signed alphabet.

A letter is an index into an :class:`Alphabet`.  A signed letter is a nonzero
int: ``+k`` stands for letter ``k-1`` of the alphabet, ``-k`` for its formal
inverse.  A word is a tuple of signed letters.  The empty tuple represents the
empty word; contexts that require semigroup words (Munn trees, presentations
in semigroup mode) reject it at their own boundary, not here.

Text grammar: letters are ASCII identifiers matching ``[a-z][a-z0-9]*``, an
inverse is written ``x^-1``, positive powers ``x^3``, negative powers ``x^-3``.
Adjacent factors are separated by whitespace, or by nothing when the alphabet
is known and longest-match scanning is unambiguous (single-character names).
A parsed word has at most the ``word_letters`` limit of letters.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterable, Optional

from .limits import LIMITS

Word = tuple  # tuple of nonzero ints

_NAME_RE = re.compile(r"[a-z][a-z0-9]*")
_CHUNK_RE = re.compile(r"\S+")
_INT_RE = re.compile(r"-?[0-9]+")


class WordSyntaxError(ValueError):
    """Malformed word text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class Alphabet:
    """Ordered collection of letter names, addressed by index."""

    def __init__(self, names: Iterable[str] = ()):
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        for name in names:
            self.add(name)

    def add(self, name: str) -> int:
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"invalid letter name {name!r}")
        if name in self._index:
            return self._index[name]
        self._index[name] = len(self._names)
        self._names.append(name)
        return self._index[name]

    def index(self, name: str) -> int:
        return self._index[name]

    def name(self, i: int) -> str:
        return self._names[i]

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __repr__(self) -> str:
        return f"Alphabet({self._names!r})"


def letter_index(x: int) -> int:
    """Alphabet index of a signed letter."""
    return abs(x) - 1


def invert_word(w: Word) -> Word:
    """Formal inverse: reverse the word and flip every sign."""
    return tuple(-x for x in reversed(w))


def free_reduce(w: Word) -> Word:
    """Delete factors x x^-1 until none remain.

    Free reduction is confluent, so a single stack scan yields the unique
    reduced form in linear time.
    """
    out: list[int] = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def parse_word(text: str, alphabet: Optional[Alphabet] = None, *,
               add_letters: Optional[bool] = None) -> Word:
    """Parse word text.

    With no alphabet, letters are registered in a fresh one in order of first
    appearance and factors must be whitespace-separated.  With a known
    alphabet, the scanner takes the longest registered name at each position,
    so single-character alphabets may be written glued (``aba^-1``).
    Pass ``add_letters=True`` to grow a supplied alphabet on unknown names.

    Factors never span whitespace, so the text is split once into
    whitespace-free chunks, each distinct chunk is scanned once in order of
    first appearance, and the word is joined from their letters.  The
    distinct chunks' running letter total counts toward the ``word_letters``
    limit as they are scanned; it never exceeds the word's own total, so
    what the scan holds stays within the limit and a refusal it meets is a
    real one.  New names are registered in a copy of the alphabet, kept only
    if the word is accepted.  A refused word is scanned again chunk by chunk,
    which names the first factor that is malformed or crosses the limit and
    registers the names before it, as a scan from the left would.
    """
    if alphabet is None:
        alphabet = Alphabet()
        add = True
    else:
        add = bool(add_letters)
    cap = LIMITS["word_letters"]
    chunks = text.split()
    known = len(alphabet)
    grown = Alphabet(map(alphabet.name, range(known))) if add else alphabet
    scanned: dict = {}
    distinct = 0
    try:
        for chunk in dict.fromkeys(chunks):
            letters = _scan_chunk(chunk, 0, len(chunk), grown, add, distinct)
            scanned[chunk] = letters
            distinct += len(letters)
    except WordSyntaxError:
        pass
    else:
        parts = list(map(scanned.__getitem__, chunks))
        if sum(map(len, parts)) <= cap:
            for i in range(known, len(grown)):
                alphabet.add(grown.name(i))
            return tuple(chain.from_iterable(parts))
    # Refused: a repeated chunk is scanned again only where it would cross
    # the limit, so the refusal names the factor that crosses it.
    sizes: dict = {}
    used = 0
    for m in _CHUNK_RE.finditer(text):
        size = sizes.get(m.group())
        if size is None or used + size > cap:
            size = sizes[m.group()] = len(
                _scan_chunk(text, m.start(), m.end(), alphabet, add, used))
        used += size
    raise RuntimeError("a word refused in bulk passed chunk by chunk")


def _scan_chunk(text: str, pos: int, end: int, alphabet: Alphabet, add: bool,
                used: int) -> list:
    """Letters of the chunk text[pos:end]; the ``used`` letters before it
    count toward the ``word_letters`` limit."""
    out: list[int] = []
    cap = LIMITS["word_letters"]
    while pos < end:
        m = _NAME_RE.match(text, pos)
        if m is None:
            raise WordSyntaxError(f"unexpected character {text[pos]!r}", pos)
        start = pos
        name, pos = _scan_name(m, alphabet, add)
        exponent = 1
        if pos < end and text[pos] == "^":
            m = _INT_RE.match(text, pos + 1)
            if not m:
                raise WordSyntaxError("expected integer exponent after '^'", pos + 1)
            if len(m.group().lstrip("-0")) > len(str(cap)):
                # Over budget, and maybe past int()'s digit limit.
                exponent = cap + 1
            else:
                exponent = int(m.group())
            pos = m.end()
        signed = alphabet.index(name) + 1
        if used + len(out) + abs(exponent) > cap:
            raise WordSyntaxError(f"word longer than {cap} letters", start)
        if exponent >= 0:
            out.extend([signed] * exponent)
        else:
            out.extend([-signed] * (-exponent))
    return out


def _scan_name(m: re.Match, alphabet: Alphabet, add: bool) -> tuple:
    token = m.group()
    if add:
        # Greedy identifier; factors must be whitespace-separated.
        alphabet.add(token)
        return token, m.end()
    # Longest registered name at this position.
    for k in range(len(token), 0, -1):
        if token[:k] in alphabet:
            return token[:k], m.start() + k
    raise WordSyntaxError(f"unknown letter {token!r}", m.start())


def format_word(w: Word, alphabet: Alphabet) -> str:
    """Render a word; parse_word(format_word(w), alphabet) round-trips."""
    if not w:
        return ""
    parts: list[str] = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        run = j - i
        name = alphabet.name(letter_index(w[i]))
        if w[i] > 0:
            parts.append(name if run == 1 else f"{name}^{run}")
        else:
            parts.append(f"{name}^-{run}")
        i = j
    return " ".join(parts)
