"""Concrete semigroups: construction oracles and closed-form Green answers.

Every structure the test suite analyzes is built here, either as an explicit
multiplication table or as an Oracle for the engine's enumerator.  Where a
closed-form Green criterion is known, it is exposed next to the construction
so the engine's two general algorithms can be cross-validated against it.
"""

from __future__ import annotations

import random
import re
from typing import Iterable, Optional, Sequence

from .engine import (BallEnumeration, FiniteSemigroup, Oracle, Witnesses,
                     adjoin_identity, ball_enumerate, direct_product,
                     enumerate_oracle)
from .limits import LIMITS, at_least, need
from .munn import FisTriple, triple_inverse, triple_multiply

# ---------------------------------------------------------------------------
# bicyclic monoid


def bicyclic_mult(x: tuple, y: tuple) -> tuple:
    """(m,n)(p,q) = (m - n + max(n,p), q - p + max(n,p))."""
    m, n = x
    p, q = y
    k = max(n, p)
    return (m - n + k, q - p + k)


def bicyclic_invert(x: tuple) -> tuple:
    m, n = x
    return (n, m)


def bicyclic_green(x: tuple, y: tuple, relation: str) -> bool:
    """Closed form: L compares second coordinates, R first; the monoid is
    bisimple, so D and J relate everything."""
    relation = relation.upper()
    if relation == "L":
        return x[1] == y[1]
    if relation == "R":
        return x[0] == y[0]
    if relation == "H":
        return x == y
    if relation in ("D", "J"):
        return True
    raise ValueError(f"unknown relation {relation!r}")


def bicyclic_oracle() -> Oracle:
    return Oracle(bicyclic_mult, unary=bicyclic_invert,
                  name=lambda e: f"({e[0]},{e[1]})")


def bicyclic_ball(radius: int) -> BallEnumeration:
    """Ball of the bicyclic monoid on generators (0,0), (1,0), (0,1).  The
    identity (0,0) = (0,1)·(1,0) is listed first, so it is element 0, at
    radius 1, with word (0,).  Its (r+1)(r+2)/2 elements are checked
    against the ``pool_elements`` limit before any product: every witnessed
    analysis extends the ball to a pool at least as large."""
    if radius >= 1:
        need("pool_elements", (radius + 1) * (radius + 2) // 2)
    return ball_enumerate(bicyclic_oracle(), [(0, 0), (1, 0), (0, 1)], radius)


# ---------------------------------------------------------------------------
# five-element Brandt semigroup


def b2() -> FiniteSemigroup:
    """B2 = {a, a', aa', a'a, 0} with a^2 = 0, realized by 2x2 matrix units.

    Elements are coded as (i, j) pairs with (i,j)(k,l) = (i,l) when j = k
    and 0 otherwise; the unary operation transposes.
    """
    elems = [(1, 2), (2, 1), (1, 1), (2, 2), None]
    names = ["a", "a'", "aa'", "a'a", "0"]
    pos = {e: i for i, e in enumerate(elems)}

    def mul(x, y):
        if x is None or y is None:
            return None
        return (x[0], y[1]) if x[1] == y[0] else None

    right = [[pos[mul(x, g)] for g in elems[:2]] for x in elems]
    unary = [pos[None if x is None else (x[1], x[0])] for x in elems]
    return FiniteSemigroup(right, [0, 1], names=names, keys=elems,
                           unary=unary)


def b2_with_identity() -> FiniteSemigroup:
    return adjoin_identity(b2())


# ---------------------------------------------------------------------------
# monogenic monoids N_p


def monogenic_monoid(p: int) -> FiniteSemigroup:
    """N_p: p + 1 elements 1, a, ..., a^p with a^i a^j = a^min(i+j, p)."""
    at_least("index", p)
    n = p + 1
    # Also bounds idempotents(), whose shortest words cost O(n^2) on a chain.
    need("table_cells", n * n, n=n)
    right = [[i, min(i + 1, p)] for i in range(n)]
    names = ["1"] + [f"a^{i}" if i > 1 else "a" for i in range(1, n)]
    return FiniteSemigroup(right, [0, 1], names=names)


# ---------------------------------------------------------------------------
# P = (Z, o): completely regular, L-finite, not R-finite


def p_mult(m: int, n: int) -> int:
    """m o n = m + n when m is even, m when m is odd."""
    return m + n if m % 2 == 0 else m


def p_unary(m: int) -> int:
    """x' is -x for even x and x for odd x; then x o x' is the idempotent
    of the H-class of x."""
    return -m if m % 2 == 0 else m


def p_green(a: int, b: int, relation: str) -> bool:
    """Closed form: the L-classes are the evens and the odds; the R- and
    H-classes are the evens and odd singletons; D = J = L."""
    relation = relation.upper()
    even = a % 2 == 0 and b % 2 == 0
    if relation in ("L", "D", "J"):
        return even or (a % 2 == 1 and b % 2 == 1)
    if relation in ("R", "H"):
        return even or a == b
    raise ValueError(f"unknown relation {relation!r}")


class PWindow:
    """A finite window of P = (Z, o) usable as an identity-check structure.

    The operation is total on Z so term evaluation never leaves the
    semigroup; the window only bounds the assignments quantified over.
    """

    def __init__(self, n: int):
        at_least("window bound", n)
        self.n = n
        self.elements = range(-n, n + 1)
        self.completely_regular = True
        self.zero_element = None

    mult = staticmethod(p_mult)
    unary = staticmethod(p_unary)

    @staticmethod
    def row(m: int, ns: Sequence[int]) -> list:
        """[m o n for n in ns]: m's row is a shift when m is even and
        constant when m is odd."""
        return list(map(m.__add__, ns)) if m % 2 == 0 else [m] * len(ns)

    @staticmethod
    def vmult(ms: Iterable[int], ns: Iterable[int]) -> list:
        """[m o n for m, n in zip(ms, ns)]."""
        return [m if m & 1 else m + n for m, n in zip(ms, ns)]

    @staticmethod
    def idem(m: int) -> int:
        """m o m': m for odd m, 0 for even m."""
        return m if m & 1 else 0

    @staticmethod
    def idpow(ms: Iterable[int]) -> list:
        """[m o m' for m in ms]: m for odd m, 0 for even m."""
        return [m if m & 1 else 0 for m in ms]

    @staticmethod
    def vunary(ms: Iterable[int]) -> list:
        """[m' for m in ms]: m for odd m, -m for even m."""
        return [m if m & 1 else -m for m in ms]

    def __repr__(self) -> str:
        return f"PWindow({self.n})"


def p_witnesses(window: int,
                margin: int = LIMITS["witness_margin"]) -> Witnesses:
    """Witness searches in P with the unlabelled multipliers
    [-margin*window, margin*window], all usable at the window's one radius
    (on balls, a multiplier of length l is usable from radius
    ceil(l / margin)).  A pool over the ``pool_elements`` limit raises
    BudgetError before it is built.
    """
    at_least("margin", margin)
    reach = margin * window
    need("pool_elements", 2 * reach + 1, "witnessed analysis needs {amount} "
         "multipliers, over the budget of {limit}")
    return Witnesses(Oracle(p_mult), range(-reach, reach + 1))


def p_witnessed_related(a: int, b: int, relation: str, window: int,
                        margin: int = LIMITS["witness_margin"]
                        ) -> Optional[dict]:
    """Witnesses in P that a and b are related, or None: one query of a
    fresh ``p_witnesses``."""
    return p_witnesses(window, margin).related(a, b, relation)


def p_window_green_counts(window: int, relation: str,
                          margin: int = LIMITS["witness_margin"]) -> int:
    """Number of witnessed classes among the window elements: the
    one-radius adapter of ``engine.Witnesses.partition``.  The elements
    [-window, window] enter at radius 1 and the multipliers
    [-margin*window, margin*window] are usable from radius 1; on balls an
    element enters at its word length and a multiplier of length l is
    usable from radius ceil(l / margin).  The source pairs against the
    ``witness_pairs`` limit, then the pool, are checked before any list is
    built.
    """
    at_least("margin", margin)
    reach = margin * window
    sources = 2 * (reach if relation.upper() == "D" else window) + 1
    need("witness_pairs", sources ** 2)
    counts, _ = p_witnesses(window, margin).partition(
        range(-window, window + 1), [1] * (2 * window + 1),
        [1] * (2 * reach + 1), relation, 1)
    return counts[1]


# ---------------------------------------------------------------------------
# trivial families


def right_zero(n: int) -> FiniteSemigroup:
    """x y = y; one R-class, singleton L-classes.  Bands carry x' = x."""
    at_least("size", n)
    need("table_cells", n * n, n=n)
    table = [list(range(n)) for _ in range(n)]
    return FiniteSemigroup(table, range(n),
                           names=[f"r{i + 1}" for i in range(n)],
                           unary=range(n))


def left_zero(n: int) -> FiniteSemigroup:
    """x y = x; one L-class, singleton R-classes."""
    at_least("size", n)
    need("table_cells", n * n, n=n)
    table = [[i] * n for i in range(n)]
    return FiniteSemigroup(table, range(n),
                           names=[f"l{i + 1}" for i in range(n)],
                           unary=range(n))


def null_semigroup(n: int) -> FiniteSemigroup:
    """All products are the zero; n counts the zero element."""
    at_least("size", n)
    need("table_cells", n * n, n=n)
    letters = range(1, n) or [0]
    names = ["0"] + [f"b{i}" for i in range(1, n)]
    return FiniteSemigroup([[0] * len(letters) for _ in range(n)], letters,
                           names=names)


# ---------------------------------------------------------------------------
# transformation semigroups


def transformation_oracle(n: int) -> Oracle:
    # Right action: x (fg) = (x f) g.
    return Oracle(lambda f, g: tuple(map(g.__getitem__, f)),
                  name=("%d" * n).__mod__)


def transformation_semigroup(n: int, maps: Iterable[Sequence[int]]):
    """Closure of total maps on [n] under composition, within the
    ``transf_points`` and ``closure_elements`` limits."""
    need("transf_points", n)
    maps = [tuple(m) for m in maps]
    for m in maps:
        if len(m) != n or any(not (0 <= x < n) for x in m):
            raise ValueError("maps must be total on the domain")
    return enumerate_oracle(transformation_oracle(n), maps,
                            max_elements=LIMITS["closure_elements"])


def random_transformation_semigroup(n: int, seed: int, k: int):
    """Closure of k maps on [n] drawn from ``random.Random(seed)``.  The
    maps are drawn lazily, after the domain and generator budgets pass."""
    need("closure_elements", k)
    rng = random.Random(seed)
    maps = (tuple(rng.randrange(n) for _ in range(n)) for _ in range(k))
    return transformation_semigroup(n, maps)


# ---------------------------------------------------------------------------
# square-free machinery


_MORPHISM = {"a": "abc", "b": "ac", "c": "b"}


def squarefree_word(length: int) -> str:
    """Prefix of the ternary square-free fixed point of a->abc, b->ac, c->b.

    The morphism is prolongable on 'a', so each iterate is a prefix of the
    next and prefixes of the fixed point are obtained by iterating until
    long enough.
    """
    at_least("length", length)
    w = "a"
    while len(w) < length:
        w = "".join(_MORPHISM[ch] for ch in w)
    return w[:length]


def has_square_factor(w: str) -> bool:
    """Whether w has a factor uu with u nonempty.

    Each letter is one fixed-width code: a Latin-1 byte when every letter
    fits in one, else its 4-byte UTF-32 code.  For each half length p, w's
    codes XORed with those of w shifted by p are zero exactly where
    w[j] = w[j + p], so a square of half length p is p zero codes in a row:
    a run of zero bytes that starts on a code boundary.
    """
    latin = w.isascii() or max(w) <= "\xff"
    width, codec = (1, "latin-1") if latin else (4, "utf-32-le")
    n = len(w)
    size = width * n
    whole = int.from_bytes(w.encode(codec, "surrogatepass"), "little")
    for p in range(1, n // 2 + 1):
        diff = (whole ^ (whole >> 8 * width * p)).to_bytes(size, "little")
        run, end = bytes(width * p), width * (n - p)
        i = diff.find(run, 0, end)
        while i > 0 and i % width:
            i = diff.find(run, i - i % width + width, end)
        if i >= 0:
            return True
    return False


def _stable_factor_set(cap: int) -> set:
    """Factors of the reference word of length <= cap, collected from
    doubling prefixes until two successive rounds agree."""
    base = max(64, 8 * cap)
    prev = None
    k = 0
    while True:
        prefix = squarefree_word(base * (2 ** k))
        factors = {prefix[i:i + l]
                   for l in range(1, cap + 1)
                   for i in range(len(prefix) - l + 1)}
        if prev is not None and factors == prev:
            return factors
        prev = factors
        k += 1


def _word_quotient(words: Sequence[str], letters: Sequence[str]) -> FiniteSemigroup:
    """The words plus a zero, with u * v = uv when the concatenation is
    again a word and 0 otherwise.

    The word set must be factor-closed.  Then every word is reached from
    its letters through its prefixes, so the semigroup is held as its right
    Cayley graph u -> uc alone.  The letters that are words generate; with
    none, the zero does.  The table budget is checked on the element
    count, so the table can always be filled when read.
    """
    elems = list(words) + ["0"]
    need("table_cells", len(elems) ** 2, n=len(elems))
    pos = {w: i for i, w in enumerate(elems)}
    zero = pos["0"]
    letters = [c for c in letters if c in pos]
    gens = [pos[c] for c in letters] or [zero]
    right = [[pos.get(u + c, zero) for c in letters] for u in words]
    right.append([zero] * len(gens))
    return FiniteSemigroup(right=right, letters=gens, names=elems)


def sw_semigroup(cap: int) -> FiniteSemigroup:
    """Finite stand-in for the square-free-factor semigroup: the factors of
    the reference word of length <= cap plus a zero, with u * v = uv when
    the concatenation is again an element and 0 otherwise.

    A square-free ternary word is aperiodic, so it has at least l + 1
    factors of each length l (Morse-Hedlund): the table budget is checked
    on that lower bound before the factors are collected."""
    at_least("cap", cap)
    size = cap * (cap + 3) // 2 + 1
    need("table_cells", size * size, n=size)
    factors = sorted(_stable_factor_set(cap), key=lambda w: (len(w), w))
    return _word_quotient(factors, "abc")


# ---------------------------------------------------------------------------
# pattern instances and free objects of [u = 0]


def pattern_instance_free(w: str, pattern: str) -> bool:
    """True when no factor of w is the image of the pattern under a
    substitution sending each variable to a nonempty word.

    The pattern compiles to a backreference regex: a group ``(.+)`` at each
    variable's first occurrence and a backreference to it after that.  Its
    backtracking is exponential in the worst case, so desk-scale caps are
    enforced.
    """
    if not pattern:
        raise ValueError("pattern must be nonempty")
    need("pattern_word", len(w))
    need("pattern_letters", len(pattern))
    groups: dict = {}
    parts = []
    for var in pattern:
        if var in groups:
            parts.append(f"\\{groups[var]}")
        else:
            groups[var] = len(groups) + 1
            parts.append("(.+)")
    return re.search("".join(parts), w, re.S) is None


def free_nil(pattern: str, letters: int, cap: int) -> FiniteSemigroup:
    """Capped n-generated free object of the variety [u = 0].

    Nonzero elements are the pattern-instance-free words of length <= cap,
    at most the ``free_elements`` limit of them; products concatenate,
    falling to 0 on a pattern instance.  Words longer than the cap also
    map to 0, so the cap acts as a Rees quotient of the true free object
    (recorded in the name).
    """
    if letters < 1 or letters > 26:
        raise ValueError("letters out of range")
    alphabet = [chr(ord("a") + i) for i in range(letters)]
    words: list = []
    frontier = [c for c in alphabet if pattern_instance_free(c, pattern)]
    words.extend(frontier)
    while frontier and len(frontier[0]) < cap:
        nxt = []
        for w in frontier:
            for c in alphabet:
                wc = w + c
                if pattern_instance_free(wc, pattern):
                    nxt.append(wc)
        words.extend(nxt)
        frontier = nxt
        need("free_elements", len(words))
    return _word_quotient(words, alphabet)


# ---------------------------------------------------------------------------
# M_n: Rees quotients of the free monogenic inverse semigroup


def mn_size(n: int) -> int:
    """|M_n| = 1 + sum of (span + 1)^2 over spans 1..n-1, in closed form."""
    return n * (n + 1) * (2 * n + 1) // 6


_MN_LETTERS = ((0, 1, 1), (1, 0, -1))    # a and a^-1 as triples


def mn_table(n: int) -> FiniteSemigroup:
    """M_n: the one-letter Munn triples of span < n plus a zero.

    An element lies in the collapsed ideal exactly when its span reaches n:
    the generator of the ideal has span n and left or right multiplication
    never shrinks the span.  Elements are ordered by (span, r, t), zero
    last.  Only the right Cayley graph, two triple products per nonzero
    element, is multiplied out, on plain (r, s, t) tuples, and the
    semigroup is held as that graph; its keys are ``FisTriple``s.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    need("table_cells", mn_size(n) ** 2, n=mn_size(n))
    triples = [(r, span - r, t)             # in (span, r, t) order
               for span in range(1, n)
               for r in range(span + 1)
               for t in range(-r, span - r + 1)]
    pos = {x: i for i, x in enumerate(triples)}
    zero = len(triples)
    # A product of span n or more is not in pos: it lies in the ideal.
    right = [[pos.get(triple_multiply(x, g), zero) for g in _MN_LETTERS]
             for x in triples]
    right.append([zero, zero])
    unary = [pos[triple_inverse(x)] for x in triples] + [zero]
    names = [f"({r},{s},{t})" for r, s, t in triples] + ["0"]
    keys = [FisTriple(*x) for x in triples] + ["0"]
    return FiniteSemigroup(right=right, letters=[pos[g] for g in _MN_LETTERS],
                           names=names, keys=keys, unary=unary)


def mn_size_brute(n: int) -> int:
    """Independent count of |M_n| by walking one-letter words.

    States are (low, high, position) walk profiles, exactly the one-letter
    Munn trees; breadth-first closure over the two unit steps enumerates
    every element of span below n without using the triple product law.
    """
    start = (0, 0, 0)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for lo, hi, pos in frontier:
            for step in (1, -1):
                p = pos + step
                state = (min(lo, p), max(hi, p), p)
                if state[1] - state[0] >= n:
                    continue
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
        frontier = nxt
    # The empty-walk start state is not an element; the adjoined zero is.
    return (len(seen) - 1) + 1


# ---------------------------------------------------------------------------
# zoo spec strings


def parse_zoo(spec: str):
    """CLI construction strings.

    b2, b2^1, mn:<n>, np:<p>, pz:<window>, rz:<n>, lz:<n>, null:<n>,
    sw:<cap>, freenil:<pattern>:<letters>:<cap>, bicyclic:<radius>,
    prod:<spec>,<spec>,..., transf:<n>:<seed>:<k>.
    """
    spec = spec.strip()
    if spec == "b2":
        return b2()
    if spec == "b2^1":
        return b2_with_identity()
    head, _, rest = spec.partition(":")
    # Looked up per call, so a wrapped module attribute is the one called.
    one_number = {"mn": mn_table, "np": monogenic_monoid, "pz": PWindow,
                  "rz": right_zero, "lz": left_zero, "null": null_semigroup,
                  "sw": sw_semigroup, "bicyclic": bicyclic_ball}
    try:
        if head in one_number:
            return one_number[head](_number(rest))
        if head == "freenil":
            pattern, letters, cap = rest.split(":")
            return free_nil(pattern, _number(letters), _number(cap))
        if head == "transf":
            n, seed, k = (_number(x) for x in rest.split(":"))
            return random_transformation_semigroup(n, seed, k)
        if head == "prod":
            parts = _split_product(rest)
            factors = []
            for part in parts:
                f = parse_zoo(part)
                if not isinstance(f, FiniteSemigroup):
                    raise ValueError(
                        f"product factor {part!r} is not a closed table")
                factors.append(f)
            return direct_product(factors)
    except ValueError as exc:  # BudgetError included
        raise ValueError(f"bad zoo spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown zoo spec {spec!r}")


def _number(field: str) -> int:
    """A numeric spec field, refused by the ``spec_digits`` limit before
    int() reads it (int() has a digit limit of its own, with its own
    text)."""
    need("spec_digits", sum(map(str.isdecimal, field)))
    return int(field)


def _split_product(rest: str) -> list:
    # prod factors are comma separated; nested prod is not supported.
    if not rest:
        raise ValueError("empty product")
    parts = rest.split(",")
    if not all(p.strip() for p in parts):
        raise ValueError("empty product factor")
    return parts
