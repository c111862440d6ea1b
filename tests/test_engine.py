import functools
import itertools
import math
import random
import tracemalloc
from math import comb, factorial
from operator import itemgetter
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from greenbox import zoo
from greenbox.engine import (RELATIONS, BallEnumeration, BudgetError,
                             FiniteSemigroup, GreenStructure, Oracle, _dense,
                             _right_search, _sccs, _top_up, _UnionFind,
                             adjoin_identity, ball_enumerate, ball_witnesses,
                             direct_product, enumerate_oracle,
                             format_eggbox, green_definitional, green_scc,
                             iso_tables, parse_table, table_from_ball,
                             verify_associative, witnessed_green,
                             witnessed_related)
from greenbox.limits import LIMITS


def natural_numbers_ball(radius):
    """Ball of the free monogenic semigroup (N, +) on the generator 1."""
    return ball_enumerate(Oracle(lambda x, y: x + y), [1], radius)


def format_table(fs, generators=None):
    """The table text format that ``parse_table`` reads; its generators
    line lists ``generators``, the letters of ``fs`` by default."""
    lines = ["elements: " + " ".join(fs.names)]
    for i, nm in enumerate(fs.names):
        lines.append(f"row {nm}: " + " ".join(fs.names[x] for x in fs.table[i]))
    if fs.unary is not None:
        for i, nm in enumerate(fs.names):
            lines.append(f"unary {nm}: {fs.names[fs.unary[i]]}")
    if generators is None:
        generators = fs.letters
    lines.append("generators: " + " ".join(fs.names[g] for g in generators))
    return "\n".join(lines) + "\n"


def from_table(table, generators=None, **kw):
    """The semigroup of a full table, held as the right Cayley graph of
    ``generators`` (every element by default), sorted and deduplicated."""
    letters = (sorted(set(generators)) if generators is not None
               else list(range(len(table))))
    return FiniteSemigroup([[row[g] for g in letters] for row in table],
                           letters, **kw)


def graph_identity(fs):
    """The e with e·g = g = g·e for every letter g, hence for every
    element, or None: read off the Cayley graphs, never the table."""
    letters, left = fs.letters, fs.left
    for e, row in enumerate(fs.right):
        if row == letters and all(lg[e] == g for g, lg in zip(letters, left)):
            return e
    return None


def rees_quotient(fs, ideal):
    """Collapse a two-sided ideal to a single zero."""
    ideal = set(ideal)
    n = len(fs)
    if not ideal or not ideal <= set(range(n)):
        raise ValueError("ideal must be a nonempty set of element indices")
    for s in range(n):
        for i in ideal:
            for bad in (fs.table[s][i], fs.table[i][s]):
                if bad not in ideal:
                    raise ValueError(
                        f"not an ideal: witness pair ({fs.names[s]}, {fs.names[i]})")
    keep = [x for x in range(n) if x not in ideal]
    new_index = {x: i for i, x in enumerate(keep)}
    zero = len(keep)
    m = zero + 1

    def image(x: int) -> int:
        return new_index[x] if x not in ideal else zero

    table = [[0] * m for _ in range(m)]
    for i, x in enumerate(keep):
        for jj, y in enumerate(keep):
            table[i][jj] = image(fs.table[x][y])
        table[i][zero] = zero
        table[zero][i] = zero
    table[zero][zero] = zero
    unary = None
    if fs.unary is not None:
        unary = [image(fs.unary[x]) for x in keep] + [zero]
    names = [fs.names[x] for x in keep] + ["0"]
    gens = {image(g) for g in fs.letters}
    return from_table(table, gens, names=names, unary=unary)


def matrix_unit_oracle():
    # 2x2 matrix units plus zero: the B2 multiplication, element-level.
    def mul(x, y):
        if x is None or y is None:
            return None
        return (x[0], y[1]) if x[1] == y[0] else None
    return Oracle(mul, unary=lambda x: None if x is None else (x[1], x[0]))


def assert_green_agree(fs):
    a = green_scc(fs)
    b = green_definitional(fs)
    assert (a.h, a.l, a.r, a.d, a.j) == (b.h, b.l, b.r, b.d, b.j)
    return a


# enumeration


def test_enumerate_b2_oracle():
    fs = enumerate_oracle(matrix_unit_oracle(), [(1, 2), (2, 1)])
    assert isinstance(fs, FiniteSemigroup)
    assert len(fs) == 5


def test_enumerate_monogenic_monoid_oracle():
    oracle = Oracle(lambda i, j: min(i + j, 3))
    fs = enumerate_oracle(oracle, [0, 1])
    assert isinstance(fs, FiniteSemigroup)
    assert len(fs) == 4


def test_enumerate_bicyclic_does_not_close():
    # The radius-4 ball has 15 elements and the radius-5 ball 21.
    ball = enumerate_oracle(zoo.bicyclic_oracle(), [(0, 0), (1, 0), (0, 1)],
                            max_elements=15)
    assert ball.radius == 4
    assert isinstance(ball, BallEnumeration)
    assert not ball.closed
    # Brute closure check at this radius: some product escapes the ball.
    present = set(ball.elements)
    escapes = [zoo.bicyclic_mult(x, y)
               for x in ball.elements for y in ball.elements
               if zoo.bicyclic_mult(x, y) not in present]
    assert escapes


def test_enumeration_order_is_breadth_first_deterministic():
    ball = zoo.bicyclic_ball(3)
    assert ball.elements[0] == (0, 0)
    assert ball.elements[1:3] == [(1, 0), (0, 1)]
    assert ball.lengths == sorted(ball.lengths)


# enumeration: the resumable growth against the fresh search it replaced


def reference_ball(oracle, generators, radius, max_elements=10 ** 6):
    """A fresh breadth-first search from radius 1 that peeks one level past
    the radius without storing it; raises BudgetError as soon as it holds
    more than max_elements elements, generators included."""
    elements, words, lengths, index = [], [], [], {}

    def push(e, word, length):
        if e in index:
            return False
        index[e] = len(elements)
        elements.append(e)
        words.append(word)
        lengths.append(length)
        return True

    frontier = [len(elements) - 1 for a, g in enumerate(generators)
                if push(g, (a,), 1)]
    if len(elements) > max_elements:
        raise BudgetError("reference ball over budget")
    for length in range(2, radius + 1):
        if not frontier:
            break
        nxt = []
        for i in frontier:
            for a, g in enumerate(generators):
                if push(oracle.mult(elements[i], g), words[i] + (a,), length):
                    nxt.append(len(elements) - 1)
                    if len(elements) > max_elements:
                        raise BudgetError("reference ball over budget")
        frontier = nxt
    closed = all(oracle.mult(elements[i], g) in index
                 for i in frontier for g in generators)
    return elements, words, lengths, closed


def reference_budget_ball(oracle, generators, max_elements):
    """Fresh balls of radius 1, 2, ... until one closes or one level pushes
    the count past max_elements: the largest radius that fits, and radius
    1 when the generators alone do not."""
    radius = 1
    ball = reference_ball(oracle, generators, 1)
    while not ball[-1]:
        try:
            ball = reference_ball(oracle, generators, radius + 1,
                                  max_elements)
        except BudgetError:
            break
        radius += 1
    return radius, ball


def ball_fields(ball):
    return ball.elements, ball.words, ball.lengths, ball.closed


@st.composite
def enumeration_cases(draw):
    kind = draw(st.sampled_from(["bicyclic", "free monogenic", "T3"]))
    if kind == "bicyclic":
        return zoo.bicyclic_oracle(), [(0, 0), (1, 0), (0, 1)]
    if kind == "free monogenic":
        return Oracle(lambda x, y: x + y), [1]
    maps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 3),
                         min_size=1, max_size=3))
    identity = [(0, 1, 2)] if draw(st.booleans()) else []
    return zoo.transformation_oracle(3), identity + maps


@settings(max_examples=80, deadline=None)
@given(enumeration_cases(), st.lists(st.integers(1, 9), min_size=3,
                                     max_size=3, unique=True).map(sorted))
def test_extend_matches_fresh_enumeration(case, radii):
    oracle, generators = case
    r, mid, big = radii
    small = ball_enumerate(oracle, generators, r)
    # Grow past mid first, so the mid ball is a prefix of a longer growth.
    for radius in (big, mid):
        ext = small.extend(radius)
        fresh = ball_enumerate(oracle, generators, radius)
        assert ball_fields(ext) == ball_fields(fresh)
        assert ball_fields(fresh) == reference_ball(oracle, generators, radius)
        assert ext.radius == (r if small.closed else radius)


def test_budget_ball_matches_fresh_reenumeration():
    cases = [(zoo.bicyclic_oracle(), [(0, 0), (1, 0), (0, 1)], m)
             for m in range(1, 61)]
    cases.append((zoo.transformation_oracle(4),
                  [(1, 2, 3, 0), (1, 0, 2, 3), (0, 0, 2, 3)], 100))
    for oracle, generators, max_elements in cases:
        ball = enumerate_oracle(oracle, generators, max_elements=max_elements)
        radius, ref = reference_budget_ball(oracle, generators, max_elements)
        assert isinstance(ball, BallEnumeration)
        assert ball.radius == radius
        assert ball_fields(ball) == ref
        with (patch.dict(LIMITS, ball_elements=max_elements),
              pytest.raises(BudgetError)):
            ball_enumerate(oracle, generators, radius + 1)


@st.composite
def sizing_cases(draw):
    """A generator set under one of four oracles, as a hashable case that
    ``sizing_oracle`` builds."""
    kind = draw(st.sampled_from(["bicyclic", "maps", "cyclic", "min"]))
    if kind == "maps":
        n = draw(st.integers(3, 4))
        maps = st.tuples(*[st.integers(0, n - 1)] * n)
        return kind, n, tuple(draw(st.lists(maps, min_size=2, max_size=3)))
    if kind == "min":
        p = draw(st.integers(1, 40))
        gens = st.lists(st.integers(1, p), min_size=1, max_size=3)
        return kind, p, tuple(draw(gens))
    return kind, draw(st.integers(2, 40)), ()


def sizing_oracle(case):
    kind, n, generators = case
    if kind == "bicyclic":
        return zoo.bicyclic_oracle(), [(0, 0), (1, 0), (0, 1)]
    if kind == "maps":
        return zoo.transformation_oracle(n), list(generators)
    if kind == "cyclic":
        return Oracle(lambda x, y: (x + y) % n), [1]
    return Oracle(lambda i, j: min(i + j, n)), list(generators)


@settings(max_examples=150, deadline=None)
@given(sizing_cases(), st.integers(1, 120), st.integers(1, 12))
# The generators alone exceed the cap: a radius-1 ball, and a refusal.
# Three constant maps close among themselves, yet are no table within 2.
@example(("bicyclic", 1, ()), 2, 1)
@example(("maps", 3, ((0, 0, 0), (1, 1, 1), (2, 2, 2))), 2, 3)
# A closure of exactly cap elements, and of cap + 1.
@example(("cyclic", 12, ()), 12, 12)
@example(("cyclic", 13, ()), 12, 12)
# A repeated generator adds no element.
@example(("maps", 3, ((1, 2, 0), (1, 2, 0), (0, 0, 1))), 20, 4)
@example(("min", 5, (1, 1, 2)), 5, 5)
def test_sizing_matches_fresh_references(case, cap, radius):
    oracle, generators = sizing_oracle(case)
    # (a) The closure within cap elements is a table, else the budget ball.
    try:
        closure = reference_ball(oracle, generators, cap + 1, cap)
    except BudgetError:
        closure = None
    result = enumerate_oracle(oracle, generators, max_elements=cap)
    if closure is not None:
        # cap + 1 levels of at most cap elements: one of them was empty.
        assert closure[-1]
        assert isinstance(result, FiniteSemigroup)
        assert result.keys == closure[0]
    else:
        budget_radius, ref = reference_budget_ball(oracle, generators, cap)
        assert isinstance(result, BallEnumeration)
        assert result.radius == budget_radius
        assert ball_fields(result) == ref
    # (b) A ball is refused exactly when it holds more than cap elements.
    try:
        ref = reference_ball(oracle, generators, radius, cap)
    except BudgetError:
        ref = None
    with patch.dict(LIMITS, ball_elements=cap):
        if ref is None:
            with pytest.raises(BudgetError) as refusal:
                ball_enumerate(oracle, generators, radius)
            # (c) with the ledger's text.
            assert str(refusal.value) == f"ball exceeded {cap} elements"
        else:
            ball = ball_enumerate(oracle, generators, radius)
            assert (ball.radius, ball_fields(ball)) == (radius, ref)


def test_sizing_refusals_keep_their_text():
    oracle, generators = zoo.bicyclic_oracle(), [(0, 0), (1, 0), (0, 1)]
    for call in (lambda: enumerate_oracle(oracle, [], max_elements=0),
                 lambda: ball_enumerate(oracle, [], 0)):
        with pytest.raises(ValueError,
                           match="^generator set must be nonempty$"):
            call()
    ball = ball_enumerate(oracle, generators, 4)
    with (patch.dict(LIMITS, pool_elements=20),
          pytest.raises(BudgetError, match="^ball exceeded 20 elements$")):
        ball.extend(5)
    # The refused growth resumes under a larger limit.
    with patch.dict(LIMITS, pool_elements=21):
        assert ball_fields(ball.extend(5)) == reference_ball(
            oracle, generators, 5)


def counting_oracle(oracle):
    calls = [0]
    mult = oracle.mult

    def counted(x, y):
        calls[0] += 1
        return mult(x, y)
    oracle.mult = counted
    return oracle, calls


def test_enumeration_oracle_call_counts():
    # A closed enumeration makes one product per element and generator,
    # and the table reuses them.
    full_t4 = [(1, 2, 3, 0), (1, 0, 2, 3), (0, 0, 2, 3)]
    for generators in (full_t4, [(0, 1, 2, 3)] + full_t4):
        oracle, calls = counting_oracle(zoo.transformation_oracle(4))
        fs = enumerate_oracle(oracle, generators)
        assert (len(fs), calls[0]) == (256, 256 * len(generators))
    # A repeated generator adds no element and so gets no products.
    oracle, calls = counting_oracle(zoo.transformation_oracle(4))
    fs = enumerate_oracle(oracle, full_t4 + full_t4[:2])
    assert (len(fs), calls[0], len(fs.letters)) == (256, 256 * 3, 3)
    oracle, calls = counting_oracle(zoo.transformation_oracle(5))
    fs = enumerate_oracle(oracle, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4),
                                   (0, 0, 2, 3, 4)])
    assert (len(fs), calls[0]) == (3125, 9375)
    # The budget stop reuses its levels instead of re-enumerating them.
    oracle, calls = counting_oracle(zoo.bicyclic_oracle())
    ball = enumerate_oracle(oracle, [(0, 0), (1, 0), (0, 1)],
                            max_elements=5000)
    assert (ball.radius, len(ball)) == (98, 4950)
    assert calls[0] <= 15_150       # a row of 3 per radius-99 element
    # The closure check expands the last level only until a longer element
    # appears: rows of the 36 shorter elements and one of length 8.
    oracle, calls = counting_oracle(zoo.bicyclic_oracle())
    ball = ball_enumerate(oracle, [(0, 0), (1, 0), (0, 1)], 8)
    assert calls[0] == 3 * 37
    # Both orbits of each of the 325 pool elements, and at most a row of 3
    # per pool element to grow the pool.
    witnessed_green(ball, "D")
    assert calls[0] <= 212_225


def test_radius_below_one_rejected():
    oracle, generators = zoo.bicyclic_oracle(), [(1, 0), (0, 1)]
    for radius in (0, -4):
        with pytest.raises(ValueError, match="radius must be >= 1"):
            ball_enumerate(oracle, generators, radius)
        # A closure budget below 1 is refused by its own name.
        with pytest.raises(ValueError, match="^max_elements must be >= 1$"):
            enumerate_oracle(oracle, generators, max_elements=radius)


# table fill: the Cayley-graph fill against one oracle product per cell


def oracle_table(ball, generators):
    """Reference fill of a closed ball of ``generators``: n² oracle
    products."""
    oracle = ball.oracle
    index = {e: i for i, e in enumerate(ball.elements)}
    table = [[index[oracle.mult(x, y)] for y in ball.elements]
             for x in ball.elements]
    unary = None
    if oracle.unary is not None:
        unary = [index[oracle.unary(x)] for x in ball.elements]
    gens = {index[e] for e in generators}
    return from_table(table, gens, names=[oracle.name(e) for e in ball.elements],
                      keys=list(ball.elements), unary=unary)


def assert_fill_matches_reference(fs, ball, generators):
    assert ball.closed
    ref = oracle_table(ball, generators)
    assert fs.table == ref.table
    assert fs.unary == ref.unary
    assert fs.names == ref.names
    assert fs.keys == ref.keys
    assert fs.letters == ref.letters


def closed_ball(oracle, generators):
    return ball_enumerate(oracle, generators, 10 ** 6)


def test_fill_matches_reference_on_report_closures():
    for s in range(25):
        rng = random.Random(s)
        maps = [tuple(rng.randrange(4) for _ in range(4)) for _ in range(2)]
        fs = zoo.random_transformation_semigroup(4, s, 2)
        assert_fill_matches_reference(
            fs, closed_ball(zoo.transformation_oracle(4), maps), maps)


def test_fill_matches_reference_on_full_t4():
    maps = [(1, 2, 3, 0), (1, 0, 2, 3), (0, 0, 2, 3)]
    ball = closed_ball(zoo.transformation_oracle(4), maps)
    assert len(ball) == 256
    assert_fill_matches_reference(table_from_ball(ball), ball, maps)


def test_fill_matches_reference_on_b2_oracle():
    generators = [(1, 2), (2, 1)]
    ball = closed_ball(matrix_unit_oracle(), generators)
    assert_fill_matches_reference(table_from_ball(ball), ball, generators)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(*[st.integers(0, n - 1)] * n), min_size=1, max_size=3),
    st.booleans())))
@example((3, [(1, 2, 0), (1, 2, 0), (0, 0, 1)], True))
def test_fill_matches_reference_on_random_generators(case):
    n, maps, with_identity = case
    generators = ([tuple(range(n))] if with_identity else []) + maps
    ball = closed_ball(zoo.transformation_oracle(n), generators)
    assert_fill_matches_reference(table_from_ball(ball), ball, generators)


def closure(table, gens) -> set:
    """Subsemigroup generated by ``gens``: the right Cayley search over the
    table's generator columns.  In an associative table the generator words
    are closed under every product, so no pair needs multiplying."""
    first, later = _right_search([[row[g] for g in gens] for row in table],
                                 gens)
    return {g for g, _ in first}.union(y for y, _, _ in later)


def subsemigroup(fs, seed):
    """Closure of ``seed`` under multiplication (and unary when present).

    The product closure of the seed is re-seeded with its unary images
    until nothing new appears.  Returns (sub, embedding) where
    embedding[i] is the index in fs of element i of the subsemigroup.
    """
    seed = set(seed)
    gens = set(seed)
    current = closure(fs.table, sorted(gens))
    while fs.unary is not None:
        images = {fs.unary[x] for x in current} - current
        if not images:
            break
        gens |= images
        current = closure(fs.table, sorted(gens))
    embedding = sorted(current)
    pos = {x: i for i, x in enumerate(embedding)}
    table = [[pos[fs.table[x][y]] for y in embedding] for x in embedding]
    unary = [pos[fs.unary[x]] for x in embedding] if fs.unary is not None else None
    names = [fs.names[x] for x in embedding]
    # The closure adds unary images, so the seed alone need not generate
    # it; the seed and the unary images of the closure do, under products.
    gens = {pos[x] for x in seed} | set(unary or ())
    sub = from_table(table, gens, names=names, unary=unary)
    return sub, embedding


def all_pairs_closure(table, seed):
    """Reference closure: every found element times every other, both sides."""
    closed = set(seed)
    frontier = list(closed)
    while frontier:
        fresh = []
        for x in frontier:
            for y in list(closed):
                for z in (table[x][y], table[y][x]):
                    if z not in closed:
                        closed.add(z)
                        fresh.append(z)
        frontier = fresh
    return closed


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 4), st.integers(0, 10 ** 6), st.integers(1, 3), st.data())
def test_closure_matches_all_pairs_reference(points, seed, k, data):
    table = zoo.random_transformation_semigroup(points, seed, k).table
    n = len(table)
    gens = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                                    max_size=min(n, 4))))
    expected = all_pairs_closure(table, gens)
    assert closure(table, gens) == expected
    missed = n - len(expected)
    if missed:
        with pytest.raises(ValueError, match=rf"miss {missed} element\(s\)"):
            from_table(table, gens)
    else:
        assert from_table(table, gens).letters == gens


def reference_subsemigroup(fs, seed):
    """Reference subsemigroup: a pairwise frontier over products on both
    sides, plus unary images, until no element is new."""
    closure = sorted(set(seed))
    current = set(closure)
    frontier = list(closure)
    while frontier:
        new = []
        for x in frontier:
            candidates = [fs.table[x][y] for y in current]
            candidates += [fs.table[y][x] for y in current]
            if fs.unary is not None:
                candidates.append(fs.unary[x])
            for z in candidates:
                if z not in current:
                    current.add(z)
                    new.append(z)
        frontier = new
    embedding = sorted(current)
    pos = {x: i for i, x in enumerate(embedding)}
    table = [[pos[fs.table[x][y]] for y in embedding] for x in embedding]
    unary = [pos[fs.unary[x]] for x in embedding] if fs.unary is not None else None
    names = [fs.names[x] for x in embedding]
    gens = {pos[x] for x in closure} | set(unary or ())
    sub = from_table(table, gens, names=names, unary=unary)
    return sub, embedding


SUBSEMIGROUP_HOSTS = {"b2^1": zoo.b2_with_identity(), "mn:6": zoo.mn_table(6)}


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.tuples(st.sampled_from([3, 4]), st.integers(0, 10 ** 6),
              st.integers(1, 3)),
    st.sampled_from(sorted(SUBSEMIGROUP_HOSTS))), st.data())
def test_subsemigroup_matches_pairwise_reference(host, data):
    if isinstance(host, tuple):
        fs = zoo.random_transformation_semigroup(*host)
    else:
        fs = SUBSEMIGROUP_HOSTS[host]
    seed = data.draw(st.lists(st.integers(0, len(fs) - 1), min_size=1,
                              max_size=min(len(fs), 4)))
    sub, embedding = subsemigroup(fs, seed)
    ref, ref_embedding = reference_subsemigroup(fs, seed)
    assert embedding == ref_embedding
    assert (sub.table, sub.unary, sub.names, sub.letters) == (
        ref.table, ref.unary, ref.names, ref.letters)


# Green's relations, both ways


def test_b2_green_counts():
    gs = assert_green_agree(zoo.b2())
    assert gs.counts() == {"H": 5, "L": 3, "R": 3, "D": 2, "J": 2}


def test_green_structure_methods_read_the_partitions():
    h, l, r, d = [0, 1, 2, 3], [0, 1, 0, 2], [0, 0, 1, 2], [0, 0, 0, 1]
    gs = GreenStructure(h=h, l=l, r=r, d=d, j=d)
    assert gs == (h, l, r, d, d)
    assert gs.partition("l") is gs.partition("L") is l
    assert [gs.count(k) for k in RELATIONS] == [4, 3, 3, 2, 2]
    assert gs.counts() == {"H": 4, "L": 3, "R": 3, "D": 2, "J": 2}
    assert gs.classes("L") == [[0, 2], [1], [3]]
    assert gs.classes("D") == [[0, 1, 2], [3]]
    assert gs.related("R", 0, 1) and not gs.related("R", 1, 2)
    assert GreenStructure([], [], [], [], []).counts() == dict.fromkeys(
        RELATIONS, 0)


def test_monogenic_counts_all_singletons():
    for p in (1, 2, 4):
        gs = assert_green_agree(zoo.monogenic_monoid(p))
        assert gs.counts() == {k: p + 1 for k in "HLRDJ"}


def test_one_element_semigroup():
    gs = assert_green_agree(from_table([[0]]))
    assert gs.counts() == {k: 1 for k in "HLRDJ"}


def test_right_zero_green():
    # x y = y: one R-class, singleton L-classes (and so singleton H).
    gs = assert_green_agree(zoo.right_zero(5))
    assert gs.counts() == {"H": 5, "L": 5, "R": 1, "D": 1, "J": 1}


def test_left_zero_green():
    gs = assert_green_agree(zoo.left_zero(5))
    assert gs.counts() == {"H": 5, "L": 1, "R": 5, "D": 1, "J": 1}


def test_transformation_closures_cross_validate():
    for seed in range(5):
        fs = zoo.random_transformation_semigroup(4, seed, 2)
        gs = assert_green_agree(fs)
        assert gs.d == gs.j


def test_h_is_meet_of_l_and_r():
    for fs in (zoo.b2(), zoo.mn_table(3), zoo.right_zero(4)):
        gs = green_scc(fs)
        for x in range(len(fs)):
            for y in range(len(fs)):
                assert (gs.h[x] == gs.h[y]) == (
                    gs.l[x] == gs.l[y] and gs.r[x] == gs.r[y])


def test_d_equals_j_on_finite_tables():
    for fs in (zoo.b2(), zoo.b2_with_identity(), zoo.mn_table(4),
               zoo.sw_semigroup(4)):
        # green_scc reads J as D; the ideal-based J must match both Ds.
        gd = green_definitional(fs)
        assert gd.d == gd.j == green_scc(fs).d


# products


def test_product_b2_b2():
    prod = direct_product([zoo.b2(), zoo.b2()])
    assert len(prod) == 25
    gs = assert_green_agree(prod)
    assert gs.count("J") == 4


def test_product_with_trivial_is_isomorphic():
    trivial = from_table([[0]], unary=[0])
    fs = zoo.b2()
    iso, _ = iso_tables(direct_product([fs, trivial]), fs)
    assert iso


def test_product_counts_multiply_for_regular_or_monoid_factors():
    pairs = [(zoo.b2(), zoo.b2()),
             (zoo.monogenic_monoid(2), zoo.monogenic_monoid(3))]
    for s, t in pairs:
        cs = green_scc(s).counts()
        ct = green_scc(t).counts()
        cp = green_scc(direct_product([s, t])).counts()
        assert all(cp[k] == cs[k] * ct[k] for k in "HLRDJ")


def test_product_right_zero_null():
    prod = direct_product([zoo.right_zero(3), zoo.null_semigroup(2)])
    gs = assert_green_agree(prod)
    assert gs.count("R") == 4


def reference_product_table(factors):
    """The componentwise product, one tuple and one index lookup per cell."""
    tuples = list(itertools.product(*[range(len(f)) for f in factors]))
    pos = {t: i for i, t in enumerate(tuples)}
    table = [[pos[tuple(f.table[a[k]][b[k]] for k, f in enumerate(factors))]
              for b in tuples] for a in tuples]
    unary = None
    if all(f.unary is not None for f in factors):
        unary = [pos[tuple(f.unary[a[k]] for k, f in enumerate(factors))]
                 for a in tuples]
    return tuples, table, unary


def test_product_fill_matches_tuple_reference():
    for specs in (["b2", "b2"], ["np:3", "rz:2"], ["b2^1", "lz:3", "np:2"],
                  ["null:3", "b2", "rz:2"], ["mn:3", "b2^1"]):
        factors = [zoo.parse_zoo(spec) for spec in specs]
        prod = direct_product(factors)
        assert (prod.keys, prod.table, prod.unary) == \
            reference_product_table(factors)


def test_product_size_guard():
    with pytest.raises(BudgetError):
        direct_product([zoo.right_zero(200), zoo.right_zero(200)])


def generator_tuples(factors):
    """The indices of the product's tuples of factor generators."""
    tuples = itertools.product(*[range(len(f)) for f in factors])
    return [i for i, t in enumerate(tuples)
            if all(x in f.letters for f, x in zip(factors, t))]


def reference_product_letters(factors, table):
    """The letters a product is held by, or None for its table: the tuples
    of factor generators, then the least element outside the closure of
    the letters so far, one at a time, while 2·|letters| < n."""
    n, letters = len(table), generator_tuples(factors)
    while 2 * len(letters) < n:
        missed = set(range(n)) - all_pairs_closure(table, letters)
        if not missed:
            return letters
        letters.append(min(missed))
    return None


PRODUCT_ORACLE_SPECS = (
    ["b2", "b2^1"] + [f"np:{p}" for p in range(1, 5)]
    + [f"mn:{n}" for n in range(2, 5)] + [f"rz:{n}" for n in range(1, 5)]
    + [f"lz:{n}" for n in range(1, 4)] + [f"null:{n}" for n in range(2, 5)]
    + [f"transf:3:{seed}:{k}" for seed in range(3) for k in (1, 2)])
PRODUCT_ORACLE_FACTORS = {spec: zoo.parse_zoo(spec)
                          for spec in PRODUCT_ORACLE_SPECS}


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(PRODUCT_ORACLE_SPECS), min_size=1,
                max_size=3).filter(lambda specs: math.prod(
                    len(PRODUCT_ORACLE_FACTORS[s]) for s in specs) <= 150))
@example(["b2", "b2"])              # two top-ups, held as graphs
@example(["null:3", "null:3"])      # a top-up reaches the table's size
@example(["rz:2", "lz:3"])          # the table from the start
def test_product_matches_reference_table(specs):
    factors = [PRODUCT_ORACLE_FACTORS[s] for s in specs]
    prod = direct_product(factors)
    tuples, table, unary = reference_product_table(factors)
    names = ["(" + ",".join(f.names[i] for f, i in zip(factors, t)) + ")"
             for t in tuples]
    assert (prod.keys, prod.names, prod.unary) == (tuples, names, unary)
    assert prod.letters == (reference_product_letters(factors, table)
                            or list(range(len(table))))
    ref = from_table(table, unary=unary)
    assert format_eggbox(prod) == format_eggbox(ref)
    gs = green_scc(prod)
    # Green's relations and the eggbox read the graphs, not the table.
    assert "table" not in prod.__dict__
    assert (gs.h, gs.l, gs.r, gs.d, gs.j) == tuple(green_scc(ref))
    assert prod.table == table


@pytest.mark.parametrize("specs", [["b2", "b2"], ["null:2", "np:30"],
                                   ["np:3", "b2", "null:2"]])
def test_top_up_follows_each_edge_once(specs):
    # At most n·|A| column reads for the |A| letters whose columns are
    # built, however many top-ups there are: a fresh right search per
    # top-up would read about n·|A|²/2.
    factors = [zoo.parse_zoo(spec) for spec in specs]
    _, table, _ = reference_product_table(factors)
    n, reads, built = len(table), [0], []

    class Column(list):
        def __getitem__(self, y):
            reads[0] += 1
            return list.__getitem__(self, y)

    def column(x):
        built.append(x)
        return Column(row[x] for row in table)

    graphs = _top_up(n, generator_tuples(factors), column)
    assert (graphs and graphs[0]) == reference_product_letters(factors, table)
    assert len(built) > len(generator_tuples(factors)) + 1
    assert reads[0] <= n * len(built)


# Rees quotients and adjunctions


def test_rees_quotient_whole_ideal_is_trivial():
    fs = zoo.b2()
    q = rees_quotient(fs, range(len(fs)))
    assert len(q) == 1


def test_rees_quotient_monogenic():
    fs = zoo.monogenic_monoid(3)          # 1, a, a^2, a^3
    q = rees_quotient(fs, {2, 3})
    assert len(q) == 3
    assert q.zero is not None


def test_rees_quotient_rejects_non_ideal_with_witness():
    fs = zoo.b2()
    with pytest.raises(ValueError, match="witness pair"):
        rees_quotient(fs, {0})            # {a} is not an ideal


def test_rees_quotient_is_homomorphic_image():
    fs = zoo.monogenic_monoid(4)
    q = rees_quotient(fs, {3, 4, 2})
    cs = green_scc(fs).counts()
    cq = green_scc(q).counts()
    assert all(cq[k] <= cs[k] for k in "HLRDJ")


def test_adjoin_identity_b2():
    one = adjoin_identity(zoo.b2())
    assert len(one) == 6
    assert graph_identity(one) == 5
    assert len(one.idempotents()) == 4


def test_adjoin_identity_even_if_present():
    fs = zoo.monogenic_monoid(1)
    bigger = adjoin_identity(fs)
    assert len(bigger) == 3
    assert graph_identity(bigger) == 2


# witnessed analysis


def test_witnessed_bicyclic_l_r():
    ball = zoo.bicyclic_ball(6)
    wl = witnessed_green(ball, "L")
    wr = witnessed_green(ball, "R")
    for wg in (wl, wr):
        radii = sorted(wg.counts_by_radius)
        assert all(wg.counts_by_radius[radii[i]]
                   < wg.counts_by_radius[radii[i + 1]]
                   for i in range(len(radii) - 1))
        assert wg.apparently_infinite
        assert not wg.certified
    labels_l = wl.classes
    for i, x in enumerate(ball.elements):
        for j, y in enumerate(ball.elements):
            assert (labels_l[i] == labels_l[j]) == (x[1] == y[1])


def test_witnessed_bicyclic_d_single_class():
    ball = zoo.bicyclic_ball(5)
    wd = witnessed_green(ball, "D")
    assert all(c == 1 for c in wd.counts_by_radius.values())


def test_witnessed_d_has_explicit_witnesses():
    ball = zoo.bicyclic_ball(5)
    for e in ball.elements:
        w = witnessed_related(ball, e, (0, 0), "D")
        assert w is not None


def test_witnessed_free_monogenic_j_apparently_infinite():
    ball = natural_numbers_ball(8)
    wj = witnessed_green(ball, "J")
    radii = sorted(wj.counts_by_radius)
    assert all(wj.counts_by_radius[radii[i]] < wj.counts_by_radius[radii[i + 1]]
               for i in range(len(radii) - 1))
    assert wj.apparently_infinite


def test_witnessed_margin_validation():
    with pytest.raises(ValueError):
        witnessed_green(zoo.bicyclic_ball(3), "L", margin=0)


# witnessed analysis: the threshold pass against the per-radius reference


def reference_witnessed_green(ball, relation, margin):
    """Reference analysis: every radius k is worked out from scratch, with
    the elements of length <= k and the multipliers of length <= k * margin.
    Returns (counts_by_radius, classes, apparently_infinite, certified)."""
    ext = ball.extend(ball.radius * margin)
    counts, classes = {}, []
    for radius in range(1, ball.radius + 1):
        sub = [i for i in range(len(ball)) if ball.lengths[i] <= radius]
        multipliers = [ext.elements[i] for i in range(len(ext))
                       if ext.lengths[i] <= radius * margin]
        labels = reference_partition(ball, sub, multipliers, relation)
        counts[radius] = len(set(labels))
        if radius == ball.radius:
            classes = labels
    radii = sorted(counts)
    increases = [counts[radii[i]] < counts[radii[i + 1]]
                 for i in range(len(radii) - 1)]
    apparently_infinite = any(all(increases[i:i + 3])
                              for i in range(len(increases) - 2))
    return counts, classes, apparently_infinite, ball.closed


def reference_partition(ball, sub, multipliers, relation):
    """Union-find closure of the directly witnessed pairs among ``sub``,
    from sets of elements reached by the multipliers."""
    oracle = ball.oracle
    if relation == "D":
        # Join of witnessed L and R over the multipliers, restricted to sub.
        lab = reference_join_lr(oracle, multipliers)
        return _dense([lab[ball.elements[i]] for i in sub])
    elems = [ball.elements[i] for i in sub]

    def reach(e, side):
        if side == "J":
            rights = [e] + [oracle.mult(e, v) for v in multipliers]
            return (set(rights)
                    | {oracle.mult(u, w) for w in rights for u in multipliers})
        return {e} | {oracle.mult(u, e) if side == "L" else oracle.mult(e, u)
                      for u in multipliers}

    sides = "LR" if relation == "H" else relation
    reaches = [[reach(e, side) for e in elems] for side in sides]
    uf = _UnionFind(len(elems))
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if all(elems[j] in r[i] and elems[i] in r[j] for r in reaches):
                uf.union(i, j)
    return _dense(map(uf.find, range(len(elems))))


def reference_join_lr(oracle, elems):
    uf = _UnionFind(len(elems))
    for left in (True, False):
        reach = [{e} | {oracle.mult(u, e) if left else oracle.mult(e, u)
                        for u in elems}
                 for e in elems]
        for i in range(len(elems)):
            for j in range(i + 1, len(elems)):
                if elems[j] in reach[i] and elems[i] in reach[j]:
                    uf.union(i, j)
    labels = [uf.find(i) for i in range(len(elems))]
    return {elems[i]: labels[i] for i in range(len(elems))}


def assert_matches_reference(ball, relation, margin):
    wg = witnessed_green(ball, relation, margin=margin)
    assert ((wg.counts_by_radius, wg.classes, wg.apparently_infinite,
             wg.certified)
            == reference_witnessed_green(ball, relation, margin))


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("margin", [1, 2, 3])
def test_witnessed_green_matches_reference_on_infinite_balls(relation,
                                                             margin):
    # J costs a cube of the pool per radius in the reference.
    for radius in range(1, 5 if relation == "J" else 7):
        assert_matches_reference(zoo.bicyclic_ball(radius), relation, margin)
        assert_matches_reference(natural_numbers_ball(radius), relation,
                                 margin)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RELATIONS), st.integers(1, 3),
       st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=3))
@example("J", 3, [(1, 2, 0), (1, 0, 2), (0, 0, 2)])
# A multiplier of length l is usable from radius ceil(l / margin), not floor.
@example("L", 2, [(0, 1, 0), (1, 2, 2), (2, 1, 2)])
# A J row keeps the lowest radius over all (u, v): the first hit of a source
# may come later, and x·v counts at the radius of v.
@example("J", 1, [(0, 1, 0), (1, 0, 0)])
@example("J", 1, [(0, 0, 1), (2, 0, 0)])
def test_witnessed_green_matches_reference_on_closed_t3(relation, margin,
                                                        maps):
    # The closure of the maps on 3 points, at the radius where it closes.
    oracle = zoo.transformation_oracle(3)
    radius = max(closed_ball(oracle, maps).lengths)
    assert_matches_reference(ball_enumerate(oracle, maps, radius), relation,
                             margin)


# witness search: the orbit lookups against the per-candidate scans


def reference_find_witnesses(oracle, x, y, relation, pool):
    """Reference search: every candidate c of a D-witness runs both
    one-sided scans in both directions."""
    relation = relation.upper()
    mult = oracle.mult

    def one_sided(a, b, left):
        if a == b:
            return ("identity",)
        for u, label in pool:
            if (mult(u, a) if left else mult(a, u)) == b:
                return (u, label)
        return None

    def two_sided(a, b):
        if a == b:
            return ("identity",)
        for u in [None] + [u for u, _ in pool]:
            ua = a if u is None else mult(u, a)
            if ua == b:
                return (u, None)
            for v, _ in pool:
                if mult(ua, v) == b:
                    return (u, v)
        return None

    def mutual(search, a, b, *side):
        fwd, bwd = search(a, b, *side), search(b, a, *side)
        if fwd is not None and bwd is not None:
            return {"u": fwd, "v": bwd}
        return None

    if relation in ("L", "R"):
        return mutual(one_sided, x, y, relation == "L")
    if relation == "H":
        lw = mutual(one_sided, x, y, True)
        rw = mutual(one_sided, x, y, False)
        return {"L": lw, "R": rw} if lw and rw else None
    if relation == "D":
        for c, label in pool:
            lw = mutual(one_sided, x, c, True)
            rw = lw and mutual(one_sided, c, y, False)
            if rw:
                return {"via": c, "via_word": label, "L": lw, "R": rw}
        return None
    if relation == "J":
        return mutual(two_sided, x, y)
    raise ValueError(f"unknown relation {relation!r}")


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(RELATIONS), st.integers(1, 5),
       st.integers(1, 3), st.booleans())
def test_find_witnesses_matches_reference_on_bicyclic_balls(
        data, relation, radius, margin, same):
    ball = zoo.bicyclic_ball(radius)
    x = data.draw(st.sampled_from(ball.elements))
    y = x if same else data.draw(st.sampled_from(ball.elements))
    ext = ball.extend(radius * margin)
    pool = list(zip(ext.elements, ext.words))
    assert (witnessed_related(ball, x, y, relation, margin)
            == reference_find_witnesses(ball.oracle, x, y, relation, pool))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(RELATIONS), st.integers(1, 6),
       st.integers(1, 3), st.booleans())
def test_find_witnesses_matches_reference_on_p_windows(
        data, relation, window, margin, same):
    a = data.draw(st.integers(-window, window))
    b = a if same else data.draw(st.integers(-window, window))
    pool = [(u, None) for u in range(-margin * window, margin * window + 1)]
    assert (zoo.p_witnessed_related(a, b, relation, window, margin)
            == reference_find_witnesses(Oracle(zoo.p_mult), a, b, relation,
                                        pool))


def witness_queries(elements):
    return st.lists(st.tuples(st.sampled_from(elements),
                              st.sampled_from(elements),
                              st.sampled_from(RELATIONS)), max_size=8)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 3))
def test_shared_witnesses_match_reference_on_bicyclic_balls(
        data, radius, margin):
    ball = zoo.bicyclic_ball(radius)
    witnesses = ball_witnesses(ball, margin)
    ext = ball.extend(radius * margin)
    pool = list(zip(ext.elements, ext.words))
    for x, y, relation in data.draw(witness_queries(ball.elements)):
        assert (witnesses.related(x, y, relation)
                == reference_find_witnesses(ball.oracle, x, y, relation, pool))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 6), st.integers(1, 3))
def test_shared_witnesses_match_reference_on_p_windows(data, window, margin):
    witnesses = zoo.p_witnesses(window, margin)
    pool = [(u, None) for u in range(-margin * window, margin * window + 1)]
    elements = range(-window, window + 1)
    for a, b, relation in data.draw(witness_queries(elements)):
        assert (witnesses.related(a, b, relation)
                == reference_find_witnesses(Oracle(zoo.p_mult), a, b, relation,
                                            pool))


# witness search against the partition: both read the same orbits


def assert_witness(mult, value, w, a, b, left):
    """w is ("identity",) with a = b, or a pool pair (u, label) with u·a = b
    (a·u = b when not ``left``) whose label, if any, is a word of u."""
    if w == ("identity",):
        assert a == b
        return
    u, label = w
    assert (mult(u, a) if left else mult(a, u)) == b
    assert label is None or value(label) == u


def assert_two_sided(mult, w, a, b):
    if w == ("identity",):
        assert a == b
        return
    u, v = w
    ua = a if u is None else mult(u, a)
    assert (ua if v is None else mult(ua, v)) == b


def assert_witnesses_within_classes(mult, value, witnesses, elements,
                                    classes, queries):
    """Every pair that ``witnesses`` relates shares a class of
    ``classes[relation]``, and every witness it returns holds."""
    for i, j, relation in queries:
        x, y = elements[i], elements[j]
        w = witnesses.related(x, y, relation)
        if w is None:
            continue
        assert classes[relation][i] == classes[relation][j]
        if relation in "LR":
            assert_witness(mult, value, w["u"], x, y, relation == "L")
            assert_witness(mult, value, w["v"], y, x, relation == "L")
        elif relation == "H":
            for side, left in (("L", True), ("R", False)):
                assert_witness(mult, value, w[side]["u"], x, y, left)
                assert_witness(mult, value, w[side]["v"], y, x, left)
        elif relation == "D":
            c = w["via"]
            assert w["via_word"] is None or value(w["via_word"]) == c
            assert_witness(mult, value, w["L"]["u"], x, c, True)
            assert_witness(mult, value, w["L"]["v"], c, x, True)
            assert_witness(mult, value, w["R"]["u"], c, y, False)
            assert_witness(mult, value, w["R"]["v"], y, c, False)
        else:
            assert_two_sided(mult, w["u"], x, y)
            assert_two_sided(mult, w["v"], y, x)


def index_queries(n):
    return st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                              st.sampled_from(RELATIONS)), max_size=6)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 3),
       st.one_of(st.integers(1, 4),
                 st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1,
                          max_size=3)))
def test_witnesses_lie_within_witnessed_classes_on_balls(data, margin, spec):
    # A bicyclic ball of radius ``spec``, or the closure of maps on 3 points.
    if isinstance(spec, int):
        ball, generators = zoo.bicyclic_ball(spec), [(0, 0), (1, 0), (0, 1)]
    else:
        oracle, generators = zoo.transformation_oracle(3), spec
        ball = ball_enumerate(oracle, spec,
                              max(closed_ball(oracle, spec).lengths))
    mult = ball.oracle.mult

    def value(word):
        return functools.reduce(mult, [generators[a] for a in word])

    classes = {rel: witnessed_green(ball, rel, margin).classes
               for rel in RELATIONS}
    assert_witnesses_within_classes(
        mult, value, ball_witnesses(ball, margin), ball.elements, classes,
        data.draw(index_queries(len(ball))))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 6), st.integers(1, 3))
def test_witnesses_lie_within_witnessed_classes_on_p_windows(data, window,
                                                             margin):
    witnesses = zoo.p_witnesses(window, margin)
    elements = range(-window, window + 1)
    classes = {rel: witnesses.partition(
        elements, [1] * len(elements), [1] * len(witnesses.pool), rel, 1)[1]
        for rel in RELATIONS}
    assert_witnesses_within_classes(
        zoo.p_mult, None, witnesses, elements, classes,
        data.draw(index_queries(len(elements))))


# isomorphism


def test_iso_reflexive():
    fs = zoo.mn_table(3)
    ok, mapping = iso_tables(fs, fs)
    assert ok
    assert sorted(mapping) == list(range(len(fs)))


def test_iso_b2_vs_chain_semilattice():
    n = 5
    chain = from_table([[min(i, j) for j in range(n)] for i in range(n)],
                       unary=list(range(n)))
    ok, _ = iso_tables(zoo.b2(), chain)
    assert not ok


def test_iso_size_guard():
    big = zoo.right_zero(65)
    with pytest.raises(BudgetError):
        iso_tables(big, big)


def test_iso_respects_unary():
    # Same table, different unary: B2's inverse vs the identity map.
    fs = zoo.b2()
    twisted = FiniteSemigroup(fs.right, fs.letters, names=fs.names,
                              unary=list(range(5)))
    ok, _ = iso_tables(fs, twisted)
    assert not ok


# idempotents, eggbox, subsemigroups


def test_idempotents_b2():
    assert zoo.b2().idempotents() == [2, 3, 4]


def test_idempotents_band_and_group():
    band = zoo.right_zero(4)
    assert band.idempotents() == list(range(4))
    z3 = from_table([[(i + j) % 3 for j in range(3)] for i in range(3)])
    assert z3.idempotents() == [0]


def test_eggbox_grid_sizes():
    # Each D-class's grid of H-class sizes sums to the D-class's size, and
    # a D-class is regular exactly when it holds an idempotent.
    for fs in (zoo.b2(), zoo.monogenic_monoid(3), zoo.mn_table(4)):
        gs, idem = green_scc(fs), set(fs.idempotents())
        blocks = [block.splitlines() for block
                  in format_eggbox(fs).split("D-class ")[1:]]
        assert [sum(int(x) for row in block[1:] for x in row.split())
                for block in blocks] == [len(c) for c in gs.classes("D")]
        assert [("(regular)" in block[0]) for block in blocks] == [
            any(x in idem for x in c) for c in gs.classes("D")]


def test_regular_subsemigroup_restriction():
    # Inverse subsemigroups inherit L, R, H by restriction.
    fs = zoo.b2_with_identity()
    gs = green_scc(fs)
    sub, embedding = subsemigroup(fs, [2, 4])   # aa', 0
    gt = green_scc(sub)
    for rel in ("L", "R", "H"):
        for i in range(len(sub)):
            for j in range(len(sub)):
                assert gt.related(rel, i, j) == gs.related(
                    rel, embedding[i], embedding[j])


def test_inverse_subsemigroup_of_a_is_b2():
    # The closure of a adds a', aa', a'a and 0; the seed alone does not
    # generate it under products, so the unary images are generators too.
    sub, embedding = subsemigroup(zoo.b2(), [0])
    assert embedding == [0, 1, 2, 3, 4]
    assert iso_tables(sub, zoo.b2())[0]


# small semigroups against closed-form tables


def with_identity(table, letters, names, keys, unary):
    """A table with a fresh identity n appended as the last letter: each
    row gains x·1 = x, and the identity's row is 0..n."""
    n = len(table)
    label = "1"
    while label in names:
        label += "*"
    return ([row + [i] for i, row in enumerate(table)] + [list(range(n + 1))],
            list(letters) + [n], names + [label], None,
            None if unary is None else unary + [n])


def reference_family(spec):
    """(table, letters, names, keys, unary) of a zoo family, written out
    from its closed form."""
    if spec in ("b2", "b2^1"):
        units = [(1, 2), (2, 1), (1, 1), (2, 2), None]
        table = [[units.index((x[0], y[1]) if x and y and x[1] == y[0]
                              else None) for y in units] for x in units]
        unary = [units.index(x and (x[1], x[0])) for x in units]
        ref = (table, [0, 1], ["a", "a'", "aa'", "a'a", "0"], units, unary)
        return ref if spec == "b2" else with_identity(*ref)
    kind, n = spec.split(":")
    n = int(n)
    if kind == "np":
        return ([[min(i + j, n) for j in range(n + 1)] for i in range(n + 1)],
                [0, 1], ["1", "a"] + [f"a^{i}" for i in range(2, n + 1)],
                None, None)
    rows = {"rz": lambda i, j: j, "lz": lambda i, j: i,
            "null": lambda i, j: 0}[kind]
    table = [[rows(i, j) for j in range(n)] for i in range(n)]
    if kind == "null":
        return (table, list(range(1, n)) or [0],
                ["0"] + [f"b{i}" for i in range(1, n)], None, None)
    return (table, list(range(n)), [f"{kind[0]}{i + 1}" for i in range(n)],
            None, list(range(n)))


TABLE_FAMILIES = (["b2", "b2^1"] + [f"np:{p}" for p in range(1, 9)]
                  + [f"{kind}:{n}" for kind in ("rz", "lz", "null")
                     for n in range(1, 7)])


@settings(max_examples=120, deadline=None)
@given(st.one_of(
    st.sampled_from(TABLE_FAMILIES),
    st.tuples(st.sampled_from(["adjoin", "parse"]), st.integers(1, 3),
              st.integers(0, 10 ** 6), st.integers(1, 3))), st.data())
@example("null:1", None)
@example(("adjoin", 1, 0, 1), None)
def test_small_semigroups_match_closed_form_tables(case, data):
    # The zoo families, an adjoined identity and parse_table, each against
    # the semigroup of its table written out in full.
    if isinstance(case, str):
        fs = zoo.parse_zoo(case)
        table, letters, names, keys, unary = reference_family(case)
    else:
        kind, points, seed, k = case
        closure = zoo.random_transformation_semigroup(points, seed, k)
        ref = (closure.table, closure.letters, closure.names, None,
               closure.unary)
        if kind == "adjoin":
            fs = adjoin_identity(closure)
            table, letters, names, keys, unary = with_identity(*ref)
        else:
            # A generating set: the letters, extra elements, in any order
            # and with repeats.
            n = len(closure)
            listed = data.draw(st.permutations(closure.letters + data.draw(
                st.lists(st.integers(0, n - 1), max_size=n))))
            fs = parse_table(format_table(closure, listed))
            table, names, unary = closure.table, closure.names, closure.unary
            letters, keys = sorted(set(listed)), None
    ref = from_table(table, letters, names=names, keys=keys, unary=unary)
    n = len(table)
    assert fs.letters == letters == ref.letters
    assert (fs.names, fs.keys, fs.unary) == (ref.names, ref.keys, ref.unary)
    assert tuple(green_scc(fs)) == tuple(green_definitional(ref))
    assert format_eggbox(fs) == format_eggbox(ref)
    assert fs.idempotents() == [x for x in range(n) if table[x][x] == x]
    assert graph_identity(fs) == next((e for e in range(n) if all(
        table[e][x] == x == table[x][e] for x in range(n))), None)
    assert fs.zero == next((z for z in range(n) if all(
        table[z][x] == z == table[x][z] for x in range(n))), None)
    assert fs.table == table


# table text format


def test_table_round_trip():
    fs = zoo.b2()
    again = parse_table(format_table(fs))
    assert again.table == fs.table
    assert again.unary == fs.unary
    assert again.letters == fs.letters


def test_parse_table_rejects_non_associative():
    text = """
elements: x y
row x: y y
row y: x x
"""
    with pytest.raises(ValueError, match="witness"):
        parse_table(text)


def test_parse_table_rejects_partial_unary():
    text = """
elements: x y
row x: x y
row y: y x
unary x: y
"""
    with pytest.raises(ValueError, match="unary"):
        parse_table(text)


@pytest.mark.parametrize("line, message", [
    ("generators: x z", "generators line mentions unknown element 'z'"),
    ("unary x: zz\nunary y: y", "unary 'x' mentions unknown element 'zz'"),
    ("row q: x y", "row line for unknown element 'q'"),
    ("unary x: x\nunary y: y\nunary q: x", "unary line for unknown element 'q'"),
])
def test_parse_table_names_unknown_elements(line, message):
    text = "elements: x y\nrow x: x y\nrow y: x y\n" + line + "\n"
    with pytest.raises(ValueError) as info:
        parse_table(text)
    assert str(info.value) == message


@pytest.mark.parametrize("line, message", [
    ("elements: x y", "line 4: 'elements:' repeats line 1"),
    ("row  x: y y", "line 4: 'row x:' repeats line 2"),
    ("generators: x\ngenerators: y", "line 5: 'generators:' repeats line 4"),
    ("unary x: x\nunary y: y\nunary x: y", "line 6: 'unary x:' repeats line 4"),
])
def test_parse_table_refuses_repeated_directives(line, message):
    # The last of the repeated lines used to win, silently.
    text = "elements: x y\nrow x: x y\nrow y: x y\n" + line + "\n"
    with pytest.raises(ValueError) as info:
        parse_table(text)
    assert str(info.value) == message


def test_verify_associative_finds_witness():
    bad = [[0, 1], [1, 0]]
    bad[1][1] = 1  # x*x=x? build a genuinely non-associative table
    table = [[0, 0], [1, 0]]
    witness = verify_associative(table)
    assert witness is not None
    x, y, z = witness
    assert table[table[x][y]][z] != table[x][table[y][z]]


def test_ball_monotone_in_radius():
    small = zoo.bicyclic_ball(3)
    large = zoo.bicyclic_ball(5)
    assert set(small.elements) <= set(large.elements)
    assert len(small) < len(large)


def test_enumerate_element_budget_returns_partial_ball():
    ball = enumerate_oracle(zoo.bicyclic_oracle(), [(0, 0), (1, 0), (0, 1)],
                            max_elements=20)
    assert isinstance(ball, BallEnumeration)
    assert not ball.closed
    assert len(ball) <= 20


def test_rees_quotient_realizes_m2_from_m3():
    m3 = zoo.mn_table(3)
    ideal = [i for i, key in enumerate(m3.keys)
             if key == "0" or key.r + key.s >= 2]
    q = rees_quotient(m3, ideal)
    assert len(q) == 5
    ok, _ = iso_tables(q, zoo.b2())
    assert ok


def test_parse_table_rejects_out_of_range_cells_and_ragged_rows():
    # Tables enter through parse_table alone: a cell outside the elements
    # can only be written as an unknown name, and a short or long row is
    # refused, so its table is square over element indices.
    for rows, message in (
            (["x z", "y x"], "row 'x' mentions unknown element 'z'"),
            (["x -1", "y x"], "row 'x' mentions unknown element '-1'"),
            (["x y", "y"], "row 'y' has 1 entries, expected 2"),
            (["x y x", "y x"], "row 'x' has 3 entries, expected 2")):
        text = "elements: x y\n" + "".join(
            f"row {nm}: {row}\n" for nm, row in zip("xy", rows))
        with pytest.raises(ValueError) as info:
            parse_table(text)
        assert str(info.value) == message


def test_non_generating_set_rejected():
    b2 = zoo.b2()
    with pytest.raises(ValueError, match="generators miss"):
        parse_table(format_table(b2, [0]))      # {a} only reaches {a, 0}
    # The same from the right Cayley graph over the letter a alone.
    right = [[row[0]] for row in b2.table]
    with pytest.raises(ValueError, match=r"miss 3 element\(s\)"):
        FiniteSemigroup(right, [0])


def test_witnessed_matches_exact_green_on_closed_ball():
    # When the ball closes, witnessed classes with a generous margin are
    # exactly the Green classes of the finished table.
    ball = ball_enumerate(Oracle(lambda x, y: tuple(y[i] for i in x)),
                          [(1, 0, 2, 3), (1, 1, 2, 2)], 12)
    assert ball.closed
    fs = table_from_ball(ball)
    exact = green_scc(fs)
    for relation in ("H", "L", "R", "D", "J"):
        wg = witnessed_green(ball, relation, margin=3)
        assert wg.certified
        witnessed_parts = {}
        for i, label in enumerate(wg.classes):
            witnessed_parts.setdefault(label, set()).add(i)
        exact_parts = {frozenset(c) for c in exact.classes(relation)}
        assert {frozenset(c) for c in witnessed_parts.values()} == exact_parts


def test_quotient_preserves_green_relatedness():
    # Green's relations are preserved by morphisms: related elements stay
    # related in any Rees quotient, so the induced class map is well defined.
    cases = [(zoo.monogenic_monoid(4), {3, 4}),
             (zoo.b2_with_identity(), {0, 1, 2, 3, 4})]
    for fs, ideal in cases:
        q = rees_quotient(fs, ideal)
        keep = [i for i in range(len(fs)) if i not in ideal]
        zero = len(keep)

        def image(x):
            return keep.index(x) if x not in ideal else zero

        gs = green_scc(fs)
        gq = green_scc(q)
        for rel in "HLRDJ":
            for x in range(len(fs)):
                for y in range(len(fs)):
                    if gs.related(rel, x, y):
                        assert gq.related(rel, image(x), image(y))


# Cayley graphs: the lazily filled table against the table scans


def reference_cayley_table(right, gens):
    """The table fill from the right Cayley graph, one lookup per cell:
    columns in breadth-first order from the generators, each later column
    y = p·gens[a] filled as x·y = (x·p)·gens[a]."""
    n = len(right)
    order, seen = [], set()
    for a, g in enumerate(gens):
        if g not in seen:
            seen.add(g)
            order.append((g, None, a))
    for p, _, _ in order:
        for a, y in enumerate(right[p]):
            if y not in seen:
                seen.add(y)
                order.append((y, p, a))
    table = []
    for rx in right:
        row = [None] * n
        for y, p, a in order:
            row[y] = rx[a] if p is None else right[row[p]][a]
        table.append(row)
    return table


def find_identity(table):
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x == table[x][e] for x in range(n)):
            return e
    return None


def find_zero(table):
    n = len(table)
    for z in range(n):
        if all(table[z][x] == z == table[x][z] for x in range(n)):
            return z
    return None


def graph_case(case):
    kind, arg = case
    if kind == "transf":
        points, maps = arg
        return enumerate_oracle(zoo.transformation_oracle(points), maps)
    return zoo.parse_zoo(f"{kind}:{arg}" if arg is not None else kind)


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.integers(3, 4).flatmap(lambda n: st.tuples(st.just("transf"), st.tuples(
        st.just(n), st.lists(st.tuples(*[st.integers(0, n - 1)] * n),
                             min_size=1, max_size=4)))),
    st.tuples(st.just("mn"), st.integers(2, 9)),
    st.tuples(st.just("sw"), st.integers(1, 5)),
    st.tuples(st.sampled_from(["b2", "b2^1", "np:3", "null:4", "rz:3",
                               "prod:b2^1,np:2"]), st.none())))
@example(("transf", (3, [(1, 2, 0), (1, 2, 0), (0, 0, 1)])))
@example(("transf", (4, [(0, 1, 2, 3)])))
def test_cayley_graphs_match_table_scans(case):
    fs = graph_case(case)
    graph_built = "table" not in fs.__dict__
    idempotents, identity, zero = (fs.idempotents(), graph_identity(fs),
                                 fs.zero)
    gs = green_scc(fs)
    # None of these read the table of a semigroup held as its graphs.
    assert ("table" not in fs.__dict__) == graph_built
    if graph_built:
        assert fs.table == reference_cayley_table(fs.right, fs.letters)
    table = fs.table
    assert [table[g] for g in fs.letters] == fs.left
    assert [[row[g] for g in fs.letters] for row in table] == fs.right
    assert idempotents == [x for x in range(len(fs)) if table[x][x] == x]
    assert identity == find_identity(table)
    assert zero == find_zero(table)
    b = green_definitional(fs)
    assert (gs.h, gs.l, gs.r, gs.d, gs.j) == (b.h, b.l, b.r, b.d, b.j)


def bell(n):
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def stirling2(n, k):
    return sum((-1) ** i * comb(k, i) * (k - i) ** n
               for i in range(k + 1)) // factorial(k)


@pytest.mark.parametrize("n, h, idempotents",
                         [(4, 71, 41), (5, 456, 196), (6, 3337, 1057)])
def test_full_transformation_monoid_closed_forms(n, h, idempotents):
    # T_n from a cycle, a transposition and a rank n-1 map, held as its
    # Cayley graphs: T_6 has 46,656 elements and no table within budget.
    gens = [tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n)),
            (0, 0) + tuple(range(2, n))]
    fs = enumerate_oracle(zoo.transformation_oracle(n), gens,
                          max_elements=50_000)
    assert isinstance(fs, FiniteSemigroup) and len(fs) == n ** n
    assert h == sum(stirling2(n, k) * comb(n, k) for k in range(1, n + 1))
    assert idempotents == sum(comb(n, k) * k ** (n - k)
                              for k in range(1, n + 1))
    assert green_scc(fs).counts() == {"H": h, "L": 2 ** n - 1, "R": bell(n),
                                      "D": n, "J": n}
    assert len(fs.idempotents()) == idempotents
    assert graph_identity(fs) == fs.element_index(tuple(range(n)))
    assert fs.zero is None
    assert "table" not in fs.__dict__


def test_eggbox_leaves_graph_built_tables_unfilled():
    # One Green pass and one idempotent scan a picture, on the graphs.
    for fs in (zoo.mn_table(11), zoo.parse_zoo("transf:5:3:3")):
        with patch("greenbox.engine.green_scc", wraps=green_scc) as scc, \
                patch.object(FiniteSemigroup, "idempotents", autospec=True,
                             side_effect=FiniteSemigroup.idempotents) as idem:
            format_eggbox(fs)
        assert scc.call_count == idem.call_count == 1
        assert "table" not in fs.__dict__


def test_green_scc_of_full_t5_stays_small():
    fs = zoo.transformation_semigroup(
        5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4), (0, 0, 2, 3, 4)])
    tracemalloc.start()
    try:
        counts = green_scc(fs).counts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == {"H": 456, "L": 31, "R": 52, "D": 5, "J": 5}
    assert peak < 8 * 2 ** 20


# The row kernel of green_scc against the callback Tarjan it replaced.


def reference_sccs(n, succ):
    """Iterative Tarjan with an on-stack array, one successor iterator per
    vertex, as green_scc computed components before; dense ids."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack = []
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(succ(root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ(w))))
                    advanced = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
    return _dense(comp)


def reference_green_scc(fs):
    """green_scc as it was: the callback Tarjan, a generator per L-row, and
    D joined by union-find over first members."""
    n, left = len(fs), fs.left
    r = reference_sccs(n, fs.right.__getitem__)
    l = reference_sccs(n, lambda x: (row[x] for row in left))
    uf = _UnionFind(n)
    for labels in (l, r):
        first = {}
        for i, c in enumerate(labels):
            if c in first:
                uf.union(first[c], i)
            else:
                first[c] = i
    d = _dense(map(uf.find, range(n)))
    return (_dense(list(zip(l, r))), l, r, d, d)


def assert_scc_kernel_matches_reference(fs):
    n, left = len(fs), fs.left
    assert _sccs(n, fs.right.__getitem__) == reference_sccs(
        n, fs.right.__getitem__)
    assert _sccs(n, lambda x: map(itemgetter(x), left)) == reference_sccs(
        n, lambda x: (row[x] for row in left))
    gs = green_scc(fs)
    assert (gs.h, gs.l, gs.r, gs.d, gs.j) == reference_green_scc(fs)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), max_size=5), min_size=n, max_size=n)))
def test_sccs_matches_callback_reference_on_random_digraphs(rows):
    # Rows may be empty, repeat a target or loop; as successor lists and
    # as lazy iterators.
    n = len(rows)
    assert _sccs(n, rows.__getitem__) == reference_sccs(n, rows.__getitem__)
    assert _sccs(n, lambda v: iter(rows[v])) == reference_sccs(
        n, rows.__getitem__)


def transformation_maps(points, count):
    return st.lists(st.tuples(*[st.integers(0, points - 1)] * points),
                    min_size=1, max_size=count)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: transformation_maps(n, 3)))
def test_green_scc_matches_references_on_random_transf_closures(maps):
    fs = zoo.transformation_semigroup(len(maps[0]), maps)
    assert_scc_kernel_matches_reference(fs)
    assert fs.idempotents() == [x for x, f in enumerate(fs.keys)
                                if tuple(f[i] for i in f) == f]
    if len(fs) <= 400:
        assert_green_agree(fs)


PRODUCT_FACTOR_SPECS = ["b2", "b2^1", "np:2", "np:3", "rz:2", "rz:3", "lz:2",
                        "lz:3", "null:2", "mn:3", "sw:3"]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(PRODUCT_FACTOR_SPECS), min_size=1,
                max_size=2))
def test_green_scc_matches_references_on_zoo_products(specs):
    # The kernel on all-generator tables: the product's table, with every
    # element a letter.
    fs = from_table(direct_product([zoo.parse_zoo(s) for s in specs]).table)
    assert fs.letters == list(range(len(fs)))
    assert_scc_kernel_matches_reference(fs)
    assert_green_agree(fs)
    assert fs.idempotents() == [x for x in range(len(fs))
                                if fs.table[x][x] == x]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.tuples(*[st.integers(0, n - 1)] * n),
    st.tuples(*[st.integers(0, n - 1)] * n))))
def test_transformation_product_matches_generator_reference(pair):
    f, g = pair
    n = len(f)
    oracle = zoo.transformation_oracle(n)
    assert oracle.mult(f, g) == tuple(g[f[i]] for i in range(n))
    assert oracle.name(f) == "".join(str(x) for x in f)


def test_idempotents_match_table_diagonal_on_zoo():
    for spec in ("mn:2", "mn:7", "b2^1", "sw:4", "freenil:xx:3:3",
                 "transf:5:3:3", "prod:rz:3,b2"):
        fs = zoo.parse_zoo(spec)
        assert fs.idempotents() == [x for x in range(len(fs))
                                    if fs.table[x][x] == x]


def test_green_scc_of_all_generator_table_matches_reference():
    fs = zoo.parse_zoo("prod:rz:20,lz:20")
    assert_scc_kernel_matches_reference(fs)
