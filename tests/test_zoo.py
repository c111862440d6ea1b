import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from greenbox import zoo
from greenbox.munn import FisTriple
from greenbox.engine import (BudgetError, FiniteSemigroup, green_definitional,
                             green_scc, iso_tables, direct_product)


def assert_green_agree(fs):
    a = green_scc(fs)
    b = green_definitional(fs)
    assert (a.h, a.l, a.r, a.d, a.j) == (b.h, b.l, b.r, b.d, b.j)
    return a


# bicyclic


def test_bicyclic_identity():
    for x in [(0, 0), (2, 3), (7, 1)]:
        assert zoo.bicyclic_mult(x, (0, 0)) == x
        assert zoo.bicyclic_mult((0, 0), x) == x


def test_bicyclic_formula_examples():
    assert zoo.bicyclic_mult((2, 3), (1, 5)) == (2, 7)
    assert zoo.bicyclic_mult((1, 0), (0, 1)) == (1, 1)


def test_bicyclic_green_oracle():
    assert zoo.bicyclic_green((0, 3), (5, 3), "L")
    assert not zoo.bicyclic_green((0, 3), (5, 3), "R")
    assert zoo.bicyclic_green((0, 3), (5, 3), "D")
    assert zoo.bicyclic_green((4, 1), (0, 0), "J")


def assert_witnesses(mult, w, x, y, relation, pool):
    """Every multiplier in ``w`` is in ``pool`` and maps as claimed."""
    def apply(u, a, left):
        if u is None:
            return a
        assert u in pool
        return mult(u, a) if left else mult(a, u)

    def one_sided(wit, a, b, left):
        assert a == b if wit == ("identity",) else apply(wit[0], a, left) == b

    def mutual(ws, a, b, left):
        one_sided(ws["u"], a, b, left)
        one_sided(ws["v"], b, a, left)

    def two_sided(wit, a, b):
        if wit == ("identity",):
            assert a == b
        else:
            assert apply(wit[1], apply(wit[0], a, True), False) == b

    if relation == "L":
        mutual(w, x, y, True)
    elif relation == "R":
        mutual(w, x, y, False)
    elif relation == "H":
        mutual(w["L"], x, y, True)
        mutual(w["R"], x, y, False)
    elif relation == "D":
        assert w["via"] in pool
        mutual(w["L"], x, w["via"], True)
        mutual(w["R"], w["via"], y, False)
    else:
        two_sided(w["u"], x, y)
        two_sided(w["v"], y, x)


def test_bicyclic_bisimplicity_witnesses_in_ball():
    from greenbox.engine import witnessed_related
    ball = zoo.bicyclic_ball(8)
    pool = set(ball.extend(24).elements)
    for e in ball.elements:
        w = witnessed_related(ball, e, (0, 0), "D")
        assert_witnesses(zoo.bicyclic_mult, w, e, (0, 0), "D", pool)
    small = zoo.bicyclic_ball(3)
    pool = set(small.extend(9).elements)
    for x, y in itertools.product(small.elements, repeat=2):
        for rel in "LRHDJ":
            w = witnessed_related(small, x, y, rel)
            assert (w is not None) == zoo.bicyclic_green(x, y, rel)
            if w is not None:
                assert_witnesses(zoo.bicyclic_mult, w, x, y, rel, pool)


# B2


def test_b2_relations():
    fs = zoo.b2()
    a, ainv = 0, 1
    zero = fs.zero
    assert fs.table[a][a] == zero
    assert fs.table[fs.table[a][ainv]][a] == a
    assert len(fs.idempotents()) == 3
    assert len(zoo.b2_with_identity().idempotents()) == 4


def test_b2_unary_is_inverse():
    fs = zoo.b2()
    for x in range(len(fs)):
        xi = fs.unary[x]
        assert fs.table[fs.table[x][xi]][x] == x
        assert fs.table[fs.table[xi][x]][xi] == xi


# monogenic monoids


def test_monogenic_small():
    fs = zoo.monogenic_monoid(1)
    assert len(fs) == 2
    assert fs.table[1][1] == 1


def test_monogenic_truncation():
    fs = zoo.monogenic_monoid(3)
    assert fs.table[2][2] == 3           # a^2 a^2 = a^3


def test_monogenic_j_count():
    for p in (2, 3, 5):
        gs = assert_green_agree(zoo.monogenic_monoid(p))
        assert gs.count("J") == p + 1


# P = (Z, o)


def test_p_mult_examples():
    assert zoo.p_mult(3, 10) == 3
    assert zoo.p_mult(2, 5) == 7


def test_p_unary_examples():
    for n in (-4, 0, 6):
        assert zoo.p_unary(n) == -n
        assert zoo.p_mult(n, zoo.p_unary(n)) == 0
    for n in (-3, 1, 9):
        assert zoo.p_unary(n) == n


def test_p_green_examples():
    assert zoo.p_green(1, 7, "L")
    assert not zoo.p_green(1, 7, "R")
    assert zoo.p_green(0, 4, "H")


def test_p_associative_on_window():
    window = range(-20, 21)
    for a, b, c in itertools.product(window, repeat=3):
        assert zoo.p_mult(a, zoo.p_mult(b, c)) == zoo.p_mult(zoo.p_mult(a, b), c)


def test_p_completely_regular_on_window():
    for x in range(-20, 21):
        xi = zoo.p_unary(x)
        assert zoo.p_mult(zoo.p_mult(x, xi), x) == x
        assert zoo.p_mult(x, xi) == zoo.p_mult(xi, x)


def p_closed_form_count(window, relation):
    reps = []
    for x in range(-window, window + 1):
        if not any(zoo.p_green(r, x, relation) for r in reps):
            reps.append(x)
    return len(reps)


def test_p_witnessed_window_counts():
    # The window [-10, 10] holds 11 evens, one L- and R-class, and 10 odds,
    # one L-class and 10 R-classes.
    assert zoo.p_window_green_counts(10, "L") == 2
    assert zoo.p_window_green_counts(10, "R") == 1 + 10
    # At margin 1 no multiplier joins 10 to -10 directly; the union-find
    # closure still does, through 0.
    for n in range(1, 13):
        for rel in "LRHDJ":
            for margin in (1, 2, 3):
                assert (zoo.p_window_green_counts(n, rel, margin=margin)
                        == p_closed_form_count(n, rel))
    for margin in (0, -1):
        with pytest.raises(ValueError, match="margin must be >= 1"):
            zoo.p_window_green_counts(5, "L", margin=margin)
    # The searches' pool is refused before its position dict is built.
    with pytest.raises(BudgetError, match="needs 600000001 multipliers"):
        zoo.p_witnesses(10 ** 8)


def test_p_witnessed_matches_closed_form():
    for a in range(-6, 7):
        for b in range(-6, 7):
            for rel in ("L", "R", "H"):
                witnessed = zoo.p_witnessed_related(a, b, rel, 6) is not None
                assert witnessed == zoo.p_green(a, b, rel)
    # Every relation on every window up to 12, on the pairs among the ends
    # and the centre of the window (D and J searches cost a square of the
    # pool per unrelated pair).
    for n in range(1, 13):
        pool = range(-3 * n, 3 * n + 1)
        ends = sorted({-n, 1 - n, -1, 0, 1, n - 1, n})
        for a, b in itertools.product(ends, repeat=2):
            for rel in "LRHDJ":
                w = zoo.p_witnessed_related(a, b, rel, n)
                assert (w is not None) == zoo.p_green(a, b, rel)
                if w is not None:
                    assert_witnesses(zoo.p_mult, w, a, b, rel, pool)


# constant families


def test_left_zero_definition():
    fs = zoo.left_zero(3)
    for x in range(3):
        for y in range(3):
            assert fs.table[x][y] == x


def test_null_semigroup():
    fs = zoo.null_semigroup(2)
    assert fs.table[1][1] == 0
    assert fs.zero == 0


def test_right_zero_r_count_is_one():
    # x y = y makes every right ideal the whole semigroup.
    gs = assert_green_agree(zoo.right_zero(3))
    assert gs.count("R") == 1
    assert gs.count("L") == 3


# transformation semigroups


def test_transformation_constant_maps():
    fs = zoo.transformation_semigroup(2, [(0, 0), (1, 1)])
    assert isinstance(fs, FiniteSemigroup)
    assert len(fs) == 2
    gs = assert_green_agree(fs)
    assert gs.count("R") == 1            # behaves like a right-zero pair


def test_transformation_identity_only():
    fs = zoo.transformation_semigroup(3, [(0, 1, 2)])
    assert len(fs) == 1


def test_transformation_seeded_cross_validation():
    fs = zoo.random_transformation_semigroup(4, 42, 2)
    assert_green_agree(fs)


def test_transformation_domain_guard():
    with pytest.raises(BudgetError):
        zoo.transformation_semigroup(6, [tuple(range(6))])


# square-free machinery


def test_squarefree_prefixes():
    assert zoo.squarefree_word(3) == "abc"
    assert zoo.squarefree_word(6) == "abcacb"
    with pytest.raises(ValueError, match=r"^length must be >= 1$"):
        zoo.squarefree_word(0)


def test_squarefree_1000():
    assert not zoo.has_square_factor(zoo.squarefree_word(1000))


def test_has_square_factor_detects():
    assert zoo.has_square_factor("abcabc")
    assert zoo.has_square_factor("aa")
    assert not zoo.has_square_factor("abcacb")


def reference_has_square_factor(w):
    """The slice scan over every half length and start."""
    n = len(w)
    for half in range(1, n // 2 + 1):
        for i in range(n - 2 * half + 1):
            if w[i:i + half] == w[i + half:i + 2 * half]:
                return True
    return False


# Letters from a few arbitrary code points, surrogates included, so that
# squares occur and wide codes can agree in some of their bytes only.
FEW_LETTERS = st.lists(st.characters(exclude_categories=()), min_size=1,
                       max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet="abc\n", max_size=40),
                 FEW_LETTERS.flatmap(lambda cs: st.text(cs, max_size=40)),
                 st.text(st.characters(exclude_categories=()), max_size=40)))
@example("\n\n")
@example("ba\nca\nc")
@example("\u0161\u0162\u0262")
@example("\U0001f600\ud800\U0001f600\ud800")
def test_has_square_factor_matches_slice_scan(w):
    assert zoo.has_square_factor(w) == reference_has_square_factor(w)


def test_squarefree_prefixes_have_no_square_and_doubles_have_one():
    assert zoo.has_square_factor("\n\n")
    for n in range(1, 301):
        w = zoo.squarefree_word(n)
        assert not zoo.has_square_factor(w)
        assert zoo.has_square_factor(w + w)


def test_sw_semigroup_squares_vanish():
    fs = zoo.sw_semigroup(4)
    zero = fs.zero
    for i in range(len(fs)):
        if i != zero:
            assert fs.table[i][i] == zero


def test_sw_semigroup_cap_one():
    fs = zoo.sw_semigroup(1)
    assert sorted(fs.names) == ["0", "a", "b", "c"]


def test_sw_semigroup_j_classes_singletons():
    fs = zoo.sw_semigroup(5)
    gs = assert_green_agree(fs)
    assert gs.count("J") == len(fs)


def test_sw_product_is_concatenation_when_factor():
    fs = zoo.sw_semigroup(4)
    pos = {nm: i for i, nm in enumerate(fs.names)}
    assert fs.table[pos["a"]][pos["b"]] == pos["ab"]


# pattern machinery


def test_pattern_square_visible():
    assert not zoo.pattern_instance_free("abab", "xx")


def test_pattern_squarefree_word():
    assert zoo.pattern_instance_free("abcacb", "xx")


def test_pattern_xyx():
    assert zoo.pattern_instance_free("aabb", "xyx")
    assert not zoo.pattern_instance_free("aba", "xyx")


def reference_pattern_instance_free(w, pattern):
    """Backtracking over the splittings of every factor of w, with each
    repeated variable bound to the same word."""
    def match(f, k, binding):
        if k == len(pattern):
            return not f
        var = pattern[k]
        bound = binding.get(var)
        if bound is not None:
            if f.startswith(bound):
                return match(f[len(bound):], k + 1, binding)
            return False
        for cut in range(1, len(f) + 1):
            binding[var] = f[:cut]
            if match(f[cut:], k + 1, binding):
                del binding[var]
                return True
            del binding[var]
        return False

    n = len(w)
    for i in range(n):
        for j in range(i + len(pattern), n + 1):
            if match(w[i:j], 0, {}):
                return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="xyzw", min_size=1, max_size=6),
       st.text(alphabet="ab\n", max_size=12))
@example("xx", "abab")
@example("xyx", "aba")
@example("x.x", "a.bab")
def test_pattern_instance_free_matches_backtracking(pattern, w):
    assert (zoo.pattern_instance_free(w, pattern)
            == reference_pattern_instance_free(w, pattern))


def test_pattern_caps_enforced():
    with pytest.raises(BudgetError):
        zoo.pattern_instance_free("a" * 30, "xx")
    with pytest.raises(BudgetError):
        zoo.pattern_instance_free("ab", "xxxxxxx")


def test_free_nil_counts():
    fs = zoo.free_nil("xx", 3, 2)
    assert len(fs) == 10                 # 3 letters + 6 square-free pairs + 0


def test_free_nil_zero_multiplication():
    fs = zoo.free_nil("xy", 3, 3)
    assert len(fs) == 4                  # letters + zero
    zero = fs.zero
    for i in range(len(fs)):
        for j in range(len(fs)):
            assert fs.table[i][j] == zero


def test_free_nil_j_singletons():
    fs = zoo.free_nil("xx", 3, 6)
    gs = assert_green_agree(fs)
    assert gs.count("J") == len(fs)


# M_n


def test_mn_sizes():
    assert len(zoo.mn_table(2)) == 5
    assert len(zoo.mn_table(3)) == 14
    for n in range(2, 7):
        assert len(zoo.mn_table(n)) == zoo.mn_size(n) == zoo.mn_size_brute(n)


def test_mn_table_matches_direct_products():
    # Reference: all m² triple products, against the Cayley-graph fill.
    for n in range(2, 13):
        fs = zoo.mn_table(n)
        pos = {k: i for i, k in enumerate(fs.keys)}
        zero = pos["0"]

        def product(x, y):
            if x == "0" or y == "0":
                return zero
            z = x.multiply(y)
            return pos[z] if z.span < n else zero

        assert fs.table == [[product(x, y) for y in fs.keys] for x in fs.keys]


def reference_mn_table(n):
    """M_n built on FisTriple objects, as mn_table built it before it
    multiplied plain tuples."""
    triples = [FisTriple(r, span - r, t)
               for span in range(1, n)
               for r in range(span + 1)
               for t in range(-r, span - r + 1)]
    triples.sort(key=lambda x: (x.span, x.r, x.t))
    elems = list(triples) + ["0"]
    pos = {e: i for i, e in enumerate(elems)}
    zero = pos["0"]
    letters = [FisTriple(0, 1, 1), FisTriple(1, 0, -1)]

    def times(x, g):
        z = x.multiply(g)
        return pos[z] if z.span < n else zero

    right = [[times(x, g) for g in letters] for x in triples] + [[zero, zero]]
    unary = [pos[x.inverse()] for x in triples] + [zero]
    names = [f"({x.r},{x.s},{x.t})" for x in triples] + ["0"]
    return right, [pos[g] for g in letters], names, elems, unary


def test_mn_table_matches_fistriple_reference():
    for n in range(2, 17):
        fs = zoo.mn_table(n)
        assert all(type(k) is FisTriple for k in fs.keys[:-1])
        assert fs.keys[-1] == "0"
        assert (fs.right, fs.letters, fs.names, fs.keys,
                fs.unary) == reference_mn_table(n)


def test_m2_isomorphic_to_b2():
    ok, _ = iso_tables(zoo.mn_table(2), zoo.b2())
    assert ok


def test_mn_unary_is_inverse():
    fs = zoo.mn_table(3)
    for x in range(len(fs)):
        xi = fs.unary[x]
        assert fs.table[fs.table[x][xi]][x] == x


# infinite product evidence


def test_truncated_product_j_break():
    factors = [zoo.monogenic_monoid(p) for p in range(1, 5)]
    big = direct_product(factors)
    x = big.element_index((1, 2, 3, 3))
    y = big.element_index((1, 2, 3, 4))
    gs = green_scc(big)
    assert not gs.related("J", x, y)


# zoo spec strings


@pytest.mark.parametrize("spec,size", [
    ("b2", 5), ("b2^1", 6), ("mn:3", 14), ("np:4", 5),
    ("rz:3", 3), ("lz:2", 2), ("null:4", 4), ("sw:2", 10),
    ("freenil:xx:3:2", 10), ("prod:rz:3,null:2", 6), ("transf:4:42:2", None),
])
def test_parse_zoo_tables(spec, size):
    fs = zoo.parse_zoo(spec)
    assert isinstance(fs, FiniteSemigroup)
    if size is not None:
        assert len(fs) == size


def test_parse_zoo_ball_and_window():
    ball = zoo.parse_zoo("bicyclic:5")
    assert not ball.closed
    window = zoo.parse_zoo("pz:10")
    assert isinstance(window, zoo.PWindow)


@pytest.mark.parametrize("bad", ["nonsense", "mn:x", "np:", "prod:",
                                 "prod:bicyclic:3,b2", "prod:b2,",
                                 "prod:,b2", "prod:b2, ,rz:2"])
def test_parse_zoo_rejects(bad):
    with pytest.raises(ValueError):
        zoo.parse_zoo(bad)


@pytest.mark.parametrize("spec, message", [
    ("np:0", "index must be >= 1"), ("rz:0", "size must be >= 1"),
    ("lz:-1", "size must be >= 1"), ("null:0", "size must be >= 1"),
    ("sw:0", "cap must be >= 1"), ("pz:0", "window bound must be >= 1"),
    ("bicyclic:0", "radius must be >= 1")])
def test_parse_zoo_lower_bound_messages(spec, message):
    with pytest.raises(ValueError) as info:
        zoo.parse_zoo(spec)
    assert str(info.value) == f"bad zoo spec {spec!r}: {message}"


def test_inverse_semigroups_have_equal_l_and_r_counts():
    # In an inverse semigroup the L- and R-class counts agree.
    for fs in (zoo.b2(), zoo.b2_with_identity(), zoo.mn_table(3),
               zoo.mn_table(4)):
        gs = green_scc(fs)
        assert gs.count("L") == gs.count("R")


def test_sw_elements_are_factors_of_the_reference_word():
    fs = zoo.sw_semigroup(5)
    prefix = zoo.squarefree_word(4000)
    for name in fs.names:
        if name != "0":
            assert name in prefix
            assert not zoo.has_square_factor(name)


def test_free_nil_elements_are_pattern_free():
    fs = zoo.free_nil("xx", 3, 5)
    for name in fs.names:
        if name != "0":
            assert zoo.pattern_instance_free(name, "xx")
