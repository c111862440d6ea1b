import itertools
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import repeat
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from greenbox import identities, zoo
from greenbox.engine import FiniteSemigroup
from greenbox.identities import (_CATALOGUE_SOURCES, IdPow, Inv, Mul, Var,
                                 ZeroC, _read, _Stager, catalogue_entry,
                                 check_identity_exhaustive,
                                 check_identity_window, parse_identity,
                                 parse_term)
from greenbox.limits import LIMITS, BudgetError
from test_engine import from_table, rees_quotient


def eval_term(structure, term, assignment):
    """The value of ``term`` under ``assignment``: every variable is a
    constant, so staging computes the value."""
    vals = list(assignment.values())
    slots = {name: (-1, False, i) for i, name in enumerate(assignment)}
    _, _, r = _Stager(_read(structure), slots, vals, 0).stage(term)
    return vals[r]


# parsing and printing


def test_parse_variable_and_product():
    t = parse_term("x y x")
    assert t == Mul(Mul(Var("x"), Var("y")), Var("x"))


def test_parse_glued():
    assert parse_term("xx'yy'") == parse_term("x x' y y'")


def test_parse_powers():
    assert parse_term("x^3") == Mul(Mul(Var("x"), Var("x")), Var("x"))
    assert parse_term("x^-2") == Mul(Inv(Var("x")), Inv(Var("x")))
    assert parse_term("x^0") == IdPow(Var("x"))
    assert parse_term("0") == ZeroC()


def test_parse_parentheses():
    t = parse_term("(xy)'")
    assert t == Inv(Mul(Var("x"), Var("y")))


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_term("x +")
    with pytest.raises(ValueError):
        parse_identity("x = y = z")


def test_parse_caps_term_size():
    # x^128 has 128 variables and 127 products: 255 nodes.
    assert str(parse_term("x^128")) == " ".join(["x"] * 128)
    nested = "(" * 255 + "x" + ")" * 255
    assert parse_term(nested) == Var("x")
    for text in ("x^129", "x^-128", "(x^64)^2 x", "(" + nested + ")",
                 "x^1000000000000", "(" * 3000 + "x" + ")" * 3000):
        with pytest.raises(ValueError, match="exceeds 256 nodes"):
            parse_term(text)


def test_term_print_round_trip():
    for text in ["x y x", "(xy)'", "x(y^0z)^0x", "x'x(xx')'", "x^2", "0"]:
        t = parse_term(text)
        assert parse_term(str(t)) == t


def test_catalogue_entries_parse_and_round_trip():
    cat = {key: catalogue_entry(key) for key in _CATALOGUE_SOURCES}
    assert len(cat["inverse"]) == 1
    assert len(cat["si"]) == 4
    assert str(cat["c2"][0]) == "x x = x x x"
    for ids in cat.values():
        for ident in ids:
            reparsed = parse_identity(str(ident))
            assert (reparsed.lhs, reparsed.rhs) == (ident.lhs, ident.rhs)


def test_catalogue_parametric_keys():
    assert str(catalogue_entry("c5")[0].lhs) == str(parse_term("x^5"))
    assert catalogue_entry("burnside-2-3")[0].rhs == parse_term("x^5")
    assert catalogue_entry("nil-4")[0].rhs == ZeroC()
    with pytest.raises(KeyError):
        catalogue_entry("mystery")


# evaluation


def test_eval_variable():
    fs = zoo.b2()
    assert eval_term(fs, Var("x"), {"x": 3}) == 3


def test_eval_idempotent_power_on_p():
    window = zoo.PWindow(10)
    assert eval_term(window, parse_term("x^0"), {"x": 4}) == 0
    assert eval_term(window, parse_term("x^0"), {"x": 5}) == 5


def test_eval_idempotent_power_refused_outside_cr():
    fs = zoo.b2()          # inverse but not completely regular
    with pytest.raises(ValueError, match="completely regular"):
        eval_term(fs, parse_term("x^0"), {"x": 0})


def test_eval_unary_refused_without_operation():
    fs = zoo.null_semigroup(2)
    with pytest.raises(ValueError):
        eval_term(fs, parse_term("x'"), {"x": 1})


def test_eval_zero_constant():
    fs = zoo.null_semigroup(3)
    assert eval_term(fs, ZeroC(), {}) == fs.zero


def test_eval_respects_quotient_maps():
    fs = zoo.monogenic_monoid(4)
    ideal = {3, 4}
    q = rees_quotient(fs, ideal)

    def image(x):
        keep = [i for i in range(len(fs)) if i not in ideal]
        return keep.index(x) if x not in ideal else len(keep)

    term = parse_term("x y x x")
    for x in range(len(fs)):
        for y in range(len(fs)):
            direct = image(eval_term(fs, term, {"x": x, "y": y}))
            mapped = eval_term(q, term, {"x": image(x), "y": image(y)})
            assert direct == mapped


# checking


def test_b2_satisfies_inverse_identity():
    result = check_identity_exhaustive(zoo.b2(), catalogue_entry("inverse")[0])
    assert result.holds


def test_left_zero_fails_inverse_identity():
    result = check_identity_exhaustive(zoo.left_zero(2),
                                       catalogue_entry("inverse")[0])
    assert not result.holds
    assert result.counterexample == {"x": 0, "y": 1}


def test_x_equals_x_always_holds():
    for fs in (zoo.b2(), zoo.right_zero(3)):
        assert check_identity_exhaustive(fs, parse_identity("x = x")).holds


def test_budget_refusal():
    fs = zoo.mn_table(4)   # 30 elements; 30^5 assignments is over budget
    ident = parse_identity("v w x y z = z y x w v")
    with pytest.raises(ValueError, match="budget"):
        check_identity_exhaustive(fs, ident)


def test_window_budget_refusal():
    # The window check shares the exhaustive check's budget: 601^3 > 10^7.
    window = zoo.PWindow(300)
    with pytest.raises(ValueError, match="budget"):
        check_identity_window(window, parse_identity("x(yz) = (xy)z"))


def test_rolstar_on_p_window():
    window = zoo.PWindow(15)
    result = check_identity_window(window, catalogue_entry("rolstar")[0])
    assert result.holds
    assert result.window_verified
    assert result.checked == 31 ** 3


def test_cr_axioms_on_p_window():
    window = zoo.PWindow(15)
    for text in ["x(yz) = (xy)z", "(x')' = x", "xx'x = x", "xx' = x'x",
                 "x = xx'x"]:
        assert check_identity_window(window, parse_identity(text)).holds


def test_inverse_identity_fails_on_p():
    window = zoo.PWindow(6)
    result = check_identity_window(window, catalogue_entry("inverse")[0])
    assert not result.holds


def test_r_congruence_probe():
    assert zoo.p_green(0, 2, "R")
    assert (zoo.p_mult(0, 1), zoo.p_mult(2, 1)) == (1, 3)
    assert not zoo.p_green(1, 3, "R")


def test_inverse_axiomatizations_agree_on_inverse_zoo():
    for fs in (zoo.b2(), zoo.b2_with_identity(), zoo.mn_table(2),
               zoo.mn_table(3)):
        primary = check_identity_exhaustive(
            fs, catalogue_entry("inverse")[0]).holds
        alt = all(check_identity_exhaustive(fs, ident).holds
                  for ident in catalogue_entry("inverse-alt"))
        assert primary and alt


def test_identity_with_disjoint_variable_sides():
    # x x' = y y' fails on B2 (sided idempotents differ).
    result = check_identity_exhaustive(zoo.b2(), parse_identity("xx' = yy'"))
    assert not result.holds


# reference: the recursive evaluator, which re-reads the structure at every
# node of every assignment; the compiled checker must agree with it exactly


class ReferenceTable:
    """Adapter presenting a FiniteSemigroup to the reference evaluator."""

    def __init__(self, fs):
        self.fs = fs
        self.elements = list(range(len(fs)))
        self.completely_regular = fs.completely_regular
        self.zero_element = fs.zero

    def mult(self, a, b):
        return self.fs.table[a][b]

    def unary(self, a):
        if self.fs.unary is None:
            raise ValueError("structure has no unary operation")
        return self.fs.unary[a]


def reference_structure(obj):
    return ReferenceTable(obj) if isinstance(obj, FiniteSemigroup) else obj


def reference_has_unary(structure):
    if isinstance(structure, ReferenceTable):
        return structure.fs.unary is not None
    return getattr(structure, "unary", None) is not None


def reference_eval_term(structure, term, assignment):
    structure = reference_structure(structure)
    if isinstance(term, Var):
        return assignment[term.name]
    if isinstance(term, Mul):
        return structure.mult(
            reference_eval_term(structure, term.left, assignment),
            reference_eval_term(structure, term.right, assignment))
    if isinstance(term, Inv):
        if not reference_has_unary(structure):
            raise ValueError(f"term {term} needs a unary operation")
        return structure.unary(
            reference_eval_term(structure, term.arg, assignment))
    if isinstance(term, IdPow):
        if not getattr(structure, "completely_regular", False):
            raise ValueError(
                "x^0 is only meaningful on completely regular structures")
        x = reference_eval_term(structure, term.arg, assignment)
        return structure.mult(x, structure.unary(x))
    if isinstance(term, ZeroC):
        zero = getattr(structure, "zero_element", None)
        if zero is None:
            raise ValueError("zero constant needs a structure with a zero")
        return zero
    raise TypeError(f"not a term: {term!r}")


def reference_variables(term):
    if isinstance(term, Var):
        return {term.name}
    if isinstance(term, Mul):
        return reference_variables(term.left) | reference_variables(term.right)
    if isinstance(term, (Inv, IdPow)):
        return reference_variables(term.arg)
    return set()


def reference_check_over(structure, identity, elements, window_verified,
                         max_evaluations=LIMITS["assignments"]):
    """(holds, counterexample, checked, window_verified)."""
    structure = reference_structure(structure)
    variables = sorted(reference_variables(identity.lhs)
                       | reference_variables(identity.rhs))
    n, k = len(elements), len(variables)
    if n ** k > max_evaluations:
        raise BudgetError(
            f"{n}^{k} assignments exceed the budget of {max_evaluations}")
    checked = 0
    for combo in itertools.product(elements, repeat=k):
        assignment = dict(zip(variables, combo))
        checked += 1
        if (reference_eval_term(structure, identity.lhs, assignment)
                != reference_eval_term(structure, identity.rhs, assignment)):
            return False, assignment, checked, window_verified
    return True, None, checked, window_verified


# Tables without a unary operation, a non-completely-regular table, tables
# without a zero, a completely regular table with a zero, and pz windows.
REFERENCE_STRUCTURES = [
    zoo.b2(),                                   # unary, not CR, zero
    zoo.parse_zoo("np:3"),                      # no unary, zero
    from_table([[0, 0], [1, 1]]),               # no unary, no zero
    zoo.right_zero(3),                          # CR, no zero
    from_table([[0, 0, 2], [1, 1, 2], [2, 2, 2]],
               unary=[0, 1, 2]),                # CR, zero: lz:2 plus 0
    zoo.PWindow(2),
    zoo.PWindow(3),
]

def term_texts(leaves):
    return st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: f"({p[0]}) ({p[1]})"),
            inner.map(lambda t: f"({t})'"),
            inner.map(lambda t: f"({t})^0"),
            st.tuples(inner, st.sampled_from(["^2", "^3", "^-1", "^-2"])).map(
                lambda p: f"({p[0]}){p[1]}")),
        max_leaves=6)


TERM_TEXTS = term_texts(["x", "y", "z", "x", "y", "z", "0"])
# The staged checker runs the last variable innermost, as a list over the
# elements: sides that use only it, or only the outer variables, or no
# variable at all, take paths of their own.
SHAPED_TERM_TEXTS = st.one_of(
    TERM_TEXTS, term_texts(["z", "z'", "z^0", "z z", "0"]),
    term_texts(["x", "y", "x'", "y^0", "0"]), st.sampled_from(["0", "0'"]))


def outcome(check):
    try:
        result = check()
    except Exception as exc:        # compared by type and message
        return type(exc), str(exc)
    if isinstance(result, tuple):
        return result
    return (result.holds, result.counterexample, result.checked,
            result.window_verified)


def assert_matches_reference(structure, ident, budget=LIMITS["assignments"]):
    if isinstance(structure, zoo.PWindow):
        window = structure.elements
        new = outcome(lambda: check_identity_window(structure, ident))
        old = outcome(lambda: reference_check_over(structure, ident, window,
                                                   True))
    else:
        elements = list(range(len(structure)))
        with patch.dict(LIMITS, assignments=budget):
            new = outcome(lambda: check_identity_exhaustive(structure, ident))
        old = outcome(lambda: reference_check_over(structure, ident, elements,
                                                   False, budget))
    assert new == old
    return new


@settings(max_examples=500, deadline=None)
@given(structure=st.sampled_from(REFERENCE_STRUCTURES), lhs=TERM_TEXTS,
       rhs=TERM_TEXTS,
       budget=st.one_of(st.just(LIMITS["assignments"]), st.integers(1, 130)))
def test_compiled_checker_matches_recursive_reference(structure, lhs, rhs,
                                                      budget):
    try:
        ident = parse_identity(f"{lhs} = {rhs}")
    except ValueError:
        assume(False)           # over the term size cap
    assert_matches_reference(structure, ident, budget)


@settings(max_examples=500, deadline=None)
@given(structure=st.sampled_from(REFERENCE_STRUCTURES),
       lhs=SHAPED_TERM_TEXTS, rhs=SHAPED_TERM_TEXTS)
def test_staged_shapes_match_recursive_reference(structure, lhs, rhs):
    try:
        ident = parse_identity(f"{lhs} = {rhs}")
    except ValueError:
        assume(False)           # over the term size cap
    assert_matches_reference(structure, ident)


# Variables at several depths, and failures whose first difference lies
# inside the innermost list rather than at its ends.
DEPTH_IDENTITIES = ["xy = yx", "x y x = x x y", "x (y z) x = x y (z x)",
                    "x'y = y x'", "x^0 y z = y z x^0", "y x = y x y' y",
                    "xy = x z z", "zx = z z", "x = z^0 y"]


def test_staged_failures_inside_the_inner_list_match_reference():
    inside = 0
    for structure in REFERENCE_STRUCTURES:
        n = len(structure.elements if isinstance(structure, zoo.PWindow)
                else structure)
        for text in DEPTH_IDENTITIES:
            result = assert_matches_reference(structure,
                                              parse_identity(text))
            if len(result) == 4 and not result[0]:
                inside += 2 <= (result[2] - 1) % n <= n - 2
    assert inside >= 3


# The innermost variable runs in blocks of at most identities.BLOCK
# values.  Under the assignment limit only a one-variable check has more
# than one block; a small block splits every check, so a first failure can
# lie in any block.


@settings(max_examples=300, deadline=None)
@given(structure=st.sampled_from(REFERENCE_STRUCTURES),
       lhs=SHAPED_TERM_TEXTS, rhs=SHAPED_TERM_TEXTS, block=st.integers(1, 4))
def test_blocked_checks_match_recursive_reference(structure, lhs, rhs, block):
    try:
        ident = parse_identity(f"{lhs} = {rhs}")
    except ValueError:
        assume(False)           # over the term size cap
    with patch.object(identities, "BLOCK", block):
        assert_matches_reference(structure, ident)


def semilattice_with_nilpotent(m):
    """The chain 0 > 1 > ... > m - 2 (x y = max(x, y), m - 2 the zero)
    with a nilpotent m - 1 adjoined: every product with it is the zero.
    Only the last element fails x x = x."""
    zero, nil = m - 2, m - 1
    table = [[max(x, y) for y in range(m - 1)] + [zero]
             for x in range(m - 1)]
    return from_table(table + [[zero] * m])


def test_failure_in_a_later_block_matches_reference():
    structure = semilattice_with_nilpotent(10)
    for text in ("x x = x", "y = x y x", "y = y y x"):
        ident = parse_identity(text)
        with patch.object(identities, "BLOCK", 3):
            result = assert_matches_reference(structure, ident)
        holds, _, checked, _ = result
        assert not holds and checked == 10      # in the last of 4 blocks


def test_one_variable_window_check_holds_one_block_at_a_time():
    assert identities.BLOCK ** 2 > LIMITS["assignments"]
    window = zoo.PWindow(4 * identities.BLOCK)
    tracemalloc.start()
    try:
        result = check_identity_window(window, parse_identity("xx'x = x"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.holds and result.checked == 8 * identities.BLOCK + 1
    # About 0.8 MB for one block's lists; unblocked, over 6 MB.
    assert peak < 2_000_000


# One row operation serves tables and windows: row(a, bs) is the products
# a·b in the order of bs.


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(-n, n), st.lists(st.integers(-n, n),
                                             max_size=2 * n + 1))))
def test_window_row_matches_products(case):
    n, a, bs = case
    window = zoo.PWindow(n)
    assert window.row(a, bs) == list(map(window.mult, repeat(a), bs))
    assert _read(window).row(a, bs) == window.row(a, bs)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
                max_size=40), st.integers(-60, 60))
def test_window_vmult_matches_products(pairs, c):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    assert zoo.PWindow.vmult(xs, ys) == list(map(zoo.p_mult, xs, ys))
    assert (zoo.PWindow.vmult(xs, repeat(c))
            == list(map(zoo.p_mult, xs, repeat(c))))


@lru_cache(maxsize=None)
def mn_ops(n):
    return _read(zoo.parse_zoo(f"mn:{n}"))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, zoo.mn_size(n) - 1),
    st.lists(st.integers(0, zoo.mn_size(n) - 1), max_size=40))))
def test_table_row_matches_products(case):
    n, a, bs = case
    ops = mn_ops(n)
    assert ops.row(a, bs) == list(map(ops.mult, repeat(a), bs))


# One ^0 operation serves tables and windows: idpow(xs) is x x' for each x
# of xs, in order.


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-60, 60), max_size=40))
def test_window_idpow_matches_products(xs):
    want = [zoo.p_mult(x, zoo.p_unary(x)) for x in xs]
    assert zoo.PWindow.idpow(xs) == want
    assert _read(zoo.PWindow(3)).idpow(iter(xs)) == want
    assert list(map(_read(zoo.PWindow(3)).idem, xs)) == want


def test_table_idpow_matches_products():
    for structure in REFERENCE_STRUCTURES + [zoo.parse_zoo("rz:4")]:
        ops = _read(structure)
        if ops.completely_regular:
            xs = list(ops.elements) * 2
            assert ops.idpow(xs) == [ops.mult(x, ops.unary(x)) for x in xs]
            assert ops.idpow(xs) == list(map(ops.idem, xs))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-60, 60), max_size=40))
def test_window_vunary_matches_unary(xs):
    want = list(map(zoo.p_unary, xs))
    assert zoo.PWindow.vunary(xs) == want
    assert _read(zoo.PWindow(3)).vunary(iter(xs)) == want


def test_table_vunary_matches_unary():
    for structure in REFERENCE_STRUCTURES + [zoo.parse_zoo("mn:3")]:
        ops = _read(structure)
        if ops.unary is None:
            assert ops.vunary is None
        else:
            xs = list(ops.elements) * 2
            assert ops.vunary(xs) == list(map(ops.unary, xs))


def test_window_unary_of_a_list_calls_no_unary():
    window, calls = zoo.PWindow(6), []
    window.unary = lambda m: calls.append(m) or zoo.p_unary(m)
    result = check_identity_window(window, parse_identity("x' z' = z' x'"))
    assert result.holds is False
    assert all(abs(m) <= 6 for m in calls) and len(calls) <= 13


def test_window_idpow_of_a_list_calls_no_unary():
    window, calls = zoo.PWindow(6), []
    window.unary = lambda m: calls.append(m) or zoo.p_unary(m)
    result = check_identity_window(window, parse_identity("x^0 z^0 = z^0 x^0"))
    assert result.holds is False
    assert all(abs(m) <= 6 for m in calls) and len(calls) <= 13


def test_scalar_idempotent_power_is_one_call_per_value():
    # x is an outer variable, so x^0 is staged on scalars: one idem call
    # for each of the 13 values of x, and no product or unary call.
    window, calls = zoo.PWindow(6), Counter()
    for name in ("mult", "unary", "idem"):
        op = getattr(zoo.PWindow, name)
        setattr(window, name, lambda *args, name=name, op=op:
                calls.update([name]) or op(*args))
    result = check_identity_window(window, parse_identity("x^0 (x y) = x y"))
    assert (result.holds, result.checked) == (True, 169)
    assert calls == {"idem": 13}
