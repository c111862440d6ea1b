import random

import pytest
from hypothesis import example, given, settings, strategies as st

from greenbox import munn
from greenbox.munn import (FisTriple, InverseAutomaton, canonical_key,
                           fis_a_triple, fis_equal, fis_multiply, fold,
                           follow, is_fis_idempotent, linear_automaton,
                           munn_tree, to_dot, triple_inverse, triple_multiply)
from greenbox.words import Alphabet, free_reduce, invert_word, parse_word

A, B = 1, 2


def rand_word(rng, letters=2, max_len=12):
    return tuple(rng.choice([1, -1]) * rng.randint(1, letters)
                 for _ in range(rng.randint(1, max_len)))


def test_linear_single_letter():
    aut = linear_automaton((A,))
    assert aut.n == 2
    assert aut.edges == ((0, A, 1),)
    assert (aut.base, aut.final) == (0, 1)


def test_linear_negative_letter_stored_reversed():
    aut = linear_automaton((A, -A))
    assert aut.n == 3
    assert set(aut.edges) == {(0, A, 1), (2, A, 1)}


def test_linear_vertex_count():
    rng = random.Random(7)
    for _ in range(20):
        w = rand_word(rng)
        assert linear_automaton(w).n == len(w) + 1


def test_fold_of_a_ainv():
    t = fold(linear_automaton((A, -A)))
    assert t.n == 2
    assert t.base == t.final


def test_fold_deterministic_input_unchanged():
    aut = munn_tree((A, B))
    again = fold(aut)
    assert canonical_key(again) == canonical_key(aut)


def test_fold_absorbs_sandwich():
    lhs = fold(linear_automaton((A, -A, A)))
    rhs = fold(linear_automaton((A,)))
    assert canonical_key(lhs) == canonical_key(rhs)


def reads(aut, w):
    """True when w labels a path from base to final of an automaton: the
    reference for ``stephen.accepts``, which reads settled live graphs."""
    return follow(aut.transitions(), aut.base, w) == aut.final


def test_munn_tree_aba_inv():
    t = munn_tree((A, B, -A))
    # No folds apply: 4 vertices on a path, final one a-step back from the end.
    assert t.n == 4
    assert t.is_tree()
    assert reads(t, (A, B, -A))


def test_munn_tree_is_tree_property():
    rng = random.Random(3)
    for _ in range(100):
        t = munn_tree(rand_word(rng))
        assert t.is_tree()


def test_munn_tree_sandwich_iso():
    rng = random.Random(5)
    for _ in range(100):
        u = rand_word(rng)
        assert fis_equal(u, u + invert_word(u) + u)


def test_munn_tree_idempotent_base_final():
    t = munn_tree((A, -A))
    assert t.base == t.final


def test_fis_equal_axiom():
    assert fis_equal((A, -A, A), (A,))


def test_fis_equal_distinguishes_sided_idempotents():
    assert not fis_equal((A, -A), (-A, A))


def test_fis_equal_reflexive():
    assert fis_equal((A, B, -A), (A, B, -A))


def test_idempotent_examples():
    assert is_fis_idempotent((A, -A))
    assert is_fis_idempotent((-A, A, B, -B))
    assert not is_fis_idempotent((A, -B))


def test_idempotent_iff_reduction_empty():
    rng = random.Random(11)
    for _ in range(200):
        u = rand_word(rng)
        assert is_fis_idempotent(u) == (free_reduce(u) == ())
        t = munn_tree(u)
        assert is_fis_idempotent(u) == (t.base == t.final)


def test_multiply_matches_concatenation():
    assert canonical_key(fis_multiply(munn_tree((A,)), munn_tree((-A,)))) \
        == canonical_key(munn_tree((A, -A)))


def test_multiply_of_idempotents_is_idempotent():
    x = munn_tree((A, -A))
    y = munn_tree((B, -B))
    prod = fis_multiply(x, y)
    assert prod.base == prod.final


def test_multiply_random_pairs():
    rng = random.Random(13)
    for _ in range(200):
        u, v = rand_word(rng), rand_word(rng)
        lhs = fis_multiply(munn_tree(u), munn_tree(v))
        assert canonical_key(lhs) == canonical_key(munn_tree(u + v))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: signed_words(k, 1, 40)))
def test_munn_tree_walk_matches_fold_of_linear_automaton(w):
    # First-visit order is fold's smallest-index numbering, so the trees
    # agree vertex for vertex, not just up to isomorphism.
    tree, folded = munn_tree(w), fold(linear_automaton(w))
    assert (tree.n, tree.edges, tree.base, tree.final) == (
        folded.n, folded.edges, folded.base, folded.final)


def test_fold_confluence_under_shuffles():
    rng = random.Random(17)
    for _ in range(50):
        w = rand_word(rng)
        lin = linear_automaton(w)
        reference = canonical_key(fold(lin))
        for _ in range(5):
            order = list(range(len(lin.edges)))
            rng.shuffle(order)
            shuffled = InverseAutomaton(lin.n, [lin.edges[i] for i in order],
                                        lin.base, lin.final)
            assert canonical_key(fold(shuffled)) == reference


# one-letter triples


def test_triple_single_letter():
    assert fis_a_triple((A,)) == FisTriple(0, 1, 1)


def test_triple_walk():
    assert fis_a_triple((-A, A, A)) == FisTriple(1, 1, 1)


def test_triple_canonical_idempotent_form():
    for r in range(6):
        for s in range(6):
            if r + s == 0:
                continue
            w = (-A,) * r + (A,) * (r + s) + (-A,) * s
            assert fis_a_triple(w) == FisTriple(r, s, 0)


def test_triple_rejects_multiletter():
    with pytest.raises(ValueError):
        fis_a_triple((A, B))


@pytest.mark.parametrize("args, message", [
    ((0, 0, 0), "need r, s >= 0 with r + s >= 1"),
    ((-1, 2, 0), "need r, s >= 0 with r + s >= 1"),
    ((1, -1, 0), "need r, s >= 0 with r + s >= 1"),
    ((1, 1, 2), "final vertex outside the interval"),
    ((0, 3, -1), "final vertex outside the interval"),
])
def test_triple_refuses_a_malformed_interval(args, message):
    with pytest.raises(ValueError) as refusal:
        FisTriple(*args)
    assert str(refusal.value) == message


def test_triple_is_a_tuple_of_its_fields():
    x = FisTriple(r=0, s=1, t=1)
    assert repr(x) == "FisTriple(r=0, s=1, t=1)"
    assert x == FisTriple(0, 1, 1) == (0, 1, 1) != FisTriple(1, 0, -1)
    assert (x.r, x.s, x.t) == tuple(x)
    assert hash(x) == hash(FisTriple(0, 1, 1)) == hash((0, 1, 1))
    assert len({x, FisTriple(0, 1, 1), FisTriple(0, 1, 0)}) == 2


def triple_span(x):
    return x.r + x.s


def triple_times(x, y):
    """The FisTriple product, by the law on plain (r, s, t) triples."""
    return FisTriple(*triple_multiply((x.r, x.s, x.t), (y.r, y.s, y.t)))


def triple_inverted(x):
    return FisTriple(*triple_inverse((x.r, x.s, x.t)))


def triple_word(x):
    """A representative word of a triple: down to -r, up to s, back to t."""
    return (-A,) * x.r + (A,) * (x.r + x.s) + (-A,) * (x.s - x.t)


def test_triple_product_law_against_trees():
    triples = [FisTriple(r, s, t)
               for r in range(5) for s in range(5) if r + s >= 1
               for t in range(-r, s + 1)]
    for x in triples:
        for y in triples:
            z = triple_times(x, y)
            expected = munn_tree(triple_word(x) + triple_word(y))
            got = munn_tree(triple_word(z))
            assert canonical_key(got) == canonical_key(expected)
            assert fis_a_triple(triple_word(x) + triple_word(y)) == z


def test_triple_inverse():
    for r in range(4):
        for s in range(4):
            if r + s == 0:
                continue
            for t in range(-r, s + 1):
                x = FisTriple(r, s, t)
                assert triple_inverted(triple_inverted(x)) == x
                assert triple_times(triple_times(x, triple_inverted(x)), x) == x


def reference_triple_multiply(x, y):
    """The field formula for the FisTriple product, before the tuple law."""
    return FisTriple(max(x.r, y.r - x.t), max(x.s, y.s + x.t), x.t + y.t)


valid_triples = st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(
    lambda rs: sum(rs) >= 1).flatmap(
    lambda rs: st.integers(-rs[0], rs[1]).map(lambda t: (*rs, t)))


@settings(max_examples=300, deadline=None)
@given(valid_triples, valid_triples)
def test_tuple_triple_law_matches_fistriple(x, y):
    fx, fy = FisTriple(*x), FisTriple(*y)
    product = reference_triple_multiply(fx, fy)
    assert triple_times(fx, fy) == product
    assert triple_multiply(x, y) == (product.r, product.s, product.t)
    inverse = FisTriple(fx.r + fx.t, fx.s - fx.t, -fx.t)
    assert triple_inverted(fx) == inverse
    assert triple_inverse(x) == (inverse.r, inverse.s, inverse.t)


def test_idempotent_trees_pairwise_distinct():
    keys = set()
    count = 0
    for r in range(6):
        for s in range(6):
            if r + s == 0:
                continue
            w = (-A,) * r + (A,) * (r + s) + (-A,) * s
            keys.add(canonical_key(munn_tree(w)))
            count += 1
    assert len(keys) == count


def test_dot_export():
    alpha = Alphabet(["a", "b"])
    text = to_dot(munn_tree((A, B)), alpha)
    assert "doublecircle" in text
    assert "__start" in text
    assert '[label="a"]' in text
    assert text.count("->") == 2 + 1  # two labeled edges plus the start arrow


def test_fis_equal_is_congruence_spot_check():
    rng = random.Random(31)
    for _ in range(60):
        u = rand_word(rng)
        w = rand_word(rng)
        # u and u u^-1 u are equal; multiplying either side by w preserves it.
        v = u + invert_word(u) + u
        assert fis_equal(u + w, v + w)
        assert fis_equal(w + u, w + v)


def naive_fold(aut):
    """Reference fold: rescan for any conflicting edge pair and merge by
    rebuilding the whole edge set, until no conflict remains."""
    n = aut.n
    edges = set(aut.edges)
    base, final = aut.base, aut.final
    while True:
        conflict = None
        by_source = {}
        by_target = {}
        for u, a, v in edges:
            if (u, a) in by_source and by_source[(u, a)] != v:
                conflict = (by_source[(u, a)], v)
                break
            by_source[(u, a)] = v
            if (v, a) in by_target and by_target[(v, a)] != u:
                conflict = (by_target[(v, a)], u)
                break
            by_target[(v, a)] = u
        if conflict is None:
            break
        keep, lose = min(conflict), max(conflict)

        def sub(x):
            return keep if x == lose else x

        edges = {(sub(u), a, sub(v)) for u, a, v in edges}
        base = sub(base)
        final = sub(final)
    vertices = sorted({base} | {u for u, _, _ in edges}
                      | {v for _, _, v in edges})
    renumber = {v: i for i, v in enumerate(vertices)}
    return InverseAutomaton(
        len(vertices),
        sorted((renumber[u], a, renumber[v]) for u, a, v in edges),
        renumber[base], renumber[final])


def test_fold_matches_naive_reference():
    rng = random.Random(41)
    for _ in range(150):
        w = rand_word(rng, letters=2, max_len=14)
        lin = linear_automaton(w)
        assert canonical_key(fold(lin)) == canonical_key(naive_fold(lin))


def test_fold_matches_naive_on_grafted_automata():
    rng = random.Random(43)
    for _ in range(100):
        u, v = rand_word(rng), rand_word(rng)
        x, y = munn_tree(u), munn_tree(v)
        off = x.n
        edges = list(x.edges) + [(a + off, ltr, b + off)
                                 for a, ltr, b in y.edges]
        # Graft by an explicit bridging edge so the naive fold sees one
        # connected input (it has no seed-merge interface).
        glued = InverseAutomaton(x.n + y.n, edges + [(x.final, 9, y.base + off)],
                                 x.base, y.final + off)
        assert canonical_key(fold(glued)) == canonical_key(naive_fold(glued))


# Reference canonical key: one full breadth-first key per anchor, minimum over
# all anchors, on transition maps built here from the edge list.


def reference_maps(aut):
    out = [dict() for _ in range(aut.n)]
    inn = [dict() for _ in range(aut.n)]
    for u, a, v in aut.edges:
        assert out[u].get(a, v) == v and inn[v].get(a, u) == u
        out[u][a] = v
        inn[v][a] = u
    return out, inn


def reference_key(aut, pointed=True):
    out, inn = reference_maps(aut)
    letters = sorted({a for _, a, _ in aut.edges})

    def bfs_key(anchor, with_marks):
        num = {anchor: 0}
        order = [anchor]
        i = 0
        while i < len(order):
            v = order[i]
            i += 1
            for a in letters:
                for t in (out[v].get(a), inn[v].get(a)):
                    if t is not None and t not in num:
                        num[t] = len(order)
                        order.append(t)
        edges = tuple(sorted((num[u], a, num[v]) for u, a, v in set(aut.edges)))
        if with_marks:
            fin = None if aut.final is None else num[aut.final]
            return (aut.n, num[aut.base], fin, edges)
        return (aut.n, edges)

    if pointed:
        return bfs_key(aut.base, True)
    return min(bfs_key(v, False) for v in range(aut.n))


def flat(key):
    """A key with edge triples, its edges laid end to end in one int tuple,
    as ``canonical_key`` returns them."""
    *head, edges = key
    return (*head, tuple(x for edge in edges for x in edge))


def munn_theorem_equal(u, v):
    """Munn (1974): equal free reductions and equal sets of reduced prefixes."""
    def prefixes(w):
        return {free_reduce(w[:i]) for i in range(len(w) + 1)}
    return free_reduce(u) == free_reduce(v) and prefixes(u) == prefixes(v)


def signed_words(letters, min_size=1, max_size=30):
    return st.lists(st.tuples(st.integers(1, letters), st.sampled_from([1, -1]))
                    .map(lambda p: p[0] * p[1]),
                    min_size=min_size, max_size=max_size).map(tuple)


any_words = st.integers(1, 3).flatmap(signed_words)


@settings(max_examples=300, deadline=None)
@given(any_words)
@example((B, B, -B))
def test_canonical_key_matches_all_anchor_reference(w):
    tree = munn_tree(w)
    assert canonical_key(tree) == flat(reference_key(tree))
    unpointed = flat(reference_key(tree, False))
    assert canonical_key(tree, pointed=False) == unpointed
    # Batches of two and three anchors: later batches beat, tie with or
    # lose to the best key of the earlier ones.
    for batch in (2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(munn, "ANCHOR_BATCH", batch)
            assert canonical_key(tree, pointed=False) == unpointed


def test_unpointed_key_on_long_words():
    rng = random.Random(47)
    for length in (150, 300):
        tree = munn_tree(rand_word(rng, letters=2, max_len=length))
        assert (canonical_key(tree, pointed=False)
                == flat(reference_key(tree, False)))


def test_unpointed_key_with_prefix_block():
    # From vertex 1, vertex 2's block is empty, a proper prefix of vertex 0's
    # block as seen from anchor 0; it must still compare larger.
    tree = munn_tree((B, B, -B))
    key = canonical_key(tree, pointed=False)
    assert key == flat((3, ((0, B, 1), (1, B, 2))))
    assert key == flat(reference_key(tree, False))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 130])
def test_cycle_keys_tie_on_every_anchor(n):
    one = InverseAutomaton(n, [(i, A, (i + 1) % n) for i in range(n)], 0, n - 1)
    two = InverseAutomaton(n, [(i, A if i % 2 else B, (i + 1) % n)
                               for i in range(n)], 1 % n, 0)
    for aut in (one, two):
        assert canonical_key(aut) == flat(reference_key(aut))
        assert (canonical_key(aut, pointed=False)
                == flat(reference_key(aut, False)))
    shifted = InverseAutomaton(n, [((i + 3) % n, A, (i + 4) % n)
                                   for i in range(n)], 2 % n, 1 % n)
    assert canonical_key(shifted, pointed=False) == canonical_key(one, False)


def test_transitions_reject_nondeterminism():
    aut = InverseAutomaton(3, [(0, A, 1), (2, A, 1)], 0)
    with pytest.raises(ValueError):
        aut.transitions()


@settings(max_examples=300, deadline=None)
@given(any_words, any_words)
def test_fis_equal_matches_munn_theorem(u, v):
    assert fis_equal(u, v) == munn_theorem_equal(u, v)
    sandwich = u + invert_word(u) + u
    assert fis_equal(u, sandwich) and munn_theorem_equal(u, sandwich)
    assert (fis_equal(u + v, sandwich + v)
            == munn_theorem_equal(u + v, sandwich + v))


def test_munn_theorem_examples():
    assert munn_theorem_equal((A, -A, A), (A,))
    assert not munn_theorem_equal((A, -A), (-A, A))
    assert not munn_theorem_equal((A, B, -B), (A,))


def test_dot_numbering_is_the_pointed_key_numbering():
    alpha = Alphabet(["a", "b"])
    tree = munn_tree(parse_word("a^3 a^-3 b a^-1", alpha))
    assert to_dot(tree, alpha) == (
        "digraph automaton {\n  rankdir=LR;\n  node [shape=circle];\n"
        "  4 [shape=doublecircle];\n"
        '  __start [shape=none, label=""];\n  __start -> 0;\n'
        '  0 -> 1 [label="a"];\n  0 -> 2 [label="b"];\n'
        '  1 -> 3 [label="a"];\n  3 -> 5 [label="a"];\n'
        '  4 -> 2 [label="a"];\n}\n')
