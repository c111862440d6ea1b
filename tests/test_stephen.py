import random
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from greenbox import stephen, zoo
from greenbox.engine import green_scc, iso_tables
from greenbox.limits import LIMITS
from greenbox.munn import (InverseAutomaton, LiveGraph, canonical_key,
                           fis_equal, fold, munn_tree, to_dot)
from greenbox.stephen import (Presentation, StageTrace, accepts,
                              dclass_signature, initial_stage,
                              parse_presentation, presented_table, r_expand,
                              stephen_run, stephen_step, tau_equal)
from greenbox.words import Alphabet, format_word, invert_word, parse_word
from test_engine import from_table
from test_munn import (flat, reads, reference_key, reference_maps,
                       signed_words)
from test_words import alphabet_names

A, B, C = 1, 2, 3

M_TEXT = "inv-monoid a b ; b b = b ; b = b a b a^-1 ; a a^-1 = 1"
IDEM_TEXT = "inv-semigroup a ; a a = a"
B2_TEXT = "inv-semigroup a ; a a a = a a ; a a^-1 a a^-1 = a a^-1"


def rand_word(rng, letters=2, max_len=8):
    return tuple(rng.choice([1, -1]) * rng.randint(1, letters)
                 for _ in range(rng.randint(1, max_len)))


# parsing


def test_parse_m_presentation():
    pres = parse_presentation(M_TEXT)
    assert pres.monoid_mode
    assert alphabet_names(pres.alphabet) == ("a", "b")
    assert pres.relations == [((B, B), (B,)),
                              ((B,), (B, A, B, -A)),
                              ((A, -A), ())]


def test_parse_semigroup_presentation():
    pres = parse_presentation(IDEM_TEXT)
    assert not pres.monoid_mode
    assert pres.relations == [((A, A), (A,))]


def test_parse_rejects_malformed_relation():
    with pytest.raises(ValueError):
        parse_presentation("inv-semigroup a ; a =")


def test_relation_refusals_name_their_position_in_the_presentation():
    for text, message in (
            ("inv-monoid a ; a \u00e9 = a",
             "relation 1: unexpected character '\u00e9' (at position 17)"),
            ("inv-monoid a b ; a b = b a ; a a^ = a",
             "relation 2: expected integer exponent after '^' "
             "(at position 33)"),
            ("inv-monoid a ;\n a = a^-1  b",
             "relation 1: unknown letter 'b' (at position 26)")):
        with pytest.raises(ValueError) as err:
            parse_presentation(text)
        assert str(err.value) == message


def test_parse_rejects_empty_side_in_semigroup_mode():
    with pytest.raises(ValueError):
        parse_presentation("inv-semigroup a ; a a^-1 = 1")


def test_presentation_refuses_empty_sides_outside_monoid_mode():
    alphabet = Alphabet(["a"])
    for relations in ([((A,), ())], [((), (A,))], [((A,), (A,)), ((), ())]):
        with pytest.raises(ValueError,
                           match="^semigroup relations need nonempty sides$"):
            Presentation(alphabet, relations)
        assert Presentation(alphabet, relations,
                            monoid_mode=True).relations == relations


def test_presentation_is_a_tuple_of_its_fields():
    alphabet, relations = Alphabet(["a"]), [((A, A), (A,))]
    pres = Presentation(alphabet, relations)
    assert pres.monoid_mode is False
    assert pres == Presentation(alphabet, relations, False) == (
        alphabet, relations, False)
    assert pres != Presentation(alphabet, relations, monoid_mode=True)
    assert repr(pres) == (f"Presentation(alphabet={alphabet!r}, "
                          "relations=[((1, 1), (1,))], monoid_mode=False)")


def test_parse_rejects_missing_header():
    with pytest.raises(ValueError):
        parse_presentation("monoid a ; a = a")


def format_presentation(pres):
    """The text of a presentation, which ``parse_presentation`` reads
    back."""
    kind = "inv-monoid" if pres.monoid_mode else "inv-semigroup"
    rels = " ; ".join(
        f"{format_word(l, pres.alphabet) or '1'} = "
        f"{format_word(r, pres.alphabet) or '1'}"
        for l, r in pres.relations)
    return f"{kind} {' '.join(alphabet_names(pres.alphabet))} ; {rels}"


def test_presentation_format_round_trip():
    pres = parse_presentation(M_TEXT)
    again = parse_presentation(format_presentation(pres))
    assert again.relations == pres.relations
    assert again.monoid_mode == pres.monoid_mode


# R-expansions


def test_r_expand_nothing_when_conclusions_present():
    # Loop automaton over one letter: both sides of a a = a already read.
    loop = InverseAutomaton(1, [(0, A, 0)], base=0, final=0)
    pres = parse_presentation(IDEM_TEXT)
    _, merges, applied = r_expand(LiveGraph.settled(loop), pres)
    assert applied == 0
    assert merges == []


def test_r_expand_adds_fresh_path():
    pres = parse_presentation("inv-monoid a b ; b = b a b a^-1")
    aut = munn_tree((B,))
    grown, merges, applied = r_expand(LiveGraph.settled(aut), pres)
    assert applied == 1
    assert len(grown.parent) == aut.n + 3    # 4-edge path, 3 fresh interiors
    assert merges == []


def test_r_expand_no_premise_no_change():
    pres = parse_presentation("inv-semigroup a b ; a b = b a")
    aut = munn_tree((A,))
    grown, merges, applied = r_expand(LiveGraph.settled(aut), pres)
    assert applied == 0
    assert len(grown.parent) == aut.n


def test_r_expand_empty_conclusion_merges():
    pres = parse_presentation("inv-monoid a ; a = 1")
    aut = munn_tree((A,))
    _, merges, applied = r_expand(LiveGraph.settled(aut), pres)
    assert (0, 1) in merges or (1, 0) in merges
    assert applied >= 1


# stages and runs


def test_step_fixed_point_means_closed():
    pres = parse_presentation(IDEM_TEXT)
    trace = stephen_run((A,), pres)
    assert trace.closed
    stage = trace.last
    next_stage = stephen_step(LiveGraph.settled(stage), pres).snapshot()
    assert canonical_key(next_stage) == canonical_key(stage)


def test_idempotent_presentation_collapses():
    pres = parse_presentation(IDEM_TEXT)
    trace = stephen_run((A,), pres)
    assert trace.closed
    assert trace.last.n == 1


def test_m_trace_of_b_grows_without_closing():
    pres = parse_presentation(M_TEXT)
    trace = stephen_run((B,), pres, max_stages=6)
    assert not trace.closed
    counts = trace.vertex_counts()
    # Stage 2 re-roots at base = final (b is idempotent); afterwards the
    # a-ray grows by one vertex per stage.
    assert counts[0] == 2
    assert all(counts[i] < counts[i + 1] for i in range(1, len(counts) - 1))


def test_b2_style_presentation_closes():
    pres = parse_presentation(B2_TEXT)
    trace = stephen_run((A,), pres)
    assert trace.closed


def test_budget_exhaustion_is_normal():
    pres = parse_presentation(M_TEXT)
    trace = stephen_run((B,), pres, max_stages=3)
    assert not trace.closed
    assert trace.stages_used == 3
    assert trace.stop == "stages"


def test_stop_reason_fixpoint():
    trace = stephen_run((A,), parse_presentation(IDEM_TEXT))
    assert (trace.closed, trace.stop) == (True, "fixpoint")


def test_stop_reason_vertices():
    pres = parse_presentation(M_TEXT)
    trace = stephen_run((B,), pres, max_stages=40, max_vertices=6)
    assert (trace.closed, trace.stop) == (False, "vertices")
    assert trace.stages_used < 40
    assert stephen_step(LiveGraph.settled(trace.last), pres).n > 6


@pytest.mark.parametrize("budgets, message", [
    ({"max_stages": 0}, "stages must be >= 1"),
    ({"max_stages": -3}, "stages must be >= 1"),
    ({"max_vertices": 0}, "vertices must be >= 1"),
])
def test_budgets_below_one_are_refused(budgets, message):
    pres = parse_presentation(IDEM_TEXT)
    with pytest.raises(ValueError, match=message):
        stephen_run((A,), pres, **budgets)
    with pytest.raises(ValueError, match=message):
        tau_equal((A,), (A, A), pres, **budgets)


def test_empty_word_needs_monoid_mode():
    pres = parse_presentation(IDEM_TEXT)
    with pytest.raises(ValueError):
        stephen_run((), pres)


def test_empty_word_in_monoid_mode():
    pres = parse_presentation(M_TEXT)
    trace = stephen_run((), pres, max_stages=4)
    assert trace.stages[0].n == 1


# acceptance


def test_accepts_own_word():
    rng = random.Random(2)
    for _ in range(50):
        w = rand_word(rng)
        assert accepts(LiveGraph.settled(munn_tree(w)), w)


def test_accepts_backtracking_walk():
    assert accepts(LiveGraph.settled(munn_tree((A,))), (A, -A, A))


def test_accepts_missing_letter():
    assert not accepts(LiveGraph.settled(munn_tree((A,))), (B,))


def test_acceptance_is_monotone_along_stages():
    pres = parse_presentation(M_TEXT)
    trace = stephen_run((B,), pres, max_stages=6)
    rng = random.Random(9)
    probes = [rand_word(rng, 2, 6) for _ in range(60)]
    for earlier, later in zip(trace.stages, trace.stages[1:]):
        for w in probes:
            if reads(earlier, w):
                assert reads(later, w)


# word problem


def test_tau_equal_defining_relation():
    pres = parse_presentation(M_TEXT)
    assert tau_equal((B,), (B, B), pres, max_stages=25) == "equal"


def test_tau_equal_anb_chain():
    pres = parse_presentation(M_TEXT)
    for n in range(3):
        u = (A,) * n + (B,)
        v = (A,) * (n + 1) + (B, -A, B)
        assert tau_equal(u, v, pres, max_stages=25) == "equal"


def test_tau_equal_idempotent_presentation():
    pres = parse_presentation(IDEM_TEXT)
    assert tau_equal((A,), (A, A), pres) == "equal"


def test_tau_distinct_in_b2_presentation():
    pres = parse_presentation(B2_TEXT)
    assert tau_equal((A,), (A, A), pres) == "distinct"


def test_tau_unknown_on_budget():
    pres = parse_presentation(M_TEXT)
    assert tau_equal((B,), (A, B), pres, max_stages=3) == "unknown"


def test_tau_matches_fis_equal_with_no_relations():
    rng = random.Random(23)
    pres = Presentation(Alphabet(["a", "b"]), [])
    for _ in range(100):
        u, v = rand_word(rng), rand_word(rng)
        expected = "equal" if fis_equal(u, v) else "distinct"
        assert tau_equal(u, v, pres) == expected


def test_free_presentation_closes_at_munn_tree():
    rng = random.Random(29)
    pres = Presentation(Alphabet(["a", "b"]), [])
    for _ in range(30):
        u = rand_word(rng)
        trace = stephen_run(u, pres)
        assert trace.closed
        assert trace.stages_used == 1
        assert canonical_key(trace.last) == canonical_key(munn_tree(u))


def test_distinct_verdicts_stable_under_bigger_budgets():
    pres = parse_presentation(B2_TEXT)
    pairs = [((A,), (A, A)), ((A, A), (A, -A)), ((-A, A), (A, -A))]
    for u, v in pairs:
        small = tau_equal(u, v, pres, max_stages=6)
        if small == "distinct":
            assert tau_equal(u, v, pres, max_stages=30) == "distinct"


# D-class signatures


def test_signature_equal_elements():
    pres = parse_presentation(IDEM_TEXT)
    assert dclass_signature((A,), pres) == dclass_signature((A, A), pres)


def test_signatures_on_b2_presentation():
    pres = parse_presentation(B2_TEXT)
    words = [(A,), (-A,), (A, -A), (-A, A), (A, A)]
    sigs = {w: dclass_signature(w, pres) for w in words}
    assert sigs[(A,)] == sigs[(A, -A)] == sigs[(-A, A)] == sigs[(-A,)]
    assert sigs[(A, A)] != sigs[(A,)]
    assert len(set(sigs.values())) == 2


def test_signature_unknown_for_infinite_graphs():
    pres = parse_presentation(M_TEXT)
    assert dclass_signature((B,), pres, max_stages=5) is None


def test_stagewise_graphs_of_b_and_ab_differ():
    pres = parse_presentation(M_TEXT)
    t0 = stephen_run((B,), pres, max_stages=5)
    t1 = stephen_run((A, B), pres, max_stages=5)
    for k in range(2, 5):
        s0 = canonical_key(t0.stages[k], pointed=False)
        s1 = canonical_key(t1.stages[k], pointed=False)
        assert s0 != s1


# presented tables


def test_presented_table_idempotent_presentation():
    pres = parse_presentation(IDEM_TEXT)
    fs = presented_table(pres)
    assert len(fs) == 1


def test_presented_table_b2_presentation():
    pres = parse_presentation(B2_TEXT)
    fs = presented_table(pres)
    assert len(fs) == 5
    ok, _ = iso_tables(fs, zoo.b2())
    assert ok


def test_signature_count_matches_engine_d_count():
    pres = parse_presentation(B2_TEXT)
    fs = presented_table(pres)
    gs = green_scc(fs)
    words = [(A,), (-A,), (A, -A), (-A, A), (A, A)]
    sigs = {dclass_signature(w, pres) for w in words}
    assert len(sigs) == gs.count("D")


def test_presented_table_raises_on_infinite():
    pres = parse_presentation(M_TEXT)
    with patch.dict(LIMITS, stephen_stages=6), pytest.raises(RuntimeError):
        presented_table(pres)


def test_presented_table_stops_expanding_at_the_element_budget(monkeypatch):
    # The free monogenic inverse semigroup: every trace closes, and the
    # elements never do.  The growth stops once the count passes 200, two
    # Stephen runs per expanded element, instead of finishing that level.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return stephen_run(*args, **kwargs)
    monkeypatch.setattr(stephen, "stephen_run", counted)
    with pytest.raises(RuntimeError, match="more than 200 elements"):
        presented_table(parse_presentation("inv-semigroup a"))
    assert len(calls) == 322


def reference_presented_table(pres, *, max_stages=40, max_vertices=20_000,
                              max_elements=200):
    """Reference table: a breadth-first search over generator words, then
    one Stephen run per cell, per inverse and per generator."""
    gens = []
    for i in range(len(pres.alphabet)):
        gens.append((i + 1,))
        gens.append((-(i + 1),))

    def classify(w):
        trace = stephen_run(w, pres, max_stages=max_stages,
                            max_vertices=max_vertices)
        if not trace.closed:
            raise RuntimeError(
                f"trace of {format_word(w, pres.alphabet)!r} did not close; "
                "the presented semigroup may be infinite")
        return canonical_key(trace.last)

    reps = []
    index = {}

    def add(w):
        key = classify(w)
        if key in index:
            return index[key]
        index[key] = len(reps)
        reps.append(w)
        if len(reps) > max_elements:
            raise RuntimeError(f"more than {max_elements} elements")
        return index[key]

    frontier = []
    for g in gens:
        before = len(reps)
        i = add(g)
        if len(reps) > before:
            frontier.append(i)
    while frontier:
        nxt = []
        for i in frontier:
            for g in gens:
                before = len(reps)
                j = add(reps[i] + g)
                if len(reps) > before:
                    nxt.append(j)
        frontier = nxt
    n = len(reps)
    table = [[add(reps[i] + reps[j]) for j in range(n)] for i in range(n)]
    unary = [add(invert_word(reps[i])) for i in range(n)]
    names = [format_word(w, pres.alphabet) for w in reps]
    return from_table(table, {add(g) for g in gens}, names=names, unary=unary)


FINITE_PRESENTATIONS = [f"inv-monoid a ; a^{n} = 1" for n in range(1, 13)] + [
    "inv-monoid a b ; a a = 1 ; b b b = 1 ; a b a b = 1",           # S3
    "inv-monoid a b ; a^4 = 1 ; b b = 1 ; a b a b = 1",             # D4
    "inv-monoid a b ; a a = 1 ; b b b = 1 ; a b a b a b a b = 1",   # S4
    "inv-semigroup a b ; a a = a ; b b = b",                        # semilattice
    "inv-semigroup a ; a^4 = a^2",
    "inv-semigroup a ; a^3 = a",
    B2_TEXT,
    "inv-semigroup a ; a a = a a a",                                # B2 again
]


@pytest.mark.parametrize("text", FINITE_PRESENTATIONS)
def test_presented_table_matches_reference(text):
    pres = parse_presentation(text)
    fs = presented_table(pres)
    ref = reference_presented_table(pres)
    assert (fs.table, fs.unary, fs.names, fs.letters) == (
        ref.table, ref.unary, ref.names, ref.letters)
    # Elements are the canonical keys of the closed stages of their words.
    assert fs.keys == [canonical_key(stephen_run(
        parse_word(name, pres.alphabet), pres).last) for name in fs.names]


@pytest.mark.parametrize("text, kwargs", [
    (M_TEXT, {"max_stages": 6}),
    ("inv-semigroup a", {}),        # infinite, and every trace closes
])
def test_presented_table_errors_match_reference(text, kwargs):
    pres = parse_presentation(text)
    with pytest.raises(RuntimeError) as ref:
        reference_presented_table(pres, **kwargs)
    # Each budget keyword names the ledger entry stephen_<name>.
    ledger = {"stephen_" + k[len("max_"):]: v for k, v in kwargs.items()}
    assert set(ledger) <= set(LIMITS)
    with patch.dict(LIMITS, ledger), pytest.raises(RuntimeError) as new:
        presented_table(pres)
    assert str(new.value) == str(ref.value)


def test_stage_dot_export():
    pres = parse_presentation(M_TEXT)
    trace = stephen_run((B,), pres, max_stages=3)
    text = to_dot(trace.last, pres.alphabet, name="stage3")
    assert text.startswith("digraph stage3")
    assert '[label="b"]' in text and '[label="a"]' in text


# Reference stage loop: R-expansion as a scan of every vertex on maps built
# here, and the fixpoint test by all-anchor reference keys at every stage.


def reference_r_expand(aut, pres):
    out, inn = reference_maps(aut)

    def walk(v, w):
        for x in w:
            v = out[v].get(x) if x > 0 else inn[v].get(-x)
            if v is None:
                return None
        return v

    to_adjoin, merges, seen = [], [], set()
    for premise, conclusion in pres.sides():
        for p in range(aut.n):
            q = walk(p, premise)
            if q is None:
                continue
            if not conclusion:
                if p != q:
                    merges.append((p, q))
                continue
            if walk(p, conclusion) == q:
                continue
            if (p, conclusion, q) not in seen:
                seen.add((p, conclusion, q))
                to_adjoin.append((p, conclusion, q))
    edges, n = list(aut.edges), aut.n
    for p, word, q in to_adjoin:
        path = [p] + list(range(n, n + len(word) - 1)) + [q]
        n += len(word) - 1
        for x, u, v in zip(word, path, path[1:]):
            edges.append((u, x, v) if x > 0 else (v, -x, u))
    grown = InverseAutomaton(n, edges, aut.base, aut.final)
    return grown, merges, len(to_adjoin) + len(merges)


def reference_step(aut, pres):
    grown, merges, _ = reference_r_expand(aut, pres)
    return fold(grown, extra_merges=merges)


def reference_run(u, pres, max_stages, max_vertices):
    """Every stage by a full refold, and the reason the run stopped."""
    stage = initial_stage(u, pres)
    stages, key = [stage], reference_key(stage)
    while len(stages) < max_stages:
        nxt = reference_step(stage, pres)
        if nxt.n > max_vertices:
            return stages, "vertices"
        if reference_key(nxt) == key:
            return stages, "fixpoint"
        stages.append(nxt)
        stage, key = nxt, reference_key(nxt)
    return stages, "stages"


def reference_tau(u, v, pres, max_stages, max_vertices):
    su, sv = initial_stage(u, pres), initial_stage(v, pres)
    ku, kv = reference_key(su), reference_key(sv)
    closed_u = closed_v = False
    for _ in range(max_stages):
        if reads(su, v) and reads(sv, u):
            return "equal"
        if closed_u and closed_v:
            return "equal" if ku == kv else "distinct"
        if not closed_u:
            nxt = reference_step(su, pres)
            if nxt.n > max_vertices:
                return "unknown"
            k = reference_key(nxt)
            if k == ku:
                closed_u = True
            else:
                su, ku = nxt, k
        if not closed_v:
            nxt = reference_step(sv, pres)
            if nxt.n > max_vertices:
                return "unknown"
            k = reference_key(nxt)
            if k == kv:
                closed_v = True
            else:
                sv, kv = nxt, k
    if closed_u and closed_v:
        if reads(su, v) and reads(sv, u):
            return "equal"
        return "equal" if ku == kv else "distinct"
    return "unknown"


REFERENCE_PRESENTATIONS = [
    "inv-semigroup a b",          # free
    IDEM_TEXT,                    # a a = a
    M_TEXT,                       # the a^n b monoid
    # two commuting bicyclic generators
    "inv-monoid a b ; a a^-1 = 1 ; b b^-1 = 1 ; a b = b a",
    "inv-monoid a b ; a b = 1",   # an empty side
    "inv-monoid a ; a a a = 1",   # Z/3: every anchor ties
    B2_TEXT,
]


def assert_same_trace(u, pres, max_stages, max_vertices):
    trace = stephen_run(u, pres, max_stages=max_stages,
                        max_vertices=max_vertices)
    stages, stop = reference_run(u, pres, max_stages, max_vertices)
    assert (trace.closed, trace.stop) == (stop == "fixpoint", stop)
    assert ([(a.n, a.edges, a.base, a.final) for a in trace.stages]
            == [(a.n, a.edges, a.base, a.final) for a in stages])
    for stage in trace.stages[-2:]:
        assert canonical_key(stage) == flat(reference_key(stage))
        assert (canonical_key(stage, pointed=False)
                == flat(reference_key(stage, False)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REFERENCE_PRESENTATIONS), signed_words(2, 1, 8),
       signed_words(2, 1, 8))
def test_worklist_stages_match_full_rescan(text, u, v):
    pres = parse_presentation(text)
    k = len(pres.alphabet)
    u = tuple(x for x in u if abs(x) <= k) or (A,)
    v = tuple(x for x in v if abs(x) <= k) or (A,)
    assert_same_trace(u, pres, 12, 2000)
    assert (tau_equal(u, v, pres, max_stages=10, max_vertices=2000)
            == reference_tau(u, v, pres, 10, 2000))


relation_sides = signed_words(3, 0, 3)


def assert_settled(graph):
    """The live-graph invariant that walks rely on: every transition of a
    live class leads to a live class, which has the reverse transition."""
    roots = graph.roots()
    assert len(roots) == graph.n
    for r in roots:
        for x, t in graph.delta[r].items():
            assert graph.parent[t] == t
            assert graph.delta[t][-x] == r
    assert graph.parent[graph.base] == graph.base


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(relation_sides, relation_sides), min_size=1,
                max_size=3),
       st.booleans(), signed_words(3, 3, 20), signed_words(3, 1, 8),
       st.tuples(st.integers(1, 12), st.integers(1, 400)))
@example(rels=[((-A, -A), (-B, -C))], monoid=False,
         u=(A, C, -A, -A, C, B, -C, A), v=(A,), budgets=(12, 400))
@example(rels=[((A, B), (-B, -B))], monoid=False, u=(-B, -B), v=(B,),
         budgets=(12, 400))
# Runs that stop by fixpoint, by stages and by vertices.
@example(rels=[((A, A), (A,))], monoid=False, u=(A, -A, A), v=(A, A),
         budgets=(12, 400))
@example(rels=[((A, -A), ()), ((B, -B), ()), ((A, B), (B, A))], monoid=True,
         u=(A, B, A), v=(B, A, A), budgets=(5, 400))
@example(rels=[((A, -A), ()), ((B, -B), ()), ((A, B), (B, A))], monoid=True,
         u=(A, B, A), v=(B, A, A), budgets=(12, 20))
def test_worklist_matches_full_rescan_on_random_presentations(rels, monoid, u,
                                                              v, budgets):
    # The first example folds vertices together far from the new paths, so
    # merged classes must enter the worklist; in the second a side's walk
    # uses a vertex L - 1 steps from the touched ones.
    if not monoid:
        rels = [(l or (A,), r or (B,)) for l, r in rels]
    pres = Presentation(Alphabet(["a", "b", "c"]), rels, monoid_mode=monoid)
    stage = munn_tree(u)
    for _ in range(8):
        grown, merges, applied = r_expand(LiveGraph.settled(stage), pres)
        ref_grown, ref_merges, ref_applied = reference_r_expand(stage, pres)
        assert (len(grown.parent), tuple(grown.edges), merges, applied) == (
            ref_grown.n, ref_grown.edges, ref_merges, ref_applied)
        stage = stephen_step(LiveGraph.settled(stage), pres).snapshot()
        if stage.n > 600:
            break
    # One live graph across the stages: every stage rebuilt from its logs,
    # the stop reason and the verdict match the full refold, and each
    # settle leaves the graph walkable.
    max_stages, max_vertices = budgets
    assert_same_trace(u, pres, max_stages, max_vertices)
    assert (tau_equal(u, v, pres, max_stages=max_stages,
                      max_vertices=max_vertices)
            == reference_tau(u, v, pres, max_stages, max_vertices))
    trace = StageTrace(u, pres)
    assert_settled(trace.graph)
    while trace.stages_used < max_stages and trace.advance(pres,
                                                          max_vertices):
        assert_settled(trace.graph)
    assert_settled(trace.graph)
