"""Reproduction suite behind the paper-report CLI command.

Each entry re-derives one battery of claims from scratch and reports
reproduced, evidence-only (bounded or windowed checks standing in for an
infinite statement) or failed, together with the numbers obtained.  Entries
are deterministic given the seed, and the writers emit byte-stable files.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from . import engine, identities, munn, stephen, vmaps, zoo
from .words import Word, free_reduce, invert_word

REPRODUCED = "reproduced"
EVIDENCE = "evidence-only"
FAILED = "failed"


@dataclass
class ReportEntry:
    entry_id: str
    module: str
    claim: str
    status: str
    data: dict = field(default_factory=dict)

    def line(self) -> str:
        mark = {REPRODUCED: "ok", EVIDENCE: "ok*", FAILED: "FAIL"}[self.status]
        return f"[{mark:>4}] {self.entry_id}: {self.claim}"


def _entry(entry_id: str, module: str, claim: str,
           conditions: dict, *, evidence: bool = False,
           data: Optional[dict] = None) -> ReportEntry:
    failed = {k: v for k, v in conditions.items() if not v}
    status = FAILED if failed else (EVIDENCE if evidence else REPRODUCED)
    payload = dict(data or {})
    payload["checks"] = {k: bool(v) for k, v in conditions.items()}
    return ReportEntry(entry_id, module, claim, status, payload)


# ---------------------------------------------------------------------------
# entries


def entry_b2_green(seed: int = 0) -> ReportEntry:
    fs = zoo.b2()
    a = engine.green_scc(fs).counts()
    b = engine.green_definitional(fs).counts()
    expected = {"H": 5, "L": 3, "R": 3, "D": 2, "J": 2}
    return _entry(
        "c01-b2-green", "engine",
        "B2 Green class counts agree across both algorithms",
        {"scc_matches": a == expected, "definitional_matches": b == expected,
         "methods_agree": a == b},
        data={"counts": a})


def entry_mn_family(seed: int = 0) -> ReportEntry:
    sizes = {}
    ok_sizes = True
    for n in range(2, 7):
        table_n = len(zoo.mn_table(n))
        brute = zoo.mn_size_brute(n)
        formula = zoo.mn_size(n)
        sizes[n] = {"table": table_n, "walk": brute, "formula": formula}
        ok_sizes = ok_sizes and table_n == brute == formula
    iso, _ = engine.iso_tables(zoo.mn_table(2), zoo.b2())
    return _entry(
        "c02-mn-family", "zoo",
        "M_n sizes match the walk enumeration for n <= 6 and M_2 is B2",
        {"sizes_match": ok_sizes, "m2_iso_b2": iso},
        data={"sizes": sizes})


def entry_bicyclic(seed: int = 0) -> ReportEntry:
    ball = zoo.bicyclic_ball(8)
    witnesses = engine.ball_witnesses(ball)
    d_ok = True
    witness_example = None
    for e in ball.elements:
        w = witnesses.related(e, (0, 0), "D")
        if w is None:
            d_ok = False
            break
        if e == (2, 3):
            witness_example = {"element": str(e), "via": str(w["via"])}
    wl = engine.witnessed_green(ball, "L")
    wr = engine.witnessed_green(ball, "R")

    def strictly_increasing(counts: dict) -> bool:
        radii = sorted(counts)
        return all(counts[radii[i]] < counts[radii[i + 1]]
                   for i in range(len(radii) - 1))

    oracle_ok = True
    for relation, witnessed in (("L", wl), ("R", wr)):
        labels = witnessed.classes
        for i, x in enumerate(ball.elements):
            for j, y in enumerate(ball.elements):
                if (labels[i] == labels[j]) != zoo.bicyclic_green(x, y, relation):
                    oracle_ok = False
    return _entry(
        "c03-bicyclic", "engine",
        "bicyclic ball: one D-class with witnesses, L and R counts grow",
        {"all_d_related_to_identity": d_ok,
         "l_counts_grow": strictly_increasing(wl.counts_by_radius),
         "r_counts_grow": strictly_increasing(wr.counts_by_radius),
         "closed_form_agrees": oracle_ok,
         "flagged_apparently_infinite": wl.apparently_infinite
                                        and wr.apparently_infinite},
        evidence=True,
        data={"l_counts": wl.counts_by_radius,
              "r_counts": wr.counts_by_radius,
              "d_witness_for_(2,3)": witness_example})


def entry_p_semigroup(seed: int = 0) -> ReportEntry:
    window = zoo.PWindow(15)
    assoc = identities.check_identity_window(
        window, identities.parse_identity("x(yz) = (xy)z"))
    cr_axiom = identities.check_identity_window(
        window, identities.parse_identity("xx'x = x"))
    cr_comm = identities.check_identity_window(
        window, identities.parse_identity("xx' = x'x"))
    rolstar = identities.check_identity_window(
        window, identities.catalogue_entry("rolstar")[0])
    # R-congruence probe: 0 R 2 but (0 o 1, 2 o 1) = (1, 3) is not in R.
    probe = (zoo.p_green(0, 2, "R")
             and zoo.p_mult(0, 1) == 1 and zoo.p_mult(2, 1) == 3
             and not zoo.p_green(1, 3, "R"))
    l_count = zoo.p_window_green_counts(15, "L")
    witnesses = zoo.p_witnesses(15)
    odds = [x for x in window.elements if x % 2 == 1]
    odd_singletons = all(
        witnesses.related(a, b, "R") is None
        for a in odds for b in odds if a != b)
    evens = [x for x in window.elements if x % 2 == 0]
    evens_one_class = all(
        witnesses.related(evens[0], b, "R") is not None
        for b in evens[1:])
    return _entry(
        "c04-p-semigroup", "identities",
        "P = (Z, o): associative, completely regular, satisfies the "
        "L-congruence identity; R is not a congruence",
        {"associative_on_window": assoc.holds,
         "completely_regular": cr_axiom.holds and cr_comm.holds,
         "rolstar_identity": rolstar.holds,
         "r_congruence_counterexample": probe,
         "two_l_classes": l_count == 2,
         "odd_r_singletons": odd_singletons,
         "evens_one_r_class": evens_one_class},
        evidence=True,
        data={"window": 15, "triples_per_identity": assoc.checked,
              "l_classes": l_count})


class _Draws:
    """The draws of ``random.Random(seed)``: its randrange(n), randint,
    choice and shuffle streams, bit for bit.  Each draw is the stdlib's
    rejection loop, one ``getrandbits(n.bit_length())`` call per attempt,
    run one Python call shallower than the stdlib runs it."""

    __slots__ = ("getrandbits",)

    def __init__(self, seed: int):
        self.getrandbits = random.Random(seed).getrandbits

    def randrange(self, n: int) -> int:
        if n < 1:
            raise ValueError("empty range for randrange()")
        bits, k = self.getrandbits, n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    def randint(self, a: int, b: int) -> int:
        return a + self.randrange(b - a + 1)

    def choice(self, seq: Sequence):
        return seq[self.randrange(len(seq))]

    def shuffle(self, x: list) -> None:
        for i in reversed(range(1, len(x))):
            j = self.randrange(i + 1)
            x[i], x[j] = x[j], x[i]


def _random_word(draws: _Draws, letters: int, max_len: int) -> Word:
    length = draws.randint(1, max_len)
    return tuple(draws.choice((1, -1)) * draws.randint(1, letters)
                 for _ in range(length))


def _munn_samples(seed: int) -> tuple:
    """c05's draws: 500 random words over 3 letters, then five shuffled
    edge orders of the linear automaton of each of the first 100."""
    draws = _Draws(seed)
    words = [_random_word(draws, 3, 12) for _ in range(500)]
    orders = []
    for u in words[:100]:
        shuffles = [list(range(len(u))) for _ in range(5)]
        for order in shuffles:
            draws.shuffle(order)
        orders.append(shuffles)
    return words, orders


def entry_munn_randoms(seed: int = 0) -> ReportEntry:
    words, orders = _munn_samples(seed)
    trees = [munn.munn_tree(u) for u in words]
    sandwich_ok = all(
        munn.canonical_key(t)
        == munn.canonical_key(munn.munn_tree(u + invert_word(u) + u))
        for u, t in zip(words, trees))
    idem_ok = all(
        munn.is_fis_idempotent(u) == (free_reduce(u) == ()) for u in words)
    base_final_ok = all(
        munn.is_fis_idempotent(u) == (t.base == t.final)
        for u, t in zip(words[:200], trees))
    confluence_ok = True
    for u, shuffles in zip(words, orders):
        lin = munn.linear_automaton(u)
        reference = munn.canonical_key(munn.fold(lin))
        for order in shuffles:
            shuffled = munn.InverseAutomaton(
                lin.n, [lin.edges[i] for i in order], lin.base, lin.final)
            if munn.canonical_key(munn.fold(shuffled)) != reference:
                confluence_ok = False
    product_ok = all(
        munn.canonical_key(munn.fis_multiply(s, t))
        == munn.canonical_key(munn.munn_tree(u + v))
        for u, v, s, t in zip(words[0::2], words[1::2],
                              trees[0::2], trees[1::2]))
    return _entry(
        "c05-munn-randoms", "munn",
        "free inverse semigroup laws on 500 random words",
        {"x_xinv_x": sandwich_ok, "idempotent_iff_reduces_empty": idem_ok,
         "idempotent_iff_base_is_final": base_final_ok,
         "fold_confluence": confluence_ok,
         "product_matches_concatenation": product_ok},
        data={"words": len(words), "seed": seed})


M_PRESENTATION = "inv-monoid a b ; b b = b ; b = b a b a^-1 ; a a^-1 = 1"


def entry_stephen_m(seed: int = 0) -> ReportEntry:
    pres = stephen.parse_presentation(M_PRESENTATION)
    a, b = 1, 2
    verdicts = {}
    for n in range(3):
        u = (a,) * n + (b,)
        v = (a,) * (n + 1) + (b, -a, b)
        verdicts[n] = stephen.tau_equal(u, v, pres, max_stages=25)
    trace = stephen.stephen_run((b,), pres, max_stages=8)
    counts = trace.vertex_counts()
    # b is idempotent in M, so stage 2 re-roots the tree at base = final
    # without growing it; the ray then gains one vertex per stage.
    growing = (all(counts[i] < counts[i + 1]
                   for i in range(1, len(counts) - 1))
               and counts[-1] > counts[0])
    return _entry(
        "c06-stephen-anb", "stephen",
        "a^n b absorbs a^(n+1) b a^-1 b; the automaton of b keeps growing",
        {"tau_equal_n0": verdicts[0] == "equal",
         "tau_equal_n1": verdicts[1] == "equal",
         "tau_equal_n2": verdicts[2] == "equal",
         "stage_growth": growing and not trace.closed},
        evidence=True,
        data={"stage_vertex_counts": counts})


def _word_pairs(seed: int) -> list:
    """c07's draws: 100 pairs of random words over 2 letters."""
    draws = _Draws(seed)
    return [(_random_word(draws, 2, 8), _random_word(draws, 2, 8))
            for _ in range(100)]


def entry_stephen_consistency(seed: int = 0) -> ReportEntry:
    free_pres = stephen.Presentation(stephen.Alphabet(["a", "b"]), [])
    pairs = _word_pairs(seed)
    free_ok = True
    for u, v in pairs:
        expected = "equal" if munn.fis_equal(u, v) else "distinct"
        if stephen.tau_equal(u, v, free_pres) != expected:
            free_ok = False
    stage1_ok = all(
        stephen.stephen_run(u, free_pres).stages_used == 1 for u, _ in pairs[:20])
    idem_pres = stephen.parse_presentation("inv-semigroup a ; a a = a")
    test_words = [(1,), (1, 1), (-1,), (1, -1), (-1, 1), (1, 1, -1)]
    traces = [stephen.stephen_run(w, idem_pres) for w in test_words]
    all_closed = all(t.closed for t in traces)
    element_keys = {stephen.canonical_key(t.last) for t in traces}
    signatures = {stephen.dclass_signature(w, idem_pres) for w in test_words}
    table = stephen.presented_table(idem_pres)
    gs = engine.green_scc(table)
    return _entry(
        "c07-stephen-consistency", "stephen",
        "Stephen reduces to Munn trees on free presentations and matches "
        "the engine on a finite presented semigroup",
        {"matches_fis_equal": free_ok,
         "free_traces_close_at_stage_1": stage1_ok,
         "idempotent_presentation_closes": all_closed,
         "element_count_matches": len(element_keys) == len(table),
         "dclass_count_matches": len(signatures) == gs.count("D")},
        data={"pairs": len(pairs), "presented_elements": len(table)})


def entry_vmaps(seed: int = 0) -> ReportEntry:
    phi2 = vmaps.power(vmaps.phi(), 2)
    dom_ok = phi2.domain == vmaps.VSet(1, 0)
    im_ok = phi2.image() == vmaps.VSet(1, 2)
    powers_ok = all(
        vmaps.power(vmaps.phi(), n).domain == vmaps.VSet(n - 1, 0)
        and vmaps.power(vmaps.phi(), n).image() == vmaps.VSet(n - 1, n)
        for n in range(1, 11))
    idem_ok = True
    for r in range(9):
        for s in range(9):
            if r == 0 and s == 0:
                continue
            m = vmaps.idempotent_formula(r, s)
            if not (vmaps.idempotent_check(m)
                    and m.domain == vmaps.VSet(r + s - 1, r)):
                idem_ok = False
    wit_ok = True
    chain_ok = True
    for r in range(-8, 9):
        for s in range(9):
            m = vmaps.vset_idempotent_witness(r, s)
            if not (vmaps.idempotent_check(m)
                    and m.domain == vmaps.VSet(r, s)):
                wit_ok = False
            c = vmaps.j_chain(r, s)
            if not (c.domain == vmaps.VSet(r, s)
                    and c.image() == vmaps.VSet(0, 0)):
                chain_ok = False
    ball = vmaps.phi_psi_ball(8)
    idempotents = [m for m in ball.elements if vmaps.idempotent_check(m)]
    ball_idem_ok = all(
        m.domain == vmaps.WHOLE_X or isinstance(m.domain, vmaps.VSet)
        for m in idempotents)
    sampling_ok = _vmaps_sampling_agrees(seed)
    return _entry(
        "c08-vmaps", "vmaps",
        "partial bijection algebra on Z x N0 reproduces the V-set equalities",
        {"dom_phi_squared": dom_ok, "im_phi_squared": im_ok,
         "phi_powers": powers_ok, "phi_idempotents": idem_ok,
         "vset_idempotent_witnesses": wit_ok, "j_chains": chain_ok,
         "ball_idempotent_domains": ball_idem_ok,
         "sampling_oracle_agrees": sampling_ok},
        data={"ball_size": len(ball),
              "ball_idempotents": len(idempotents)})


def _vmaps_samples(seed: int):
    """200 random words over phi, phi^-1, psi, psi^-1 (letters 0..3), each
    with 50 points of [-20, 20] x [0, 20] to apply its map to."""
    draws = _Draws(seed)
    below = draws.randrange
    for _ in range(200):
        word = [below(4) for _ in range(draws.randint(1, 8))]
        points = [(below(41) - 20, below(21)) for _ in range(50)]
        yield word, points


def _vmaps_sampling_agrees(seed: int) -> bool:
    f, p = vmaps.phi(), vmaps.psi()
    gens = [f, vmaps.invert(f), p, vmaps.invert(p)]
    steps = [vmaps.BruteMap.from_vmap(g) for g in gens]
    for word, points in _vmaps_samples(seed):
        sym = vmaps.identity_map()
        brute = vmaps.BruteMap.from_vmap(sym)
        for i in word:
            sym = vmaps.compose(sym, gens[i])
            brute = brute.then(steps[i])
        if sym.apply_all(points) != brute.apply_all(points):
            return False
    return True


def entry_squarefree(seed: int = 0) -> ReportEntry:
    prefix = zoo.squarefree_word(1000)
    no_squares = not zoo.has_square_factor(prefix)
    sw = zoo.sw_semigroup(6)
    zero = sw.zero
    squares_die = all(
        sw.table[i][i] == zero for i in range(len(sw)) if i != zero)
    gs = engine.green_scc(sw)
    nonzero_singletons = all(
        len(cls) == 1 for cls in gs.classes("J") if zero not in cls)
    j_equals_n = gs.count("J") == len(sw)
    fn = zoo.free_nil("xx", 3, 6)
    gn = engine.green_scc(fn)
    fn_singletons = all(
        len(cls) == 1 for cls in gn.classes("J") if fn.zero not in cls)
    return _entry(
        "c09-squarefree", "zoo",
        "square-free machinery: the 1000-prefix has no square and the "
        "factor semigroups have singleton nonzero J-classes",
        {"prefix_squarefree": no_squares, "self_products_vanish": squares_die,
         "sw_j_singletons": nonzero_singletons,
         "sw_j_count_is_size": j_equals_n,
         "free_nil_j_singletons": fn_singletons},
        data={"sw_size": len(sw), "free_nil_size": len(fn)})


def entry_products(seed: int = 0) -> ReportEntry:
    b2 = zoo.b2()
    prod = engine.direct_product([b2, b2])
    counts = engine.green_scc(prod).counts()
    base = engine.green_scc(b2).counts()
    b2_ok = all(counts[k] == base[k] ** 2 for k in engine.RELATIONS)
    n2, n3 = zoo.monogenic_monoid(2), zoo.monogenic_monoid(3)
    prod23 = engine.direct_product([n2, n3])
    c23 = engine.green_scc(prod23).counts()
    c2 = engine.green_scc(n2).counts()
    c3 = engine.green_scc(n3).counts()
    n_ok = all(c23[k] == c2[k] * c3[k] for k in engine.RELATIONS)
    rz_null = engine.direct_product([zoo.right_zero(50), zoo.null_semigroup(2)])
    r_count = engine.green_scc(rz_null).count("R")
    factors = [zoo.monogenic_monoid(p) for p in range(1, 5)]
    big = engine.direct_product(factors)
    x = big.element_index((1, 2, 3, 3))
    y = big.element_index((1, 2, 3, 4))
    gs = engine.green_scc(big)
    not_j = not gs.related("J", x, y)
    return _entry(
        "c10-products", "engine",
        "finite product lemma: class counts multiply; the null factor and "
        "the truncated infinite product break it",
        {"b2xb2_counts_multiply": b2_ok, "n2xn3_counts_multiply": n_ok,
         "rz50xnull2_has_51_r_classes": r_count == 51,
         "truncated_product_x_y_not_j": not_j},
        data={"b2xb2": counts, "rz_null_r": r_count,
              "product_size": len(big)})


def entry_cross_validation(seed: int = 0) -> ReportEntry:
    agree = dj = meet = True
    sizes = []
    for s in range(25):
        result = zoo.random_transformation_semigroup(4, seed + s, 2)
        sizes.append(len(result))
        g1 = engine.green_scc(result)
        g2 = engine.green_definitional(result)
        if (g1.h, g1.l, g1.r, g1.d, g1.j) != (g2.h, g2.l, g2.r, g2.d, g2.j):
            agree = False
        # green_scc reads J as D, so only the ideal-based J can test D = J.
        if g2.d != g2.j:
            dj = False
        if g1.h != engine._dense(list(zip(g1.l, g1.r))):
            meet = False
    return _entry(
        "c11-cross-validation", "engine",
        "both Green algorithms agree on 25 transformation closures",
        {"methods_agree": agree, "d_equals_j": dj, "h_is_meet": meet},
        data={"closure_sizes": sizes, "seed_base": seed})


def entry_fixture(fixture_path: Optional[str]) -> ReportEntry:
    """Negative control: a table fixture must stay isomorphic to B2."""
    source = "builtin" if fixture_path is None else fixture_path
    try:
        if fixture_path is None:
            fs = zoo.b2()
        else:
            with open(fixture_path, "r", encoding="utf-8") as handle:
                fs = engine.parse_table(handle.read())
        iso, _ = engine.iso_tables(fs, zoo.b2())
    except (OSError, ValueError) as exc:    # BudgetError included
        return ReportEntry("c00-fixture", "engine",
                           "table fixture parses and is B2",
                           FAILED, {"error": str(exc), "source": source})
    return _entry("c00-fixture", "engine", "table fixture parses and is B2",
                  {"isomorphic_to_b2": iso}, data={"source": source})


ENTRY_FUNCTIONS: list = [
    entry_b2_green,
    entry_mn_family,
    entry_bicyclic,
    entry_p_semigroup,
    entry_munn_randoms,
    entry_stephen_m,
    entry_stephen_consistency,
    entry_vmaps,
    entry_squarefree,
    entry_products,
    entry_cross_validation,
]


def run_report(*, seed: int = 0, fixture: Optional[str] = None,
               out_dir: Optional[str] = None,
               progress: Optional[Callable] = None) -> list:
    entries = [entry_fixture(fixture)]
    if progress:
        progress(entries[-1])
    for fn in ENTRY_FUNCTIONS:
        entries.append(fn(seed))
        if progress:
            progress(entries[-1])
    entries.sort(key=lambda e: e.entry_id)
    if out_dir is not None:
        write_report(entries, out_dir)
    return entries


def report_ok(entries: list) -> bool:
    return all(e.status != FAILED for e in entries)


def write_report(entries: list, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    lines = ["# Reproduction report", ""]
    for e in entries:
        lines.append(f"- `{e.entry_id}` [{e.status}] {e.claim}")
    with open(os.path.join(out_dir, "report.md"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    by_module: dict = {}
    for e in entries:
        by_module.setdefault(e.module, []).append(e)
    for module, module_entries in sorted(by_module.items()):
        payload = [{"id": e.entry_id, "claim": e.claim, "status": e.status,
                    "data": e.data} for e in module_entries]
        path = os.path.join(out_dir, f"{module}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
