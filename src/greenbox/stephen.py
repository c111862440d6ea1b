"""Stephen's procedure for inverse semigroup and monoid presentations.

Starting from the Munn tree of a word, alternate two moves: adjoin a missing
relation-side path wherever the other side reads (an R-expansion), then fold
back to a deterministic automaton.  Acceptance of a word by any stage
persists in the limit, which turns the stage sequence into a semidecision
procedure for the word problem.  Underlying graphs, with the distinguished
vertices forgotten, classify D-classes.

A run keeps one live folded graph (``munn.LiveGraph``) across all its
stages.  Each stage tests only the roots near what the last stage changed,
gives its new paths fresh vertex ids above all existing ones, and settles
just the new edges and merges through the graph's coincidence queue.  The
graph logs every edge and union, and ``StageTrace.stages`` rebuilds a
stage from the logs only when it is asked for (``--dot-dir``, canonical
keys, tests); each rebuilt stage is numbered exactly as a full refold
numbers it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from .engine import FiniteSemigroup, Oracle, enumerate_oracle
from .limits import LIMITS, at_least
from .munn import (InverseAutomaton, LiveGraph, Mark, canonical_key, follow,
                   munn_tree, quotient)
from .munn import to_dot as dot_export  # stage automata share the exporter
from .words import (Alphabet, Word, WordSyntaxError, format_word, invert_word,
                    parse_word)


@dataclass
class Presentation:
    alphabet: Alphabet
    relations: list            # list of (Word, Word)
    monoid_mode: bool = False

    def __post_init__(self):
        for lhs, rhs in self.relations:
            if not self.monoid_mode and (not lhs or not rhs):
                raise ValueError("semigroup relations need nonempty sides")

    def sides(self) -> list:
        """Relation pairs in both directions, identical sides dropped."""
        out = []
        for lhs, rhs in self.relations:
            if lhs != rhs:
                out.append((lhs, rhs))
                out.append((rhs, lhs))
        return out

    def format(self) -> str:
        kind = "inv-monoid" if self.monoid_mode else "inv-semigroup"
        rels = " ; ".join(
            f"{format_word(l, self.alphabet) or '1'} = "
            f"{format_word(r, self.alphabet) or '1'}"
            for l, r in self.relations)
        return f"{kind} {' '.join(self.alphabet.names)} ; {rels}"


def parse_presentation(text: str) -> Presentation:
    """Header ``inv-semigroup letters...`` or ``inv-monoid letters...``,
    then ``;``-separated relations ``lhs = rhs``; ``1`` denotes the empty
    word (monoid mode only)."""
    pieces = [p.strip() for p in text.replace("\n", " ").split(";")]
    header = pieces[0].split()
    if not header or header[0] not in ("inv-semigroup", "inv-monoid"):
        raise ValueError(
            "presentation must start with inv-semigroup or inv-monoid")
    monoid = header[0] == "inv-monoid"
    alphabet = Alphabet(header[1:])
    if len(alphabet) == 0:
        raise ValueError("presentation needs at least one letter")
    relations = []
    for k, piece in enumerate(pieces[1:], start=1):
        if not piece:
            continue
        if piece.count("=") != 1:
            raise ValueError(f"relation {k}: expected exactly one '='")
        lhs_text, rhs_text = (s.strip() for s in piece.split("="))
        sides = []
        for side_text in (lhs_text, rhs_text):
            if side_text == "1":
                if not monoid:
                    raise ValueError(
                        f"relation {k}: empty word only in monoid mode")
                sides.append(())
                continue
            if not side_text:
                raise ValueError(f"relation {k}: missing side")
            try:
                sides.append(parse_word(side_text, alphabet))
            except (WordSyntaxError, KeyError) as exc:
                raise ValueError(f"relation {k}: {exc}") from None
        relations.append((sides[0], sides[1]))
    return Presentation(alphabet, relations, monoid)


# ---------------------------------------------------------------------------
# stages


def r_expand(graph: LiveGraph, pres: Presentation,
             since: Optional[Mark] = None) -> tuple:
    """All applicable R-expansions against the current stage, applied at
    once with fresh interior vertices.

    ``graph`` is a settled ``LiveGraph``: the new paths are added to it and
    queued, the merges produced by empty conclusion sides (monoid mode)
    are queued, and the caller settles.  Returns (graph, merges, applied),
    applied counting the expansions.

    With ``since``, the graph's mark one stage back, only roots near what
    changed after it are tested (see ``_near``), in ascending order, which
    finds exactly what a scan of every root finds.
    """
    scan = graph.roots() if since is None else _near(graph, since, pres)
    delta = graph.delta
    to_adjoin = []
    merges = []
    seen = set()
    for premise, conclusion in pres.sides():
        for p in scan:
            q = follow(delta, p, premise)
            if q is None:
                continue
            if not conclusion:
                if p != q:
                    merges.append((p, q))
                continue
            if follow(delta, p, conclusion) == q:
                continue
            key = (p, conclusion, q)
            if key not in seen:
                seen.add(key)
                to_adjoin.append(key)
    for p, word, q in to_adjoin:
        prev = p
        for i, x in enumerate(word):
            nxt = q if i == len(word) - 1 else graph.add_vertex()
            if x > 0:
                graph.add_edge(prev, x, nxt)
            else:
                graph.add_edge(nxt, -x, prev)
            prev = nxt
    for p, q in merges:
        graph.merge(p, q)
    return graph, merges, len(to_adjoin) + len(merges)


def stephen_step(graph: LiveGraph, pres: Presentation,
                 since: Optional[Mark] = None) -> LiveGraph:
    """One stage: expand synchronously, then settle what was added.  The
    settled ``LiveGraph`` grows in place and is returned."""
    r_expand(graph, pres, since)
    graph.settle()
    return graph


def _near(graph: LiveGraph, since: Mark, pres: Presentation) -> list:
    """Ascending roots within distance L - 1 of a changed class, L being
    the longest relation side.

    A class changed when it holds an endpoint of an edge logged after
    ``since`` (fresh vertices are endpoints of new edges) or took part in
    a union logged after it, which covers every merge.  Any other class is
    one vertex of the stage before, with the same transitions, targets
    renamed.  A side's walk of at most L steps leaves only vertices within
    L - 1 of its start, so from a root farther than that from every
    changed class, both sides read as they did a stage before.  That root
    needed no expansion or merge then, else it would hold an endpoint, so
    it needs none now.
    """
    find = graph.find
    near = {find(x) for u, _, v in graph.edges[since.edges:] for x in (u, v)}
    near.update(find(keep) for keep, _ in graph.unions[since.unions:])
    delta = graph.delta
    ring = list(near)
    radius = max((len(w) for side in pres.sides() for w in side), default=1)
    for _ in range(radius - 1):
        outer = []
        for v in ring:
            for t in delta[v].values():
                if t not in near:
                    near.add(t)
                    outer.append(t)
        ring = outer
    return sorted(near)


class StageLog(Sequence):
    """The stages of one run, kept as the logs of its live graph.

    The graph logs every edge and union in order, and after each stage
    the log records the graph's mark.  Stage i is rebuilt from the logs'
    marked prefixes by ``munn.quotient`` when it is asked for, and is not
    kept.  Roots are numbered in ascending id order, a monotone map, so
    each stage numbers its vertices exactly as refolding every stage in
    full does: each class by its smallest index, in ascending order.
    """

    def __init__(self, graph: LiveGraph):
        self.edges = graph.edges
        self.unions = graph.unions
        self.base = graph.base
        self.final = graph.final
        self.marks = [graph.mark()]

    def __len__(self) -> int:
        return len(self.marks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        m = self.marks[i]
        return quotient(m.ids, self.edges[:m.edges], self.unions[:m.unions],
                        self.base, self.final)


class StageTrace:
    """One Stephen run: its stages, and whether and why it stopped.

    While the run goes on, ``graph`` is its live graph, settled at the
    last stage (or at an unchanged successor of it); the run drops it
    when it ends.  ``stop`` is "fixpoint", or the budget that ran out:
    "stages" or "vertices".
    """

    def __init__(self, word: Word, pres: Presentation):
        self.word = word
        self.graph = LiveGraph.settled(initial_stage(word, pres))
        self.stages = StageLog(self.graph)
        self.closed = False
        self.stop = ""

    @property
    def stages_used(self) -> int:
        return len(self.stages)

    @property
    def last(self) -> InverseAutomaton:
        return self.stages[-1]

    def vertex_counts(self) -> list:
        return [m.vertices for m in self.stages.marks]

    def advance(self, pres: Presentation, max_vertices: int) -> bool:
        """Build the next stage; False when the run stops at it.

        A stage whose R-expansion adds no path and merges nothing is its
        own successor, and conversely: the quotient map onto the next stage
        is its only pointed morphism, so an isomorphism onto the next
        stage would carry the adjoined path, or the merged pair, back into
        this stage.  Hence the fixpoint test is that the logs did not grow.
        """
        marks = self.stages.marks
        graph = stephen_step(self.graph, pres,
                             marks[-2] if len(marks) > 1 else None)
        mark, last = graph.mark(), marks[-1]
        if mark.vertices > max_vertices:
            self.stop = "vertices"
            return False
        if (mark.edges, mark.unions) == (last.edges, last.unions):
            self.closed = True
            self.stop = "fixpoint"
            return False
        marks.append(mark)
        return True


def initial_stage(u: Word, pres: Presentation) -> InverseAutomaton:
    if u:
        return munn_tree(u)
    if not pres.monoid_mode:
        raise ValueError("empty word needs monoid mode")
    return InverseAutomaton(1, (), base=0, final=0)


def stephen_run(u: Word, pres: Presentation, *,
                max_stages: int = LIMITS["stephen_stages"],
                max_vertices: int = LIMITS["stephen_vertices"]) -> StageTrace:
    """Iterate stages to a fixpoint or to budget.

    Budget exhaustion is a normal closed=False trace, never an error; the
    trace's ``stop`` names the reason.
    """
    at_least("stages", max_stages)
    at_least("vertices", max_vertices)
    trace = StageTrace(u, pres)
    while trace.stages_used < max_stages:
        if not trace.advance(pres, max_vertices):
            break
    else:
        trace.stop = "stages"
    trace.graph = None
    return trace


def accepts(aut, w: Word) -> bool:
    """True when w labels a path from base to final, in an automaton or a
    settled live graph."""
    if aut.final is None:
        raise ValueError("automaton has no final vertex")
    return aut.walk(aut.base, w) == aut.final


def tau_equal(u: Word, v: Word, pres: Presentation, *,
              max_stages: int = LIMITS["stephen_stages"],
              max_vertices: int = LIMITS["stephen_vertices"]) -> str:
    """Word problem semidecision: 'equal', 'distinct' or 'unknown'.

    Equality holds as soon as some stage of u accepts v and some stage of v
    accepts u (acceptance is monotone along stages).  Distinctness needs
    both traces closed with different pointed canonical forms.  Both runs
    are read on their live graphs.
    """
    at_least("stages", max_stages)
    at_least("vertices", max_vertices)
    tu, tv = StageTrace(u, pres), StageTrace(v, pres)

    def verdict() -> str:
        if accepts(tu.graph, v) and accepts(tv.graph, u):
            return "equal"
        same = (canonical_key(tu.graph.snapshot())
                == canonical_key(tv.graph.snapshot()))
        return "equal" if same else "distinct"

    for _ in range(max_stages):
        if accepts(tu.graph, v) and accepts(tv.graph, u):
            return "equal"
        if tu.closed and tv.closed:
            return verdict()
        for trace in (tu, tv):
            if (not trace.closed and not trace.advance(pres, max_vertices)
                    and trace.stop == "vertices"):
                return "unknown"
    return verdict() if tu.closed and tv.closed else "unknown"


def dclass_signature(u: Word, pres: Presentation, *,
                     max_stages: int = LIMITS["stephen_stages"],
                     max_vertices: int = LIMITS["stephen_vertices"]):
    """Canonical unpointed graph of the closed stage, or None when the
    trace does not close within budget.  Words with equal signatures lie in
    the same D-class of the presented semigroup."""
    trace = stephen_run(u, pres, max_stages=max_stages,
                        max_vertices=max_vertices)
    if not trace.closed:
        return None
    return canonical_key(trace.last, pointed=False)


# ---------------------------------------------------------------------------
# finite presented semigroups as tables


def presented_table(pres: Presentation) -> FiniteSemigroup:
    """Multiplication table of a presented inverse semigroup, when finite.

    Elements are the pointed canonical forms of their closed Schutzenberger
    automata, enumerated by ``engine.enumerate_oracle`` from the letters
    and their inverses.  Each element keeps the first word seen for it,
    which names it; a product classifies the concatenated words, and the
    inverse the inverted word.  Only the right Cayley graph is classified,
    n·|A| Stephen runs, and the semigroup is held as its Cayley graphs.
    Raises RuntimeError when any trace fails to close within the Stephen
    limits, or the elements pass the ``presented_elements`` limit.
    """
    words: dict = {}

    def classify(w: Word):
        trace = stephen_run(w, pres, max_stages=LIMITS["stephen_stages"],
                            max_vertices=LIMITS["stephen_vertices"])
        if not trace.closed:
            raise RuntimeError(
                f"trace of {format_word(w, pres.alphabet)!r} did not close; "
                "the presented semigroup may be infinite")
        key = canonical_key(trace.last)
        words.setdefault(key, w)
        return key

    oracle = Oracle(lambda x, y: classify(words[x] + words[y]),
                    unary=lambda x: classify(invert_word(words[x])),
                    name=lambda x: format_word(words[x], pres.alphabet))
    gens = [classify((sign * (i + 1),))
            for i in range(len(pres.alphabet)) for sign in (1, -1)]
    most = LIMITS["presented_elements"]
    fs = enumerate_oracle(oracle, gens, max_elements=most)
    if not isinstance(fs, FiniteSemigroup):
        raise RuntimeError(f"more than {most} elements")
    return fs
