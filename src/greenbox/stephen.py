"""Stephen's procedure for inverse semigroup and monoid presentations.

Starting from the Munn tree of a word, alternate two moves: adjoin a missing
relation-side path wherever the other side reads (an R-expansion), then fold
back to a deterministic automaton.  Acceptance of a word by any stage
persists in the limit, which turns the stage sequence into a semidecision
procedure for the word problem.  Underlying graphs, with the distinguished
vertices forgotten, classify D-classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from .engine import FiniteSemigroup
from .munn import InverseAutomaton, canonical_key, fold, follow, munn_tree
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


def r_expand(aut: InverseAutomaton, pres: Presentation) -> tuple:
    """All applicable R-expansions against the current stage, applied at
    once with fresh interior vertices.

    Returns (automaton, merges, applied) where merges are endpoint pairs
    produced by empty conclusion sides (monoid mode) and applied counts the
    expansions.  The result may be nondeterministic; the caller folds.
    A stage made by ``stephen_step`` for the same presentation carries a
    worklist; only its vertices are tested, in ascending order, which finds
    exactly what a scan of every vertex finds.
    """
    hint = aut.worklist
    scan = hint[1] if hint is not None and hint[0] is pres else range(aut.n)
    delta = aut.transitions()
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
    edges = list(aut.edges)
    n = aut.n
    for p, word, q in to_adjoin:
        prev = p
        for i, x in enumerate(word):
            nxt = q if i == len(word) - 1 else n
            if i < len(word) - 1:
                n += 1
            if x > 0:
                edges.append((prev, x, nxt))
            else:
                edges.append((nxt, -x, prev))
            prev = nxt
    grown = InverseAutomaton(n, edges, aut.base, aut.final)
    return grown, merges, len(to_adjoin) + len(merges)


def stephen_step(aut: InverseAutomaton, pres: Presentation) -> InverseAutomaton:
    """One stage: expand synchronously, then fold once.  The result carries
    the worklist of its own R-expansion."""
    grown, merges, _ = r_expand(aut, pres)
    image: list = []
    nxt = fold(grown, extra_merges=merges, image=image)
    new_edges = grown.edges[len(aut.edges):]
    touched = {image[u] for u, _, _ in new_edges}
    touched.update(image[v] for _, _, v in new_edges)
    touched.update(image[p] for p, _ in merges)
    nxt.worklist = (pres, _near(nxt, touched, image, pres))
    return nxt


def _near(aut: InverseAutomaton, touched: set, image: list,
          pres: Presentation) -> list:
    """Ascending vertices within distance L - 1 of a changed vertex, L being
    the longest relation side.

    A vertex changed when its class merged two or more vertices, or holds
    an endpoint of a new path or merge (``touched``; fresh vertices are
    endpoints of new edges).  Any other vertex has the transitions of its
    one preimage, renumbered.  A side's walk of at most L steps leaves only
    vertices within L - 1 of its start, so from a vertex farther than that
    from every changed one, both sides read as they did from its preimage.
    That preimage needed no expansion or merge, else it would be an
    endpoint, so the vertex needs none either.
    """
    near = set(touched)
    seen = bytearray(aut.n)
    for v in image:
        if seen[v]:
            near.add(v)
        seen[v] = 1
    delta = aut.transitions()
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


@dataclass
class StageTrace:
    word: Word
    stages: list = field(default_factory=list)   # folded automata
    closed: bool = False
    stages_used: int = 0
    stop: str = ""     # "fixpoint", or the budget that ran out:
                       # "stages" or "vertices"

    @property
    def last(self) -> InverseAutomaton:
        return self.stages[-1]

    def vertex_counts(self) -> list:
        return [a.n for a in self.stages]


def initial_stage(u: Word, pres: Presentation) -> InverseAutomaton:
    if u:
        return munn_tree(u)
    if not pres.monoid_mode:
        raise ValueError("empty word needs monoid mode")
    return InverseAutomaton(1, (), base=0, final=0)


def _check_budgets(max_stages: int, max_vertices: int) -> None:
    if max_stages < 1:
        raise ValueError("stages must be >= 1")
    if max_vertices < 1:
        raise ValueError("vertices must be >= 1")


def _same_stage(a: InverseAutomaton, b: InverseAutomaton) -> bool:
    """Pointed isomorphism, keyed only when the counts already agree."""
    return (a.n == b.n and len(a.edges) == len(b.edges)
            and canonical_key(a) == canonical_key(b))


def stephen_run(u: Word, pres: Presentation, *, max_stages: int = 40,
                max_vertices: int = 20_000) -> StageTrace:
    """Iterate stages to a fixpoint or to budget.

    Budget exhaustion is a normal closed=False trace, never an error; the
    trace's ``stop`` names the reason.  The fixpoint test compares pointed
    canonical forms of successive stages.
    """
    _check_budgets(max_stages, max_vertices)
    trace = StageTrace(word=u)
    stage = initial_stage(u, pres)
    trace.stages.append(stage)
    trace.stages_used = 1
    while trace.stages_used < max_stages:
        nxt = stephen_step(stage, pres)
        if nxt.n > max_vertices:
            trace.stop = "vertices"
            return trace
        if _same_stage(stage, nxt):
            trace.closed = True
            trace.stop = "fixpoint"
            return trace
        trace.stages.append(nxt)
        trace.stages_used += 1
        stage = nxt
    trace.stop = "stages"
    return trace


def accepts(aut: InverseAutomaton, w: Word) -> bool:
    """True when w labels a path from base to final."""
    if aut.final is None:
        raise ValueError("automaton has no final vertex")
    return aut.walk(aut.base, w) == aut.final


def tau_equal(u: Word, v: Word, pres: Presentation, *, max_stages: int = 40,
              max_vertices: int = 20_000) -> str:
    """Word problem semidecision: 'equal', 'distinct' or 'unknown'.

    Equality holds as soon as some stage of u accepts v and some stage of v
    accepts u (acceptance is monotone along stages).  Distinctness needs
    both traces closed with different pointed canonical forms.
    """
    _check_budgets(max_stages, max_vertices)
    su = initial_stage(u, pres)
    sv = initial_stage(v, pres)
    closed_u = closed_v = False
    for _ in range(max_stages):
        if accepts(su, v) and accepts(sv, u):
            return "equal"
        if closed_u and closed_v:
            same = canonical_key(su) == canonical_key(sv)
            return "equal" if same else "distinct"
        if not closed_u:
            nxt = stephen_step(su, pres)
            if nxt.n > max_vertices:
                return "unknown"
            if _same_stage(su, nxt):
                closed_u = True
            else:
                su = nxt
        if not closed_v:
            nxt = stephen_step(sv, pres)
            if nxt.n > max_vertices:
                return "unknown"
            if _same_stage(sv, nxt):
                closed_v = True
            else:
                sv = nxt
    if closed_u and closed_v:
        if accepts(su, v) and accepts(sv, u):
            return "equal"
        same = canonical_key(su) == canonical_key(sv)
        return "equal" if same else "distinct"
    return "unknown"


def dclass_signature(u: Word, pres: Presentation, *, max_stages: int = 40,
                     max_vertices: int = 20_000):
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


def presented_table(pres: Presentation, *, max_stages: int = 40,
                    max_vertices: int = 20_000,
                    max_elements: int = 200) -> FiniteSemigroup:
    """Multiplication table of a presented inverse semigroup, when finite.

    Elements are identified with pointed canonical forms of their closed
    Schutzenberger automata; breadth-first search over generator words stops
    when a whole level brings no new element.  Raises when any trace fails
    to close or the element budget is exceeded.
    """
    gens: list = []
    for i in range(len(pres.alphabet)):
        gens.append((i + 1,))
        gens.append((-(i + 1),))

    def classify(w: Word):
        trace = stephen_run(w, pres, max_stages=max_stages,
                            max_vertices=max_vertices)
        if not trace.closed:
            raise RuntimeError(
                f"trace of {format_word(w, pres.alphabet)!r} did not close; "
                "the presented semigroup may be infinite")
        return canonical_key(trace.last)

    reps: list = []
    index: dict = {}

    def add(w: Word) -> int:
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
    gen_idx = sorted({add(g) for g in gens})
    return FiniteSemigroup(table, names=names, unary=unary,
                           generators=gen_idx)
