"""Munn trees and free inverse semigroup arithmetic.

An inverse automaton is a pointed, connected, edge-labeled graph that is
deterministic counting derived inverse transitions.  Only positive-letter
edges are stored; both directions of an edge are answered by one signed
transition map, which keeps an edge and its inverse from drifting apart.

Munn trees solve the word problem of the free inverse semigroup: two words
are equal exactly when their Munn trees are isomorphic as pointed automata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .words import Alphabet, Word, free_reduce, letter_index


class InverseAutomaton:
    """Pointed automaton with positive-letter edges.

    ``edges`` is a tuple of ``(src, letter, dst)`` with ``letter >= 1``.
    ``base`` is the start vertex, ``final`` the optional end vertex.
    ``worklist`` is an optional ``(owner, vertices)`` hint left by the step
    that built the automaton: only ``vertices`` can fail the local test of
    that step's ``owner`` (see ``stephen.r_expand``); None means every
    vertex must be checked.
    """

    __slots__ = ("n", "edges", "base", "final", "worklist", "_delta")

    def __init__(self, n: int, edges: Iterable[tuple], base: int,
                 final: Optional[int] = None):
        self.n = n
        self.edges = tuple(edges)
        self.base = base
        self.final = final
        self.worklist = None
        self._delta = None

    def transitions(self) -> list:
        """Per-vertex dict from signed letter to target, built once.

        An edge ``(u, a, v)`` gives ``u --a--> v`` and ``v --(-a)--> u``;
        a second target for one signed letter raises ``ValueError``.  Each
        dict lists its letters in the order a1, -a1, a2, -a2, ... (ascending
        a), which is the neighbour order of the canonical breadth-first
        numbering.
        """
        if self._delta is None:
            delta = [{} for _ in range(self.n)]
            by_letter: dict = {}
            for e in self.edges:
                by_letter.setdefault(e[1], []).append(e)
            for a in sorted(by_letter):
                group = by_letter[a]
                for u, _, v in group:
                    if delta[u].setdefault(a, v) != v:
                        raise ValueError("automaton is not deterministic")
                for u, _, v in group:
                    if delta[v].setdefault(-a, u) != u:
                        raise ValueError("automaton is not deterministic")
            self._delta = delta
        return self._delta

    def step(self, v: int, x: int) -> Optional[int]:
        """Follow signed letter x from vertex v, or None if undefined."""
        return self.transitions()[v].get(x)

    def walk(self, v: int, w: Word) -> Optional[int]:
        return follow(self.transitions(), v, w)

    def undirected_edge_count(self) -> int:
        return len(set(self.edges))

    def is_tree(self) -> bool:
        return self.undirected_edge_count() == self.n - 1

    def __repr__(self) -> str:
        return (f"InverseAutomaton(n={self.n}, edges={len(self.edges)}, "
                f"base={self.base}, final={self.final})")


def follow(delta: list, v: int, w: Word) -> Optional[int]:
    """Read w from vertex v in a transition map, or None if undefined."""
    for x in w:
        v = delta[v].get(x)
        if v is None:
            return None
    return v


def linear_automaton(w: Word) -> InverseAutomaton:
    """Path automaton reading w from base to final; |vertices| = |w| + 1."""
    if not w:
        raise ValueError("linear automaton needs a nonempty word")
    edges = []
    for i, x in enumerate(w):
        if x > 0:
            edges.append((i, x, i + 1))
        else:
            edges.append((i + 1, -x, i))
    return InverseAutomaton(len(w) + 1, edges, base=0, final=len(w))


def fold(aut: InverseAutomaton, extra_merges: Sequence[tuple] = (),
         edge_order: Optional[Sequence[int]] = None,
         image: Optional[list] = None) -> InverseAutomaton:
    """Quotient by repeated edge folding until deterministic.

    Vertices are identified with a disjoint-set structure whose
    representative is always the smallest original index, so the output
    numbering is stable.  Folding is confluent; ``edge_order`` exists so
    tests can shuffle the processing order.  When ``image`` is a list, it
    is extended with the output vertex of every input vertex, in order.
    """
    n = aut.n
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out = [dict() for _ in range(n)]
    inn = [dict() for _ in range(n)]
    if edge_order is None:
        pending = list(aut.edges)
    else:
        pending = [aut.edges[i] for i in edge_order]
    pending.reverse()
    merges = [(a, b) for a, b in extra_merges]

    def unite(x: int, y: int) -> None:
        x, y = find(x), find(y)
        if x == y:
            return
        keep, lose = (x, y) if x < y else (y, x)
        parent[lose] = keep
        for a, t in out[lose].items():
            pending.append((lose, a, t))
        for a, s in inn[lose].items():
            pending.append((s, a, lose))
        out[lose] = {}
        inn[lose] = {}

    while pending or merges:
        if merges:
            unite(*merges.pop())
            continue
        u, a, v = pending.pop()
        u, v = find(u), find(v)
        w = out[u].get(a)
        if w is not None:
            w = find(w)
            out[u][a] = w
            if w != v:
                # Two a-edges out of u: fold the targets, then revisit the
                # edge so its reverse index is reconciled as well.
                unite(w, v)
                pending.append((u, a, v))
                continue
        s = inn[v].get(a)
        if s is not None:
            s = find(s)
            inn[v][a] = s
            if s != u:
                # Two a-edges into v: fold the sources.
                unite(s, u)
                pending.append((u, a, v))
                continue
        out[u][a] = v
        inn[v][a] = u

    rep = [find(x) for x in range(n)]
    roots = [x for x in range(n) if rep[x] == x]
    renumber = {r: i for i, r in enumerate(roots)}
    img = [renumber[r] for r in rep]
    # Only roots keep out-edges, one per letter, so the edges are distinct.
    edges = sorted([(img[r], a, img[t])
                    for r in roots for a, t in out[r].items()])
    if image is not None:
        image.extend(img)
    final = None if aut.final is None else img[aut.final]
    return InverseAutomaton(len(roots), edges, img[aut.base], final)


def munn_tree(w: Word) -> InverseAutomaton:
    """Fold the linear automaton of w; the result is always a tree."""
    t = fold(linear_automaton(w))
    if not t.is_tree():
        raise RuntimeError("folded linear automaton is not a tree")
    return t


# Anchors advanced together by the unpointed key; it bounds the numberings
# held at once to ANCHOR_BATCH * V entries when many anchors tie for long, as
# on vertex-transitive graphs.
ANCHOR_BATCH = 64


def canonical_key(aut: InverseAutomaton, pointed: bool = True):
    """Canonical form: BFS renumbering with signed-letter neighbor order
    a1, -a1, a2, -a2, ...; the base is vertex 0.

    Two deterministic connected automata are isomorphic (as pointed automata
    when ``pointed``, as bare labeled graphs otherwise) exactly when their
    keys compare equal.  The unpointed key is the least key over all anchor
    choices.

    The sorted edge tuple of a BFS numbering is the concatenation of one
    block per vertex in visit order: vertex k's positive out-edges
    ``(k, a, num[target])`` by ascending a.  The unpointed key advances
    a batch of anchors one block at a time and drops an anchor as soon as
    its block exceeds the least block of that round, or the whole batch as
    soon as that least block exceeds the best key's block from earlier
    batches.  Each block ends with a ``(k + 1,)`` sentinel: all anchors
    number the same edges, so a block that is a proper prefix of another
    is followed by a later vertex's edge and compares larger, as the
    sentinel does.
    """
    delta = aut.transitions()
    if pointed:
        num = {aut.base: 0}
        order = [aut.base]
        edges = []
        for k, v in enumerate(order):
            for x, t in delta[v].items():
                if t not in num:
                    num[t] = len(order)
                    order.append(t)
                if x > 0:
                    edges.append((k, x, num[t]))
        fin = None if aut.final is None else num[aut.final]
        return (aut.n, 0, fin, tuple(edges))
    return (aut.n, _least_edges(delta))


def _least_edges(delta: list) -> tuple:
    """The least BFS edge tuple over all anchors, by batched lockstep."""
    n = len(delta)
    best = None          # blocks of the least key so far, with sentinels
    for start in range(0, n, ANCHOR_BATCH):
        stop = min(start + ANCHOR_BATCH, n)
        alive = [({v: 0}, [v]) for v in range(start, stop)]
        blocks = []
        below = best is None    # this batch's prefix already below best's?
        for k in range(n):
            least = None
            survivors = []
            for num, order in alive:
                block = []
                for x, t in delta[order[k]].items():
                    if t not in num:
                        num[t] = len(order)
                        order.append(t)
                    if x > 0:
                        block.append((k, x, num[t]))
                block.append((k + 1,))
                if least is None or block < least:
                    least = block
                    survivors = [(num, order)]
                elif block == least:
                    survivors.append((num, order))
            if not below:
                if least > best[k]:
                    break
                below = least < best[k]
            alive = survivors
            blocks.append(least)
        else:
            best = blocks       # below best's key, or equal to it
    return tuple(e for block in best for e in block[:-1])


def isomorphic(a: InverseAutomaton, b: InverseAutomaton,
               pointed: bool = True) -> bool:
    return canonical_key(a, pointed) == canonical_key(b, pointed)


def fis_equal(u: Word, v: Word) -> bool:
    """Word problem in the free inverse semigroup via Munn tree isomorphism."""
    if not u or not v:
        raise ValueError("free inverse semigroup words are nonempty")
    return canonical_key(munn_tree(u)) == canonical_key(munn_tree(v))


def is_fis_idempotent(u: Word) -> bool:
    """A word is idempotent exactly when its free reduction is empty."""
    if not u:
        raise ValueError("free inverse semigroup words are nonempty")
    return free_reduce(u) == ()


def fis_multiply(x: InverseAutomaton, y: InverseAutomaton) -> InverseAutomaton:
    """Product of Munn trees: graft y at x's final vertex, fold.

    The result is isomorphic to the Munn tree of any concatenation of
    representatives, which the test suite uses as the oracle.
    """
    if x.final is None or y.final is None:
        raise ValueError("both operands need a final vertex")
    off = x.n
    edges = list(x.edges) + [(u + off, a, v + off) for u, a, v in y.edges]
    glued = InverseAutomaton(x.n + y.n, edges, x.base, y.final + off)
    return fold(glued, extra_merges=[(x.final, y.base + off)])


@dataclass(frozen=True)
class FisTriple:
    """Canonical form of a one-letter free inverse semigroup element.

    The Munn tree of a word over a single letter is the interval [-r, s]
    with base 0 and final vertex t; idempotents are exactly the t = 0
    triples.
    """

    r: int
    s: int
    t: int

    def __post_init__(self):
        if self.r < 0 or self.s < 0 or self.r + self.s < 1:
            raise ValueError("need r, s >= 0 with r + s >= 1")
        if not (-self.r <= self.t <= self.s):
            raise ValueError("final vertex outside the interval")

    @property
    def span(self) -> int:
        return self.r + self.s

    def multiply(self, other: "FisTriple") -> "FisTriple":
        # Interval of the product: graft other's interval at t.
        r = max(self.r, other.r - self.t)
        s = max(self.s, other.s + self.t)
        return FisTriple(r, s, self.t + other.t)

    def inverse(self) -> "FisTriple":
        return FisTriple(self.r + self.t, self.s - self.t, -self.t)

    def word(self) -> Word:
        """A representative word: down to -r, up to s, back to t."""
        steps = [-1] * self.r + [1] * (self.r + self.s) + [-1] * (self.s - self.t)
        return tuple(steps)


def fis_a_triple(u: Word) -> FisTriple:
    """Walk a one-letter word and record span and final position."""
    if not u:
        raise ValueError("free inverse semigroup words are nonempty")
    if any(letter_index(x) != 0 for x in u):
        raise ValueError("word must be over a single letter")
    pos = lo = hi = 0
    for x in u:
        pos += 1 if x > 0 else -1
        lo = min(lo, pos)
        hi = max(hi, pos)
    return FisTriple(-lo, hi, pos)


def to_dot(aut: InverseAutomaton, alphabet: Optional[Alphabet] = None,
           name: str = "automaton") -> str:
    """DOT export in the numbering of the pointed canonical key: base marked
    with an external arrow, final drawn double-circled, positive edge labels
    only."""
    _, base, final, edges = canonical_key(aut)

    def label(a: int) -> str:
        if alphabet is not None and a - 1 < len(alphabet):
            return alphabet.name(a - 1)
        return f"a{a}"

    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=circle];"]
    if final is not None:
        lines.append(f"  {final} [shape=doublecircle];")
    lines.append('  __start [shape=none, label=""];')
    lines.append(f"  __start -> {base};")
    for u, a, v in edges:
        lines.append(f'  {u} -> {v} [label="{label(a)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
