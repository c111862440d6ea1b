"""Munn trees and free inverse semigroup arithmetic.

An inverse automaton is a pointed, connected, edge-labeled graph that is
deterministic counting derived inverse transitions.  Only positive-letter
edges are stored; both directions of an edge are answered by one signed
transition map, which keeps an edge and its inverse from drifting apart.

Folding runs on a ``LiveGraph``, which grows in place and folds only what
was added since it last settled; ``fold`` loads an automaton into a fresh
one.  Stephen's procedure keeps one live graph across all its stages.

Munn trees solve the word problem of the free inverse semigroup: two words
are equal exactly when their Munn trees are isomorphic as pointed automata.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, NamedTuple, Optional, Sequence

from .words import Alphabet, Word, free_reduce, letter_index


class InverseAutomaton:
    """Pointed automaton with positive-letter edges.

    ``edges`` is a tuple of ``(src, letter, dst)`` with ``letter >= 1``.
    ``base`` is the start vertex, ``final`` the optional end vertex.
    """

    __slots__ = ("n", "edges", "base", "final", "_delta")

    def __init__(self, n: int, edges: Iterable[tuple], base: int,
                 final: Optional[int] = None):
        self.n = n
        self.edges = tuple(edges)
        self.base = base
        self.final = final
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

    def is_tree(self) -> bool:
        return len(set(self.edges)) == self.n - 1

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


class Mark(NamedTuple):
    """How far a live graph had grown: vertex ids allocated, lengths of
    its edge and union logs, and live classes."""

    ids: int
    edges: int
    unions: int
    vertices: int


class LiveGraph:
    """A folded automaton that grows in place: vertices, edges and merges
    are added at any time, and ``settle`` folds them in.

    Vertices are ids 0, 1, ...; ``add_vertex`` allocates the next one.
    Folding identifies ids in a disjoint-set structure whose root is always
    the smallest id of its class, and each root keeps one signed
    transition map in ``delta``.  ``settle`` works off a queue of pending
    edges and merges, one coincidence at a time, as coset enumeration does
    (Holt, Eick & O'Brien, *Handbook of Computational Group Theory*,
    ch. 5), so only what was added since the last settle is processed.
    Once settled, every target in a root's map is a root, ``n`` counts the
    classes, and ``base`` and ``final`` are roots.

    Every added edge and every union is logged in order; ``quotient``
    rebuilds the automaton any prefix of the logs describes.
    """

    __slots__ = ("parent", "delta", "n", "base", "final", "edges", "unions",
                 "_pending", "_merges")

    def __init__(self, n: int, edges: Iterable[tuple] = (), base: int = 0,
                 final: Optional[int] = None):
        self.parent = list(range(n))
        self.delta = [{} for _ in range(n)]
        self.n = n
        self.base = base
        self.final = final
        self.edges = list(edges)
        self.unions: list = []       # (keep, lose) root pairs
        self._pending = self.edges[::-1]
        self._merges: list = []

    @classmethod
    def settled(cls, aut: InverseAutomaton) -> "LiveGraph":
        """A live graph holding aut, folded."""
        graph = cls(aut.n, aut.edges, aut.base, aut.final)
        graph.settle()
        return graph

    def add_vertex(self) -> int:
        v = len(self.parent)
        self.parent.append(v)
        self.delta.append({})
        self.n += 1
        return v

    def add_edge(self, u: int, a: int, v: int) -> None:
        self.edges.append((u, a, v))
        self._pending.append((u, a, v))

    def merge(self, x: int, y: int) -> None:
        self._merges.append((x, y))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def _unite(self, x: int, y: int) -> None:
        x, y = self.find(x), self.find(y)
        if x == y:
            return
        keep, lose = (x, y) if x < y else (y, x)
        self.parent[lose] = keep
        self.unions.append((keep, lose))
        self.n -= 1
        pending = self._pending
        for b, t in self.delta[lose].items():
            pending.append((lose, b, t) if b > 0 else (t, -b, lose))
        self.delta[lose] = None

    def settle(self) -> None:
        """Fold the queued merges and edges in until deterministic.

        Folding is confluent, so the classes and edges do not depend on
        the order of the queue.
        """
        parent, delta = self.parent, self.delta
        pending, merges = self._pending, self._merges
        find, unite = self.find, self._unite
        while pending or merges:
            if merges:
                unite(*merges.pop())
                continue
            u, a, v = pending.pop()
            # Most ids are roots; find only the others.
            if parent[u] != u:
                u = find(u)
            if parent[v] != v:
                v = find(v)
            du, dv = delta[u], delta[v]
            w = du.get(a)
            if w is not None:
                if parent[w] != w:
                    w = find(w)
                    du[a] = w
                if w != v:
                    # Two a-edges out of u: fold the targets, then revisit
                    # the edge so its reverse entry is reconciled as well.
                    unite(w, v)
                    pending.append((u, a, v))
                    continue
            s = dv.get(-a)
            if s is not None:
                if parent[s] != s:
                    s = find(s)
                    dv[-a] = s
                if s != u:
                    # Two a-edges into v: fold the sources.
                    unite(s, u)
                    pending.append((u, a, v))
                    continue
            du[a] = v
            dv[-a] = u
        self.base = find(self.base)
        if self.final is not None:
            self.final = find(self.final)

    def roots(self) -> list:
        return [v for v, p in enumerate(self.parent) if v == p]

    def walk(self, v: int, w: Word) -> Optional[int]:
        """Read w from root v of the settled graph, or None if undefined."""
        return follow(self.delta, v, w)

    def mark(self) -> Mark:
        return Mark(len(self.parent), len(self.edges), len(self.unions),
                    self.n)

    def snapshot(self) -> InverseAutomaton:
        """The settled graph as an automaton, roots numbered in ascending
        order."""
        return quotient(len(self.parent), self.edges, self.unions, self.base,
                        self.final)


def quotient(n: int, edges: Sequence[tuple], unions: Sequence[tuple],
             base: int, final: Optional[int]) -> InverseAutomaton:
    """The automaton on vertices 0..n-1 with ``edges`` after ``unions``.

    ``unions`` are ``(keep, lose)`` root pairs with ``keep < lose``, as a
    live graph logs them, so each class is numbered by the rank of its
    smallest member and the edges between classes are deduplicated.
    """
    num = list(range(n))
    for keep, lose in unions:
        num[lose] = keep
    k = 0
    for x in range(n):
        # num[x] < x is a vertex x was merged into, numbered already.
        if num[x] == x:
            num[x] = k
            k += 1
        else:
            num[x] = num[num[x]]
    edges = sorted({(num[u], a, num[v]) for u, a, v in edges})
    return InverseAutomaton(k, edges, num[base],
                            None if final is None else num[final])


def fold(aut: InverseAutomaton,
         extra_merges: Sequence[tuple] = ()) -> InverseAutomaton:
    """Quotient by repeated edge folding until deterministic.

    aut is loaded into a fresh live graph, settled and snapshot, so each
    class is represented by its smallest original index and the output
    numbering is stable.  Folding is confluent: the edges are settled in
    the order ``aut`` lists them, and any order gives the same quotient.
    """
    graph = LiveGraph(aut.n, aut.edges, aut.base, aut.final)
    for x, y in extra_merges:
        graph.merge(x, y)
    graph.settle()
    return graph.snapshot()


def munn_tree(w: Word) -> InverseAutomaton:
    """The Munn tree of w, read off w: at each letter follow the existing
    edge or create the next vertex.

    Vertices are numbered in first-visit order, which is the numbering
    ``fold`` gives the linear automaton of w (a class is represented by its
    earliest position), so the tree equals ``fold(linear_automaton(w))``.
    """
    if not w:
        raise ValueError("Munn tree needs a nonempty word")
    delta = [{}]
    edges = []
    v = 0
    for x in w:
        t = delta[v].get(x)
        if t is None:
            t = len(delta)
            delta.append({-x: v})
            delta[v][x] = t
            edges.append((v, x, t) if x > 0 else (t, -x, v))
        v = t
    tree = InverseAutomaton(len(delta), sorted(edges), 0, v)
    if not tree.is_tree():
        raise RuntimeError("Munn tree is not a tree")
    return tree


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

    The pointed key is ``(n, 0, final, edges)`` and the unpointed key
    ``(n, edges)``, where ``edges`` is a flat int tuple ``(k, a, t, k, a,
    t, ...)``: the numbered edges ``(k, a, t)`` in sorted order, laid end to
    end.  Every edge takes three slots, so flat tuples compare as the
    tuples of triples would.

    The sorted edges of a BFS numbering are the concatenation of one block
    per vertex in visit order: vertex k's positive out-edges
    ``k, a, num[target]`` by ascending a.  The unpointed key advances
    a batch of anchors one block at a time and drops an anchor as soon as
    its block exceeds the least block of that round, or the whole batch as
    soon as that least block exceeds the best key's block from earlier
    batches.  Each block ends with a ``k + 1`` sentinel: all anchors
    number the same edges, so a block that is a proper prefix of another
    is followed by a later vertex's edge, which starts with ``k``, and
    compares larger, as the sentinel does.
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
                    edges.extend((k, x, num[t]))
        fin = None if aut.final is None else num[aut.final]
        return (aut.n, 0, fin, tuple(edges))
    return (aut.n, _least_edges(delta))


def _least_edges(delta: list) -> tuple:
    """The least flat BFS edge tuple over all anchors, by batched
    lockstep."""
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
                        block.extend((k, x, num[t]))
                block.append(k + 1)
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


class FisTriple(namedtuple("FisTriple", "r s t")):
    """Canonical form of a one-letter free inverse semigroup element.

    The Munn tree of a word over a single letter is the interval [-r, s]
    with base 0 and final vertex t; idempotents are exactly the t = 0
    triples.  A validated tuple, so it equals the plain tuple (r, s, t).
    """

    __slots__ = ()

    def __new__(cls, r: int, s: int, t: int):
        if r < 0 or s < 0 or r + s < 1:
            raise ValueError("need r, s >= 0 with r + s >= 1")
        if not (-r <= t <= s):
            raise ValueError("final vertex outside the interval")
        return tuple.__new__(cls, (r, s, t))


def triple_multiply(x: tuple, y: tuple) -> tuple:
    """The one-letter product law on plain (r, s, t) triples: the product's
    interval is x's with y's grafted at x's final vertex t."""
    r, s, t = x
    return max(r, y[0] - t), max(s, y[1] + t), t + y[2]


def triple_inverse(x: tuple) -> tuple:
    r, s, t = x
    return r + t, s - t, -t


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
    only, one edge per triple of the key's flat edge tuple."""
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
    for i in range(0, len(edges), 3):
        u, a, v = edges[i:i + 3]
        lines.append(f'  {u} -> {v} [label="{label(a)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
