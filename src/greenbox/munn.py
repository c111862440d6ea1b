"""Munn trees and free inverse semigroup arithmetic.

An inverse automaton is a pointed, connected, edge-labeled graph that is
deterministic counting derived inverse transitions.  Only positive-letter
edges are stored; a negative transition is answered by the reverse index,
which keeps an edge and its inverse from drifting apart.

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
    Transition maps are built lazily and require determinism.
    """

    __slots__ = ("n", "edges", "base", "final", "_out", "_inn")

    def __init__(self, n: int, edges: Iterable[tuple], base: int,
                 final: Optional[int] = None):
        self.n = n
        self.edges = tuple(edges)
        self.base = base
        self.final = final
        self._out = None
        self._inn = None

    def _maps(self):
        if self._out is None:
            out = [dict() for _ in range(self.n)]
            inn = [dict() for _ in range(self.n)]
            for u, a, v in self.edges:
                if out[u].get(a, v) != v or inn[v].get(a, u) != u:
                    raise ValueError("automaton is not deterministic")
                out[u][a] = v
                inn[v][a] = u
            self._out = out
            self._inn = inn
        return self._out, self._inn

    def step(self, v: int, x: int) -> Optional[int]:
        """Follow signed letter x from vertex v, or None if undefined."""
        out, inn = self._maps()
        if x > 0:
            return out[v].get(x)
        return inn[v].get(-x)

    def walk(self, v: int, w: Word) -> Optional[int]:
        for x in w:
            v = self.step(v, x)
            if v is None:
                return None
        return v

    def letters(self) -> tuple:
        return tuple(sorted({a for _, a, _ in self.edges}))

    def undirected_edge_count(self) -> int:
        return len(set(self.edges))

    def is_tree(self) -> bool:
        return self.undirected_edge_count() == self.n - 1

    def __repr__(self) -> str:
        return (f"InverseAutomaton(n={self.n}, edges={len(self.edges)}, "
                f"base={self.base}, final={self.final})")


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
         edge_order: Optional[Sequence[int]] = None) -> InverseAutomaton:
    """Quotient by repeated edge folding until deterministic.

    Vertices are identified with a disjoint-set structure whose
    representative is always the smallest original index, so the output
    numbering is stable.  Folding is confluent; ``edge_order`` exists so
    tests can shuffle the processing order.
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

    roots = sorted({find(x) for x in range(n)})
    renumber = {r: i for i, r in enumerate(roots)}
    edges = sorted({(renumber[r], a, renumber[find(t)])
                    for r in roots for a, t in out[r].items()})
    final = None if aut.final is None else renumber[find(aut.final)]
    return InverseAutomaton(len(roots), edges, renumber[find(aut.base)], final)


def munn_tree(w: Word) -> InverseAutomaton:
    """Fold the linear automaton of w; the result is always a tree."""
    t = fold(linear_automaton(w))
    if not t.is_tree():
        raise RuntimeError("folded linear automaton is not a tree")
    return t


def canonical_key(aut: InverseAutomaton, pointed: bool = True):
    """Canonical form: BFS renumbering with sorted signed-letter neighbor order.

    Two deterministic connected automata are isomorphic (as pointed automata
    when ``pointed``, as bare labeled graphs otherwise) exactly when their
    keys compare equal.  The unpointed key minimizes over all anchor choices.
    """
    letters = aut.letters()

    def bfs_key(anchor: int, with_marks: bool):
        num = {anchor: 0}
        order = [anchor]
        i = 0
        while i < len(order):
            v = order[i]
            i += 1
            for a in letters:
                for t in (aut.step(v, a), aut.step(v, -a)):
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
    """DOT export: stable BFS numbering, base marked with an external arrow,
    final drawn double-circled, positive edge labels only."""
    letters = aut.letters()
    num = {aut.base: 0}
    order = [aut.base]
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for a in letters:
            for t in (aut.step(v, a), aut.step(v, -a)):
                if t is not None and t not in num:
                    num[t] = len(order)
                    order.append(t)

    def label(a: int) -> str:
        if alphabet is not None and a - 1 < len(alphabet):
            return alphabet.name(a - 1)
        return f"a{a}"

    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=circle];"]
    if aut.final is not None:
        lines.append(f"  {num[aut.final]} [shape=doublecircle];")
    lines.append('  __start [shape=none, label=""];')
    lines.append(f"  __start -> {num[aut.base]};")
    for u, a, v in sorted((num[u], a, num[v]) for u, a, v in set(aut.edges)):
        lines.append(f'  {u} -> {v} [label="{label(a)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
