"""Finite semigroup engine.

Enumerates finitely generated semigroups from a multiplication oracle,
computes Green's relations by two independent methods (strong connectivity
on Cayley graphs, and direct principal-ideal comparison), and provides the
standard constructions: direct products, an adjoined identity,
subsemigroups, table isomorphism, eggbox pictures, and bounded "witnessed"
Green analysis for balls and windows of semigroups that do not close
within budget.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from math import inf
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .limits import LIMITS, BudgetError, at_least, need  # engine.BudgetError

RELATIONS = ("H", "L", "R", "D", "J")


class OracleError(RuntimeError):
    """The multiplication oracle contradicted itself during enumeration."""


# ---------------------------------------------------------------------------
# core structures


class FiniteSemigroup:
    """Indexed element set held as its right and left Cayley graphs.

    ``letters`` lists the indices of the generators that label the graphs.
    ``right[x][a]`` is x times ``letters[a]``, and ``left[a]`` is the table
    row of ``letters[a]``, so ``left[a][x]`` is ``letters[a]`` times x.
    ``table[i][j]``, the index of the product of elements i and j, is
    filled from the two graphs when first read; Green's relations,
    idempotents, the identity and the zero are read off the graphs and
    never fill it.  ``unary`` is an optional involution-style unary
    operation (element index array).

    Give either ``table`` or ``right`` with ``letters``.  A table is
    checked to be square over element indices; its rows are kept, not
    copied, and they are its graphs: all of them when every element is a
    generator, else the generator rows and columns.  A right graph gets its
    generator rows from its own edges.  ``generators`` (all elements for a
    table, ``letters`` for a graph, by default) must genuinely generate:
    the Cayley-graph Green computation relies on it.  The constructor
    checks this in O(n·|A|) lookups for |A| letters, following right
    Cayley edges only; that relies on associativity, which ``parse_table``
    verifies for hand-entered tables.
    """

    def __init__(self, table: Optional[Sequence[Sequence[int]]] = None, *,
                 right: Optional[Sequence[Sequence[int]]] = None,
                 letters: Optional[Sequence[int]] = None,
                 names: Optional[Sequence[str]] = None,
                 keys: Optional[Sequence] = None,
                 unary: Optional[Sequence[int]] = None,
                 generators: Optional[Iterable[int]] = None):
        if table is not None:
            self.table = table = list(table)
            n = len(table)
            for row in table:
                if len(row) != n or min(row) < 0 or max(row) >= n:
                    raise ValueError(
                        "table is not a square matrix of element indices")
            letters = generators = sorted(set(generators)) \
                if generators is not None else list(range(n))
            if len(letters) == n:
                right = left = table
            else:
                right = [[row[g] for g in letters] for row in table]
                left = [table[g] for g in letters]
        else:
            letters = list(letters)
            generators = sorted(set(generators if generators is not None
                                    else letters))
            n = len(right)
        if not letters:
            raise ValueError("generator set must be nonempty")
        self.right, self.letters = right, letters
        self._search = first, later = _right_search(right, letters)
        missed = n - len(first) - len(later)
        if missed:
            # The Cayley-graph Green computation silently depends on this.
            raise ValueError(f"declared generators miss {missed} element(s)")
        if table is None:
            # The row of letter g, column by column in search order: each
            # later y = p·h has g·y = (g·p)·h, one lookup per cell.
            left = []
            for g in letters:
                row = [0] * n
                for h, a in first:
                    row[h] = right[g][a]
                for y, p, a in later:
                    row[y] = right[row[p]][a]
                left.append(row)
        self.left = left
        self.generators = generators
        self.keys = list(keys) if keys is not None else list(range(n))
        self.names = [str(x) for x in (names if names is not None else self.keys)]
        self.unary = list(unary) if unary is not None else None
        self._cr = None

    def __len__(self) -> int:
        return len(self.right)

    @cached_property
    def table(self) -> list:
        """The multiplication table, filled on first read.  A letter's row
        is its left Cayley row.  Every other y was reached in the right
        search as p·g with p before it, so y·z = p·(g·z): row y reads row
        p at the entries of g's left row, one lookup per cell."""
        need("table_cells", len(self) ** 2, n=len(self))
        first, later = self._search
        table = [None] * len(self)
        for g, a in first:
            table[g] = self.left[a]
        for y, p, a in later:
            table[y] = list(map(table[p].__getitem__, self.left[a]))
        return table

    def mult(self, i: int, j: int) -> int:
        return self.table[i][j]

    def idempotents(self) -> list:
        """The x with x·x = x: x times the letters of its word, in order,
        along the right Cayley graph."""
        first, later = self._search
        words = [()] * len(self)
        for g, a in first:
            words[g] = (a,)
        for y, p, a in later:
            words[y] = words[p] + (a,)
        right = self.right
        out = []
        for x, word in enumerate(words):
            z = x
            for a in word:
                z = right[z][a]
            if z == x:
                out.append(x)
        return out

    @cached_property
    def identity(self) -> Optional[int]:
        """The e with e·g = g = g·e for every letter g, hence for every
        element, or None."""
        letters, left = self.letters, self.left
        for e, row in enumerate(self.right):
            if row == letters and all(lg[e] == g for g, lg in zip(letters, left)):
                return e
        return None

    @cached_property
    def zero(self) -> Optional[int]:
        """The z with z·g = z = g·z for every letter g, hence for every
        element, or None."""
        for z, row in enumerate(self.right):
            if all(y == z for y in row) and all(lg[z] == z for lg in self.left):
                return z
        return None

    def is_completely_regular(self) -> bool:
        """Unary present and x x' = x' x, x x' x = x for every element."""
        if self._cr is None:
            if self.unary is None:
                self._cr = False
            else:
                t, u = self.table, self.unary
                self._cr = all(
                    t[x][u[x]] == t[u[x]][x] and t[t[x][u[x]]][x] == x
                    for x in range(len(self)))
        return self._cr

    def element_index(self, key) -> int:
        return self.keys.index(key)

    def __repr__(self) -> str:
        return f"FiniteSemigroup(n={len(self)}, generators={self.generators})"


def _reached(right, gens) -> set:
    """Elements that the right Cayley search from the generators reaches."""
    first, later = _right_search(right, gens)
    return {g for g, _ in first}.union(y for y, _, _ in later)


def _closure(table, gens) -> set:
    """Subsemigroup generated by ``gens``: the right Cayley search over the
    table's generator columns.  In an associative table the generator words
    are closed under every product, so no pair needs multiplying."""
    return _reached([[row[g] for g in gens] for row in table], gens)


def verify_associative(table) -> Optional[tuple]:
    """Return a witness triple (x, y, z) with x(yz) != (xy)z, or None.

    Exhaustive up to the ``exhaustive_triples`` limit of elements (n^3
    products), sampled above it (``sampled_triples`` triples, seed 0).
    Oracle-built tables are associative by construction; this guards
    hand-entered ones.
    """
    n = len(table)
    if n <= LIMITS["exhaustive_triples"]:
        for x in range(n):
            tx = table[x]
            for y in range(n):
                txy = table[tx[y]]
                ty = table[y]
                for z in range(n):
                    if txy[z] != tx[ty[z]]:
                        return (x, y, z)
        return None
    rng = random.Random(0)
    for _ in range(LIMITS["sampled_triples"]):
        x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if table[table[x][y]][z] != table[x][table[y][z]]:
            return (x, y, z)
    return None


# ---------------------------------------------------------------------------
# enumeration from an oracle


class Oracle:
    """Behavioral element interface for enumeration.

    ``mult`` is the binary operation, ``unary`` an optional unary
    operation, ``name`` an optional display renderer.  Elements are their
    own keys: hashable values, equal exactly when they are the same
    element.
    """

    def __init__(self, mult: Callable, *, unary: Optional[Callable] = None,
                 name: Optional[Callable] = None):
        self.mult = mult
        self.unary = unary
        self.name = name if name is not None else (lambda e: str(e))


class _Growth:
    """Breadth-first growth of the semigroup generated under an oracle.

    Every ball of the same (oracle, generators, seeds) is a prefix of one
    growth, and a larger ball resumes it.  Elements appear in word-length
    order with ties broken by generator index (so reports are
    deterministic) and are expanded one at a time in that order;
    ``right[i]`` is the right Cayley row of the i-th non-seed element, one
    column per distinct generator, as listed in ``columns``.
    Seeds have length 0 and are not expanded.  Each element records its
    shortest word as a prefix link: ``prefix[i]`` (None for seeds and
    generators) and ``last[i]``, the last generator (None for seeds).
    """

    def __init__(self, oracle: Oracle, generators: Sequence, seeds: Sequence):
        if not generators:
            raise ValueError("generator set must be nonempty")
        self.oracle = oracle
        self.generators = list(generators)
        self.seeds = list(seeds)
        self.elements, self.lengths, self.right = [], [], []
        self.prefix, self.last, self._words = [], [], []
        self.index: dict = {}
        for s in self.seeds:
            self._push(s, None, None, 0)
        self.n_seeds = len(self.elements)
        self.gens = [self._push(g, None, a, 1)
                     for a, g in enumerate(self.generators)]
        # A repeated generator adds no element, so it gets no column.
        first: dict = {}
        for a, i in enumerate(self.gens):
            first.setdefault(i, a)
        self.columns = [(a, self.generators[a]) for a in first.values()]

    def _push(self, e, prefix, last, length: int) -> int:
        """Index of e, appended as a new element when it is new."""
        n = len(self.elements)
        i = self.index.setdefault(e, n)
        if i == n:
            self.elements.append(e)
            self.prefix.append(prefix)
            self.last.append(last)
            self.lengths.append(length)
        return i

    @property
    def words(self) -> list:
        """Shortest words as tuples of generator indices, built from the
        prefix links when read; a prefix comes before its extensions."""
        words, prefix, last = self._words, self.prefix, self.last
        for i in range(len(words), len(self.elements)):
            p, a = prefix[i], last[i]
            words.append(() if a is None else (a,) if p is None
                         else words[p] + (a,))
        return words

    def size(self, radius: int, cap: float = inf) -> int:
        """Number of elements of length <= radius.  Expands elements until
        one longer than radius appears or none is left: the ball of this
        radius is then complete, and closed iff nothing longer exists.
        Expansion also stops once more than ``cap`` elements are known;
        if the ball is not complete by then, every known element lies in
        it, and their count, over the cap, is returned."""
        elements, lengths, right = self.elements, self.lengths, self.right
        mult, push = self.oracle.mult, self._push
        while lengths[-1] <= radius and len(elements) <= cap:
            i = self.n_seeds + len(right)
            if i == len(elements):
                break
            x, length = elements[i], lengths[i] + 1
            right.append([push(mult(x, g), i, a, length)
                          for a, g in self.columns])
        return bisect_right(lengths, radius)

    def reach(self, radius: int, max_elements: int) -> int:
        """Largest r <= radius such that every level from 2 to r adds
        elements and keeps the count within ``max_elements``."""
        at_least("radius", radius)
        r = 1
        while (r < radius and self.size(r)
               < self.size(r + 1, max_elements) <= max_elements):
            r += 1
        return r

    def ball(self, radius: int, limit: str) -> "BallEnumeration":
        """The ball of this radius; BudgetError if a level up to it pushes
        the element count past the named limit."""
        cap = LIMITS[limit]
        r = self.reach(radius, cap)
        if r < radius:
            # Level r + 1 adds nothing, or its count is over the cap.
            need(limit, self.size(r + 1, cap))
        return BallEnumeration(self, radius)


class BallEnumeration:
    """Elements of word length <= radius in the generators.

    ``closed`` is True when the ball is multiplication-closed, i.e. it is
    the whole generated semigroup: expanding it adds no longer element.
    ``words`` hold one shortest witness per element as a tuple of generator
    indices; seeds get the empty word.  They are built when first read.
    """

    def __init__(self, growth: _Growth, radius: int):
        n = growth.size(radius)
        self._growth, self.radius = growth, radius
        self.oracle, self.generators = growth.oracle, growth.generators
        self.seeds = growth.seeds
        self.elements = growth.elements[:n]
        self.lengths = growth.lengths[:n]
        self.closed = n == len(growth.elements)

    @cached_property
    def words(self) -> list:
        return self._growth.words[:len(self)]

    def __len__(self) -> int:
        return len(self.elements)

    def extend(self, radius: int) -> "BallEnumeration":
        """The ball of a larger radius, resuming the shared growth, as a
        pool of witness multipliers: within the ``pool_elements`` limit."""
        if radius <= self.radius or self.closed:
            return self
        return self._growth.ball(radius, "pool_elements")

    def __repr__(self) -> str:
        return (f"BallEnumeration(radius={self.radius}, n={len(self)}, "
                f"closed={self.closed})")


def ball_enumerate(oracle: Oracle, generators: Sequence, radius: int,
                   *, seeds: Sequence = ()) -> BallEnumeration:
    """Breadth-first ball of the generated semigroup, one radius at a time.

    Raises BudgetError when a level up to the radius pushes the element
    count past the ``ball_elements`` limit.
    """
    return _Growth(oracle, generators, seeds).ball(radius, "ball_elements")


def enumerate_oracle(oracle: Oracle, generators: Sequence, *,
                     seeds: Sequence = (),
                     max_elements: int = LIMITS["closure_elements"]):
    """Close the generators under the oracle.

    Returns a FiniteSemigroup when the closure is reached within budget,
    otherwise the BallEnumeration at the largest radius whose elements fit
    (a normal result, not an error).  Every level adds an element, so that
    radius is at most ``max_elements``.
    """
    growth = _Growth(oracle, generators, seeds)
    ball = BallEnumeration(growth, growth.reach(max_elements, max_elements))
    return table_from_ball(ball) if ball.closed else ball


def _right_search(right: Sequence[Sequence[int]], gens: Sequence[int]) -> tuple:
    """Breadth-first search of the right Cayley graph from the generators.

    ``right[x][a]`` is the index of x times generator a, and ``gens[a]`` is
    that generator's own index.  Returns (first, later): ``first`` holds
    (g, a) for each distinct generator g = gens[a], and ``later`` holds
    (y, p, a) for every other element reached, in visiting order, with
    y = p·gens[a] and p visited before y.
    """
    n = len(right)
    seen = [False] * n
    first, queue, later = [], [], []
    for a, g in enumerate(gens):
        if not seen[g]:
            seen[g] = True
            first.append((g, a))
            queue.append(g)
    for p in queue:
        if len(queue) == n:
            break
        for a, y in enumerate(right[p]):
            if not seen[y]:
                seen[y] = True
                queue.append(y)
                later.append((y, p, a))
    return first, later


def table_from_ball(ball: BallEnumeration) -> FiniteSemigroup:
    """The semigroup of a closed ball, held as its Cayley graphs.

    The enumeration already holds the right Cayley row of every non-seed
    element.  Only the seed rows, and the columns of seeds that no
    generator word reaches (these seeds become letters), are multiplied
    out by the oracle.
    """
    if not ball.closed:
        raise ValueError("ball is not closed")
    oracle, growth, elements = ball.oracle, ball._growth, ball.elements
    index = growth.index

    def position(e, what: str) -> int:
        if e not in index:
            raise OracleError(f"{what} {e!r} not in the closed element set")
        return index[e]

    seeds = range(growth.n_seeds)
    letters = [growth.gens[a] for a, _ in growth.columns]
    right = [[position(oracle.mult(elements[s], g), "product key")
              for _, g in growth.columns] for s in seeds] + growth.right
    reached = _reached(right, letters) if seeds else ()
    unreached = [s for s in seeds if s not in reached]
    if unreached:
        right = [row + [position(oracle.mult(x, elements[s]), "product key")
                        for s in unreached]
                 for x, row in zip(elements, right)]
    unary = None
    if oracle.unary is not None:
        unary = [position(oracle.unary(x), "unary image key")
                 for x in elements]
    return FiniteSemigroup(right=right, letters=letters + unreached,
                           names=[oracle.name(e) for e in elements],
                           keys=elements, unary=unary,
                           generators=set(growth.gens).union(seeds))


# ---------------------------------------------------------------------------
# Green's relations


@dataclass
class GreenStructure:
    """Five partitions of the element set, as dense class-id arrays."""

    h: list
    l: list
    r: list
    d: list
    j: list

    def partition(self, relation: str) -> list:
        return getattr(self, relation.lower())

    def count(self, relation: str) -> int:
        p = self.partition(relation)
        return len(set(p)) if p else 0

    def counts(self) -> dict:
        return {k: self.count(k) for k in RELATIONS}

    def classes(self, relation: str) -> list:
        p = self.partition(relation)
        out: dict = {}
        for i, c in enumerate(p):
            out.setdefault(c, []).append(i)
        return [out[c] for c in sorted(out)]

    def related(self, relation: str, x: int, y: int) -> bool:
        p = self.partition(relation)
        return p[x] == p[y]


def _dense(labels: Iterable) -> list:
    """Renumber arbitrary labels to dense ids ordered by first occurrence."""
    seen: dict = {}
    return [seen.setdefault(lab, len(seen)) for lab in labels]


def _sccs(n: int, succ: Callable) -> list:
    """Strongly connected components of the digraph on range(n) whose
    successors of v are the iterable ``succ(v)``, as a dense component-id
    array.

    Iterative Tarjan in Pearce's one-array form ("A space-efficient
    algorithm for finding strongly connected components", 2016): rank[v]
    is 0 until v is visited, then its low link, and once its component is
    complete that component's number, counted down from n.  Visit numbers
    are handed back as components complete, so every open rank stays below
    every component number, and one comparison per edge does the work of
    Tarjan's on-stack test.
    """
    rank = [0] * n
    visit = 1                   # the next visit number
    comp = n                    # the next component number
    done: list = []             # finished vertices of open components
    for root in range(n):
        if rank[root]:
            continue
        rank[root] = visit
        path = [(root, visit, iter(succ(root)))]
        visit += 1
        while path:
            v, number, it = path[-1]
            low = rank[v]
            for w in it:
                rw = rank[w]
                if not rw:
                    rank[v] = low
                    rank[w] = visit
                    path.append((w, visit, iter(succ(w))))
                    visit += 1
                    break
                if rw < low:
                    low = rw
            else:
                path.pop()
                if low == number:
                    visit -= 1
                    while done and rank[done[-1]] >= number:
                        rank[done.pop()] = comp
                        visit -= 1
                    rank[v] = comp
                    comp -= 1
                else:
                    rank[v] = low
                    done.append(v)
                    u = path[-1][0]
                    if low < rank[u]:
                        rank[u] = low
    return _dense(rank)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x: int, y: int) -> None:
        x, y = self.find(x), self.find(y)
        if x != y:
            if x > y:
                x, y = y, x
            self.parent[y] = x

    def labels(self) -> list:
        return [self.find(x) for x in range(len(self.parent))]


def _join(p1: Sequence[int], p2: Sequence[int]) -> list:
    """The join of two partitions given as dense ids below their length:
    the components of the bipartite graph that links class p1[x] to class
    p2[x], one union per distinct link."""
    n = len(p1)
    uf = _UnionFind(2 * n)
    for a, b in set(zip(p1, p2)):
        uf.union(a, n + b)
    return _dense(map(uf.find, p1))


def green_scc(fs: FiniteSemigroup) -> GreenStructure:
    """Green's relations via mutual reachability on Cayley graphs.

    Right Cayley edges x -> x g give R, left edges x -> g x give L, for
    the letters g of ``fs``; the table is not read.  H is
    the meet of L and R, D their join, and J is read as D: in every finite
    semigroup D = J.
    """
    n = len(fs)
    left = fs.left
    r = _sccs(n, fs.right.__getitem__)
    l = _sccs(n, lambda x: map(itemgetter(x), left))
    h = _dense(zip(l, r))
    d = _join(l, r)
    return GreenStructure(h=h, l=l, r=r, d=d, j=d)


def green_definitional(fs: FiniteSemigroup) -> GreenStructure:
    """Green's relations by comparing principal ideals as element sets.

    Independent of green_scc; the two must agree on every closed table,
    which the test suite asserts as the cross-validation oracle.  J is
    computed here from two-sided ideals, not read as D, so the agreement
    also checks D = J.
    """
    n = len(fs)
    t = fs.table
    rng_n = range(n)
    left_ideals = [frozenset([x] + [t[y][x] for y in rng_n]) for x in rng_n]
    right_ideals = [frozenset([x] + [t[x][y] for y in rng_n]) for x in rng_n]
    l = _dense(left_ideals)
    r = _dense(right_ideals)
    # Two-sided ideal: union of u S^1 over u in S^1 x.
    two_sided: dict = {}
    j_labels = []
    for x in rng_n:
        lid = l[x]
        if lid not in two_sided:
            acc: set = set()
            for u in left_ideals[x]:
                acc.update(right_ideals[u])
            two_sided[lid] = frozenset(acc)
        j_labels.append(two_sided[lid])
    j = _dense(j_labels)
    h = _dense(list(zip(l, r)))
    # D = L o R: x D z iff some y shares the L-class of x and the R-class
    # of z.  Link L-class lc to R-class rc whenever some y realizes the
    # pair; D-classes are the components of that bipartite graph.
    n_l = len(set(l))
    uf = _UnionFind(n_l + len(set(r)))
    for y in rng_n:
        uf.union(l[y], n_l + r[y])
    d = _dense([uf.find(l[x]) for x in rng_n])
    return GreenStructure(h=h, l=l, r=r, d=d, j=j)


# ---------------------------------------------------------------------------
# eggbox picture


@dataclass
class DClassBox:
    d_class: int
    r_classes: list
    l_classes: list
    h_sizes: list          # grid indexed [r][l]
    regular: bool


def eggbox(fs: FiniteSemigroup, gs: Optional[GreenStructure] = None) -> list:
    gs = gs if gs is not None else green_scc(fs)
    idem = set(fs.idempotents())
    boxes = []
    for members in gs.classes("D"):
        rs = sorted({gs.r[x] for x in members})
        ls = sorted({gs.l[x] for x in members})
        grid = [[0] * len(ls) for _ in rs]
        rpos = {c: i for i, c in enumerate(rs)}
        lpos = {c: i for i, c in enumerate(ls)}
        for x in members:
            grid[rpos[gs.r[x]]][lpos[gs.l[x]]] += 1
        boxes.append(DClassBox(
            d_class=gs.d[members[0]],
            r_classes=rs, l_classes=ls, h_sizes=grid,
            regular=any(x in idem for x in members)))
    return boxes


def format_eggbox(fs: FiniteSemigroup, gs: Optional[GreenStructure] = None) -> str:
    gs = gs if gs is not None else green_scc(fs)
    c = gs.counts()
    lines = [f"{len(fs)} elements; "
             + " ".join(f"{k}={c[k]}" for k in RELATIONS)]
    for box in eggbox(fs, gs):
        tag = "regular" if box.regular else "non-regular"
        lines.append(f"D-class {box.d_class} ({tag}): "
                     f"{len(box.r_classes)}x{len(box.l_classes)}")
        for row in box.h_sizes:
            lines.append("  " + " ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# constructions


def direct_product(factors: Sequence[FiniteSemigroup]) -> FiniteSemigroup:
    """Componentwise product.  Generators are all elements: the product of
    the factor generating sets does not generate in general, and Cayley
    reachability needs a true generating set.  Elements are numbered in
    ``itertools.product`` order, so a tuple's index is the mixed-radix sum
    of its components, and each cell is that sum of the factor products."""
    if not factors:
        raise ValueError("need at least one factor")
    size = 1
    for f in factors:
        size *= len(f)
    need("table_cells", size * size, n=size)
    tuples = list(itertools.product(*[range(len(f)) for f in factors]))
    ints = list(range(size))    # one int object per index, shared by cells

    def indices(parts) -> list:
        """Index of every tuple whose k-th component is ``parts[k][i_k]``,
        over the tuples (i_1, ...) in order."""
        out = [0]
        for f, part in zip(factors, parts):
            m = len(f)
            out = [ints[r * m + c] for r in out for c in part]
        return out

    table = [indices([f.table[i] for f, i in zip(factors, t)]) for t in tuples]
    unary = None
    if all(f.unary is not None for f in factors):
        unary = indices([f.unary for f in factors])
    names = ["(" + ",".join(factors[k].names[i] for k, i in enumerate(t)) + ")"
             for t in tuples]
    return FiniteSemigroup(table, names=names, keys=tuples, unary=unary,
                           generators=range(len(tuples)))


def adjoin_identity(fs: FiniteSemigroup) -> FiniteSemigroup:
    """Adjoin a fresh identity even when one is already present."""
    n = len(fs)
    table = [row + [i] for i, row in enumerate(fs.table)]
    table.append(list(range(n + 1)))
    unary = None
    if fs.unary is not None:
        unary = list(fs.unary) + [n]
    label = "1"
    while label in fs.names:
        label += "*"
    names = list(fs.names) + [label]
    gens = sorted(set(fs.generators) | {n})
    return FiniteSemigroup(table, names=names, unary=unary, generators=gens)


def subsemigroup(fs: FiniteSemigroup, seed: Iterable[int]) -> tuple:
    """Closure of ``seed`` under multiplication (and unary when present).

    The product closure of the seed is re-seeded with its unary images
    until nothing new appears.  Returns (sub, embedding) where
    embedding[i] is the index in fs of element i of the subsemigroup.
    """
    seed = set(seed)
    gens = set(seed)
    current = _closure(fs.table, sorted(gens))
    while fs.unary is not None:
        images = {fs.unary[x] for x in current} - current
        if not images:
            break
        gens |= images
        current = _closure(fs.table, sorted(gens))
    embedding = sorted(current)
    pos = {x: i for i, x in enumerate(embedding)}
    table = [[pos[fs.table[x][y]] for y in embedding] for x in embedding]
    unary = [pos[fs.unary[x]] for x in embedding] if fs.unary is not None else None
    names = [fs.names[x] for x in embedding]
    # The closure adds unary images, so the seed alone need not generate
    # it; the seed and the unary images of the closure do, under products.
    gens = {pos[x] for x in seed} | set(unary or ())
    sub = FiniteSemigroup(table, names=names, unary=unary, generators=gens)
    return sub, embedding


# ---------------------------------------------------------------------------
# table isomorphism


def iso_tables(fs1: FiniteSemigroup, fs2: FiniteSemigroup) -> tuple:
    """Multiplication-preserving bijection search, or (False, None).

    A unary-preserving bijection is required when both tables carry a unary
    operation.  Invariant pruning (order profile, idempotency, Green class
    sizes) keeps the backtracking shallow at desk scale.
    """
    n = len(fs1)
    need("iso_elements", max(n, len(fs2)))
    if len(fs2) != n:
        return False, None
    use_unary = fs1.unary is not None and fs2.unary is not None

    def profiles(fs: FiniteSemigroup) -> list:
        gs = green_scc(fs)
        sizes = {k: {} for k in RELATIONS}
        for k in RELATIONS:
            for cls in gs.classes(k):
                for x in cls:
                    sizes[k][x] = len(cls)
        out = []
        for x in range(len(fs)):
            seen = {x: 1}
            y = x
            while True:
                y = fs.table[y][x]
                if y in seen:
                    idx, per = seen[y], len(seen) + 1 - seen[y]
                    break
                seen[y] = len(seen) + 1
            out.append((fs.table[x][x] == x, idx, per,
                        len(set(fs.table[x])),
                        len({fs.table[y][x] for y in range(len(fs))}),
                        tuple(sizes[k][x] for k in RELATIONS)))
        return out

    p1, p2 = profiles(fs1), profiles(fs2)
    if sorted(p1) != sorted(p2):
        return False, None
    candidates = [[y for y in range(n) if p2[y] == p1[x]] for x in range(n)]
    order = sorted(range(n), key=lambda x: len(candidates[x]))
    mapping = [-1] * n
    used = [False] * n

    def consistent(x: int, y: int) -> bool:
        if use_unary:
            ux = fs1.unary[x]
            if mapping[ux] != -1 and mapping[ux] != fs2.unary[y]:
                return False
        for z in range(n):
            mz = mapping[z]
            if mz == -1:
                continue
            p = mapping[fs1.table[x][z]]
            if p != -1 and fs2.table[y][mz] != p:
                return False
            p = mapping[fs1.table[z][x]]
            if p != -1 and fs2.table[mz][y] != p:
                return False
        return True

    def backtrack(k: int) -> bool:
        if k == n:
            return True
        x = order[k]
        for y in candidates[x]:
            if used[y] or not consistent(x, y):
                continue
            mapping[x] = y
            used[y] = True
            if backtrack(k + 1):
                return True
            mapping[x] = -1
            used[y] = False
        return False

    if backtrack(0):
        # Full verification: pruning above only checks assigned pairs.
        ok = all(mapping[fs1.table[x][y]] == fs2.table[mapping[x]][mapping[y]]
                 for x in range(n) for y in range(n))
        if ok and use_unary:
            ok = all(mapping[fs1.unary[x]] == fs2.unary[mapping[x]]
                     for x in range(n))
        if ok:
            return True, list(mapping)
    return False, None


# ---------------------------------------------------------------------------
# witnessed Green analysis


@dataclass
class WitnessedGreen:
    """Bounded evidence about an infinite (or unconfirmed) semigroup.

    Witnessed relatedness is a lower bound on true relatedness: two
    elements are related only when explicit multiplier witnesses exist in
    the extended ball.  Nothing here is certified unless the ball closed.
    """

    relation: str
    margin: int
    counts_by_radius: dict
    classes: list
    apparently_infinite: bool
    certified: bool


def _mutual_pairs(rows: Iterable[dict]) -> Iterator[tuple]:
    """(a, b, t) for each pair a < b of sources whose rows, given in source
    order and keyed by source, hold each other; t is the larger entry.  Of
    each row only the entries of later sources are kept."""
    ahead: list = []
    for b, row in enumerate(rows):
        later = {}
        for a, t in row.items():
            if a > b:
                later[a] = t
            elif a < b:
                s = ahead[a].get(b)
                if s is not None:
                    yield a, b, max(s, t)
        ahead.append(later)


class Witnesses:
    """Witnessed Green analysis over one pool of distinct multipliers in
    nondecreasing radius order, optionally labelled (by shortest words).

    Searches and partitions read one structure, the orbit of an element a
    on one side: the first pool position of a multiplier that carries a to
    each pool element.  In radius order, that position gives both the
    witness and the lowest radius at which a reaches the element.  Elements
    queried or partitioned lie in the pool.  The searches keep the orbits
    they read, except a D search's left orbit of x and a J search's orbits
    of u·x, which serve one query.
    """

    def __init__(self, oracle: Oracle, pool: Sequence,
                 labels: Optional[Sequence] = None):
        self.mult = oracle.mult
        self.pool = pool
        self.labels = labels
        self.orbits: dict = {}

    @cached_property
    def position(self) -> dict:
        return {u: i for i, u in enumerate(self.pool)}

    def orbit(self, a, left: bool, index: Optional[dict] = None,
              values: Optional[Sequence] = None) -> dict:
        """For each product u·a (a·u when not ``left``) of a multiplier u
        that lies in ``index`` (the pool positions by default), its key in
        ``index`` -> the entry of ``values`` (the positions by default) at
        the first pool position of a multiplier that gives it."""
        pool = self.pool
        products = (map(self.mult, pool, repeat(a)) if left
                    else map(self.mult, repeat(a), pool))
        keys = list(map((self.position if index is None else index).get,
                        products))
        # Filled last to first, so the first multiplier of each key stays.
        orbit = dict(zip(reversed(keys), reversed(
            range(len(pool)) if values is None else values)))
        orbit.pop(None, None)
        return orbit

    def partition(self, elements: Sequence, enter: Sequence,
                  usable: Sequence, relation: str, radius: int) -> tuple:
        """Witnessed Green classes of ``elements`` at each radius
        1..``radius``.

        ``elements`` enter at the radii ``enter``, and the multiplier at
        each pool position is usable from radius ``usable[position]``.  At
        radius k, two present elements are directly related when
        multipliers usable at k carry each to the other: u·x for L, x·u for
        R, both for H, and u·x·v with u, v optional for J; D joins L and R
        over the pool usable at k.  Classes are the union-find closure.

        The sources are the elements, or the whole pool for D.  Each
        source's orbit, restricted to the sources and read through
        ``usable``, is its row: the lowest radius at which it reaches each
        source.  A pair whose rows hold each other is an edge, tagged with
        the radius at which both hits and both endpoints are present, and
        one sweep over the sorted edges answers every radius.  Returns the
        counts by radius and the dense labels of the elements present at
        ``radius``.  Source pairs over the ``witness_pairs`` limit raise
        BudgetError before any product.
        """
        relation = relation.upper()
        if relation not in RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        d = relation == "D"
        sources = self.pool if d else elements
        need("witness_pairs", len(sources) ** 2)
        index = self.position if d else {e: i for i, e in enumerate(elements)}
        start = usable if d else enter      # the radius each source enters at

        def row(x, left: bool) -> dict:
            return self.orbit(x, left, index, usable)

        def h_row(x) -> dict:
            right = row(x, False)
            return {c: max(r, right[c]) for c, r in row(x, True).items()
                    if c in right}

        def j_rows() -> list:
            # Each w = x·v, at the radius of its first v (x itself at 0),
            # then u·w, and w itself at 0; every w is scanned once, for all
            # the sources that reach it.
            firsts: dict = {}
            for b, x in enumerate(sources):
                ws = itertools.chain([x], map(self.mult, repeat(x), self.pool))
                for w, rv in zip(ws, itertools.chain([0], usable)):
                    firsts.setdefault(w, {}).setdefault(b, rv)
            rows: list = [{} for _ in sources]
            for w, radii in firsts.items():
                hits = row(w, True)
                if w in index:
                    hits[index[w]] = 0
                for b, rv in radii.items():
                    best = rows[b]
                    for c, ru in hits.items():
                        r = max(ru, rv)
                        if r < best.get(c, inf):
                            best[c] = r
            return rows

        if relation in "LR":
            pairs = _mutual_pairs(row(x, relation == "L") for x in sources)
        elif relation == "H":
            pairs = _mutual_pairs(map(h_row, sources))
        elif relation == "J":
            pairs = _mutual_pairs(j_rows())
        else:
            # Either side's edge joins, so D takes both sides' edges.
            pairs = itertools.chain(
                _mutual_pairs(row(x, True) for x in sources),
                _mutual_pairs(row(x, False) for x in sources))
        edges = sorted((max(t, start[a], start[b]), a, b) for a, b, t in pairs)
        node = [index[e] for e in elements] if d else range(len(elements))
        uf = _UnionFind(len(sources))
        counts = {}
        done = 0
        for k in range(1, radius + 1):
            while done < len(edges) and edges[done][0] <= k:
                uf.union(edges[done][1], edges[done][2])
                done += 1
            counts[k] = len({uf.find(v) for v, r in zip(node, enter) if r <= k})
        labels = _dense([uf.find(v) for v, r in zip(node, enter) if r <= radius])
        return counts, labels

    def _witness(self, i: Optional[int]):
        """The pool pair (u, label) at position i, or None."""
        if i is None:
            return None
        return self.pool[i], None if self.labels is None else self.labels[i]

    def one_sided(self, a, b, left: bool):
        """("identity",) when a = b, else the first pool pair (u, label)
        with u·a = b (a·u = b when not ``left``), or None."""
        if a == b:
            return ("identity",)
        orbit = self.orbits.get((a, left))
        if orbit is None:
            orbit = self.orbits[a, left] = self.orbit(a, left)
        return self._witness(orbit.get(self.position[b]))

    def two_sided(self, a, b):
        """("identity",) when a = b, else the first (u, v) with u·a·v = b,
        by u first, either multiplier possibly None, or None."""
        if a == b:
            return ("identity",)
        target = self.position[b]
        for u in itertools.chain([None], self.pool):
            ua = a if u is None else self.mult(u, a)
            if ua == b:
                return (u, None)
            v = self.orbit(ua, False).get(target)
            if v is not None:
                return (u, self.pool[v])
        return None

    @staticmethod
    def mutual(search, a, b, *side):
        fwd = search(a, b, *side)
        bwd = fwd and search(b, a, *side)
        return {"u": fwd, "v": bwd} if bwd else None

    def related(self, x, y, relation: str) -> Optional[dict]:
        """Explicit witnesses that x and y are related, or None.

        A one-sided witness is ("identity",) or a pool pair (u, label) with
        u·a = b (u on the right for R).  For D the result names the
        intermediate element (``via``, ``via_word``) with its L-witness to x
        and R-witness to y; for J a witness is (u, v) with u·a·v = b, either
        multiplier possibly None.
        """
        relation = relation.upper()
        one_sided = self.one_sided
        if relation in ("L", "R"):
            return self.mutual(one_sided, x, y, relation == "L")
        if relation == "H":
            lw = self.mutual(one_sided, x, y, True)
            rw = self.mutual(one_sided, x, y, False)
            return {"L": lw, "R": rw} if lw and rw else None
        if relation == "D":
            # c needs u·x = c and y·u = c for some pool u (or c = x, c = y).
            left_x, px = self.orbit(x, True), self.position[x]
            for c in range(len(self.pool)):
                to_c = (("identity",) if c == px
                        else self._witness(left_x.get(c)))
                via, via_word = self._witness(c)
                from_y = to_c and one_sided(y, via, False)
                if from_y:
                    to_x = one_sided(via, x, True)
                    to_y = to_x and one_sided(via, y, False)
                    if to_y:
                        return {"via": via, "via_word": via_word,
                                "L": {"u": to_c, "v": to_x},
                                "R": {"u": to_y, "v": from_y}}
            return None
        if relation == "J":
            return self.mutual(self.two_sided, x, y)
        raise ValueError(f"unknown relation {relation!r}")


def witnessed_green(ball: BallEnumeration, relation: str,
                    margin: int = LIMITS["witness_margin"]) -> WitnessedGreen:
    """Per-radius witnessed class counts for one Green relation.

    The ball adapter of ``Witnesses.partition``.  An element enters at its
    word length (at least 1), and a multiplier of length l from the ball of
    radius ``ball.radius * margin`` is usable from radius ceil(l / margin).
    "Apparently infinite" means three consecutive strict count increases,
    a labeled heuristic, never a certificate.  A multiplier ball over the
    ``pool_elements`` limit raises BudgetError, and so do pairs of ball
    elements over ``witness_pairs``, before the ball is extended.
    """
    at_least("margin", margin)
    if relation.upper() != "D":
        need("witness_pairs", len(ball) ** 2)
    ext = ball.extend(ball.radius * margin)
    counts, classes = Witnesses(ball.oracle, ext.elements).partition(
        ball.elements, [max(n, 1) for n in ball.lengths],
        [-(-n // margin) for n in ext.lengths], relation, ball.radius)
    radii = sorted(counts)
    increases = [counts[radii[i]] < counts[radii[i + 1]]
                 for i in range(len(radii) - 1)]
    apparently_infinite = any(all(increases[i:i + 3])
                              for i in range(len(increases) - 2))
    return WitnessedGreen(relation=relation.upper(), margin=margin,
                          counts_by_radius=counts, classes=classes,
                          apparently_infinite=apparently_infinite,
                          certified=ball.closed)


def ball_witnesses(ball: BallEnumeration,
                   margin: int = LIMITS["witness_margin"]) -> Witnesses:
    """Witness searches in the ball at its radius: the multipliers are the
    elements usable there, those of length l with ceil(l / margin) <=
    ``ball.radius``, each labelled by its shortest word.  A multiplier ball
    over the ``pool_elements`` limit raises BudgetError.
    """
    at_least("margin", margin)
    ext = ball.extend(ball.radius * margin)
    return Witnesses(ball.oracle, ext.elements, ext.words)


def witnessed_related(ball: BallEnumeration, x, y, relation: str,
                      margin: int = LIMITS["witness_margin"]) -> Optional[dict]:
    """Explicit witnesses that x and y are related in the ball, or None:
    one query of a fresh ``ball_witnesses``."""
    return ball_witnesses(ball, margin).related(x, y, relation)


# ---------------------------------------------------------------------------
# table text format


def parse_table(text: str) -> FiniteSemigroup:
    """Line-oriented table format.

    ``elements: e a b`` then one ``row x: ...`` line per element listing
    products in element order; optional ``unary x: y`` lines (all or none);
    optional ``generators: ...``.  Non-associative tables are rejected with
    a witness triple.
    """
    names: list = []
    rows: dict = {}
    unary: dict = {}
    gens: Optional[list] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        head = head.strip()
        fields = rest.split()
        if head == "elements":
            names = fields
        elif head.startswith("row "):
            rows[head[4:].strip()] = fields
        elif head.startswith("unary "):
            if len(fields) != 1:
                raise ValueError(f"line {lineno}: unary needs one image")
            unary[head[6:].strip()] = fields[0]
        elif head == "generators":
            gens = fields
        else:
            raise ValueError(f"line {lineno}: unrecognized directive {head!r}")
    if not names:
        raise ValueError("missing 'elements:' line")
    index = {nm: i for i, nm in enumerate(names)}
    if len(index) != len(names):
        raise ValueError("duplicate element names")
    n = len(names)
    table = []
    for nm in names:
        if nm not in rows:
            raise ValueError(f"missing row for element {nm!r}")
        row = rows[nm]
        if len(row) != n:
            raise ValueError(f"row {nm!r} has {len(row)} entries, expected {n}")
        try:
            table.append([index[x] for x in row])
        except KeyError as exc:
            raise ValueError(f"row {nm!r} mentions unknown element {exc}") from None
    witness = verify_associative(table)
    if witness is not None:
        x, y, z = witness
        raise ValueError(
            "table is not associative: witness triple "
            f"({names[x]}, {names[y]}, {names[z]})")
    unary_arr = None
    if unary:
        missing = [nm for nm in names if nm not in unary]
        if missing:
            raise ValueError(f"unary given for some elements but not {missing}")
        unary_arr = [index[unary[nm]] for nm in names]
    gen_idx = None
    if gens is not None:
        gen_idx = [index[g] for g in gens]
    return FiniteSemigroup(table, names=names, unary=unary_arr,
                           generators=gen_idx)
