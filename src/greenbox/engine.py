"""Finite semigroup engine.

Enumerates finitely generated semigroups from a multiplication oracle,
computes Green's relations by two independent methods (strong connectivity
on Cayley graphs, and direct principal-ideal comparison), and provides the
standard constructions: direct products, Rees quotients, adjoined identity
and zero, table isomorphism, eggbox pictures, and bounded "witnessed"
Green analysis for balls and windows of semigroups that do not close
within budget.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable, Iterable, Optional, Sequence

RELATIONS = ("H", "L", "R", "D", "J")


class OracleError(RuntimeError):
    """The multiplication oracle contradicted itself during enumeration."""


class BudgetError(ValueError):
    """A requested computation exceeds its declared desk-scale budget."""


MAX_TABLE_CELLS = 10_000_000    # n² cells of a multiplication table


# ---------------------------------------------------------------------------
# core structures


class FiniteSemigroup:
    """Indexed element set with a full multiplication table.

    ``table[i][j]`` is the index of the product of elements i and j.
    ``unary`` is an optional involution-style unary operation (element
    index array).  ``generators`` must genuinely generate: the Cayley-graph
    Green computation relies on it.  The constructor checks this in
    O(n·|A|) lookups for |A| declared generators, following right Cayley
    edges only; that relies on associativity, which ``parse_table``
    verifies for hand-entered tables.
    """

    def __init__(self, table: Sequence[Sequence[int]], *,
                 names: Optional[Sequence[str]] = None,
                 keys: Optional[Sequence] = None,
                 unary: Optional[Sequence[int]] = None,
                 generators: Optional[Iterable[int]] = None):
        self.table = [list(row) for row in table]
        n = len(self.table)
        for row in self.table:
            if len(row) != n or min(row) < 0 or max(row) >= n:
                raise ValueError("table is not a square matrix of element indices")
        self.keys = list(keys) if keys is not None else list(range(n))
        self.names = [str(x) for x in (names if names is not None else self.keys)]
        self.unary = list(unary) if unary is not None else None
        gens = sorted(set(generators)) if generators is not None else list(range(n))
        if not gens:
            raise ValueError("generator set must be nonempty")
        if len(gens) < n:
            # The Cayley-graph Green computation silently depends on this.
            missed = n - len(_closure(self.table, gens))
            if missed:
                raise ValueError(
                    f"declared generators miss {missed} element(s)")
        self.generators = gens
        self.identity = find_identity(self.table)
        self.zero = find_zero(self.table)
        self._cr = None

    def __len__(self) -> int:
        return len(self.table)

    def mult(self, i: int, j: int) -> int:
        return self.table[i][j]

    def idempotents(self) -> list:
        return [i for i in range(len(self)) if self.table[i][i] == i]

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


def _closure(table, gens) -> set:
    """Subsemigroup generated by ``gens``: the right Cayley search over the
    table's generator columns.  In an associative table the generator words
    are closed under every product, so no pair needs multiplying."""
    first, later = _right_search([[row[g] for g in gens] for row in table],
                                 gens)
    return {g for g, _ in first}.union(y for y, _, _ in later)


def find_identity(table) -> Optional[int]:
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x == table[x][e] for x in range(n)):
            return e
    return None


def find_zero(table) -> Optional[int]:
    n = len(table)
    for z in range(n):
        if all(table[z][x] == z == table[x][z] for x in range(n)):
            return z
    return None


def verify_associative(table, *, sample: int = 100_000, seed: int = 0,
                       exhaustive_limit: int = 200) -> Optional[tuple]:
    """Return a witness triple (x, y, z) with x(yz) != (xy)z, or None.

    Exhaustive up to ``exhaustive_limit`` elements (n^3 products), randomly
    sampled above.  Oracle-built tables are associative by construction;
    this guards hand-entered ones.
    """
    n = len(table)
    if n <= exhaustive_limit:
        for x in range(n):
            tx = table[x]
            for y in range(n):
                txy = table[tx[y]]
                ty = table[y]
                for z in range(n):
                    if txy[z] != tx[ty[z]]:
                        return (x, y, z)
        return None
    rng = random.Random(seed)
    for _ in range(sample):
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
    ``right[i]`` is the right Cayley row of the i-th non-seed element.
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

    def size(self, radius: int) -> int:
        """Number of elements of length <= radius.  Expands elements until
        one longer than radius appears or none is left: the ball of this
        radius is then complete, and closed iff nothing longer exists."""
        elements, lengths, right = self.elements, self.lengths, self.right
        mult, push = self.oracle.mult, self._push
        while lengths[-1] <= radius:
            i = self.n_seeds + len(right)
            if i == len(elements):
                break
            x, length = elements[i], lengths[i] + 1
            right.append([push(mult(x, g), i, a, length)
                          for a, g in enumerate(self.generators)])
        return bisect_right(lengths, radius)

    def reach(self, radius: int, max_elements: int) -> int:
        """Largest r <= radius such that every level from 2 to r adds
        elements and keeps the count within max_elements."""
        if radius < 1:
            raise ValueError("radius must be >= 1")
        r = 1
        while r < radius and self.size(r) < self.size(r + 1) <= max_elements:
            r += 1
        return r

    def ball(self, radius: int, max_elements: int) -> "BallEnumeration":
        """The ball of this radius; BudgetError if a level stops it short."""
        r = self.reach(radius, max_elements)
        if r < radius and self.size(r + 1) > self.size(r):
            raise BudgetError(f"ball exceeded {max_elements} elements")
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

    def extend(self, radius: int, max_elements: int = 1_000_000) -> "BallEnumeration":
        """The ball of a larger radius, resuming the shared growth."""
        if radius <= self.radius or self.closed:
            return self
        return self._growth.ball(radius, max_elements)

    def __repr__(self) -> str:
        return (f"BallEnumeration(radius={self.radius}, n={len(self)}, "
                f"closed={self.closed})")


def ball_enumerate(oracle: Oracle, generators: Sequence, radius: int,
                   *, seeds: Sequence = (),
                   max_elements: int = 1_000_000) -> BallEnumeration:
    """Breadth-first ball of the generated semigroup, one radius at a time.

    Raises BudgetError when a level up to the radius pushes the element
    count past max_elements.
    """
    return _Growth(oracle, generators, seeds).ball(radius, max_elements)


def enumerate_oracle(oracle: Oracle, generators: Sequence, *,
                     seeds: Sequence = (), max_elements: int = 10_000,
                     max_word_length: int = 1_000_000):
    """Close the generators under the oracle.

    Returns a FiniteSemigroup when the closure is reached within budget,
    otherwise the BallEnumeration at the largest radius whose elements fit
    (a normal result, not an error).
    """
    growth = _Growth(oracle, generators, seeds)
    ball = BallEnumeration(growth, growth.reach(max_word_length, max_elements))
    return table_from_ball(ball) if ball.closed else ball


def _right_search(right: Sequence[Sequence[int]], gens: Sequence[int]) -> tuple:
    """Breadth-first search of the right Cayley graph from the generators.

    ``right[x][a]`` is the index of x times generator a, and ``gens[a]`` is
    that generator's own index.  Returns (first, later): ``first`` holds
    (g, a) for each distinct generator g = gens[a], and ``later`` holds
    (y, p, a) for every other element reached, in visiting order, with
    y = p·gens[a] and p visited before y.
    """
    seen = [False] * len(right)
    first, queue, later = [], [], []
    for a, g in enumerate(gens):
        if not seen[g]:
            seen[g] = True
            first.append((g, a))
            queue.append(g)
    for p in queue:
        for a, y in enumerate(right[p]):
            if not seen[y]:
                seen[y] = True
                queue.append(y)
                later.append((y, p, a))
    return first, later


def check_table_size(n: int) -> None:
    """BudgetError when a table of n elements exceeds ``MAX_TABLE_CELLS``."""
    if n * n > MAX_TABLE_CELLS:
        raise BudgetError(f"a table of {n} elements needs {n * n} cells, "
                          f"over the budget of {MAX_TABLE_CELLS}")


def cayley_table(right: Sequence[Sequence[int]], gens: Sequence[int]) -> list:
    """Full multiplication table from the right Cayley graph.

    Columns are visited in ``_right_search`` order, so each later column
    y is reached as p·g with p visited before it; by associativity
    x·y = (x·p)·g, one lookup per cell.  Columns that no generator word
    reaches stay None for the caller to fill.
    """
    n = len(right)
    check_table_size(n)
    first, later = _right_search(right, gens)
    table = []
    for rx in right:
        row = [None] * n
        for g, a in first:
            row[g] = rx[a]
        for y, p, a in later:
            row[y] = right[row[p]][a]
        table.append(row)
    return table


def table_from_ball(ball: BallEnumeration) -> FiniteSemigroup:
    """Multiplication table of a closed ball.

    The enumeration already holds the right Cayley row of every non-seed
    element, and ``cayley_table`` fills every other cell from the rows.
    Only the seed rows, and the columns of seeds that no generator word
    reaches, are multiplied out by the oracle.
    """
    if not ball.closed:
        raise ValueError("ball is not closed")
    oracle, growth = ball.oracle, ball._growth
    index = growth.index
    seeds = range(growth.n_seeds)

    def position(e, what: str) -> int:
        if e not in index:
            raise OracleError(f"{what} {e!r} not in the closed element set")
        return index[e]

    right = [[position(oracle.mult(ball.elements[s], g), "product key")
              for g in ball.generators] for s in seeds] + growth.right
    table = cayley_table(right, growth.gens)
    for y in [y for y, cell in enumerate(table[0]) if cell is None]:
        for x, row in zip(ball.elements, table):
            row[y] = position(oracle.mult(x, ball.elements[y]), "product key")
    unary = None
    if oracle.unary is not None:
        unary = [position(oracle.unary(x), "unary image key")
                 for x in ball.elements]
    return FiniteSemigroup(table, names=[oracle.name(e) for e in ball.elements],
                           keys=ball.elements, unary=unary,
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


def _dense(labels: Sequence) -> list:
    """Renumber arbitrary labels to dense ids ordered by first occurrence."""
    seen: dict = {}
    out = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = len(seen)
        out.append(seen[lab])
    return out


def _sccs(n: int, succ: Callable) -> list:
    """Iterative Tarjan; returns a dense component-id array."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: list = []
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(succ(root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ(w))))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
    return _dense(comp)


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


def _join(p1: Sequence, p2: Sequence) -> list:
    uf = _UnionFind(len(p1))
    for labels in (p1, p2):
        first: dict = {}
        for i, c in enumerate(labels):
            if c in first:
                uf.union(first[c], i)
            else:
                first[c] = i
    return _dense(uf.labels())


def green_scc(fs: FiniteSemigroup) -> GreenStructure:
    """Green's relations via mutual reachability on Cayley graphs.

    Right Cayley edges x -> x g give R, left edges x -> g x give L.  H is
    the meet of L and R, D their join, and J is read as D: in every finite
    semigroup D = J.
    """
    n = len(fs)
    t = fs.table
    gens = fs.generators
    r = _sccs(n, lambda x: (t[x][g] for g in gens))
    l = _sccs(n, lambda x: (t[g][x] for g in gens))
    h = _dense(list(zip(l, r)))
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
    reachability needs a true generating set."""
    if not factors:
        raise ValueError("need at least one factor")
    size = 1
    for f in factors:
        size *= len(f)
    check_table_size(size)
    import itertools
    tuples = list(itertools.product(*[range(len(f)) for f in factors]))
    pos = {t: i for i, t in enumerate(tuples)}
    table = [[pos[tuple(f.table[a[k]][b[k]] for k, f in enumerate(factors))]
              for b in tuples] for a in tuples]
    unary = None
    if all(f.unary is not None for f in factors):
        unary = [pos[tuple(f.unary[a[k]] for k, f in enumerate(factors))]
                 for a in tuples]
    names = ["(" + ",".join(factors[k].names[i] for k, i in enumerate(t)) + ")"
             for t in tuples]
    return FiniteSemigroup(table, names=names, keys=tuples, unary=unary,
                           generators=range(len(tuples)))


def rees_quotient(fs: FiniteSemigroup, ideal: Iterable[int]) -> FiniteSemigroup:
    """Collapse a two-sided ideal to a single zero."""
    ideal = set(ideal)
    n = len(fs)
    if not ideal or not ideal <= set(range(n)):
        raise ValueError("ideal must be a nonempty set of element indices")
    for s in range(n):
        for i in ideal:
            for bad in (fs.table[s][i], fs.table[i][s]):
                if bad not in ideal:
                    raise ValueError(
                        f"not an ideal: witness pair ({fs.names[s]}, {fs.names[i]})")
    keep = [x for x in range(n) if x not in ideal]
    new_index = {x: i for i, x in enumerate(keep)}
    zero = len(keep)
    m = zero + 1

    def image(x: int) -> int:
        return new_index[x] if x not in ideal else zero

    table = [[0] * m for _ in range(m)]
    for i, x in enumerate(keep):
        for jj, y in enumerate(keep):
            table[i][jj] = image(fs.table[x][y])
        table[i][zero] = zero
        table[zero][i] = zero
    table[zero][zero] = zero
    unary = None
    if fs.unary is not None:
        unary = [image(fs.unary[x]) for x in keep] + [zero]
    names = [fs.names[x] for x in keep] + ["0"]
    gens = sorted({image(g) for g in fs.generators})
    return FiniteSemigroup(table, names=names, unary=unary, generators=gens)


def _adjoin(fs: FiniteSemigroup, as_identity: bool) -> FiniteSemigroup:
    n = len(fs)
    table = [row + [0] for row in fs.table]
    for i in range(n):
        table[i][n] = i if as_identity else n
    table.append([i if as_identity else n for i in range(n)] + [n])
    unary = None
    if fs.unary is not None:
        unary = list(fs.unary) + [n]
    label = "1" if as_identity else "0"
    while label in fs.names:
        label += "*"
    names = list(fs.names) + [label]
    gens = sorted(set(fs.generators) | {n})
    return FiniteSemigroup(table, names=names, unary=unary, generators=gens)


def adjoin_identity(fs: FiniteSemigroup) -> FiniteSemigroup:
    """Adjoin a fresh identity even when one is already present."""
    return _adjoin(fs, True)


def adjoin_zero(fs: FiniteSemigroup) -> FiniteSemigroup:
    return _adjoin(fs, False)


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


def iso_tables(fs1: FiniteSemigroup, fs2: FiniteSemigroup,
               *, max_size: int = 64) -> tuple:
    """Multiplication-preserving bijection search, or (False, None).

    A unary-preserving bijection is required when both tables carry a unary
    operation.  Invariant pruning (order profile, idempotency, Green class
    sizes) keeps the backtracking shallow at desk scale.
    """
    n = len(fs1)
    if n > max_size or len(fs2) > max_size:
        raise BudgetError(f"isomorphism search refused above {max_size} elements")
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


def check_margin(margin: int) -> None:
    """Witness multipliers reach ``margin`` times as far as the elements."""
    if margin < 1:
        raise ValueError("margin must be >= 1")


_NEVER = 0xFFFF     # hit-row entry of a source that no multiplier reaches
MAX_ROW_CELLS = 10_000_000      # sources squared; each cell takes two bytes
MAX_POOL_ELEMENTS = 100_000     # multipliers: the ball of radius margin·r


def check_row_cells(n: int) -> None:
    """BudgetError when n sources need more than ``MAX_ROW_CELLS`` cells."""
    if n * n > MAX_ROW_CELLS:
        raise BudgetError(f"witnessed analysis needs {n * n} hit-row cells, "
                          f"over the budget of {MAX_ROW_CELLS}")


def witnessed_partition(oracle: Oracle, elements: Sequence, pool: Sequence,
                        relation: str, radius: int) -> tuple:
    """Witnessed Green classes of ``elements`` at each radius 1..``radius``.

    ``elements`` holds (element, radius at which it enters) pairs; ``pool``
    holds (multiplier, radius from which it may be used) pairs in
    nondecreasing radius order and contains every element.  At radius k,
    two present elements are directly related when multipliers usable at k
    carry each to the other: u·x for L, x·u for R, both for H, and u·x·v
    with u, v optional for J; D joins L and R over the pool usable at k.
    Classes are the union-find closure.

    The sources are the elements, or the whole pool for D.  One scan of the
    pool per source and side records the lowest radius at which it hits
    each source; mutual pairs become edges tagged with the radius at which
    both directions and both endpoints are present, and one sweep over the
    sorted edges answers every radius.  Returns the counts by radius and
    the dense labels of the elements present at ``radius``.  More than
    ``MAX_ROW_CELLS`` source pairs raise BudgetError before any product.
    """
    relation = relation.upper()
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    mult = oracle.mult
    sources = pool if relation == "D" else elements
    n = len(sources)
    check_row_cells(n)
    index = {u: i for i, (u, _) in enumerate(sources)}
    node = [index[e] for e, _ in elements] if relation == "D" else range(n)
    us = [u for u, _ in pool]
    usable = [r for _, r in pool]
    optional = [0] + usable         # the absent multiplier, then the pool
    reach: dict = {}                # J: w -> first hits of w, u·w

    def first_hits(products, radii) -> array:
        """Per source, the lowest of ``radii`` at which ``products``, taken
        in order, hit it."""
        hits = list(map(index.get, products, repeat(n)))
        row = array("H", [_NEVER]) * (n + 1)
        # Written last to first, so the first and lowest-radius hit of each
        # source stays; misses land in the extra cell n, dropped after.
        deque(map(row.__setitem__, reversed(hits), reversed(radii)), maxlen=0)
        row.pop()
        return row

    def hit_row(x, side: str) -> array:
        """Per source, the lowest radius at which pool multipliers carry x
        to it: u·x for side L, x·u for R, u·x·v, u and v optional, for J."""
        if side == "L":
            return first_hits(map(mult, us, repeat(x)), usable)
        if side == "R":
            return first_hits(map(mult, repeat(x), us), usable)
        row = array("H", [_NEVER]) * n
        # w and u·w for each w = x·v, no earlier than the radius rv of v;
        # x itself comes first, at radius 0.  Sources share most of their
        # w, so the hits of each w are kept across sources.
        for w, rv in zip([x] + [mult(x, v) for v in us], optional):
            if w not in reach:
                reach[w] = first_hits([w] + [mult(u, w) for u in us], optional)
            row = array("H", map(min, row, map(max, reach[w], repeat(rv))))
        return row

    # An edge needs both directions; D joins L and R, so either side's
    # edge counts, while H needs both sides.
    tags = None
    for side in "LR" if relation in "HD" else relation:
        rows = [hit_row(x, side) for x, _ in sources]
        mutual = [array("H", map(max, row, col))
                  for row, col in zip(rows, zip(*rows))]
        tags = mutual if tags is None else [
            array("H", map(min if relation == "D" else max, t, m))
            for t, m in zip(tags, mutual)]
    enter = [r for _, r in sources]
    present = [r for _, r in elements]
    edges = sorted((max(t, enter[a], enter[b]), a, b)
                   for a, row in enumerate(tags)
                   for b, t in enumerate(row[a + 1:], a + 1) if t != _NEVER)
    uf = _UnionFind(n)
    counts = {}
    done = 0
    for k in range(1, radius + 1):
        while done < len(edges) and edges[done][0] <= k:
            uf.union(edges[done][1], edges[done][2])
            done += 1
        counts[k] = len({uf.find(v) for v, r in zip(node, present) if r <= k})
    labels = _dense([uf.find(v) for v, r in zip(node, present) if r <= radius])
    return counts, labels


def witnessed_green(ball: BallEnumeration, relation: str,
                    margin: int = 3) -> WitnessedGreen:
    """Per-radius witnessed class counts for one Green relation.

    The ball adapter of ``witnessed_partition``.  An element enters at its
    word length (at least 1), and a multiplier of length l from the ball of
    radius ``ball.radius * margin`` is usable from radius ceil(l / margin).
    "Apparently infinite" means three consecutive strict count increases,
    a labeled heuristic, never a certificate.  A multiplier ball over
    ``MAX_POOL_ELEMENTS`` raises BudgetError, and so do more than
    ``MAX_ROW_CELLS`` pairs of ball elements, before the ball is extended.
    """
    check_margin(margin)
    if relation.upper() != "D":
        check_row_cells(len(ball))
    ext = ball.extend(ball.radius * margin, MAX_POOL_ELEMENTS)
    counts, classes = witnessed_partition(
        ball.oracle,
        [(e, max(n, 1)) for e, n in zip(ball.elements, ball.lengths)],
        [(u, -(-n // margin)) for u, n in zip(ext.elements, ext.lengths)],
        relation, ball.radius)
    radii = sorted(counts)
    increases = [counts[radii[i]] < counts[radii[i + 1]]
                 for i in range(len(radii) - 1)]
    apparently_infinite = any(all(increases[i:i + 3])
                              for i in range(len(increases) - 2))
    return WitnessedGreen(relation=relation.upper(), margin=margin,
                          counts_by_radius=counts, classes=classes,
                          apparently_infinite=apparently_infinite,
                          certified=ball.closed)


def find_witnesses(oracle: Oracle, x, y, relation: str,
                   pool: Sequence) -> Optional[dict]:
    """Explicit witnesses that x and y are related, or None.

    ``pool`` holds (multiplier, label) pairs, searched in order; the search
    stops at the first witness.  A one-sided witness is ("identity",) or a
    pool pair (u, label) with u·a = b (u on the right for R).  For D the
    result names the intermediate element (``via``, ``via_word``) with its
    L-witness to x and R-witness to y; for J a witness is (u, v) with
    u·a·v = b, either multiplier possibly None.
    """
    relation = relation.upper()
    mult = oracle.mult

    def one_sided(a, b, left: bool):
        if a == b:
            return ("identity",)
        for u, label in pool:
            if (mult(u, a) if left else mult(a, u)) == b:
                return (u, label)
        return None

    def two_sided(a, b):
        if a == b:
            return ("identity",)
        for u in [None] + [u for u, _ in pool]:
            ua = a if u is None else mult(u, a)
            if ua == b:
                return (u, None)
            for v, _ in pool:
                if mult(ua, v) == b:
                    return (u, v)
        return None

    def mutual(search, a, b, *side):
        fwd, bwd = search(a, b, *side), search(b, a, *side)
        if fwd is not None and bwd is not None:
            return {"u": fwd, "v": bwd}
        return None

    if relation in ("L", "R"):
        return mutual(one_sided, x, y, relation == "L")
    if relation == "H":
        lw = mutual(one_sided, x, y, True)
        rw = mutual(one_sided, x, y, False)
        return {"L": lw, "R": rw} if lw and rw else None
    if relation == "D":
        for c, label in pool:
            lw = mutual(one_sided, x, c, True)
            rw = lw and mutual(one_sided, c, y, False)
            if rw:
                return {"via": c, "via_word": label, "L": lw, "R": rw}
        return None
    if relation == "J":
        return mutual(two_sided, x, y)
    raise ValueError(f"unknown relation {relation!r}")


def witnessed_related(ball: BallEnumeration, x, y, relation: str,
                      margin: int = 3) -> Optional[dict]:
    """Explicit witnesses that x and y are related in the ball, or None.

    The ball adapter of ``find_witnesses`` at the ball's radius: the
    multipliers are the elements usable there, those of length l with
    ceil(l / margin) <= ``ball.radius``, each labelled by its shortest word.
    A multiplier ball over ``MAX_POOL_ELEMENTS`` raises BudgetError.
    """
    check_margin(margin)
    ext = ball.extend(ball.radius * margin, MAX_POOL_ELEMENTS)
    return find_witnesses(ball.oracle, x, y, relation,
                          list(zip(ext.elements, ext.words)))


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


def format_table(fs: FiniteSemigroup) -> str:
    lines = ["elements: " + " ".join(fs.names)]
    for i, nm in enumerate(fs.names):
        lines.append(f"row {nm}: " + " ".join(fs.names[x] for x in fs.table[i]))
    if fs.unary is not None:
        for i, nm in enumerate(fs.names):
            lines.append(f"unary {nm}: {fs.names[fs.unary[i]]}")
    lines.append("generators: " + " ".join(fs.names[g] for g in fs.generators))
    return "\n".join(lines) + "\n"
