"""Independent reference answers for the benchmark's correctness checks.

Nothing here calls the code paths the benchmark times.  The references are
closed forms (bicyclic and (Z, o) class counts, M_n and product laws), plain
re-implementations over raw data (transformation closures by set BFS with
Green's relations from strongly connected components, Munn trees as prefix
tries) or the repository's slow oracles that the CLI never uses
(``zoo.mn_size_brute``, ``vmaps.BruteMap``).
"""

from __future__ import annotations

import random

RELATIONS = ("H", "L", "R", "D", "J")


# ---------------------------------------------------------------------------
# words and Munn trees (Munn, 1974)


def free_reduce(w):
    out = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert(w):
    return tuple(-x for x in reversed(w))


def munn_vertices(w) -> int:
    """Number of distinct reduced prefixes of w, which is the vertex count
    of its Munn tree: the prefixes form a trie walked letter by letter."""
    parent = [0]
    via = [0]
    children = [{}]
    node = 0
    for x in w:
        if node and via[node] == -x:
            node = parent[node]
            continue
        nxt = children[node].get(x)
        if nxt is None:
            nxt = len(parent)
            parent.append(node)
            via.append(x)
            children.append({})
            children[node][x] = nxt
        node = nxt
    return len(parent)


def reduced_prefixes(w) -> frozenset:
    stack = []
    seen = {()}
    for x in w:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
        seen.add(tuple(stack))
    return frozenset(seen)


def fis_equal(u, v) -> bool:
    """Munn's theorem: equal in the free inverse semigroup exactly when the
    free reductions and the sets of reduced prefixes agree."""
    return (free_reduce(u) == free_reduce(v)
            and reduced_prefixes(u) == reduced_prefixes(v))


def format_word(w, names="ab") -> str:
    return " ".join(names[abs(x) - 1] + ("" if x > 0 else "^-1") for x in w)


# ---------------------------------------------------------------------------
# transformation closures


def transformation_maps(n: int, seed: int, k: int) -> list:
    """The generating maps that the spec ``transf:n:seed:k`` denotes."""
    rng = random.Random(seed)
    return [tuple(rng.randrange(n) for _ in range(n)) for _ in range(k)]


def transformation_closure(gens: list) -> list:
    """Semigroup generated by the maps, right action x(fg) = (xf)g."""
    seen = {}
    frontier = []
    for g in gens:
        if g not in seen:
            seen[g] = len(seen)
            frontier.append(g)
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                h = tuple(g[i] for i in f)
                if h not in seen:
                    seen[h] = len(seen)
                    nxt.append(h)
        frontier = nxt
    return list(seen)


def _scc_labels(n: int, succ: list) -> list:
    """Kosaraju: component label per vertex of the graph given as
    successor lists."""
    order = []
    visited = [False] * n
    for root in range(n):
        if visited[root]:
            continue
        visited[root] = True
        stack = [(root, 0)]
        while stack:
            v, i = stack[-1]
            if i < len(succ[v]):
                stack[-1] = (v, i + 1)
                w = succ[v][i]
                if not visited[w]:
                    visited[w] = True
                    stack.append((w, 0))
            else:
                stack.pop()
                order.append(v)
    pred = [[] for _ in range(n)]
    for v in range(n):
        for w in succ[v]:
            pred[w].append(v)
    label = [-1] * n
    count = 0
    for root in reversed(order):
        if label[root] != -1:
            continue
        label[root] = count
        stack = [root]
        while stack:
            v = stack.pop()
            for w in pred[v]:
                if label[w] == -1:
                    label[w] = count
                    stack.append(w)
        count += 1
    return label


def _join_count(p1: list, p2: list) -> int:
    parent = list(range(len(p1)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for labels in (p1, p2):
        first = {}
        for i, c in enumerate(labels):
            if c in first:
                parent[find(i)] = find(first[c])
            else:
                first[c] = i
    return len({find(i) for i in range(len(p1))})


def transformation_green_counts(gens: list) -> tuple:
    """(size, counts) of the closure.  R and L are the strong components of
    the right and left Cayley graphs, J of their union, H their meet and D
    their join."""
    elems = transformation_closure(gens)
    pos = {e: i for i, e in enumerate(elems)}
    right = [[pos[tuple(g[i] for i in f)] for g in gens] for f in elems]
    left = [[pos[tuple(f[i] for i in g)] for g in gens] for f in elems]
    n = len(elems)
    r = _scc_labels(n, right)
    l = _scc_labels(n, left)
    j = _scc_labels(n, [a + b for a, b in zip(right, left)])
    counts = {"H": len(set(zip(l, r))), "L": len(set(l)), "R": len(set(r)),
              "D": _join_count(l, r), "J": len(set(j))}
    return n, counts


def transformation_power_law(gens: list, m: int, p: int) -> bool:
    """x^m = x^(m+p) for every element of the closure."""
    for f in transformation_closure(gens):
        powers = [f]
        for _ in range(m + p - 1):
            x = powers[-1]
            powers.append(tuple(f[i] for i in x))
        if powers[m - 1] != powers[m + p - 1]:
            return False
    return True


# ---------------------------------------------------------------------------
# closed forms for the zoo


def mn_counts(n: int) -> dict:
    """M_n: H-trivial; L- and R-classes are the intervals plus the zero;
    one D-class per span plus the zero."""
    from greenbox import zoo
    size = zoo.mn_size(n)
    if zoo.mn_size_brute(n) != size:
        raise AssertionError(f"mn_size and mn_size_brute disagree at n={n}")
    lr = n * (n + 1) // 2
    return {"size": size, "H": size, "L": lr, "R": lr, "D": n, "J": n}


def factor_counts(spec: str) -> dict:
    """Closed-form size and Green counts of the product factors used."""
    if spec == "b2":
        return {"size": 5, "H": 5, "L": 3, "R": 3, "D": 2, "J": 2}
    if spec == "b2^1":
        return {"size": 6, "H": 6, "L": 4, "R": 4, "D": 3, "J": 3}
    head, _, arg = spec.partition(":")
    k = int(arg)
    if head == "np":
        return dict.fromkeys(("size",) + RELATIONS, k + 1)
    if head == "rz":
        return {"size": k, "H": k, "L": k, "R": 1, "D": 1, "J": 1}
    if head == "lz":
        return {"size": k, "H": k, "L": 1, "R": k, "D": 1, "J": 1}
    raise ValueError(f"no closed form for {spec!r}")


def product_counts(factors: list) -> dict:
    """Every factor is regular or a monoid, so L and R are componentwise and
    all five class counts multiply, as does the size."""
    out = dict.fromkeys(("size",) + RELATIONS, 1)
    for f in factors:
        for k, v in factor_counts(f).items():
            out[k] *= v
    return out


def _squarefree_prefix(length: int) -> str:
    w = "a"
    rules = {"a": "abc", "b": "ac", "c": "b"}
    while len(w) < length:
        w = "".join(rules[ch] for ch in w)
    return w[:length]


def sw_counts(cap: int) -> dict:
    """Factors of length <= cap of the square-free fixed point plus a zero;
    every class is a singleton."""
    w = _squarefree_prefix(8192)
    factors = {w[i:i + l] for l in range(1, cap + 1)
               for i in range(len(w) - l + 1)}
    return dict.fromkeys(("size",) + RELATIONS, len(factors) + 1)


def _has_square(w: str) -> bool:
    return any(w[i:i + h] == w[i + h:i + 2 * h]
               for h in range(1, len(w) // 2 + 1)
               for i in range(len(w) - 2 * h + 1))


def freenil_xx_counts(letters: int, cap: int) -> dict:
    """Square-free words of length <= cap plus a zero; singleton classes."""
    alphabet = "abcdefghijklmnopqrstuvwxyz"[:letters]
    level = [""]
    total = 0
    for _ in range(cap):
        level = [w + c for w in level for c in alphabet
                 if not _has_square(w + c)]
        total += len(level)
    return dict.fromkeys(("size",) + RELATIONS, total + 1)


def bicyclic_counts(relation: str, radius: int) -> dict:
    """Witnessed counts per radius k in the bicyclic ball:
    L = R = k + 1, H = |ball| = (k+1)(k+2)/2, D = J = 1."""
    out = {}
    for k in range(1, radius + 1):
        out[k] = {"L": k + 1, "R": k + 1, "H": (k + 1) * (k + 2) // 2,
                  "D": 1, "J": 1}[relation]
    return out


def pz_count(relation: str, window: int) -> int:
    """(Z, o): two L-classes; R-classes are the evens plus one per odd."""
    if relation == "L":
        return 2
    odds = sum(1 for x in range(-window, window + 1) if x % 2)
    return odds + 1


# ---------------------------------------------------------------------------
# V-set partial bijections


def vmaps_agree(witness: str, printed: str, rng: random.Random,
                points: int = 12) -> bool:
    """Compare a printed map with the composite of its witness word, built
    from ``vmaps.BruteMap`` and evaluated pointwise on sampled points."""
    from greenbox import vmaps
    f, p = vmaps.phi(), vmaps.psi()
    gens = {"f": f, "f'": vmaps.invert(f), "p": p, "p'": vmaps.invert(p)}
    brute = None
    for name in witness.split():
        step = vmaps.BruteMap.from_vmap(gens[name])
        brute = step if brute is None else brute.then(step)
    dom_text, _, shift_text = printed.partition(" + ")
    dx, dy = (int(v) for v in shift_text.strip("()").split(","))
    if dom_text == "X":
        def defined(x, y):
            return y >= 0
    else:
        r, s = (int(v) for v in dom_text[2:-1].split(","))

        def defined(x, y):
            return s <= y <= x + s - r
    for _ in range(points):
        x, y = rng.randint(-12, 12), rng.randint(0, 12)
        want = (x + dx, y + dy) if defined(x, y) else None
        if brute.apply(x, y) != want:
            return False
    return True
