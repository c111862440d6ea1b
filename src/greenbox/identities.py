"""Terms over a binary operation and unary ', with identity checking.

The derived power x^0 denotes x x', the idempotent of the H-class of x in a
completely regular structure; the checker refuses it elsewhere, where the
convention is meaningless.  Nil identities use a distinguished zero constant
and need a structure with a designated zero.

Term grammar: a term is a juxtaposition of factors; a factor is a variable
(one lowercase letter, optional digits), a parenthesized term, or the zero
constant ``0``; postfixes are ``'`` (unary), ``^0`` (derived idempotent) and
integer powers ``^3`` / ``^-2`` (negative powers invert first).  An identity
is ``lhs = rhs``.

A check reads the structure once (``_read``: its product, unary operation,
zero, complete regularity and elements) and compiles each side of the
identity once (``_Stager``) into steps at the levels of the loop nest over
the assignments.  A side needing an operation the structure lacks is
refused while it compiles: once per identity, before any assignment, at
the first offending node in pre-order, left side first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import getitem
from typing import Callable, NamedTuple, Optional, Sequence

from .engine import FiniteSemigroup
from .limits import LIMITS, need


class Term:
    """A term node.  ``children`` are its subterms, left to right."""

    children: tuple = ()

    def variables(self) -> list:
        """The names of the variables below this node, sorted."""
        names, stack = set(), [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Var):
                names.add(node.name)
            stack.extend(node.children)
        return sorted(names)


@dataclass(frozen=True)
class Var(Term):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Mul(Term):
    left: Term
    right: Term

    @property
    def children(self):
        return (self.left, self.right)

    def __str__(self):
        # Parsing is left-associative, so only a right Mul child needs parens.
        left = str(self.left)
        right = str(self.right)
        if isinstance(self.right, Mul):
            right = f"({right})"
        return f"{left} {right}"


@dataclass(frozen=True)
class Inv(Term):
    arg: Term

    @property
    def children(self):
        return (self.arg,)

    def __str__(self):
        s = str(self.arg)
        return f"({s})'" if isinstance(self.arg, Mul) else f"{s}'"


@dataclass(frozen=True)
class IdPow(Term):
    """x^0, the idempotent of the H-class of x (completely regular only)."""

    arg: Term

    @property
    def children(self):
        return (self.arg,)

    def __str__(self):
        s = str(self.arg)
        return f"({s})^0" if isinstance(self.arg, Mul) else f"{s}^0"


@dataclass(frozen=True)
class ZeroC(Term):
    def __str__(self):
        return "0"


@dataclass(frozen=True)
class Identity(Term):
    """lhs = rhs.  Its children are the two sides, so ``variables`` are
    those of both sides."""

    lhs: Term
    rhs: Term

    @property
    def children(self):
        return (self.lhs, self.rhs)

    def __str__(self):
        return f"{self.lhs} = {self.rhs}"


# ---------------------------------------------------------------------------
# parsing


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.open = 0           # parenthesised groups entered, not yet left
        self.cap = LIMITS["term_nodes"]

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def error(self, message: str):
        raise ValueError(f"{message} (at position {self.pos})")

    def too_big(self):
        self.error(f"term exceeds {self.cap} nodes")


def _count(digits: str) -> int:
    """The value of a decimal power or catalogue parameter, read as
    ``term_nodes`` + 1 when it has more digits than that limit: such a
    power is over the term cap, and a long one is past int()'s digit
    limit."""
    cap = LIMITS["term_nodes"]
    return cap + 1 if len(digits.lstrip("0")) > len(str(cap)) else int(digits)


def parse_term(text: str) -> Term:
    """Parse one term of at most ``term_nodes`` nodes: variables, constants,
    products, postfixes and parenthesised groups, x^k counting k copies of
    x.  The cap bounds the recursion of parsing and evaluation and the cost
    of one evaluation; it is far above every catalogue term."""
    sc = _Scanner(text)
    t, _ = _parse_seq(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        sc.error(f"unexpected {sc.text[sc.pos]!r}")
    return t


def _parse_seq(sc: _Scanner) -> tuple:
    """A juxtaposition of factors, as (term, size)."""
    factors = []
    size = -1
    while True:
        ch = sc.peek()
        if not ch or ch in ")=":
            break
        factor, factor_size = _parse_factor(sc)
        factors.append(factor)
        size += factor_size + 1
        if size > sc.cap:
            sc.too_big()
    if not factors:
        sc.error("expected a term")
    term = factors[0]
    for f in factors[1:]:
        term = Mul(term, f)
    return term, size


def _parse_factor(sc: _Scanner) -> tuple:
    ch = sc.peek()
    if ch == "(":
        sc.take()
        # Checked on the way down: a group is a node, and nesting recurses.
        sc.open += 1
        if sc.open > sc.cap:
            sc.too_big()
        inner, size = _parse_seq(sc)
        if sc.peek() != ")":
            sc.error("expected ')'")
        sc.take()
        sc.open -= 1
        atom, size = inner, size + 1
    elif ch == "0":
        sc.take()
        atom, size = ZeroC(), 1
    elif ch.isalpha() and ch.islower():
        name = sc.take()
        while (sc.pos < len(sc.text) and sc.text[sc.pos].isdigit()):
            name += sc.text[sc.pos]
            sc.pos += 1
        atom, size = Var(name), 1
    else:
        sc.error(f"unexpected {ch!r}")
    # Postfixes bind tighter than juxtaposition and may stack; each one,
    # and a closed group, is checked before the next postfix is read.
    while True:
        if size > sc.cap:
            sc.too_big()
        nxt = sc.text[sc.pos] if sc.pos < len(sc.text) else ""
        if nxt == "'":
            sc.pos += 1
            atom, size = Inv(atom), size + 1
            continue
        if nxt == "^":
            sc.pos += 1
            sign = 1
            if sc.pos < len(sc.text) and sc.text[sc.pos] == "-":
                sign = -1
                sc.pos += 1
            digits = ""
            while sc.pos < len(sc.text) and sc.text[sc.pos].isdigit():
                digits += sc.text[sc.pos]
                sc.pos += 1
            if not digits:
                sc.error("expected digits after '^'")
            k = _count(digits)
            if k == 0 and sign == 1:
                atom, size = IdPow(atom), size + 1
            else:
                base, base_size = ((atom, size) if sign == 1
                                   else (Inv(atom), size + 1))
                copies = max(k, 1)
                # The copies of the base, joined by copies - 1 products.
                size = copies * (base_size + 1) - 1
                if size > sc.cap:
                    sc.too_big()
                out = base
                for _ in range(copies - 1):
                    out = Mul(out, base)
                atom = out
            continue
        break
    return atom, size


def parse_identity(text: str) -> Identity:
    if text.count("=") != 1:
        raise ValueError("an identity has exactly one '='")
    lhs, rhs = text.split("=")
    return Identity(parse_term(lhs), parse_term(rhs))


# ---------------------------------------------------------------------------
# evaluation


class _Ops(NamedTuple):
    mult: Callable
    unary: Optional[Callable]
    zero: Optional[int]
    completely_regular: bool
    elements: Sequence
    row: Callable               # row(a, bs) == [mult(a, b) for b in bs]
    vmult: Callable             # vmult(xs, ys) == list(map(mult, xs, ys))
    idem: Callable              # idem(x) == mult(x, unary(x))
    idpow: Callable             # idpow(xs) == list(map(idem, xs))
    vunary: Optional[Callable]  # vunary(xs) == list(map(unary, xs))


def _read(structure) -> _Ops:
    """The operations of a FiniteSemigroup, or of a structure such as
    ``zoo.PWindow`` that carries ``mult``, ``row``, ``vmult``, ``idem``,
    ``idpow``, ``unary``, ``vunary``, ``zero_element``,
    ``completely_regular`` and ``elements``."""
    if isinstance(structure, FiniteSemigroup):
        table, unary = structure.table, structure.unary
        cr = structure.completely_regular
        # Only a completely regular structure stages x^0, and it has a unary.
        idem = [row[u] for row, u in zip(table, unary)] if cr else []
        return _Ops(lambda a, b: table[a][b],
                    None if unary is None else unary.__getitem__,
                    structure.zero, cr, range(len(table)),
                    lambda a, bs: list(map(table[a].__getitem__, bs)),
                    lambda xs, ys: list(
                        map(getitem, map(table.__getitem__, xs), ys)),
                    idem.__getitem__,
                    lambda xs: list(map(idem.__getitem__, xs)),
                    None if unary is None
                    else lambda xs: list(map(unary.__getitem__, xs)))
    return _Ops(structure.mult, structure.unary, structure.zero_element,
                structure.completely_regular, structure.elements,
                structure.row, structure.vmult, structure.idem,
                structure.idpow, structure.vunary)


class _Stager:
    """Compiles terms into registers filled at the levels of a loop nest.

    A staged node is (level, vec, reg): its value is ``vals[reg]``.  It is
    recomputed by ``steps[level]`` each time the loop at that level moves,
    or computed once, here, at level -1.  When ``vec`` is set, the value is
    a list over the values of the innermost loop variable.  ``slots`` maps
    each variable to its staged node.  An operation the structure lacks is
    refused while staging, at the first offending node in pre-order.
    """

    def __init__(self, ops: _Ops, slots: dict, vals: list, levels: int):
        self.ops, self.slots, self.vals = ops, slots, vals
        self.steps = [[] for _ in range(levels)]

    def _emit(self, level: int, vec: bool, fn: Callable) -> tuple:
        reg = len(self.vals)
        if level < 0:
            self.vals.append(fn())
        else:
            self.vals.append(None)
            self.steps[level].append((reg, fn))
        return level, vec, reg

    def stage(self, term: Term) -> tuple:
        """The staged node of ``term``; concatenation associates to the
        left."""
        ops, vals = self.ops, self.vals
        mult, unary, row, vmult = ops.mult, ops.unary, ops.row, ops.vmult
        if isinstance(term, Var):
            return self.slots[term.name]
        if isinstance(term, Mul):
            la, va, ra = self.stage(term.left)
            lb, vb, rb = self.stage(term.right)
            level = max(la, lb)
            if not (va or vb):
                return self._emit(level, False,
                                  lambda: mult(vals[ra], vals[rb]))
            if not va:
                return self._emit(level, True,
                                  lambda: row(vals[ra], vals[rb]))
            return self._emit(level, True, lambda: vmult(
                vals[ra] if va else repeat(vals[ra]),
                vals[rb] if vb else repeat(vals[rb])))
        if isinstance(term, Inv):
            if unary is None:
                raise ValueError(f"term {term} needs a unary operation")
            level, vec, r = self.stage(term.arg)
            vunary = ops.vunary
            return self._emit(level, vec,
                              (lambda: vunary(vals[r])) if vec
                              else (lambda: unary(vals[r])))
        if isinstance(term, IdPow):
            if not ops.completely_regular:
                raise ValueError(
                    "x^0 is only meaningful on completely regular structures")
            level, vec, r = self.stage(term.arg)
            idem, idpow = ops.idem, ops.idpow
            return self._emit(level, vec,
                              (lambda: idpow(vals[r])) if vec
                              else (lambda: idem(vals[r])))
        if isinstance(term, ZeroC):
            zero = ops.zero
            if zero is None:
                raise ValueError("zero constant needs a structure with a zero")
            return self._emit(-1, False, lambda: zero)
        raise TypeError(f"not a term: {term!r}")

    def side(self, term: Term, inner: tuple) -> int:
        """The register of ``term`` as a list as long as the value of the
        staged node ``inner``, the innermost variable's list."""
        level, vec, r = self.stage(term)
        if vec:
            return r
        inner_level, _, inner_reg = inner
        vals = self.vals
        return self._emit(max(level, inner_level), True,
                          lambda: [vals[r]] * len(vals[inner_reg]))[2]


@dataclass
class CheckResult:
    holds: bool
    counterexample: Optional[dict]
    checked: int
    window_verified: bool = False

    def __bool__(self) -> bool:
        return self.holds


# Values of the innermost variable evaluated at once.  Above the square
# root of the ``assignments`` limit, so every check with two or more
# variables is one block.
BLOCK = 4_096


def _check_over(ops: _Ops, identity: Identity,
                window_verified: bool) -> CheckResult:
    """The ``assignments`` limit comes first, then each side compiles
    once, lhs first.

    Assignments run in ``itertools.product`` order, the last variable
    innermost.  Each subterm is evaluated at the loop level of its deepest
    variable other than the last, or once per check if it has none; one
    that uses the last variable is a list over a block of at most
    ``BLOCK`` elements, so each inner loop is one comparison of the two
    sides' lists a block.  When the elements fill more than one block,
    the blocks are one more loop level, innermost, and the subterms that
    use the last variable are evaluated once a block."""
    variables, elements = identity.variables(), ops.elements
    n, k = len(elements), len(variables)
    need("assignments", n ** k, n=n, k=k)
    last = max(k - 1, 0)
    # Without variables there is one assignment, the empty one.
    starts = range(0, n, BLOCK) if variables else range(1)
    blocked = len(starts) > 1
    slot = (last if blocked else -1, True, last)
    slots = {v: (d, False, d) for d, v in enumerate(variables[:last])}
    slots.update((v, slot) for v in variables[last:])
    inner = list(elements[:BLOCK]) if variables else [None]
    stager = _Stager(ops, slots, [None] * last + [inner], last + 1)
    lhs = stager.side(identity.lhs, slot)
    rhs = stager.side(identity.rhs, slot)
    vals, steps = stager.vals, stager.steps

    def counterexample(offset: int) -> CheckResult:
        """The first failure in the two sides' lists, whose first entry is
        assignment ``offset`` in product order, counting from 0."""
        left, right = vals[lhs], vals[rhs]
        j = next(j for j, (a, b) in enumerate(zip(left, right)) if a != b)
        return CheckResult(
            False, dict(zip(variables, vals[:last] + [vals[last][j]])),
            offset + j + 1, window_verified)

    def sweep(d: int, prefix: int) -> Optional[CheckResult]:
        """The first failure with the first d variables set, ``prefix``
        being the index of their values in product order."""
        if d == last:
            if not blocked:
                return (None if vals[lhs] == vals[rhs]
                        else counterexample(prefix * n))
            for start in starts:
                vals[d] = list(elements[start:start + BLOCK])
                for r, fn in steps[d]:
                    vals[r] = fn()
                if vals[lhs] != vals[rhs]:
                    return counterexample(prefix * n + start)
            return None
        for i, e in enumerate(elements):
            vals[d] = e
            for r, fn in steps[d]:
                vals[r] = fn()
            failure = sweep(d + 1, prefix * n + i)
            if failure is not None:
                return failure
        return None

    failure = sweep(0, 0)
    if failure is not None:
        return failure
    return CheckResult(True, None, n ** k, window_verified)


def check_identity_exhaustive(fs, identity: Identity) -> CheckResult:
    """All assignments over the whole structure, in element-index order, so
    the first counterexample is deterministic."""
    return _check_over(_read(fs), identity, False)


def check_identity_window(structure, identity: Identity) -> CheckResult:
    """Exhaustive over the structure's finite element window; the verdict
    is explicitly window-verified, standing in for the universal claim
    without certifying it.  The window has the same assignment budget as
    the exhaustive check."""
    return _check_over(_read(structure), identity, True)


# ---------------------------------------------------------------------------
# catalogue


_CATALOGUE_SOURCES = {
    "i-semigroup": ["x(yz) = (xy)z", "(x')' = x", "xx'x = x"],
    "cr": ["xx' = x'x"],
    "inverse": ["xx'yy' = yy'xx'"],
    "inverse-alt": ["(xy)' = y'x'", "xx'x'x = x'xxx'"],
    "si": ["xx'x'x = x'xxx'",
           "(xyx')(xyx')' = (xyx')'(xyx')",
           "x(yz)'w = xz'y'w",
           "(xy)' = (x'xy)'(xyy')'"],
    "rolstar": ["x(y^0z)^0x = xy^0x^0z^0x"],
    "c1": ["x = x^2"],
    "c2": ["x^2 = x^3"],
    "c3": ["x^3 = x^4"],
    "c4": ["x^4 = x^5"],
    "x2-in-g": ["x^2x^-2 = x^-2x^2"],
    "x3-in-g": ["x^3x^-3 = x^-3x^3"],
    "burnside-2-2": ["x^2 = x^4"],
    "burnside-3-1": ["x^3 = x^4"],
    "nil-2": ["x^2 = 0"],
    "nil-3": ["x^3 = 0"],
    "zero-mult": ["xy = 0"],
}


def catalogue_entry(key: str) -> list:
    """A catalogue entry, with parametric families c<m>, x<n>-in-g,
    burnside-<m>-<n> and nil-<n> accepted beyond the fixed keys.  Only
    the entry asked for is parsed."""
    key = key.lower()
    if key in _CATALOGUE_SOURCES:
        return [parse_identity(s) for s in _CATALOGUE_SOURCES[key]]
    if key.startswith("c") and key[1:].isdecimal():
        m = _count(key[1:])
        return [parse_identity(f"x^{m} = x^{m + 1}")]
    if key.startswith("x") and key.endswith("-in-g") and key[1:-5].isdecimal():
        n = _count(key[1:-5])
        return [parse_identity(f"x^{n}x^-{n} = x^-{n}x^{n}")]
    m, _, n = key.removeprefix("burnside-").partition("-")
    if key.startswith("burnside-") and m.isdecimal() and n.isdecimal():
        m, n = _count(m), _count(n)
        return [parse_identity(f"x^{m} = x^{m + n}")]
    if key.startswith("nil-") and key[4:].isdecimal():
        n = _count(key[4:])
        return [parse_identity(f"x^{n} = 0")]
    raise KeyError(f"no catalogue entry {key!r}")
