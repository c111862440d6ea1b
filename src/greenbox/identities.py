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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .engine import FiniteSemigroup


class Term:
    def variables(self) -> set:
        raise NotImplementedError

    def uses_unary(self) -> bool:
        raise NotImplementedError

    def uses_idempotent_power(self) -> bool:
        raise NotImplementedError

    def uses_zero(self) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class Var(Term):
    name: str

    def variables(self):
        return {self.name}

    def uses_unary(self):
        return False

    def uses_idempotent_power(self):
        return False

    def uses_zero(self):
        return False

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Mul(Term):
    left: Term
    right: Term

    def variables(self):
        return self.left.variables() | self.right.variables()

    def uses_unary(self):
        return self.left.uses_unary() or self.right.uses_unary()

    def uses_idempotent_power(self):
        return (self.left.uses_idempotent_power()
                or self.right.uses_idempotent_power())

    def uses_zero(self):
        return self.left.uses_zero() or self.right.uses_zero()

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

    def variables(self):
        return self.arg.variables()

    def uses_unary(self):
        return True

    def uses_idempotent_power(self):
        return self.arg.uses_idempotent_power()

    def uses_zero(self):
        return self.arg.uses_zero()

    def __str__(self):
        s = str(self.arg)
        return f"({s})'" if isinstance(self.arg, Mul) else f"{s}'"


@dataclass(frozen=True)
class IdPow(Term):
    """x^0, the idempotent of the H-class of x (completely regular only)."""

    arg: Term

    def variables(self):
        return self.arg.variables()

    def uses_unary(self):
        return True

    def uses_idempotent_power(self):
        return True

    def uses_zero(self):
        return self.arg.uses_zero()

    def __str__(self):
        s = str(self.arg)
        return f"({s})^0" if isinstance(self.arg, Mul) else f"{s}^0"


@dataclass(frozen=True)
class ZeroC(Term):
    def variables(self):
        return set()

    def uses_unary(self):
        return False

    def uses_idempotent_power(self):
        return False

    def uses_zero(self):
        return True

    def __str__(self):
        return "0"


@dataclass(frozen=True)
class Identity:
    lhs: Term
    rhs: Term
    name: Optional[str] = None

    def variables(self) -> list:
        return sorted(self.lhs.variables() | self.rhs.variables())

    def uses_unary(self) -> bool:
        return self.lhs.uses_unary() or self.rhs.uses_unary()

    def uses_idempotent_power(self) -> bool:
        return (self.lhs.uses_idempotent_power()
                or self.rhs.uses_idempotent_power())

    def uses_zero(self) -> bool:
        return self.lhs.uses_zero() or self.rhs.uses_zero()

    def __str__(self):
        return f"{self.lhs} = {self.rhs}"


# ---------------------------------------------------------------------------
# parsing


MAX_TERM_SIZE = 256


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.open = 0           # parenthesised groups entered, not yet left

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

    def check_size(self, size: int) -> int:
        if size > MAX_TERM_SIZE:
            self.error(f"term exceeds {MAX_TERM_SIZE} nodes")
        return size


def parse_term(text: str) -> Term:
    """Parse one term of at most MAX_TERM_SIZE nodes: variables, constants,
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
        size = sc.check_size(size + factor_size + 1)
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
        sc.check_size(sc.open)
        inner, size = _parse_seq(sc)
        if sc.peek() != ")":
            sc.error("expected ')'")
        sc.take()
        sc.open -= 1
        atom, size = inner, sc.check_size(size + 1)
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
    # Postfixes bind tighter than juxtaposition and may stack.
    while True:
        nxt = sc.text[sc.pos] if sc.pos < len(sc.text) else ""
        if nxt == "'":
            sc.pos += 1
            atom, size = Inv(atom), sc.check_size(size + 1)
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
            k = int(digits)
            if k == 0 and sign == 1:
                atom, size = IdPow(atom), sc.check_size(size + 1)
            else:
                base, base_size = ((atom, size) if sign == 1
                                   else (Inv(atom), size + 1))
                copies = max(k, 1)
                # The copies of the base, joined by copies - 1 products.
                size = sc.check_size(copies * (base_size + 1) - 1)
                out = base
                for _ in range(copies - 1):
                    out = Mul(out, base)
                atom = out
            continue
        break
    return atom, size


def parse_identity(text: str, name: Optional[str] = None) -> Identity:
    if text.count("=") != 1:
        raise ValueError("an identity has exactly one '='")
    lhs, rhs = text.split("=")
    return Identity(parse_term(lhs), parse_term(rhs), name)


# ---------------------------------------------------------------------------
# evaluation


class TableStructure:
    """Adapter presenting a FiniteSemigroup to the term evaluator."""

    def __init__(self, fs: FiniteSemigroup):
        self.fs = fs
        self.elements = list(range(len(fs)))
        self.completely_regular = fs.is_completely_regular()
        self.zero_element = fs.zero

    def mult(self, a, b):
        return self.fs.table[a][b]

    def unary(self, a):
        if self.fs.unary is None:
            raise ValueError("structure has no unary operation")
        return self.fs.unary[a]


def as_structure(obj):
    if isinstance(obj, FiniteSemigroup):
        return TableStructure(obj)
    return obj


def _has_unary(structure) -> bool:
    if isinstance(structure, TableStructure):
        return structure.fs.unary is not None
    return getattr(structure, "unary", None) is not None


def eval_term(structure, term: Term, assignment: dict):
    """Structural recursion; concatenation associates to the left."""
    structure = as_structure(structure)
    if isinstance(term, Var):
        return assignment[term.name]
    if isinstance(term, Mul):
        return structure.mult(eval_term(structure, term.left, assignment),
                              eval_term(structure, term.right, assignment))
    if isinstance(term, Inv):
        if not _has_unary(structure):
            raise ValueError(f"term {term} needs a unary operation")
        return structure.unary(eval_term(structure, term.arg, assignment))
    if isinstance(term, IdPow):
        if not getattr(structure, "completely_regular", False):
            raise ValueError(
                "x^0 is only meaningful on completely regular structures")
        x = eval_term(structure, term.arg, assignment)
        return structure.mult(x, structure.unary(x))
    if isinstance(term, ZeroC):
        zero = getattr(structure, "zero_element", None)
        if zero is None:
            raise ValueError("zero constant needs a structure with a zero")
        return zero
    raise TypeError(f"not a term: {term!r}")


@dataclass
class CheckResult:
    identity: Identity
    holds: bool
    counterexample: Optional[dict]
    checked: int
    window_verified: bool = False

    def __bool__(self) -> bool:
        return self.holds


MAX_EVALUATIONS = 10_000_000


def _check_over(structure, identity: Identity, elements, window_verified: bool,
                max_evaluations: int = MAX_EVALUATIONS) -> CheckResult:
    structure = as_structure(structure)
    variables = identity.variables()
    n, k = len(elements), len(variables)
    if n ** k > max_evaluations:
        raise ValueError(
            f"{n}^{k} assignments exceed the budget of {max_evaluations}")
    checked = 0
    for combo in itertools.product(elements, repeat=k):
        assignment = dict(zip(variables, combo))
        checked += 1
        if (eval_term(structure, identity.lhs, assignment)
                != eval_term(structure, identity.rhs, assignment)):
            return CheckResult(identity, False, assignment, checked,
                               window_verified)
    return CheckResult(identity, True, None, checked, window_verified)


def check_identity_exhaustive(fs, identity: Identity, *,
                              max_evaluations: int = MAX_EVALUATIONS) -> CheckResult:
    """All assignments over the whole structure, in element-index order, so
    the first counterexample is deterministic."""
    structure = as_structure(fs)
    return _check_over(structure, identity, structure.elements, False,
                       max_evaluations)


def check_identity_window(structure, identity: Identity,
                          window) -> CheckResult:
    """Exhaustive over a finite element window; the verdict is explicitly
    window-verified, standing in for the universal claim without certifying
    it.  The window has the same assignment budget as the exhaustive check."""
    return _check_over(structure, identity, list(window), True)


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


def catalogue() -> dict:
    """Named identity lists keyed by variety name; every entry parses."""
    return {key: [parse_identity(s, name=f"{key}[{i}]")
                  for i, s in enumerate(sources)]
            for key, sources in _CATALOGUE_SOURCES.items()}


def catalogue_entry(key: str) -> list:
    """A catalogue entry, with parametric families c<m>, x<n>-in-g,
    burnside-<m>-<n> and nil-<n> accepted beyond the fixed keys."""
    key = key.lower()
    cat = catalogue()
    if key in cat:
        return cat[key]
    if key.startswith("c") and key[1:].isdigit():
        m = int(key[1:])
        return [parse_identity(f"x^{m} = x^{m + 1}", name=key)]
    if key.startswith("x") and key.endswith("-in-g") and key[1:-5].isdigit():
        n = int(key[1:-5])
        return [parse_identity(f"x^{n}x^-{n} = x^-{n}x^{n}", name=key)]
    if key.startswith("burnside-"):
        m, n = (int(x) for x in key[len("burnside-"):].split("-"))
        return [parse_identity(f"x^{m} = x^{m + n}", name=key)]
    if key.startswith("nil-") and key[4:].isdigit():
        n = int(key[4:])
        return [parse_identity(f"x^{n} = 0", name=key)]
    raise KeyError(f"no catalogue entry {key!r}")


@dataclass
class ClassifyEntry:
    key: str
    status: str                 # holds, fails, skipped
    counterexample: Optional[dict] = None
    reason: Optional[str] = None


def classify(fs, *, max_evaluations: int = MAX_EVALUATIONS) -> list:
    """Run every applicable catalogue entry against the structure."""
    structure = as_structure(fs)
    has_unary = _has_unary(structure)
    cr = getattr(structure, "completely_regular", False)
    has_zero = getattr(structure, "zero_element", None) is not None
    report = []
    for key, ids in catalogue().items():
        needs_unary = any(i.uses_unary() for i in ids)
        needs_cr = any(i.uses_idempotent_power() for i in ids)
        needs_zero = any(i.uses_zero() for i in ids)
        if needs_unary and not has_unary:
            report.append(ClassifyEntry(key, "skipped",
                                        reason="no unary operation"))
            continue
        if needs_cr and not cr:
            report.append(ClassifyEntry(key, "skipped",
                                        reason="not completely regular"))
            continue
        if needs_zero and not has_zero:
            report.append(ClassifyEntry(key, "skipped",
                                        reason="no zero element"))
            continue
        failed = None
        for ident in ids:
            result = check_identity_exhaustive(
                structure, ident, max_evaluations=max_evaluations)
            if not result.holds:
                failed = result
                break
        if failed is None:
            report.append(ClassifyEntry(key, "holds"))
        else:
            report.append(ClassifyEntry(key, "fails",
                                        counterexample=failed.counterexample))
    return report
