"""Exact symbolic algebra of partial bijections on X = Z x N0.

The carrier sets are X itself and the staircase regions
V(r, s) = {(x, y) : s <= y <= x + s - r}.  This family, with X adjoined, is
closed under intersection and under translation clipped to X, so the maps
generated by the unit up-shift on V(0,0) and the unit right-shift on X stay
representable as (domain, shift) pairs and compose in constant time.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .engine import Oracle, ball_enumerate
from .limits import LIMITS, at_least

WHOLE_X = "X"
EMPTY = "empty"


class VSet(namedtuple("VSet", "r s")):
    """V(r, s); s >= 0.  Every V-set contains its corner (r, s).

    A validated tuple, so it equals the plain tuple (r, s)."""

    __slots__ = ()

    def __new__(cls, r: int, s: int):
        at_least("s", s, 0)
        return tuple.__new__(cls, (r, s))

    def contains(self, x: int, y: int) -> bool:
        return self.s <= y <= x + self.s - self.r

    def __str__(self) -> str:
        return f"V({self.r},{self.s})"


def vset_contains(dom, x: int, y: int) -> bool:
    if dom == WHOLE_X:
        return y >= 0
    if dom == EMPTY:
        return False
    return dom.contains(x, y)


def translate(u, by: tuple):
    """Exact image of the set under the shift, intersected with X."""
    dx, dy = by
    if u == EMPTY:
        return EMPTY
    if u == WHOLE_X:
        if dy <= 0:
            return WHOLE_X
        # Z x [dy, inf) has no diagonal bound and is not representable.
        raise ValueError("translate of X upward leaves the V-set family")
    if u.s + dy >= 0:
        return VSet(u.r + dx, u.s + dy)
    # Bottom rows fall below y = 0: clip back to height 0.
    return VSet(u.r + dx - (u.s + dy), 0)


class VMap(namedtuple("VMap", "domain shift")):
    """Partial bijection given by a translation restricted to a domain.

    The image, domain translated by the shift, must lie within X: a V(r,s)
    domain needs s + dy >= 0 and a WholeX domain needs dy = 0.  The empty
    map is the reserved (EMPTY, (0,0)) value.
    """

    __slots__ = ()

    def __new__(cls, domain, shift: tuple):
        dx, dy = shift
        if domain == EMPTY:
            if shift != (0, 0):
                raise ValueError("the empty map carries the zero shift")
        elif domain == WHOLE_X:
            if dy != 0:
                raise ValueError("a map defined on all of X must keep y fixed")
        elif isinstance(domain, VSet):
            if domain.s + dy < 0:
                raise ValueError("image would leave X")
        else:
            raise ValueError(f"bad domain {domain!r}")
        return tuple.__new__(cls, (domain, shift))

    @property
    def is_empty(self) -> bool:
        return self.domain == EMPTY

    def image(self):
        if self.is_empty:
            return EMPTY
        return translate(self.domain, self.shift)

    def apply(self, x: int, y: int) -> Optional[tuple]:
        if not vset_contains(self.domain, x, y):
            return None
        return (x + self.shift[0], y + self.shift[1])

    def __str__(self) -> str:
        if self.is_empty:
            return "empty"
        dom = "X" if self.domain == WHOLE_X else str(self.domain)
        return f"{dom} + ({self.shift[0]},{self.shift[1]})"


EMPTY_MAP = VMap(EMPTY, (0, 0))


def phi() -> VMap:
    """Unit up-shift defined on V(0,0)."""
    return VMap(VSet(0, 0), (0, 1))


def psi() -> VMap:
    """Unit right-shift defined on all of X."""
    return VMap(WHOLE_X, (1, 0))


def identity_map() -> VMap:
    return VMap(WHOLE_X, (0, 0))


def compose(f: VMap, g: VMap) -> VMap:
    """f then g: the domain is the f-preimage of im(f) meet dom(g).

    In closed form on valid maps: im(f) = dom(f) + f.shift stays in X, a
    V-set meet takes the higher bottom row and the larger corner at that
    height, and the pull-back by f.shift never needs clipping."""
    fd, (fdx, fdy) = f
    gd, (gdx, gdy) = g
    if fd == EMPTY or gd == EMPTY:
        return EMPTY_MAP
    shift = (fdx + gdx, fdy + gdy)
    if gd == WHOLE_X:
        if fd == WHOLE_X:
            return tuple.__new__(VMap, (WHOLE_X, shift))
        r, s = fd
    elif fd == WHOLE_X:
        r, s = gd[0] - fdx, gd[1]
    else:
        ir, is_ = fd[0] + fdx, fd[1] + fdy
        gr, gs = gd
        top = is_ if is_ > gs else gs
        r = max(ir + top - is_, gr + top - gs) - fdx
        s = top - fdy
    if s + shift[1] < 0:
        raise ValueError("image would leave X")
    return tuple.__new__(VMap, (tuple.__new__(VSet, (r, s)), shift))


def compose_all(maps: Iterable[VMap]) -> VMap:
    out = identity_map()
    for m in maps:
        out = compose(out, m)
    return out


def invert(f: VMap) -> VMap:
    if f.is_empty:
        return EMPTY_MAP
    return VMap(f.image(), (-f.shift[0], -f.shift[1]))


def power(f: VMap, n: int) -> VMap:
    """f^n; negative exponents invert first, f^0 is the identity on X."""
    if n == 0:
        return identity_map()
    base = f if n > 0 else invert(f)
    out = base
    for _ in range(abs(n) - 1):
        out = compose(out, base)
    return out


def restrict(f: VMap, dom) -> VMap:
    return compose(VMap(dom, (0, 0)), f)


def idempotent_check(f: VMap) -> bool:
    return not f.is_empty and f.shift == (0, 0)


def idempotent_formula(r: int, s: int) -> VMap:
    """phi^-r phi^(r+s) phi^-s, the canonical idempotent of the monogenic
    part; equals the identity on V(r+s-1, r)."""
    if r < 0 or s < 0 or r + s < 1:
        raise ValueError("need r, s >= 0, not both 0")
    return compose_all([power(phi(), -r), power(phi(), r + s),
                        power(phi(), -s)])


def vset_idempotent_witness(r: int, s: int) -> VMap:
    """A product of generators equal to the identity on V(r, s).

    For s >= 1 this is psi^(s-r-1) phi^-s phi^s psi^(-s+r+1).  At s = 0
    that chain degenerates to the identity on all of X, so the conjugate
    psi^-r (phi phi^-1) psi^r is used instead.
    """
    at_least("s", s, 0)
    if s == 0:
        return compose_all([power(psi(), -r), phi(), invert(phi()),
                            power(psi(), r)])
    return compose_all([power(psi(), s - r - 1), power(phi(), -s),
                        power(phi(), s), power(psi(), -s + r + 1)])


def j_chain(r: int, s: int) -> VMap:
    """The route V(r,s) -> V(s-1,s) -> V(s-1,0) -> V(0,0) by psi and phi
    powers, restricted to V(r,s).

    The restriction matters only in degenerate cases (s = 0, where the bare
    chain is a global shift); elsewhere the chain's domain is already
    exactly V(r, s).  The result is a total bijection onto V(0, 0).
    """
    at_least("s", s, 0)
    chain = compose_all([power(psi(), s - r - 1), power(phi(), -s),
                         power(psi(), 1 - s)])
    return restrict(chain, VSet(r, s))


# ---------------------------------------------------------------------------
# balls of the generated inverse semigroups


@dataclass
class VBall:
    generators: list           # (name, VMap) pairs
    cap: int
    maps: list                 # distinct VMaps in discovery order
    words: list                # witness: tuple of generator positions
    closed: bool

    def idempotents(self) -> list:
        return [m for m in self.maps if idempotent_check(m)]

    def witness(self, i: int) -> str:
        return " ".join(self.generators[k][0] for k in self.words[i])


def generate_ball(generators: Sequence, cap: int) -> VBall:
    """All distinct maps expressible as products of at most cap generators.

    Generators are (name, VMap) pairs; include inverses explicitly to build
    balls of inverse subsemigroups.  Distinctness is by (domain, shift).
    The ball is ``engine.ball_enumerate`` under composition.
    """
    most = LIMITS["vmap_word_length"]
    if cap < 1 or cap > most:
        raise ValueError(f"word length cap must be between 1 and {most}")
    gens = list(generators)
    ball = ball_enumerate(Oracle(compose), [g for _, g in gens], cap)
    return VBall(gens, cap, ball.elements, ball.words, ball.closed)


def phi_psi_ball(cap: int) -> VBall:
    f, p = phi(), psi()
    return generate_ball([("f", f), ("f'", invert(f)),
                          ("p", p), ("p'", invert(p))], cap)


# ---------------------------------------------------------------------------
# brute-force partial-function model (the sampling oracle)


class BruteMap(tuple):
    """Exact pointwise model, used to validate the symbolic algebra: a
    chain of steps (dom, ox, oy, dx, dy), each taking a point (x, y) with
    (x + ox, y + oy) in dom to (x + dx, y + dy).  ``apply`` walks the chain
    point by point; nothing is composed symbolically."""

    __slots__ = ()

    @classmethod
    def from_vmap(cls, m: VMap) -> "BruteMap":
        return cls(((m.domain, 0, 0, *m.shift),))

    def apply(self, x: int, y: int) -> Optional[tuple]:
        if y < 0:
            return None
        for dom, ox, oy, dx, dy in self:
            if not vset_contains(dom, x + ox, y + oy):
                return None
            x += dx
            y += dy
        return (x, y)

    def then(self, other: "BruteMap") -> "BruteMap":
        return BruteMap(self + other)

    def inverse(self) -> "BruteMap":
        """The chain walked backwards: each step checks the point it came
        from, which lies the step's shift behind."""
        return BruteMap((dom, ox - dx, oy - dy, -dx, -dy)
                        for dom, ox, oy, dx, dy in reversed(self))
