import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from greenbox import report
from greenbox.vmaps import (EMPTY, EMPTY_MAP, WHOLE_X, BruteMap, VMap, VSet,
                            compose, compose_all, generate_ball, identity_map,
                            idempotent_check, idempotent_formula, invert,
                            j_chain, phi, phi_psi_ball, power, psi, restrict,
                            translate, vset_contains,
                            vset_idempotent_witness)


def phi_ball(cap):
    f = phi()
    return generate_ball([f, invert(f)], cap)


def ball_idempotents(ball):
    return [m for m in ball.elements if idempotent_check(m)]


def fis_injectivity_check(bound):
    """Domains of the canonical idempotents are pairwise distinct for all
    (r, s) with 1 <= r + s <= bound."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    seen = set()
    count = 0
    for total in range(1, bound + 1):
        for r in range(total + 1):
            seen.add(idempotent_formula(r, total - r).domain)
            count += 1
    return len(seen) == count


def meet(u, v):
    """The V-set meet, read off the composite of two restricted identities."""
    return compose(VMap(u, (0, 0)), VMap(v, (0, 0))).domain


def points(region, xs=range(-15, 16), ys=range(0, 16)):
    return {(x, y) for x in xs for y in ys if vset_contains(region, x, y)}


# V-set algebra


def test_intersect_examples():
    assert meet(VSet(0, 0), VSet(0, 1)) == VSet(1, 1)
    assert meet(VSet(2, 0), WHOLE_X) == VSet(2, 0)
    assert meet(WHOLE_X, VSet(2, 0)) == VSet(2, 0)
    assert meet(VSet(2, 0), VSet(0, 0)) == VSet(2, 0)
    assert meet(VSet(2, 0), EMPTY) == EMPTY


def test_intersect_matches_pointwise():
    rng = random.Random(1)
    for _ in range(200):
        u = VSet(rng.randint(-6, 6), rng.randint(0, 6))
        v = VSet(rng.randint(-6, 6), rng.randint(0, 6))
        w = meet(u, v)
        assert points(w) == points(u) & points(v)


def test_translate_examples():
    assert translate(VSet(0, 1), (0, -1)) == VSet(0, 0)
    assert translate(VSet(3, 2), (0, 0)) == VSet(3, 2)
    assert translate(VSet(0, 0), (0, -2)) == VSet(2, 0)


def test_translate_matches_pointwise():
    rng = random.Random(2)
    for _ in range(200):
        u = VSet(rng.randint(-5, 5), rng.randint(0, 5))
        d = (rng.randint(-4, 4), rng.randint(-4, 4))
        w = translate(u, d)
        expected = {(x + d[0], y + d[1]) for x, y in points(u, range(-30, 31),
                                                           range(0, 31))
                    if y + d[1] >= 0}
        assert points(w, range(-20, 21), range(0, 21)) \
            == {p for p in expected if -20 <= p[0] <= 20 and p[1] <= 20}


def test_translate_whole_x():
    assert translate(WHOLE_X, (5, 0)) == WHOLE_X
    assert translate(WHOLE_X, (0, -3)) == WHOLE_X
    with pytest.raises(ValueError):
        translate(WHOLE_X, (0, 1))


def test_vmap_constructor_guards():
    with pytest.raises(ValueError):
        VMap(WHOLE_X, (0, -1))
    with pytest.raises(ValueError):
        VMap(VSet(0, 0), (0, -1))
    for make in (lambda: VSet(0, -1), lambda: j_chain(2, -1),
                 lambda: vset_idempotent_witness(0, -2)):
        with pytest.raises(ValueError, match=r"^s must be >= 0$"):
            make()


# composition


def test_phi_squared():
    p2 = power(phi(), 2)
    assert p2.domain == VSet(1, 0)
    assert p2.image() == VSet(1, 2)


def test_compose_with_identity():
    for f in (phi(), psi(), power(phi(), 3)):
        assert compose(f, identity_map()) == f
        assert compose(identity_map(), f) == f


def test_phi_powers():
    for n in range(1, 11):
        pn = power(phi(), n)
        assert pn.domain == VSet(n - 1, 0)
        assert pn.image() == VSet(n - 1, n)


def test_empty_propagates():
    assert compose(EMPTY_MAP, phi()) == EMPTY_MAP
    assert compose(phi(), EMPTY_MAP) == EMPTY_MAP
    assert invert(EMPTY_MAP) == EMPTY_MAP
    assert not idempotent_check(EMPTY_MAP)


# inversion


def test_invert_phi():
    assert invert(phi()).domain == VSet(0, 1)


def test_invert_involution():
    rng = random.Random(3)
    gens = [phi(), invert(phi()), psi(), invert(psi())]
    for _ in range(100):
        f = compose_all(rng.choices(gens, k=rng.randint(1, 6)))
        assert invert(invert(f)) == f


def test_phi_negative_then_positive_power():
    for n in range(1, 9):
        m = compose(power(phi(), -n), power(phi(), n))
        assert idempotent_check(m)
        assert m.domain == VSet(n - 1, n)


# idempotents


def test_idempotent_formula_small():
    m = idempotent_formula(1, 1)
    assert m.domain == VSet(1, 1)
    assert m.shift == (0, 0)


def test_idempotent_formula_grid():
    for r in range(9):
        for s in range(9):
            if r + s == 0:
                continue
            m = idempotent_formula(r, s)
            assert idempotent_check(m)
            assert m.domain == VSet(r + s - 1, r)


def test_idempotent_formula_rejects_zero_pair():
    with pytest.raises(ValueError):
        idempotent_formula(0, 0)


def test_vset_idempotent_witness_example():
    m = vset_idempotent_witness(-3, 2)
    assert m.domain == VSet(-3, 2)
    assert m.shift == (0, 0)


def test_vset_idempotent_witness_grid():
    for r in range(-8, 9):
        for s in range(9):
            m = vset_idempotent_witness(r, s)
            assert idempotent_check(m)
            assert m.domain == VSet(r, s)


# J-chains


def test_j_chain_origin():
    c = j_chain(0, 0)
    assert c.domain == VSet(0, 0)
    assert c.shift == (0, 0)


def test_j_chain_examples():
    for r, s in [(2, 3), (-5, 1), (4, 0), (0, 6)]:
        c = j_chain(r, s)
        assert c.domain == VSet(r, s)
        assert c.image() == VSet(0, 0)


def test_j_chain_restriction_is_noop_generically():
    for r, s in [(2, 3), (-1, 2), (0, 1)]:
        bare = compose_all([power(psi(), s - r - 1), power(phi(), -s),
                            power(psi(), 1 - s)])
        assert bare.domain == VSet(r, s)


# balls


def test_phi_ball_idempotent_domains():
    ball = phi_ball(6)
    for m in ball_idempotents(ball):
        dom = m.domain
        assert isinstance(dom, VSet)
        r, s = dom.s, dom.r - dom.s + 1      # invert (r+s-1, r) coordinates
        assert r >= 0 and s >= 0 and r + s >= 1


def test_phi_psi_ball_idempotent_domains():
    ball = phi_psi_ball(6)
    assert ball.elements
    for m in ball_idempotents(ball):
        assert m.domain == WHOLE_X or isinstance(m.domain, VSet)


def test_ball_closed_under_inversion():
    ball = phi_psi_ball(5)
    keys = {(m.domain, m.shift) for m in ball.elements}
    for m in ball.elements:
        mi = invert(m)
        assert (mi.domain, mi.shift) in keys


def test_ball_never_empty_map():
    ball = phi_psi_ball(6)
    assert all(not m.is_empty for m in ball.elements)


def test_monogenic_closure_smoke():
    # phi alone and phi with its inverse both generate infinite balls;
    # a restricted identity generates a singleton either way.
    assert not phi_ball(8).closed
    one_sided = generate_ball([phi()], 8)
    assert not one_sided.closed
    e = VMap(VSet(0, 0), (0, 0))
    assert generate_ball([e], 4).closed
    assert generate_ball([e, invert(e)], 4).closed


def test_idempotents_not_j_related_to_whole_x():
    # No ball element composes the restricted idempotent back to id on X.
    ball = phi_psi_ball(5)
    e = VMap(VSet(0, 0), (0, 0))
    for u in ball.elements:
        assert compose(u, e).domain != WHOLE_X
        assert compose(e, u).domain != WHOLE_X


def test_fis_injectivity():
    assert fis_injectivity_check(6)
    assert fis_injectivity_check(1)
    assert idempotent_formula(1, 0).domain != idempotent_formula(0, 1).domain


# sampling oracle


def test_symbolic_matches_brute_force():
    rng = random.Random(7)
    gens = [phi(), invert(phi()), psi(), invert(psi())]
    for _ in range(200):
        sym = identity_map()
        brute = BruteMap.from_vmap(sym)
        for _ in range(rng.randint(1, 8)):
            g = rng.choice(gens)
            sym = compose(sym, g)
            brute = brute.then(BruteMap.from_vmap(g))
        for _ in range(50):
            x, y = rng.randint(-20, 20), rng.randint(0, 20)
            assert sym.apply(x, y) == brute.apply(x, y)


def test_restrict():
    f = restrict(psi(), VSet(0, 0))
    assert f.domain == VSet(0, 0)
    assert f.shift == (1, 0)


# reference: the frozen-dataclass algebra and the nested-closure BruteMap
# that the validated tuples, the closed-form compose and the step chain
# replaced


@dataclass(frozen=True)
class RefVSet:
    r: int
    s: int

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("s must be >= 0")

    def contains(self, x, y):
        return self.s <= y <= x + self.s - self.r

    def __str__(self):
        return f"V({self.r},{self.s})"


def ref_v_intersect(u, v):
    if u == EMPTY or v == EMPTY:
        return EMPTY
    if u == WHOLE_X:
        return v
    if v == WHOLE_X:
        return u
    if u.s > v.s:
        u, v = v, u
    return RefVSet(max(u.r + v.s - u.s, v.r), v.s)


def ref_translate(u, by):
    dx, dy = by
    if u == EMPTY:
        return EMPTY
    if u == WHOLE_X:
        if dy <= 0:
            return WHOLE_X
        raise ValueError("translate of X upward leaves the V-set family")
    if u.s + dy >= 0:
        return RefVSet(u.r + dx, u.s + dy)
    return RefVSet(u.r + dx - (u.s + dy), 0)


@dataclass(frozen=True)
class RefVMap:
    domain: object
    shift: tuple

    def __post_init__(self):
        dx, dy = self.shift
        if self.domain == EMPTY:
            if self.shift != (0, 0):
                raise ValueError("the empty map carries the zero shift")
        elif self.domain == WHOLE_X:
            if dy != 0:
                raise ValueError("a map defined on all of X must keep y fixed")
        elif isinstance(self.domain, RefVSet):
            if self.domain.s + dy < 0:
                raise ValueError("image would leave X")
        else:
            raise ValueError(f"bad domain {self.domain!r}")

    @property
    def is_empty(self):
        return self.domain == EMPTY

    def image(self):
        if self.is_empty:
            return EMPTY
        return ref_translate(self.domain, self.shift)

    def __str__(self):
        if self.is_empty:
            return "empty"
        dom = "X" if self.domain == WHOLE_X else str(self.domain)
        return f"{dom} + ({self.shift[0]},{self.shift[1]})"


REF_EMPTY_MAP = RefVMap(EMPTY, (0, 0))


def ref_compose(f, g):
    if f.is_empty or g.is_empty:
        return REF_EMPTY_MAP
    meet = ref_v_intersect(f.image(), g.domain)
    if meet == EMPTY:
        return REF_EMPTY_MAP
    dom = ref_translate(meet, (-f.shift[0], -f.shift[1]))
    return RefVMap(dom, (f.shift[0] + g.shift[0], f.shift[1] + g.shift[1]))


class RefBruteMap:
    def __init__(self, defined, shift):
        self.defined = defined
        self.shift = shift

    @classmethod
    def from_vmap(cls, m):
        return cls(lambda x, y, d=m.domain: vset_contains(d, x, y), m.shift)

    def apply(self, x, y) -> Optional[tuple]:
        if y < 0 or not self.defined(x, y):
            return None
        return (x + self.shift[0], y + self.shift[1])

    def then(self, other):
        def defined(x, y):
            z = self.apply(x, y)
            return z is not None and other.apply(*z) is not None
        return RefBruteMap(defined, (self.shift[0] + other.shift[0],
                                     self.shift[1] + other.shift[1]))

    def inverse(self):
        dx, dy = self.shift

        def defined(x, y):
            return self.apply(x - dx, y - dy) is not None
        return RefBruteMap(defined, (-dx, -dy))

    def apply_all(self, points):
        return [self.apply(x, y) for x, y in points]


def build(kind, args):
    """The same map built twice: (validated tuple, reference dataclass)."""
    if kind == "vset":
        (r, s), shift = args
        return VMap(VSet(r, s), shift), RefVMap(RefVSet(r, s), shift)
    return VMap(kind, args), RefVMap(kind, args)


def valid_maps():
    vset = st.tuples(st.integers(-30, 30), st.integers(0, 30)).flatmap(
        lambda rs: st.tuples(st.just(rs), st.tuples(
            st.integers(-30, 30), st.integers(-rs[1], 30))))
    return st.one_of(
        st.tuples(st.just("vset"), vset),
        st.tuples(st.just(WHOLE_X),
                  st.tuples(st.integers(-30, 30), st.just(0))),
        st.just((EMPTY, (0, 0))))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)


def same_map(new, ref):
    return (str(new) == str(ref) and new.shift == ref.shift
            and str(new.domain) == str(ref.domain)
            and isinstance(new.domain, VSet) == isinstance(ref.domain, RefVSet))


@settings(max_examples=400, deadline=None)
@given(st.lists(valid_maps(), min_size=2, max_size=5))
def test_compose_matches_dataclass_reference(specs):
    pairs = [build(kind, args) for kind, args in specs]
    new, ref = pairs[0]
    for m, rm in pairs[1:]:
        got, want = outcome(compose, new, m), outcome(ref_compose, ref, rm)
        assert got[0] == want[0]
        if got[0] != "ok":
            assert got == want
            return
        new, ref = got[1], want[1]
        assert same_map(new, ref)
        assert str(new.image()) == str(ref.image())


def test_closed_form_compose_keeps_the_image_check():
    # Only an invalid operand, built past the constructor, can trip it.
    bad = tuple.__new__(VMap, (VSet(0, 0), (0, -1)))
    with pytest.raises(ValueError, match="image would leave X"):
        compose(bad, psi())


junk_domains = st.one_of(
    st.sampled_from([EMPTY, WHOLE_X, "Y", None, 5, (0, 0), ()]),
    st.tuples(st.just("vset"), st.tuples(st.integers(-5, 5),
                                         st.integers(-3, 5))))
junk_shifts = st.one_of(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.sampled_from([(1,), (0, 0, 0), [0, 0], None]))


@settings(max_examples=400, deadline=None)
@given(junk_domains, junk_shifts)
def test_constructor_refusals_match_dataclass_reference(domain, shift):
    if isinstance(domain, tuple) and domain[:1] == ("vset",):
        r, s = domain[1]
        got, want = outcome(VSet, r, s), outcome(RefVSet, r, s)
        assert got[0] == want[0]
        if got[0] != "ok":
            assert got == want
            return
        new_dom, ref_dom = got[1], want[1]
        assert (str(new_dom), repr(new_dom)) \
            == (str(ref_dom), repr(ref_dom).replace("RefVSet", "VSet"))
    else:
        new_dom = ref_dom = domain
    got, want = outcome(VMap, new_dom, shift), outcome(RefVMap, ref_dom, shift)
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got == want
    else:
        assert str(got[1]) == str(want[1])
        assert repr(got[1]) == repr(want[1]).replace("RefV", "V")


def test_validated_tuples_equal_plain_tuples():
    assert VSet(2, 3) == (2, 3) and hash(VSet(2, 3)) == hash((2, 3))
    assert phi() == (VSet(0, 0), (0, 1))
    assert repr(phi()) == "VMap(domain=VSet(r=0, s=0), shift=(0, 1))"
    with pytest.raises(ValueError, match="bad domain \\(0, 0\\)"):
        VMap((0, 0), (0, 0))


GENERATORS = [phi(), invert(phi()), psi(), invert(psi())]


def generator_words():
    maps = st.one_of(st.sampled_from(GENERATORS),
                     valid_maps().map(lambda spec: build(*spec)[0]))
    return st.lists(maps, min_size=1, max_size=8)


def brute_inverse(m):
    """A BruteMap chain walked backwards: each step checks the point it
    came from, which lies the step's shift behind."""
    return BruteMap((dom, ox - dx, oy - dy, -dx, -dy)
                    for dom, ox, oy, dx, dy in reversed(m))


def chains(word):
    new = ref = None
    for g in word:
        step, ref_step = BruteMap.from_vmap(g), RefBruteMap.from_vmap(g)
        new = step if new is None else new.then(step)
        ref = ref_step if ref is None else ref.then(ref_step)
    return new, ref


@settings(max_examples=300, deadline=None)
@given(generator_words(), generator_words(),
       st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 20)),
                min_size=1, max_size=20))
def test_brute_chain_matches_nested_closures(u, w, probes):
    (nu, ru), (nw, rw) = chains(u), chains(w)
    inv = brute_inverse
    pairs = [(nu, ru), (inv(nu), ru.inverse()),
             (nu.then(nw), ru.then(rw)),
             (nu.then(inv(nw)), ru.then(rw.inverse())),
             (inv(nu).then(nw), ru.inverse().then(rw)),
             (inv(inv(nu.then(nw))), ru.then(rw).inverse().inverse())]
    for x, y in probes:
        for new, ref in pairs:
            assert new.apply(x, y) == ref.apply(x, y)


def test_report_sampling_draws_the_same_stream(monkeypatch):
    # The report's sampling check walks the same random stream whichever
    # BruteMap it is given, so it probes the same points.
    states = []
    for brute in (BruteMap, RefBruteMap):
        rng = random.Random(0)
        monkeypatch.setattr("greenbox.vmaps.BruteMap", brute)
        monkeypatch.setattr(report, "random",
                            SimpleNamespace(Random=lambda seed: rng))
        assert report._vmaps_sampling_agrees(0)
        states.append(rng.getstate())
    assert states[0] == states[1]


def reference_vmaps_samples(seed):
    """The sampling check's draws as randint and choice made them."""
    rng = random.Random(seed)
    for _ in range(200):
        word = [rng.choice([0, 1, 2, 3]) for _ in range(rng.randint(1, 8))]
        points = [(rng.randint(-20, 20), rng.randint(0, 20))
                  for _ in range(50)]
        yield word, points


def test_report_samples_match_randint_and_choice_draws():
    for seed in range(20):
        assert (list(report._vmaps_samples(seed))
                == list(reference_vmaps_samples(seed)))


# powers by repeated squaring and point-list application, against the
# linear power and pointwise apply they replaced in the report


def linear_power(f, n):
    """f^n as |n| - 1 compositions."""
    if n == 0:
        return identity_map()
    base = f if n > 0 else invert(f)
    out = base
    for _ in range(abs(n) - 1):
        out = compose(out, base)
    return out


def brute_power(f, n):
    """f^n as a BruteMap chain of |n| steps."""
    step = BruteMap.from_vmap(f if n >= 0 else invert(f))
    chain = BruteMap.from_vmap(identity_map())
    for _ in range(abs(n)):
        chain = chain.then(step)
    return chain


any_maps = st.one_of(st.sampled_from(GENERATORS + [EMPTY_MAP]),
                     valid_maps().map(lambda spec: build(*spec)[0]))
probe_points = st.lists(st.tuples(st.integers(-25, 25), st.integers(-5, 25)),
                        max_size=30)


@settings(max_examples=400, deadline=None)
@given(any_maps, st.integers(-40, 40), probe_points)
def test_power_matches_linear_power_and_brute_chain(f, n, probes):
    got, want = power(f, n), linear_power(f, n)
    assert got == want and str(got) == str(want)
    assert type(got.domain) is type(want.domain)
    assert got.apply_all(probes) == brute_power(f, n).apply_all(probes)


def test_power_makes_logarithmically_many_compositions(monkeypatch):
    calls = []

    def counted(f, g):
        calls.append(1)
        return compose(f, g)

    monkeypatch.setattr("greenbox.vmaps.compose", counted)
    for n in (1, 2, 3, 1000, 2 ** 40 - 1, 10 ** 12):
        calls.clear()
        pn = power(phi(), n)
        assert (pn.domain, pn.image()) == (VSet(n - 1, 0), VSet(n - 1, n))
        assert len(calls) <= 2 * n.bit_length()
        calls.clear()
        assert power(phi(), -n) == invert(pn)
        assert len(calls) <= 2 * n.bit_length()
    calls.clear()
    assert power(psi(), 10 ** 12) == VMap(WHOLE_X, (10 ** 12, 0))
    assert calls == []


@settings(max_examples=400, deadline=None)
@given(generator_words(), probe_points)
def test_point_list_application_matches_pointwise(word, probes):
    sym = compose_all(word)
    new, ref = chains(word)
    for m in (sym, new, ref, brute_inverse(new), ref.inverse()):
        assert m.apply_all(probes) == [m.apply(x, y) for x, y in probes]


def test_point_list_application_edge_maps():
    probes = [(0, 0), (3, -1), (-4, 2), (5, 5), (0, -7)]
    for m in (EMPTY_MAP, identity_map(), psi(), invert(psi()), phi(),
              VMap(VSet(-3, 2), (4, -2))):
        for brute in (BruteMap.from_vmap(m), RefBruteMap.from_vmap(m)):
            assert (brute.apply_all(probes) == m.apply_all(probes)
                    == [m.apply(x, y) for x, y in probes])
    assert EMPTY_MAP.apply_all(probes) == [None] * 5
    assert identity_map().apply_all(probes) == [
        (0, 0), None, (-4, 2), (5, 5), None]
    assert BruteMap.from_vmap(EMPTY_MAP).apply_all([]) == []
    # A step whose check looks below its point still keeps y < 0 off X.
    below = BruteMap(((WHOLE_X, 0, 1, 0, 0),))
    assert below.apply_all(probes) == [below.apply(x, y) for x, y in probes]
