import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import floor, isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csmod.errors import DomainError, ResourceCapError
from csmod.modlat import (Ambient, hnf_canonical, im_project, index_K,
                          intersect, scalar_intersect, scale_module)
import csmod.orders
import wholeorder
from csmod.orders import (DEFAULT_ENUM_CAP, ORDER_KEYS, QuatOrder, _ldl,
                          _solve_quadratic, hurwitz, icosian, lipschitz,
                          octahedral, order_by_key)
from csmod.quat import Quat, parse_quat
from csmod.rings import (FieldElem, FieldTag, RingElem, factor,
                         norm_class_reps, ring_gcd)
from modulesum import module_sum
from wholeorder import WholeOrderSearch

Q = FieldTag.RATIONAL
R5 = FieldTag.ROOT_FIVE
R2 = FieldTag.ROOT_TWO

HALF = Fraction(1, 2)


def fe(tag, a, b=0):
    return FieldElem(tag, Fraction(a), Fraction(b))


def maximal_orders():
    return [hurwitz(), icosian(), octahedral()]


@lru_cache(maxsize=None)
def icosian_conj():
    """The icosian order with every coordinate conjugated: a second maximal
    order over Q(sqrt 5), which no command uses."""
    base = icosian()
    basis = [Quat(base.field_tag, *(c.conj() for c in b.coords()))
             for b in base.basis]
    return QuatOrder("icosian-conj", base.field_tag, basis, maximal=True)


@lru_cache(maxsize=None)
def search_of(order):
    """The whole-order search of an order (tests/wholeorder.py)."""
    return WholeOrderSearch(order)


def all_orders():
    return maximal_orders() + [lipschitz(t) for t in (Q, R5, R2)]


def rnd_element(order, rng, span=3):
    while True:
        q = Quat.zero(order.field_tag)
        for b in order.basis:
            q = q + b * rng.randint(-span, span)
        if not q.is_zero():
            return q


# -- unit groups -----------------------------------------------------
#
# Independent oracle: close a small seed set under quaternion
# multiplication.  The closure is the generated subgroup, computed with
# nothing but Quat arithmetic, so comparing it against the norm-one units
# of the whole-order search checks both the count and the membership of
# every unit.


def closure_under_mult(seeds, bound=200):
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        fresh = []
        for a in frontier:
            for b in tuple(seen):
                for p in (a * b, b * a):
                    if p not in seen:
                        seen.add(p)
                        fresh.append(p)
        assert len(seen) <= bound, "closure exceeded the expected group size"
        frontier = fresh
    return seen


def unit_seeds(order):
    if order.name == "hurwitz":
        return [order.basis[1], order.basis[2], order.basis[3]]
    if order.name == "icosian":
        return [order.basis[1], order.basis[2], order.basis[3]]
    if order.name == "octahedral":
        return [order.basis[1], order.basis[2], order.basis[3]]
    raise AssertionError(order.name)


@pytest.mark.parametrize("factory,size", [
    (hurwitz, 24), (icosian, 120), (octahedral, 48),
])
def test_norm_one_units_match_group_closure(factory, size):
    order = factory()
    group = closure_under_mult(unit_seeds(order))
    for g in group:
        assert order.contains(g)
        assert g.nr() == FieldElem(order.field_tag, 1)
    assert len(group) == size
    assert set(search_of(order).norm_one_units()) == group


@pytest.mark.parametrize("tag", [Q, R5, R2])
def test_lipschitz_norm_one_units(tag):
    order = lipschitz(tag)
    expect = set()
    for u in (Quat.one(tag), Quat.i(tag), Quat.j(tag), Quat.k(tag)):
        expect.add(u)
        expect.add(-u)
    assert set(search_of(order).norm_one_units()) == expect


# -- membership, content, units, reducedness -------------------------


def test_membership_examples():
    J = hurwitz()
    assert J.contains(Quat(Q, HALF, HALF, HALF, HALF))
    assert not J.contains(Quat(Q, HALF, HALF))
    K = octahedral()
    halfw = fe(R2, 0, HALF)
    assert K.contains(Quat(R2, halfw, halfw))
    assert not K.contains(Quat(R2, HALF, HALF))
    I = icosian()
    assert I.contains(Quat(R5, HALF, HALF, HALF, HALF))
    assert I.contains(Quat(R5, fe(R5, HALF, -HALF), fe(R5, 0, HALF), 0, HALF))


def test_content_examples():
    J = hurwitz()
    assert J.content(Quat(Q, 1, 1, 1, 1)) == RingElem(Q, 2)
    assert J.content(Quat(Q, 2, 1)) == RingElem(Q, 1)
    assert J.content(Quat(Q, 2, 2, 2, 2)) == RingElem(Q, 4)
    L = lipschitz(Q)
    assert L.content(Quat(Q, 2, 4, 6, 8)) == RingElem(Q, 2)
    I = icosian()
    assert I.content(Quat(R5, 3, 3)) == RingElem(R5, 3)


def test_content_detects_scalar_root_two_factor():
    # 1+i = sqrt(2) * (1+i)/sqrt(2), so its content is a non-unit scalar
    K = octahedral()
    assert K.content(Quat(R2, 1, 1)) == RingElem(R2, 2, 1)


def test_content_error_paths():
    J = hurwitz()
    with pytest.raises(DomainError):
        J.content(Quat.zero(Q))
    with pytest.raises(DomainError):
        J.content(Quat(Q, HALF, HALF))
    with pytest.raises(DomainError):
        J.content(Quat.one(R5))


def test_is_unit_examples():
    J = hurwitz()
    assert J.is_unit(Quat(Q, HALF, HALF, HALF, HALF))
    assert not J.is_unit(Quat(Q, 1, 1))
    I = icosian()
    assert I.is_unit(Quat(R5, fe(R5, HALF, -HALF), fe(R5, 0, HALF), 0, HALF))
    K = octahedral()
    halfw = fe(R2, 0, HALF)
    assert K.is_unit(Quat(R2, halfw, halfw))
    with pytest.raises(DomainError):
        J.is_unit(Quat(Q, HALF, HALF))


def test_is_reduced_examples():
    J = hurwitz()
    assert J.is_reduced(Quat(Q, HALF, HALF, HALF, HALF))
    assert J.is_reduced(Quat(Q, 1, 1, 1))
    assert not J.is_reduced(Quat(Q, 1, 1))          # even norm
    assert not J.is_reduced(Quat(Q, 2, 2))          # non-unit content
    assert icosian().is_reduced(Quat(R5, 1, 1))     # primitive is enough here
    assert not octahedral().is_reduced(Quat(R2, 1, 1))


def test_is_reduced_rejects_nonmaximal_and_bad_input():
    with pytest.raises(DomainError):
        lipschitz(Q).is_reduced(Quat.one(Q))
    J = hurwitz()
    with pytest.raises(DomainError):
        J.is_reduced(Quat.zero(Q))
    with pytest.raises(DomainError):
        J.is_reduced(Quat(Q, HALF, HALF))


def test_reduce_generator_examples():
    J = hurwitz()
    out = J.reduce_generator(Quat(Q, 2, 2, 2, 2))
    assert J.is_unit(out)
    assert J.reduce_generator(Quat(Q, 1, 1)) == Quat.one(Q)
    I = icosian()
    assert I.reduce_generator(Quat(R5, 3, 3)) == Quat(R5, 1, 1)
    K = octahedral()
    assert K.is_unit(K.reduce_generator(Quat(R2, 1, 1)))


@pytest.mark.parametrize("factory", [hurwitz, icosian, octahedral])
def test_reduce_generator_output_is_reduced(factory):
    order = factory()
    rng = random.Random(11)
    for _ in range(15):
        q = rnd_element(order, rng)
        out = order.reduce_generator(q)
        assert order.is_reduced(out)


def test_reduce_generator_preserves_conjugated_order():
    # dividing by content or by the even-norm two-sided factor keeps
    # q O q^-1 fixed, so both sides define the same intersection
    J = hurwitz()
    rng = random.Random(5)
    for _ in range(10):
        q = rnd_element(J, rng)
        out = J.reduce_generator(q)
        assert J.conjugated_order_module(q) == J.conjugated_order_module(out)


# -- enumeration ------------------------------------------------------


@pytest.mark.parametrize("factory", [hurwitz, icosian, octahedral])
def test_enumerate_norm_one_is_single_trivial_ideal(factory):
    order = factory()
    reps = order.enumerate_by_index(1)
    assert len(reps) == 1
    assert order.is_unit(reps[0])
    assert order.right_ideal(reps[0]) == order.module


def test_enumerate_even_norm_empty_for_rational_order():
    J = hurwitz()
    for m in (2, 4, 6, 10):
        assert J.enumerate_by_index(m) == []


def test_enumerate_small_counts():
    assert len(hurwitz().enumerate_by_index(3)) == 4
    assert len(hurwitz().enumerate_by_index(5)) == 6
    assert len(hurwitz().enumerate_by_index(7)) == 8
    assert len(icosian().enumerate_by_index(4)) == 5
    assert len(octahedral().enumerate_by_index(2)) == 3


def test_enumerate_norm_three_partitions_all_elements():
    # every norm-3 element of the half-integer order, by direct loops
    brute = []
    for a in range(-1, 2):
        for b in range(-1, 2):
            for c in range(-1, 2):
                for d in range(-1, 2):
                    if a * a + b * b + c * c + d * d == 3:
                        brute.append(Quat(Q, a, b, c, d))
    for a in range(-3, 4, 2):
        for b in range(-3, 4, 2):
            for c in range(-3, 4, 2):
                for d in range(-3, 4, 2):
                    if a * a + b * b + c * c + d * d == 12:
                        brute.append(Quat(
                            Q, Fraction(a, 2), Fraction(b, 2),
                            Fraction(c, 2), Fraction(d, 2)))
    assert len(brute) == 96

    J = hurwitz()
    reps = J.enumerate_by_index(3)
    ideals = {J.right_ideal(q) for q in reps}
    assert len(ideals) == len(reps) == 4
    # 96 = 4 ideals, each hit by generator * unit for the 24 units
    units = search_of(J).norm_one_units()
    assert len(brute) == len(reps) * len(units)
    for x in brute:
        assert J.right_ideal(x) in ideals
    for q in reps:
        for u in units:
            assert J.right_ideal(q * u) == J.right_ideal(q)


def test_enumerate_representatives_are_reduced():
    for order, m in ((hurwitz(), 9), (icosian(), 4), (octahedral(), 8)):
        reps = order.enumerate_by_index(m)
        assert reps
        for q in reps:
            assert order.is_reduced(q)
            assert q.nr().to_ring().norm_abs() == m


def test_enumerate_caps_and_errors():
    J = hurwitz()
    with pytest.raises(DomainError):
        J.enumerate_by_index(0)
    with pytest.raises(ResourceCapError):
        J.enumerate_by_index(DEFAULT_ENUM_CAP + 1)
    with pytest.raises(ResourceCapError):
        J.enumerate_by_index(7, cap=5)
    with pytest.raises(DomainError):
        lipschitz(Q).enumerate_by_index(3)


@pytest.mark.parametrize("key,lo,hi,cap,error", [
    ("hurwitz", 5, 4, None, None),              # an empty range passes
    ("hurwitz", -2, -5, None, None),
    ("hurwitz", 1, DEFAULT_ENUM_CAP, None, None),
    ("hurwitz", 5, 5, 5, None),
    ("hurwitz", 0, 3, None, (DomainError, "index must be a positive integer")),
    ("hurwitz", -2, -2, 5, (DomainError, "index must be a positive integer")),
    ("hurwitz", 1, DEFAULT_ENUM_CAP + 1, None,
     (ResourceCapError, "norm 10001 exceeds the enumeration cap 10000")),
    # a range past the cap names its first m past the cap, or lo
    ("hurwitz", 3, 7, 5,
     (ResourceCapError, "norm 6 exceeds the enumeration cap 5")),
    ("icosian", 7, 9, 5,
     (ResourceCapError, "norm 7 exceeds the enumeration cap 5")),
    ("octahedral", 1, 1, 0,
     (ResourceCapError, "norm 1 exceeds the enumeration cap 0")),
    ("lipschitz-q", 4, 3, None, None),
    ("lipschitz-q", 1, 3, None,
     (DomainError, "enumeration by reduced norm needs a maximal order")),
    ("lipschitz-q", 3, 9, 5,
     (DomainError, "enumeration by reduced norm needs a maximal order")),
    ("lipschitz-q", 0, 3, None,
     (DomainError, "index must be a positive integer")),
    ("lipschitz-q", 6, 9, 5,
     (ResourceCapError, "norm 6 exceeds the enumeration cap 5")),
])
def test_check_indices_refuses_in_order(key, lo, hi, cap, error):
    order = order_by_key(key)
    if error is None:
        assert order.check_indices(lo, hi, cap) is None
        return
    with pytest.raises(error[0]) as info:
        order.check_indices(lo, hi, cap)
    assert info.type is error[0] and str(info.value) == error[1]


def test_enumerate_deterministic():
    I = icosian()
    assert I.enumerate_by_index(5) == I.enumerate_by_index(5)


@pytest.mark.parametrize("factory,m", [
    (hurwitz, 3), (icosian, 5), (octahedral, 2),
])
def test_enumerate_detects_a_missed_lattice_point(factory, m, monkeypatch):
    # every element of squarefree norm is primitive, so dropping one
    # breaks an orbit, and the orbit count of the whole-order search
    # must notice
    search = WholeOrderSearch(factory())
    search.norm_one_units()
    value = norm_class_reps(search.field_tag, m)[0]
    missed = search._norm_vectors(value)[0]
    solve = csmod.orders._solve_quadratic
    monkeypatch.setattr(csmod.orders, "_solve_quadratic", lambda *args: [
        v for v in solve(*args) if v != missed])
    with pytest.raises(ArithmeticError, match=f"{search.name}, m = {m}"):
        search._ideal_vectors(value)


@pytest.mark.parametrize("factory,m", [
    (hurwitz, 3), (icosian, 5), (octahedral, 2), (icosian_conj, 4),
])
def test_enumerate_detects_a_missed_ideal(factory, m, monkeypatch):
    # dropping the generator of one ideal of prime norm leaves the others
    # distinct, so only the count against the counting series can notice
    order = fresh_copy(factory)
    ideal_vectors = QuatOrder._ideal_vectors
    monkeypatch.setattr(QuatOrder, "_ideal_vectors",
                        lambda self, pi: ideal_vectors(self, pi)[1:])
    with pytest.raises(ArithmeticError,
                       match=f"{order.name}, m = {m}: .* counting series"):
        order.enumerate_by_index(m)


# -- packed orbit keys of the whole-order search -----------------------------
#
# The whole-order search (tests/wholeorder.py) returns Z-coordinates v on
# the order's Z-basis (the basis, then omega times the basis).  It keys a
# point by its coordinates on the Z-basis of the canonical module (its
# columns, then omega times them), packed into one integer with
# KEY_BITS-bit slots, and marks its orbit {x*u} with one dot product per
# unit against a table built from the structure constants.  The oracle
# here recovers either kind of Z-coordinates from quaternion coordinates
# by a rational inverse of that Z-basis, multiplies with Quat.__mul__ and
# packs by shifts.


def rational_parts(q):
    parts = [c.a for c in q.coords()]
    if q.tag is not Q:
        parts += [c.b for c in q.coords()]
    return parts


def canonical_z_basis(order):
    cols = [Quat(order.field_tag, *col) for col in order.module.basis]
    if order.field_tag.degree == 1:
        return cols
    omega = FieldElem.omega(order.field_tag)
    return cols + [g * omega for g in cols]


@lru_cache(maxsize=None)
def z_basis_inverse(order, canonical=False):
    basis = canonical_z_basis(order) if canonical else z_basis(order)
    rows = [rational_parts(g) for g in basis]
    n = len(rows)
    work = [row + [Fraction(int(r == c)) for c in range(n)]
            for r, row in enumerate(rows)]
    for j in range(n):
        p = next(r for r in range(j, n) if work[r][j])
        work[j], work[p] = work[p], work[j]
        pivot = work[j][j]
        work[j] = [x / pivot for x in work[j]]
        for r in range(n):
            f = work[r][j]
            if r != j and f:
                work[r] = [x - f * y for x, y in zip(work[r], work[j])]
    return [row[n:] for row in work]


def z_key(order, q, canonical=False):
    inv = z_basis_inverse(order, canonical)
    parts = rational_parts(q)
    key = [sum((p * inv[k][r] for k, p in enumerate(parts)), Fraction(0))
           for r in range(len(parts))]
    assert all(c.denominator == 1 for c in key), "not in the order"
    return tuple(int(c) for c in key)


def packed_key(order, q):
    return sum(x << wholeorder.KEY_BITS * r
               for r, x in enumerate(z_key(order, q, canonical=True)))


ORBIT_ORDERS = [hurwitz, icosian, icosian_conj, octahedral]


@pytest.mark.parametrize("factory", ORBIT_ORDERS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_unit_matrices_match_quaternion_products(factory, data):
    # for x the element with Z-coordinates v, the key of v is the packed
    # canonical Z-coordinates of x, and the orbit keys of v are those of
    # x*u for each unit u, in unit order
    order = factory()
    search = search_of(order)
    rank = 4 * order.field_tag.degree
    v = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=rank,
                                 max_size=rank).filter(any)))
    x = Quat.zero(order.field_tag)
    for g, c in zip(z_basis(order), v):
        x = x + g * c
    assert z_key(order, x) == v
    assert search._element(v) == x
    weights = search._orbit_table()[0]
    assert sum(c * w for c, w in zip(v, weights)) == packed_key(order, x)
    units = search.norm_one_units()
    keys = search._orbit_keys(v)
    assert keys == [packed_key(order, x * u) for u in units]
    assert len(set(keys)) == len(units)


@pytest.mark.parametrize("factory", ORBIT_ORDERS)
def test_unit_vectors_are_the_keys_of_the_units(factory):
    order = factory()
    search = search_of(order)
    units = search.norm_one_units()
    vectors = search._norm_vectors(RingElem(order.field_tag, 1))
    assert [z_key(order, u) for u in units] == vectors
    # the orbit of 1 is the unit group itself
    one = z_key(order, Quat.one(order.field_tag))
    assert search._orbit_keys(one) == [packed_key(order, u) for u in units]


@pytest.mark.parametrize("factory,m", [
    (hurwitz, 9), (icosian, 4), (octahedral, 2),
])
def test_orbit_keys_refuse_narrow_slots(factory, m, monkeypatch):
    # two vectors could share a key once a coordinate reaches half a
    # slot; the guard must raise before any orbit is marked with such keys
    monkeypatch.setattr(wholeorder, "KEY_BITS", 3)
    search = WholeOrderSearch(factory())
    with pytest.raises(ArithmeticError, match="3-bit key slots"):
        for value in norm_class_reps(search.field_tag, m):
            for pi, _ in factor(value)[1]:
                search._ideal_vectors(pi)


def enumeration_tally(factory, m, monkeypatch):
    """(search points, orbits, wrong-norm orbits, non-primitive orbits) of
    the whole-order search at the primes of the norm values of m, then
    (products formed, products kept, ideals) of enumerate_by_index(m) on
    a fresh copy of the order."""
    order = fresh_copy(factory)
    search = WholeOrderSearch(order)
    search._orbit_table()
    tally = dict.fromkeys(("points", "orbits", "wrong", "imprimitive",
                           "products", "dropped"), 0)
    solve = csmod.orders._solve_quadratic
    orbit_keys = WholeOrderSearch._orbit_keys
    has_norm = WholeOrderSearch._has_norm
    primitive = WholeOrderSearch._is_primitive
    primitive_product = QuatOrder._is_primitive_product

    def counting_search(*args):
        found = solve(*args)
        tally["points"] += len(found)
        return found

    def counting_orbit_keys(self, v):
        tally["orbits"] += 1
        return orbit_keys(self, v)

    def counting_has_norm(self, v, value):
        ok = has_norm(self, v, value)
        tally["wrong"] += not ok
        return ok

    def counting_primitive(self, v):
        ok = primitive(self, v)
        tally["imprimitive"] += not ok
        return ok

    def counting_primitive_product(self, x, den):
        tally["products"] += 1
        ok = primitive_product(self, x, den)
        tally["dropped"] += not ok
        return ok

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csmod.orders, "_solve_quadratic", counting_search)
        patch.setattr(WholeOrderSearch, "_orbit_keys", counting_orbit_keys)
        patch.setattr(WholeOrderSearch, "_has_norm", counting_has_norm)
        patch.setattr(WholeOrderSearch, "_is_primitive", counting_primitive)
        for pi in {pi for value in norm_class_reps(order.field_tag, m)
                   for pi, _ in factor(value)[1]}:
            search._ideal_vectors(pi)
    monkeypatch.setattr(QuatOrder, "_is_primitive_product",
                        counting_primitive_product)
    reps = order.enumerate_by_index(m)
    monkeypatch.undo()
    assert reps == factory().enumerate_by_index(m)
    return (tally["points"], tally["orbits"], tally["wrong"],
            tally["imprimitive"], tally["products"],
            tally["products"] - tally["dropped"], len(reps))


@pytest.mark.parametrize("factory,m,want", [
    # 624 = 13 orbits * 48 units of trace norm 4: 3 ideals of norm 2+sqrt2
    # and 10 orbits of norm 2-sqrt2 or 2
    (octahedral, 2, (624, 13, 10, 0, 0, 0, 3)),
    # 2 = sqrt2^2 times a unit: the search at the prime of norm 2, then
    # 3 * 3 products, of which the 3 that go back to 2 are not primitive
    (octahedral, 4, (624, 13, 10, 0, 9, 6, 6)),
    # the search at 3 (96 = 4 orbits * 24 units), then 4 * 4 products, of
    # which the 4 that go back to 3 are not primitive
    (hurwitz, 9, (96, 4, 0, 0, 16, 12, 12)),
    (icosian, 4, (600, 5, 0, 0, 0, 0, 5)),
])
def test_enumeration_classifies_each_orbit_once(factory, m, want, monkeypatch):
    # the norm check and the content check of the whole-order search run
    # once per orbit, at its first point in search order; every other
    # point is a key lookup.  enumerate_by_index forms the ideals of a
    # composite norm value as products of those of its primes, and keeps
    # the primitive products
    assert enumeration_tally(factory, m, monkeypatch) == want


@pytest.mark.parametrize("factory,m", [
    (icosian, 11), (octahedral, 14), (hurwitz, 15),
])
def test_enumeration_builds_quaternions_per_ideal(factory, m, monkeypatch):
    # the unit set-up, the orbits and the points stay in integers: a fresh
    # order builds one Quat per representative and multiplies none; every
    # Quat is made by the constructor or by Quat._new
    base = factory()
    order = QuatOrder(base.name, base.field_tag, base.basis, maximal=True)
    built = products = 0
    init, new, product = Quat.__init__, Quat._new.__func__, Quat.__mul__

    def counting_init(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    def counting_new(cls, *args):
        nonlocal built
        built += 1
        return new(cls, *args)

    def counting_product(self, other):
        nonlocal products
        products += 1
        return product(self, other)

    monkeypatch.setattr(Quat, "__init__", counting_init)
    monkeypatch.setattr(Quat, "_new", classmethod(counting_new))
    monkeypatch.setattr(Quat, "__mul__", counting_product)
    reps = order.enumerate_by_index(m)
    monkeypatch.undo()
    assert reps
    assert built == len(reps)
    assert products == 0
    assert reps == base.enumerate_by_index(m)


# -- against the whole-order search ----------------------------------------
#
# enumerate_by_index builds the ideals of a prime norm value from the lines
# of P^1(O_K/pi), and multiplies those at a composite value.  The
# whole-order search (tests/wholeorder.py) runs at any value, so it serves
# as the oracle: the same right ideals, each once.


def fresh_copy(factory):
    base = factory()
    return QuatOrder(base.name, base.field_tag, base.basis, maximal=True)


def oracle_ideals(factory, m):
    search = WholeOrderSearch(fresh_copy(factory))
    return {ideal for value in norm_class_reps(search.field_tag, m)
            for ideal in search.right_ideals(value)}


def composite_values(order, m):
    """Whether enumerate_by_index(m) forms its ideals as products: the norm
    values of m are products of two or more primes of the base ring."""
    return any(sum(k for _, k in factor(value)[1]) > 1
               for value in norm_class_reps(order.field_tag, m))


def prime_indices(factory, top):
    """The m <= top whose norm values are all primes of the base ring."""
    tag = factory().field_tag
    return [m for m in range(2, top + 1)
            if not (tag is Q and m % 2 == 0) and norm_class_reps(tag, m)
            and not composite_values(factory(), m)]


# every prime norm value up to a bound: split primes, the ramified 5 over
# Z[tau] (icosian 5) and sqrt2 over Z[sqrt2] (octahedral 2), and the inert
# 2, 3 and 7 over Z[tau] (icosian 4, 9, 49) and 3 and 5 over Z[sqrt2]
# (octahedral 9, 25)
PRIME_CASES = [(factory, m) for factory, top in (
    (hurwitz, 61), (icosian, 49), (icosian_conj, 20), (octahedral, 41))
    for m in prime_indices(factory, top)]


@pytest.mark.parametrize("factory,m", PRIME_CASES)
def test_prime_ideals_match_the_whole_order_search(factory, m):
    order = fresh_copy(factory)
    reps = order.enumerate_by_index(m)
    ideals = [order.right_ideal(q) for q in reps]
    assert len(set(ideals)) == len(ideals)
    for q in reps:
        assert order.is_reduced(q)
        assert q.nr().to_ring().norm_abs() == m
    assert set(ideals) == oracle_ideals(factory, m)


def test_prime_cases_cover_every_kind_of_prime():
    cases = {(f.__name__, m) for f, m in PRIME_CASES}
    assert {("icosian", 5), ("octahedral", 2)} <= cases         # ramified
    assert {("icosian", 4), ("icosian", 9), ("icosian", 49),
            ("octahedral", 9), ("octahedral", 25)} <= cases     # inert
    assert {("hurwitz", 61), ("icosian", 41), ("icosian_conj", 19),
            ("octahedral", 41)} <= cases                        # split


# the composite cases cover squares and cubes of rational primes, split
# primes in both orders of their factors (icosian 55, 121), the ramified
# primes (5 over Z[tau], sqrt2 over Z[sqrt2]) and the inert 2 over Z[tau]
@pytest.mark.parametrize("factory,m", [
    (hurwitz, 9), (hurwitz, 15), (hurwitz, 25), (hurwitz, 27),
    (hurwitz, 45), (hurwitz, 105),
    (icosian, 16), (icosian, 20), (icosian, 25), (icosian, 55),
    (icosian, 121),
    (octahedral, 4), (octahedral, 8), (octahedral, 14), (octahedral, 49),
])
def test_products_match_the_whole_order_search(factory, m):
    order = fresh_copy(factory)
    assert composite_values(order, m)
    reps = order.enumerate_by_index(m)
    ideals = [order.right_ideal(q) for q in reps]
    assert len(set(ideals)) == len(ideals)
    for q in reps:
        assert order.is_reduced(q)
        assert q.nr().to_ring().norm_abs() == m
    assert set(ideals) == oracle_ideals(factory, m)


# -- the checks of the prime-norm construction ------------------------------


# every kind of prime: rational (2 has the rounding tie), split, ramified,
# and inert over both quadratic rings; F = O_K/pi is F_p but for the last two
RESIDUE_PRIMES = [RingElem(Q, 7), RingElem(Q, 2), RingElem(R5, 3, 1),
                  RingElem(R2, 2, 1), RingElem(R2, 5), RingElem(R5, 3)]


class PairResidues:
    """The residue field by its pair formulas: residue x stands for the
    ring element x when N(pi) is a prime p, and for (x mod p) + (x div
    p)*omega when N(pi) = p^2; a ring element reduces to the residue it
    is congruent to mod pi, found by search."""

    def __init__(self, pi):
        self.pi, size = pi, pi.norm_abs()
        p = isqrt(size)
        self.elems = [RingElem(pi.tag, x % p, x // p) if p * p == size
                      else RingElem(pi.tag, x) for x in range(size)]

    def red(self, z):
        (x,) = [x for x, r in enumerate(self.elems) if self.pi.divides(z - r)]
        return x

    def mul(self, x, y):
        return self.red(self.elems[x] * self.elems[y])

    def lin(self, x, f, y):
        return self.red(self.elems[x] - self.elems[f] * self.elems[y])

    def inv(self, x):
        (y,) = [y for y in range(len(self.elems)) if self.mul(x, y) == 1]
        return y

    def lift(self, x):
        # x - q*pi, q = x/pi with each coordinate rounded half up
        ratio = self.elems[x].to_field() / self.pi.to_field()
        q = RingElem(self.pi.tag, *(floor(v + HALF)
                                    for v in (ratio.a, ratio.b)))
        z = self.elems[x] - q * self.pi
        return z.a, z.b

    def dot(self, row, vec):
        zero = RingElem(self.pi.tag, 0)
        return self.red(sum((self.elems[x] * self.elems[y]
                             for x, y in zip(row, vec)), zero))

    def echelon(self, rows):
        # Gauss-Jordan elimination to the reduced row echelon form
        rows, pivots, rank = [list(row) for row in rows], [], 0
        for j in range(len(rows[0])):
            k = next((k for k in range(rank, len(rows)) if rows[k][j]), None)
            if k is None:
                continue
            rows[rank], rows[k] = rows[k], rows[rank]
            inv = self.inv(rows[rank][j])
            rows[rank] = [self.mul(inv, x) for x in rows[rank]]
            for k, row in enumerate(rows):
                if k != rank:
                    rows[k] = [self.lin(x, row[j], y)
                               for x, y in zip(row, rows[rank])]
            pivots.append(j)
            rank += 1
        return tuple(pivots), tuple(map(tuple, rows[:rank]))

    def det(self, rows):
        # Leibniz: the sum over the permutations of the signed products
        total = RingElem(self.pi.tag, 0)
        for perm in permutations(range(len(rows))):
            term = RingElem(self.pi.tag, (-1) ** sum(
                x > y for x, y in combinations(perm, 2)))
            for row, k in zip(rows, perm):
                term = term * self.elems[row[k]]
            total = total + term
        return self.red(total)


@pytest.mark.parametrize("pi", RESIDUE_PRIMES, ids=str)
def test_residue_field_matches_the_pair_formulas(pi):
    field, ref = csmod.orders._ResidueField(pi), PairResidues(pi)
    residues = range(pi.norm_abs())
    rng = random.Random(str(pi))
    for x in residues:
        assert field.lift(x) == ref.lift(x)
        if x:
            assert field.inv(x) == ref.inv(x)
        for y in residues:
            assert field.mul(x, y) == ref.mul(x, y)
            f = rng.choice(residues)
            assert field.lin(x, f, y) == ref.lin(x, f, y)
    echelons = 0
    for _ in range(60):
        # rows with a zero in about two of every five places
        r, s = ([rng.choice(residues) if rng.random() < 0.6 else 0
                 for _ in range(4)] for _ in range(2))
        assert field.dot(r, s) == ref.dot(r, s)
        form = ref.echelon([r, s])
        if len(form[0]) == 2:       # two_row_echelon takes rank 2 only
            assert field.two_row_echelon(r, s) == form
            echelons += 1
    assert echelons >= 20


@pytest.mark.parametrize("pi", RESIDUE_PRIMES, ids=str)
def test_residue_field_det_matches_the_leibniz_expansion(pi):
    field, ref = csmod.orders._ResidueField(pi), PairResidues(pi)
    residues = range(pi.norm_abs())
    rng = random.Random(f"det {pi}")
    ranks = set()
    for trial in range(30):
        # rank at most 4, 3 or 2: the rows past the first free ones are
        # combinations of those, and then the rows are shuffled
        free = 4 - trial % 3
        rows = [[rng.choice(residues) for _ in range(4)] for _ in range(free)]
        for _ in range(4 - free):
            row = [0] * 4
            for other in rows[:free]:
                f = rng.choice(residues)
                row = [ref.lin(x, f, y) for x, y in zip(row, other)]
            rows.append(row)
        rng.shuffle(rows)
        rank = len(ref.echelon(rows)[0])
        ranks.add(rank)
        det = field.det(*rows)
        assert det == ref.det(rows), rows
        assert (det != 0) == (rank == 4)
    assert {2, 3, 4} <= ranks


# a prime of each kind: rational, split, ramified, inert; N(pi) + 1 lines
LINE_CASES = [(hurwitz, 7, "7"), (icosian, 11, "3+w"), (octahedral, 2, "2+w"),
              (octahedral, 25, "5")]


def same_as_kernel(field, kernel):
    """O = K: every line of the pencil is ker K."""
    return kernel


def meeting_kernel(field, kernel):
    """O = K*(1 + e_c*e_m^t), m with e_m outside the rows of K and c != m
    a nonzero column of K: of rank 2, with a kernel that meets ker K in
    the one line of ker K with y_m = 0, so [K; O] has rank 3."""
    def rank(rows):
        return len(PairResidues.echelon(field, rows)[0])

    m = next(m for m in range(4)
             if rank([*kernel, [int(k == m) for k in range(4)]]) == 3)
    c = next(c for c in range(4) if c != m and any(r[c] for r in kernel))
    minus_one = field.red(-1, 0)
    other = [[field.lin(x, minus_one, row[c]) if k == m else x
              for k, x in enumerate(row)] for row in kernel]
    assert rank(kernel) == rank(other) == 2
    assert rank([*kernel, *other]) == 3
    return other


@pytest.mark.parametrize("degenerate", [same_as_kernel, meeting_kernel])
@pytest.mark.parametrize("factory,m,pi", LINE_CASES)
def test_prime_ideals_detect_a_degenerate_pencil(factory, m, pi, degenerate,
                                                 monkeypatch):
    # with the O of every b degenerate, no rows of [K; O] have a nonzero
    # determinant, and the N(pi) + 1 kernels are not the lines of P^1(F)
    order = fresh_copy(factory)
    pencil = QuatOrder._pencil

    def patched(self, field):
        kernel, others = pencil(self, field)
        return kernel, (degenerate(field, kernel) for _ in others)

    monkeypatch.setattr(QuatOrder, "_pencil", patched)
    with pytest.raises(ArithmeticError, match=re.escape(
            f"{order.name}, pi = {pi}: no rows i < j of the pencil with "
            f"det[K_i; K_j; O_i; O_j] != 0")):
        order.enumerate_by_index(m)


def reference_lines(order, field):
    """The echelon forms of the N(pi) + 1 lines by Gauss-Jordan elimination
    of the whole 4x4 matrices K - t*O and O of _pencil, O the first whose
    form has rank 2 and differs from K's, on the package's field
    arithmetic (checked against the pair formulas above, which search
    every residue per operation)."""
    def echelon(rows):
        return PairResidues.echelon(field, rows)

    kernel, others = order._pencil(field)
    first = echelon(kernel)
    for other in others:
        last = echelon(other)
        if len(last[0]) == 2 and last != first:
            break
    return [echelon([[field.lin(u, t, w) for u, w in zip(r, s)]
                     for r, s in zip(kernel, other)])
            for t in range(field.size)] + [last]


@pytest.mark.parametrize("factory,m", [
    (factory, m) for factory, m, _ in LINE_CASES] + [
    (hurwitz, 101), (icosian, 1009), (icosian, 289), (octahedral, 169),
])
def test_lines_match_the_whole_matrix_echelons(factory, m):
    # the echelon at t, as a search forms it from the pencil rows: of
    # (K - t*O)_i and (K - t*O)_j, and of O_i and O_j at t = N(pi)
    order = fresh_copy(factory)
    primes = {pi for value in norm_class_reps(order.field_tag, m)
              for pi, _ in factor(value)[1]}
    assert primes and all(pi.norm_abs() == m for pi in primes)
    for pi in primes:
        field = csmod.orders._ResidueField(pi)
        ki, kj, oi, oj = order._pencil_rows(field)
        lines = [field.two_row_echelon(
            *([field.lin(u, t, w) for u, w in zip(k, o)]
              for k, o in ((ki, oi), (kj, oj))))
            for t in range(m)] + [field.two_row_echelon(oi, oj)]
        assert len(set(lines)) == len(lines) == m + 1
        assert lines == reference_lines(order, field)


# primes with two or more unit orbits of lines, so two or more searches:
# with one orbit (hurwitz 5, icosian 9, octahedral 2) only the first line
# is searched, and the orbit walk reaches every other line
@pytest.mark.parametrize("factory,m", [
    (hurwitz, 7), (icosian, 49), (octahedral, 9),
])
def test_prime_generators_must_lie_in_their_ideal(factory, m, monkeypatch):
    # searching every orbit's first line on the first line's basis finds
    # points of norm pi, but outside all the other ideals
    order = fresh_copy(factory)
    ideal_basis = QuatOrder._ideal_basis
    first = []

    def first_basis(self, pivots, rows, field):
        first.append((pivots, rows))
        return ideal_basis(self, *first[0], field)

    monkeypatch.setattr(QuatOrder, "_ideal_basis", first_basis)
    with pytest.raises(ArithmeticError,
                       match=f"{order.name}, pi = .*: the generator"):
        order.enumerate_by_index(m)


@pytest.mark.parametrize("factory,m", [
    (hurwitz, 5), (icosian, 9), (octahedral, 9),
])
def test_orbit_walk_must_reach_the_ideal_of_its_generator(factory, m,
                                                         monkeypatch):
    # the transposed matrix of y -> s*y sends the walk to lines that do
    # not hold s*g (but at octahedral 2, whose 3 lines the walk fills from
    # one search, each s*g it forms still lands on its own line)
    order = fresh_copy(factory)
    unit_columns = QuatOrder._unit_columns

    def transposed(self):
        return tuple((s, [[x for col in cols for x in col[k:k + 2]]
                          for k in range(0, 8, 2)])
                     for s, cols in unit_columns(self))

    monkeypatch.setattr(QuatOrder, "_unit_columns", transposed)
    with pytest.raises(ArithmeticError,
                       match=f"{order.name}, pi = .*: the generator .* is "
                             f"not in it"):
        order.enumerate_by_index(m)


@pytest.mark.parametrize("factory,m", [
    (hurwitz, 5), (icosian, 9), (octahedral, 2),
])
def test_prime_generators_must_have_norm_pi(factory, m, monkeypatch):
    # twice the first vector of each ideal's basis lies in it, with a norm
    # that is a multiple of 4*pi
    order = fresh_copy(factory)
    size = 4 * order.field_tag.degree
    monkeypatch.setattr(csmod.orders, "_solve_quadratic", lambda *args, **kw:
                        [tuple(2 * (k == 0) for k in range(size))])
    with pytest.raises(ArithmeticError,
                       match=f"{order.name}, pi = .*: the generator"):
        order.enumerate_by_index(m)


def units_modulo_sign(order):
    """The norm-one units of a maximal order, one of each pair +-u, as the
    closure of basis[1:] (all of reduced norm 1) under products."""
    kept = set()
    for u in closure_under_mult(order.basis[1:]):
        if -u not in kept:
            kept.add(u)
    return kept


@pytest.mark.parametrize("factory,m,size", [
    (hurwitz, 101, 12), (hurwitz, 1009, 12), (icosian, 1009, 60),
    (octahedral, 1009, 24),
])
def test_searches_count_the_unit_orbits_of_the_lines(factory, m, size,
                                                     monkeypatch):
    # Burnside: the search runs once per orbit of the units modulo +-1 on
    # the N(pi) + 1 lines, and the number of orbits is the mean number of
    # lines a unit fixes.  Away from the primes above 2 and 3 (and 5 on
    # the icosian order) a unit u != +-1, t = Tr(u) mod pi, fixes 2 lines
    # if t^2 - 4 is a nonzero square of F = O_K/pi, 1 if it is zero and
    # none otherwise; 1 fixes them all
    order = fresh_copy(factory)
    units = units_modulo_sign(order)
    assert len(units) == size
    searches = echelons = 0
    solve = csmod.orders._solve_quadratic
    two_row_echelon = csmod.orders._ResidueField.two_row_echelon

    def counting_solve(*args, **kw):
        nonlocal searches
        searches += 1
        return solve(*args, **kw)

    def counting_echelon(*args):
        nonlocal echelons
        echelons += 1
        return two_row_echelon(*args)

    monkeypatch.setattr(csmod.orders, "_solve_quadratic", counting_solve)
    # only a search forms its line's echelon
    monkeypatch.setattr(csmod.orders._ResidueField, "two_row_echelon",
                        counting_echelon)
    primes = {pi for value in norm_class_reps(order.field_tag, m)
              for pi, _ in factor(value)[1]}
    assert len(primes) == (1 if factory is hurwitz else 2)
    for pi in primes:
        field = csmod.orders._ResidueField(pi)
        squares = {field.mul(x, x) for x in range(field.size)}
        fixed = 0
        for u in units:
            if u.is_scalar():       # +-1
                fixed += field.size + 1
                continue
            trace = (2 * u.coords()[0]).to_ring()
            t = field.red(trace.a, trace.b)
            d = field.lin(field.mul(t, t), 1, field.red(4, 0))
            fixed += 1 if d == 0 else 2 if d in squares else 0
        searches = echelons = 0
        assert len(order._ideal_vectors(pi)) == field.size + 1
        assert searches * size == fixed, pi
        assert echelons == searches


# -- the previous enumeration, kept as the reference ----------------------
#
# Exact rational LDL^t and lattice search, a Gram matrix built per field
# from the two integer forms of 2*nr, and one right-ideal HNF per lattice
# point to drop duplicates.  Slow, but it shares no code with the unit
# orbits and the integer search it checks.


def reference_ldl(gram):
    n = len(gram)
    lower = [[Fraction(0)] * n for _ in range(n)]
    diag = [Fraction(0)] * n
    for j in range(n):
        s = Fraction(gram[j][j])
        for k in range(j):
            s -= lower[j][k] * lower[j][k] * diag[k]
        assert s > 0
        diag[j] = s
        lower[j][j] = Fraction(1)
        for i in range(j + 1, n):
            v = Fraction(gram[i][j])
            for k in range(j):
                v -= lower[i][k] * lower[j][k] * diag[k]
            lower[i][j] = v / s
    return lower, diag


def reference_search(gram):
    """(levels, scale) of _ldl, from the rational LDL^t as _ldl made them
    before it ran in integers."""
    lower, diag = reference_ldl(gram)
    n = len(gram)
    dens = [lcm(*(lower[i][j].denominator for i in range(j + 1, n)))
            for j in range(n)]
    weights = [diag[j] / (dens[j] * dens[j]) for j in range(n)]
    scale = lcm(*(w.denominator for w in weights))
    levels = tuple(
        (int(weights[j] * scale), dens[j],
         tuple(int(lower[i][j] * dens[j]) for i in range(j + 1, n)))
        for j in range(n))
    return levels, scale


def reference_solve(lower, diag, target):
    n = len(diag)
    x = [0] * n
    out = []

    def center(j):
        return sum((lower[i][j] * x[i] for i in range(j + 1, n)),
                   Fraction(0))

    def scan(base, c, d, rem):
        vals = []
        v = base
        while d * (v + c) ** 2 <= rem:
            vals.append(v)
            v -= 1
        v = base + 1
        while d * (v + c) ** 2 <= rem:
            vals.append(v)
            v += 1
        return vals

    def rec(j, rem):
        c = center(j)
        base = (-c).__floor__()
        if j == 0:
            for x0 in scan(base, c, diag[0], rem):
                if diag[0] * (x0 + c) ** 2 == rem:
                    x[0] = x0
                    out.append(tuple(x))
            return
        for xj in scan(base, c, diag[j], rem):
            x[j] = xj
            rec(j - 1, rem - diag[j] * (xj + c) ** 2)
        x[j] = 0

    rec(n - 1, Fraction(target))
    return out


def z_basis(order):
    if order.field_tag.degree == 1:
        return list(order.basis)
    omega = FieldElem.omega(order.field_tag)
    return list(order.basis) + [b * omega for b in order.basis]


def reference_forms(order):
    """The integer forms A and B of 2*nr = A + B*omega on the Z-basis,
    and the Gram matrix of the search, Tr(2*nr), built per field."""
    zgens = z_basis(order)
    rank = len(zgens)
    na = [[0] * rank for _ in range(rank)]
    nb = [[0] * rank for _ in range(rank)]
    for s in range(rank):
        for t in range(rank):
            twice = sum((cs * ct for cs, ct in zip(zgens[s].coords(),
                                                   zgens[t].coords())),
                        FieldElem(order.field_tag, 0)) * 2
            r = twice.to_ring()
            na[s][t], nb[s][t] = r.a, r.b
    if order.field_tag is Q:
        gram = na
    elif order.field_tag is R5:
        gram = [[2 * na[s][t] + nb[s][t] for t in range(rank)]
                for s in range(rank)]
    else:
        gram = [[2 * na[s][t] for t in range(rank)] for s in range(rank)]
    return na, nb, gram


def form_value(form, v):
    return sum(v[s] * form[s][t] * v[t]
               for s in range(len(v)) for t in range(len(v)))


@lru_cache(maxsize=None)
def reference_vectors(order, target):
    lower, diag = reference_ldl(reference_forms(order)[2])
    return reference_solve(lower, diag, target)


def reference_enumerate(order, m):
    tag = order.field_tag
    if tag is Q and m % 2 == 0:
        return []
    zgens = z_basis(order)
    na, nb, _ = reference_forms(order)
    reps = {}
    for value in norm_class_reps(tag, m):
        for v in reference_vectors(order, 2 * value.trace()):
            if (form_value(na, v) != 2 * value.a
                    or form_value(nb, v) != 2 * value.b):
                continue
            q = Quat.zero(tag)
            for vs, g in zip(v, zgens):
                q = q + g * vs
            if not order.content(q).is_unit():
                continue
            reps.setdefault(order.right_ideal(q), q)
    return list(reps.values())


REFERENCE_RANGES = [(hurwitz, 15), (icosian, 5), (octahedral, 8)]


# the representatives at prime values (and 1), in the order of the lines
# of P^1: the first point of the search on the ideal's Z-basis at the
# first line of each unit orbit, and s*g along the orbit walk
PRIME_REPRESENTATIVES = {
    (hurwitz, 1): ["1"],
    (hurwitz, 3): [
        "1-i-j", "1+j+k", "3/2+1/2*i-1/2*j+1/2*k", "1+i-k",
    ],
    (hurwitz, 5): [
        "2-i", "-3/2-1/2*i-3/2*j+1/2*k", "3/2+1/2*i+1/2*j+3/2*k",
        "-3/2-1/2*i+1/2*j+3/2*k", "-1/2+3/2*i+1/2*j+3/2*k", "2*j+k",
    ],
    (icosian, 4): [
        "-1-i", "-1/2+1/2*w+(1/2+1/2*w)*i+(-1/2+1/2*w)*j+(-1/2+1/2*w)*k",
        "-1/2+w-1/2*i-1/2*j-1/2*k", "1/2+(-1/2+w)*i+1/2*j-1/2*k",
        "1/2-1/2*w+(-1/2+1/2*w)*i+(1/2+1/2*w)*j+(1/2-1/2*w)*k",
    ],
    (icosian, 5): [
        "-w-i", "1/2-1/2*w+(-1/2-1/2*w)*i+(-1/2-1/2*w)*j+(1/2-1/2*w)*k",
        "1/2+1/2*w-i-1/2*j-1/2*w*k",
        "1/2+1/2*w+(1/2-1/2*w)*i+(-1/2+1/2*w)*j+(-1/2-1/2*w)*k",
        "1+1/2*w+(-1/2+1/2*w)*j+1/2*k",
        "1/2+1/2*w+(1/2-1/2*w)*i+(-1/2-1/2*w)*j+(1/2-1/2*w)*k",
    ],
    (octahedral, 2): [
        "1/2*w+(-1-1/2*w)*i", "1/2+1/2*w-1/2*i-1/2*j+(1/2+1/2*w)*k",
        "1/2+(-1/2-1/2*w)*i+1/2*j+(1/2+1/2*w)*k",
    ],
}


# the representatives when every line had its own search (the first point
# of the search on each ideal's Z-basis): other generators of the same
# ideals, in the same order
SEARCHED_PRIME_REPRESENTATIVES = {
    (hurwitz, 1): ["1"],
    (hurwitz, 3): ["1-i-j", "1+i-j", "-1-i-j", "-1+i-j"],
    (hurwitz, 5): ["2-i", "-2*i-j", "2-j", "-2-j", "2*i-j", "-2-i"],
    (icosian, 4): ["-1-i", "1/2+1/2*w+(-1+1/2*w)*i-1/2*k",
                   "-1+1/2*w+(1/2+1/2*w)*i-1/2*j",
                   "-1/2-1/2*w+(-1+1/2*w)*i-1/2*k",
                   "-1+1/2*w+(-1/2-1/2*w)*i-1/2*j"],
    (icosian, 5): ["-w-i", "-1/2+w+(1/2+1/2*w)*i-1/2*w*k",
                   "1+(1/2+1/2*w)*i-1/2*w*j+1/2*k",
                   "1/2+1/2*w+(-1/2+w)*i-1/2*w*j", "w-i",
                   "1+1/2*w+(-1/2+1/2*w)*i-1/2*j"],
    (octahedral, 2): ["1/2*w+(-1-1/2*w)*i", "1/2*w+(-1-1/2*w)*j",
                      "1/2+1/2*w+(1/2+1/2*w)*i+1/2*j+1/2*k"],
}


# the representatives at composite values, whose ideals are products of
# ideals of prime norm, in the order enumerate_by_index forms them
COMPOSITE_REPRESENTATIVES = {
    (hurwitz, 45): [
        "-4-3*i-4*j-2*k", "-5/2+5/2*i+11/2*j+3/2*k", "1/2-13/2*i-1/2*j-3/2*k",
        "3/2+1/2*i+11/2*j-7/2*k", "9/2-7/2*i+7/2*j+1/2*k", "4-2*i-5*k",
        "2-6*i+2*j+k", "-5/2+5/2*i-7/2*j+9/2*k", "7/2-1/2*i+11/2*j+3/2*k",
        "-9/2+7/2*i+5/2*j+5/2*k", "3/2+11/2*i+7/2*j+1/2*k", "-2+i+6*j-2*k",
        "5-4*j-2*k", "-11/2-7/2*i-1/2*j-3/2*k", "7/2-1/2*i-7/2*j+9/2*k",
        "-3/2-11/2*i+5/2*j+5/2*k", "-3/2-1/2*i+1/2*j+13/2*k", "4-2*i+3*j+4*k",
        "4-2*i-4*j+3*k", "-11/2+3/2*i-5/2*j-5/2*k", "1/2-3/2*i+1/2*j+13/2*k",
        "-11/2-7/2*i+3/2*j-1/2*k", "-7/2+1/2*i+9/2*j+7/2*k", "-5*i+4*j+2*k",
        "-2+i+2*j+6*k", "7/2+9/2*i-5/2*j-5/2*k", "-11/2+3/2*i+7/2*j+1/2*k",
        "-5/2+5/2*i-9/2*j-7/2*k", "-7/2+1/2*i+3/2*j-11/2*k", "-6-2*i-2*j-k",
        "4-2*i+5*j", "1/2-3/2*i-11/2*j+7/2*k", "7/2+9/2*i+7/2*j+1/2*k",
        "-5/2+5/2*i-3/2*j+11/2*k", "-1/2+13/2*i-3/2*j+1/2*k", "-3+4*i+4*j+2*k",
        "5/2-5/2*i-9/2*j-7/2*k", "-6-2*i+2*j+k", "9/2-7/2*i-5/2*j+5/2*k",
        "-1/2-7/2*i+11/2*j+3/2*k", "2-i+2*j+6*k", "11/2-3/2*i+7/2*j+1/2*k",
        "5/2-5/2*i-3/2*j+11/2*k", "-3+4*i-4*j-2*k", "-3/2-1/2*i+7/2*j+11/2*k",
        "-13/2-1/2*i-1/2*j-3/2*k", "-4+2*i+5*j", "-7/2-9/2*i+7/2*j+1/2*k",
        "11/2+7/2*i+3/2*j-1/2*k", "-5*i-4*j-2*k", "3/2+11/2*i-5/2*j+5/2*k",
        "-1/2-7/2*i-7/2*j+9/2*k", "-4+2*i-4*j+3*k", "-1/2+3/2*i+1/2*j+13/2*k",
        "3-4*i+2*j-4*k", "-5/2-5/2*i-3/2*j+11/2*k", "13/2+1/2*i+3/2*j-1/2*k",
        "-1/2+3/2*i+7/2*j+11/2*k", "7/2+9/2*i-1/2*j+7/2*k", "2+4*i+5*j",
        "6+2*i-j+2*k", "-5/2-5/2*i-9/2*j-7/2*k", "1/2+7/2*i-3/2*j+11/2*k",
        "-7/2-9/2*i-5/2*j+5/2*k", "-11/2+3/2*i-1/2*j+7/2*k", "-1-2*i+2*j+6*k",
        "5*i+2*j-4*k", "7/2-11/2*i+3/2*j-1/2*k", "1/2+7/2*i-9/2*j-7/2*k",
        "11/2-3/2*i-5/2*j+5/2*k", "1/2-3/2*i-13/2*j+1/2*k", "2+4*i-4*j+3*k",
    ],
    (icosian, 44): [
        "3/2+1/2*w+(1/2-3/2*w)*i+(1/2-1/2*w)*j+(-1/2+1/2*w)*k",
        "-1/2*w+1/2*w*i+3/2*w*j+(1-3/2*w)*k",
        "-1/2+(1/2+w)*i+(-1/2-w)*j+(3/2-w)*k",
        "-1/2-w+(-3/2+w)*i+1/2*j+(1/2+w)*k",
        "-3/2*w+(-1+1/2*w)*i+(-1-1/2*w)*j+(1-1/2*w)*k",
        "1/2-3/2*w+(1/2+1/2*w)*i+(1/2-1/2*w)*j+(1/2-3/2*w)*k",
        "-1+1/2*w+(1+1/2*w)*i+(-1+1/2*w)*j-3/2*w*k",
        "-3/2+w+(1/2+w)*i+(1/2+w)*j-1/2*k",
        "-1+1/2*w+3/2*w*i+(1-1/2*w)*j+(1+1/2*w)*k",
        "1+1/2*w+(1-1/2*w)*i-3/2*w*j+(1-1/2*w)*k",
        "-1-1/2*w+(-1-1/2*w)*i+(1-3/2*w)*j+1/2*w*k",
        "-1/2+3/2*w+(3/2+1/2*w)*i+(1/2-1/2*w)*j+(1/2-1/2*w)*k",
        "1/2-2*w+(-1/2+1/2*w)*i+j-1/2*w*k",
        "-1+w+1/2*i+(-1/2-3/2*w)*j+(1-1/2*w)*k",
        "-1+3/2*w+(-1/2-w)*i+j+(1/2+1/2*w)*k",
        "3/2*w+(-1/2+w)*i+(-1+w)*j+(-1/2-1/2*w)*k",
        "-1/2+3/2*w+1/2*w*i+w*j+3/2*k",
        "w+(-1+1/2*w)*i+(1/2-w)*j+(3/2+1/2*w)*k",
        "-1/2+1/2*w+(1-3/2*w)*i-w*j+(1/2+w)*k",
        "1/2*w+(1/2-w)*i+(-1-w)*j+(-3/2+1/2*w)*k",
        "-1/2+3/2*w+(-1-1/2*w)*i-3/2*k", "-1/2-1/2*w+(-1-1/2*w)*i+2*j+1/2*k",
        "1/2*w+(-1/2+3/2*w)*i+(1/2+w)*j+(-1+w)*k",
        "-1/2+(-1/2-3/2*w)*i+(1-w)*j+(-1+1/2*w)*k",
        "3/2-1/2*w+(1+w)*i+(1/2-w)*j+1/2*w*k",
        "-1/2+1/2*w+(-1/2-w)*i+1/2*w*j+2*k", "-3/2+(1+1/2*w)*j+(1/2-3/2*w)*k",
        "-1/2-2*i+(-1-1/2*w)*j+(-1/2-1/2*w)*k",
        "1/2*w-i+(-1/2+1/2*w)*j+(1/2-2*w)*k",
        "1/2+(-1-1/2*w)*i+(3/2+1/2*w)*j+(1-w)*k",
        "-1+1/2*w+(1-w)*i+(1/2+3/2*w)*j+1/2*k",
        "-3/2-w*i+1/2*w*j+(-1/2+3/2*w)*k", "-2-1/2*w-i+(1/2-1/2*w)*j-1/2*k",
        "-1/2*w+(1+w)*i+(3/2-1/2*w)*j+(1/2-w)*k",
        "w+(-1+1/2*w)*i+(1/2-w)*j+(-3/2-1/2*w)*k",
        "-3/2-1/2*w+i+3/2*j+1/2*w*k", "-1-w+(3/2-1/2*w)*i-1/2*w*j+(1/2-w)*k",
        "1/2+w+(-1/2+1/2*w)*i-2*j+1/2*w*k",
        "-3/2*i+(-1/2+3/2*w)*j+(1+1/2*w)*k",
        "2-1/2*i+(1/2+1/2*w)*j+(-1-1/2*w)*k",
        "1+1/2*w*i+(-1/2+2*w)*j+(-1/2+1/2*w)*k",
        "1+1/2*w+1/2*i+(-1+w)*j+(3/2+1/2*w)*k",
        "-1+w+(-1+1/2*w)*i-1/2*j+(1/2+3/2*w)*k",
        "w-3/2*i+(1/2-3/2*w)*j+1/2*w*k", "1+(-2-1/2*w)*i+1/2*j+(1/2-1/2*w)*k",
        "-1-w-1/2*w*i+(-1/2+w)*j+(3/2-1/2*w)*k",
        "1-1/2*w+w*i+(3/2+1/2*w)*j+(1/2-w)*k",
        "-1+(-3/2-1/2*w)*i-1/2*w*j+3/2*k",
        "-3/2+1/2*w+(1/2-w)*i-1/2*w*j+(-1-w)*k",
        "3/2+(1+w)*i+(-1+1/2*w)*j+(-1/2+1/2*w)*k",
        "1/2-w-1/2*w*i+(-3/2+1/2*w)*j+(1+w)*k", "3/2-1/2*w*i+(3/2+1/2*w)*j+k",
        "1-3/2*w+(1/2-1/2*w)*i+(1/2+w)*j+w*k",
        "-1/2*w+2*i+(-1/2+1/2*w)*j+(1/2+w)*k",
        "-1/2*w+(-1/2+3/2*w)*i-3/2*j+w*k",
        "1/2+w+(-1+3/2*w)*i+(-1/2-1/2*w)*j+k",
        "1+1/2*w+(-1/2-1/2*w)*i-1/2*j+2*k", "-1-1/2*w+(1/2-3/2*w)*i-3/2*j",
        "-1/2-1/2*w-1/2*w*i+(1+w)*j+(3/2-w)*k",
        "-1/2+1/2*w-1/2*i+(-2-1/2*w)*j+k", "-3/2+(3/2+w)*i+1/2*j+1/2*k",
        "1/2+1/2*w+(1/2+1/2*w)*i+(1/2-3/2*w)*j+(-3/2-1/2*w)*k",
        "-1-1/2*w-3/2*w*i+(1-1/2*w)*j+(1+1/2*w)*k",
        "1+1/2*w-1/2*w*i+1/2*w*j+(-2-1/2*w)*k",
        "3/2+1/2*w+(-1/2-1/2*w)*i+(3/2+1/2*w)*j+(-1/2+1/2*w)*k",
        "3/2*w+(-1-1/2*w)*i+(-1-1/2*w)*j+(1-1/2*w)*k",
        "1/2-1/2*w+(-3/2-1/2*w)*i+(-1/2-1/2*w)*j+(3/2+1/2*w)*k",
        "w+(-1-w)*i+(1-w)*j+w*k",
        "-1/2-1/2*w+(-3/2-1/2*w)*i+(-1/2+1/2*w)*j+(-3/2-1/2*w)*k",
        "-3/2-1/2*w+(-1/2+1/2*w)*i+(3/2+1/2*w)*j+(1/2+1/2*w)*k", "1-i-2*w*j",
        "-3/2-w-3/2*i-1/2*j+1/2*k", "1/2+3/2*w-w*i+(1/2-w)*j+(-1+1/2*w)*k",
        "1/2-w+(-3/2-1/2*w)*i+3/2*w*k", "1/2*w+(1/2+3/2*w)*i+3/2*j-k",
        "1/2-2*w+(-1-1/2*w)*j+(1/2+1/2*w)*k",
        "-3/2*w+(-1+w)*i+(-1/2-1/2*w)*j+(-1/2-w)*k",
        "-2-1/2*w+(1/2-1/2*w)*i+(1/2+w)*j",
        "-1+1/2*w+w*i+(1/2+3/2*w)*j+(1/2-w)*k",
        "-1/2-w+(-1/2+w)*i+(1/2+w)*j-3/2*k",
        "-1/2*w+(1+w)*i+(-3/2+1/2*w)*j+(1/2+w)*k",
        "3/2*w+w*i+(-1/2-1/2*w)*j-3/2*k",
        "-1/2-1/2*w+(-3/2+1/2*w)*i+(1/2+3/2*w)*j+(1/2+1/2*w)*k",
        "-1/2+3/2*w+(1+w)*i+(-1/2+w)*j+1/2*w*k", "-3/2-1/2*w-3/2*w*i+j-1/2*k",
        "1/2-1/2*w+w*i+(3/2+w)*j+(-1+1/2*w)*k",
        "w-1/2*w*i+(1/2-2*w)*j+(-1/2-1/2*w)*k",
        "3/2+(1/2+1/2*w)*i+w*j+3/2*w*k",
        "1-1/2*w+(-1/2+w)*i-w*j+(1/2+3/2*w)*k",
        "-1+w+(1+3/2*w)*i-1/2*j+(1/2-1/2*w)*k",
        "1/2*w+(-1/2+w)*i+(-1-w)*j+(1/2-3/2*w)*k",
        "1/2*w+3/2*w*i-3/2*w*j+(-1+1/2*w)*k",
        "1+3/2*w-1/2*i+(-1+w)*j+(-1/2+1/2*w)*k",
        "-1+1/2*w+(-3/2-w)*i-w*j+(-1/2+1/2*w)*k",
        "1/2+(-1/2+2*w)*i+1/2*j+(-1/2-w)*k",
        "-1/2+3/2*w+(-1-1/2*w)*i-j+(-1/2-w)*k", "3/2*w+(-3/2-1/2*w)*i+1/2*j+k",
        "-w+(1/2-1/2*w)*i+(1-1/2*w)*j+(3/2+w)*k",
        "1/2*w+w*i+(1/2+1/2*w)*j+(1/2-2*w)*k", "-1/2-1/2*w+3/2*i-3/2*w*j+w*k",
        "1/2-w+(1-1/2*w)*i+(-1/2-3/2*w)*j-w*k",
        "-1-3/2*w+(-1+w)*i+(-1/2+1/2*w)*j-1/2*k",
        "1/2-w+1/2*w*i+(-1/2+3/2*w)*j+(-1-w)*k",
        "-3/2*w+1/2*w*i+(1-1/2*w)*j-3/2*w*k",
        "1/2+(1+3/2*w)*i+(1/2-1/2*w)*j+(-1+w)*k",
        "3/2+w+(-1+1/2*w)*i+(1/2-1/2*w)*j-w*k",
        "1/2-2*w+1/2*i+(1/2+w)*j+1/2*k", "1+1/2*w+(-1/2+3/2*w)*i+(1/2+w)*j-k",
        "w+(-1/2+1/2*w)*i+(-1+1/2*w)*j+(3/2+w)*k",
        "-3/2-1/2*w+1/2*i-3/2*w*j+k", "-1/2+1/2*w-1/2*w*i+2*w*j+(1/2-w)*k",
        "-1+(1/2+w)*i+(1/2-3/2*w)*j+(-1-1/2*w)*k",
        "w+(1-1/2*w)*i+(1/2-w)*j+(-1/2-3/2*w)*k",
        "1/2-3/2*w+(-1-1/2*w)*i-j+(-1/2-w)*k",
        "1-w-3/2*w*i+(1/2+w)*j+(-1/2-1/2*w)*k",
        "-1/2+(-1/2-w)*i+1/2*j+(1/2-2*w)*k", "-w+3/2*w*i+3/2*j+(-1/2-1/2*w)*k",
        "1+w+1/2*w*i+(1/2+w)*j+(3/2-1/2*w)*k",
        "-1/2-3/2*w+(1/2-3/2*w)*i+(1/2-1/2*w)*j+(1/2-1/2*w)*k",
        "1-w+(-1/2+1/2*w)*i+(1+3/2*w)*j+1/2*k",
    ],
    (octahedral, 14): [
        "5/2+3/2*w+(3/2+w)*i+(1/2+1/2*w)*j-1/2*k",
        "-2-3/2*w+(1+1/2*w)*i+(-1-w)*j+(-1-w)*k",
        "-1-1/2*w+(2+3/2*w)*i+(-2-w)*j",
        "1/2+(5/2+3/2*w)*i+(-1/2-1/2*w)*j+(-3/2-w)*k",
        "1/2+1/2*w+1/2*i+(-5/2-3/2*w)*j+(3/2+w)*k",
        "1/2+1/2*w+(5/2+2*w)*i+(1/2+1/2*w)*j+1/2*k",
        "1+1/2*w+(2+3/2*w)*i+(-1-w)*j+(1+w)*k",
        "-3/2-w+(3/2+3/2*w)*i+(1/2+1/2*w)*j+(-3/2-w)*k",
        "1/2+(3/2+w)*i+(5/2+3/2*w)*j+(1/2+1/2*w)*k",
        "-1/2+(-1/2-1/2*w)*i+(-1/2-1/2*w)*j+(-5/2-2*w)*k",
        "-1/2-1/2*w+(3/2+w)*i-1/2*j+(-5/2-3/2*w)*k",
        "(1+1/2*w)*i+(2+w)*j+(-2-3/2*w)*k",
        "1/2+1/2*w+(5/2+3/2*w)*i+(-3/2-w)*j-1/2*k",
        "-3/2-w+(3/2+w)*i+(3/2+3/2*w)*j+(-1/2-1/2*w)*k",
        "-1/2-1/2*w+(5/2+2*w)*i+1/2*j+(-1/2-1/2*w)*k",
        "-1-w+(-1-1/2*w)*i+(1+w)*j+(-2-3/2*w)*k",
        "1+w+(1+1/2*w)*i+(2+3/2*w)*j+(-1-w)*k",
        "-1/2-1/2*w-1/2*i+(-5/2-3/2*w)*j+(-3/2-w)*k",
        "1/2+1/2*w+(3/2+w)*i+(-3/2-3/2*w)*j+(-3/2-w)*k",
        "1/2+1/2*w+(1/2+1/2*w)*i-1/2*j+(-5/2-2*w)*k",
        "2+3/2*w+(1+w)*i+(-1-w)*j+(1+1/2*w)*k",
        "(2+3/2*w)*i+(1+1/2*w)*j+(-2-w)*k",
        "3/2+w+(5/2+3/2*w)*i-1/2*j+(-1/2-1/2*w)*k",
        "-3/2-w+1/2*i+(-1/2-1/2*w)*j+(-5/2-3/2*w)*k",
        "2+w+(-1-1/2*w)*j+1/2*w*k", "1/2+(1/2+1/2*w)*i+(-3/2-3/2*w)*j-1/2*k",
        "1+w+(1+w)*i+(-1-1/2*w)*j-1/2*w*k", "-1-1/2*w-1/2*w*i+(-2-w)*j",
        "3/2+1/2*w+1/2*i+(-1/2-1/2*w)*j+(-3/2-w)*k",
        "-1/2+(1/2+1/2*w)*i+(-3/2-1/2*w)*j+(-3/2-w)*k",
        "-1/2-1/2*w+1/2*i+1/2*j+(-3/2-3/2*w)*k",
        "1/2+1/2*w+(1/2+w)*i+(1/2+1/2*w)*j+(-3/2-w)*k",
        "3/2+1/2*w+(3/2+w)*i+1/2*j+(1/2+1/2*w)*k",
        "1+1/2*w+(1+w)*i-1/2*w*j+(-1-w)*k",
        "1/2+1/2*w+(3/2+w)*i+(1/2+w)*j+(-1/2-1/2*w)*k",
        "1/2+1/2*w+1/2*i+(-3/2-w)*j+(-3/2-1/2*w)*k",
        "3/2+w+1/2*i+(3/2+1/2*w)*j+(-1/2-1/2*w)*k", "1+1/2*w+1/2*w*j+(-2-w)*k",
        "1/2*w+(-1-w)*i+(1+1/2*w)*j+(-1-w)*k",
        "1/2-1/2*i+(3/2+3/2*w)*j+(-1/2-1/2*w)*k",
        "3/2+3/2*w+1/2*i+(1/2+1/2*w)*j+1/2*k",
        "3/2+w+1/2*i+(-3/2-1/2*w)*j+(-1/2-1/2*w)*k",
        "3/2+w+(1/2+1/2*w)*i+1/2*j+(-3/2-1/2*w)*k",
        "1/2+1/2*w-1/2*i+(-3/2-3/2*w)*j+1/2*k",
        "1+w+(-1-1/2*w)*i+1/2*w*j+(-1-w)*k",
        "1/2+1/2*w+(-1/2-1/2*w)*i+(-1/2-w)*j+(-3/2-w)*k",
        "-1/2-1/2*w+(-3/2-1/2*w)*i-1/2*j+(-3/2-w)*k",
        "-1/2*w*i+(1+1/2*w)*j+(-2-w)*k",
    ],
}


# the representatives at composite values when every line had its own
# search: the same ideals, but in another order, since the ideal of a
# product g*h is g*(h*O) and so depends on the generator g kept, not only
# on its ideal
SEARCHED_COMPOSITE_REPRESENTATIVES = {
    (hurwitz, 45): [
        "-4-3*i-4*j-2*k", "-6+2*i+j-2*k", "-4-4*i-3*j+2*k", "4*i+5*j+2*k",
        "2-2*i+j+6*k", "5*i+4*j-2*k", "2-i-6*j+2*k", "-2-5*j-4*k",
        "2*i-5*j+4*k", "-4+2*i+3*j-4*k", "-2+4*i+3*j+4*k", "-2-i+2*j-6*k",
        "5*i-2*j+4*k", "4+4*i-3*j-2*k", "-2+6*i+j+2*k", "2-2*i+j-6*k",
        "-4+5*j-2*k", "4-3*i-2*j-4*k", "2-i-2*j-6*k", "-2-4*i+3*j-4*k",
        "-2*i-5*j-4*k", "-4-2*i+3*j+4*k", "-2-5*j+4*k", "-2-i+6*j+2*k",
        "5*i-4*j-2*k", "2+2*i+j-6*k", "-4+4*i-3*j-2*k", "-4*i+5*j-2*k",
        "-6-2*i+j+2*k", "4-3*i+4*j-2*k", "-4-3*i+2*j-4*k", "-4+5*j+2*k",
        "-2-6*i+j-2*k", "2+2*i+j+6*k", "4-4*i-3*j+2*k", "5*i+2*j+4*k",
        "-4-3*i-2*j+4*k", "-4+4*i-3*j+2*k", "-2-2*i+j+6*k", "2+6*i+j-2*k",
        "4+5*j+2*k", "5*i-2*j-4*k", "5*i+4*j+2*k", "6+2*i+j+2*k",
        "4*i+5*j-2*k", "4-4*i-3*j-2*k", "-2-2*i+j-6*k", "4-3*i-4*j+2*k",
        "2-i+2*j+6*k", "2-5*j+4*k", "4+2*i+3*j+4*k", "2*i-5*j-4*k",
        "2+4*i+3*j-4*k", "-2-i-6*j-2*k", "5*i+2*j-4*k", "4+5*j-2*k",
        "-2+2*i+j-6*k", "2-6*i+j+2*k", "-4-4*i-3*j-2*k", "4-3*i+2*j+4*k",
        "2-i+6*j-2*k", "2-4*i+3*j+4*k", "4-2*i+3*j-4*k", "-2*i-5*j+4*k",
        "2-5*j-4*k", "-2-i-2*j+6*k", "-4-3*i+4*j+2*k", "-2+2*i+j+6*k",
        "-4*i+5*j+2*k", "4+4*i-3*j+2*k", "6-2*i+j-2*k", "5*i-4*j+2*k",
    ],
    (icosian, 44): [
        "3/2+1/2*w+(1/2-3/2*w)*i+(1/2-1/2*w)*j+(-1/2+1/2*w)*k",
        "-1/2+3/2*w+(-3/2-1/2*w)*i+(1/2-1/2*w)*j+(-1/2+1/2*w)*k",
        "-1/2+w+(1/2-2*w)*i+1/2*j+1/2*k", "-1/2+2*w+(1/2-w)*i+1/2*j+1/2*k",
        "-3/2+1/2*w+(-1/2-3/2*w)*i+(1/2-1/2*w)*j+(-1/2+1/2*w)*k",
        "2+1/2*w+(-1+1/2*w)*i+1/2*w*j+1/2*w*k", "-1-w+(1-w)*i-j+k",
        "1-1/2*w+(-2-1/2*w)*i+1/2*w*j+1/2*w*k", "1-w+(-1-w)*i-j+k",
        "3/2-1/2*w+(-1/2-3/2*w)*i+(-1/2+1/2*w)*j+(-1/2+1/2*w)*k",
        "-3/2-1/2*w+(1/2-3/2*w)*i+(-1/2+1/2*w)*j+(-1/2+1/2*w)*k",
        "1/2-3/2*w+(-3/2-1/2*w)*i+(-1/2+1/2*w)*j+(-1/2+1/2*w)*k",
        "(2+1/2*w)*i+(1/2-w)*j+(1/2-1/2*w)*k",
        "1/2+(-1/2+2*w)*i+(1/2-w)*j-1/2*k",
        "-1+3/2*w+(1/2+w)*i-w*j+(1/2-1/2*w)*k", "-3/2+1/2*w+3/2*w*i-w*j+1/2*k",
        "3/2*w+(-1/2+w)*i+(1-w)*j+(-1/2-1/2*w)*k",
        "1-3/2*w+(1+1/2*w)*i+(-1-1/2*w)*j+1/2*w*k",
        "-1+3/2*w-w*i+(-1/2+1/2*w)*j+(-1/2-w)*k",
        "2+(1/2+1/2*w)*i+(-1-1/2*w)*j-1/2*k",
        "1+1/2*w+i+(-3/2+1/2*w)*j+(-1/2-w)*k",
        "1+1/2*w+2*i+(-1/2-1/2*w)*j-1/2*k", "-1/2+2*w-1/2*w*i+(1/2-1/2*w)*j-k",
        "2+1/2*w+(1/2-1/2*w)*i-1/2*j-k", "1/2-2*w-1/2*i+1/2*j+(-1/2+w)*k",
        "-2-1/2*w+(-1/2+1/2*w)*j+(-1/2+w)*k",
        "-1/2-3/2*w+(3/2-1/2*w)*i+(1/2-1/2*w)*j+(-1/2+1/2*w)*k",
        "-1-w+(1-3/2*w)*i+1/2*j+(-1/2+1/2*w)*k",
        "-1-1/2*w+(3/2+1/2*w)*i-1/2*j+(-1+w)*k",
        "-1/2-w-2*i+1/2*w*j+(1/2-1/2*w)*k",
        "1+(2+1/2*w)*i+1/2*j+(1/2-1/2*w)*k",
        "-1-w+(-1+3/2*w)*i-1/2*j+(1/2-1/2*w)*k",
        "-w+3/2*w*i+1/2*j+(3/2-1/2*w)*k", "1/2-2*w+(-1/2+w)*i-1/2*j+1/2*k",
        "1/2-1/2*w+(2+1/2*w)*i-j-1/2*k", "-1/2*w+(-1/2+2*w)*i-j+(1/2-1/2*w)*k",
        "1/2+(1/2-2*w)*i+(1/2-w)*j+1/2*k",
        "(-2-1/2*w)*i+(1/2-w)*j+(-1/2+1/2*w)*k",
        "-3/2+1/2*w+(-1/2-3/2*w)*i+(1/2-1/2*w)*j+(1/2-1/2*w)*k",
        "-1+3/2*w+(-1-w)*i+(1/2-1/2*w)*j+1/2*k",
        "-3/2-1/2*w+(-1-1/2*w)*i+(1-w)*j-1/2*k",
        "2+(-1/2-w)*i+(-1/2+1/2*w)*j+1/2*w*k",
        "-2-1/2*w+i+(-1/2+1/2*w)*j+1/2*k",
        "1-3/2*w+(-1-w)*i+(-1/2+1/2*w)*j-1/2*k",
        "-3/2*w-w*i+(-3/2+1/2*w)*j+1/2*k", "1/2-w+(1/2-2*w)*i-1/2*j-1/2*k",
        "-2-1/2*w+(1/2-1/2*w)*i+1/2*j-k", "1/2-2*w-1/2*w*i+(-1/2+1/2*w)*j-k",
        "2+1/2*w+(1/2-1/2*w)*j+(-1/2+w)*k", "-1/2+2*w-1/2*i-1/2*j+(-1/2+w)*k",
        "1/2+w+(1-3/2*w)*i+(1/2-1/2*w)*j+w*k", "3/2*w+(3/2-1/2*w)*i+1/2*j+w*k",
        "-1/2+w-3/2*w*i+(-1/2-1/2*w)*j+(-1+w)*k",
        "1+1/2*w+(-1+3/2*w)*i+1/2*w*j+(1+1/2*w)*k",
        "-w+(1-3/2*w)*i+(-1/2-w)*j+(1/2-1/2*w)*k",
        "1/2+1/2*w-2*i-1/2*j+(1+1/2*w)*k",
        "1+(-1-1/2*w)*i+(-1/2-w)*j+(3/2-1/2*w)*k",
        "2+(-1-1/2*w)*i-1/2*j+(1/2+1/2*w)*k",
        "-1/2*w+(1/2-2*w)*i-j+(-1/2+1/2*w)*k",
        "1/2-1/2*w+(-2-1/2*w)*i-j+1/2*k", "-3/2+(3/2+w)*i+1/2*j+1/2*k",
        "1/2-3/2*w+(1/2+3/2*w)*i+(-1/2+1/2*w)*j+(-1/2+1/2*w)*k",
        "-3/2-1/2*w+(3/2+1/2*w)*i+(1/2-1/2*w)*j+(-1/2-1/2*w)*k",
        "3/2+1/2*w+(-3/2-1/2*w)*i+(1/2+1/2*w)*j+(-1/2+1/2*w)*k",
        "-1/2-w+(1/2-2*w)*i+1/2*j+1/2*k", "3/2*w+3/2*w*i+1/2*w*j+(-1+1/2*w)*k",
        "1/2-2*w+(-1/2-w)*i+1/2*j+1/2*k",
        "-3/2*w-3/2*w*i+(-1+1/2*w)*j+1/2*w*k",
        "-1/2+2*w+(-1/2-w)*i-1/2*j+1/2*k", "1/2+w+(1/2-2*w)*i-1/2*j+1/2*k",
        "-3/2-w+3/2*i+1/2*j+1/2*k",
        "-1/2-3/2*w+(-1/2+3/2*w)*i+(-1/2+1/2*w)*j+(-1/2+1/2*w)*k",
        "-3/2+(-3/2-w)*i+1/2*j+1/2*k", "1/2-w-2*w*i+1/2*w*j+(-1/2+1/2*w)*k",
        "-1+1/2*w+(-1-w)*i+(3/2+1/2*w)*j+1/2*k",
        "3/2-1/2*w+(1+w)*i+(-1/2-w)*j+1/2*w*k",
        "2*w+(1/2-1/2*w)*i-1/2*w*j+(1/2-w)*k",
        "-1/2-3/2*w+(-1/2+1/2*w)*i+(1/2-1/2*w)*j+(-1/2+3/2*w)*k",
        "3/2+w+(1/2-w)*i-1/2*j+(1/2-w)*k",
        "1/2+3/2*w+(1-w)*i-1/2*j+(-1-1/2*w)*k",
        "-1+1/2*w+2*w*i+(-1/2-1/2*w)*j-1/2*k",
        "-1+w+(3/2+w)*i+(-1/2-1/2*w)*j-1/2*w*k",
        "-1+w+(-1-3/2*w)*i+1/2*j+(1/2-1/2*w)*k",
        "1-1/2*w+(-1-3/2*w)*i+1/2*w*j+(-1+1/2*w)*k",
        "1/2+3/2*w+(1-w)*i+1/2*j+(-1-1/2*w)*k",
        "3/2+w+(-1+1/2*w)*i+(-1/2+1/2*w)*j-w*k",
        "1+3/2*w+(1-1/2*w)*i-1/2*w*j+(-1+1/2*w)*k",
        "-1-3/2*w+(-3/2+1/2*w)*i-1/2*j", "1/2-w+(3/2+w)*i+(1/2-w)*j-1/2*k",
        "-1/2+1/2*w+(-1-3/2*w)*i+(-1+w)*j-1/2*k",
        "1/2-1/2*w+2*w*i+(1/2-w)*j-1/2*w*k",
        "1-w+(1+3/2*w)*i-1/2*j+(1/2-1/2*w)*k",
        "-3/2-w+(1-w)*i+1/2*w*j+(1/2+1/2*w)*k",
        "-2*w+(1-1/2*w)*i+1/2*j+(1/2+1/2*w)*k",
        "1+w+3/2*i+(1/2-1/2*w)*j+(-1-1/2*w)*k",
        "1/2+3/2*w+(-1/2+w)*i+(-1+1/2*w)*j-w*k",
        "-1+w+(1/2+3/2*w)*i+(1+1/2*w)*j+1/2*k",
        "1-1/2*w+(3/2+w)*i+w*j+(-1/2+1/2*w)*k",
        "-1+1/2*w+(1+3/2*w)*i+(1-1/2*w)*j-1/2*w*k",
        "3/2-1/2*w+(-1-3/2*w)*i-1/2*k", "-3/2-w+(1/2-w)*i+1/2*j+(1/2-w)*k",
        "1+3/2*w+(-1/2+1/2*w)*i+1/2*j+(-1+w)*k",
        "-2*w+(1/2-1/2*w)*i+1/2*w*j+(1/2-w)*k",
        "-1-3/2*w+(1-w)*i+(-1/2+1/2*w)*j-1/2*k",
        "-1+w+(-3/2-w)*i+(-1/2-1/2*w)*j+1/2*w*k",
        "-1+1/2*w-2*w*i+(-1/2-1/2*w)*j+1/2*k",
        "-3/2+(1+w)*i+(1+1/2*w)*j+(1/2-1/2*w)*k",
        "1/2-w+(1/2+3/2*w)*i+w*j+(-1+1/2*w)*k", "-3/2-w+3/2*i+1/2*j-1/2*k",
        "-2*w+(-1/2+w)*i+(-1/2+1/2*w)*j-1/2*w*k",
        "-1-w+(1-1/2*w)*i+1/2*j+(-3/2-1/2*w)*k",
        "1+w+(-3/2+1/2*w)*i+1/2*w*j+(1/2+w)*k",
        "1/2-1/2*w-2*w*i+(1/2-w)*j+1/2*w*k",
        "-1/2+1/2*w+(1/2+3/2*w)*i+(-1/2+3/2*w)*j+(-1/2+1/2*w)*k",
        "1/2-w+(-3/2-w)*i+(1/2-w)*j+1/2*k",
        "1-w+(-1/2-3/2*w)*i+(-1-1/2*w)*j+1/2*k",
        "2*w+(1-1/2*w)*i-1/2*j+(1/2+1/2*w)*k",
        "3/2+w+(1-w)*i-1/2*w*j+(1/2+1/2*w)*k",
        "-1-3/2*w+(1-w)*i+(1/2-1/2*w)*j-1/2*k",
        "-1-3/2*w+(-1+1/2*w)*i+(-1+1/2*w)*j-1/2*w*k",
    ],
    (octahedral, 14): [
        "5/2+3/2*w+(3/2+w)*i+(1/2+1/2*w)*j-1/2*k",
        "-5/2-3/2*w+(3/2+w)*i-1/2*j+(1/2+1/2*w)*k",
        "-1/2-1/2*w+(3/2+w)*i-1/2*j+(5/2+3/2*w)*k",
        "1/2+1/2*w+(5/2+2*w)*i-1/2*j+(1/2+1/2*w)*k",
        "-5/2-2*w+(-1/2-1/2*w)*i+(-1/2-1/2*w)*j+1/2*k",
        "1+1/2*w+(2+3/2*w)*i+(-2-w)*k",
        "-5/2-3/2*w+(3/2+w)*i+1/2*j+(-1/2-1/2*w)*k",
        "-1-w+(-1-w)*i+(-1-1/2*w)*j+(2+3/2*w)*k",
        "1/2+(1/2+1/2*w)*i+(1/2+1/2*w)*j+(5/2+2*w)*k",
        "-3/2-w+(-1/2-1/2*w)*i+(3/2+3/2*w)*j+(-3/2-w)*k",
        "-5/2-2*w+(-1/2-1/2*w)*i+(1/2+1/2*w)*j+1/2*k",
        "-3/2-w+(1/2+1/2*w)*i+(3/2+3/2*w)*j+(3/2+w)*k",
        "-1/2-1/2*w+(-1/2-1/2*w)*i+1/2*j+(-5/2-2*w)*k",
        "1+1/2*w+(1+w)*i+(2+3/2*w)*j+(1+w)*k",
        "-1/2+(-1/2-1/2*w)*i+(5/2+3/2*w)*j+(-3/2-w)*k",
        "-3/2-3/2*w+(-1/2-1/2*w)*i+(-3/2-w)*j+(-3/2-w)*k",
        "-5/2-3/2*w+(3/2+w)*i+(1/2+1/2*w)*j-1/2*k",
        "-1/2+(-5/2-3/2*w)*i+(-3/2-w)*j+(-1/2-1/2*w)*k",
        "-1/2-1/2*w-1/2*i+(-5/2-3/2*w)*j+(-3/2-w)*k",
        "-5/2-3/2*w-1/2*i+(-1/2-1/2*w)*j+(-3/2-w)*k",
        "2+w+(-2-3/2*w)*i+(-1-1/2*w)*j",
        "-5/2-3/2*w+(-1/2-1/2*w)*i+(3/2+w)*j-1/2*k",
        "-1/2-1/2*w+(-5/2-2*w)*i+(-1/2-1/2*w)*j+1/2*k",
        "2+3/2*w+(-2-w)*j+(-1-1/2*w)*k", "2+w+(-1-1/2*w)*j+1/2*w*k",
        "1/2+(-3/2-3/2*w)*i+(-1/2-1/2*w)*j+1/2*k", "-1-1/2*w+1/2*w*i+(-2-w)*k",
        "-3/2-1/2*w+(-3/2-w)*i-1/2*j+(1/2+1/2*w)*k",
        "-1/2*w+(-1-1/2*w)*i+(-2-w)*k",
        "3/2+1/2*w+(3/2+w)*i-1/2*j+(1/2+1/2*w)*k",
        "-1/2+(3/2+3/2*w)*i+(-1/2-1/2*w)*j+1/2*k",
        "1/2+(3/2+3/2*w)*i+(-1/2-1/2*w)*j-1/2*k",
        "-1/2*w+(1+w)*i+(-1-1/2*w)*j+(1+w)*k",
        "1/2+1/2*i+(-3/2-3/2*w)*j+(-1/2-1/2*w)*k",
        "1+w+1/2*w*i+(1+w)*j+(-1-1/2*w)*k",
        "-1/2+(-1/2-1/2*w)*i+(-3/2-1/2*w)*j+(-3/2-w)*k",
        "2+w+1/2*w*i+(-1-1/2*w)*k",
        "-1/2-w+(1/2+1/2*w)*i+(1/2+1/2*w)*j+(3/2+w)*k",
        "-3/2-1/2*w+(1/2+1/2*w)*i+(3/2+w)*j+1/2*k",
        "-1/2-1/2*w+(1/2+w)*i+(3/2+w)*j+(1/2+1/2*w)*k",
        "-1/2+(3/2+w)*i+(1/2+1/2*w)*j+(-3/2-1/2*w)*k",
        "2+w+(1+1/2*w)*i+1/2*w*j",
        "-1/2+(-3/2-w)*i+(3/2+1/2*w)*j+(1/2+1/2*w)*k",
        "3/2+3/2*w-1/2*i+(-1/2-1/2*w)*j+1/2*k",
        "1/2+1/2*w+(-1/2-1/2*w)*i+(3/2+w)*j+(1/2+w)*k",
        "-3/2-w+(1/2+1/2*w)*i-1/2*j+(-3/2-1/2*w)*k",
        "-1-w+(-1-1/2*w)*i-1/2*w*j+(-1-w)*k",
        "-3/2-w+(-1/2-1/2*w)*i+1/2*j+(-3/2-1/2*w)*k",
    ],
}

@pytest.mark.parametrize("factory,top", REFERENCE_RANGES)
def test_enumerate_matches_reference(factory, top):
    # the reference keeps the first point of each ideal in its search
    # order; enumerate_by_index keeps another generator of the same ideal,
    # so the ideals must agree at every m, and the representatives at a
    # few prime values are pinned
    order = factory()
    for m in range(1, top + 1):
        got = order.enumerate_by_index(m)
        want = reference_enumerate(order, m)
        assert len(got) == len(want), m
        assert ({order.right_ideal(q) for q in got}
                == {order.right_ideal(q) for q in want}), m
        if (factory, m) in PRIME_REPRESENTATIVES:
            assert [str(q) for q in got] == PRIME_REPRESENTATIVES[factory, m]
            # the orbit walk keeps the lines' order: the k-th ideal is the
            # one the search gave the k-th line
            searched = [parse_quat(text, order.field_tag)
                        for text in SEARCHED_PRIME_REPRESENTATIVES[factory, m]]
            assert ([order.right_ideal(q) for q in got]
                    == [order.right_ideal(q) for q in searched]), m


@pytest.mark.parametrize("factory,m", list(COMPOSITE_REPRESENTATIVES))
def test_enumerate_pins_composite_representatives(factory, m):
    order = factory()
    assert composite_values(order, m)
    got = order.enumerate_by_index(m)
    assert [str(q) for q in got] == COMPOSITE_REPRESENTATIVES[factory, m]
    searched = [parse_quat(text, order.field_tag)
                for text in SEARCHED_COMPOSITE_REPRESENTATIVES[factory, m]]
    ideals = [order.right_ideal(q) for q in got]
    assert len(set(ideals)) == len(ideals)
    assert set(ideals) == {order.right_ideal(q) for q in searched}


@pytest.mark.parametrize("factory,top", REFERENCE_RANGES)
def test_integer_search_matches_reference(factory, top):
    order = factory()
    search = _ldl(reference_forms(order)[2])
    targets = {2 * value.trace() for m in range(1, top + 1)
               for value in norm_class_reps(order.field_tag, m)}
    for target in sorted(targets):
        assert (_solve_quadratic(search, target)
                == reference_vectors(order, target)), target


@pytest.mark.parametrize("order", all_orders() + [icosian_conj()],
                         ids=lambda o: o.name)
def test_integer_ldl_matches_rational_reference(order):
    gram = reference_forms(order)[2]
    assert _ldl(gram) == reference_search(gram) == search_of(order)._search


@st.composite
def positive_definite(draw):
    n = draw(st.integers(1, 8))
    a = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    return [[sum(row[s] * row[t] for row in a) + (s == t) for t in range(n)]
            for s in range(n)]


@settings(max_examples=150, deadline=None)
@given(positive_definite())
def test_integer_ldl_matches_rational_reference_drawn(gram):
    assert _ldl(gram) == reference_search(gram)


@pytest.mark.parametrize("gram", [
    [[0]], [[-3]], [[1, 1], [1, 1]], [[1, 2], [2, 1]],
    [[2, 0, 0], [0, 2, 0], [0, 0, -1]],
    [[sum(r[s] * r[t] for r in ((1, 2, 3), (1, 2, 3), (0, 1, 1)))
      for t in range(3)] for s in range(3)],
])
def test_integer_ldl_refuses_forms_not_positive_definite(gram):
    with pytest.raises(ArithmeticError, match="not positive definite"):
        _ldl(gram)


# -- ring structure ---------------------------------------------------


@pytest.mark.parametrize("order", all_orders(), ids=lambda o: o.name)
def test_basis_products_and_conjugates_stay_inside(order):
    for a in order.basis:
        assert order.contains(a.conj())
        for b in order.basis:
            assert order.contains(a * b)


@pytest.mark.parametrize("order", all_orders(), ids=lambda o: o.name)
def test_scalars_of_order_are_ring_of_integers(order):
    assert scalar_intersect(order.module) == RingElem(order.field_tag, 1)


@pytest.mark.parametrize("order", maximal_orders(), ids=lambda o: o.name)
def test_real_parts_generate_half_integers(order):
    doubled = [(c.coords()[0] + c.coords()[0]) for c in order.basis]
    acc = None
    for d in doubled:
        assert d.is_integral()
        if not d.is_zero():
            r = d.to_ring()
            acc = r if acc is None else ring_gcd(acc, r)
    assert acc == RingElem(order.field_tag, 1)


@pytest.mark.parametrize("factory,index", [
    (hurwitz, 2), (icosian, 16), (octahedral, 16),
])
def test_index_over_integer_coordinate_order(factory, index):
    order = factory()
    sub = lipschitz(order.field_tag)
    assert index_K(order.module, sub.module).absolute == index


@pytest.mark.parametrize("order", all_orders(), ids=lambda o: o.name)
def test_left_multiplication_index_is_norm_squared(order):
    rng = random.Random(23)
    for _ in range(6):
        q = rnd_element(order, rng, span=2)
        ideal = order.right_ideal(q)
        nrq = q.nr().to_ring()
        got = index_K(order.module, ideal)
        assert got.absolute == nrq.norm_abs() ** 2
        assert got.generator == (nrq * nrq).canonical_associate()


def test_golden_conjugate_order_relations():
    I = icosian()
    Ic = icosian_conj()
    assert I.module != Ic.module
    for a, b in zip(I.basis, Ic.basis):
        assert tuple(c.conj() for c in a.coords()) == b.coords()

    # the intersection is the half-integer order with scalars extended
    half_int = hnf_canonical(R5, Ambient.QUAT, [
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
        (HALF, HALF, HALF, HALF),
    ])
    inter = intersect(I.module, Ic.module)
    assert inter == half_int
    assert index_K(I.module, inter).absolute == 4
    assert index_K(Ic.module, inter).absolute == 4

    # 2(I + Ic) sits inside the integer-coordinate order, which sits
    # inside the intersection, with index 4 at each step
    L = lipschitz(R5).module
    doubled_sum = scale_module(module_sum(I.module, Ic.module),
                               RingElem(R5, 2))
    assert index_K(L, doubled_sum).absolute == 4
    assert index_K(inter, L).absolute == 4


def test_one_plus_i_swaps_conjugate_orders():
    I = icosian()
    Ic = icosian_conj()
    q = Quat(R5, 1, 1)
    left = I.right_ideal(q)                      # q * I
    right = hnf_canonical(R5, Ambient.QUAT,
                          [(b * q).coords() for b in Ic.basis])
    assert left == right


def test_imaginary_projection_displays():
    bcc = hnf_canonical(Q, Ambient.IM,
                        [(1, 0, 0), (0, 1, 0), (HALF, HALF, HALF)])
    assert im_project(hurwitz().module) == bcc
    cubic = hnf_canonical(Q, Ambient.IM, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert im_project(lipschitz(Q).module) == cubic
    halfw = fe(R2, 0, HALF)
    oct_im = hnf_canonical(R2, Ambient.IM, [
        (halfw, 0, 0), (0, halfw, 0), (HALF, HALF, HALF),
    ])
    assert im_project(octahedral().module) == oct_im


def test_order_modules_match_literal_spans():
    J = hurwitz()
    lit = hnf_canonical(Q, Ambient.QUAT, [
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (HALF, HALF, HALF, HALF),
    ])
    assert J.module == lit


def test_order_by_key():
    for key in ORDER_KEYS:
        assert order_by_key(key).name == key
    assert order_by_key("hurwitz") is hurwitz()
    assert order_by_key("lipschitz-r5") is lipschitz(R5)
    with pytest.raises(DomainError):
        order_by_key("nope")


def test_prime_values_are_searched_once_per_window():
    # the generators of each norm value are kept on the order, so the
    # composite m of a range build the ideals of each prime value once;
    # the cache keeps a window of the most recent values
    order = fresh_copy(hurwitz)
    primes = []
    pencil_rows = QuatOrder._pencil_rows

    def counting_pencil_rows(self, field):
        primes.append(field.pi)
        return pencil_rows(self, field)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QuatOrder, "_pencil_rows", counting_pencil_rows)
        for m in (9, 15, 3, 45, 27, 5, 105):
            order.enumerate_by_index(m)
    # the lines of P^1 over the primes 3, 5 and 7 only
    assert primes == [3, 5, 7]
    for m in range(1, 201):
        order.enumerate_by_index(m)
        assert len(order._value_cache) <= csmod.orders.ENUM_CACHE_WINDOW
    assert RingElem(Q, 199) in order._value_cache
    assert len(order._value_cache) == csmod.orders.ENUM_CACHE_WINDOW
