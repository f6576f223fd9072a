"""The concrete quaternion orders and exhaustive norm-class enumeration.

Four orders are provided: the half-integer order over the rationals,
the golden-ratio order over Q(sqrt 5), the root-two order over
Q(sqrt 2) (these three are maximal), and the plain integer-coordinate
order available over every base field as a reference.

Enumeration of elements by reduced norm embeds an order into Euclidean
space through the totally positive form q |-> Tr(2*nr(q)), integral of
rank 4 (degree-1 field) or 8 (degree-2 fields) on a Z-basis, whose Gram
matrix is summed from integer pair products.  For a target norm value, a
Fincke-Pohst search in integers against an LDL decomposition, made once
per order by fraction-free (Bareiss) elimination, is provably exhaustive.
Two elements of the same exact norm value generate the same right ideal
q*O iff they differ by a unit of reduced norm one on the right; these
units form a finite group (24, 120 or 48 elements), so ideals are told
apart by their unit orbits {q*u}, and the infinite unit group is never
walked.

Orbits are classified in integers, once each.  The search returns a
lattice point as its integer Z-coordinates v; its key packs its
coordinates on the Z-basis of the order's canonical module into one
integer with fixed-width slots, a dot product of v with fixed weights.
The structure constants of the order, read off by triangular solves in
the canonical module, give each unit u a table whose dot product with v
is the key of v*u.  Right multiplication by a unit keeps the reduced
norm and the content, so at the first unmarked point of an orbit the
exact-norm and primitivity checks run once and all |U| keys are marked;
every later point of the orbit is one set lookup.  Enumeration builds no
quaternion for the units and one per ideal, from integer dot products.

Every norm value nu takes one path.  The maximal orders have class
number one, so a primitive right ideal whose reduced norm is
nu = prod(pi^k), factored by rings.factor, is a product of ideals of
prime reduced norm, unique once the order of the primes is fixed (Conway
& Smith, On Quaternions and Octonions, ch. 5).  The search runs only at
the primes pi (nu = 1 and a prime nu are their own single factor), and
its generators are kept per value on the order, in one window of recent
values.  The generators for pi^k are those for pi^(k-1) times those for
pi whose product is primitive, and the coprime parts are multiplied in
factor order.  The products run on the ring numerators as flat integer
pairs, the layout of Quat.num and of module columns (quat.pair_product),
so a right ideal goes to modlat's canonical form as it is, and each
ideal gets one quaternion.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul

from .errors import DomainError, ResourceCapError
from .modlat import Ambient, OModule, _canonical, hnf_canonical, im_project
from .quat import Quat, hamilton_product, pair_product
from .rings import (FieldElem, FieldTag, RingElem, factor, norm_class_reps,
                    pair_canonical_associate, pair_euclid, pair_mul,
                    pair_norm)
from .series import CASE_OF_FIELD, coefficient

DEFAULT_ENUM_CAP = 10_000
ENUM_CACHE_WINDOW = 32      # an order keeps its last 32 norm values
KEY_BITS = 24               # slot width of the packed orbit keys


def _ldl(gram):
    """Integer search data of a positive definite integer matrix G: from
    its exact LDL^t decomposition, levels[j] = (w_j, d_j, (l_ij)_{i>j})
    with scale * x^t G x == sum_j w_j * (d_j*x_j + sum_i l_ij*x_i)^2.
    Bareiss elimination leaves the leading minor M_j+1 of G in a[j][j]
    and M_j+1 * L_ij in a[i][j]; then D_jj = M_j+1 / M_j."""
    n = len(gram)
    a = [list(row) for row in gram]
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            raise ArithmeticError("form is not positive definite")
        for i in range(k + 1, n):
            for j in range(k + 1, i + 1):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[j][k]) // prev
        prev = pivot
    levels, weights, prev = [], [], 1
    for j in range(n):
        minor = a[j][j]
        g = gcd(minor, *(a[i][j] for i in range(j + 1, n)))
        den = minor // g                    # lcm of the L_ij denominators
        levels.append((den, tuple(a[i][j] // g for i in range(j + 1, n))))
        g = gcd(minor, prev * den * den)    # D_jj / den^2 in lowest terms
        weights.append((minor // g, prev * den * den // g))
        prev = minor
    scale = lcm(*(d for _, d in weights))
    return tuple((w * (scale // d), den, coeffs)
                 for (w, d), (den, coeffs) in zip(weights, levels)), scale


def _solve_quadratic(search, target: int):
    """All integer vectors x with x^t G x == target, in integers (Fincke-
    Pohst).  Each level scans all of the interval its remaining budget
    allows, from the floor of the center downward and then upward."""
    levels, scale = search
    n = len(levels)
    x = [0] * n
    out = []

    def rec(j, rem):
        weight, den, coeffs = levels[j]
        c = sum(map(mul, coeffs, x[j + 1:]))    # the center is -c/den
        if j == 0:
            if rem % weight:
                return
            s = isqrt(rem // weight)
            if s * s * weight != rem:
                return
            for y in ((-s, s) if s else (0,)):
                if (y - c) % den == 0:
                    x[0] = (y - c) // den
                    out.append(tuple(x))
            return
        s = isqrt(rem // weight)                # |den*x_j + c| <= s
        base = -c // den
        lo = -((s + c) // den)
        hi = (s - c) // den
        for xj in chain(range(base, lo - 1, -1), range(base + 1, hi + 1)):
            x[j] = xj
            y = den * xj + c
            rec(j - 1, rem - weight * y * y)

    rec(n - 1, scale * target)
    return out


class QuatOrder:
    """A fixed order with its canonical module basis and search data."""

    __slots__ = ("name", "field_tag", "basis", "maximal", "module",
                 "_zgen", "_zcols", "_nb", "_search", "_value_cache",
                 "_units", "_orbits", "_im_module")

    def __init__(self, name: str, field_tag: FieldTag, basis, maximal: bool):
        self.name = name
        self.field_tag = field_tag
        self.basis = tuple(basis)
        self.maximal = maximal
        # the Z-basis, the basis followed by omega times the basis, as
        # rows of ring numerators (flat pairs) over one integer den, and
        # their integer columns
        c, e = field_tag._omega_sq
        den = lcm(*(b.den for b in self.basis))
        rows = [[x * (den // b.den) for x in b.num] for b in self.basis]
        self.module = _canonical(field_tag, Ambient.QUAT, rows, den)
        if field_tag.degree == 2:
            rows += [[y for a, b in zip(row[::2], row[1::2])
                      for y in (c * b, a + e * b)] for row in rows]
        self._zgen = den, rows
        self._zcols = list(zip(*rows))
        # 2*nr(q) = A + B*omega is an integral form on the Z-basis; the
        # search runs on its trace, and then B alone fixes nr(q)
        rank = len(rows)
        gram = [[0] * rank for _ in range(rank)]
        nb = [[0] * rank for _ in range(rank)]
        for s in range(rank):
            for t in range(s + 1):
                a = b = 0
                x, y = rows[s], rows[t]
                for k in range(0, 8, 2):
                    xa, xb = pair_mul(x[k], x[k + 1], y[k], y[k + 1], c, e)
                    a, b = a + xa, b + xb
                a, ra = divmod(2 * a, den * den)
                b, rb = divmod(2 * b, den * den)
                if ra or rb:
                    raise ArithmeticError("order basis is not integral")
                gram[s][t] = gram[t][s] = RingElem(field_tag, a, b).trace()
                nb[s][t] = nb[t][s] = b
        self._nb = nb if field_tag.degree == 2 else None
        self._search = _ldl(gram)
        self._value_cache = {}
        self._units = None
        self._orbits = None
        self._im_module = None

    def __repr__(self):
        return f"QuatOrder({self.name})"

    # -- membership ---------------------------------------------------

    def im_module(self) -> OModule:
        """Im(O), the rank-3 module of imaginary parts, made on first use."""
        if self._im_module is None:
            self._im_module = im_project(self.module)
        return self._im_module

    def _check_tag(self, q: Quat) -> None:
        if q.tag is not self.field_tag:
            raise DomainError("field tag does not match the order")

    def coordinates(self, q: Quat):
        self._check_tag(q)
        return self.module.solve(q.num, q.den)

    def contains(self, q: Quat) -> bool:
        return self.coordinates(q) is not None

    def content(self, q: Quat) -> RingElem:
        """Canonical gcd of the coordinates; largest scalar divisor in O."""
        return RingElem(self.field_tag, *self._content_in(
            q, "content of zero is undefined"))

    def _content_in(self, q: Quat, zero_error: str):
        """The content of q as a pair; DomainError outside O or at zero."""
        self._check_tag(q)
        coords = self.module.solve_pairs(q.num, q.den)
        if coords is None:
            raise DomainError("element is not in the order")
        if not any(coords):
            raise DomainError(zero_error)
        return self._content_of(zip(coords[::2], coords[1::2]))

    def _content_of(self, pairs):
        """The canonical gcd of ring elements given as pairs, as a pair;
        the running gcd is put in canonical form once, at the end."""
        tag = self.field_tag
        ga = gb = 0
        for a, b in pairs:
            ga, gb = pair_euclid(ga, gb, a, b, tag)
            if abs(pair_norm(ga, gb, *tag._omega_sq)) == 1:     # a unit
                return 1, 0
        if not (ga or gb):
            raise DomainError("content of zero is undefined")
        return pair_canonical_associate(ga, gb, tag)

    def is_unit(self, q: Quat) -> bool:
        if not self.contains(q):
            raise DomainError("element is not in the order")
        return q.nr().to_ring().is_unit()

    def is_reduced(self, q: Quat) -> bool:
        if not self.maximal:
            raise DomainError(
                "reducedness is defined here for the maximal orders only"
            )
        if self._content_in(q, "the zero element is not reduced") != (1, 0):
            return False
        if self._strips_even_norms():
            return q.nr().to_ring().norm_abs() % 2 == 1
        return True

    def _strips_even_norms(self) -> bool:
        # only the rational maximal order has a ramified two-sided prime
        return self.maximal and self.field_tag is FieldTag.RATIONAL

    def reduce_generator(self, q: Quat) -> Quat:
        """Divide out the content (and any two-sided even-norm factor),
        keeping the conjugated order q O q^-1 unchanged."""
        ga, gb = self._content_in(q, "cannot reduce zero")
        if (ga, gb) == (1, 0) and not self._strips_even_norms():
            return q    # already reduced, and in lowest terms as any Quat
        c, e = self.field_tag._omega_sq
        # q/g = q*conj(g)/N(g), with N(g) = g^2 over Q
        num = q.num
        nums = [y for k in range(0, 8, 2)
                for y in pair_mul(num[k], num[k + 1], ga + e * gb, -gb, c, e)]
        den = q.den * pair_norm(ga, gb, c, e)
        if self._strips_even_norms():
            # times (1-i)/2, which halves nr = sum(a^2)/den^2, an integer
            a = nums[::2]
            while sum(x * x for x in a) // den ** 2 % 2 == 0:
                a, den = hamilton_product(a, (1, -1, 0, 0)), 2 * den
            nums = [y for x in a for y in (x, 0)]
        return Quat.ratio(self.field_tag, nums, den)

    # -- ideals and enumeration ----------------------------------------

    def right_ideal(self, q: Quat) -> OModule:
        """Canonical module basis of q * O."""
        self._check_tag(q)
        if q.is_zero():
            raise DomainError("zero generates no full-rank ideal")
        den, rows = self._zgen
        c, e = self.field_tag._omega_sq
        return _canonical(self.field_tag, Ambient.QUAT,
                          [pair_product(q.num, row, c, e) for row in rows[:4]],
                          q.den * den)

    def conjugated_order_module(self, q: Quat) -> OModule:
        """Canonical module basis of q * O * q^-1."""
        self._check_tag(q)
        inv = q.inverse()
        return hnf_canonical(
            self.field_tag, Ambient.QUAT,
            [(q * b * inv).coords() for b in self.basis],
        )

    def _norm_vectors(self, value: RingElem):
        """Z-coordinates of every order element with reduced norm exactly
        the given value, in search order."""
        return [v for v in _solve_quadratic(self._search, 2 * value.trace())
                if self._has_norm(v, value)]

    def _has_norm(self, v, value: RingElem) -> bool:
        """Whether a point v of the search for value has reduced norm
        exactly value: the search fixes the trace, then B alone decides."""
        nb = self._nb
        return nb is None or 2 * value.b == sum(
            vs * sum(map(mul, row, v)) for vs, row in zip(v, nb))

    def _is_primitive(self, v) -> bool:
        """Whether the element with Z-coordinates v has unit content; its
        ring coordinates on the basis pair the first four entries of v,
        the integer parts, with the rest, the omega parts."""
        return self._content_of(zip(v[:4], v[4:] or (0, 0, 0, 0))) == (1, 0)

    def _numerators(self, v):
        """The ring numerators of the element with Z-coordinates v, as flat
        pairs over the den of the Z-basis: each integer is a dot product
        of v with an integer column of the Z-basis rows."""
        return [sum(map(mul, v, col)) for col in self._zcols]

    def _element(self, v) -> Quat:
        """The quaternion with Z-coordinates v."""
        return Quat.ratio(self.field_tag, self._numerators(v), self._zgen[0])

    def _unit_vectors(self):
        """The Z-coordinates of the norm-one units, in search order."""
        if self._units is None:
            one = RingElem(self.field_tag, 1)
            self._units = tuple(self._norm_vectors(one))
            # they are one orbit: the ideal O, generated by the first
            self._value_cache[one] = self._units[:1]
        return self._units

    def norm_one_units(self):
        """Every element of reduced norm one (a finite group)."""
        return list(map(self._element, self._unit_vectors()))

    def _orbit_table(self):
        """(weights, table, reach) of the packed orbit keys, made on first
        use.  A point is keyed by its coordinates y on the Z-basis of the
        canonical module (its triangular columns, then omega times them,
        so a triangular solve finds them), packed into KEY_BITS-bit slots
        as sum_r y_r * 2^(KEY_BITS*r).  The key is Z-linear: for the
        search's Z-basis zgen, weights[s] = key(zgen_s) and table[u][s] =
        key(zgen_s*u), from the structure constants key(zgen_s*zgen_t), so
        the keys of v and of v*u are dot products of v.  Keys are distinct
        while every |y_r| < 2^(KEY_BITS-1); on the orbit of v that holds
        while |v|_1 <= reach, as the y_r of v*u are at most |v|_1 * |u|_1
        times the largest structure constant."""
        if self._orbits is None:
            c, e = self.field_tag._omega_sq
            den, rows = self._zgen
            rank = len(rows)
            powers = [1 << KEY_BITS * r for r in range(rank)]

            def coordinates(nums, d):
                # ring coordinates of nums/d on the canonical basis, as pairs
                y = self.module.solve_pairs(nums, d)
                if y is None:
                    raise ArithmeticError("order basis is not closed")
                return list(zip(y[::2], y[1::2]))

            def z_coordinates(y, k):
                # canonical Z-coordinates of omega^k times ring coordinates y
                for _ in range(k):
                    y = [(c * b, a + e * b) for a, b in y]
                return ([a for a, _ in y] + [b for _, b in y])[:rank]

            # zgen_{s+4i}*zgen_{t+4j} = omega^(i+j)*basis[s]*basis[t], as
            # omega is central, so sixteen products of the basis suffice
            base = [[coordinates(pair_product(rows[s], rows[t], c, e),
                                 den * den) for t in range(4)]
                    for s in range(4)]
            prod = [[z_coordinates(base[s % 4][t % 4], s // 4 + t // 4)
                     for t in range(rank)] for s in range(rank)]
            packed = [[sum(map(mul, y, powers)) for y in row]
                      for row in prod[:4]]
            units = self._unit_vectors()
            size = (max(abs(x) for row in prod for y in row for x in y)
                    * max(sum(map(abs, u)) for u in units))
            # the key of zgen_s*u is k = A + B*2^half, A and B its packed
            # integer and omega coordinates, and zgen_{s+4}*u = omega*zgen_s*u
            # has key c*B + (A + e*B)*2^half.  A slot is at most size, so A
            # is the signed residue of k mod 2^half while reach >= 1
            half = 4 * KEY_BITS
            low, mask = 1 << half - 1, (1 << half) - 1
            table = []
            for u in units:
                row = [sum(map(mul, u, r)) for r in packed]
                for k in row[:rank - 4]:
                    a = ((k + low) & mask) - low
                    b = (k - a) >> half
                    row.append(c * b + (a + e * b << half))
                table.append(row)
            self._orbits = (
                [sum(map(mul, z_coordinates(coordinates(row, den), 0), powers))
                 for row in rows],
                table, ((1 << KEY_BITS - 1) - 1) // size)
        return self._orbits

    def _orbit_keys(self, v):
        """The keys of v*u for each unit u of norm_one_units(), in that
        order; see _orbit_table.  Refused when v is too long for them."""
        _, table, reach = self._orbit_table()
        if sum(map(abs, v)) > reach:
            raise ArithmeticError(f"{self.name}: the orbit of {v} overflows "
                                  f"{KEY_BITS}-bit key slots")
        return [sum(map(mul, v, w)) for w in table]

    def check_indices(self, lo: int, hi: int, cap: int | None = None):
        """Raise what enumerate_by_index raises at the first m in lo..hi
        that it refuses, without enumerating; nothing if it takes all."""
        limit = DEFAULT_ENUM_CAP if cap is None else cap
        # the first m refused, if any, is lo or the first m above the cap
        for m in (lo, max(lo, limit + 1)):
            if m > hi:
                return
            if m < 1:
                raise DomainError("index must be a positive integer")
            if m > limit:
                raise ResourceCapError(
                    f"norm {m} exceeds the enumeration cap {limit}")
            if not self.maximal:
                raise DomainError(
                    "enumeration by reduced norm needs a maximal order")

    def _ideal_vectors(self, value: RingElem):
        """The Z-coordinates of one reduced generator per right ideal q*O
        with nr(q) exactly value, by the whole-order search: the first
        point of each unit orbit, in search order, whose norm is exactly
        value and whose content is 1.  An order keeps the answers for its
        last ENUM_CACHE_WINDOW values."""
        units = len(self._unit_vectors())     # it keeps the value 1
        cache = self._value_cache
        if value in cache:
            cache[value] = cache.pop(value)     # now the most recent
            return cache[value]
        weights = self._orbit_table()[0]
        # right multiplication by a unit keeps the reduced norm and the
        # content, so each orbit {v*u} of the search is marked and
        # classified once, at its first point
        vectors = _solve_quadratic(self._search, 2 * value.trace())
        marked = set()
        found = []
        orbits = 0
        for v in vectors:
            if sum(map(mul, v, weights)) in marked:
                continue
            marked.update(self._orbit_keys(v))
            orbits += 1
            if self._has_norm(v, value) and self._is_primitive(v):
                # q*O == q'*O with nr(q) == nr(q') iff q' = q*u
                found.append(v)
        if not len(vectors) == len(marked) == units * orbits:
            raise ArithmeticError(
                f"{self.name}, m = {value.norm_abs()}, norm {value}: "
                f"{len(vectors)} points, {len(marked)} marked, {units} "
                f"units, {orbits} orbits")
        cache[value] = found = tuple(found)
        if len(cache) > ENUM_CACHE_WINDOW:
            del cache[next(iter(cache))]        # the least recently used
        return found

    def _product_generators(self, factors):
        """One reduced generator per right ideal whose reduced norm is
        prod(pi^k) over the factors (pi, k) of a norm value.  With class
        number one a primitive ideal of norm pi^k is, in one way, one of
        norm pi^(k-1) times one of norm pi, and an ideal of coprime norms
        the product of its parts.  So the generators for pi^k are those
        for pi^(k-1) times those for pi, where the product stays
        primitive, and the parts are multiplied in factor order.  The
        products run on integer numerators; each generator becomes one
        Quat at the end.  A prime value is its own single factor, with no
        products: its generators are those of the search."""
        c, e = self.field_tag._omega_sq
        den = self._zgen[0]
        gens = None
        for pi, k in factors:
            primes = list(map(self._numerators, self._ideal_vectors(pi)))
            power, d = primes, den
            for _ in range(k - 1):
                d *= den
                power = [x for x in (pair_product(y, p, c, e)
                                     for y in power for p in primes)
                         if self._is_primitive_product(x, d)]
            if gens is None:
                gens, gens_den = power, d
            else:
                gens = [pair_product(y, p, c, e) for y in gens for p in power]
                gens_den *= d
        return [Quat.ratio(self.field_tag, x, gens_den) for x in gens]

    def _is_primitive_product(self, x, den: int) -> bool:
        """Whether the element with ring numerators x (see _numerators)
        over den has unit content."""
        y = self.module.solve_pairs(x, den)
        return self._content_of(zip(y[::2], y[1::2])) == (1, 0)

    def enumerate_by_index(self, m: int, cap: int | None = None):
        """One reduced representative per right ideal q*O with
        norm_abs(nr q) = m, taken per value of norm_class_reps: the
        products of generators of prime reduced norm over the value's
        factors (see _product_generators), whose reduced norm is the value
        up to a totally positive unit.  At a prime value (or 1) that is
        the first point of an orbit of the search (see _ideal_vectors)."""
        self.check_indices(m, m, cap)
        reps = []
        if not (self._strips_even_norms() and m % 2 == 0):
            for value in norm_class_reps(self.field_tag, m):
                reps += self._product_generators(
                    factor(value).primes or ((value, 1),))
        # the maximal orders of one field are conjugate, and each has as
        # many right ideals of index m as the field's counting series says
        want = coefficient(CASE_OF_FIELD[self.field_tag], m)
        if len(reps) != want:
            raise ArithmeticError(
                f"{self.name}, m = {m}: {len(reps)} ideals, the counting "
                f"series says {want}")
        return reps


@lru_cache(maxsize=None)
def hurwitz() -> QuatOrder:
    tag = FieldTag.RATIONAL
    return QuatOrder("hurwitz", tag, [
        Quat.one(tag),
        Quat.i(tag),
        Quat.j(tag),
        Quat(tag, 1, 1, 1, 1) / 2,
    ], maximal=True)


@lru_cache(maxsize=None)
def icosian() -> QuatOrder:
    tag = FieldTag.ROOT_FIVE
    return QuatOrder("icosian", tag, [
        Quat.one(tag),
        Quat.i(tag),
        Quat(tag, 1, 1, 1, 1) / 2,
        Quat(tag, FieldElem(tag, 1, -1), FieldElem.omega(tag), 0, 1) / 2,
    ], maximal=True)


@lru_cache(maxsize=None)
def icosian_conj() -> QuatOrder:
    base = icosian()
    basis = [
        Quat(base.field_tag, *(c.conj() for c in b.coords()))
        for b in base.basis
    ]
    return QuatOrder("icosian-conj", base.field_tag, basis, maximal=True)


@lru_cache(maxsize=None)
def octahedral() -> QuatOrder:
    tag = FieldTag.ROOT_TWO
    w = FieldElem.omega(tag)
    return QuatOrder("octahedral", tag, [
        Quat.one(tag),
        Quat(tag, w, w, 0, 0) / 2,
        Quat(tag, w, 0, w, 0) / 2,
        Quat(tag, 1, 1, 1, 1) / 2,
    ], maximal=True)


_TAG_SHORT = {FieldTag.RATIONAL: "q", FieldTag.ROOT_FIVE: "r5",
              FieldTag.ROOT_TWO: "r2"}


@lru_cache(maxsize=None)
def lipschitz(tag: FieldTag) -> QuatOrder:
    return QuatOrder(f"lipschitz-{_TAG_SHORT[tag]}", tag, [
        Quat.one(tag), Quat.i(tag), Quat.j(tag), Quat.k(tag),
    ], maximal=False)


# every order by its key: the three maximal orders, one per field, first
_ORDERS = {
    "hurwitz": hurwitz,
    "icosian": icosian,
    "octahedral": octahedral,
    "lipschitz-q": partial(lipschitz, FieldTag.RATIONAL),
    "lipschitz-r5": partial(lipschitz, FieldTag.ROOT_FIVE),
    "lipschitz-r2": partial(lipschitz, FieldTag.ROOT_TWO),
}
ORDER_KEYS = tuple(_ORDERS)


def order_by_key(key: str) -> QuatOrder:
    factory = _ORDERS.get(key)
    if factory is None:
        raise DomainError(f"unknown order {key!r}; pick one of {ORDER_KEYS}")
    return factory()
