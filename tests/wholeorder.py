"""The whole-order search, kept as the oracle of prime-norm enumeration.

It enumerates the right ideals of a reduced norm value by searching the
whole order for the elements of that norm and classifying them by orbits
of the norm-one units: two elements of the same exact norm generate the
same right ideal q*O iff they differ by a unit of reduced norm one on the
right, and these units form a finite group (24, 120 or 48 elements).  It
shares no code with the construction from the lines of P^1(O_K/pi) that
csmod.orders uses, beyond the integer lattice search.

Embedding: the totally positive form q |-> Tr(2*nr(q)) on the order's
Z-basis (the basis, then omega times the basis), searched with
csmod.orders._ldl and _solve_quadratic; then B of 2*nr = A + B*omega
alone fixes the exact norm.  Orbits are classified in integers, once
each: a point is keyed by its coordinates on the Z-basis of the order's
canonical module, packed into KEY_BITS-bit slots, and the keys of its
orbit {v*u} are one dot product per unit with a table built from the
structure constants.  At the first unmarked point of an orbit the
exact-norm and primitivity checks run once and all |U| keys are marked.
"""

from math import lcm
from operator import mul

from csmod import orders
from csmod.quat import Quat, pair_product
from csmod.rings import RingElem, pair_mul

KEY_BITS = 24               # slot width of the packed orbit keys


class WholeOrderSearch:
    """The whole-order search and unit orbits of one order."""

    def __init__(self, order):
        self.order = order
        self.name = order.name
        self.field_tag = tag = order.field_tag
        self.module = order.module
        c, e = tag._omega_sq
        den = lcm(*(b.den for b in order.basis))
        rows = [[x * (den // b.den) for x in b.num] for b in order.basis]
        if tag.degree == 2:
            rows += [[y for a, b in zip(row[::2], row[1::2])
                      for y in (c * b, a + e * b)] for row in rows]
        self._zgen = den, rows
        self._zcols = list(zip(*rows))
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
                a, b = 2 * a // (den * den), 2 * b // (den * den)
                gram[s][t] = gram[t][s] = RingElem(tag, a, b).trace()
                nb[s][t] = nb[t][s] = b
        self._nb = nb if tag.degree == 2 else None
        self._search = orders._ldl(gram)
        self._units = None
        self._orbits = None

    def right_ideal(self, q):
        return self.order.right_ideal(q)

    def _norm_vectors(self, value):
        """Z-coordinates of every order element with reduced norm exactly
        the given value, in search order."""
        return [v for v in orders._solve_quadratic(self._search,
                                                   2 * value.trace())
                if self._has_norm(v, value)]

    def _has_norm(self, v, value) -> bool:
        """Whether a point v of the search for value has reduced norm
        exactly value: the search fixes the trace, then B alone decides."""
        nb = self._nb
        return nb is None or 2 * value.b == sum(
            vs * sum(map(mul, row, v)) for vs, row in zip(v, nb))

    def _is_primitive(self, v) -> bool:
        """Whether the element with Z-coordinates v has unit content."""
        return self.order._content_of(
            zip(v[:4], v[4:] or (0, 0, 0, 0))) == (1, 0)

    def _element(self, v):
        """The quaternion with Z-coordinates v."""
        return Quat.ratio(self.field_tag,
                          [sum(map(mul, v, col)) for col in self._zcols],
                          self._zgen[0])

    def _unit_vectors(self):
        """The Z-coordinates of the norm-one units, in search order."""
        if self._units is None:
            self._units = tuple(self._norm_vectors(
                RingElem(self.field_tag, 1)))
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

    def _ideal_vectors(self, value):
        """The Z-coordinates of one reduced generator per right ideal q*O
        with nr(q) exactly value: the first point of each unit orbit, in
        search order, whose norm is exactly value and whose content is 1."""
        units = len(self._unit_vectors())
        weights = self._orbit_table()[0]
        # right multiplication by a unit keeps the reduced norm and the
        # content, so each orbit {v*u} of the search is marked and
        # classified once, at its first point
        vectors = orders._solve_quadratic(self._search, 2 * value.trace())
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
        return found

    def right_ideals(self, value):
        """The canonical right ideals of reduced norm value, one per unit
        orbit of the search."""
        return [self.right_ideal(self._element(v))
                for v in self._ideal_vectors(value)]

