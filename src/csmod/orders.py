"""The concrete quaternion orders and enumeration of right ideals by norm.

Four orders are provided: the half-integer order over the rationals,
the golden-ratio order over Q(sqrt 5), the root-two order over
Q(sqrt 2) (these three are maximal), and the plain integer-coordinate
order available over every base field as a reference.

The maximal orders have class number one, so every primitive right
ideal is principal, and one of reduced norm prod(pi^k), factored by
rings.factor, is a product of ideals of prime reduced norm, unique once
the order of the primes is fixed (Conway & Smith, On Quaternions and
Octonions, ch. 5).  At a prime pi of the scalar ring O_K, O/pi*O is the
matrix ring M_2(F), F = O_K/pi (but for 2 over Q, where no reduced
generator has even norm), so the ideals of norm pi are the N(pi) + 1
lines L of P^1(F): I_L = {y : y mod pi has image in L} (Pizer, J.
Algebra 64 (1980); Kirschmer & Voight, SIAM J. Comput. 39 (2010)).  The
conditions of the lines form one pencil K - t*O of 4x4 matrices of rank
2 over F with one column space, so the same two rows span the rows of
each, and each line's echelon form comes from the 2x2 minors of those
two rows.  The units of reduced norm 1 act on these ideals, u*(g*O) =
(u*g)*O, through a group of order 12, 60 or 24.  The first ideal of
each orbit gets a Z-basis from its form and one generator g, a point of
least value of the form Tr(conj(pi)*2*nr) (all of norm pi) by a
Fincke-Pohst search in integers; a breadth-first walk with the basis
units s gives s*g to the other ideals of the orbit, each line read off
the pencil.  The generators are kept per prime, in one window of recent
values, and multiplied on flat pairs of ring numerators
(quat.pair_product): each ideal gets one quaternion.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain, combinations
from math import gcd, isqrt, lcm
from operator import mul

from .errors import DomainError, ResourceCapError
from .modlat import Ambient, OModule, _canonical, im_project
from .quat import Quat, _squares, hamilton_product, pair_product
from .rings import (FieldElem, FieldTag, RingElem, factor, norm_class_reps,
                    pair_canonical_associate, pair_euclid, pair_mul,
                    pair_norm, pair_round_quotient)
from .series import CASE_OF_FIELD, coefficient

DEFAULT_ENUM_CAP = 10_000
ENUM_CACHE_WINDOW = 32      # an order keeps the ideals of its last 32 primes


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


def _solve_quadratic(search, target: int, first: bool = False):
    """All integer vectors x with x^t G x == target, in integers (Fincke-
    Pohst), or only the first one found.  Each level scans all of the
    interval its remaining budget allows, from the floor of the center
    downward and then upward."""
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
                    if first:
                        return True
            return
        s = isqrt(rem // weight)                # |den*x_j + c| <= s
        base = -c // den
        lo = -((s + c) // den)
        hi = (s - c) // den
        for xj in chain(range(base, lo - 1, -1), range(base + 1, hi + 1)):
            x[j] = xj
            y = den * xj + c
            if rec(j - 1, rem - weight * y * y):
                return True

    rec(n - 1, scale * target)
    return out


class _ResidueField:
    """F = O_K/pi for a prime pi of the scalar ring, its elements (the
    residues) the ints 0, 1, ..., N(pi) - 1: a + b*omega is (a + w*b) mod
    p when F = F_p, omega = w in F, and (a mod p) + (b mod p)*p when pi =
    p is inert and F = F_p^2, whose products alone run on pairs."""

    def __init__(self, pi: RingElem):
        self.pi, self.omega_sq, self.size = pi, pi.tag._omega_sq, pi.norm_abs()
        p = isqrt(self.size)
        self.inert = p * p == self.size
        self.p = p if self.inert else self.size
        # omega = -a/b mod pi = a + b*omega; b = 0 if pi is inert or in Z
        self.w = pi.b and -pi.a * pow(pi.b, -1, self.p)
        self.residues = range(self.size)
        self.pencil = None      # rows i, j of K and of O, set by _lines

    def matrix(self, cols):
        """The 4x4 matrix over F with the columns cols, each the ring
        coordinates of an element as flat pairs."""
        return [[self.red(*y[k:k + 2]) for y in cols] for k in range(0, 8, 2)]

    def red(self, a: int, b: int) -> int:
        p = self.p
        return a % p + b % p * p if self.inert else (a + self.w * b) % p

    def pair(self, x: int):     # a representative (a, b) of x
        return divmod(x, self.p)[::-1] if self.inert else (x, 0)

    def mul(self, x: int, y: int) -> int:
        if not self.inert:
            return x * y % self.p
        return self.red(*pair_mul(*self.pair(x), *self.pair(y),
                                  *self.omega_sq))

    def lin(self, x: int, f: int, y: int) -> int:
        """x - f*y."""
        if not self.inert:
            return (x - f * y) % self.p
        (a, b), (u, v) = self.pair(x), self.pair(self.mul(f, y))
        return self.red(a - u, b - v)

    def inv(self, x: int) -> int:
        if not self.inert:
            return pow(x, -1, self.p)
        (a, b), (c, e) = self.pair(x), self.omega_sq
        k = pow(pair_norm(a, b, c, e), -1, self.p)
        return self.red((a + e * b) * k, -b * k)

    def lift(self, x: int):
        """The representative x - q*pi of x, as a pair, for q = x/pi
        rounded half up (over Z the balanced residue, -1 for 1 mod 2): its
        norm is at most N(pi)/2 in absolute value."""
        if self.pi.tag.degree == 1:
            return x - self.p if 2 * x >= self.p else x, 0
        (a, b), (pa, pb) = self.pair(x), (self.pi.a, self.pi.b)
        qa, qb = pair_round_quotient(a, b, pa, pb, *self.omega_sq)
        ya, yb = pair_mul(qa, qb, pa, pb, *self.omega_sq)
        return a - ya, b - yb

    def dot(self, row, vec) -> int:
        """sum(row[k] * vec[k]), reduced once."""
        if not self.inert:
            return sum(map(mul, row, vec)) % self.p
        c, e = self.omega_sq
        return self.red(*map(sum, zip(*(
            pair_mul(*self.pair(x), *self.pair(y), c, e)
            for x, y in zip(row, vec)))))

    def two_row_echelon(self, r, s):
        """(pivots, rows) of the reduced row echelon form of the rows r and
        s over F, a canonical form of their span, from the minors m(a, b) =
        r[a]*s[b] - r[b]*s[a]: at rank 2, with pivots p < q, its rows are
        m(k, q)/m(p, q) and m(p, k)/m(p, q) (Cramer's rule)."""
        mul, lin = self.mul, self.lin
        p = next((k for k, x in enumerate(r) if x or s[k]), None)
        if p is None:
            return (), ()
        head = [lin(mul(r[p], y), x, s[p]) for x, y in zip(r, s)]  # m(p, k)
        q = next((k for k, m in enumerate(head) if m), None)
        if q is None:       # rank one: the row nonzero at p, scaled
            row = r if r[p] else s
            inv = self.inv(row[p])
            return (p,), (tuple(mul(inv, x) for x in row),)
        inv, rq, sq = self.inv(head[q]), r[q], s[q]
        return (p, q), (tuple(mul(inv, lin(mul(x, sq), rq, y))
                              for x, y in zip(r, s)),
                        tuple(mul(inv, m) for m in head))


class QuatOrder:
    """A fixed order with its canonical module basis and norm forms."""

    __slots__ = ("name", "field_tag", "basis", "maximal", "module",
                 "_zgen", "_forms", "_value_cache", "_im_module", "_units")

    def __init__(self, name: str, field_tag: FieldTag, basis, maximal: bool):
        self.name = name
        self.field_tag = field_tag
        self.basis = tuple(basis)
        self.maximal = maximal
        c, e = field_tag._omega_sq
        den = lcm(*(b.den for b in self.basis))
        rows = [[x * (den // b.den) for x in b.num] for b in self.basis]
        self.module = _canonical(field_tag, Ambient.QUAT, rows, den)
        # the Z-basis, the canonical columns and then omega times them, as
        # rows of ring numerators over the module's den; so an element's
        # ring coordinates are its Z-coordinates v as pairs (v[k], v[k+4])
        den, rows = self.module.den, [list(col) for col in self.module.pairs]
        if field_tag.degree == 2:
            rows += [[y for a, b in zip(row[::2], row[1::2])
                      for y in (c * b, a + e * b)] for row in rows]
        self._zgen = den, rows
        # 2*nr(q) = A + B*omega, two integral forms on the Z-basis
        rank = len(rows)
        na = [[0] * rank for _ in range(rank)]
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
                na[s][t] = na[t][s] = a
                nb[s][t] = nb[t][s] = b
        self._forms = na, nb
        self._value_cache = {}
        self._im_module = self._units = None

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

    def contains(self, q: Quat) -> bool:
        self._check_tag(q)
        return self.module.solve_pairs(q.num, q.den) is not None

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
        """The reduced generator for any nonzero q of the order's field:
        q's numerators over 1, which lie in O as 1, i, j and k do, less
        their content (and any two-sided even-norm factor).  R(q) and the
        conjugated order q O q^-1 are unchanged; for q in O the result is
        too, as the content of den*q is den times that of q."""
        q = Quat._new(q.tag, q.num, 1)
        ga, gb = self._content_in(q, "the zero quaternion defines no rotation")
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
        return self._products(q, None)

    def left_ideal(self, q: Quat) -> OModule:
        """Canonical module basis of O * q."""
        return self._products(None, q)

    def conjugated_order_module(self, q: Quat) -> OModule:
        """Canonical module basis of q * O * q^-1."""
        self._check_tag(q)
        return self._products(q, q.inverse())

    def _products(self, left, right) -> OModule:
        """The canonical module spanned by left * b * right over a basis b
        of O (None for 1), formed on flat numerator pairs."""
        den, gens = self._zgen[0], self._zgen[1][:4]
        c, e = self.field_tag._omega_sq
        for q, on_left in ((left, True), (right, False)):
            if q is not None:
                self._check_tag(q)
                if q.is_zero():
                    raise DomainError("zero generates no full-rank ideal")
                gens = [pair_product(q.num, g, c, e) if on_left else
                        pair_product(g, q.num, c, e) for g in gens]
                den *= q.den
        return _canonical(self.field_tag, Ambient.QUAT, gens, den)

    def _left_columns(self, z, den):
        """The columns of y -> z*y on ring coordinates, for the element with
        ring numerators z over den: the ring coordinates, as flat pairs, of
        z*b for each b of the O_K-basis (the first four rows of _zgen)."""
        (c, e), (zden, rows) = self.field_tag._omega_sq, self._zgen
        return [self.module.solve_pairs(pair_product(z, row, c, e), den * zden)
                for row in rows[:4]]

    def _unit_columns(self):
        """(s, _left_columns of s) for each s of basis[1:], all units of
        reduced norm 1; made on first use, not with the order."""
        if self._units is None:
            self._units = tuple((s, self._left_columns(s.num, s.den))
                                for s in self.basis[1:])
        return self._units

    def _pencil(self, field):
        """The matrices over F of y -> x*y and of y -> x*b*y mod pi on ring
        coordinates, the second lazily for each b of basis[1:] in turn: x
        is the first t + y, y = basis[1] + s*basis[2], s = 0, 1, ..., t a
        residue, with pi | nr(x), so x has rank one mod pi (its basis[1]
        coordinate is 1)."""
        c, e = self.field_tag._omega_sq
        b1, b2 = self.basis[1:3]
        d = b1.den * b2.den
        for s in range(field.p):
            x = [u * b2.den + s * w * b1.den for u, w in zip(b1.num, b2.num)]
            ta, tb = 2 * x[0] // d, 2 * x[1] // d
            na, nb = (sum(z) // (d * d) for z in zip(*_squares(x, c, e)))
            # the first residue t with pi | t^2 + t*Tr(x) + nr(x)
            t = next((t for t in map(field.pair, range(field.size))
                      if not field.red(*map(sum, zip(pair_mul(
                          *t, t[0] + ta, t[1] + tb, c, e), (na, nb))))),
                     None)
            if t:
                break
        else:
            raise ArithmeticError(f"{self.name}: no zero divisor {field.pi}")
        x[:2] = x[0] + t[0] * d, x[1] + t[1] * d
        return field.matrix(self._left_columns(x, d)), (
            field.matrix(self._left_columns(pair_product(x, b.num, c, e),
                                            d * b.den))
            for b in self.basis[1:])

    def _lines(self, field):
        """The echelon forms over F of the conditions of the N(pi) + 1
        ideals I_L, one per line L of P^1(F).  With K, O the matrices of
        _pencil for x and x' = x*b, b the first with another kernel than
        x, x - t*x' and x' have every kernel L once, and I_L = {y : z*y in
        pi*O} for z of kernel L.  K and O both have the column space x*O
        mod pi, of dimension 2, so K - t*O = G*(B0 - t*B1) with G of rank
        2: the first two rows i < j independent in K span the rows of
        every K - t*O and of O, and each form is the two-row echelon of
        those rows.  The forms must be distinct and have rank 2.  The rows
        i, j of K and O are left on the field as field.pencil."""
        kernel, others = self._pencil(field)
        for i, j in combinations(range(4), 2):
            first = field.two_row_echelon(kernel[i], kernel[j])
            if len(first[0]) == 2:
                break
        for other in others:
            last = field.two_row_echelon(other[i], other[j])
            if len(last[0]) == 2 and last != first:
                break
        lin = field.lin
        ki, kj, oi, oj = kernel[i], kernel[j], other[i], other[j]
        field.pencil = ki, kj, oi, oj
        lines = [field.two_row_echelon([lin(u, t, w) for u, w in zip(ki, oi)],
                                       [lin(u, t, w) for u, w in zip(kj, oj)])
                 for t in field.residues] + [last]
        ideals = {line for line in lines if len(line[0]) == 2}
        if len(ideals) != field.size + 1:
            raise ArithmeticError(
                f"{self.name}, pi = {field.pi}: {len(ideals)} distinct right "
                f"ideals of reduced norm pi, want N(pi) + 1 = "
                f"{field.size + 1}")
        return lines

    def _ideal_vectors(self, pi: RingElem):
        """The ring numerators, over the den of _zgen, of one generator per
        right ideal of reduced norm pi, a prime of the scalar ring, in the
        order of _lines.  The units s of basis[1:] act on those ideals, as
        s*(g*O) = (s*g)*O, through the unit group modulo +-1 (of order 12,
        60 or 24), so one search per orbit gives g, the first point of
        Tr(conj(pi)*2*nr(y)) = 2*N(pi)*Tr(1) on its ideal's Z-basis (there
        nr(y) = pi*alpha, alpha totally positive, and the trace is that
        small only at alpha = 1, AM-GM), and a breadth-first walk gives s*g
        to each line of its orbit.  The line of s*g is read off the pencil:
        with r' = M_s*r, r the ring coordinates of g mod pi, it is the t
        with (K_i - t*O_i)*r' = 0 (row j if O_i*r' = 0), or the last line
        if O*r' = 0.  Every generator must have norm pi and lie in the
        ideal of its line.  Kept for the last ENUM_CACHE_WINDOW values."""
        cache = self._value_cache
        if pi in cache:
            cache[pi] = cache.pop(pi)       # now the most recent
            return cache[pi]
        field = _ResidueField(pi)
        conj = pi.conj()
        alpha = conj.trace()
        beta = (conj * RingElem.omega(self.field_tag)).trace()
        form = [[alpha * x + beta * y for x, y in zip(ra, rb)]
                for ra, rb in zip(*self._forms)]
        target = 2 * (pi * conj).trace()
        (c, e), (zden, zrows) = self.field_tag._omega_sq, self._zgen
        dd, zcols, n = zden * zden, list(zip(*zrows)), len(zrows)
        lines = self._lines(field)
        ki, kj, oi, oj = field.pencil
        dot, size = field.dot, field.size
        units = [(s.num, s.den, field.matrix(cols))
                 for s, cols in self._unit_columns()]
        found = [None] * len(lines)

        def search(pivots, rows):
            basis = self._ideal_basis(pivots, rows, field)
            images = [[sum(map(mul, row, u)) for row in form] for u in basis]
            # the search is shortest with the shortest vectors innermost
            basis, images = zip(*sorted(zip(basis, images),
                                        key=lambda ui: sum(map(mul, *ui))))
            gram = [[0] * n for _ in range(n)]
            for s, w in enumerate(images):
                for t in range(s + 1):
                    gram[s][t] = gram[t][s] = sum(map(mul, w, basis[t]))
            point = _solve_quadratic(_ldl(gram), target, first=True)
            x = point[0] if point else [0] * n
            v = [sum(map(mul, x, col)) for col in zip(*basis)]
            return tuple(sum(map(mul, v, col)) for col in zcols)

        def place(k, nums):
            # found[k] = nums, an element of norm pi in the ideal of line k;
            # its ring coordinates mod pi
            y = self.module.solve_pairs(nums, zden)
            ring = y and [field.red(*y[i:i + 2]) for i in range(0, 8, 2)]
            norm = [sum(z) for z in zip(*_squares(nums, c, e))]
            if (y is None or norm != [pi.a * dd, pi.b * dd]
                    or any(dot(r, ring) for r in lines[k][1])):
                raise ArithmeticError(
                    f"{self.name}, pi = {pi}: the generator {nums} of the "
                    f"ideal {lines[k]} is not in it or has nr != pi")
            found[k] = nums
            return ring

        def line_of(r):
            for o, k in ((oi, ki), (oj, kj)):
                d = dot(o, r)
                if d:
                    return field.mul(dot(k, r), field.inv(d))
            return size

        filled = 0
        for start, line in enumerate(lines):
            if found[start] is not None:
                continue
            g = search(*line)
            orbit = [(place(start, g), g)]
            for ring, g in orbit:
                if filled + len(orbit) == len(lines):
                    break
                for snum, sden, matrix in units:
                    k = line_of([dot(row, ring) for row in matrix])
                    if found[k] is None:
                        y = tuple(x // sden for x in pair_product(snum, g,
                                                                  c, e))
                        orbit.append((place(k, y), y))
            filled += len(orbit)
        cache[pi] = found = tuple(found)
        if len(cache) > ENUM_CACHE_WINDOW:
            del cache[next(iter(cache))]        # the least recently used
        return found

    def _ideal_basis(self, pivots, rows, field):
        """A Z-basis of {y in O : the rows (echelon, over F) kill y mod pi}:
        on ring coordinates, e_m minus the lifts of the column m on the
        pivots for each free m, pi*e_j for each pivot j, omega times each."""
        (c, e), pi = self.field_tag._omega_sq, field.pi
        rank = len(self._zgen[1])
        basis = []
        for m in range(4):
            u = [(0, 0)] * 4
            u[m] = (pi.a, pi.b) if m in pivots else (1, 0)
            for j, r in zip(pivots, rows):
                if m not in pivots:
                    u[j] = tuple(-x for x in field.lift(r[m]))
            for _ in range(rank // 4):
                basis.append(([a for a, _ in u] + [b for _, b in u])[:rank])
                u = [(c * b, a + e * b) for a, b in u]
        return basis

    def check_indices(self, lo: int, hi: int, cap: int | None = None):
        """Raise what enumerate_by_index raises at the first m in lo..hi
        that it refuses, without enumerating; nothing if it takes all."""
        limit = DEFAULT_ENUM_CAP if cap is None else cap
        if lo > hi:
            return
        if lo < 1:
            raise DomainError("index must be a positive integer")
        if not self.maximal and lo <= limit:
            raise DomainError(
                "enumeration by reduced norm needs a maximal order")
        if hi > limit:
            raise ResourceCapError(f"norm {max(lo, limit + 1)} exceeds the "
                                   f"enumeration cap {limit}")

    def _product_generators(self, factors):
        """One reduced generator per right ideal whose reduced norm is
        prod(pi^k) over the factors (pi, k) of a norm value: with class
        number one, those for pi^k are those for pi^(k-1) times those for
        pi where the product stays primitive, and the coprime parts are
        multiplied in factor order, on integer numerators, into one Quat
        each.  A unit value (no factors) has the one ideal O."""
        c, e = self.field_tag._omega_sq
        den = self._zgen[0]
        gens = None
        for pi, k in factors:
            primes = self._ideal_vectors(pi)
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
        if gens is None:
            return [Quat.one(self.field_tag)]
        return [Quat.ratio(self.field_tag, x, gens_den) for x in gens]

    def _is_primitive_product(self, x, den: int) -> bool:
        """Whether the element with ring numerators x (see _ideal_vectors)
        over den has unit content."""
        y = self.module.solve_pairs(x, den)
        return self._content_of(zip(y[::2], y[1::2])) == (1, 0)

    def enumerate_by_index(self, m: int, cap: int | None = None):
        """One reduced representative per right ideal q*O with
        norm_abs(nr q) = m, taken per value of norm_class_reps: the
        products of generators of prime reduced norm over the value's
        factors (see _product_generators), whose reduced norm is the value
        up to a totally positive unit."""
        self.check_indices(m, m, cap)
        reps = []
        if not (self._strips_even_norms() and m % 2 == 0):
            for value in norm_class_reps(self.field_tag, m):
                reps += self._product_generators(factor(value)[1])
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
