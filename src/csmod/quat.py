"""Quaternions with exact field coordinates and the Cayley rotation map.

A quaternion is stored in the basis {1, i, j, k} as the eight integers
[a0, b0, ..., a3, b3] of its four ring numerators a_r + b_r*omega, flat
integer pairs as the columns of a module are, over one positive integer
denominator in lowest terms.  Every derived quantity (reduced norm,
rotation matrix, cosine of the rotation angle) comes from integer pair
arithmetic and stays exact; the FieldElem coordinates are read-only
views.  Quat.ratio puts numerators over a denominator in lowest terms,
and rings.ring_columns the field coordinates the constructor takes over
their common denominator.  The Hamilton product is written once on
pairs, in pair_product, with omega central, and the Cayley formula once,
in cayley_pairs: it gives R(q) as a ring matrix over one ring element,
both as integer pairs.  That is the one form of a rotation matrix: the
module code and the matrix match of csm.quat_of_rotation take it as it
is, and only cayley_matrix, which no command calls, divides it out into
rows of field elements.  Nothing here normalizes by content or units;
that belongs to the order layer.
"""

from __future__ import annotations

from math import gcd

from .errors import DomainError
from .rings import (FieldElem, FieldTag, RingElem, _elems, _format_pair,
                    _parse_numerators, _times_conj, as_field, pair_mul,
                    ring_columns)


def hamilton_product(a, b):
    """Coordinates of the product of the quaternions with coordinates a
    and b (on 1, i, j, k), over any commutative ring of coefficients."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def pair_product(x, y, c: int, e: int) -> list[int]:
    """The Hamilton product of two quaternions given as the flat pairs of
    their ring numerators.  With A and B the integer and omega parts of
    x, and omega central with omega^2 = c + e*omega, the product is
    pair_mul on quaternion coefficients: AA' + c*BB' + (AB' + BA' +
    e*BB')*omega."""
    xa, xb, ya, yb = x[::2], x[1::2], y[::2], y[1::2]
    aa, bb = hamilton_product(xa, ya), hamilton_product(xb, yb)
    ab, ba = hamilton_product(xa, yb), hamilton_product(xb, ya)
    out = []
    for s, t, u, v in zip(aa, bb, ab, ba):
        out += s + c * t, u + v + e * t
    return out


def _squares(num, c: int, e: int):
    """The squares of the four ring numerators num, as pairs."""
    return [pair_mul(a, b, a, b, c, e) for a, b in zip(num[::2], num[1::2])]


class Quat:
    """Quaternion (x0 + x1*i + x2*j + x3*k)/den over one of the base
    fields.

    num holds the ring numerators x_r = num[2r] + num[2r+1]*omega as a
    tuple of eight integers and den is a positive int, in lowest terms,
    so equal quaternions have equal parts.  Instances are treated as
    immutable; arithmetic returns new objects.  The constructor takes
    the four coordinates as field elements, ring elements or rationals.
    """

    __slots__ = ("tag", "num", "den")

    def __init__(self, tag: FieldTag, x0, x1=0, x2=0, x3=0):
        self.tag = tag
        self.den, (self.num,) = ring_columns(tag, 4, ((x0, x1, x2, x3),))

    @classmethod
    def _new(cls, tag: FieldTag, num, den: int) -> "Quat":
        # num/den must already be in lowest terms with den > 0
        q = object.__new__(cls)
        q.tag = tag
        q.num = num
        q.den = den
        return q

    @classmethod
    def ratio(cls, tag: FieldTag, num, den: int) -> "Quat":
        """num/den in lowest terms, for the eight integers num of four
        ring numerators of the field tagged tag, as flat pairs, and a
        nonzero int den."""
        if den < 0:
            num, den = [-x for x in num], -den
        elif den == 0:
            raise ZeroDivisionError("quaternion with denominator 0")
        g = gcd(den, *num)
        if g != 1:
            num, den = [x // g for x in num], den // g
        return cls._new(tag, tuple(num), den)

    @classmethod
    def zero(cls, tag: FieldTag) -> "Quat":
        return cls(tag, 0)

    @classmethod
    def one(cls, tag: FieldTag) -> "Quat":
        return cls(tag, 1)

    @classmethod
    def i(cls, tag: FieldTag) -> "Quat":
        return cls(tag, 0, 1)

    @classmethod
    def j(cls, tag: FieldTag) -> "Quat":
        return cls(tag, 0, 0, 1)

    @classmethod
    def k(cls, tag: FieldTag) -> "Quat":
        return cls(tag, 0, 0, 0, 1)

    def coords(self) -> tuple[FieldElem, FieldElem, FieldElem, FieldElem]:
        """The four coordinates as field elements, a read-only view."""
        den = self.den
        return tuple(FieldElem.ratio(x, den)
                     for x in _elems(self.tag, self.num))

    def _coerce(self, other):
        """other as a Quat of this field: a Quat of it, or a scalar read
        once through as_field; NotImplemented for anything else."""
        if isinstance(other, Quat):
            if other.tag is not self.tag:
                raise DomainError("mixed field tags")
            return other
        try:
            s = as_field(self.tag, other)
        except TypeError:
            return NotImplemented
        return Quat._new(self.tag, (s.num.a, s.num.b, 0, 0, 0, 0, 0, 0),
                         s.den)

    # The operators work on the numerators and reduce the result once.

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Quat.ratio(self.tag, [x * o.den + y * self.den
                                     for x, y in zip(self.num, o.num)],
                          self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + -o

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return Quat._new(self.tag, tuple(-x for x in self.num), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        c, e = self.tag._omega_sq
        x, y = self.num, o.num
        if o.is_scalar():   # each ring numerator times the scalar's
            num = [z for k in range(0, 8, 2)
                   for z in pair_mul(x[k], x[k + 1], y[0], y[1], c, e)]
        else:
            num = pair_product(x, y, c, e)
        return Quat.ratio(self.tag, num, self.den * o.den)

    __rmul__ = __mul__  # only reached for scalars, which commute

    def __truediv__(self, other):
        try:
            s = as_field(self.tag, other)
        except TypeError:
            return NotImplemented
        return self * s.inverse()

    def conj(self) -> "Quat":
        a0, b0, *rest = self.num
        return Quat._new(self.tag, (a0, b0, *(-x for x in rest)), self.den)

    def nr(self) -> FieldElem:
        """Reduced norm, the sum of the squared coordinates."""
        sq = _squares(self.num, *self.tag._omega_sq)
        return FieldElem.ratio(RingElem(self.tag, sum(a for a, _ in sq),
                                        sum(b for _, b in sq)),
                               self.den * self.den)

    def trace(self) -> FieldElem:
        return FieldElem.ratio(RingElem(self.tag, 2 * self.num[0],
                                        2 * self.num[1]), self.den)

    def inverse(self) -> "Quat":
        n = self.nr()
        if n.is_zero():
            raise ZeroDivisionError("inverse of the zero quaternion")
        return self.conj() / n

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_scalar(self) -> bool:
        return not any(self.num[2:])

    def __eq__(self, other):
        if isinstance(other, Quat):
            return (self.tag is other.tag and self.den == other.den
                    and self.num == other.num)
        # a scalar is its field element, which another field's never equals
        return self.is_scalar() and self.coords()[0] == other

    def __hash__(self):
        if self.is_scalar():    # as the field element it equals
            return hash(self.coords()[0])
        return hash((self.tag, self.num, self.den))

    def __str__(self):
        return format_quat(self)

    def __repr__(self):
        return f"Quat[{self.tag.value}]({format_quat(self)})"


def cayley_pairs(x, c: int, e: int):
    """(rows, n) for the ring numerators x of a nonzero quaternion q as
    flat pairs, omega^2 = c + e*omega: a 3x3 ring matrix N, its rows as
    flat lists of integer pairs [a0, b0, a1, b1, a2, b2], and n = nr(x) as
    a pair (a, b), with R(q) = N/n.

    q's integer denominator cancels, since R(q) is invariant under
    rescaling q.  The Cayley formula is linear in the ten products of the
    coordinates, so it is applied to their a parts and their b parts."""
    prods = [pair_mul(x[s], x[s + 1], x[t], x[t + 1], c, e) for s, t in (
        (0, 0), (2, 2), (4, 4), (6, 6), (0, 2), (0, 4), (0, 6), (2, 4),
        (2, 6), (4, 6))]
    parts = []      # the entries and n, from the a parts, then the b parts
    for kk, ll, mm, vv, kl, km, kv, lm, lv, mv in zip(*prods):
        parts.append((kk + ll - mm - vv, 2 * (lm - kv), 2 * (km + lv),
                      2 * (kv + lm), kk - ll + mm - vv, 2 * (mv - kl),
                      2 * (lv - km), 2 * (kl + mv), kk - ll - mm + vv,
                      kk + ll + mm + vv))
    flat = [y for ab in zip(*parts) for y in ab]
    return (flat[0:6], flat[6:12], flat[12:18]), (flat[18], flat[19])


def cayley_matrix(q: Quat) -> tuple[tuple[FieldElem, ...], ...]:
    """Rotation matrix of conjugation by q, acting on pure quaternions,
    as three rows of three field elements.

    Satisfies Im(q*a*q^-1) = R*Im(a) for every quaternion a, and is
    invariant under rescaling q by a nonzero field scalar.
    """
    if q.is_zero():
        raise DomainError("the zero quaternion has no rotation matrix")
    c, e = q.tag._omega_sq
    rows, (na, nb) = cayley_pairs(q.num, c, e)
    # x/n = x*conj(n) / N(n), an integer denominator (n^2 over Q)
    quots = [_times_conj(xa, xb, na, nb, c, e)
             for row in rows for xa, xb in zip(row[::2], row[1::2])]
    return tuple(tuple(FieldElem.ratio(RingElem(q.tag, a, b), d)
                       for a, b, d in quots[r:r + 3]) for r in (0, 3, 6))


def axis_angle(q: Quat) -> tuple[tuple[FieldElem, FieldElem, FieldElem], FieldElem]:
    """Rotation axis and exact cosine of the rotation angle of R(q)."""
    if q.is_scalar():
        raise DomainError("a scalar quaternion has no rotation axis")
    # cos = (k^2 - l^2 - m^2 - v^2)/nr on the ring numerators of q
    c, e = q.tag._omega_sq
    (ka, kb), *rest = _squares(q.num, c, e)
    la, lb = sum(a for a, _ in rest), sum(b for _, b in rest)
    ca, cb, d = _times_conj(ka - la, kb - lb, ka + la, kb + lb, c, e)
    return (q.coords()[1:], FieldElem.ratio(RingElem(q.tag, ca, cb), d))


def parse_quat(text: str, tag: FieldTag) -> Quat:
    """Parse 'x0 + x1*i + x2*j + x3*k' with field-element coefficients.

    Composite coefficients of i, j, k must be parenthesized, e.g.
    '(1+w)*i - 2*j'.
    """
    *num, den = _parse_numerators(text, tag, True)
    return Quat.ratio(tag, num, den)


def format_quat(q: Quat) -> str:
    parts = []
    num = q.num
    if num[0] or num[1]:
        parts.append(_format_pair(num[0], num[1], q.den))
    for k, sym in ((2, "i"), (4, "j"), (6, "k")):
        if not (num[k] or num[k + 1]):
            continue
        s = _format_pair(num[k], num[k + 1], q.den)
        if s == "1":
            parts.append(sym)
        elif s == "-1":
            parts.append("-" + sym)
        elif "+" in s[1:] or "-" in s[1:]:
            parts.append(f"({s})*{sym}")
        else:
            parts.append(f"{s}*{sym}")
    if not parts:
        return "0"
    out = parts[0]
    for part in parts[1:]:
        out += part if part.startswith("-") else "+" + part
    return out
