"""Exact arithmetic in Z, Z[tau] and Z[sqrt(2)] and their fraction fields.

tau = (1 + sqrt(5))/2 is the golden ratio, so tau^2 = tau + 1; the three
rings are the rings of integers of Q, Q(sqrt(5)) and Q(sqrt(2)).  Ring
elements (RingElem) are integer pairs (a, b) for a + b*omega in the basis
{1, omega}, with omega equal to 1, tau or sqrt(2) according to the field
tag.  A field element (FieldElem) is a RingElem numerator over a positive
integer denominator in lowest terms, so all field arithmetic, parsing and
printing is integer arithmetic on the ring formulas; Fraction is imported
only by the FieldElem.a and .b views, its hash of a rational and
series.summatory.  All three rings are norm-Euclidean principal ideal
domains, which keeps gcds, contents, Hermite pivots and prime
factorization algorithmic.

Associates are normalized deterministically: the canonical associate of a
nonzero element is totally positive with embedding ratio sigma1/sigma2 in
[1, ratio(eps)), eps being the fundamental totally positive unit (tau^2,
respectively 3 + 2*sqrt(2)).  Every sign test below is done with integer
arithmetic; no floating point enters any ring computation.
"""

from __future__ import annotations

import re
from enum import Enum
from math import gcd, isqrt, lcm

from .errors import DomainError, ParseInputError


# per field: omega^2 = c + e*omega; then conj(a + b*omega) = (a + e*b) -
# b*omega, which is the identity over Q, where b = 0
_OMEGA_SQ = {"rational": (1, 0), "root5": (1, 1), "root2": (2, 0)}


class FieldTag(Enum):
    RATIONAL = "rational"
    ROOT_FIVE = "root5"
    ROOT_TWO = "root2"

    def __init__(self, value):
        # plain member attributes: the ring products read them on every
        # call, where a dict keyed by the member would hash it each time
        self.degree = 1 if value == "rational" else 2
        self._omega_sq = _OMEGA_SQ[value]


_RATIONAL = FieldTag.RATIONAL


class RingElem:
    """An element a + b*omega of Z, Z[tau] or Z[sqrt(2)].

    Instances are treated as immutable; arithmetic returns new objects.
    The per-field formulas (the omega^2 rule, conjugation, norm and trace)
    are written here once; FieldElem applies them to its numerator.
    """

    __slots__ = ("tag", "a", "b")

    def __init__(self, tag: FieldTag, a: int, b: int = 0):
        if not (isinstance(a, int) and isinstance(b, int)):
            raise TypeError(f"ring coordinates must be integers, got "
                            f"{a!r} and {b!r}")
        if b and tag is _RATIONAL:
            raise DomainError("rational integers have no omega part")
        self.tag = tag
        self.a = a
        self.b = b

    @classmethod
    def omega(cls, tag: FieldTag) -> "RingElem":
        if tag.degree == 1:
            return cls(tag, 1, 0)
        return cls(tag, 0, 1)

    def _coerce(self, other) -> "RingElem":
        if other.__class__ is RingElem or isinstance(other, RingElem):
            if other.tag is not self.tag:
                raise DomainError("mixed field tags")
            return other
        if isinstance(other, int):
            return RingElem(self.tag, other, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RingElem(self.tag, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o + -self

    def __neg__(self):
        return RingElem(self.tag, -self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        # over Q both omega parts are 0 and this is the integer product
        c, d = self.tag._omega_sq
        bb = self.b * o.b
        return RingElem(
            self.tag,
            self.a * o.a + c * bb,
            self.a * o.b + self.b * o.a + d * bb,
        )

    __rmul__ = __mul__

    def conj(self) -> "RingElem":
        return RingElem(self.tag, self.a + self.tag._omega_sq[1] * self.b,
                        -self.b)

    def norm_signed(self) -> int:
        """Field norm as a signed integer."""
        if self.tag is _RATIONAL:
            return self.a
        return pair_norm(self.a, self.b, *self.tag._omega_sq)

    def norm_abs(self) -> int:
        return abs(self.norm_signed())

    def trace(self) -> int:
        if self.tag is _RATIONAL:
            return self.a
        return 2 * self.a + self.tag._omega_sq[1] * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_unit(self) -> bool:
        return self.norm_abs() == 1

    def is_totally_positive(self) -> bool:
        # both embeddings positive <=> positive norm and positive trace
        return self.norm_signed() > 0 and self.trace() > 0

    def exact_div(self, other: "RingElem"):
        """self / other if it lies in the ring, else None."""
        o = self._coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero ring element")
        q = pair_exact_div(self.a, self.b, o.a, o.b, *self.tag._omega_sq)
        return None if q is None else RingElem(self.tag, *q)

    def divides(self, other: "RingElem") -> bool:
        return other.exact_div(self) is not None

    def canonical_associate(self) -> "RingElem":
        """The distinguished generator of the ideal (self): zero, |a| over
        Z, else see pair_canonical_associate."""
        return RingElem(self.tag, *pair_canonical_associate(
            self.a, self.b, self.tag))

    def to_field(self) -> "FieldElem":
        return FieldElem._new(self, 1)

    def __eq__(self, other):
        if isinstance(other, RingElem):
            return (self.tag is other.tag and self.a == other.a
                    and self.b == other.b)
        if isinstance(other, int):
            return self.a == other and self.b == 0
        return NotImplemented

    def __hash__(self):
        # elements of Z hash like the int they equal
        if self.b == 0:
            return hash(self.a)
        return hash((self.tag, self.a, self.b))

    def __str__(self):
        return _format_pair(self.a, self.b)

    def __repr__(self):
        return f"RingElem({self.tag.value}, {self})"


# Units used by the normalization, as pairs: eta has norm -1, eps = eta^2
# generates the totally positive units.
_NEG_NORM_UNIT = {FieldTag.ROOT_FIVE: (0, 1), FieldTag.ROOT_TWO: (1, 1)}
_TOT_POS_UNIT = {FieldTag.ROOT_FIVE: (1, 1), FieldTag.ROOT_TWO: (3, 2)}


class FieldElem:
    """An element num/den of Q, Q(sqrt5) or Q(sqrt2).

    num is a RingElem and den a positive int, always in lowest terms:
    gcd(num.a, num.b, den) == 1, so equal elements have equal parts.
    Instances are treated as immutable; arithmetic returns new objects.
    The constructor takes the rational coefficients of a + b*omega: ints,
    or any numbers.Rational, read through numerator and denominator.
    """

    __slots__ = ("num", "den")

    def __init__(self, tag: FieldTag, a, b=0):
        den = 1
        if a.__class__ is not int or b.__class__ is not int:
            from numbers import Rational    # kept off the start-up path
            for x in (a, b):
                if not isinstance(x, Rational):
                    raise TypeError(
                        f"cannot interpret {x!r} as a field element")
            den = a.denominator * b.denominator
            a, b = a.numerator * b.denominator, b.numerator * a.denominator
        if b and tag is _RATIONAL:
            raise DomainError("rational numbers have no omega part")
        g = gcd(a, b, den)
        self.num = RingElem(tag, a // g, b // g)
        self.den = den // g

    @classmethod
    def _new(cls, num: RingElem, den: int) -> "FieldElem":
        # num/den must already be in lowest terms with den > 0
        x = object.__new__(cls)
        x.num = num
        x.den = den
        return x

    @classmethod
    def ratio(cls, num: RingElem, den: int) -> "FieldElem":
        """num/den in lowest terms, for a nonzero int den."""
        if den < 0:
            num, den = -num, -den
        elif den == 0:
            raise ZeroDivisionError("field element with denominator 0")
        g = gcd(num.a, num.b, den)
        if g != 1:
            num = RingElem(num.tag, num.a // g, num.b // g)
            den //= g
        return cls._new(num, den)

    @classmethod
    def omega(cls, tag: FieldTag) -> "FieldElem":
        return RingElem.omega(tag).to_field()

    @property
    def tag(self) -> FieldTag:
        return self.num.tag

    @property
    def a(self):
        """The rational coefficient of 1, a Fraction."""
        from fractions import Fraction
        return Fraction(self.num.a, self.den)

    @property
    def b(self):
        """The rational coefficient of omega, a Fraction."""
        from fractions import Fraction
        return Fraction(self.num.b, self.den)

    def _coerce(self, other) -> "FieldElem":
        try:
            return as_field(self.num.tag, other)
        except TypeError:
            return NotImplemented

    # The operators delegate to RingElem on the numerators, which also
    # rejects mixed field tags.

    def __add__(self, other):
        o = other if other.__class__ is FieldElem else self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElem.ratio(self.num * o.den + o.num * self.den,
                               self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o + -self

    def __neg__(self):
        return FieldElem._new(-self.num, self.den)

    def __mul__(self, other):
        o = other if other.__class__ is FieldElem else self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElem.ratio(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o * self.inverse()

    def inverse(self) -> "FieldElem":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # d/x = conj(x)*d / (x*conj(x)); x*conj(x) is the integer N(x) in
        # degree 2 and x^2 over Q, where conj is the identity
        c = self.num.conj()
        return FieldElem.ratio(c * self.den, (self.num * c).a)

    def conj(self) -> "FieldElem":
        return FieldElem._new(self.num.conj(), self.den)

    def norm_signed(self) -> "FieldElem":
        """Field norm, a rational element of the same field."""
        tag = self.num.tag
        return FieldElem.ratio(RingElem(tag, self.num.norm_signed()),
                               self.den ** tag.degree)

    def trace(self) -> "FieldElem":
        """Field trace, a rational element of the same field."""
        return FieldElem.ratio(RingElem(self.num.tag, self.num.trace()),
                               self.den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_integral(self) -> bool:
        return self.den == 1

    def to_ring(self) -> RingElem:
        if self.den != 1:
            raise DomainError(f"{self} is not integral")
        return self.num

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.den == other.den and self.num == other.num
        if isinstance(other, RingElem):
            return self.den == 1 and self.num == other
        from numbers import Rational    # kept off the start-up path
        if isinstance(other, Rational):  # int or rational, in lowest terms
            return (self.num.b == 0 and self.num.a == other.numerator
                    and self.den == other.denominator)
        return False

    def __hash__(self):
        # equal values hash alike across rationals, RingElem and FieldElem
        if self.den == 1:
            return hash(self.num)
        if self.num.b == 0:
            return hash(self.a)
        return hash((self.num, self.den))

    def __str__(self):
        return _format_pair(self.num.a, self.num.b, self.den)

    def __repr__(self):
        return f"FieldElem({self.tag.value}, {self})"


def as_field(tag: FieldTag, value) -> FieldElem:
    """value as an element of the field tagged tag.

    Takes a FieldElem or RingElem of that field or a rational number;
    raises DomainError on another field's element and TypeError on
    anything else.
    """
    if isinstance(value, FieldElem):
        if value.num.tag is not tag:
            raise DomainError("mixed field tags")
        return value
    if isinstance(value, RingElem):
        if value.tag is not tag:
            raise DomainError("mixed field tags")
        return value.to_field()
    return FieldElem(tag, value)


def ring_columns(tag: FieldTag, n: int, vectors):
    """(den, columns): vectors of length n with entries of the field
    tagged tag (see as_field), written as the ring numerators over their
    least common denominator, each column a flat tuple of integer pairs
    (a0, b0, a1, b1, ...), one pair per entry a + b*omega.  That is in
    lowest terms, as each entry is: a prime power in den is the full
    power in the denominator of some entry, whose scaled numerator is
    then prime to it."""
    cols = []
    for vec in vectors:
        if len(vec) != n:
            raise DomainError(f"expected vectors of length {n}")
        cols.append([as_field(tag, e) for e in vec])
    den = lcm(*(f.den for col in cols for f in col))
    return den, [tuple(x * (den // f.den) for f in col
                       for x in (f.num.a, f.num.b)) for col in cols]


def _elems(tag: FieldTag, flat) -> tuple[RingElem, ...]:
    """A flat list of integer pairs as ring elements."""
    return tuple(RingElem(tag, a, b) for a, b in zip(flat[::2], flat[1::2]))


def pair_norm(a: int, b: int, c: int, e: int) -> int:
    """(a + b*omega)*conj(a + b*omega): the norm, or a^2 over Q (b = 0)."""
    return a * (a + e * b) - c * b * b


def pair_mul(xa: int, xb: int, ya: int, yb: int, c: int, e: int):
    """(xa + xb*omega)*(ya + yb*omega) as a pair; omega^2 = c + e*omega."""
    bb = xb * yb
    return xa * ya + c * bb, xa * yb + xb * ya + e * bb


def _times_conj(xa: int, xb: int, ya: int, yb: int, c: int, e: int):
    """(x*conj(y) as a pair, pair_norm of y) for x = xa + xb*omega and y
    with omega^2 = c + e*omega; the quotients below hold in both degrees."""
    ca, bb = ya + e * yb, -xb * yb   # conj(y) = ca - yb*omega
    return xa * ca + c * bb, xb * ca - xa * yb + e * bb, ya * ca - c * yb * yb


def pair_exact_div(xa: int, xb: int, ya: int, yb: int, c: int, e: int):
    """x/y as a pair (see _times_conj) if it lies in the ring, else None."""
    na, nb, d = _times_conj(xa, xb, ya, yb, c, e)
    return None if na % d or nb % d else (na // d, nb // d)


def _round_half_up(n: int, d: int) -> int:
    # floor(n/d + 1/2) for d != 0; translation-equivariant, which makes
    # Euclidean remainders depend only on the residue class of the dividend
    if d < 0:
        n, d = -n, -d
    return (2 * n + d) // (2 * d)


def pair_round_quotient(xa: int, xb: int, ya: int, yb: int, c: int, e: int):
    """x/y (see _times_conj) with each coordinate rounded half up.  The
    remainder x - q*y is y times the rounding error, whose norm is at most
    5/16 in absolute value in Z[tau] and 1/2 in Z and Z[sqrt(2)]."""
    na, nb, d = _times_conj(xa, xb, ya, yb, c, e)
    return _round_half_up(na, d), _round_half_up(nb, d)


def pair_canonical_associate(a: int, b: int, tag: FieldTag):
    """The canonical associate of a + b*omega as a pair: zero for zero,
    |a| over Z, and over the quadratic rings the totally positive
    associate whose embedding ratio sigma1/sigma2 lies in [1, ratio(eps))."""
    if tag is _RATIONAL or not (a or b):
        return abs(a), b
    c, e = tag._omega_sq
    if pair_norm(a, b, c, e) < 0:
        a, b = pair_mul(a, b, *_NEG_NORM_UNIT[tag], c, e)
    if 2 * a + e * b < 0:   # the trace
        a, b = -a, -b
    pa, pb = _TOT_POS_UNIT[tag]
    while b < 0:    # sigma1 < sigma2: push the ratio up
        a, b = pair_mul(a, b, pa, pb, c, e)
    pa, pb = pa + e * pb, -pb   # eps^-1 = conj(eps), as eps has norm 1
    while pair_mul(a, b, pa, pb, c, e)[1] >= 0:   # ratio >= ratio(eps)
        a, b = pair_mul(a, b, pa, pb, c, e)
    return a, b


def pair_euclid_divmod(xa: int, xb: int, ya: int, yb: int, tag: FieldTag):
    """(qa, qb, ra, rb) with x = q*y + r and N(r) < N(y) in absolute value
    for a nonzero y.  The quotient starts from pair_round_quotient; a
    small offset search then picks the remainder of least absolute norm
    (ties broken by coefficients), which makes the remainder depend only
    on the residue class of x."""
    c, e = tag._omega_sq
    qa, qb = pair_round_quotient(xa, xb, ya, yb, c, e)
    pa, pb = pair_mul(qa, qb, ya, yb, c, e)
    # omega*y = c*yb + (ya + e*yb)*omega; the offsets (da, db) move the
    # remainder by -da*y - db*omega*y (db = 0 over Q)
    wa, wb = c * yb, ya + e * yb
    best = None
    for db in (0, -1, 1)[:2 * tag.degree - 1]:
        sa, sb = xa - pa - db * wa, xb - pb - db * wb
        for da in (0, -1, 1):
            ra, rb = sa - da * ya, sb - da * yb
            key = (abs(ra * (ra + e * rb) - c * rb * rb), ra, rb)
            if best is None or key < best:
                best, q = key, (qa + da, qb + db)
    size, ra, rb = best
    if size >= abs(pair_norm(ya, yb, c, e)):
        raise ArithmeticError("euclidean division failed to reduce the norm")
    return (*q, ra, rb)


def pair_canonical_residue(xa: int, xb: int, ya: int, yb: int,
                           tag: FieldTag):
    """(qa, qb, ra, rb) with x = q*y + r and r the canonical
    representative of x modulo a nonzero y: it depends only on the coset
    x + y*O, which makes it usable for canonical matrix normal forms.
    Among the small remainders reachable from the Euclidean one it
    minimizes absolute norm, then absolute coefficients, preferring
    nonnegative ones (so 1 mod 2 reduces to 1, not -1).

    Over Z that is the balanced residue in (-|y|/2, |y|/2], which is
    computed directly: the norm r^2 orders remainders by |r|, and the tie
    at |y|/2 goes to the nonnegative one."""
    if tag is _RATIONAL:
        r = xa % abs(ya)
        if 2 * r > abs(ya):
            r -= abs(ya)
        return (xa - r) // ya, 0, r, 0
    qa, qb, r0a, r0b = pair_euclid_divmod(xa, xb, ya, yb, tag)
    c, e = tag._omega_sq
    best = None
    for t in (0, -1, 1):
        ra, rb = r0a - t * ya, r0b - t * yb
        key = (abs(ra * (ra + e * rb) - c * rb * rb), abs(ra), abs(rb),
               ra < 0, rb < 0)
        if best is None or key < best:
            best, q = key, t
    return qa + q, qb, r0a - q * ya, r0b - q * yb


def pair_gcd(xa: int, xb: int, ya: int, yb: int, tag: FieldTag):
    """The canonical gcd of x and y, not both zero, as a pair."""
    return pair_canonical_associate(*pair_euclid(xa, xb, ya, yb, tag), tag)


def pair_euclid(xa: int, xb: int, ya: int, yb: int, tag: FieldTag):
    """A gcd of x and y as a pair, up to a unit; any remainder of smaller
    norm serves, so it takes rounded quotients."""
    c, e = tag._omega_sq
    while ya or yb:
        qa, qb = pair_round_quotient(xa, xb, ya, yb, c, e)
        pa, pb = pair_mul(qa, qb, ya, yb, c, e)
        xa, xb, ya, yb = ya, yb, xa - pa, xb - pb
    return xa, xb


def ring_gcd(x: RingElem, y: RingElem) -> RingElem:
    """Greatest common divisor, returned as a canonical associate."""
    if x.tag is not y.tag:
        raise DomainError("mixed field tags")
    if x.is_zero() and y.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    return RingElem(x.tag, *pair_gcd(x.a, x.b, y.a, y.b, x.tag))


class SplittingClass(Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


def splitting_class(p: int, tag: FieldTag) -> SplittingClass:
    """Behaviour of the rational prime p in the ring of integers."""
    if p < 2 or factor_int(p) != [(p, 1)]:
        raise DomainError(f"{p} is not a prime")
    return _class_of_prime(p, tag)


# the residue rule: the class of a prime p, listed by p mod the field
# discriminant (1 over Q), which is the length of the list; the ramified
# prime is alone in its residue class, and None marks residues that hold
# no prime.  Over Q every p is split (degenerate: it stays prime, norm p)
_SPLIT, _INERT, _RAMIFIED = SplittingClass
_CLASSES_BY_RESIDUE = {
    _RATIONAL: (_SPLIT,),
    FieldTag.ROOT_FIVE: (_RAMIFIED, _SPLIT, _INERT, _INERT, _SPLIT),
    FieldTag.ROOT_TWO: (None, _SPLIT, _RAMIFIED, _INERT, None, _INERT,
                        None, _SPLIT),
}


def _class_of_prime(p: int, tag: FieldTag) -> SplittingClass:
    # p must already be known to be prime
    classes = _CLASSES_BY_RESIDUE[tag]
    return classes[p % len(classes)]


def primes_above(p: int, tag: FieldTag) -> list[RingElem]:
    """Canonical primes of the ring lying over the rational prime p: p
    itself when p is inert, else the elements of norm p (norm_class_reps)."""
    return _primes_over(p, tag, splitting_class(p, tag))


def _primes_over(p: int, tag: FieldTag, cls: SplittingClass):
    # primes_above for a p already proven prime, of splitting class cls
    if cls is _INERT:
        return [RingElem(tag, p)]
    pis = norm_class_reps(tag, p)
    # the norm search against the residue rule: two primes over a split p
    # of Z[tau] or Z[sqrt2], one over any other
    if len(pis) != (2 if cls is _SPLIT and tag.degree == 2 else 1):
        raise ArithmeticError(
            f"the norm search found {len(pis)} primes of norm {p} over "
            f"{tag.value}, where the residue rule makes {p} {cls.value}")
    return pis


def factor(alpha: RingElem) -> tuple[RingElem, tuple]:
    """(unit, primes) of a nonzero alpha = unit * prod(pi^k) over the
    pairs (pi, k) of primes, canonical primes with their exponents."""
    if alpha.is_zero():
        raise DomainError("cannot factor zero")
    rem = alpha
    pairs = []
    for p, _ in factor_int(alpha.norm_abs()):   # proves each p prime
        for pi in _primes_over(p, alpha.tag, _class_of_prime(p, alpha.tag)):
            k = 0
            while True:
                q = rem.exact_div(pi)
                if q is None:
                    break
                rem = q
                k += 1
            if k:
                pairs.append((pi, k))
    if not rem.is_unit():
        raise ArithmeticError(f"factorization of {alpha} left non-unit {rem}")
    return rem, tuple(pairs)


def factor_int(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization of a positive integer."""
    if n <= 0:
        raise DomainError("factor_int needs a positive integer")
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return out


def norm_class_reps(tag: FieldTag, m: int) -> list[RingElem]:
    """Totally positive elements of norm m, one canonical representative
    per orbit of the totally positive unit group.

    Empty exactly when m is not a norm; over Q the single representative
    is m itself.
    """
    if m < 1:
        raise DomainError("norm must be positive")
    if tag is _RATIONAL:
        return [RingElem(tag, m)]
    # a^2 + e*a*b - c*b^2 = m, omega^2 = c + e*omega, is s^2 = (e^2 +
    # 4c)*b^2 + 4m with s = 2a + e*b; canonical reps have 0 <= b <
    # sqrt(m) over Z[tau] (e = 1) and 0 <= b < 2*sqrt(m) over Z[sqrt2]
    c, e = tag._omega_sq
    k, m4 = e * e + 4 * c, 4 * m
    found = set()
    for b in range(isqrt(m) + 2 if e else 2 * isqrt(m) + 3):
        disc = k * b * b + m4
        s = isqrt(disc)
        if s * s == disc and (s - e * b) % 2 == 0:
            cand = RingElem(tag, (s - e * b) // 2, b)
            if cand.is_totally_positive():
                found.add(cand.canonical_associate())
    return sorted(found, key=lambda z: (z.a, z.b))


# ---------------------------------------------------------------------------
# text syntax: "a", "a+b*w", "a/c + b/d*w" with w = tau or sqrt(2) by tag


def _ratio_text(n: int, d: int) -> str:
    """n/d in lowest terms, as str(Fraction(n, d)) prints it (d > 0)."""
    g = gcd(n, d)
    return f"{n // g}/{d // g}" if d != g else str(n // g)


def _format_pair(a: int, b: int, den: int = 1) -> str:
    """Text of (a + b*w)/den, one gcd per printed coefficient."""
    if b == 0:
        return _ratio_text(a, den)
    size = _ratio_text(abs(b), den)
    wpart = "w" if size == "1" else f"{size}*w"
    if a == 0:
        return wpart if b > 0 else f"-{wpart}"
    return f"{_ratio_text(a, den)}{'-' if b < 0 else '+'}{wpart}"


# The text of a quaternion (see csmod.quat) or of a field element, the
# same less units, is read term by term.  A term is a run of signs, then a
# unit u in i, j, k, "(field text)*u", or a field term ("w", a literal,
# "literal*w" or "w*literal") optionally times u, up to the sign that
# starts the next term.  A literal is what CPython 3.11's Fraction reads,
# less exponents: n, n/d or a decimal (".5", "1."), "_" between digits,
# any Unicode digit, whitespace around it, and a sign only after "w*".
# The patterns are compiled on first use (then held by re's cache): only
# the commands that read a rotation need them.
_TERM = (r"([-+]*)(?:([ijk])|\(([^()]+)\)\*([ijk])|(?:(w)|(?P<wl>w\*)?"
         r"(?:(?<=\*)([-+])|\s*)(?=\d|\.\d)(\d+(?:_\d+)*)?"
         r"(?:/(\d+(?:_\d+)*)|\.(\d+(?:_\d+)*)?|)\s*(?(wl)|(\*w)?))"
         r"(?:\*([ijk]))?)(?=[-+]|\Z)")
_UNITS = {"i": 1, "j": 2, "k": 3}


def _read_terms(text: str, tag: FieldTag, pos: int, end: int, units: bool):
    """(terms, stop) for text[pos:end], the text of a quaternion, or of a
    field element unless units: terms holds (c, a, b, d) for each term
    read, (a + b*w)/d times the unit of coordinate c (0 for 1), and
    reading stopped at stop, which is end when all of it was read."""
    terms, match = [], re.compile(_TERM).match
    while pos < end:
        m = match(text, pos, end)
        if m is None:
            break
        (signs, unit, inner, inner_unit, w, wl, lsign, whole, den, frac, wr,
         field_unit) = m.groups()
        sign = -1 if signs.count("-") % 2 else 1
        if not units and (unit or inner or field_unit):
            break
        if unit:
            terms.append((_UNITS[unit], sign, 0, 1))
        elif inner:     # a field text in parentheses
            sub, stop = _read_terms(text, tag, m.start(3), m.end(3), False)
            if stop < m.end(3):
                break
            c = _UNITS[inner_unit]
            terms += [(c, sign * a, sign * b, d) for _, a, b, d in sub]
        else:
            # int() refuses more digits than sys.get_int_max_str_digits()
            try:
                if w:
                    n = d = 1
                elif frac is None:
                    n, d = int(whole), int(den or 1)
                else:
                    d = 10 ** len(frac.replace("_", ""))
                    n = int(whole or 0) * d + int(frac)
            except ValueError:
                break
            w = w or wl or wr
            if not d or w and tag.degree == 1:
                break
            n *= -sign if lsign == "-" else sign
            c = _UNITS.get(field_unit, 0)
            terms.append((c, 0, n, d) if w else (c, n, 0, d))
        pos = m.end()
    return terms, pos


def _balanced(text: str) -> bool:
    text = re.sub(r"[^()]+", "", text)
    while "()" in text:
        text = text.replace("()", "")
    return not text


def _refuse(text: str, tag: FieldTag, pos: int, units: bool):
    """Raise the ParseInputError for the text of a quaternion, or of a
    field element unless units, that _read_terms read up to the term at
    pos (of the text without spaces): unbalanced parentheses, else the
    first fault of that term."""
    stripped = text.replace(" ", "")
    if not stripped:
        raise ParseInputError("empty quaternion" if units
                              else "empty ring element")
    if not _balanced(stripped):
        raise ParseInputError(f"unbalanced parentheses in {stripped!r}")
    # the term ends at the next sign after no sign, "*" or "/", outside
    # parentheses
    starts = re.compile(r"(?<=[^-+*/])[-+]").finditer(stripped, pos + 1)
    end = next((p for p in (m.start() for m in starts)
                if stripped.count("(", 0, p) == stripped.count(")", 0, p)),
               len(stripped))
    term = stripped[pos:end].lstrip("+-")
    if not term:
        raise ParseInputError(f"dangling sign in {text!r}")
    if units:   # a coefficient (outer parentheses stripped) times a unit,
        # or a scalar: read as a field element, which raises at its fault
        if len(term) >= 3 and term[-2] == "*" and term[-1] in _UNITS:
            term = term[:-2]
            if term[0] == "(" and term[-1] == ")" and _balanced(term[1:-1]):
                term = term[1:-1]
        _parse_numerators(term, tag)
    factors = term.split("*")
    numeric = [f for f in factors if f != "w"]
    if len(factors) - len(numeric) > 1 or len(numeric) > 1:
        raise ParseInputError(f"bad term {term!r} in {text!r}")
    if numeric and ("e" in numeric[0] or "E" in numeric[0]):
        # "1e999999" would build a million-digit integer
        raise ParseInputError(
            f"exponent literals are not accepted: {numeric[0]!r}")
    if "w" in factors and _read_terms(term, FieldTag.ROOT_TWO, 0, len(term),
                                      False)[1] == len(term):
        raise ParseInputError("'w' is not available over the rationals")
    raise ParseInputError(f"bad rational literal {numeric[0]!r}")


def _parse_numerators(text: str, tag: FieldTag):
    """(a, b, den) with den > 0 and (a + b*w)/den the value of the text of
    a field element (see parse_field_elem), not in lowest terms."""
    stripped = text.replace(" ", "")
    terms, stop = _read_terms(stripped, tag, 0, len(stripped), False)
    if stop < len(stripped) or not stripped:
        _refuse(text, tag, stop, False)
    a, b, den = 0, 0, 1
    for _, x, y, d in terms:
        a, b, den = a * d + x * den, b * d + y * den, den * d
    return a, b, den


def parse_field_elem(text: str, tag: FieldTag) -> FieldElem:
    """Parse 'a', 'a+b*w', 'a/c - b/d*w' (w = tau or sqrt(2) by tag)."""
    a, b, den = _parse_numerators(text, tag)
    return FieldElem.ratio(RingElem(tag, a, b), den)

