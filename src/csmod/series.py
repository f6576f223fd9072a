"""Exact Dirichlet-series machinery for the coincidence counting
functions.

Everything is organized around one coefficient convention: a series is
stored as the tuple (f(1), ..., f(M)), and per-prime Euler factors are
rational functions in x whose expansion lists f(1), f(p), f(p^2), ...
The counting functions for the three module families are the cases
"cub", "ico" and "oct".  The supporting ideal-counting series of the
quaternion orders are available under "zetaK-<field>", "zetaO-<field>"
and "zetaOO-<field>", indexed by the module index of an ideal; the
"-half" variants reindex by the norm of the reduced norm instead, which
is the grid the counting functions live on.  Fields are named by the
FieldTag values: rational, root5, root2.

Every local factor comes from one table of per-prime-ideal factors: a
prime ideal of norm p^f contributes a factor in x^f, the residue degrees
f follow the splitting class (with a row of its own for 2 over Q, where
the quaternion algebra ramifies), and a module-index kind is its "-half"
kind with x -> x^2.  Composed once per kind, field and class, and cached
on first use, a local factor is a pair of polynomials in x whose
coefficients are integer polynomials in p.

Every series here is multiplicative, so a table f(1..M) is filled by
prime strides over one bytearray sieve of the primes up to M.  The odd
part comes first, from all ones in the half-length list odd[i] =
f(2i + 1): an odd j sits at j // 2, and the odd multiples of an odd
prime p form the stride odd[p // 2::p].  Each j <= M has at most one
prime factor above sqrt(M), and that only once, so those primes go
first, one residue class mod the field discriminant (1, 5 or 8) at a
time: its first prime gives the class factor, whose constant terms are
checked once as polynomials, and f(p) = t(p) with t = num_1 - den_1,
its first x-coefficients; each p checks its own f(p) >= 0 and writes it
over the ones of its odd stride, one write for p > M/3.  Then each odd
p <= sqrt(M) evaluates its local factor, expands it to the top power
p^k <= M and multiplies in its p-part in one pass over its odd stride,
with multipliers f(p), overwritten with f(p^k) at the odd multiples of
p^(k-1); when f(p) = 0 the stride is zeroed and only the odd multiples
of p^2 get a pass, none if every f(p^k) is 0.  The sieve is the
primality proof, so the local factors take their splitting class from
the residue rule alone, without trial division.  The prime 2, whose
factor over Q is not its class's, comes last: the zero-based list
values[j - 1] = f(j) takes the odd part at its even positions and, for
every k with f(2^k) != 0, f(2^k) times its first entries at the stride
of the j with 2^k || j.  The sieve and the odd list are freed before
the list becomes the table's tuple, where the memory peaks.
"""

import math
import re
from functools import cache
from itertools import compress, repeat, zip_longest
from operator import add, mul

from .errors import DomainError, ResourceCapError
from .rings import (_CLASSES_BY_RESIDUE, _INERT, _RAMIFIED, _RATIONAL,
                    _SPLIT, FieldTag, SplittingClass, _class_of_prime,
                    factor_int, splitting_class)

DEFAULT_SERIES_CAP = 1_000_000

# the three module families, each by its case and the field of its
# maximal order; every other view of the families is derived from this
_PHI_TAG = {
    "cub": FieldTag.RATIONAL,
    "ico": FieldTag.ROOT_FIVE,
    "oct": FieldTag.ROOT_TWO,
}
PHI_CASES = tuple(_PHI_TAG)
CASE_OF_FIELD = {tag: case for case, tag in _PHI_TAG.items()}

_TAG_BY_VALUE = {tag.value: tag for tag in FieldTag}

_ZETA_KINDS = ("zetaK", "zetaO", "zetaOO", "zetaO-half", "zetaOO-half")


class EulerFactor:
    """Local factor at one rational prime, as numerator/denominator
    polynomials in x with integer coefficients and constant term 1."""

    __slots__ = ("p", "numerator", "denominator")

    def __init__(self, p: int, numerator: tuple, denominator: tuple):
        if p < 2:
            raise DomainError("Euler factors sit at primes")
        _check_constant_terms(numerator, denominator)
        self.p, self.numerator, self.denominator = p, numerator, denominator

    def expansion(self, terms: int) -> tuple:
        """First terms of the power series, f(1), f(p), f(p^2), ..."""
        num, den = self.numerator, self.denominator
        out = []
        for n in range(terms):
            c = num[n] if n < len(num) else 0
            for k in range(1, min(n, len(den) - 1) + 1):
                c -= den[k] * out[n - k]
            out.append(_nonnegative(self.p, c, n))
        return tuple(out)


def _check_constant_terms(num, den, one=1) -> None:
    # one is 1, or (1,) for the coefficients of a class factor in p
    if not num or num[0] != one:
        raise DomainError("numerator must have constant term 1")
    if not den or den[0] != one:
        raise DomainError("denominator must have constant term 1")


def _nonnegative(p: int, c: int, n: int) -> int:
    """c as the coefficient f(p^n) of a counting series."""
    if c < 0:
        raise DomainError(
            f"Euler factor at {p} gives the negative coefficient {c} at p^{n}")
    return c


# the local factor of one prime ideal of norm N = p^f, in y = x^f, as
# (numerator, denominator), each a product of binomials 1 - s N^k y
# listed as (s, k); at 2 over Q, where the quaternion algebra ramifies,
# the factors of _TWO_OVER_Q stand in for them
_IDEAL_FACTORS = {
    "phi": (((-1, 0),), ((1, 1),)),          # (1 + y) / (1 - N y)
    "zetaK": ((), ((1, 0),)),                 # 1 / (1 - y)
    "zetaO-half": ((), ((1, 0), (1, 1))),     # 1 / ((1 - y)(1 - N y))
    "zetaOO-half": ((), ((1, 0), (-1, 0))),   # 1 / (1 - y^2)
}
_TWO_OVER_Q = {"phi": ((), ()), "zetaK": ((), ((1, 0),)),    # 1, 1/(1 - x)
               "zetaO-half": ((), ((1, 0),)), "zetaOO-half": ((), ((1, 0),))}
# the residue degrees f of the prime ideals above p, by splitting class;
# over Q there is one, of degree 1
_DEGREES = {_SPLIT: (1, 1), _RAMIFIED: (1,), _INERT: (2,)}


@cache
def _class_factor(kind: str, tag: FieldTag, cls: SplittingClass,
                  two_over_q: bool = False) -> tuple:
    """(numerator, denominator) of the local factor of a kind ("phi" or a
    zeta kind) at every prime of splitting class cls: x-coefficients that
    are integer polynomials in p, each as its p-coefficients without
    trailing zeros.  A module-index kind is its "-half" kind with x -> x^2."""
    half = kind if kind in _IDEAL_FACTORS else kind + "-half"
    stretch = 1 if half == kind else 2
    degrees = (1,) if tag is _RATIONAL else _DEGREES[cls]
    out = []
    for binomials in (_TWO_OVER_Q if two_over_q else _IDEAL_FACTORS)[half]:
        terms = {(0, 0): 1}    # terms[i, j] = c for the term c x^i p^j
        for f in degrees:
            for s, k in binomials:
                product = dict(terms)
                for (i, j), c in terms.items():
                    key = (i + stretch * f, j + k * f)
                    product[key] = product.get(key, 0) - s * c
                terms = {key: c for key, c in product.items() if c}
        poly = []
        for (i, j), c in sorted(terms.items()):
            poly += [[] for _ in range(i + 1 - len(poly))]
            poly[i] += [0] * (j - len(poly[i])) + [c]
        out.append(tuple(map(tuple, poly)))
    return tuple(out)


def _local_polys(kind: str, tag: FieldTag, p: int, cls: SplittingClass):
    """(numerator, denominator) of the local factor at the prime p."""
    factor = _class_factor(kind, tag, cls, tag is _RATIONAL and p == 2)
    return tuple(tuple(sum(c * p ** j for j, c in enumerate(coeff))
                       for coeff in poly) for poly in factor)


def _parse_case(case: str):
    """(kind, tag) of a case name, with kind "phi" for the module families
    and tag the field whose primes the local factors run over."""
    tag = _PHI_TAG.get(case)
    if tag is not None:
        return "phi", tag
    # zeta case names look like zetaO-root5 or zetaO-half-root5
    kind, _, field = case.rpartition("-")
    tag = _TAG_BY_VALUE.get(field)
    if tag is None or kind not in _ZETA_KINDS:
        known = PHI_CASES + tuple(
            f"{k}-{t}" for k in _ZETA_KINDS for t in _TAG_BY_VALUE)
        raise DomainError(f"unknown series case {case!r}; one of {known}")
    return kind, tag


def euler_factor(case: str, p: int) -> EulerFactor:
    """Local factor of the named series at the rational prime p."""
    kind, tag = _parse_case(case)
    num, den = _local_polys(kind, tag, p, splitting_class(p, tag))
    return EulerFactor(p=p, numerator=num, denominator=den)


def coefficient(case: str, m: int) -> int:
    """f(m) of the named series, from the factorisation of m."""
    if m < 1:
        raise DomainError("coefficients are indexed from 1")
    kind, tag = _parse_case(case)
    out = 1
    for p, e in factor_int(m):    # the trial division proves each p prime
        out *= _expansion(kind, tag, p, p ** e)[e]
    return out


class CoeffSeries:
    """Initial coefficients f(1..M) of a multiplicative series."""

    __slots__ = ("label", "values")

    def __init__(self, label: str, values: tuple):
        if not values or values[0] != 1:
            raise DomainError("coefficient series start with f(1) = 1")
        self.label, self.values = label, values

    def __len__(self) -> int:
        return len(self.values)

    def at(self, m: int) -> int:
        if not 1 <= m <= len(self.values):
            raise DomainError(f"coefficient f({m}) was not computed")
        return self.values[m - 1]


def _prime_sieve(limit: int) -> bytearray:
    """flags[n] == 1 exactly when n is a prime, for 0 <= n <= limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def _check_cap(value: int, cap) -> None:
    limit = DEFAULT_SERIES_CAP if cap is None else cap
    if value > limit:
        raise ResourceCapError(
            f"series length {value} exceeds the cap {limit}")


def _stride_multipliers(exp: tuple, p: int, s: int, M: int) -> list:
    """Multipliers of the odd stride j = p^s * i <= M, i odd, from the
    expansion exp of the local factor at the odd prime p up to the top
    power p^k <= M: the entry of i is exp[k] for p^k || j, that is for
    p^(k-s) || i, and the odd multiples of q = p^(k-s) sit at offset
    q // 2 of the stride, with step q."""
    step = p ** s
    part = [exp[s]] * ((M // step + 1) // 2)
    q = p
    for k in range(s + 1, len(exp)):
        part[q // 2::q] = [exp[k]] * ((M // (q * step) + 1) // 2)
        q *= p
    return part


def _write_large_primes(odd: list, sieve: bytearray, kind: str,
                        tag: FieldTag, first: int) -> None:
    """Write f(p) = t(p), t = num_1 - den_1 as in EulerFactor.expansion,
    over the ones of the odd stride of each prime p >= first > sqrt(M),
    one residue class at a time; a function of its own, so that its lists
    are freed before the table's tuple is made."""
    M = len(sieve) - 1
    third = M // 3
    mod = len(_CLASSES_BY_RESIDUE[tag])
    for start in range(first, min(first + mod - 1, M) + 1):
        # the regex engine finds the class's prime flags; compress over a
        # range would make an int of every candidate
        primes = [start + mod * flag.start()
                  for flag in re.finditer(b"\1", sieve[start::mod])]
        if not primes:
            continue
        num, den = _class_factor(kind, tag, _class_of_prime(primes[0], tag))
        _check_constant_terms(num, den, (1,))
        t = [a - b for a, b in zip_longest(
            num[1] if len(num) > 1 else (), den[1] if len(den) > 1 else (),
            fillvalue=0)]
        fp = repeat(0)
        for a in reversed(t):    # Horner's rule, lazily over all the primes
            fp = map(add, map(mul, fp, primes), repeat(a))
        for p, c in zip(primes, fp):
            if c < 0:
                _nonnegative(p, c, 1)
            if p > third:
                odd[p // 2] = c    # p is its only odd multiple up to M
            elif c != 1:
                odd[p // 2::p] = [c] * ((M // p + 1) // 2)


def _expansion(kind: str, tag: FieldTag, p: int, M: int) -> tuple:
    """f(1), f(p), ..., f(p^k) for the top power p^k <= M (k >= 1)."""
    num, den = _local_polys(kind, tag, p, _class_of_prime(p, tag))
    top, q = 1, p * p
    while q <= M:
        top, q = top + 1, q * p
    return EulerFactor(p, num, den).expansion(top + 1)


def coefficient_table(case: str, M: int, cap=None) -> CoeffSeries:
    """f(1..M) of the named series, assembled prime by prime."""
    if M < 1:
        raise DomainError("need at least one coefficient")
    _check_cap(M, cap)
    kind, tag = _parse_case(case)
    odd = [1] * ((M + 1) // 2)    # odd[j // 2] = f(j), j odd
    small = math.isqrt(M)
    sieve = _prime_sieve(M)
    _write_large_primes(odd, sieve, kind, tag, max(small + 1, 3))
    for p in compress(range(3, small + 1, 2), sieve[3::2]):
        exp = _expansion(kind, tag, p, M)
        if exp[1]:
            odd[p // 2::p] = list(map(
                mul, odd[p // 2::p], _stride_multipliers(exp, p, 1, M)))
            continue
        # f(p) = 0, so f(j) = 0 wherever p || j: zero the p-stride, then
        # give the multiples of p^2 their p-part unless every f(p^k) is 0
        sq = p * p
        if any(exp[2:]):
            kept = odd[sq // 2::sq]
            odd[p // 2::p] = [0] * ((M // p + 1) // 2)
            odd[sq // 2::sq] = list(map(
                mul, kept, _stride_multipliers(exp, p, 2, M)))
        else:
            odd[p // 2::p] = [0] * ((M // p + 1) // 2)
    del sieve    # before the tuple, where a table's memory peaks
    # the 2-part last: f(2^k o) = f(2^k) f(o) for o = 2i + 1 odd, at
    # j - 1 = 2^k - 1 + 2^(k+1) i
    exp = _expansion(kind, tag, 2, M)
    values = [0] * M    # values[j - 1] = f(j)
    values[::2] = odd
    q = 2
    for c in exp[1:]:
        if c:    # f(2^k), at the first (M/2^k + 1)/2 odd o
            count = (M // q + 1) // 2
            values[q - 1::2 * q] = (odd[:count] if c == 1 else
                                    list(map(mul, odd[:count], repeat(c))))
        q *= 2
    del odd
    return CoeffSeries(label=case, values=tuple(values))


def phi_coefficients(case: str, M: int, cap=None) -> CoeffSeries:
    """Counting coefficients of one of the three module families."""
    if case not in PHI_CASES:
        raise DomainError(f"case must be one of {PHI_CASES}")
    return coefficient_table(case, M, cap)


def dirichlet_convolve(a, b) -> tuple:
    """(a * b)(n) = sum over d | n of a(d) b(n/d), up to a common M."""
    if len(a) != len(b):
        raise DomainError("convolution needs equal-length tables")
    if a.count(0) < b.count(0):
        a, b = b, a    # the sums commute: loop over the sparser operand
    out = [0] * len(a)
    for d, ad in enumerate(a, 1):
        if ad:
            out[d - 1::d] = map(add, out[d - 1::d], map(mul, b, repeat(ad)))
    return tuple(out)


def summatory(case: str, x: int):
    """(F(x), F(x) / (x^2 / 2)) with F the partial sum of the counting
    coefficients; the ratio tracks the linear average growth."""
    from fractions import Fraction    # only this ratio needs it
    series = phi_coefficients(case, x)
    total = sum(series.values)
    return total, Fraction(2 * total, x * x)


def residue_rho(case: str) -> float:
    """Asymptotic density constant: F(x) is asymptotic to rho x^2/2."""
    if case == "cub":
        return 6.0 / math.pi ** 2
    if case == "ico":
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        return 45.0 * math.sqrt(5.0) * math.log(golden) / math.pi ** 4
    if case == "oct":
        return (720.0 * math.sqrt(2.0) * math.log(1.0 + math.sqrt(2.0))
                / (11.0 * math.pi ** 4))
    raise DomainError(f"case must be one of {PHI_CASES}")


def zeta_identity_check(case: str, M: int) -> bool:
    """Confirm, coefficient by coefficient up to M, that the order zeta
    series factors as the reduced series times the two-sided series,
    and for cub that the counting function is their half-grid quotient."""
    phi = phi_coefficients(case, M).values    # refuses any other case
    field = _PHI_TAG[case].value
    z_order = coefficient_table(f"zetaO-{field}", M).values
    z_two_sided = coefficient_table(f"zetaOO-{field}", M).values
    reduced = [0] * M
    m = 1
    while m * m <= M:
        reduced[m * m - 1] = phi[m - 1]
        m += 1
    if dirichlet_convolve(tuple(reduced), z_two_sided) != z_order:
        return False
    if case == "cub":
        half_order = coefficient_table("zetaO-half-rational", M).values
        half_two = coefficient_table("zetaOO-half-rational", M).values
        if dirichlet_convolve(phi, half_two) != half_order:
            return False
    return True
