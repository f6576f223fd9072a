import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csmod import rings
from csmod.errors import DomainError, ParseInputError
from csmod.rings import (
    FieldElem,
    FieldTag,
    RingElem,
    SplittingClass,
    _round_half_up,
    factor,
    factor_int,
    norm_class_reps,
    pair_canonical_associate,
    pair_canonical_residue,
    pair_euclid_divmod,
    pair_round_quotient,
    parse_field_elem,
    primes_above,
    ring_gcd,
    splitting_class,
)

QUADRATIC_TAGS = [FieldTag.ROOT_FIVE, FieldTag.ROOT_TWO]
ALL_TAGS = [FieldTag.RATIONAL] + QUADRATIC_TAGS


def ring_divmod(alpha, beta, division=pair_euclid_divmod):
    """(q, r) with alpha = q*beta + r, from a pair division of the rings."""
    tag = alpha.tag
    qa, qb, ra, rb = division(alpha.a, alpha.b, beta.a, beta.b, tag)
    return RingElem(tag, qa, qb), RingElem(tag, ra, rb)


def rnd_elem(rng, tag, span=9):
    if tag.degree == 1:
        return RingElem(tag, rng.randint(-span, span))
    return RingElem(tag, rng.randint(-span, span), rng.randint(-span, span))


def test_norm_examples():
    tau = FieldTag.ROOT_FIVE
    rt2 = FieldTag.ROOT_TWO
    assert RingElem(tau, 3, 1).norm_signed() == 11
    assert RingElem(tau, 0, 1).norm_signed() == -1
    assert RingElem(rt2, 2, 1).norm_signed() == 2
    assert RingElem(rt2, 1, 1).norm_signed() == -1
    assert RingElem(FieldTag.RATIONAL, -7).norm_abs() == 7


def test_trace_and_conj():
    tau = FieldTag.ROOT_FIVE
    x = RingElem(tau, 3, 1)
    assert x.trace() == 7
    assert x.conj() == RingElem(tau, 4, -1)
    assert x.conj().conj() == x
    rt2 = FieldTag.ROOT_TWO
    y = RingElem(rt2, 5, -2)
    assert y.conj() == RingElem(rt2, 5, 2)
    assert y.trace() == 10


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_norm_multiplicative_and_conj_involution(tag):
    rng = random.Random(101)
    for _ in range(1000):
        x = rnd_elem(rng, tag)
        y = rnd_elem(rng, tag)
        assert (x * y).norm_signed() == x.norm_signed() * y.norm_signed()
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()
        assert x.conj().conj() == x
        if tag.degree == 2:
            # norm and trace agree with x * conj(x) and x + conj(x)
            assert x * x.conj() == RingElem(tag, x.norm_signed())
            assert x + x.conj() == RingElem(tag, x.trace())
        else:
            assert x.norm_signed() == x.a and x.trace() == x.a


def test_omega_squared_rule():
    tau = RingElem.omega(FieldTag.ROOT_FIVE)
    assert tau * tau == tau + 1
    rt2 = RingElem.omega(FieldTag.ROOT_TWO)
    assert rt2 * rt2 == RingElem(FieldTag.ROOT_TWO, 2)


def test_euclid_divmod_example():
    # dividing 5 by 3+tau must leave a remainder of absolute norm < 11
    tau = FieldTag.ROOT_FIVE
    q, r = ring_divmod(RingElem(tau, 5), RingElem(tau, 3, 1))
    assert RingElem(tau, 5) == q * RingElem(tau, 3, 1) + r
    assert r.norm_abs() < 11


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_euclid_divmod_contract(tag):
    rng = random.Random(202)
    for _ in range(1000):
        a = rnd_elem(rng, tag, 40)
        b = rnd_elem(rng, tag, 12)
        if b.is_zero():
            continue
        q, r = ring_divmod(a, b)
        assert a == q * b + r
        assert r.norm_abs() < b.norm_abs()


@pytest.mark.parametrize("tag", QUADRATIC_TAGS)
def test_euclid_remainder_depends_only_on_coset(tag):
    rng = random.Random(303)
    for _ in range(400):
        a = rnd_elem(rng, tag, 30)
        b = rnd_elem(rng, tag, 9)
        if b.is_zero():
            continue
        shift = rnd_elem(rng, tag, 5)
        _, r1 = ring_divmod(a, b)
        _, r2 = ring_divmod(a + shift * b, b)
        assert r1 == r2


def test_gcd_examples():
    tau = FieldTag.ROOT_FIVE
    g = ring_gcd(RingElem(tau, 3, 1), RingElem(tau, 11))
    # an associate of 3+tau: same norm, and it divides 3+tau
    assert g.norm_abs() == 11
    assert g.divides(RingElem(tau, 3, 1))
    assert ring_gcd(RingElem(tau, 4), RingElem(tau, 6)) == RingElem(tau, 2)
    with pytest.raises(DomainError):
        ring_gcd(RingElem(tau, 0), RingElem(tau, 0))


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_gcd_contract(tag):
    rng = random.Random(404)
    for _ in range(500):
        x = rnd_elem(rng, tag, 25)
        y = rnd_elem(rng, tag, 25)
        if x.is_zero() and y.is_zero():
            continue
        g = ring_gcd(x, y)
        assert g == g.canonical_associate()
        if not x.is_zero():
            assert g.divides(x)
        if not y.is_zero():
            assert g.divides(y)
        # any common divisor divides the gcd
        d = rnd_elem(rng, tag, 4)
        if not d.is_zero():
            if d.divides(x) and d.divides(y):
                assert d.divides(g)


@pytest.mark.parametrize("tag", QUADRATIC_TAGS)
def test_canonical_associate_properties(tag):
    rng = random.Random(505)
    # eta is the fundamental unit (norm -1) of the ring
    eta = RingElem(tag, 1, 1) if tag is FieldTag.ROOT_TWO else RingElem(tag, 0, 1)
    one = RingElem(tag, 1)
    units = [one, -one, eta, -eta, eta * eta, eta * eta * eta]
    for _ in range(300):
        x = rnd_elem(rng, tag, 20)
        if x.is_zero():
            continue
        c = x.canonical_associate()
        assert c.norm_abs() == x.norm_abs()
        assert c.is_totally_positive()
        assert c.canonical_associate() == c
        # associates all map to the same representative
        for u in units:
            assert (x * u).canonical_associate() == c


def test_canonical_associate_fixes_units_and_integers():
    tau = FieldTag.ROOT_FIVE
    one = RingElem(tau, 1)
    assert RingElem(tau, 0, 1).canonical_associate() == one
    assert RingElem(tau, -1, -1).canonical_associate() == one
    assert RingElem(tau, -5).canonical_associate() == RingElem(tau, 5)
    rt2 = FieldTag.ROOT_TWO
    assert RingElem(rt2, 1, 1).canonical_associate() == RingElem(rt2, 1)
    assert RingElem(rt2, 3, 2).canonical_associate() == RingElem(rt2, 1)
    assert RingElem(FieldTag.RATIONAL, -4).canonical_associate() == RingElem(
        FieldTag.RATIONAL, 4
    )


def test_splitting_class_examples():
    assert splitting_class(5, FieldTag.ROOT_FIVE) is SplittingClass.RAMIFIED
    assert splitting_class(11, FieldTag.ROOT_FIVE) is SplittingClass.SPLIT
    assert splitting_class(2, FieldTag.ROOT_FIVE) is SplittingClass.INERT
    assert splitting_class(3, FieldTag.ROOT_FIVE) is SplittingClass.INERT
    assert splitting_class(19, FieldTag.ROOT_FIVE) is SplittingClass.SPLIT
    assert splitting_class(2, FieldTag.ROOT_TWO) is SplittingClass.RAMIFIED
    assert splitting_class(7, FieldTag.ROOT_TWO) is SplittingClass.SPLIT
    assert splitting_class(17, FieldTag.ROOT_TWO) is SplittingClass.SPLIT
    assert splitting_class(3, FieldTag.ROOT_TWO) is SplittingClass.INERT
    assert splitting_class(5, FieldTag.ROOT_TWO) is SplittingClass.INERT
    with pytest.raises(DomainError):
        splitting_class(6, FieldTag.ROOT_FIVE)


@pytest.mark.parametrize("tag", QUADRATIC_TAGS)
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41])
def test_primes_above_norms(tag, p):
    cls = splitting_class(p, tag)
    pis = primes_above(p, tag)
    if cls is SplittingClass.SPLIT:
        assert len(pis) == 2
        assert all(pi.norm_abs() == p for pi in pis)
        # the two primes are not associates
        assert pis[0].canonical_associate() != pis[1].canonical_associate()
    elif cls is SplittingClass.RAMIFIED:
        assert len(pis) == 1
        assert pis[0].norm_abs() == p
    else:
        assert len(pis) == 1
        assert pis[0] == RingElem(tag, p)
    for pi in pis:
        assert pi.divides(RingElem(tag, p))
        assert pi == pi.canonical_associate()
        # enumeration searches for elements of reduced norm exactly pi
        assert pi.is_totally_positive()


def _reference_is_prime(n):
    """The trial division splitting_class ran before it read factor_int."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _reference_mod_sqrt_scan(d, p):
    d %= p
    for x in range(p):
        if x * x % p == d:
            return x
    raise DomainError(f"{d} is not a square mod {p}")


def _reference_primes_above(p, tag):
    """primes_above as it was before it read norm_class_reps: the split
    primes from a gcd with a square root of the discriminant mod p, the
    ramified ones written out; kept as the reference."""
    cls = splitting_class(p, tag)
    if tag is FieldTag.RATIONAL:
        return [RingElem(tag, p)]
    if cls is SplittingClass.INERT:
        return [RingElem(tag, p).canonical_associate()]
    if cls is SplittingClass.RAMIFIED:
        pi = (RingElem(tag, 0, 1) if tag is FieldTag.ROOT_TWO
              else RingElem(tag, -1, 2))
        return [pi.canonical_associate()]
    if tag is FieldTag.ROOT_FIVE:
        x = _reference_mod_sqrt_scan(5, p)
        omega_hat = (1 + x) * pow(2, -1, p) % p
    else:
        omega_hat = _reference_mod_sqrt_scan(2, p)
    pi = ring_gcd(RingElem(tag, p), RingElem(tag, omega_hat, -1))
    assert pi.norm_abs() == p
    return sorted({pi, pi.conj().canonical_associate()},
                  key=lambda z: (z.a, z.b))


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_primes_above_match_the_gcd_reference(tag):
    for p in filter(_reference_is_prime, range(5000)):
        assert primes_above(p, tag) == _reference_primes_above(p, tag), p


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_splitting_class_refuses_exactly_the_non_primes(tag):
    for n in range(-2, 10**4):
        if _reference_is_prime(n):
            assert splitting_class(n, tag) in SplittingClass
        else:
            with pytest.raises(DomainError, match=f"{n} is not a prime"):
                splitting_class(n, tag)


@pytest.mark.parametrize("tag, p, cls", [
    (FieldTag.ROOT_FIVE, 11, "split"), (FieldTag.ROOT_TWO, 7, "split"),
    (FieldTag.ROOT_FIVE, 5, "ramified"), (FieldTag.ROOT_TWO, 2, "ramified"),
    (FieldTag.RATIONAL, 3, "split")])
def test_primes_above_checks_the_norm_search(tag, p, cls, monkeypatch):
    # a norm search that loses a prime disagrees with the residue rule
    reps = rings.norm_class_reps
    monkeypatch.setattr(rings, "norm_class_reps",
                        lambda tag, m: reps(tag, m)[1:])
    for call in (lambda: primes_above(p, tag),
                 lambda: factor(RingElem(tag, p))):
        with pytest.raises(ArithmeticError,
                           match=f"norm {p} over {tag.value}, where the "
                                 f"residue rule makes {p} {cls}$"):
            call()


def test_factor_int():
    assert factor_int(12) == [(2, 2), (3, 1)]
    assert factor_int(1) == []
    assert factor_int(97) == [(97, 1)]
    assert factor_int(9991) == [(97, 1), (103, 1)]


def factor_value(unit, primes):
    """The unit times prod(pi^k) over the pairs (pi, k) of primes."""
    out = unit
    for pi, k in primes:
        for _ in range(k):
            out = out * pi
    return out


def test_factor_examples():
    tau = FieldTag.ROOT_FIVE
    unit, primes = factor(RingElem(tau, 11))
    assert len(primes) == 2
    assert {pi.norm_abs() for pi, _ in primes} == {11}
    assert factor_value(unit, primes) == RingElem(tau, 11)
    rt2 = FieldTag.ROOT_TWO
    unit, primes = factor(RingElem(rt2, 2))
    (pi, e), = primes
    assert e == 2 and pi.norm_abs() == 2
    assert factor_value(unit, primes) == RingElem(rt2, 2)
    assert unit.is_unit()
    unit, primes = factor(RingElem(FieldTag.RATIONAL, -12))
    assert [(p.a, k) for p, k in primes] == [(2, 2), (3, 1)]
    assert unit == RingElem(FieldTag.RATIONAL, -1)


@pytest.mark.parametrize("tag, alpha", [
    (FieldTag.RATIONAL, (-2 * 3 * 5 * 7 * 11, 0)),
    (FieldTag.ROOT_FIVE, (-66, 132)), (FieldTag.ROOT_TWO, (0, 105))])
def test_factor_proves_each_prime_once(tag, alpha, monkeypatch):
    # factor_int(N(alpha)) proves the primes of the norm, here ramified,
    # inert and split ones (66*sqrt5 and 105*sqrt2); classing them must
    # not prove each one again
    calls = []
    real = rings.factor_int
    monkeypatch.setattr(rings, "factor_int",
                        lambda n: calls.append(n) or real(n))
    x = RingElem(tag, *alpha)
    unit, primes = factor(x)
    assert calls == [x.norm_abs()]
    assert len(real(x.norm_abs())) >= 3
    assert factor_value(unit, primes) == x


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_factor_roundtrip(tag):
    rng = random.Random(606)
    for _ in range(250):
        x = rnd_elem(rng, tag, 30)
        if x.is_zero():
            continue
        unit, primes = factor(x)
        assert isinstance(primes, tuple)
        assert factor_value(unit, primes) == x
        assert unit.is_unit()
        for pi, e in primes:
            assert e >= 1
            assert pi == pi.canonical_associate()
            assert pi.norm_abs() > 1
            assert pi.is_totally_positive()


def test_norm_class_reps_examples():
    tau = FieldTag.ROOT_FIVE
    assert norm_class_reps(FieldTag.RATIONAL, 6) == [RingElem(FieldTag.RATIONAL, 6)]
    r11 = norm_class_reps(tau, 11)
    assert len(r11) == 2  # split prime: two classes
    assert all(v.norm_signed() == 11 and v.is_totally_positive() for v in r11)
    assert norm_class_reps(tau, 3) == []
    assert len(norm_class_reps(tau, 5)) == 1
    rt2 = FieldTag.ROOT_TWO
    assert len(norm_class_reps(rt2, 2)) == 1
    assert norm_class_reps(rt2, 3) == []
    r7 = norm_class_reps(rt2, 7)
    assert len(r7) == 2
    assert all(v.norm_signed() == 7 for v in r7)


@pytest.mark.parametrize("tag", QUADRATIC_TAGS)
def test_norm_class_reps_are_canonical_and_complete(tag):
    # every totally positive element of norm m must be a unit multiple of
    # exactly one listed representative
    rng = random.Random(707)
    for _ in range(300):
        x = rnd_elem(rng, tag, 15)
        m = x.norm_signed()
        if m <= 0:
            continue
        reps = norm_class_reps(tag, m)
        assert x.canonical_associate() in reps


def _two_branch_norm_class_reps(tag, m):
    """norm_class_reps as it was written per field, one loop over b for
    Z[tau] and one for Z[sqrt(2)], kept as the reference."""
    found = set()
    if tag is FieldTag.ROOT_FIVE:
        # a^2 + a*b - b^2 = m; canonical reps satisfy 0 <= b < sqrt(m)
        for b in range(math.isqrt(m) + 2):
            disc = 5 * b * b + 4 * m
            s = math.isqrt(disc)
            if s * s != disc:
                continue
            if (s - b) % 2 == 0:
                cand = RingElem(tag, (s - b) // 2, b)
                if cand.norm_signed() == m and cand.is_totally_positive():
                    found.add(cand.canonical_associate())
    else:
        # a^2 - 2*b^2 = m; canonical reps satisfy 0 <= b < 2*sqrt(m)
        for b in range(2 * math.isqrt(m) + 3):
            t = m + 2 * b * b
            s = math.isqrt(t)
            if s * s != t:
                continue
            cand = RingElem(tag, s, b)
            if cand.is_totally_positive():
                found.add(cand.canonical_associate())
    return sorted(found, key=lambda z: (z.a, z.b))


@pytest.mark.parametrize("tag", QUADRATIC_TAGS)
def test_norm_class_reps_match_the_two_branch_reference(tag):
    for m in range(1, 5001):
        assert norm_class_reps(tag, m) == _two_branch_norm_class_reps(tag, m)


def test_parse_and_format_roundtrip():
    rng = random.Random(808)
    for tag in ALL_TAGS:
        for _ in range(300):
            a = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            b = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            if tag.degree == 1:
                b = Fraction(0)
            x = FieldElem(tag, a, b)
            assert parse_field_elem(str(x), tag) == x


def test_parse_examples():
    tau = FieldTag.ROOT_FIVE
    assert parse_field_elem("3+w", tau) == FieldElem(tau, 3, 1)
    assert parse_field_elem("1/2 - 3/2*w", tau) == FieldElem(tau, Fraction(1, 2), Fraction(-3, 2))
    assert parse_field_elem("-2+0*w", tau).to_ring() == RingElem(tau, -2)
    assert parse_field_elem("7", FieldTag.RATIONAL) == FieldElem(FieldTag.RATIONAL, 7)
    with pytest.raises(ParseInputError):
        parse_field_elem("1+w", FieldTag.RATIONAL)
    assert not parse_field_elem("1/2", tau).is_integral()
    with pytest.raises(ParseInputError):
        parse_field_elem("", tau)
    with pytest.raises(ParseInputError):
        parse_field_elem("1+*w", tau)


def test_field_elem_division():
    rng = random.Random(909)
    for tag in ALL_TAGS:
        for _ in range(300):
            x = rnd_elem(rng, tag, 12).to_field()
            y = rnd_elem(rng, tag, 12).to_field()
            if y.is_zero():
                continue
            q = x / y
            assert q * y == x
    tau = FieldTag.ROOT_FIVE
    t = FieldElem.omega(tau)
    assert t.inverse() == t - 1  # 1/tau = tau - 1


def test_exact_div():
    tau = FieldTag.ROOT_FIVE
    x = RingElem(tau, 3, 1) * RingElem(tau, 2, 5)
    assert x.exact_div(RingElem(tau, 3, 1)) == RingElem(tau, 2, 5)
    assert RingElem(tau, 7).exact_div(RingElem(tau, 2)) is None


# -- FieldElem against a reference on Fraction pairs -----------------------
#
# The reference restates the field formulas on pairs (a, b) meaning
# a + b*omega with Fraction coefficients, independently of csmod.rings.

REF_OMEGA_SQ = {FieldTag.RATIONAL: (0, 0), FieldTag.ROOT_FIVE: (1, 1),
                FieldTag.ROOT_TWO: (2, 0)}


def ref_mul(tag, x, y):
    c, d = REF_OMEGA_SQ[tag]
    (a, b), (e, f) = x, y
    return (a * e + c * b * f, a * f + b * e + d * b * f)


def ref_conj(tag, x):
    a, b = x
    if tag is FieldTag.ROOT_FIVE:
        return (a + b, -b)  # tau -> 1 - tau
    return (a, -b)


def ref_norm(tag, x):
    a, b = x
    if tag is FieldTag.RATIONAL:
        return a
    return ref_mul(tag, x, ref_conj(tag, x))[0]


def ref_trace(tag, x):
    if tag is FieldTag.RATIONAL:
        return x[0]
    return 2 * x[0] + (x[1] if tag is FieldTag.ROOT_FIVE else 0)


def ref_inverse(tag, x):
    n = ref_norm(tag, x)
    if tag is FieldTag.RATIONAL:
        return (1 / n, Fraction(0))
    a, b = ref_conj(tag, x)
    return (a / n, b / n)


def pair_of(x):
    return (x.a, x.b)


def in_lowest_terms(x):
    return x.den > 0 and math.gcd(x.num.a, x.num.b, x.den) == 1


rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))


@st.composite
def tagged_pairs(draw, count=2):
    tag = draw(st.sampled_from(ALL_TAGS))
    pairs = []
    for _ in range(count):
        b = draw(rationals) if tag.degree == 2 else Fraction(0)
        pairs.append((draw(rationals), b))
    return tag, pairs


@settings(max_examples=300, deadline=None)
@given(tagged_pairs())
def test_field_elem_matches_fraction_reference(case):
    tag, (p, q) = case
    x, y = FieldElem(tag, *p), FieldElem(tag, *q)
    assert pair_of(x) == p and in_lowest_terms(x)
    results = [
        (x + y, (p[0] + q[0], p[1] + q[1])),
        (x - y, (p[0] - q[0], p[1] - q[1])),
        (x * y, ref_mul(tag, p, q)),
        (x.conj(), ref_conj(tag, p)),
        (x.norm_signed(), (ref_norm(tag, p), 0)),
        (x.trace(), (ref_trace(tag, p), 0)),
        (-x, (-p[0], -p[1])),
        (x * 3, (3 * p[0], 3 * p[1])),
    ]
    if any(p):
        results.append((x.inverse(), ref_inverse(tag, p)))
        results.append((y / x, ref_mul(tag, q, ref_inverse(tag, p))))
    for got, want in results:
        assert got.tag is tag
        assert pair_of(got) == want
        assert in_lowest_terms(got)


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_subtraction_with_ints_and_other_operands(tag):
    x, r = FieldElem(tag, Fraction(1, 2)), RingElem(tag, 3)
    assert (r - 5, 5 - r) == (RingElem(tag, -2), RingElem(tag, 2))
    assert (x - 1, 1 - x) == (-x, x)
    for bad in (lambda: x - "a", lambda: "a" - x, lambda: r - "a",
                lambda: "a" - r):
        with pytest.raises(TypeError, match="for -:"):
            bad()


# values that are not exact rationals: a float would be read as its
# binary fraction, and a string as Fraction's own parser reads it
INEXACT = [0.1, 1.5, "1e999999", "2", Decimal(1), None]


@pytest.mark.parametrize("tag", ALL_TAGS)
@pytest.mark.parametrize("bad", INEXACT, ids=repr)
def test_field_elements_take_only_exact_rationals(tag, bad):
    for make in (lambda: FieldElem(tag, bad), lambda: rings.as_field(tag, bad),
                 lambda: FieldElem(tag, 1, bad)):
        with pytest.raises(TypeError, match="as a field element"):
            make()


@pytest.mark.parametrize("tag", ALL_TAGS)
@pytest.mark.parametrize("bad", INEXACT + [Fraction(3)], ids=repr)
def test_ring_elements_take_only_integers(tag, bad):
    for make in (lambda: RingElem(tag, bad), lambda: RingElem(tag, 1, bad)):
        with pytest.raises(TypeError, match="must be integers"):
            make()


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_ints_bools_and_fractions_give_the_same_field_elements(tag):
    b = 1 if tag.degree == 2 else 0
    for make in (lambda a: FieldElem(tag, a),
                 lambda a: rings.as_field(tag, a)):
        assert make(3) == make(Fraction(6, 2)) == RingElem(tag, 3)
        assert make(True) == make(Fraction(1)) == make(1)
        assert make(False).is_zero()
        assert make(Fraction(-4, 6)) == FieldElem(tag, -2) / 3
        assert str(make(Fraction(-4, 6))) == "-2/3"
    half = FieldElem(tag, Fraction(1, 2), Fraction(-b, 4))
    assert half == FieldElem(tag, 2, -b) / 4
    assert half.den == (4 if b else 2)
    assert FieldElem(tag, True, b) == FieldElem(tag, 1, Fraction(b))


@settings(max_examples=300, deadline=None)
@given(tagged_pairs(count=1), st.integers(-3, 3), st.integers(-3, 3))
def test_eq_and_hash_agree_across_representations(case, k, l):
    tag, ((a, b),) = case
    if tag.degree == 1:
        l = 0
    # the same value reached by construction and by arithmetic
    x = FieldElem(tag, a, b)
    y = (x + FieldElem(tag, k, l)) - RingElem(tag, k, l)
    values = [x, y]
    if b == 0:
        values.append(a)
        if a.denominator == 1:
            values.append(a.numerator)
    if a.denominator == 1 and b.denominator == 1:
        values.append(RingElem(tag, a.numerator, b.numerator))
    for u in values:
        for v in values:
            assert u == v and v == u
            assert hash(u) == hash(v)
    # different values compare unequal both ways
    z = x + 1
    for u in values:
        assert u != z and z != u
        assert u != z.num and z.num != u


@pytest.mark.parametrize("tag", list(FieldTag), ids=lambda t: t.value)
def test_ring_elements_equal_the_rationals_of_their_value(tag):
    one = RingElem(tag, 1)
    assert one == Fraction(1) and Fraction(1) == one
    assert RingElem(tag, -6) == Fraction(-12, 2) == RingElem(tag, -6)
    assert len({one, Fraction(1)}) == 1
    assert len({one, Fraction(1), FieldElem(tag, 1), 1}) == 1
    # a rational that is not an integer, or another integer, is unequal
    for other in (Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(0)):
        assert one != other and other != one
    if tag.degree == 2:
        w = RingElem(tag, 0, 1)
        assert w != Fraction(0) and Fraction(0) != w
        assert RingElem(tag, 1, 1) != Fraction(1) != RingElem(tag, 1, 1)


def old_round_half_up(x):
    # the reference tie rule: floor(x + 1/2) on a Fraction
    num = 2 * x.numerator + x.denominator
    return num // (2 * x.denominator)


def old_euclid_divmod(alpha, beta):
    """Reference Euclidean division that rounds the quotient on Fractions."""
    tag = alpha.tag
    if tag.degree == 1:
        qa, qb, db_range = old_round_half_up(Fraction(alpha.a, beta.a)), 0, (0,)
    else:
        num = alpha * beta.conj()
        d = beta.norm_signed()
        qa = old_round_half_up(Fraction(num.a, d))
        qb = old_round_half_up(Fraction(num.b, d))
        db_range = (0, -1, 1)
    best = None
    for da in (0, -1, 1):
        for db in db_range:
            q = RingElem(tag, qa + da, qb + db)
            r = alpha - q * beta
            key = (r.norm_abs(), r.a, r.b)
            if best is None or key < best[0]:
                best = (key, q, r)
    return best[1], best[2]


ring_pairs = st.tuples(st.sampled_from(ALL_TAGS),
                       st.integers(-200, 200), st.integers(-200, 200),
                       st.integers(-30, 30), st.integers(-30, 30))


@settings(max_examples=400, deadline=None)
@given(ring_pairs)
@example((FieldTag.RATIONAL, 7, 0, -2, 0))        # 7 / -2: exact tie
@example((FieldTag.RATIONAL, -7, 0, 2, 0))        # -7 / 2: exact tie
@example((FieldTag.ROOT_FIVE, 5, 3, 0, 1))        # divisor tau, norm -1
@example((FieldTag.ROOT_FIVE, 3, 1, 1, -3))       # norm -11
@example((FieldTag.ROOT_TWO, 7, 3, 1, 1))         # divisor 1+sqrt2, norm -1
@example((FieldTag.ROOT_TWO, 3, 1, 2, 0))         # 3/2 + 1/2*w: both ties
def test_euclid_divmod_keeps_contract_and_old_rounding(case):
    tag, a, b, c, d = case
    if tag.degree == 1:
        b = d = 0
    alpha, beta = RingElem(tag, a, b), RingElem(tag, c, d)
    if beta.is_zero():
        return
    q, r = ring_divmod(alpha, beta)
    assert alpha == q * beta + r
    assert r.norm_abs() < beta.norm_abs()
    assert (q, r) == old_euclid_divmod(alpha, beta)


def old_canonical_associate(x):
    """Reference canonical associate by RingElem products: fix the sign
    of the norm and of the trace, then step the embedding ratio by eps."""
    tag = x.tag
    if x.is_zero():
        return x
    if tag.degree == 1:
        return RingElem(tag, abs(x.a))
    eta = (RingElem(tag, 0, 1) if tag is FieldTag.ROOT_FIVE
           else RingElem(tag, 1, 1))
    eps = eta * eta
    if x.norm_signed() < 0:
        x = x * eta
    if x.trace() < 0:
        x = -x
    while x.b < 0:
        x = x * eps
    while (x * eps.conj()).b >= 0:
        x = x * eps.conj()
    return x


def old_canonical_residue(value, modulus):
    """Reference canonical residue: the Euclidean remainder moved by at
    most one modulus, by least norm, then absolute coefficients, then
    nonnegative ones."""
    q0, r0 = old_euclid_divmod(value, modulus)
    best = None
    for t in (0, -1, 1):
        r = r0 - modulus * t
        key = (r.norm_abs(), abs(r.a), abs(r.b), r.a < 0, r.b < 0)
        if best is None or key < best[0]:
            best = (key, q0 + t, r)
    return best[1], best[2]


@settings(max_examples=400, deadline=None)
@given(ring_pairs)
@example((FieldTag.ROOT_FIVE, 0, 0, 3, 1))        # zero
@example((FieldTag.ROOT_FIVE, -3, -5, 2, 0))      # norm -11, trace -11
@example((FieldTag.ROOT_TWO, 1, -30, 3, 0))       # ratio far below 1
@example((FieldTag.RATIONAL, -7, 0, 2, 0))
def test_pair_canonical_helpers_match_ring_references(case):
    tag, a, b, c, d = case
    if tag.degree == 1:
        b = d = 0
    alpha, beta = RingElem(tag, a, b), RingElem(tag, c, d)
    want = old_canonical_associate(alpha)
    assert pair_canonical_associate(a, b, tag) == (want.a, want.b)
    assert alpha.canonical_associate() == want
    if beta.is_zero():
        return
    q, r = old_canonical_residue(alpha, beta)
    assert pair_canonical_residue(a, b, c, d, tag) == (q.a, q.b, r.a, r.b)
    assert ring_divmod(alpha, beta, pair_canonical_residue) == (q, r)
    q, r = old_euclid_divmod(alpha, beta)
    assert pair_euclid_divmod(a, b, c, d, tag) == (q.a, q.b, r.a, r.b)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(-1000, 1000).filter(bool))
@example(3, 2)
@example(-3, 2)
@example(3, -2)
@example(-5, -2)
def test_round_half_up_matches_fraction_rule(n, d):
    assert _round_half_up(n, d) == old_round_half_up(Fraction(n, d))


def fraction_text(a: Fraction, b: Fraction) -> str:
    """Reference text of a + b*w, printed through str(Fraction)."""
    if b == 0:
        return str(a)
    wpart = "w" if abs(b) == 1 else f"{abs(b)}*w"
    if a == 0:
        return wpart if b > 0 else f"-{wpart}"
    return f"{a}{'-' if b < 0 else '+'}{wpart}"


@settings(max_examples=400, deadline=None)
@given(tagged_pairs(count=1), st.integers(1, 10**6))
@example((FieldTag.ROOT_FIVE, [(Fraction(0), Fraction(-1))]), 1)
@example((FieldTag.ROOT_TWO, [(Fraction(-1, 2), Fraction(1, 2))]), 1)
@example((FieldTag.RATIONAL, [(Fraction(0), Fraction(0))]), 1)
def test_text_matches_fraction_formatting(case, big):
    tag, ((a, b),) = case
    for x, y in ((a, b), (a * big, b / big)):
        assert str(FieldElem(tag, x, y)) == fraction_text(x, y)
    if a.denominator == 1 and b.denominator == 1:
        ring = RingElem(tag, a.numerator, b.numerator)
        assert str(ring) == fraction_text(a, b)


# -- rounded quotients -------------------------------------------------------
#
# The rounding error x + y*omega of pair_round_quotient has |x|, |y| <= 1/2, so
# |N(error)| is at most 5/16 in Z[tau] and 1/2 in Z and Z[sqrt2]; the
# remainder is beta times the error.

ROUNDING_BOUND = {FieldTag.RATIONAL: Fraction(1, 2),
                  FieldTag.ROOT_FIVE: Fraction(5, 16),
                  FieldTag.ROOT_TWO: Fraction(1, 2)}


@settings(max_examples=400, deadline=None)
@given(ring_pairs)
@example((FieldTag.RATIONAL, 7, 0, -2, 0))        # 7 / -2: exact tie
@example((FieldTag.ROOT_FIVE, 1, 1, 2, 0))        # (1+w)/2: both ties
@example((FieldTag.ROOT_FIVE, 3, 1, 1, -3))       # norm -11
@example((FieldTag.ROOT_TWO, 0, 1, 2, 0))         # w/2: the worst error
@example((FieldTag.ROOT_TWO, 3, 1, 2, 0))         # 3/2 + 1/2*w: both ties
def test_round_quotient_reduces_the_norm(case):
    tag, a, b, c, d = case
    if tag.degree == 1:
        b = d = 0
    alpha, beta = RingElem(tag, a, b), RingElem(tag, c, d)
    if beta.is_zero():
        with pytest.raises(ZeroDivisionError):
            pair_round_quotient(a, b, c, d, *tag._omega_sq)
        return
    q = RingElem(tag, *pair_round_quotient(a, b, c, d, *tag._omega_sq))
    r = alpha - q * beta
    assert r.norm_abs() < beta.norm_abs()
    assert r.norm_abs() <= ROUNDING_BOUND[tag] * beta.norm_abs()
    if alpha.norm_abs() >= beta.norm_abs():
        assert not q.is_zero()
    # pair_euclid_divmod starts from this quotient and moves it by at most one
    # in each coordinate
    q2, _ = ring_divmod(alpha, beta)
    assert abs(q2.a - q.a) <= 1 and abs(q2.b - q.b) <= 1


# -- exponent literals ---------------------------------------------------


@pytest.mark.parametrize("text", ["1e999999", "1E5", "2.5e1", "3/1e2",
                                  "1e3*w", "-7e0"])
def test_exponent_literals_are_rejected(text):
    # Fraction would read these, and 1e999999 alone builds a million-digit
    # integer; the parser refuses them before any arithmetic
    for tag in ALL_TAGS:
        with pytest.raises(ParseInputError, match="exponent"):
            parse_field_elem(text, tag)


@pytest.mark.parametrize("text,value", [
    ("12", Fraction(12)), ("-3/4", Fraction(-3, 4)), ("1.25", Fraction(5, 4)),
    (".5", Fraction(1, 2)), ("0.0", Fraction(0)),
])
def test_integers_ratios_and_decimals_still_parse(text, value):
    for tag in ALL_TAGS:
        assert parse_field_elem(text, tag) == FieldElem(tag, value)
    tau = FieldTag.ROOT_FIVE
    assert parse_field_elem(f"{text}*w", tau) == FieldElem(tau, 0, value)


@pytest.mark.parametrize("text,value", [
    ("1_0/3_3", Fraction(10, 33)), ("1_000.2_5", Fraction(4001, 4)),
    ("-0_7.", Fraction(-7)), ("+.0_5", Fraction(1, 20)),
])
def test_underscores_between_digits(text, value):
    # one grammar on every Python version, that of Fraction in 3.11: it
    # reads "_" between digits, which Fraction in 3.10 refuses
    for tag in ALL_TAGS:
        assert parse_field_elem(text, tag) == FieldElem(tag, value)
    tau = FieldTag.ROOT_FIVE
    assert parse_field_elem(f"1+{text}*w", tau) == FieldElem(tau, 1, value)
    for bad in ("1__0", "_1", "1_", "1._5", "1/_3", "1_/3", "1/0_0", "."):
        with pytest.raises(ParseInputError, match="bad rational literal"):
            parse_field_elem(bad, tau)


@settings(max_examples=300, deadline=None)
@given(ring_pairs)
@example((FieldTag.ROOT_FIVE, 0, 0, 3, 1))        # gcd(0, y)
@example((FieldTag.ROOT_TWO, 4, 0, 6, 0))         # rational inputs
@example((FieldTag.RATIONAL, -12, 0, 18, 0))
def test_gcd_is_canonical_with_coprime_cofactors(case):
    # ring_gcd takes its remainders from rounded quotients; whatever the
    # remainder path, the result must be the canonical common divisor
    tag, a, b, c, d = case
    if tag.degree == 1:
        b = d = 0
    x, y = RingElem(tag, a, b), RingElem(tag, c, d)
    if x.is_zero() and y.is_zero():
        return
    g = ring_gcd(x, y)
    assert g == g.canonical_associate()
    assert g.divides(x) and g.divides(y)
    assert ring_gcd(x.exact_div(g), y.exact_div(g)) == 1
