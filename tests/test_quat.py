import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csmod.errors import DomainError, ParseInputError
from csmod.quat import (
    Quat,
    axis_angle,
    cayley_matrix,
    format_quat,
    hamilton_product,
    parse_quat,
)
from csmod.rings import FieldElem, FieldTag, RingElem, as_field
from fieldmatrix import Mat3K, rotation_matrix

TAGS = [FieldTag.RATIONAL, FieldTag.ROOT_FIVE, FieldTag.ROOT_TWO]


def rnd_field(rng, tag, span=5):
    a = Fraction(rng.randint(-span, span), rng.choice((1, 2)))
    if tag.degree == 1:
        return FieldElem(tag, a)
    b = Fraction(rng.randint(-span, span), rng.choice((1, 2)))
    return FieldElem(tag, a, b)


def rnd_quat(rng, tag, span=5, nonzero=False):
    while True:
        q = Quat(tag, *(rnd_field(rng, tag, span) for _ in range(4)))
        if not (nonzero and q.is_zero()):
            return q


@pytest.mark.parametrize("tag", TAGS)
def test_hamilton_table(tag):
    one = Quat.one(tag)
    i, j, k = Quat.i(tag), Quat.j(tag), Quat.k(tag)
    assert i * i == -1 and j * j == -1 and k * k == -1
    assert i * j == k and j * k == i and k * i == j
    assert j * i == -k and k * j == -i and i * k == -j
    assert i * j * k == -one


@pytest.mark.parametrize("tag", TAGS)
def test_product_examples(tag):
    i = Quat.i(tag)
    assert (1 + i) * (1 - i) == Quat(tag, 2)
    rng = random.Random(11)
    for _ in range(50):
        q = rnd_quat(rng, tag)
        assert q * q.conj() == Quat(tag, q.nr())


def test_multiplication_is_associative_and_conj_reverses():
    rng = random.Random(23)
    for tag in TAGS:
        for _ in range(200):
            q, r, s = (rnd_quat(rng, tag) for _ in range(3))
            assert (q * r) * s == q * (r * s)
            assert (q * r).conj() == r.conj() * q.conj()
            assert (q * r).nr() == q.nr() * r.nr()


def test_trace_and_norm_basics():
    rng = random.Random(37)
    for tag in TAGS:
        for _ in range(100):
            q = rnd_quat(rng, tag)
            assert q.trace() == 2 * q.coords()[0]
            assert q + q.conj() == Quat(tag, q.trace())


def test_mixed_tags_rejected():
    q5 = Quat.i(FieldTag.ROOT_FIVE)
    q2 = Quat.j(FieldTag.ROOT_TWO)
    with pytest.raises(DomainError):
        q5 * q2
    with pytest.raises(DomainError):
        q5 + q2


def test_inverse():
    rng = random.Random(41)
    for tag in TAGS:
        for _ in range(50):
            q = rnd_quat(rng, tag, nonzero=True)
            assert q * q.inverse() == 1
            assert q.inverse() * q == 1
    with pytest.raises(ZeroDivisionError):
        Quat.zero(FieldTag.RATIONAL).inverse()


@pytest.mark.parametrize("tag", TAGS)
def test_cayley_fixed_points(tag):
    # three rows, each a tuple of field elements
    assert cayley_matrix(Quat.one(tag)) == Mat3K.identity(tag).rows
    assert cayley_matrix(Quat.i(tag)) == Mat3K(
        tag, [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
    ).rows


def test_cayley_cyclic_example():
    tag = FieldTag.RATIONAL
    q = Quat(tag, 1, 1, 1, 1)
    mat = cayley_matrix(q)
    assert mat == Mat3K(tag, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]).rows
    assert (q * Quat(tag, 0, 1, 2, 3) * q.inverse()).coords()[1:] == tuple(
        FieldElem(tag, v) for v in (3, 1, 2)
    )


def test_cayley_zero_rejected():
    with pytest.raises(DomainError):
        cayley_matrix(Quat.zero(FieldTag.RATIONAL))


def test_cayley_orthogonal_det_one():
    rng = random.Random(53)
    for tag in TAGS:
        ident = Mat3K.identity(tag)
        for _ in range(1000):
            q = rnd_quat(rng, tag, span=4, nonzero=True)
            mat = rotation_matrix(q)
            assert mat.transpose() * mat == ident
            assert mat.det() == FieldElem(tag, 1)


def test_cayley_is_multiplicative():
    rng = random.Random(59)
    for tag in TAGS:
        for _ in range(200):
            q = rnd_quat(rng, tag, nonzero=True)
            r = rnd_quat(rng, tag, nonzero=True)
            assert (rotation_matrix(q * r)
                    == rotation_matrix(q) * rotation_matrix(r))


def test_cayley_rotates_imaginary_parts():
    rng = random.Random(61)
    for tag in TAGS:
        for _ in range(200):
            q = rnd_quat(rng, tag, nonzero=True)
            rows = cayley_matrix(q)
            # column c of R(q) is Im(q * e * q^-1) for e = i, j, k
            for c, e in enumerate((Quat.i(tag), Quat.j(tag), Quat.k(tag))):
                im = (q * e * q.inverse()).coords()[1:]
                assert im == tuple(row[c] for row in rows)


def test_cayley_scale_invariant():
    rng = random.Random(67)
    for tag in TAGS:
        for _ in range(200):
            q = rnd_quat(rng, tag, nonzero=True)
            alpha = rnd_field(rng, tag)
            if alpha.is_zero():
                continue
            assert cayley_matrix(q * alpha) == cayley_matrix(q)


@pytest.mark.parametrize("tag", TAGS)
def test_axis_angle_examples(tag):
    axis, cos = axis_angle(Quat.i(tag))
    assert axis == tuple(FieldElem(tag, v) for v in (1, 0, 0))
    assert cos == FieldElem(tag, -1)
    axis, cos = axis_angle(Quat(tag, 1, 1, 1, 1))
    assert axis == tuple(FieldElem(tag, 1) for _ in range(3))
    assert cos == FieldElem(tag, Fraction(-1, 2))
    axis, cos = axis_angle(Quat(tag, 1, 1, 0, 0))
    assert axis == tuple(FieldElem(tag, v) for v in (1, 0, 0))
    assert cos == FieldElem(tag, 0)


def test_axis_angle_matches_matrix_trace():
    rng = random.Random(71)
    for tag in TAGS:
        for _ in range(200):
            q = rnd_quat(rng, tag, nonzero=True)
            if q.is_scalar():
                continue
            _, cos = axis_angle(q)
            assert rotation_matrix(q).trace() == 1 + 2 * cos


def test_axis_angle_scalar_rejected():
    with pytest.raises(DomainError):
        axis_angle(Quat(FieldTag.ROOT_FIVE, 3))


def test_coords_examples():
    tag = FieldTag.RATIONAL
    assert Quat(tag, 1, 2, 0, 0).coords() == tuple(
        FieldElem(tag, v) for v in (1, 2, 0, 0))
    half = Fraction(1, 2)
    assert Quat(tag, half, half, half, half).coords() == tuple(
        FieldElem(tag, half) for _ in range(4))
    rng = random.Random(73)
    for tg in TAGS:
        for _ in range(50):
            q = rnd_quat(rng, tg)
            re, *im = q.coords()
            cre, *cim = q.conj().coords()
            assert cre == re
            assert cim == [-c for c in im]


@pytest.mark.parametrize("tag", TAGS)
def test_parse_basic(tag):
    assert parse_quat("1+i+j+k", tag) == Quat(tag, 1, 1, 1, 1)
    assert parse_quat("1/2 + 1/2*i + 1/2*j + 1/2*k", tag) == Quat(
        tag, *(Fraction(1, 2) for _ in range(4))
    )
    assert parse_quat("-i", tag) == -Quat.i(tag)
    assert parse_quat("0", tag) == Quat.zero(tag)
    assert parse_quat("2*j-3*k", tag) == Quat(tag, 0, 0, 2, -3)


def test_parse_quadratic_coefficients():
    tag = FieldTag.ROOT_FIVE
    q = parse_quat("(1+w)*i - k", tag)
    assert q == Quat(tag, 0, FieldElem(tag, 1, 1), 0, -1)
    assert parse_quat("w", tag) == Quat(tag, FieldElem(tag, 0, 1))
    assert parse_quat("w*j", tag) == Quat(tag, 0, 0, FieldElem(tag, 0, 1), 0)


def test_parse_rejects_garbage():
    tag = FieldTag.RATIONAL
    for bad in ("", "q+1", "i*j", "1+w", "(1+i", "1**i"):
        with pytest.raises(ParseInputError):
            parse_quat(bad, tag)


def test_format_parse_roundtrip():
    rng = random.Random(79)
    for tag in TAGS:
        for _ in range(300):
            q = rnd_quat(rng, tag)
            assert parse_quat(format_quat(q), tag) == q


def test_format_examples():
    tag = FieldTag.ROOT_FIVE
    assert format_quat(Quat.zero(tag)) == "0"
    assert format_quat(Quat(tag, 1, -1, 0, 0)) == "1-i"
    assert format_quat(Quat(tag, 0, FieldElem(tag, 1, 1), 0, -1)) == "(1+w)*i-k"


# -- scalar products ---------------------------------------------------
#
# A scalar scales the four coordinates; the reference is the product with
# the scalar quaternion, which runs the full Hamilton formula.

small = st.integers(-20, 20)
rationals = st.builds(Fraction, small, st.integers(1, 6))


@st.composite
def quat_and_scalar(draw):
    tag = draw(st.sampled_from(TAGS))
    omega = (lambda: draw(rationals)) if tag.degree == 2 else (lambda: 0)
    q = Quat(tag, *(FieldElem(tag, draw(rationals), omega())
                    for _ in range(4)))
    kind = draw(st.sampled_from(("int", "fraction", "ring", "field")))
    if kind == "int":
        s = draw(small)
    elif kind == "fraction":
        s = draw(rationals)
    elif kind == "ring":
        s = RingElem(tag, draw(small), draw(small) if tag.degree == 2 else 0)
    else:
        s = FieldElem(tag, draw(rationals), omega())
    return q, s


@settings(max_examples=300, deadline=None)
@given(quat_and_scalar())
def test_scalar_product_matches_scalar_quaternion(case):
    q, s = case
    want = q * Quat(q.tag, s)
    assert q * s == want
    assert s * q == want
    assert (q * s).tag is q.tag
    # division scales by the inverse, on the same path
    if s != 0:
        assert q / s == q * Quat(q.tag, as_field(q.tag, s).inverse())


@pytest.mark.parametrize("tag", TAGS)
def test_scalar_product_rejects_other_operands(tag):
    q = Quat(tag, 1, 2, 3, 4)
    for bad in ("2", 1.5, None, (1, 2)):
        with pytest.raises(TypeError):
            q * bad
        with pytest.raises(TypeError):
            bad * q
    for other in TAGS:
        if other is tag:
            continue
        for s in (RingElem(other, 2), FieldElem(other, Fraction(1, 2)),
                  Quat.one(other)):
            with pytest.raises(DomainError):
                q * s
            with pytest.raises(DomainError):
                s * q


def test_scalar_quaternion_is_its_field_element():
    Q, R5 = FieldTag.RATIONAL, FieldTag.ROOT_FIVE
    # another field's element is unequal, as between field elements
    assert (Quat(R5, 1) == RingElem(Q, 1)) is False
    assert (Quat(R5, 1) == FieldElem(Q, 1)) is False
    assert (RingElem(Q, 1) == Quat(R5, 1)) is False
    assert Quat(R5, 1) != Quat(Q, 1)
    # one value, however written, compared from either side
    ones = [Quat(Q, 1), 1, RingElem(Q, 1), FieldElem(Q, 1), Fraction(1)]
    assert len(set(ones)) == 1
    assert len({*ones[1:], ones[0]}) == 1
    assert all(ones[0] == x and x == ones[0] for x in ones)
    assert hash(Quat(Q, Fraction(1, 2))) == hash(Fraction(1, 2))
    w = FieldElem(R5, 0, 1)
    assert Quat(R5, w) == w and w == Quat(R5, w)
    assert hash(Quat(R5, w)) == hash(w)
    assert Quat(R5, 1) != "1" and Quat(R5, 1) != None  # noqa: E711


@pytest.mark.parametrize("tag", TAGS)
def test_non_scalar_quaternion_never_equals_a_scalar(tag):
    rng = random.Random(17)
    for _ in range(40):
        q = rnd_quat(rng, tag)
        if q.is_scalar():
            continue
        x0 = q.coords()[0]
        for s in (x0, x0.num, 0, 1, Fraction(1, 2), Quat(tag, x0)):
            assert q != s and s != q


@st.composite
def field_quads(draw):
    """A tag, two coordinate 4-tuples of FieldElems (sometimes with every
    omega part 0) and a small positive integer."""
    tag = draw(st.sampled_from(TAGS))
    rational = tag.degree == 1 or draw(st.booleans())

    def elem():
        return FieldElem(tag, draw(rationals),
                         0 if rational else draw(rationals))
    return (tag, tuple(elem() for _ in range(4)),
            tuple(elem() for _ in range(4)), draw(st.integers(1, 6)))


@settings(max_examples=300, deadline=None)
@given(field_quads())
def test_numerator_quaternions_match_field_coordinates(case):
    tag, a, b, k = case
    p, q = Quat(tag, *a), Quat(tag, *b)
    # products, sums and norms agree with the per-coordinate reference
    assert p.coords() == a
    assert (p * q).coords() == hamilton_product(a, b)
    assert (p + q).coords() == tuple(x + y for x, y in zip(a, b))
    assert (p - q).coords() == tuple(x - y for x, y in zip(a, b))
    assert p.nr() == sum((x * x for x in a), FieldElem(tag, 0))
    for r in (p, p * q, p + q, p - q):
        # the numerators are flat integer pairs, in lowest terms over den
        assert r.den >= 1 and len(r.num) == 8
        assert all(isinstance(x, int) for x in r.num)
        assert math.gcd(r.den, *r.num) == 1
        assert r.coords() == tuple(
            FieldElem.ratio(RingElem(tag, *r.num[i:i + 2]), r.den)
            for i in (0, 2, 4, 6))
    # equal quaternions built by different routes have equal parts
    den = k * math.lcm(*(x.den for x in a))
    elems = [x.num * (den // x.den) for x in a]
    nums = [n for e in elems for n in (e.a, e.b)]
    routes = [
        Quat.ratio(tag, nums, den),
        Quat.ratio(tag, [-n for n in nums], -den),
        Quat(tag, *elems) * Quat(tag, Fraction(1, den)),
        Quat(tag, *elems) / den,
        (p * Quat(tag, den)) * Quat.one(tag) / den,
    ]
    if all(x.num.b == 0 for x in a):
        routes.append(Quat(tag, *(x.a for x in a)))             # Fractions
        routes.append(Quat(tag, *(e.a for e in elems)) / den)   # ints
    for r in routes:
        assert (r.tag, r.num, r.den) == (p.tag, p.num, p.den)
        assert r == p and hash(r) == hash(p)
    with pytest.raises(ZeroDivisionError):
        Quat.ratio(tag, nums, 0)
