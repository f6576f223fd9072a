import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csmod.modlat
from csmod.errors import DomainError
from csmod.modlat import (
    Ambient,
    KIndex,
    OModule,
    _canonical,
    hnf_canonical,
    identity_module,
    im_project,
    index_K,
    intersect,
    intersect_image,
    pure_part,
    scalar_intersect,
    scale_module,
)
from csmod.quat import Quat, cayley_matrix, cayley_pairs
from csmod.rings import FieldElem, FieldTag, RingElem, parse_field_elem
from modulesum import module_sum

TAGS = [FieldTag.RATIONAL, FieldTag.ROOT_FIVE, FieldTag.ROOT_TWO]

# ---------------------------------------------------------------------------
# Independent coset-counting oracle.  Everything below works on plain integer
# column lattices: quadratic coordinates a+b*w are flattened to integer pairs
# (rank doubling), and the index of a sublattice is found by BFS over the
# quotient group using floor-division reduction.  No code is shared with the
# package's determinant-based index.

OMEGA_SQ = {FieldTag.ROOT_FIVE: (1, 1), FieldTag.ROOT_TWO: (2, 0)}


def z_hnf(cols, n):
    work = [list(c) for c in cols]
    piv = {}
    for r in range(n - 1, -1, -1):
        while True:
            nz = [c for c in work if c[r] != 0]
            if not nz:
                raise ValueError("rank deficient")
            if len(nz) == 1:
                break
            nz.sort(key=lambda c: abs(c[r]))
            p = nz[0]
            for c in nz[1:]:
                q = c[r] // p[r]
                if q:
                    for i in range(n):
                        c[i] -= q * p[i]
        p = nz[0]
        if p[r] < 0:
            for i in range(n):
                p[i] = -p[i]
        piv[r] = p
        work.remove(p)
    return [piv[r] for r in range(n)]


def z_reduce(vec, hnf_cols):
    v = list(vec)
    for r in range(len(v) - 1, -1, -1):
        q = v[r] // hnf_cols[r][r]
        if q:
            for i in range(r + 1):
                v[i] -= q * hnf_cols[r][i]
    return tuple(v)


def bfs_coset_count(super_cols, sub_cols, n, cap=20000):
    sub = z_hnf(sub_cols, n)
    start = z_reduce([0] * n, sub)
    seen = {start}
    frontier = [start]
    gens = [tuple(c) for c in super_cols]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = z_reduce([a + b for a, b in zip(cur, g)], sub)
            if nxt not in seen:
                if len(seen) >= cap:
                    raise ValueError("coset cap exceeded")
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)


def z_gens(tag, columns, scale):
    """Integer Z-generators (col, w*col) of the field columns times scale."""
    out = []
    for col in columns:
        pairs = [((x * scale).a, (x * scale).b) for x in col]
        assert all(v.denominator == 1 for p in pairs for v in p)
        pairs = [(int(a), int(b)) for a, b in pairs]
        if tag.degree == 1:
            out.append([a for a, _ in pairs])
            continue
        c, e = OMEGA_SQ[tag]
        out.append([v for a, b in pairs for v in (a, b)])
        out.append([v for a, b in pairs for v in (c * b, a + e * b)])
    return out


def common_scale(*column_sets):
    return math.lcm(*(x.den for cols in column_sets for col in cols
                      for x in col))


def flatten_pair(msuper, msub):
    """Common-scale integer flattening of two modules over the same ring."""
    scale = common_scale(msuper.basis, msub.basis)
    tag = msuper.tag
    return (z_gens(tag, msuper.basis, scale), z_gens(tag, msub.basis, scale),
            msuper.rank * tag.degree)


def oracle_index(msuper, msub, cap=20000):
    sup, sub, n = flatten_pair(msuper, msub)
    return bfs_coset_count(sup, sub, n, cap)


# ---------------------------------------------------------------------------
# helpers

def rnd_module(rng, tag, ambient, span=3):
    n = ambient.dim
    while True:
        gens = []
        for _ in range(n):
            if tag.degree == 1:
                gens.append([rng.randint(-span, span) for _ in range(n)])
            else:
                gens.append([
                    FieldElem(tag, rng.randint(-span, span),
                              rng.randint(-1, 1))
                    for _ in range(n)
                ])
        try:
            return hnf_canonical(tag, ambient, gens)
        except DomainError:
            continue


def units(tag):
    if tag is FieldTag.RATIONAL:
        return [RingElem(tag, 1), RingElem(tag, -1)]
    eta = RingElem(tag, 1, 1) if tag is FieldTag.ROOT_TWO else RingElem(tag, 0, 1)
    eta_inv = RingElem(tag, -1, 1)
    assert eta * eta_inv == 1
    out = []
    for u in (RingElem(tag, 1), eta, eta * eta, eta_inv, eta_inv * eta_inv):
        out += [u, -u]
    return out


def lipschitz_module():
    return identity_module(FieldTag.RATIONAL, Ambient.QUAT)


def hurwitz_module():
    half = Fraction(1, 2)
    return hnf_canonical(FieldTag.RATIONAL, Ambient.QUAT, [
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (half, half, half, half),
    ])


def right_ideal(q, module):
    """Module of left multiples q*x for x running over the given module."""
    gens = []
    for col in module.basis:
        prod = q * Quat(module.tag, *col)
        gens.append(prod.coords())
    return hnf_canonical(module.tag, module.ambient, gens)


# ---------------------------------------------------------------------------
# canonical HNF

def test_hnf_scaled_bcc_display():
    mod = hnf_canonical(FieldTag.RATIONAL, Ambient.IM,
                        [(2, 0, 0), (0, 2, 0), (1, 1, 1)])
    want = tuple(
        tuple(FieldElem(FieldTag.RATIONAL, v) for v in col)
        for col in ((2, 0, 0), (0, 2, 0), (1, 1, 1))
    )
    assert mod.basis == want


def test_hnf_bcc_display():
    half = Fraction(1, 2)
    mod = hnf_canonical(FieldTag.RATIONAL, Ambient.IM, [
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (half, half, half),
    ])
    want = tuple(
        tuple(FieldElem(FieldTag.RATIONAL, v) for v in col)
        for col in ((1, 0, 0), (0, 1, 0), (half, half, half))
    )
    assert mod.basis == want


def test_hnf_scalar_diag():
    mod = hnf_canonical(FieldTag.ROOT_TWO, Ambient.IM,
                        [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    assert mod == scale_module(identity_module(FieldTag.ROOT_TWO, Ambient.IM), 2)
    assert [str(mod.basis[r][r]) for r in range(3)] == ["2", "2", "2"]


@pytest.mark.parametrize("tag", TAGS)
def test_hnf_canonical_under_regeneration(tag):
    rng = random.Random(101)
    for _ in range(60):
        mod = rnd_module(rng, tag, Ambient.IM)
        gens = [list(col) for col in mod.basis]
        rng.shuffle(gens)
        u = rng.choice(units(tag))
        gens[0] = [e * u.to_field() for e in gens[0]]
        lam = RingElem(tag, rng.randint(-2, 2)) if tag.degree == 1 else \
            RingElem(tag, rng.randint(-2, 2), rng.randint(-1, 1))
        gens.append([
            a + lam.to_field() * b for a, b in zip(gens[1], gens[2])
        ])
        assert hnf_canonical(tag, Ambient.IM, gens) == mod


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(TAGS), st.sampled_from([Ambient.IM, Ambient.QUAT]),
       st.integers(0, 2**32))
def test_hnf_canonical_independent_of_elimination_path(tag, ambient, seed):
    # _echelon steps by rounded quotients; the canonical form must depend
    # only on the module, so a random unimodular column operation on the
    # generators (an added multiple of another column, a swap, a unit
    # factor) must leave it unchanged
    rng = random.Random(seed)
    n = ambient.dim
    gens = [[RingElem(tag, rng.randint(-9, 9),
                      rng.randint(-3, 3) if tag.degree == 2 else 0)
             for _ in range(n)] for _ in range(n + rng.randint(0, 2))]
    try:
        mod = hnf_canonical(tag, ambient, gens)
    except DomainError:
        return    # the generators do not span a full-rank module
    moved = [list(col) for col in gens]
    i, j = rng.sample(range(len(moved)), 2)
    lam = RingElem(tag, rng.randint(-5, 5),
                   rng.randint(-5, 5) if tag.degree == 2 else 0)
    moved[i] = [a + lam * b for a, b in zip(moved[i], moved[j])]
    u = rng.choice(units(tag))
    moved[j] = [e * u for e in moved[j]]
    rng.shuffle(moved)
    assert hnf_canonical(tag, ambient, moved) == mod


@pytest.mark.parametrize("tag", TAGS)
def test_ring_columns_over_one_normalised_denominator(tag):
    rng = random.Random(107)
    for _ in range(40):
        mod = scale_module(rnd_module(rng, tag, Ambient.IM),
                           Fraction(rng.randint(1, 5), rng.randint(1, 12)))
        entries = [x for col in mod.cols for e in col for x in (e.a, e.b)]
        assert mod.den >= 1 and math.gcd(mod.den, *entries) == 1
        assert mod.basis == tuple(
            tuple(FieldElem.ratio(e, mod.den) for e in col)
            for col in mod.cols)
        # the same generators, scaled up by t and divided by t again
        t = rng.randint(2, 12)
        again = hnf_canonical(tag, Ambient.IM,
                              [[e * t for e in col] for col in mod.basis], t)
        assert (again.cols, again.den) == (mod.cols, mod.den)
        assert again == mod and hash(again) == hash(mod)
    with pytest.raises(DomainError):
        hnf_canonical(tag, Ambient.IM, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 0)


def test_hnf_rank_deficient_raises():
    with pytest.raises(DomainError):
        hnf_canonical(FieldTag.RATIONAL, Ambient.IM,
                      [(1, 2, 0), (2, 4, 0), (3, 6, 0)])


def test_coordinates_roundtrip():
    rng = random.Random(103)
    for tag in TAGS:
        for _ in range(40):
            mod = rnd_module(rng, tag, Ambient.IM)
            lam = []
            for _ in range(3):
                if tag.degree == 1:
                    lam.append(RingElem(tag, rng.randint(-3, 3)))
                else:
                    lam.append(RingElem(tag, rng.randint(-3, 3),
                                        rng.randint(-1, 1)))
            vec = [FieldElem(tag, 0)] * 3
            for c, l in enumerate(lam):
                for r in range(3):
                    vec[r] = vec[r] + l.to_field() * mod.basis[c][r]
            assert mod.coordinates(vec) == tuple(lam)
            assert mod.contains(vec)


# ---------------------------------------------------------------------------
# intersection and sum

def test_intersect_self_is_identity_law():
    rng = random.Random(107)
    for tag in TAGS:
        for _ in range(20):
            mod = rnd_module(rng, tag, Ambient.IM)
            assert intersect(mod, mod) == mod


def test_intersect_with_rotated_cube_lattice():
    tag = FieldTag.RATIONAL
    cube = identity_module(tag, Ambient.IM)
    rot = cayley_matrix(Quat(tag, 2, 1, 0, 0))
    cols = [[rot[r][c] for r in range(3)] for c in range(3)]
    rotated = hnf_canonical(tag, Ambient.IM, cols)
    both = intersect(cube, rotated)
    assert cube.contains_module(both)
    assert rotated.contains_module(both)
    assert index_K(cube, both).absolute == 5
    assert oracle_index(cube, both) == 5
    # the intersection is exactly {(x, y, z) integer with y = 2z mod 5}
    assert both.contains((0, 2, 1))
    assert both.contains((1, 0, 0))
    assert not both.contains((0, 1, 1))


def test_intersect_is_commutative_and_lower_bound():
    rng = random.Random(109)
    for tag in TAGS:
        for _ in range(15):
            a = rnd_module(rng, tag, Ambient.IM)
            b = rnd_module(rng, tag, Ambient.IM)
            both = intersect(a, b)
            assert both == intersect(b, a)
            assert a.contains_module(both)
            assert b.contains_module(both)
            total = module_sum(a, b)
            assert total.contains_module(a)
            assert total.contains_module(b)


def test_module_sum_examples():
    rng = random.Random(113)
    for tag in TAGS:
        mod = rnd_module(rng, tag, Ambient.IM)
        assert module_sum(mod, mod) == mod
    ident = identity_module(FieldTag.RATIONAL, Ambient.IM)
    assert module_sum(scale_module(ident, 2), scale_module(ident, 3)) == ident


def test_ambient_and_tag_mismatches():
    im = identity_module(FieldTag.RATIONAL, Ambient.IM)
    quat = identity_module(FieldTag.RATIONAL, Ambient.QUAT)
    other = identity_module(FieldTag.ROOT_FIVE, Ambient.IM)
    with pytest.raises(DomainError):
        intersect(im, quat)
    with pytest.raises(DomainError):
        module_sum(im, other)


def test_scalars_plus_ideal_of_even_norm_generator():
    # q = 1+i is two-sided but has even norm, so adding the scalars to
    # q*H (H the half-integer order) gives only the integer-coordinate
    # order, strictly smaller than H = H cap q*H*q^-1.
    tag = FieldTag.RATIONAL
    hur = hurwitz_module()
    lip = lipschitz_module()
    q = Quat(tag, 1, 1, 0, 0)
    ideal = right_ideal(q, hur)
    summed = hnf_canonical(tag, Ambient.QUAT,
                           [(1, 0, 0, 0)] + list(ideal.basis))
    assert summed == lip
    assert summed != hur
    conj_gens = [
        (q * Quat(tag, *col) * q.inverse()).coords() for col in hur.basis
    ]
    assert hnf_canonical(tag, Ambient.QUAT, conj_gens) == hur
    assert intersect(hur, hur) == hur


def test_scalars_plus_ideal_of_odd_norm_generator():
    # for odd-norm primitive q the sum of the scalars and q*H does fill
    # the whole intersection H cap q*H*q^-1
    tag = FieldTag.RATIONAL
    hur = hurwitz_module()
    for coords in ((1, 1, 1, 0), (2, 1, 0, 0), (0, 1, 1, 1),
                   (2, 1, 1, 1), (3, 1, 1, 0)):
        q = Quat(tag, *coords)
        ideal = right_ideal(q, hur)
        summed = hnf_canonical(tag, Ambient.QUAT,
                               [(1, 0, 0, 0)] + list(ideal.basis))
        conj = hnf_canonical(tag, Ambient.QUAT, [
            (q * Quat(tag, *col) * q.inverse()).coords() for col in hur.basis
        ])
        assert summed == intersect(hur, conj)


# ---------------------------------------------------------------------------
# indices

def test_index_hurwitz_examples():
    hur = hurwitz_module()
    lip = lipschitz_module()
    assert index_K(hur, lip).absolute == 2
    q = Quat(FieldTag.RATIONAL, 1, 1, 0, 0)
    ideal = right_ideal(q, hur)
    idx = index_K(hur, ideal)
    assert idx.absolute == 4
    assert oracle_index(hur, ideal) == 4


def test_kindex_equality_and_hash():
    tag = FieldTag.ROOT_FIVE
    two, also_two = KIndex(RingElem(tag, 2)), KIndex(RingElem(tag, 2))
    three = KIndex(RingElem(tag, 3))
    assert two == also_two and hash(two) == hash(also_two)
    assert two != three and two != RingElem(tag, 2)
    assert len({two, also_two, three}) == 2
    assert {index_K(hurwitz_module(), lipschitz_module()): "x"}[
        KIndex(RingElem(FieldTag.RATIONAL, 2))] == "x"


def test_index_not_submodule_raises():
    ident = identity_module(FieldTag.RATIONAL, Ambient.IM)
    with pytest.raises(DomainError):
        index_K(scale_module(ident, 2), ident)


def test_index_trivial_iff_equal():
    rng = random.Random(127)
    for tag in TAGS:
        mod = rnd_module(rng, tag, Ambient.IM)
        assert index_K(mod, mod).absolute == 1
        sub = scale_module(mod, 2)
        assert index_K(mod, sub).absolute != 1


def test_index_agrees_with_coset_oracle():
    rng = random.Random(131)
    for tag in TAGS:
        for _ in range(12):
            mod = rnd_module(rng, tag, Ambient.IM, span=2)
            d = rng.choice((2, 3)) if tag.degree == 1 else 2
            gens = [[e * d for e in col] for col in mod.basis]
            lam = (RingElem(tag, 1) if tag.degree == 1
                   else RingElem(tag, rng.randint(0, 1), 1))
            gens.append([
                a + lam.to_field() * b
                for a, b in zip(mod.basis[0], mod.basis[1])
            ])
            sub = hnf_canonical(tag, Ambient.IM, gens)
            assert mod.contains_module(sub)
            assert index_K(mod, sub).absolute == oracle_index(mod, sub)


def test_index_multiplicative_along_chains():
    rng = random.Random(137)
    for tag in TAGS:
        for _ in range(15):
            top = rnd_module(rng, tag, Ambient.IM, span=2)
            mid = scale_module(top, 2)
            if tag.degree == 1:
                bot = scale_module(mid, 3)
            else:
                bot = scale_module(mid, FieldElem(tag, 1, 1))
            # the index ideals multiply: their generators, up to a unit
            step = (index_K(top, mid).generator
                    * index_K(mid, bot).generator).canonical_associate()
            assert index_K(top, bot) == KIndex(step)


# ---------------------------------------------------------------------------
# projections to the imaginary ambient

def test_im_project_hurwitz_is_bcc():
    half = Fraction(1, 2)
    got = im_project(hurwitz_module())
    want = tuple(
        tuple(FieldElem(FieldTag.RATIONAL, v) for v in col)
        for col in ((1, 0, 0), (0, 1, 0), (half, half, half))
    )
    assert got.basis == want


def test_im_project_integer_order_is_cubic():
    assert im_project(lipschitz_module()) == identity_module(
        FieldTag.RATIONAL, Ambient.IM
    )


def test_im_project_requires_rank_four():
    with pytest.raises(DomainError):
        im_project(identity_module(FieldTag.RATIONAL, Ambient.IM))


def test_scalar_intersect_examples():
    tag = FieldTag.RATIONAL
    hur = hurwitz_module()
    assert scalar_intersect(hur) == RingElem(tag, 1)
    ideal5 = right_ideal(Quat(tag, 2, 1, 0, 0), hur)
    assert scalar_intersect(ideal5) == RingElem(tag, 5)
    for t in range(1, 5):
        assert not ideal5.contains((t, 0, 0, 0))
    assert ideal5.contains((5, 0, 0, 0))
    ideal2 = right_ideal(Quat(tag, 1, 1, 0, 0), hur)
    assert scalar_intersect(ideal2) == RingElem(tag, 2)
    assert ideal2.contains((2, 0, 0, 0))
    assert not ideal2.contains((1, 0, 0, 0))


def test_json_columns_roundtrip():
    rng = random.Random(139)
    for tag in TAGS:
        mod = rnd_module(rng, tag, Ambient.IM)
        rebuilt = hnf_canonical(tag, Ambient.IM, [
            [parse_field_elem(s, tag) for s in col]
            for col in mod.json_columns()
        ])
        assert rebuilt == mod


# ---------------------------------------------------------------------------
# Z-lattice oracle for the integer-pair core.  A module over the ring is the
# Z-lattice spanned by (col, w*col) over its columns; these checks expand
# columns of field elements that way (z_gens), with FieldElem arithmetic
# only, and compare canonical Z-HNFs, so they share no code with the core.

def z_canonical(vectors, n):
    """The Hermite normal form of a full-rank Z-lattice in Z^n: z_hnf,
    then every entry above a pivot reduced into [0, pivot)."""
    basis = z_hnf(vectors, n)
    for j, col in enumerate(basis):
        for r in range(j - 1, -1, -1):
            q = col[r] // basis[r][r]
            for i in range(r + 1):
                col[i] -= q * basis[r][i]
    return [tuple(col) for col in basis]


def z_intersection(first, second, n):
    """Z-basis of the meet of two full-rank lattices in Z^n: the columns
    (v; v) and (0; w) span {(B1 x; B1 x + B2 y)}, and the HNF columns whose
    last n entries vanish carry B1 x for B1 x = -B2 y."""
    stacked = [list(v) + list(v) for v in first]
    stacked += [[0] * n + list(w) for w in second]
    return [col[:n] for col in z_hnf(stacked, 2 * n)[:n]]


def rnd_ring(rng, tag, span):
    return RingElem(tag, rng.randint(-span, span),
                    rng.randint(-span, span) if tag.degree == 2 else 0)


@pytest.mark.parametrize("ambient", [Ambient.IM, Ambient.QUAT])
@pytest.mark.parametrize("tag", TAGS)
def test_hnf_canonical_spans_its_generators_over_z(tag, ambient):
    rng = random.Random(211)
    n = ambient.dim
    checked = 0
    while checked < 12:
        gens = [[FieldElem(tag, Fraction(rng.randint(-6, 6),
                                         rng.randint(1, 3)),
                           rng.randint(-1, 1) if tag.degree == 2 else 0)
                 for _ in range(n)] for _ in range(n + rng.randint(0, 2))]
        den = rng.randint(1, 4)
        try:
            mod = hnf_canonical(tag, ambient, gens, den)
        except DomainError:
            continue
        inputs = [[x / den for x in col] for col in gens]
        scale = common_scale(inputs, mod.basis)
        size = n * tag.degree
        assert (z_canonical(z_gens(tag, mod.basis, scale), size)
                == z_canonical(z_gens(tag, inputs, scale), size))
        checked += 1


@pytest.mark.parametrize("ambient", [Ambient.IM, Ambient.QUAT])
@pytest.mark.parametrize("tag", TAGS)
def test_intersect_image_is_the_z_intersection(tag, ambient):
    rng = random.Random(223)
    n = ambient.dim
    for trial in range(10):
        mod = rnd_module(rng, tag, ambient)
        if ambient is Ambient.IM and trial % 2:
            q = Quat(tag, *(rnd_ring(rng, tag, 3) for _ in range(4)))
            if q.is_zero():
                continue
            rows, (sa, sb) = cayley_pairs(q.num, *tag._omega_sq)
            numer = [[RingElem(tag, a, b) for a, b in zip(row[::2], row[1::2])]
                     for row in rows]
            scale = RingElem(tag, sa, sb)
        else:
            # diagonally dominant in the first embedding, so invertible
            numer = [[rnd_ring(rng, tag, 2) + (40 if r == k else 0)
                      for k in range(n)] for r in range(n)]
            scale = rnd_ring(rng, tag, 4)
            if scale.is_zero():
                continue
        image = [[sum((numer[r][k].to_field() * col[k] for k in range(n)),
                      FieldElem(tag, 0)) / scale.to_field()
                  for r in range(n)] for col in mod.basis]
        got = intersect_image(
            mod, [[x for y in row for x in (y.a, y.b)] for row in numer],
            (scale.a, scale.b))
        scale_z = common_scale(mod.basis, image, got.basis)
        size = n * tag.degree
        want = z_intersection(z_gens(tag, mod.basis, scale_z),
                              z_gens(tag, image, scale_z), size)
        assert (z_canonical(z_gens(tag, got.basis, scale_z), size)
                == z_canonical(want, size))


def q_rank(vectors):
    """Rank over Q of integer vectors, by Fraction elimination."""
    rows = [[Fraction(v) for v in vec] for vec in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def flat_pairs(vector):
    return [x for y in vector for x in (y.a, y.b)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TAGS), st.sampled_from([Ambient.IM, Ambient.QUAT]),
       st.integers(0, 2), st.integers(0, 2), st.integers(0, 2**32))
def test_one_pass_keeps_the_combinations_with_zero_head(tag, ambient, extra1,
                                                        extra2, seed):
    # columns (v; v) for v in B1 and (0; w) for w in B2, the head below:
    # the combinations with zero head carry the meet of the two spans,
    # which must be full rank exactly when both spans are
    rng = random.Random(seed)
    n = ambient.dim
    first, second = ([[rnd_ring(rng, tag, 3) for _ in range(n)]
                      for _ in range(n + extra)] for extra in (extra1, extra2))
    if rng.random() < 0.25:     # force a rank-deficient first span
        lam = rnd_ring(rng, tag, 2)
        combo = [a + lam * b for a, b in zip(first[0], first[1])]
        first = first[:n - 1] + [combo] * (len(first) - n + 1)
    cols = [flat_pairs(v) * 2 for v in first]
    cols += [[0] * (2 * n) + flat_pairs(w) for w in second]
    z_first, z_second = (z_gens(tag, [[x.to_field() for x in v] for v in vs], 1)
                         for vs in (first, second))
    size = n * tag.degree
    den = rng.randint(1, 4)
    if min(q_rank(z_first), q_rank(z_second)) < size:
        with pytest.raises(DomainError):
            _canonical(tag, ambient, cols, den)
        return
    got = _canonical(tag, ambient, cols, den)
    assert (z_canonical(z_gens(tag, got.basis, den), size)
            == z_canonical(z_intersection(z_first, z_second, size), size))


def test_one_pass_refuses_a_nonzero_head(monkeypatch):
    # the columns read as the intersection must vanish on the head rows
    tag = FieldTag.ROOT_TWO
    m1 = rnd_module(random.Random(5), tag, Ambient.IM)
    m2 = rnd_module(random.Random(6), tag, Ambient.IM)
    echelon = csmod.modlat._echelon

    def corrupted(columns, c, e):
        pivots = echelon(columns, c, e)
        pivots[0][-1] += 1
        return pivots

    monkeypatch.setattr(csmod.modlat, "_echelon", corrupted)
    with pytest.raises(ArithmeticError, match="nonzero head"):
        intersect(m1, m2)


@pytest.mark.parametrize("tag", TAGS)
def test_pure_part_is_the_z_meet_with_the_pure_quaternions(tag):
    # the scalar coordinate moved last, the Z-HNF columns with pivots on
    # the first rows span the lattice points with zero scalar coordinate
    rng = random.Random(229)
    size = 3 * tag.degree
    for _ in range(12):
        mod = rnd_module(rng, tag, Ambient.QUAT)
        got = pure_part(mod)
        assert got.ambient is Ambient.IM
        scale = common_scale(mod.basis, got.basis)
        moved = [v[tag.degree:] + v[:tag.degree]
                 for v in z_gens(tag, mod.basis, scale)]
        want = [col[:size] for col in z_hnf(moved, 4 * tag.degree)[:size]]
        assert (z_canonical(z_gens(tag, got.basis, scale), size)
                == z_canonical(want, size))
