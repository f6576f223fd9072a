import hashlib
import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csmod import csm, rings
from csmod.csm import (MODULE_KEYS, CorrespondenceReport, count_csms,
                       csm_bruteforce, gamma_of, sigma_index, spectrum_member,
                       spectrum_witness, standard_module,
                       verify_ideal_correspondence)
from csmod.errors import DomainError, ResourceCapError
from csmod.modlat import (Ambient, hnf_canonical, im_project, index_K,
                          intersect, pure_part)
from csmod.orders import (hurwitz, icosian, lipschitz, octahedral,
                           order_by_key)
from csmod.quat import Quat, cayley_matrix, format_quat
from csmod.rings import (FieldElem, FieldTag, RingElem, parse_field_elem,
                         ring_gcd)
from fieldmatrix import Mat3K, rotation_matrix, rotation_to_quat
from modulesum import module_sum
from wholeorder import WholeOrderSearch

Q = FieldTag.RATIONAL
R5 = FieldTag.ROOT_FIVE
R2 = FieldTag.ROOT_TWO


def fe(tag, a, b=0):
    return FieldElem(tag, Fraction(a), Fraction(b))


def maximal_orders():
    return [hurwitz(), icosian(), octahedral()]


def rnd_element(order, rng, span=3):
    while True:
        q = Quat.zero(order.field_tag)
        for b in order.basis:
            q = q + b * rng.randint(-span, span)
        if not q.is_zero():
            return q


# -- coincidence index by formula vs. by intersection ------------------
#
# csm_bruteforce computes the rotated lattice, intersects, and takes the
# exact index; none of that shares code with the generator-reduction
# formula, so agreement between the two is the oracle for sigma_index.


def test_sigma_hurwitz_examples():
    order = hurwitz()
    q = Quat(Q, 2, 1, 0, 0)
    assert sigma_index(order, q) == 5
    sub, sigma = csm_bruteforce(gamma_of(order), q)
    assert sigma == 5
    assert index_K(gamma_of(order), sub).absolute == 5
    assert sigma_index(order, Quat(Q, 1, 1, 0, 0)) == 1
    assert sigma_index(order, Quat(Q, 1, 1, 1, 1)) == 1
    assert sigma_index(order, Quat(Q, 0, 1, 2, 3)) == 7


def test_sigma_icosian_octahedral_examples():
    assert sigma_index(icosian(), Quat(R5, 1, 1, 0, 0)) == 4
    assert sigma_index(icosian(), Quat(R5, 2, 1, 0, 0)) == 25
    # 1+i is root-two times a unit of the octahedral order, so its
    # rotation fixes the module; a generator of genuine index two needs
    # a half-unit component
    assert sigma_index(octahedral(), Quat(R2, 1, 1, 0, 0)) == 1
    assert sigma_index(octahedral(),
                       Quat.one(R2) + octahedral().basis[1]) == 2
    assert sigma_index(octahedral(), Quat(R2, 1, fe(R2, 0, 1), 0, 0)) == 9


def test_sigma_scale_invariant():
    order = hurwitz()
    q = Quat(Q, 2, 1, 0, 0)
    for scalar in (3, -2, Fraction(1, 2), Fraction(7, 3)):
        assert sigma_index(order, q * scalar) == 5


def test_sigma_identity_and_halfturn():
    order = hurwitz()
    cubic = standard_module("cubic")
    assert sigma_index(order, Quat.one(Q)) == 1
    assert sigma_index(order, Quat(Q, 0, 1, 0, 0)) == 1
    sub, sigma = csm_bruteforce(cubic, Quat(Q, 0, 1, 0, 0))
    assert (sub, sigma) == (cubic, 1)


def test_sigma_needs_maximal_order():
    with pytest.raises(DomainError):
        sigma_index(lipschitz(Q), Quat(Q, 0, 1, 1, 0))


def test_sigma_matches_bruteforce_random():
    rng = random.Random(20260819)
    for order in maximal_orders():
        gamma = gamma_of(order)
        for _ in range(12):
            q = rnd_element(order, rng, span=2)
            _, sigma = csm_bruteforce(gamma, q)
            assert sigma == sigma_index(order, q)


def test_reduced_representative_keeps_csm():
    rng = random.Random(5)
    for order in maximal_orders():
        gamma = gamma_of(order)
        for _ in range(6):
            q = rnd_element(order, rng, span=2) * rng.choice([1, 1, 2, 3])
            r = order.reduce_generator(q)
            assert order.is_reduced(r)
            assert csm_bruteforce(gamma, q) == csm_bruteforce(gamma, r)


# -- a third index oracle, from the rotation matrix alone --------------
#
# In a basis B of a module, R acts as B^-1 R B, and the index of the
# coincidence module is |N(d)| for the ideal denominator d of that matrix:
# the least d with d*B^-1 R B integral.  It reads no quaternion, ideal or
# intersection.

MODULES_OF_FIELD = {Q: ("cubic", "fcc", "bcc"),
                    R5: ("im-icosian", "mb", "mf", "cubic-root5"),
                    R2: ("im-octahedral", "cubic-root2")}


def denominator_norm(mat):
    """|N(d)| for d the lcm of the ideal denominators den/gcd(num, den)
    of the entries num/den of mat."""
    d = RingElem(mat.tag, 1)
    for row in mat.rows:
        for x in row:
            den = RingElem(mat.tag, x.den)
            e = den.exact_div(ring_gcd(x.num, den))
            d = (d * e).exact_div(ring_gcd(d, e))
    return d.norm_abs()


def test_mat3k_inverse():
    rng = random.Random(3)
    for tag in (Q, R5, R2):
        for key in MODULES_OF_FIELD[tag]:
            b = Mat3K(tag, standard_module(key).basis).transpose()
            assert b * b.inverse() == Mat3K.identity(tag)
            assert b.inverse() * b == Mat3K.identity(tag)
        m = Mat3K(tag, [[fe(tag, rng.randint(-4, 4), rng.randint(-2, 2)
                            if tag is not Q else 0) for _ in range(3)]
                        for _ in range(3)])
        if not m.det().is_zero():
            assert m * m.inverse() == Mat3K.identity(tag)
    with pytest.raises(ZeroDivisionError):
        Mat3K(Q, [[1, 2, 3], [2, 4, 6], [0, 0, 1]]).inverse()


def test_matrix_denominator_is_the_bruteforce_index():
    checks, above_one = 0, 0
    for order in maximal_orders():
        tag = order.field_tag
        frames = []
        for key in MODULES_OF_FIELD[tag]:
            gamma = standard_module(key)
            b = Mat3K(tag, gamma.basis).transpose()
            frames.append((gamma, b.inverse(), b))
        for m in range(1, 21):
            for q in order.enumerate_by_index(m):
                r = rotation_matrix(q)
                for gamma, b_inv, b in frames:
                    index = csm_bruteforce(gamma, q)[1]
                    assert denominator_norm(b_inv * r * b) == index, (
                        order.name, m, format_quat(q), gamma)
                    checks += 1
                    above_one += index > 1
    assert checks == 1273 and above_one > checks // 2


def test_matrix_denominator_sees_one_divided_entry():
    # not vacuous: one entry over a further prime changes the value
    for order, q in ((hurwitz(), Quat(Q, 2, 1)),
                     (icosian(), Quat(R5, 1, 1, fe(R5, 0, 1))),
                     (octahedral(), Quat(R2, 1, fe(R2, 0, 1)))):
        tag = order.field_tag
        b = Mat3K(tag, standard_module(MODULES_OF_FIELD[tag][0]).basis
                  ).transpose()
        mat = b.inverse() * rotation_matrix(q) * b
        value = denominator_norm(mat)
        assert value == sigma_index(order, q) > 1
        r, c = next((r, c) for r in range(3) for c in range(3)
                    if not mat[r, c].is_zero())
        rows = [list(row) for row in mat.rows]
        rows[r][c] = rows[r][c] / 10007
        assert denominator_norm(Mat3K(tag, rows)) != value


def test_bruteforce_rejects_bad_input():
    gamma = gamma_of(hurwitz())
    with pytest.raises(DomainError):
        csm_bruteforce(hurwitz().module, Quat(Q, 2, 1, 0, 0))
    with pytest.raises(DomainError):
        csm_bruteforce(gamma, Quat.zero(Q))
    with pytest.raises(DomainError):
        csm_bruteforce(gamma, Quat(R5, 2, 1, 0, 0))


# -- the three cubic lattices share every coincidence index ------------


def test_cubic_three_lattices_same_sigma():
    rng = random.Random(99)
    lattices = [standard_module(k) for k in ("cubic", "bcc", "fcc")]
    order = hurwitz()
    for _ in range(25):
        q = rnd_element(order, rng, span=3)
        values = {csm_bruteforce(g, q)[1] for g in lattices}
        assert len(values) == 1
        sigma = values.pop()
        assert sigma % 2 == 1
        assert sigma == sigma_index(order, q)


def test_icosahedral_two_lattices_same_sigma():
    rng = random.Random(41)
    order = icosian()
    mb = standard_module("mb")
    mf = standard_module("mf")
    for _ in range(8):
        q = rnd_element(order, rng, span=2)
        sigma = sigma_index(order, q)
        assert csm_bruteforce(mb, q)[1] == sigma
        assert csm_bruteforce(mf, q)[1] == sigma
        assert csm_bruteforce(gamma_of(order), q)[1] == sigma


# -- counting distinct coincidence submodules --------------------------


def test_count_examples():
    assert count_csms(hurwitz(), 1) == 1
    assert count_csms(hurwitz(), 2) == 0
    assert count_csms(hurwitz(), 3) == 4
    assert count_csms(hurwitz(), 5) == 6
    assert count_csms(octahedral(), 2) == 3
    assert count_csms(icosian(), 4) == 5


def test_count_matches_ideal_enumeration():
    # distinct generators modulo units give distinct submodules, so the
    # count of submodules equals the count of enumerated ideals
    cases = [
        (hurwitz(), (1, 3, 5, 9, 15)),
        (icosian(), (4, 5)),
        (octahedral(), (2, 4, 8, 9)),
    ]
    for order, indices in cases:
        gamma = gamma_of(order)
        for m in indices:
            reps = order.enumerate_by_index(m)
            seen = set()
            for q in reps:
                sub, sigma = csm_bruteforce(gamma, q)
                assert sigma == m
                seen.add(sub)
            assert len(seen) == len(reps)
            assert count_csms(order, m) == len(reps)


@pytest.mark.parametrize("factory,m", [
    (hurwitz, 5), (icosian, 4), (octahedral, 2),
])
def test_count_names_a_wrong_bruteforce_index(factory, m, monkeypatch):
    # the brute-force index of every enumerated generator must be m; a
    # wrong one stops the count and names the order, m, the generator
    # and both numbers
    bruteforce = csm.csm_bruteforce
    first = format_quat(factory().enumerate_by_index(m)[0])

    def off_by_one(gamma, q):
        common, index = bruteforce(gamma, q)
        return common, index + (format_quat(q) == first)

    monkeypatch.setattr(csm, "csm_bruteforce", off_by_one)
    with pytest.raises(ArithmeticError) as err:
        count_csms(factory(), m)
    assert str(err.value) == (f"{factory().name}, m = {m}: the intersection "
                              f"for {first} has index {m + 1}, not {m}")


# SHA-256 of the sorted str() of every csm_bruteforce module along the
# count path (one per generator enumerate_by_index yields, m = 1..top),
# joined by newlines; recorded before the kernel's integer branches over Z
CSM_SHA256 = {
    "hurwitz": (60, 1093, "b2254a1e89cbfa084c3cf4c5dd5fea40"
                          "1b4f805ec06f27ffe3b70312489b6cdb"),
    "icosian": (30, 226, "b3e867932e99606a837fefe076111f01"
                         "597952499935a2861a3f81ea4d1e7683"),
    "octahedral": (40, 636, "cf194405c506c95b4612d99ac4fbef22"
                            "3f5a5e12059a38bd76fccdff8a3a9549"),
}


@pytest.mark.parametrize("key", CSM_SHA256)
def test_count_path_modules_hash(key):
    top, size, digest = CSM_SHA256[key]
    order = order_by_key(key)
    gamma = gamma_of(order)
    mods = sorted(str(csm_bruteforce(gamma, q)[0])
                  for m in range(1, top + 1)
                  for q in order.enumerate_by_index(m))
    assert len(mods) == size
    assert hashlib.sha256("\n".join(mods).encode()).hexdigest() == digest


def test_hurwitz_1001_modules_hash():
    # the canonical bytes at larger entries than m <= 60 reaches: all
    # 1,344 coincidence modules of index 7*11*13
    gamma = gamma_of(hurwitz())
    mods = sorted(str(csm_bruteforce(gamma, q)[0])
                  for q in hurwitz().enumerate_by_index(1001))
    assert len(mods) == 1344
    assert (hashlib.sha256("\n".join(mods).encode()).hexdigest()
            == "d56272b741224bc2986d3e5103eca83d82fd6fd5ad5768f4b81033bcdebe9253")


def test_count_multiplicative_on_coprime_indices():
    order = hurwitz()
    assert count_csms(order, 45) == count_csms(order, 9) * count_csms(order, 5)
    assert (count_csms(octahedral(), 14)
            == count_csms(octahedral(), 2) * count_csms(octahedral(), 7))
    assert (count_csms(icosian(), 20)
            == count_csms(icosian(), 4) * count_csms(icosian(), 5))


def test_count_cap_and_errors():
    with pytest.raises(ResourceCapError):
        count_csms(hurwitz(), 7, cap=5)
    with pytest.raises(DomainError):
        count_csms(hurwitz(), 0)
    with pytest.raises(DomainError):
        count_csms(lipschitz(Q), 3)


def test_distinct_ideals_give_distinct_eichler_intersections():
    # non-associate reduced generators of the same norm produce
    # distinct intersections already at rank 4
    for order, m in ((hurwitz(), 9), (icosian(), 4), (octahedral(), 2)):
        reps = order.enumerate_by_index(m)
        inter = {intersect(order.module, order.conjugated_order_module(q))
                 for q in reps}
        assert len(inter) == len(reps)


# -- which indices occur at all ----------------------------------------


def test_spectrum_examples():
    assert spectrum_member(hurwitz(), 9)
    assert not spectrum_member(hurwitz(), 6)
    assert spectrum_member(icosian(), 11)
    assert not spectrum_member(icosian(), 3)
    assert spectrum_member(octahedral(), 7)
    assert not spectrum_member(octahedral(), 3)


def test_spectrum_initial_segments():
    ico = [m for m in range(1, 26) if spectrum_member(icosian(), m)]
    assert ico == [1, 4, 5, 9, 11, 16, 19, 20, 25]
    oct_ = [m for m in range(1, 26) if spectrum_member(octahedral(), m)]
    assert oct_ == [1, 2, 4, 7, 8, 9, 14, 16, 17, 18, 23, 25]
    cub = [m for m in range(1, 20) if spectrum_member(hurwitz(), m)]
    assert cub == list(range(1, 20, 2))


@pytest.mark.parametrize("factory, member", [(icosian, True),
                                             (octahedral, False)])
def test_spectrum_member_trial_divides_once(factory, member, monkeypatch):
    # factor_int proves the primes of m prime; no second proof follows,
    # under either name a prime test could reach it by
    factor_int = rings.factor_int
    calls = []

    def counted(n):
        calls.append(n)
        return factor_int(n)

    monkeypatch.setattr(csm, "factor_int", counted)
    monkeypatch.setattr(rings, "factor_int", counted)
    assert spectrum_member(factory(), 999999999989) is member
    assert calls == [999999999989]


def test_spectrum_witness_examples():
    assert spectrum_witness(octahedral(), 7) == (3, 1)
    assert spectrum_witness(octahedral(), 3) is None
    assert spectrum_witness(icosian(), 11) == (3, 1)
    assert spectrum_witness(hurwitz(), 9) == (9, 0)
    assert spectrum_witness(hurwitz(), 4) is None


def _represented_by_form(tag, m, box=40):
    # naive search over the norm form of the scalar ring
    for k in range(-box, box + 1):
        for ell in range(-box, box + 1):
            if tag is R5:
                value = k * k + k * ell - ell * ell
            else:
                value = k * k - 2 * ell * ell
            if value == m:
                return True
    return False


@pytest.mark.parametrize("factory,tag", [(icosian, R5), (octahedral, R2)])
def test_spectrum_agrees_with_norm_form_search(factory, tag):
    order = factory()
    for m in range(1, 121):
        member = spectrum_member(order, m)
        witness = spectrum_witness(order, m)
        assert member == (witness is not None)
        assert member == _represented_by_form(tag, m)
        if witness is not None:
            k, ell = witness
            if tag is R5:
                assert k * k + k * ell - ell * ell == m
            else:
                assert k * k - 2 * ell * ell == m


def test_spectrum_witness_rational_is_trivial():
    order = hurwitz()
    for m in range(1, 50):
        witness = spectrum_witness(order, m)
        assert (witness is not None) == (m % 2 == 1)
        if witness is not None:
            assert witness == (m, 0)


def test_spectrum_rejects_nonpositive():
    with pytest.raises(DomainError):
        spectrum_member(hurwitz(), 0)
    with pytest.raises(DomainError):
        spectrum_witness(icosian(), -1)


# -- the exact module identities behind the correspondence -------------


def test_correspondence_hurwitz_norm5():
    report = verify_ideal_correspondence(hurwitz(), Quat(Q, 2, 1, 0, 0))
    assert report.norm_value == 5
    assert report.all_ok
    d = report.as_dict()
    assert d["all_ok"] is True
    assert set(d) == {
        "norm_value", "im_projections_match", "sum_decompositions_match",
        "order_index_matches", "ideal_index_matches",
        "scalar_intersection_matches", "all_ok",
    }


def test_correspondence_report_as_dict_order():
    report = CorrespondenceReport(7, True, True, True, False,
                                  scalar_intersection_matches=True)
    assert not report.all_ok
    assert list(report.as_dict().items()) == [
        ("norm_value", 7), ("im_projections_match", True),
        ("sum_decompositions_match", True), ("order_index_matches", True),
        ("ideal_index_matches", False),
        ("scalar_intersection_matches", True), ("all_ok", False)]
    report = verify_ideal_correspondence(hurwitz(), Quat(Q, 2, 1, 0, 0))
    assert list(report.as_dict().values()) == [5] + [True] * 6


def test_correspondence_report_is_a_named_tuple():
    report = verify_ideal_correspondence(hurwitz(), Quat(Q, 2, 1, 0, 0))
    assert report == (5, True, True, True, True, True)
    assert tuple(report) == tuple(report.as_dict().values())[:-1]
    assert report._replace(ideal_index_matches=False) == CorrespondenceReport(
        5, True, True, True, False, True)
    assert not report._replace(ideal_index_matches=False).all_ok
    with pytest.raises(AttributeError):
        report.norm_value = 6


def test_correspondence_degenerate_unit():
    report = verify_ideal_correspondence(hurwitz(), Quat.one(Q))
    assert report.norm_value == 1
    assert report.all_ok


def test_correspondence_icosian_norm4():
    report = verify_ideal_correspondence(icosian(), Quat(R5, 1, 1, 0, 0))
    assert report.norm_value == 4
    assert report.all_ok


def test_correspondence_all_enumerated_generators():
    for order, m in ((hurwitz(), 5), (icosian(), 4), (octahedral(), 2)):
        for q in order.enumerate_by_index(m):
            report = verify_ideal_correspondence(order, q)
            assert report.norm_value == m
            assert report.all_ok


def test_correspondence_requires_reduced():
    with pytest.raises(DomainError):
        verify_ideal_correspondence(hurwitz(), Quat(Q, 1, 1, 0, 0))
    with pytest.raises(DomainError):
        verify_ideal_correspondence(hurwitz(), Quat(Q, 2, 0, 0, 0))
    with pytest.raises(DomainError):
        verify_ideal_correspondence(icosian(), Quat(R5, 3, 3, 0, 0))
    with pytest.raises(DomainError):
        verify_ideal_correspondence(lipschitz(Q), Quat(Q, 2, 1, 0, 0))


def test_image_of_intersection_is_intersection_of_images():
    rng = random.Random(11)
    for order in maximal_orders():
        iml = im_project(order.module)
        for _ in range(6):
            q = rnd_element(order, rng, span=2) * rng.choice([1, 1, 2, 3])
            conj = order.conjugated_order_module(q)
            assert intersect(iml, im_project(conj)) == im_project(
                intersect(order.module, conj))


def test_image_index_of_right_ideal_tracks_content_and_norm():
    rng = random.Random(13)
    for order in maximal_orders():
        iml = im_project(order.module)
        for _ in range(8):
            q = rnd_element(order, rng, span=2) * rng.choice([1, 2, 3])
            got = index_K(iml, im_project(order.right_ideal(q))).absolute
            expect = (order.content(q).norm_abs()
                      * q.nr().to_ring().norm_abs())
            assert got == expect


def test_order_index_equals_image_index():
    pairs = ((hurwitz(), lipschitz(Q)),
             (icosian(), lipschitz(R5)),
             (octahedral(), lipschitz(R2)))
    for big, small in pairs:
        whole = index_K(big.module, small.module)
        image = index_K(im_project(big.module), im_project(small.module))
        assert whole.generator == image.generator
    assert index_K(icosian().module, lipschitz(R5).module).absolute == 16


# -- rotation matrices back to quaternions ------------------------------


def test_rotation_roundtrip_generic_and_halfturn():
    samples = [
        Quat(Q, 2, 1, 0, 0),
        Quat(Q, 1, 1, 1, 1),
        Quat(Q, 0, 1, 0, 0),
        Quat(Q, 0, 1, 1, 0),
        Quat.one(Q),
        Quat(R5, fe(R5, 1, 1), fe(R5, 0, 1), 1, 0),
        Quat(R2, fe(R2, 0, 1), 1, 1, 0),
    ]
    for q in samples:
        mat = rotation_matrix(q)
        back = rotation_to_quat(mat)
        assert rotation_matrix(back) == mat


def test_rotation_roundtrip_random():
    rng = random.Random(3)
    for order in maximal_orders():
        for _ in range(6):
            q = rnd_element(order, rng, span=2)
            mat = rotation_matrix(q)
            assert rotation_matrix(rotation_to_quat(mat)) == mat


def test_rotation_rejects_non_rotations():
    shear = Mat3K(Q, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(DomainError):
        rotation_to_quat(shear)
    reflection = Mat3K(Q, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    with pytest.raises(DomainError):
        rotation_to_quat(reflection)


def test_rotation_feeds_sigma():
    mat = rotation_matrix(Quat(Q, 2, 1, 0, 0))
    assert sigma_index(hurwitz(), rotation_to_quat(mat)) == 5


# -- the named modules --------------------------------------------------


def test_standard_module_keys_and_errors():
    for key in MODULE_KEYS:
        module = standard_module(key)
        assert module.ambient is Ambient.IM
    with pytest.raises(DomainError):
        standard_module("hexagonal")
    # a second name for "cubic" that MODULE_KEYS does not list
    with pytest.raises(DomainError, match="unknown module 'cubic-rational'"):
        standard_module("cubic-rational")


def test_cubic_family_displays():
    cubic = standard_module("cubic")
    bcc = standard_module("bcc")
    fcc = standard_module("fcc")
    assert cubic == hnf_canonical(Q, Ambient.IM,
                                  [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert fcc == hnf_canonical(Q, Ambient.IM,
                                [(1, 1, 0), (1, 0, 1), (0, 1, 1)])
    assert bcc == gamma_of(hurwitz())
    # chains with index two at each step
    assert index_K(bcc, cubic).absolute == 2
    assert index_K(cubic, fcc).absolute == 2
    assert module_sum(bcc, cubic) == bcc
    assert module_sum(cubic, fcc) == cubic
    assert intersect(bcc, fcc) == fcc


def test_fcc_membership_is_even_coordinate_sum():
    fcc = standard_module("fcc")
    for a in range(-2, 3):
        for b in range(-2, 3):
            for c in range(-2, 3):
                assert fcc.contains((a, b, c)) == ((a + b + c) % 2 == 0)


def test_cubic_is_pure_part_of_quaternion_integers():
    cubic = standard_module("cubic")
    assert pure_part(lipschitz(Q).module) == cubic
    assert pure_part(hurwitz().module) == cubic


def test_icosahedral_module_displays():
    tau = fe(R5, 0, 1)
    mb = standard_module("mb")
    mf = standard_module("mf")
    assert mb == hnf_canonical(R5, Ambient.IM,
                               [(2, 0, 0), (1, 1, 1), (tau, 0, 1)])
    assert mf == hnf_canonical(
        R5, Ambient.IM,
        [(2, 0, 0), (tau + fe(R5, 1), tau, 1), (0, 0, 2)])
    assert index_K(mb, mf).absolute == 4
    assert module_sum(mb, mf) == mb


def test_mf_is_even_coordinate_sum_inside_mb():
    # both modules contain 2*mb, so checking one representative of each
    # of the 64 residue classes of mb modulo 2*mb settles set equality
    tau = fe(R5, 0, 1)
    mf = standard_module("mf")
    basis = [(fe(R5, 2), fe(R5, 0), fe(R5, 0)),
             (fe(R5, 1), fe(R5, 1), fe(R5, 1)),
             (tau, fe(R5, 0), fe(R5, 1))]
    two = fe(R5, 2)
    members = 0
    for bits in range(64):
        x = [fe(R5, 0)] * 3
        for i, vec in enumerate(basis):
            coeff = fe(R5, (bits >> (2 * i)) & 1) + tau * (
                (bits >> (2 * i + 1)) & 1)
            for r in range(3):
                x[r] = x[r] + coeff * vec[r]
        even_sum = ((x[0] + x[1] + x[2]) / two).is_integral()
        assert mf.contains(x) == even_sum
        members += even_sum
    assert members == 16


def test_gamma_of_matches_projection():
    for order in maximal_orders():
        assert gamma_of(order) == im_project(order.module)
    assert gamma_of(lipschitz(Q)) == standard_module("cubic")


# -- the brute-force intersection as an independent oracle ---------------


def rotate(q, vec):
    """R(q)*vec from quaternion products alone: Im(q * v * q^-1) for the
    pure quaternion v with imaginary part vec."""
    return (q * Quat(q.tag, 0, *vec) * q.inverse()).coords()[1:]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["hurwitz", "icosian", "octahedral"]),
       st.lists(st.integers(-3, 3), min_size=8, max_size=8))
def test_bruteforce_agrees_with_formula_and_lies_in_both_modules(key,
                                                                  coeffs):
    order = {"hurwitz": hurwitz, "icosian": icosian,
             "octahedral": octahedral}[key]()
    tag = order.field_tag
    zbasis = list(order.basis)
    if tag.degree == 2:
        zbasis += [b * FieldElem.omega(tag) for b in order.basis]
    q = Quat.zero(tag)
    for k, b in zip(coeffs, zbasis):
        q = q + b * k
    assume(not q.is_zero())
    gamma = gamma_of(order)
    common, sigma = csm_bruteforce(gamma, q)
    assert sigma == sigma_index(order, q)
    for col in common.basis:
        assert gamma.contains(col)
        assert gamma.contains(rotate(q.inverse(), col))
    # the same module as the intersection with the rotated copy in HNF
    rotated = hnf_canonical(tag, Ambient.IM,
                            [rotate(q, col) for col in gamma.basis])
    assert common == intersect(gamma, rotated)


def test_rotation_rejection_messages():
    # every rotation over a real field is R(q) for a quaternion q over it,
    # so a refused matrix is one that is not special orthogonal
    shear = Mat3K(Q, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(DomainError, match="not special orthogonal"):
        rotation_to_quat(shear)
    flip = Mat3K(Q, [[-1, 0, 0], [0, -1, 0], [0, 0, -1]])
    with pytest.raises(DomainError, match="not special orthogonal"):
        rotation_to_quat(flip)


# -- rotation_to_quat against the field-element reference ----------------


def old_rotation_to_quat(mat: Mat3K) -> Quat:
    """The reference: candidates in field elements, each checked by
    comparing its whole cayley_matrix with mat."""
    tag = mat.tag
    ident = Mat3K.identity(tag)
    one = ident[0, 0]
    candidates = [(mat.trace() + one, mat[2, 1] - mat[1, 2],
                   mat[0, 2] - mat[2, 0], mat[1, 0] - mat[0, 1])]
    for c in range(3):
        candidates.append((0, *(mat[r, c] + one if r == c else mat[r, c]
                                for r in range(3))))
    for cand in candidates:
        q = Quat(tag, *cand)
        if not q.is_zero() and rotation_matrix(q) == mat:
            return q
    if mat.transpose() * mat != ident or mat.det() != one:
        raise DomainError("matrix is not special orthogonal over the field")
    raise DomainError("matrix is not a rotation arising over this field")


def _rotation_outcome(convert, mat):
    try:
        return convert(mat)
    except DomainError as exc:
        return f"DomainError: {exc}"


def _golden_matrices():
    """The matrices of the recorded sigma runs, with their orders' fields."""
    path = pathlib.Path(__file__).parent / "data" / "sigma_golden.json"
    for entry in json.loads(path.read_text(encoding="utf-8")):
        key, text = entry["argv"][2], entry["argv"][-1]
        if ";" in text:
            tag = order_by_key(key).field_tag
            yield Mat3K(tag, [[parse_field_elem(e.strip(), tag)
                               for e in row.split(",")]
                              for row in text.split(";")])


def _half_turns(tag):
    return [Mat3K(tag, [[d[r] if r == c else 0 for c in range(3)]
                        for r in range(3)])
            for d in ((1, -1, -1), (-1, 1, -1), (-1, -1, 1))]


def _conjugated(mat, unit):
    u = rotation_matrix(unit)
    return u * mat * u.transpose()


def test_rotation_to_quat_matches_the_field_element_reference():
    mats = list(_golden_matrices())
    assert len(mats) >= 6 * 5
    for tag in FieldTag:
        mats += _half_turns(tag)
    # the half-turns conjugated by every tenth unit of the icosian and the
    # octahedral order: half-turns about axes off the coordinate axes
    for order in (icosian(), octahedral()):
        units = WholeOrderSearch(order).norm_one_units()
        for unit in units[::10]:
            mats += [_conjugated(h, unit) for h in _half_turns(order.field_tag)]
    # scalar multiples of a generator give the same matrix
    rng = random.Random(7)
    scalars = {Q: [2, -3, Fraction(1, 2)],
               R5: [fe(R5, 0, 1), fe(R5, 1, 1), fe(R5, -2, Fraction(1, 3))],
               R2: [fe(R2, 0, 1), fe(R2, 1, 1), fe(R2, Fraction(1, 2), -1)]}
    for order in maximal_orders():
        q = rnd_element(order, rng)
        for s in scalars[order.field_tag]:
            mat = rotation_matrix(q * s)
            assert mat == rotation_matrix(q)
            mats.append(mat)
            back = rotation_to_quat(mat)
            assert (back * q.conj()).is_scalar()
    # refusals: no special orthogonal matrix
    for tag in FieldTag:
        mats += [Mat3K(tag, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
                 Mat3K(tag, [[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
                 Mat3K(tag, [[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
                 Mat3K(tag, [[0] * 3] * 3)]
    refused = 0
    for mat in mats:
        new = _rotation_outcome(rotation_to_quat, mat)
        assert new == _rotation_outcome(old_rotation_to_quat, mat), mat
        if isinstance(new, str):
            refused += 1
        else:
            assert rotation_matrix(new) == mat
    assert refused >= 12


def _signed_permutations(tag):
    """The 48 signed permutation matrices over the field tagged tag."""
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            yield Mat3K(tag, [[signs[r] if c == perm[r] else 0
                               for c in range(3)] for r in range(3)])


def test_signed_permutations_are_refused_exactly_when_det_is_minus_one():
    # a special orthogonal matrix always has a quaternion, so the second
    # message of the reference, "not a rotation arising over this
    # field", is never given
    for tag in FieldTag:
        mats = list(_signed_permutations(tag))
        assert len(set(mats)) == 48
        accepted = 0
        for mat in mats:
            new = _rotation_outcome(rotation_to_quat, mat)
            assert new == _rotation_outcome(old_rotation_to_quat, mat), mat
            if mat.det() == FieldElem(tag, 1):
                assert rotation_matrix(new) == mat
                accepted += 1
            else:
                assert new == ("DomainError: matrix is not special "
                               "orthogonal over the field"), mat
        assert accepted == 24


def _rotated(module, unit):
    """R(unit)*module in canonical form, on field elements: cayley_matrix
    applied to each basis column, then hnf_canonical."""
    rot = cayley_matrix(unit)
    return hnf_canonical(module.tag, module.ambient, [
        [sum((x * y for x, y in zip(row, col)), FieldElem(module.tag, 0))
         for row in rot] for col in module.basis])


@pytest.mark.parametrize("factory,m", [
    (hurwitz, 1001), (icosian, 209), (octahedral, 161),
    (hurwitz, 101), (icosian, 49), (octahedral, 169),
])
def test_unit_multiples_have_the_rotated_csm(factory, m):
    # R(s) maps gamma = Im(O) onto itself for a unit s of O, so the CSM of
    # s*q is gamma meet R(s)R(q)gamma = R(s)*CSM(q): the brute force and
    # the uniqueness of the canonical form must agree on that.  At the
    # prime indices the orbit walk gives most representatives as s*g
    order = factory()
    gamma = gamma_of(order)
    units = order.basis[1:]
    for s in units:
        assert _rotated(gamma, s) == gamma
    reps = order.enumerate_by_index(m)
    for q in random.Random(m).sample(reps, min(200, len(reps))):
        common = csm_bruteforce(gamma, q)[0]
        for s in units:
            assert csm_bruteforce(gamma, s * q)[0] == _rotated(common, s), (
                format_quat(q), format_quat(s))

