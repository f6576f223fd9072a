"""Coincidence machinery for the imaginary-part modules.

A rotation with entries in the base field comes from conjugation by a
quaternion q, and the common refinement of a module with its rotated
copy has finite index governed by the reduced norm of q once scalar
and two-sided factors are stripped.  This module exposes the index
formula, the independent brute-force intersection, counting of
distinct coincidence modules by index, spectrum criteria, and an exact
verifier for the module identities the correspondence rests on.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

from .errors import DomainError
from .modlat import (Ambient, OModule, hnf_canonical, identity_module,
                     im_project, index_K, intersect, intersect_image,
                     pure_part, scale_module, scalar_intersect)
from .orders import QuatOrder, hurwitz, icosian, octahedral
from .quat import Mat3K, Quat, format_quat, rotation_numerators
from .rings import (FieldTag, RingElem, SplittingClass, factor_int,
                    norm_class_reps, pair_mul, ring_columns,
                    splitting_class)


def reduced_representative(order: QuatOrder, q: Quat) -> Quat:
    """Rescale q into the order and strip content and two-sided factors.

    Every order here contains 1, i, j and k, so q's numerators over 1
    lie in it; when q does too, the content strips the positive integer
    between them again.  One coordinate solve, and R(q) is unchanged.
    """
    if q.is_zero():
        raise DomainError("the zero quaternion defines no rotation")
    return order.reduce_generator(Quat.ratio(q.num, 1))


def sigma_index(order: QuatOrder, q: Quat) -> int:
    """Coincidence index of the rotation R(q) on Im(order), by formula."""
    if not order.maximal:
        raise DomainError(
            "the index formula needs a maximal order; intersect directly"
        )
    return reduced_representative(order, q).nr().to_ring().norm_abs()


def csm_bruteforce(gamma: OModule, q: Quat) -> tuple[OModule, int]:
    """The intersection of gamma with its rotated copy, plus the index.

    Works straight from the module algebra, with no appeal to the
    ideal-theoretic index formula, so it serves as its oracle: R(q) is
    a ring matrix over the ring element nr of q's numerators, and the
    intersection is one kernel and one canonical form on gamma's ring
    columns (see modlat.intersect_image).
    """
    if gamma.ambient is not Ambient.IM:
        raise DomainError("expected a module in 3-space")
    if q.is_zero():
        raise DomainError("the zero quaternion defines no rotation")
    if q.tag is not gamma.tag:
        raise DomainError("field tag does not match the module")
    rows, nr = rotation_numerators(q)
    common = intersect_image(gamma, rows, nr)
    return common, index_K(gamma, common).absolute


def count_csms(order: QuatOrder, m: int, cap: int | None = None) -> int:
    """Number of distinct coincidence submodules of Im(order) of index m;
    each brute-force index must be m, or ArithmeticError names the
    generator."""
    gamma = gamma_of(order)
    distinct = set()
    for q in order.enumerate_by_index(m, cap):
        common, index = csm_bruteforce(gamma, q)
        if index != m:
            raise ArithmeticError(
                f"{order.name}, m = {m}: the intersection for "
                f"{format_quat(q)} has index {index}, not {m}")
        distinct.add(common)
    return len(distinct)


def spectrum_member(order: QuatOrder, m: int) -> bool:
    """Whether m occurs as a coincidence index, by the prime criterion."""
    if m < 1:
        raise DomainError("index must be a positive integer")
    tag = order.field_tag
    if tag is FieldTag.RATIONAL:
        return m % 2 == 1
    for p, e in factor_int(m):
        if splitting_class(p, tag) is SplittingClass.INERT and e % 2:
            return False
    return True


def spectrum_witness(order: QuatOrder, m: int):
    """A pair (k, l) representing m by the norm form of the scalar ring,
    or None.  Over the rationals the witness is m itself when odd."""
    if m < 1:
        raise DomainError("index must be a positive integer")
    tag = order.field_tag
    if tag is FieldTag.RATIONAL:
        return (m, 0) if m % 2 == 1 else None
    reps = norm_class_reps(tag, m)
    if not reps:
        return None
    return (reps[0].a, reps[0].b)


class CorrespondenceReport:
    """Outcome of the exact module identities for one reduced generator."""

    __slots__ = ("norm_value", "im_projections_match",
                 "sum_decompositions_match", "order_index_matches",
                 "ideal_index_matches", "scalar_intersection_matches")

    def __init__(self, norm_value: int, im_projections_match: bool,
                 sum_decompositions_match: bool, order_index_matches: bool,
                 ideal_index_matches: bool, scalar_intersection_matches: bool):
        self.norm_value = norm_value
        self.im_projections_match = im_projections_match
        self.sum_decompositions_match = sum_decompositions_match
        self.order_index_matches = order_index_matches
        self.ideal_index_matches = ideal_index_matches
        self.scalar_intersection_matches = scalar_intersection_matches

    @property
    def all_ok(self) -> bool:
        return (self.im_projections_match
                and self.sum_decompositions_match
                and self.order_index_matches
                and self.ideal_index_matches
                and self.scalar_intersection_matches)

    def as_dict(self) -> dict:
        out = {key: getattr(self, key) for key in self.__slots__}
        out["all_ok"] = self.all_ok
        return out


def verify_ideal_correspondence(order: QuatOrder, q: Quat) -> CorrespondenceReport:
    """Check, by exact module algebra, the identities tying the right
    ideal of a reduced q to the intersection with the conjugated order:

    * the three rank-3 projections agree: the intersection, the right
      ideal q*O, and the left ideal O*conj(q) all have the same image;
    * the intersection decomposes as scalars + q*O = scalars + O*conj(q);
    * both index steps equal the absolute norm of nr(q);
    * the scalars inside q*O are exactly nr(q) times the scalar ring.
    """
    if not order.is_reduced(q):
        raise DomainError("generator is not reduced in the order")
    tag = order.field_tag
    right = order.right_ideal(q)
    left = hnf_canonical(
        tag, Ambient.QUAT,
        [(b * q.conj()).coords() for b in order.basis],
    )
    common = intersect(order.module, order.conjugated_order_module(q))
    # scalars + M, with 1 written over the denominator of M
    sum_right = hnf_canonical(tag, Ambient.QUAT,
                              [(right.den, 0, 0, 0), *right.cols], right.den)
    sum_left = hnf_canonical(tag, Ambient.QUAT,
                             [(left.den, 0, 0, 0), *left.cols], left.den)
    nrq = q.nr().to_ring()
    value = nrq.norm_abs()
    return CorrespondenceReport(
        norm_value=value,
        im_projections_match=(
            im_project(common) == im_project(right) == im_project(left)
        ),
        sum_decompositions_match=(common == sum_right == sum_left),
        order_index_matches=(
            index_K(order.module, common).absolute == value
        ),
        ideal_index_matches=(index_K(common, right).absolute == value),
        scalar_intersection_matches=(
            scalar_intersect(right) == nrq.canonical_associate()
        ),
    )


def rotation_to_quat(mat: Mat3K) -> Quat:
    """Quaternion (up to scale) whose conjugation action is the given
    special orthogonal matrix; rejects anything else."""
    tag = mat.tag
    c, e = tag._omega_sq
    den, m = ring_columns(tag, 3, mat.rows)     # mat = m/den
    one = RingElem(tag, den)
    candidates = [(m[0][0] + m[1][1] + m[2][2] + one, m[2][1] - m[1][2],
                   m[0][2] - m[2][0], m[1][0] - m[0][1])]
    # half-turns have trace -1 and a symmetric matrix; each nonzero
    # column of R + 1 is then proportional to the axis
    for col in range(3):
        axis = [m[r][col] + one if r == col else m[r][col] for r in range(3)]
        candidates.append((RingElem(tag, 0), *axis))
    # a Cayley matrix N/n is special orthogonal, so a match needs no
    # check; it is mat = m/den iff N*den == m*n entry by entry
    for cand in candidates:
        if all(x.is_zero() for x in cand):
            continue
        q = Quat.ratio(cand, den)
        rows, (na, nb) = rotation_numerators(q)
        flat = [y for row in rows for y in row]
        if all(pair_mul(x.a, x.b, na, nb, c, e) == (ya * den, yb * den)
               for x, ya, yb in zip(chain(*m), flat[::2], flat[1::2])):
            return q
    ident = Mat3K.identity(tag)
    if mat.transpose() * mat != ident or mat.det() != ident[0, 0]:
        raise DomainError("matrix is not special orthogonal over the field")
    raise DomainError("matrix is not a rotation arising over this field")


# -- the standard modules in 3-space ----------------------------------


@lru_cache(maxsize=None)
def standard_module(key: str) -> OModule:
    if key == "cubic":
        return identity_module(FieldTag.RATIONAL, Ambient.IM)
    if key == "bcc":
        return im_project(hurwitz().module)
    if key == "fcc":
        one_plus_i = Quat(FieldTag.RATIONAL, 1, 1)
        return pure_part(hurwitz().right_ideal(one_plus_i))
    if key == "mb":
        return scale_module(im_project(icosian().module),
                            RingElem(FieldTag.ROOT_FIVE, 2))
    if key == "mf":
        return scale_module(pure_part(icosian().module),
                            RingElem(FieldTag.ROOT_FIVE, 2))
    if key == "im-icosian":
        return im_project(icosian().module)
    if key == "im-octahedral":
        return im_project(octahedral().module)
    if key.startswith("cubic-"):
        for tag in FieldTag:
            if key == f"cubic-{tag.value}":
                return identity_module(tag, Ambient.IM)
    raise DomainError(f"unknown module {key!r}; pick one of {MODULE_KEYS}")


MODULE_KEYS = ("cubic", "bcc", "fcc", "mb", "mf",
               "im-icosian", "im-octahedral",
               "cubic-root5", "cubic-root2")


def gamma_of(order: QuatOrder) -> OModule:
    """The rank-3 module whose coincidences the order governs."""
    return order.im_module()
