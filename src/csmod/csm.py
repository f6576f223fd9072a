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

from collections import namedtuple
from functools import lru_cache

from .errors import DomainError, ResourceCapError
from .modlat import (Ambient, OModule, _canonical, identity_module,
                     im_project, index_K, index_pair, intersect,
                     intersect_image, pure_part, scale_module,
                     scalar_intersect)
from .orders import QuatOrder, hurwitz, icosian, octahedral
from .quat import Quat, cayley_pairs, format_quat
from .rings import (FieldTag, RingElem, SplittingClass, _class_of_prime,
                    factor_int, norm_class_reps, pair_mul)


def sigma_index(order: QuatOrder, q: Quat) -> int:
    """Coincidence index of the rotation R(q) on Im(order), by formula."""
    if not order.maximal:
        raise DomainError(
            "the index formula needs a maximal order; intersect directly"
        )
    return order.reduce_generator(q).nr().to_ring().norm_abs()


def csm_bruteforce(gamma: OModule, q: Quat) -> tuple[OModule, int]:
    """The intersection of gamma with its rotated copy, plus the index.

    Works straight from the module algebra, with no appeal to the
    ideal-theoretic index formula, so it serves as its oracle: R(q) is
    a ring matrix over the ring element nr of q's numerators, and the
    intersection one echelon pass on gamma's columns (intersect_image).
    """
    if gamma.ambient is not Ambient.IM:
        raise DomainError("expected a module in 3-space")
    if q.is_zero():
        raise DomainError("the zero quaternion defines no rotation")
    if q.tag is not gamma.tag:
        raise DomainError("field tag does not match the module")
    rows, nr = cayley_pairs(q.num, *q.tag._omega_sq)
    common = intersect_image(gamma, rows, nr)
    # |N| of any generator of the index ideal: the canonical one differs
    # from it by a unit
    return common, RingElem(q.tag, *index_pair(gamma, common)).norm_abs()


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


# over Q(sqrt 5) and Q(sqrt 2) the spectrum scans up to sqrt(m): trial
# division in spectrum_member, the norm-form search in spectrum_witness
SPECTRUM_CAP = 10 ** 12


def _check_spectrum_index(tag: FieldTag, m: int) -> None:
    if m < 1:
        raise DomainError("index must be a positive integer")
    if m > SPECTRUM_CAP and tag is not FieldTag.RATIONAL:
        raise ResourceCapError(
            f"index {m} exceeds the spectrum cap {SPECTRUM_CAP}")


def spectrum_member(order: QuatOrder, m: int) -> bool:
    """Whether m occurs as a coincidence index, by the prime criterion."""
    tag = order.field_tag
    _check_spectrum_index(tag, m)
    if tag is FieldTag.RATIONAL:
        return m % 2 == 1
    # factor_int proves its primes prime, so the residue rule classes them
    for p, e in factor_int(m):
        if _class_of_prime(p, tag) is SplittingClass.INERT and e % 2:
            return False
    return True


def spectrum_witness(order: QuatOrder, m: int):
    """A pair (k, l) representing m by the norm form of the scalar ring,
    or None.  Over the rationals the witness is m itself when odd."""
    tag = order.field_tag
    _check_spectrum_index(tag, m)
    if tag is FieldTag.RATIONAL:
        return (m, 0) if m % 2 == 1 else None
    reps = norm_class_reps(tag, m)
    if not reps:
        return None
    return (reps[0].a, reps[0].b)


class CorrespondenceReport(namedtuple("CorrespondenceReport", (
        "norm_value", "im_projections_match", "sum_decompositions_match",
        "order_index_matches", "ideal_index_matches",
        "scalar_intersection_matches"))):
    """Outcome of the exact module identities for one reduced generator."""

    __slots__ = ()

    @property
    def all_ok(self) -> bool:
        return all(self[1:])

    def as_dict(self) -> dict:
        return {**self._asdict(), "all_ok": self.all_ok}


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
    right = order.right_ideal(q)
    left = order.left_ideal(q.conj())
    common = intersect(order.module, order.conjugated_order_module(q))
    # scalars + M, with 1 written over the denominator of M
    sum_right, sum_left = (
        _canonical(order.field_tag, Ambient.QUAT,
                   [(m.den, 0, 0, 0, 0, 0, 0, 0), *m.pairs], m.den)
        for m in (right, left))
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


def quat_of_rotation(tag: FieldTag, m, den: int) -> Quat:
    """Quaternion (up to scale) whose conjugation action is the matrix
    m/den, m its nine entries in rows as one flat list of integer pairs
    and den a positive int; refuses a matrix that is not special
    orthogonal."""
    c, e = tag._omega_sq
    d = [x + den if k in (0, 8, 16) else x for k, x in enumerate(m)]
    # d = m + den*I.  Half-turns have trace -1 and a symmetric matrix; each
    # nonzero column of R + 1 is then proportional to the axis
    candidates = [(m[0] + m[8] + m[16] + den, m[1] + m[9] + m[17],
                   m[14] - m[10], m[15] - m[11], m[4] - m[12], m[5] - m[13],
                   m[6] - m[2], m[7] - m[3])]
    candidates += [(0, 0, *d[k:k + 2], *d[k + 6:k + 8], *d[k + 12:k + 14])
                   for k in (0, 2, 4)]
    # a Cayley matrix N/n is special orthogonal, so a match needs no
    # check; it is m/den iff N*den == m*n entry by entry
    for x in candidates:
        if not any(x):
            continue
        rows, (na, nb) = cayley_pairs(x, c, e)
        flat = [y * den for row in rows for y in row]
        if all(pair_mul(m[k], m[k + 1], na, nb, c, e) == (flat[k], flat[k + 1])
               for k in range(0, 18, 2)):
            return Quat.ratio(tag, x, den)
    # K is real, so a special orthogonal R is R(q) for a real unit
    # q = (w, x, y, z).  The first candidate is then 4w*q, and for w = 0
    # R + I = 2*u*u^T, each nonzero column proportional to u = (x, y, z):
    # some candidate matches exactly when R is special orthogonal
    raise DomainError("matrix is not special orthogonal over the field")


# -- the standard modules in 3-space ----------------------------------


_MODULES = {
    "cubic": lambda: identity_module(FieldTag.RATIONAL, Ambient.IM),
    "bcc": lambda: im_project(hurwitz().module),
    "fcc": lambda: pure_part(
        hurwitz().right_ideal(Quat(FieldTag.RATIONAL, 1, 1))),
    "mb": lambda: scale_module(im_project(icosian().module),
                               RingElem(FieldTag.ROOT_FIVE, 2)),
    "mf": lambda: scale_module(pure_part(icosian().module),
                               RingElem(FieldTag.ROOT_FIVE, 2)),
    "im-icosian": lambda: im_project(icosian().module),
    "im-octahedral": lambda: im_project(octahedral().module),
    "cubic-root5": lambda: identity_module(FieldTag.ROOT_FIVE, Ambient.IM),
    "cubic-root2": lambda: identity_module(FieldTag.ROOT_TWO, Ambient.IM),
}
MODULE_KEYS = tuple(_MODULES)


@lru_cache(maxsize=None)
def standard_module(key: str) -> OModule:
    build = _MODULES.get(key)
    if build is None:
        raise DomainError(f"unknown module {key!r}; pick one of {MODULE_KEYS}")
    return build()


def gamma_of(order: QuatOrder) -> OModule:
    """The rank-3 module whose coincidences the order governs."""
    return order.im_module()
