"""Exact module linear algebra over the base rings.

Finitely generated full-rank modules over one of the (Euclidean, hence
PID) base rings are held as ring columns over one positive integer
denominator: a module is C/den, where C is an upper-triangular matrix
of ring entries in canonical form, each column a flat list of integer
pairs (below).  Column j of C has its lowest nonzero entry (the pivot)
on row j, pivots are canonical associates, and every entry above a
pivot is the canonical residue modulo that pivot.  The pair (C, den)
is then normalised so that den and the integer coefficients of all
entries of C have gcd 1.  The triangular form commutes with scaling by
positive integers, so equal modules get identical pairs whatever the
denominator of their generators, which makes modules directly
comparable and hashable.

All module algebra (echelon forms, intersections, indices, membership
and the canonical normalisation) runs on plain integers: a column is a
flat list [a0, b0, a1, b1, ...], one pair (a, b) per entry a + b*omega,
and each call reads the omega^2 rule of its field once.  That is the
layout of a quaternion's numerators (quat.Quat.num), so products of
quaternions enter _canonical as they are; hnf_canonical takes field
entries and writes them so once, by rings.ring_columns.  Over Z (the
omega^2 rule 1 + 0*omega, see _over_z) every b is 0: there the columns
drop their b halves on the way in and the algebra runs on plain int
columns [a0, a1, ...] (the _z_ functions), and only OModule.pairs holds
pairs.  An intersection is one Hermite normal form over the ring (Cohen,
GTM 138, 2.4) of columns with head rows below (see _canonical).
RingElems and field elements appear only in an OModule's read-only
`cols`, `basis` and `coordinates` views, and as the inputs of
hnf_canonical and scale_module.

Columns live in one of two ambient spaces: the full quaternion
coordinate space (basis 1, i, j, k) or its imaginary part (basis
i, j, k).
"""

from __future__ import annotations

from enum import Enum
from itertools import chain
from math import gcd, lcm
from operator import mul

from .errors import DomainError
from .rings import (
    FieldElem,
    FieldTag,
    RingElem,
    _elems,
    _format_pair,
    as_field,
    pair_canonical_associate,
    pair_canonical_residue,
    pair_exact_div,
    pair_mul,
    pair_norm,
    ring_columns,
)


class Ambient(Enum):
    QUAT = "quat"
    IM = "im"

    @property
    def dim(self) -> int:
        return 4 if self is Ambient.QUAT else 3


class OModule:
    """Full-rank module C/den in canonical triangular form.

    pairs holds the columns of C as flat integer pair lists; cols and
    basis are read-only views of them as ring and field elements.  Do not
    call the constructor with arbitrary columns; use hnf_canonical, which
    produces the canonical pair.  Instances are treated as immutable.
    """

    __slots__ = ("tag", "ambient", "pairs", "den")

    def __init__(self, tag: FieldTag, ambient: Ambient, pairs, den: int):
        self.tag = tag
        self.ambient = ambient
        self.pairs = tuple(map(tuple, pairs))
        self.den = den

    @property
    def rank(self) -> int:
        return self.ambient.dim

    @property
    def cols(self) -> tuple[tuple[RingElem, ...], ...]:
        return tuple(_elems(self.tag, col) for col in self.pairs)

    @property
    def basis(self) -> tuple[tuple[FieldElem, ...], ...]:
        return tuple(tuple(FieldElem.ratio(e, self.den) for e in col)
                     for col in self.cols)

    def solve_pairs(self, nums, den: int):
        """Ring coordinates of the vector nums/den, for ring numerators
        nums as flat integer pairs, as flat pairs; None if outside."""
        if _over_z(self.tag):
            x = _z_solve(_ints(self.pairs), self.den, nums[::2], den)
            return None if x is None else _pairs(x)
        # sum_c x_c * cols[c] must equal nums * self.den / den
        rest = _rescale(nums, den, self.den)
        if rest is None:
            return None
        c, e = self.tag._omega_sq
        coeffs = [0] * len(rest)
        for i in range(len(rest) - 2, -1, -2):
            if not (rest[i] or rest[i + 1]):
                continue    # its coefficient is 0
            col = self.pairs[i // 2]
            q = pair_exact_div(rest[i], rest[i + 1], col[i], col[i + 1], c, e)
            if q is None:
                return None
            coeffs[i], coeffs[i + 1] = q
            _col_submul(rest, *q, col[:i], c, e)    # the rows above
        return coeffs

    def coordinates(self, vector):
        """Ring coordinates of vector in this basis, or None if outside."""
        den, (nums,) = ring_columns(self.tag, self.rank, [vector])
        x = self.solve_pairs(nums, den)
        return None if x is None else _elems(self.tag, x)

    def contains(self, vector) -> bool:
        return self.coordinates(vector) is not None

    def contains_module(self, other: "OModule") -> bool:
        _check_compatible(self, other)
        return all(self.solve_pairs(col, other.den) is not None
                   for col in other.pairs)

    def json_columns(self) -> list[list[str]]:
        den = self.den
        return [[_format_pair(col[i], col[i + 1], den)
                 for i in range(0, len(col), 2)] for col in self.pairs]

    def __eq__(self, other):
        if not isinstance(other, OModule):
            return NotImplemented
        return (self.tag is other.tag and self.ambient is other.ambient
                and self.den == other.den and self.pairs == other.pairs)

    def __hash__(self):
        return hash((self.tag, self.ambient, self.den, self.pairs))

    def __str__(self):
        cols = "; ".join("(" + ", ".join(col) + ")"
                         for col in self.json_columns())
        return f"<{cols}>"

    __repr__ = __str__


def _check_compatible(m1: OModule, m2: OModule) -> None:
    if m1.tag is not m2.tag:
        raise DomainError("mixed field tags")
    if m1.ambient is not m2.ambient:
        raise DomainError("ambient spaces differ")


def _over_z(tag: FieldTag) -> bool:
    """Whether the ring is Z, by the omega^2 rule 1 + 0*omega: then every
    b of a flat pair column is 0, and the _z_ functions take the a's."""
    return tag._omega_sq == (1, 0)


def _ints(cols):
    """The a's of flat pair columns over Z, whose b's are all 0."""
    return [col[::2] for col in cols]


def _pairs(col) -> list[int]:
    """An int column over Z as a flat pair column."""
    out = [0] * (2 * len(col))
    out[::2] = col
    return out


def _rescale(nums, den: int, to: int):
    """The numerators of nums/den over the denominator to, or None if
    they are not integers."""
    g = gcd(to, den)
    up, down = to // g, den // g
    if down != 1 and any(x * up % down for x in nums):
        return None
    return [x * up // down for x in nums]


def _z_solve(cols, den: int, nums, nden: int):
    """The int coordinates of the vector nums/nden in the module cols/den
    over Z, for int columns: solve_pairs without the b's."""
    rest = _rescale(nums, nden, den)
    if rest is None:
        return None
    coeffs = [0] * len(rest)
    for i in range(len(rest) - 1, -1, -1):
        if rest[i]:
            col = cols[i]
            q, r = divmod(rest[i], col[i])
            if r:
                return None
            coeffs[i] = q
            for k in range(i):      # the rows above
                rest[k] -= q * col[k]
    return coeffs


def _col_submul(col, qa: int, qb: int, src, c: int, e: int) -> None:
    """col -= (qa + qb*omega) * src on flat pairs; omega^2 = c + e*omega."""
    # q*(ya + yb*omega) = (qa*ya + c*qb*yb) + (qb*ya + (qa + e*qb)*yb)*omega
    cqb, qae = c * qb, qa + e * qb
    i = 0
    it = iter(src)
    for ya in it:
        yb = next(it)
        if ya or yb:
            col[i] -= qa * ya + cqb * yb
            col[i + 1] -= qb * ya + qae * yb
        i += 2


def _combination(x, columns, c: int, e: int) -> list[int]:
    """sum_k x_k * columns[k], x_k the pairs of the flat list x."""
    out = [0] * len(columns[0])
    for k, col in enumerate(columns):
        xa, xb = x[2 * k], x[2 * k + 1]
        if xa or xb:
            _col_submul(out, -xa, -xb, col, c, e)
    return out


def _echelon(columns, c: int, e: int):
    """Eliminate flat columns to triangular form by Euclidean operations,
    from the last row up.  Each step subtracts from a column the pivot
    column times the rounded quotient of their entries, which leaves that
    entry below the pivot in absolute norm, so the least norm on the row
    falls until one nonzero entry is left.  The steps change the columns
    but not the module they span, so hnf_canonical does not depend on them.

    Returns pivots, mapping row r to the column whose lowest nonzero entry
    is on row r.  The rows below r are eliminated first, so the pivots of
    rows 0..n-1 span the combinations of the columns that vanish below.
    Over Z, _z_echelon takes the same steps on int columns.
    """
    cols = [list(col) for col in columns]
    pivots = {}
    for i in range(len(cols[0]) - 2, -1, -2):
        nz = [col for col in cols if col[i] or col[i + 1]]
        while len(nz) > 1:
            nz.sort(key=lambda col: abs(pair_norm(col[i], col[i + 1], c, e)))
            piv = nz[0]
            ya, yb = piv[i], piv[i + 1]
            # x/y = x*conj(y)/N(y) with each coordinate rounded half up, as
            # rings.pair_round_quotient; the sign of N(y) goes into conj(y)
            ca, cb, d = ya + e * yb, -yb, pair_norm(ya, yb, c, e)
            if d < 0:
                ca, cb, d = -ca, -cb, -d
            for col in nz[1:]:
                xa, xb = col[i], col[i + 1]
                bb = xb * cb
                qa = (2 * (xa * ca + c * bb) + d) // (2 * d)
                qb = (2 * (xb * ca + xa * cb + e * bb) + d) // (2 * d)
                if not (qa or qb):
                    raise ArithmeticError("echelon step failed to reduce")
                _col_submul(col, qa, qb, piv, c, e)
            nz = [col for col in cols if col[i] or col[i + 1]]
        if nz:
            pivots[i // 2] = nz[0]
            cols.remove(nz[0])
    return pivots


def _z_echelon(columns):
    """_echelon over Z, on int columns: the norm y^2 orders entries by
    |y|, and the stable sort's first column of least |y| is the one min
    finds (nz keeps the columns' order, and only its columns change, so
    the next pass filters nz); the rounded quotient floor(x/y + 1/2) is
    (2*x + y) // (2*y), nonzero as |x| >= |y|; and the rows below row i
    are 0 in every column left, so a step changes only rows 0..i."""
    cols = [list(col) for col in columns]
    pivots = {}
    for i in range(len(cols[0]) - 1, -1, -1):
        nz = [col for col in cols if col[i]]
        while len(nz) > 1:
            piv = min(nz, key=lambda col: abs(col[i]))
            y = piv[i]
            for col in nz:
                if col is not piv:
                    q = (2 * col[i] + y) // (2 * y)
                    for k in range(i + 1):
                        col[k] -= q * piv[k]
            nz = [col for col in nz if col[i]]
        if nz:
            pivots[i] = nz[0]
            cols.remove(nz[0])
    return pivots


def hnf_canonical(tag: FieldTag, ambient: Ambient, generators,
                  den: int = 1) -> OModule:
    """Canonical form of the module spanned by the generators divided by
    the positive integer den.  Generator entries are field elements,
    ring elements or rationals of the field tagged tag."""
    if den < 1:
        raise DomainError("the denominator must be a positive integer")
    scale, cols = ring_columns(tag, ambient.dim, generators)
    if not cols:
        raise DomainError("no generators")
    return _canonical(tag, ambient, cols, den * scale)


def _canonical(tag: FieldTag, ambient: Ambient, cols, den: int) -> OModule:
    """hnf_canonical for flat pair columns over a positive int den.  Rows
    below the ambient's are a head: the module is then spanned by the
    combinations of the columns with zero head, which one _echelon pass
    gives, already triangular, as its pivots on the ambient's rows."""
    if _over_z(tag):
        return _z_canonical(tag, ambient, _ints(cols), den)
    n = ambient.dim
    c, e = tag._omega_sq
    basis = _full_rank(_echelon(cols, c, e), n, 2 * n)
    for j, col in enumerate(basis):
        # a canonical pivot, then entries reduced by the final pivots above
        da, db = col[2 * j], col[2 * j + 1]
        unit = pair_exact_div(*pair_canonical_associate(da, db, tag), da, db,
                              c, e)
        if unit != (1, 0):
            col = basis[j] = _combination(unit, [col], c, e)
        for i in range(2 * j - 2, -1, -2):
            piv = basis[i // 2]
            qa, qb, _, _ = pair_canonical_residue(col[i], col[i + 1],
                                                  piv[i], piv[i + 1], tag)
            if qa or qb:
                _col_submul(col, qa, qb, piv, c, e)
    return OModule(tag, ambient, *_lowest_terms(basis, den))


def _z_canonical(tag: FieldTag, ambient: Ambient, cols, den: int) -> OModule:
    """_canonical over Z, on int columns: positive pivots, and each entry
    above a pivot y reduced to its balanced residue in (-y/2, y/2], as
    rings.pair_canonical_associate and pair_canonical_residue give."""
    n = ambient.dim
    basis = _full_rank(_z_echelon(cols), n, n)
    for j, col in enumerate(basis):
        if col[j] < 0:
            col = basis[j] = [-x for x in col]
        for i in range(j - 1, -1, -1):
            piv = basis[i]
            y = piv[i]
            r = col[i] % y
            q = (col[i] - r) // y + (2 * r > y)
            if q:
                for k in range(i + 1):
                    col[k] -= q * piv[k]
    basis, den = _lowest_terms(basis, den)
    return OModule(tag, ambient, map(_pairs, basis), den)


def _full_rank(pivots, n: int, size: int):
    """The pivot columns of rows 0..n-1 cut to their first size entries,
    after checking that there are n and that they are 0 on the head."""
    if any(r not in pivots for r in range(n)):
        raise DomainError("generators do not span a full-rank module")
    basis = [pivots[r] for r in range(n)]
    if any(any(col[size:]) for col in basis):
        raise ArithmeticError("echelon left a nonzero head on a column")
    return [col[:size] for col in basis]


def _lowest_terms(basis, den: int):
    """(basis, den) with the gcd of den and the entries cancelled."""
    g = gcd(den, *chain.from_iterable(basis))
    if g != 1:
        basis, den = [[x // g for x in col] for col in basis], den // g
    return basis, den


def identity_module(tag: FieldTag, ambient: Ambient) -> OModule:
    n = ambient.dim
    return _canonical(tag, ambient, [[int(r == 2 * k) for r in range(2 * n)]
                                     for k in range(n)], 1)


def scale_module(module: OModule, alpha) -> OModule:
    """The module alpha * M for a nonzero field scalar alpha."""
    a = as_field(module.tag, alpha)
    if a.is_zero():
        raise DomainError("scaling a module by zero")
    scalar, (c, e) = (a.num.a, a.num.b), module.tag._omega_sq
    return _canonical(module.tag, module.ambient,
                      [_combination(scalar, [col], c, e)
                       for col in module.pairs], module.den * a.den)


def intersect(m1: OModule, m2: OModule) -> OModule:
    """Intersection: the B1*x with B1*x - B2*y = 0 over the ring, which
    _canonical keeps from the columns B1 over B1 and zero over -B2, all
    over the common denominator."""
    _check_compatible(m1, m2)
    den = lcm(m1.den, m2.den)
    f1, f2 = den // m1.den, -(den // m2.den)
    return _canonical(m1.tag, m1.ambient,
                      [[x * f1 for x in col] * 2 for col in m1.pairs]
                      + [[0] * len(col) + [x * f2 for x in col]
                         for col in m2.pairs], den)


def intersect_image(module: OModule, rows, scale) -> OModule:
    """M intersected with A*M, for the matrix A = N/s given by the rows
    of a ring matrix N, each a flat list of integer pairs, and a nonzero
    ring scalar s as a pair (a, b).

    With M = C/den, ring vectors x, y with s*C*x + N*C*y = 0 give
    C*x/den = A*(-C*y/den), which span the intersection: _canonical takes
    the columns C over s*C and zero over N*C and keeps the combinations
    with zero head.  Only that span is put in canonical form, not A*M.
    """
    if _over_z(module.tag):
        s, cols = scale[0], _ints(module.pairs)
        numer = [row[::2] for row in rows]
        return _z_canonical(
            module.tag, module.ambient,
            [[*col, *[s * x for x in col]] for col in cols]
            + [[0] * len(col) + [sum(map(mul, row, col)) for row in numer]
               for col in cols], module.den)
    c, e = module.tag._omega_sq
    cols = module.pairs
    numer_cols = [[x for row in rows for x in row[k:k + 2]]
                  for k in range(0, 2 * module.rank, 2)]
    kept = [list(col) + _combination(scale, [col], c, e) for col in cols]
    moved = [[0] * len(col) + _combination(col, numer_cols, c, e)
             for col in cols]
    return _canonical(module.tag, module.ambient, kept + moved, module.den)


class KIndex:
    """Principal-ideal index of a submodule, held by a canonical generator."""

    __slots__ = ("generator",)

    def __init__(self, generator: RingElem):
        self.generator = generator

    def __eq__(self, other):
        return other.__class__ is KIndex and self.generator == other.generator

    def __hash__(self):
        return hash(self.generator)

    @property
    def absolute(self) -> int:
        return self.generator.norm_abs()

    def __str__(self):
        return f"({self.generator})"


def index_K(msuper: OModule, msub: OModule) -> KIndex:
    """Canonical generator of the index ideal of msub inside msuper."""
    return KIndex(RingElem(msuper.tag, *pair_canonical_associate(
        *index_pair(msuper, msub), msuper.tag)))


def index_pair(msuper: OModule, msub: OModule):
    """A generator of the index ideal of msub inside msuper, as a pair:
    det(msub)/det(msuper), both products of pivots over den^n."""
    _check_compatible(msuper, msub)
    if not msuper.contains_module(msub):
        raise DomainError("not a submodule")
    n = msuper.rank
    if _over_z(msuper.tag):
        num, div = msuper.den ** n, msub.den ** n
        for r in range(n):
            num *= msub.pairs[r][2 * r]
            div *= msuper.pairs[r][2 * r]
        if num % div:
            raise DomainError("index is not integral")
        return num // div, 0
    c, e = msuper.tag._omega_sq
    na, nb, da, db = msuper.den ** n, 0, msub.den ** n, 0
    for r in range(0, 2 * n, 2):
        x, y = msub.pairs[r // 2], msuper.pairs[r // 2]
        na, nb = pair_mul(na, nb, x[r], x[r + 1], c, e)
        da, db = pair_mul(da, db, y[r], y[r + 1], c, e)
    ratio = pair_exact_div(na, nb, da, db, c, e)
    if ratio is None:
        raise DomainError("index is not integral")
    return ratio


def im_project(module: OModule) -> OModule:
    """Module of imaginary parts of a rank-4 module, in the im ambient."""
    if module.ambient is not Ambient.QUAT:
        raise DomainError("im_project expects a rank-4 module")
    gens = [col[2:] for col in module.pairs]
    return _canonical(module.tag, Ambient.IM, gens, module.den)


def pure_part(module: OModule) -> OModule:
    """Elements of a rank-4 module whose scalar coordinate vanishes,
    collected as a rank-3 module in the im ambient: the scalar row moves
    below the imaginary ones as the head of _canonical."""
    if module.ambient is not Ambient.QUAT:
        raise DomainError("pure_part expects a rank-4 module")
    return _canonical(module.tag, Ambient.IM,
                      [col[2:] + col[:2] for col in module.pairs], module.den)


def scalar_intersect(module: OModule) -> RingElem:
    """Canonical generator of the ideal of scalars contained in the module."""
    if module.ambient is not Ambient.QUAT:
        raise DomainError("scalar_intersect expects a rank-4 module")
    (a, b, *_), den = module.pairs[0], module.den
    if a % den or b % den:
        raise DomainError("scalar intersection is a fractional ideal")
    return RingElem(module.tag, *pair_canonical_associate(
        a // den, b // den, module.tag))
