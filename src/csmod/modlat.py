"""Exact module linear algebra over the base rings.

Finitely generated full-rank modules over one of the (Euclidean, hence
PID) base rings are held as ring columns over one positive integer
denominator: a module is C/den, where C is an upper-triangular matrix
of RingElem entries in canonical form.  Column j of C has its lowest
nonzero entry (the pivot) on row j, pivots are canonical associates,
and every entry above a pivot is the canonical residue modulo that
pivot.  The pair (C, den) is then normalised so that den and the
integer coefficients of all entries of C have gcd 1.  The triangular
form commutes with scaling by positive integers, so equal modules get
identical pairs whatever the denominator of their generators, which
makes modules directly comparable and hashable.

All module algebra (echelon forms, kernels, intersections, indices,
membership and the canonical normalisation) runs on plain integers: a
column is a flat list [a0, b0, a1, b1, ...], one pair (a, b) per entry
a + b*omega, and each call reads the omega^2 rule of its field once.
The pivots, the residues above them and the lowest terms are normalised
by the pair helpers of rings.  RingElems appear only in the columns of
the resulting OModule, field elements only in the read-only `basis`
view; text is printed from the numerators.  Membership is a triangular
solve.

Columns live in one of two ambient spaces: the full quaternion
coordinate space (basis 1, i, j, k) or its imaginary part (basis
i, j, k).
"""

from __future__ import annotations

from enum import Enum
from math import gcd, lcm

from .errors import DomainError
from .rings import (
    FieldElem,
    FieldTag,
    RingElem,
    _format_pair,
    as_field,
    pair_canonical_associate,
    pair_canonical_residue,
    pair_exact_div,
    pair_mul,
    pair_norm,
    pair_round_quotient,
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

    Do not call the constructor with arbitrary columns; use
    hnf_canonical, which produces the canonical pair.  Instances are
    treated as immutable.
    """

    __slots__ = ("tag", "ambient", "cols", "den")

    def __init__(self, tag: FieldTag, ambient: Ambient, cols, den: int):
        self.tag = tag
        self.ambient = ambient
        self.cols = tuple(tuple(col) for col in cols)
        self.den = den

    @property
    def rank(self) -> int:
        return self.ambient.dim

    @property
    def basis(self) -> tuple[tuple[FieldElem, ...], ...]:
        """The basis columns as field elements, a read-only view."""
        return tuple(tuple(FieldElem.ratio(e, self.den) for e in col)
                     for col in self.cols)

    def solve(self, nums, den: int):
        """Ring coordinates of the vector nums/den, or None if outside."""
        x = self._solve([_pairs(col) for col in self.cols], _pairs(nums), den)
        return None if x is None else _elems(self.tag, x)

    def _solve(self, cols, nums, den: int):
        """solve on pairs, given the flat columns cols of this module."""
        # sum_c x_c * cols[c] must equal nums * self.den / den
        g = gcd(self.den, den)
        up, down = self.den // g, den // g
        if down != 1 and any(x * up % down for x in nums):
            return None
        rest = [x * up // down for x in nums]
        c, e = self.tag._omega_sq
        coeffs = [0] * len(rest)
        for i in range(len(rest) - 2, -1, -2):
            col = cols[i // 2]
            q = pair_exact_div(rest[i], rest[i + 1], col[i], col[i + 1], c, e)
            if q is None:
                return None
            coeffs[i], coeffs[i + 1] = q
            _col_submul(rest, *q, col[:i], c, e)    # the rows above
        return coeffs

    def coordinates(self, vector):
        """Ring coordinates of vector in this basis, or None if outside."""
        den, (nums,) = ring_columns(self.tag, self.rank, [vector])
        return self.solve(nums, den)

    def contains(self, vector) -> bool:
        return self.coordinates(vector) is not None

    def contains_module(self, other: "OModule") -> bool:
        _check_compatible(self, other)
        cols = [_pairs(col) for col in self.cols]
        return all(self._solve(cols, _pairs(col), other.den) is not None
                   for col in other.cols)

    def json_columns(self) -> list[list[str]]:
        return [[_format_pair(e.a, e.b, self.den) for e in col]
                for col in self.cols]

    def __eq__(self, other):
        if not isinstance(other, OModule):
            return NotImplemented
        return (self.tag is other.tag and self.ambient is other.ambient
                and self.den == other.den and self.cols == other.cols)

    def __hash__(self):
        return hash((self.tag, self.ambient, self.den, self.cols))

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


def _pairs(entries, factor: int = 1) -> list[int]:
    """Ring elements as one flat list of integer pairs, times an int."""
    out = []
    for y in entries:
        out += y.a * factor, y.b * factor
    return out


def _elems(tag: FieldTag, flat) -> tuple[RingElem, ...]:
    """A flat list of integer pairs as ring elements."""
    return tuple(RingElem(tag, a, b) for a, b in zip(flat[::2], flat[1::2]))


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


def _echelon(columns, nrows: int, c: int, e: int, track: int = 0):
    """Eliminate flat columns to triangular form by Euclidean operations.

    Each step subtracts from a column the pivot column times the rounded
    quotient of their entries, which leaves that entry below the pivot in
    absolute norm, so the least norm on the row falls until one nonzero
    entry is left.  The steps change the columns but not the module they
    span, so hnf_canonical does not depend on them.

    Returns (pivots, spare): pivots maps row r to the (column, transform)
    pair whose lowest nonzero entry sits on row r; spare holds the pairs
    eliminated to zero.  A transform holds the first track coefficients
    of the column as a combination of the input columns.
    """
    pairs = [(list(col), [int(k == 2 * j) for k in range(2 * track)])
             for j, col in enumerate(columns)]
    pivots = {}
    for i in range(2 * nrows - 2, -1, -2):
        while True:
            nz = [p for p in pairs if p[0][i] or p[0][i + 1]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda p: abs(pair_norm(p[0][i], p[0][i + 1], c, e)))
            piv, ptr = nz[0]
            ya, yb = piv[i], piv[i + 1]
            for col, tr in nz[1:]:
                qa, qb = pair_round_quotient(col[i], col[i + 1], ya, yb, c, e)
                if not (qa or qb):
                    raise ArithmeticError("echelon step failed to reduce")
                _col_submul(col, qa, qb, piv, c, e)
                if track:
                    _col_submul(tr, qa, qb, ptr, c, e)
        if nz:
            pivots[i // 2] = nz[0]
            pairs.remove(nz[0])
    return pivots, pairs


def _kernel(columns, nrows: int, c: int, e: int, track: int):
    """First track pairs of a basis of the x with sum_k x_k*columns[k] = 0."""
    _, spare = _echelon(columns, nrows, c, e, track)
    if any(any(col) for col, _ in spare):
        raise ArithmeticError("echelon left a nonzero kernel column")
    return [x for _, x in spare]


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
    return _canonical(tag, ambient, [_pairs(col) for col in cols], den * scale)


def _canonical(tag: FieldTag, ambient: Ambient, cols, den: int) -> OModule:
    """hnf_canonical for flat pair columns over a positive int den."""
    n = ambient.dim
    c, e = tag._omega_sq
    pivots, _ = _echelon(cols, n, c, e)
    if len(pivots) < n:
        raise DomainError("generators do not span a full-rank module")
    basis = [pivots[r][0] for r in range(n)]
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
    flat = sum(basis, [])
    g = gcd(den, *flat)     # lowest terms
    if g != 1:
        flat, den = [x // g for x in flat], den // g
    return OModule(tag, ambient, zip(*[iter(_elems(tag, flat))] * n), den)


def identity_module(tag: FieldTag, ambient: Ambient) -> OModule:
    n = ambient.dim
    return hnf_canonical(tag, ambient,
                         [[int(r == c) for r in range(n)] for c in range(n)])


def scale_module(module: OModule, alpha) -> OModule:
    """The module alpha * M for a nonzero field scalar alpha."""
    a = as_field(module.tag, alpha)
    if a.is_zero():
        raise DomainError("scaling a module by zero")
    return hnf_canonical(module.tag, module.ambient,
                         [[e * a.num for e in col] for col in module.cols],
                         module.den * a.den)


def _common_columns(m1: OModule, m2: OModule):
    """(den, the flat columns of m1 and then of -m2, all over den)."""
    _check_compatible(m1, m2)
    den = lcm(m1.den, m2.den)
    return den, ([_pairs(col, den // m1.den) for col in m1.cols]
                 + [_pairs(col, -(den // m2.den)) for col in m2.cols])


def module_sum(m1: OModule, m2: OModule) -> OModule:
    den, cols = _common_columns(m1, m2)
    return _canonical(m1.tag, m1.ambient, cols, den)


def intersect(m1: OModule, m2: OModule) -> OModule:
    """Intersection, via the kernel of (x, y) |-> B1*x - B2*y over the ring."""
    den, cols = _common_columns(m1, m2)
    c, e = m1.tag._omega_sq
    gens = [_combination(x, cols[:m1.rank], c, e)
            for x in _kernel(cols, m1.rank, c, e, m1.rank)]
    return _canonical(m1.tag, m1.ambient, gens, den)


def intersect_image(module: OModule, rows, scale) -> OModule:
    """M intersected with A*M, for the matrix A = N/s given by the rows
    of a ring matrix N, each a flat list of integer pairs, and a nonzero
    ring scalar s as a pair (a, b).

    With M = C/den, the kernel of [s*C | N*C] pairs each x with a y such
    that C*x/den = A*(-C*y/den); the vectors C*x/den span the
    intersection.  Only that span is put in canonical form, not A*M.
    """
    c, e = module.tag._omega_sq
    cols = [_pairs(col) for col in module.cols]
    numer_cols = [[x for row in rows for x in row[k:k + 2]]
                  for k in range(0, 2 * module.rank, 2)]
    kept = [_combination(scale, [col], c, e) for col in cols]
    moved = [_combination(col, numer_cols, c, e) for col in cols]
    gens = [_combination(x, cols, c, e)
            for x in _kernel(kept + moved, module.rank, c, e, module.rank)]
    return _canonical(module.tag, module.ambient, gens, module.den)


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
    _check_compatible(msuper, msub)
    if not msuper.contains_module(msub):
        raise DomainError("not a submodule")
    # det(msub)/det(msuper), both determinants products of pivots over den^n
    n = msuper.rank
    c, e = msuper.tag._omega_sq
    na, nb, da, db = msuper.den ** n, 0, msub.den ** n, 0
    for r in range(n):
        x, y = msub.cols[r][r], msuper.cols[r][r]
        na, nb = pair_mul(na, nb, x.a, x.b, c, e)
        da, db = pair_mul(da, db, y.a, y.b, c, e)
    ratio = pair_exact_div(na, nb, da, db, c, e)
    if ratio is None:
        raise DomainError("index is not integral")
    return KIndex(RingElem(msuper.tag, *ratio).canonical_associate())


def im_project(module: OModule) -> OModule:
    """Module of imaginary parts of a rank-4 module, in the im ambient."""
    if module.ambient is not Ambient.QUAT:
        raise DomainError("im_project expects a rank-4 module")
    gens = [_pairs(col[1:]) for col in module.cols]
    return _canonical(module.tag, Ambient.IM, gens, module.den)


def pure_part(module: OModule) -> OModule:
    """Elements of a rank-4 module whose scalar coordinate vanishes,
    collected as a rank-3 module in the im ambient."""
    if module.ambient is not Ambient.QUAT:
        raise DomainError("pure_part expects a rank-4 module")
    c, e = module.tag._omega_sq
    cols = [_pairs(col) for col in module.cols]
    gens = [_combination(x, cols, c, e)[2:]
            for x in _kernel([col[:2] for col in cols], 1, c, e, 4)]
    return _canonical(module.tag, Ambient.IM, gens, module.den)


def scalar_intersect(module: OModule) -> RingElem:
    """Canonical generator of the ideal of scalars contained in the module."""
    if module.ambient is not Ambient.QUAT:
        raise DomainError("scalar_intersect expects a rank-4 module")
    d0, den = module.cols[0][0], module.den
    if d0.a % den or d0.b % den:
        raise DomainError("scalar intersection is a fractional ideal")
    return RingElem(module.tag, d0.a // den, d0.b // den).canonical_associate()
