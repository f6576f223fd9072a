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

All module algebra (echelon forms, kernels, intersections, indices and
membership) runs in ring arithmetic on the numerators; membership is
an integer triangular solve.  Field elements appear only in the
read-only `basis` view, for printing.

Columns live in one of two ambient spaces: the full quaternion
coordinate space (basis 1, i, j, k) or its imaginary part (basis
i, j, k).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd, lcm

from .errors import DomainError
from .rings import (
    FieldElem,
    FieldTag,
    RingElem,
    as_field,
    canonical_residue,
    lowest_terms,
    ring_columns,
    round_quotient,
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
        """The basis columns as field elements, for printing and tests."""
        return tuple(tuple(FieldElem.ratio(e, self.den) for e in col)
                     for col in self.cols)

    def pivots(self) -> tuple[FieldElem, ...]:
        return tuple(FieldElem.ratio(self.cols[r][r], self.den)
                     for r in range(self.rank))

    def solve(self, nums, den: int):
        """Ring coordinates of the vector nums/den, or None if outside."""
        # sum_c x_c * cols[c] must equal nums * self.den / den
        g = gcd(self.den, den)
        up, down = self.den // g, den // g
        rest = []
        for e in nums:
            a, b = e.a * up, e.b * up
            if a % down or b % down:
                return None
            rest.append(RingElem(self.tag, a // down, b // down))
        coeffs = [None] * len(rest)
        for r in range(len(rest) - 1, -1, -1):
            col = self.cols[r]
            c = rest[r].exact_div(col[r])
            if c is None:
                return None
            coeffs[r] = c
            if not c.is_zero():
                _col_submul(rest, c, col[:r])
        return tuple(coeffs)

    def coordinates(self, vector):
        """Ring coordinates of vector in this basis, or None if outside."""
        den, (nums,) = ring_columns(self.tag, self.rank, [vector])
        return self.solve(nums, den)

    def contains(self, vector) -> bool:
        return self.coordinates(vector) is not None

    def contains_module(self, other: "OModule") -> bool:
        _check_compatible(self, other)
        return all(self.solve(col, other.den) is not None
                   for col in other.cols)

    def json_columns(self) -> list[list[str]]:
        return [[str(e) for e in col] for col in self.basis]

    def __eq__(self, other):
        if not isinstance(other, OModule):
            return NotImplemented
        return (self.tag is other.tag and self.ambient is other.ambient
                and self.den == other.den and self.cols == other.cols)

    def __hash__(self):
        return hash((self.tag, self.ambient, self.den, self.cols))

    def __str__(self):
        cols = "; ".join(
            "(" + ", ".join(str(e) for e in col) + ")" for col in self.basis
        )
        return f"<{cols}>"

    __repr__ = __str__


def _check_compatible(m1: OModule, m2: OModule) -> None:
    if m1.tag is not m2.tag:
        raise DomainError("mixed field tags")
    if m1.ambient is not m2.ambient:
        raise DomainError("ambient spaces differ")


def _col_submul(col, q: RingElem, src) -> None:
    """col -= q * src, entry by entry, on the integer coefficients."""
    tag = q.tag
    c, e = tag._omega_sq    # omega^2 = c + e*omega
    qa, qb = q.a, q.b
    for idx, y in enumerate(src):
        if y.a or y.b:
            x = col[idx]
            bb = qb * y.b
            col[idx] = RingElem(tag, x.a - qa * y.a - c * bb,
                                x.b - qa * y.b - qb * y.a - e * bb)


def _scaled(columns, factor: int):
    """The ring columns multiplied by a positive integer."""
    if factor == 1:
        return columns
    return [[e * factor for e in col] for col in columns]


def _echelon(columns, nrows: int, track: bool = False):
    """Eliminate columns to triangular form by Euclidean operations.

    Each step subtracts from a column the pivot column times the rounded
    quotient of their entries (rings.round_quotient), which leaves that
    entry below the pivot in absolute norm, so the least norm on the row
    falls until one nonzero entry is left.  The steps change the columns
    but not the module they span, so hnf_canonical does not depend on
    them.

    Returns (pivots, spare): pivots maps row r to the (column, transform)
    pair whose lowest nonzero entry sits on row r; spare holds the pairs
    eliminated to zero.  Transform columns express each output column as
    a ring combination of the input columns (identity when track=False,
    where they are simply None).
    """
    ncols = len(columns)
    pairs = []
    for j, col in enumerate(columns):
        tr = None
        if track:
            tag = col[0].tag
            tr = [RingElem(tag, int(i == j)) for i in range(ncols)]
        pairs.append((list(col), tr))
    pivots = {}
    for r in range(nrows - 1, -1, -1):
        while True:
            nz = [p for p in pairs if not p[0][r].is_zero()]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda p: p[0][r].norm_abs())
            piv = nz[0]
            for other in nz[1:]:
                q = round_quotient(other[0][r], piv[0][r])
                if q.is_zero():
                    raise ArithmeticError("echelon step failed to reduce")
                _col_submul(other[0], q, piv[0])
                if track:
                    _col_submul(other[1], q, piv[1])
        if nz:
            pivots[r] = nz[0]
            pairs.remove(nz[0])
    return pivots, pairs


def _kernel(columns, nrows: int):
    """Ring coefficient vectors x forming a basis of the solutions of
    sum_c x_c * columns[c] = 0."""
    _, spare = _echelon(columns, nrows, track=True)
    for zero_col, _ in spare:
        if not all(e.is_zero() for e in zero_col):
            raise ArithmeticError("echelon left a nonzero kernel column")
    return [tr for _, tr in spare]


def _combination(coeffs, columns, rows) -> list[RingElem]:
    """Rows of sum_c coeffs[c] * columns[c]."""
    out = []
    for r in rows:
        acc = coeffs[0] * columns[0][r]
        for x, col in zip(coeffs[1:], columns[1:]):
            acc = acc + x * col[r]
        out.append(acc)
    return out


def hnf_canonical(tag: FieldTag, ambient: Ambient, generators,
                  den: int = 1) -> OModule:
    """Canonical form of the module spanned by the generators divided by
    the positive integer den.  Generator entries are field elements,
    ring elements or rationals of the field tagged tag."""
    if den < 1:
        raise DomainError("the denominator must be a positive integer")
    n = ambient.dim
    scale, cols = ring_columns(tag, n, generators)
    if not cols:
        raise DomainError("no generators")
    den *= scale
    pivots, _ = _echelon(cols, n)
    if len(pivots) < n:
        raise DomainError("generators do not span a full-rank module")
    basis = [pivots[r][0] for r in range(n)]
    for r in range(n):
        d = basis[r][r]
        unit = d.canonical_associate().exact_div(d)
        if unit != 1:
            basis[r] = [e * unit for e in basis[r]]
    for c in range(n):
        col = basis[c]
        for r in range(c - 1, -1, -1):
            q, _ = canonical_residue(col[r], basis[r][r])
            if not q.is_zero():
                _col_submul(col, q, basis[r])
    flat, den = lowest_terms([e for col in basis for e in col], den)
    return OModule(tag, ambient, [flat[c:c + n] for c in range(0, n * n, n)],
                   den)


def identity_module(tag: FieldTag, ambient: Ambient) -> OModule:
    n = ambient.dim
    return hnf_canonical(
        tag, ambient,
        [[int(r == c) for r in range(n)] for c in range(n)],
    )


def scale_module(module: OModule, alpha) -> OModule:
    """The module alpha * M for a nonzero field scalar alpha."""
    a = as_field(module.tag, alpha)
    if a.is_zero():
        raise DomainError("scaling a module by zero")
    return hnf_canonical(
        module.tag, module.ambient,
        [[e * a.num for e in col] for col in module.cols],
        module.den * a.den,
    )


def _common_columns(m1: OModule, m2: OModule):
    """(den, columns of m1, columns of m2), all over one denominator."""
    den = lcm(m1.den, m2.den)
    return (den, _scaled(m1.cols, den // m1.den),
            _scaled(m2.cols, den // m2.den))


def module_sum(m1: OModule, m2: OModule) -> OModule:
    _check_compatible(m1, m2)
    den, first, second = _common_columns(m1, m2)
    return hnf_canonical(m1.tag, m1.ambient, list(first) + list(second), den)


def intersect(m1: OModule, m2: OModule) -> OModule:
    """Intersection, via the kernel of (x, y) |-> B1*x - B2*y over the ring."""
    _check_compatible(m1, m2)
    n = m1.rank
    _, first, second = _common_columns(m1, m2)
    negated_second = [[-e for e in col] for col in second]
    gens = [_combination(x[:n], m1.cols, range(n))
            for x in _kernel(list(first) + negated_second, n)]
    return hnf_canonical(m1.tag, m1.ambient, gens, m1.den)


def intersect_image(module: OModule, numer, scale: RingElem) -> OModule:
    """M intersected with A*M, for the matrix A = numer/scale given by the
    rows of a ring matrix numer and a nonzero ring scalar scale.

    With M = C/den, the kernel of [scale*C | numer*C] pairs each x with a
    y such that C*x/den = A*(-C*y/den); the vectors C*x/den span the
    intersection.  Only that span is put in canonical form, not A*M.
    """
    n = module.rank
    cols = module.cols
    kept = [[scale * e for e in col] for col in cols]
    numer_cols = list(zip(*numer))
    moved = [_combination(col, numer_cols, range(n)) for col in cols]
    gens = [_combination(x[:n], cols, range(n))
            for x in _kernel(kept + moved, n)]
    return hnf_canonical(module.tag, module.ambient, gens, module.den)


@dataclass(frozen=True)
class KIndex:
    """Principal-ideal index of a submodule, held by a canonical generator."""

    generator: RingElem

    @property
    def absolute(self) -> int:
        return self.generator.norm_abs()

    def is_trivial(self) -> bool:
        return self.generator == 1

    def __mul__(self, other: "KIndex") -> "KIndex":
        return KIndex((self.generator * other.generator).canonical_associate())

    def __str__(self):
        return f"({self.generator})"


def index_K(msuper: OModule, msub: OModule) -> KIndex:
    """Canonical generator of the index ideal of msub inside msuper."""
    _check_compatible(msuper, msub)
    if not msuper.contains_module(msub):
        raise DomainError("not a submodule")
    # det(msub)/det(msuper), both determinants products of pivots over den^n
    n = msuper.rank
    num = RingElem(msuper.tag, msuper.den ** n)
    den = RingElem(msuper.tag, msub.den ** n)
    for r in range(n):
        num = num * msub.cols[r][r]
        den = den * msuper.cols[r][r]
    ratio = num.exact_div(den)
    if ratio is None:
        raise DomainError("index is not integral")
    return KIndex(ratio.canonical_associate())


def im_project(module: OModule) -> OModule:
    """Module of imaginary parts of a rank-4 module, in the im ambient."""
    if module.ambient is not Ambient.QUAT:
        raise DomainError("im_project expects a rank-4 module")
    gens = [col[1:] for col in module.cols]
    return hnf_canonical(module.tag, Ambient.IM, gens, module.den)


def pure_part(module: OModule) -> OModule:
    """Elements of a rank-4 module whose scalar coordinate vanishes,
    collected as a rank-3 module in the im ambient."""
    if module.ambient is not Ambient.QUAT:
        raise DomainError("pure_part expects a rank-4 module")
    cols = module.cols
    gens = [_combination(x, cols, range(1, 4))
            for x in _kernel([col[:1] for col in cols], 1)]
    return hnf_canonical(module.tag, Ambient.IM, gens, module.den)


def scalar_intersect(module: OModule) -> RingElem:
    """Canonical generator of the ideal of scalars contained in the module."""
    if module.ambient is not Ambient.QUAT:
        raise DomainError("scalar_intersect expects a rank-4 module")
    d0, den = module.cols[0][0], module.den
    if d0.a % den or d0.b % den:
        raise DomainError("scalar intersection is a fractional ideal")
    return RingElem(module.tag, d0.a // den, d0.b // den).canonical_associate()
