"""Exact module linear algebra over the base rings.

Finitely generated full-rank modules over one of the (Euclidean, hence
PID) base rings are represented by a canonical upper-triangular basis:
column j has its lowest nonzero entry (the pivot) on row j, pivots are
canonical associates, and every entry above a pivot is the canonical
residue modulo that pivot.  Equal modules therefore get identical
representations, which makes modules directly comparable and hashable.

Columns live in one of two ambient spaces: the full quaternion
coordinate space (basis 1, i, j, k) or its imaginary part (basis
i, j, k).  Entries are field elements, each a ring numerator over a
positive integer denominator in lowest terms; a module is scaled to ring
entries internally by the least common multiple of those denominators,
which is a module invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import lcm

from .errors import DomainError
from .rings import (
    FieldElem,
    FieldTag,
    RingElem,
    as_field,
    canonical_residue,
    euclid_divmod,
)


class Ambient(Enum):
    QUAT = "quat"
    IM = "im"

    @property
    def dim(self) -> int:
        return 4 if self is Ambient.QUAT else 3


class OModule:
    """Full-rank module in canonical triangular form.

    Do not call the constructor with arbitrary generators; use
    hnf_canonical, which produces the canonical basis.  Instances are
    treated as immutable.
    """

    __slots__ = ("tag", "ambient", "basis")

    def __init__(self, tag: FieldTag, ambient: Ambient, basis):
        self.tag = tag
        self.ambient = ambient
        self.basis = tuple(tuple(col) for col in basis)

    @property
    def rank(self) -> int:
        return self.ambient.dim

    def pivots(self) -> tuple[FieldElem, ...]:
        return tuple(self.basis[r][r] for r in range(self.rank))

    def det_field(self) -> FieldElem:
        out = FieldElem(self.tag, 1)
        for d in self.pivots():
            out = out * d
        return out

    def coordinates(self, vector):
        """Ring coordinates of vector in this basis, or None if outside."""
        n = self.rank
        v = [as_field(self.tag, e) for e in vector]
        if len(v) != n:
            raise DomainError(f"expected a vector of length {n}")
        coeffs = [None] * n
        for r in range(n - 1, -1, -1):
            c = v[r] / self.basis[r][r]
            if not c.is_integral():
                return None
            coeffs[r] = c.to_ring()
            for rr in range(r + 1):
                v[rr] = v[rr] - c * self.basis[r][rr]
        return tuple(coeffs)

    def contains(self, vector) -> bool:
        return self.coordinates(vector) is not None

    def contains_module(self, other: "OModule") -> bool:
        _check_compatible(self, other)
        return all(self.contains(col) for col in other.basis)

    def json_columns(self) -> list[list[str]]:
        return [[str(e) for e in col] for col in self.basis]

    def __eq__(self, other):
        if not isinstance(other, OModule):
            return NotImplemented
        return (self.tag is other.tag and self.ambient is other.ambient
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.tag, self.ambient, self.basis))

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
    for idx in range(len(col)):
        col[idx] = col[idx] - q * src[idx]


def _ring_columns(columns):
    """(scale, ring columns): the least common denominator of the field
    entries, and the columns multiplied by it."""
    scale = lcm(*(e.den for col in columns for e in col))
    return scale, [[e.num * (scale // e.den) for e in col] for col in columns]


def _echelon(columns, nrows: int, track: bool = False):
    """Eliminate columns to triangular form by Euclidean operations.

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
                q, _ = euclid_divmod(other[0][r], piv[0][r])
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


def _combination(coeffs, columns, rows, scale: int) -> list[FieldElem]:
    """Rows of sum_c coeffs[c] * columns[c], divided by scale."""
    return [
        FieldElem.ratio(sum(x * col[r] for x, col in zip(coeffs, columns)),
                        scale)
        for r in rows
    ]


def hnf_canonical(tag: FieldTag, ambient: Ambient, generators) -> OModule:
    """Canonical triangular basis of the module spanned by the generators."""
    n = ambient.dim
    gens = []
    for gen in generators:
        vec = [as_field(tag, e) for e in gen]
        if len(vec) != n:
            raise DomainError(f"expected generators of length {n}")
        gens.append(vec)
    if not gens:
        raise DomainError("no generators")
    scale, cols = _ring_columns(gens)
    pivots, _ = _echelon(cols, n)
    if len(pivots) < n:
        raise DomainError("generators do not span a full-rank module")
    basis = [pivots[r][0] for r in range(n)]
    for r in range(n):
        d = basis[r][r]
        unit = d.canonical_associate().exact_div(d)
        basis[r] = [e * unit for e in basis[r]]
    for c in range(n):
        col = basis[c]
        for r in range(c - 1, -1, -1):
            q, _ = canonical_residue(col[r], basis[r][r])
            if not q.is_zero():
                _col_submul(col, q, basis[r])
    columns = [
        tuple(FieldElem.ratio(e, scale) for e in col) for col in basis
    ]
    return OModule(tag, ambient, columns)


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
        [[e * a for e in col] for col in module.basis],
    )


def module_sum(m1: OModule, m2: OModule) -> OModule:
    _check_compatible(m1, m2)
    return hnf_canonical(m1.tag, m1.ambient, list(m1.basis) + list(m2.basis))


def intersect(m1: OModule, m2: OModule) -> OModule:
    """Intersection, via the kernel of (x, y) |-> B1*x - B2*y over the ring."""
    _check_compatible(m1, m2)
    n = m1.rank
    scale, cols = _ring_columns(m1.basis + m2.basis)
    first = cols[:n]
    negated_second = [[-e for e in col] for col in cols[n:]]
    gens = [_combination(x[:n], first, range(n), scale)
            for x in _kernel(first + negated_second, n)]
    return hnf_canonical(m1.tag, m1.ambient, gens)


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
    ratio = msub.det_field() / msuper.det_field()
    if not ratio.is_integral():
        raise DomainError("index is not integral")
    return KIndex(ratio.to_ring().canonical_associate())


def im_project(module: OModule) -> OModule:
    """Module of imaginary parts of a rank-4 module, in the im ambient."""
    if module.ambient is not Ambient.QUAT:
        raise DomainError("im_project expects a rank-4 module")
    gens = [col[1:] for col in module.basis]
    return hnf_canonical(module.tag, Ambient.IM, gens)


def pure_part(module: OModule) -> OModule:
    """Elements of a rank-4 module whose scalar coordinate vanishes,
    collected as a rank-3 module in the im ambient."""
    if module.ambient is not Ambient.QUAT:
        raise DomainError("pure_part expects a rank-4 module")
    scale, cols = _ring_columns(module.basis)
    gens = [_combination(x, cols, range(1, 4), scale)
            for x in _kernel([col[:1] for col in cols], 1)]
    return hnf_canonical(module.tag, Ambient.IM, gens)


def scalar_intersect(module: OModule) -> RingElem:
    """Canonical generator of the ideal of scalars contained in the module."""
    if module.ambient is not Ambient.QUAT:
        raise DomainError("scalar_intersect expects a rank-4 module")
    d0 = module.basis[0][0]
    if not d0.is_integral():
        raise DomainError("scalar intersection is a fractional ideal")
    return d0.to_ring().canonical_associate()
