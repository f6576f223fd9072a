"""Rotation matrices with field-element entries, kept as test references.

The package holds a rotation matrix only as integer pairs: the ring
matrix over one ring element of quat.cayley_pairs, and the flat
numerators over one integer denominator that csm.quat_of_rotation reads.
Mat3K is the independent field-element form the tests check those
against: its products, transpose, determinant, inverse and trace are
plain FieldElem arithmetic.  rotation_matrix wraps the rows of
quat.cayley_matrix in it, and rotation_to_quat feeds a Mat3K to
csm.quat_of_rotation.
"""

from csmod.csm import quat_of_rotation
from csmod.errors import DomainError
from csmod.quat import Quat, cayley_matrix
from csmod.rings import FieldElem, FieldTag, as_field, ring_columns


class Mat3K:
    """3x3 matrix with exact field entries, treated as immutable."""

    __slots__ = ("tag", "rows")

    def __init__(self, tag: FieldTag, rows):
        self.tag = tag
        self.rows = tuple(tuple(as_field(tag, e) for e in row) for row in rows)
        if len(self.rows) != 3 or any(len(r) != 3 for r in self.rows):
            raise DomainError("Mat3K needs exactly 3x3 entries")

    @classmethod
    def identity(cls, tag: FieldTag) -> "Mat3K":
        return cls(tag, [[int(r == c) for c in range(3)] for r in range(3)])

    def __getitem__(self, idx):
        r, c = idx
        return self.rows[r][c]

    def __mul__(self, other):
        if not isinstance(other, Mat3K):
            return NotImplemented
        if other.tag is not self.tag:
            raise DomainError("mixed field tags")
        return Mat3K(self.tag, [
            [
                sum((self.rows[r][t] * other.rows[t][c] for t in range(3)),
                    FieldElem(self.tag, 0))
                for c in range(3)
            ]
            for r in range(3)
        ])

    def transpose(self) -> "Mat3K":
        return Mat3K(self.tag, [
            [self.rows[c][r] for c in range(3)] for r in range(3)
        ])

    def det(self) -> FieldElem:
        m = self.rows
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    def inverse(self) -> "Mat3K":
        """The adjugate over the determinant: entry (r, c) is the
        cofactor of (c, r) over det."""
        d = self.det()
        if d.is_zero():
            raise ZeroDivisionError("singular matrix")
        m = self.rows
        return Mat3K(self.tag, [
            [(m[(c + 1) % 3][(r + 1) % 3] * m[(c + 2) % 3][(r + 2) % 3]
              - m[(c + 1) % 3][(r + 2) % 3] * m[(c + 2) % 3][(r + 1) % 3])
             / d for c in range(3)]
            for r in range(3)
        ])

    def trace(self) -> FieldElem:
        return self.rows[0][0] + self.rows[1][1] + self.rows[2][2]

    def __eq__(self, other):
        if not isinstance(other, Mat3K):
            return NotImplemented
        return self.tag is other.tag and self.rows == other.rows

    def __hash__(self):
        return hash((self.tag, self.rows))

    def __str__(self):
        body = "; ".join(
            ", ".join(str(e) for e in row) for row in self.rows
        )
        return f"[{body}]"

    __repr__ = __str__


def rotation_matrix(q: Quat) -> Mat3K:
    """R(q), the rows of quat.cayley_matrix, as a Mat3K."""
    return Mat3K(q.tag, cayley_matrix(q))


def rotation_to_quat(mat: Mat3K) -> Quat:
    """Quaternion (up to scale) whose conjugation action is the given
    special orthogonal matrix, by csm.quat_of_rotation on its entries'
    numerators over their common denominator; rejects anything else."""
    den, m = ring_columns(mat.tag, 3, mat.rows)
    return quat_of_rotation(mat.tag, [x for row in m for x in row], den)
