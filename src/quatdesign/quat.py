"""Quaternion algebra over QuadElem scalars.

A quaternion x1 + x2 i + x3 j + x4 k is identified with the row vector
(x1, x2, x3, x4).  Left multiplication y -> x*y by a unit quaternion acts on
row vectors as y -> y . M_x with M_x the orthogonal 4x4 matrix below.
"""

from __future__ import annotations

from .exactnum import QuadElem, RAT, SQRT2, FieldTagMismatch, rat
from .unipoly import UniPoly


class NonUnitQuaternion(ValueError):
    """Raised when an operation requires norm exactly 1."""


class Quaternion:
    __slots__ = ("x1", "x2", "x3", "x4")

    def __init__(self, x1, x2, x3, x4, tag: str = RAT):
        self.x1 = QuadElem.coerce(x1, tag)
        self.x2 = QuadElem.coerce(x2, tag)
        self.x3 = QuadElem.coerce(x3, tag)
        self.x4 = QuadElem.coerce(x4, tag)

    @property
    def coords(self) -> tuple[QuadElem, QuadElem, QuadElem, QuadElem]:
        return (self.x1, self.x2, self.x3, self.x4)

    def __eq__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"Quaternion({self.x1}, {self.x2}, {self.x3}, {self.x4})"

    def __neg__(self):
        return Quaternion(-self.x1, -self.x2, -self.x3, -self.x4)

    def __add__(self, other):
        return Quaternion(*(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return Quaternion(*(a - b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return qmul(self, other)
        c = QuadElem.coerce(other)
        return Quaternion(*(xi * c for xi in self.coords))

    def __rmul__(self, other):
        c = QuadElem.coerce(other)
        return Quaternion(*(c * xi for xi in self.coords))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = Quaternion(1, 0, 0, 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "Quaternion":
        n = norm(self)
        if n.is_zero():
            raise ZeroDivisionError("inverse of the zero quaternion")
        return conj(self) * n.inverse()

    def is_unit(self) -> bool:
        return norm(self) == 1

    def sort_key(self):
        """Total-order key: exact lexicographic comparison on coordinates.

        Keys are the rational pairs (a, b) per coordinate mapped through the
        real embedding ordering; since comparing two group elements only ever
        happens inside one field, (a, b) with exact sign comparison suffices.
        We sort via the embedding order using QuadElem comparisons.
        """
        return _CoordKey(self.coords)

    def to_json(self):
        return [c.to_json() for c in self.coords]

    @staticmethod
    def from_json(arr) -> "Quaternion":
        return Quaternion(*(QuadElem.from_json(c) for c in arr))


class _CoordKey:
    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = coords

    def __lt__(self, other):
        for a, b in zip(self.coords, other.coords):
            if a == b:
                continue
            return a < b
        return False

    def __eq__(self, other):
        return self.coords == other.coords


def qmul(x: Quaternion, y: Quaternion) -> Quaternion:
    """Hamilton product with ij = k = -ji."""
    x1, x2, x3, x4 = x.coords
    y1, y2, y3, y4 = y.coords
    try:
        return Quaternion(
            x1 * y1 - x2 * y2 - x3 * y3 - x4 * y4,
            x2 * y1 + x1 * y2 - x4 * y3 + x3 * y4,
            x3 * y1 + x4 * y2 + x1 * y3 - x2 * y4,
            x4 * y1 - x3 * y2 + x2 * y3 + x1 * y4,
        )
    except FieldTagMismatch:
        raise FieldTagMismatch(
            "quaternion product requires compatible coefficient fields"
        ) from None


def conj(x: Quaternion) -> Quaternion:
    return Quaternion(x.x1, -x.x2, -x.x3, -x.x4)


def norm(x: Quaternion) -> QuadElem:
    x1, x2, x3, x4 = x.coords
    return x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4


def inner(x: Quaternion, y: Quaternion) -> QuadElem:
    """Euclidean inner product of the associated vectors in R^4."""
    return sum((a * b for a, b in zip(x.coords, y.coords)), rat(0))


# -- integer-pair coordinates --------------------------------------------------
#
# A scalar a + b*rho with integers a, b is the pair (a, b); a quaternion with
# such coordinates is a 4-tuple of pairs.  The field tag says what rho is.

def scaled_pairs(coords, scale: int) -> tuple[tuple[int, int], ...]:
    """Integer pairs of scale * c for each QuadElem c; raises ValueError
    when a scaled coordinate is not integral."""
    out = []
    for c in coords:
        a, b = scale * c.a, scale * c.b
        if a.denominator != 1 or b.denominator != 1:
            raise ValueError(f"{scale} * ({c}) is not integral")
        out.append((a.numerator, b.numerator))
    return tuple(out)


def pair_mul(tag: str, a, b, c, d):
    """(a + b rho)(c + d rho) on integer pairs, per field."""
    if tag == RAT:
        return a * c, 0
    if tag == SQRT2:
        return a * c + 2 * b * d, a * d + b * c
    bd = b * d
    return a * c + bd, a * d + b * c + bd


def qmul_pairs(tag, x, y):
    """Hamilton product on 4-tuples of integer pairs."""
    def mul(i, j):
        return pair_mul(tag, x[i][0], x[i][1], y[j][0], y[j][1])

    def add(*terms):
        return (sum(t[0] for t in terms), sum(t[1] for t in terms))

    def neg(t):
        return (-t[0], -t[1])

    p11, p22, p33, p44 = mul(0, 0), mul(1, 1), mul(2, 2), mul(3, 3)
    return (
        add(p11, neg(p22), neg(p33), neg(p44)),
        add(mul(1, 0), mul(0, 1), neg(mul(3, 2)), mul(2, 3)),
        add(mul(2, 0), mul(3, 1), mul(0, 2), neg(mul(1, 3))),
        add(mul(3, 0), neg(mul(2, 1)), mul(1, 2), mul(0, 3)),
    )


class Matrix4:
    """Dense 4x4 matrix of QuadElem entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(QuadElem.coerce(e) for e in row) for row in rows)
        if len(self.rows) != 4 or any(len(r) != 4 for r in self.rows):
            raise ValueError("Matrix4 requires a 4x4 array")

    @staticmethod
    def identity() -> "Matrix4":
        return Matrix4([[1 if i == j else 0 for j in range(4)] for i in range(4)])

    def __eq__(self, other):
        return isinstance(other, Matrix4) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __mul__(self, other: "Matrix4") -> "Matrix4":
        out = []
        for i in range(4):
            row = []
            for j in range(4):
                acc = rat(0)
                for k in range(4):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return Matrix4(out)

    def transpose(self) -> "Matrix4":
        return Matrix4([[self.rows[j][i] for j in range(4)] for i in range(4)])

    def apply_row(self, v) -> tuple[QuadElem, ...]:
        """Row vector times matrix: v . M."""
        v = [QuadElem.coerce(c) for c in v]
        return tuple(
            sum((v[k] * self.rows[k][j] for k in range(4)), rat(0)) for j in range(4)
        )

    def det_poly_i_minus_u(self) -> UniPoly:
        """det(I - u*M) as an exact degree-4 polynomial in u."""
        # entries of I - uM are linear polynomials; expand by permutations
        entries = [
            [
                UniPoly([1 if i == j else 0, -self.rows[i][j]])
                for j in range(4)
            ]
            for i in range(4)
        ]
        from itertools import permutations

        total = UniPoly.zero()
        for perm in permutations(range(4)):
            sign = _perm_sign(perm)
            term = UniPoly([1])
            for i in range(4):
                term = term * entries[i][perm[i]]
            total = total + (term if sign > 0 else -term)
        return total


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def to_matrix(x: Quaternion) -> Matrix4:
    """Matrix M_x of y -> x*y on row vectors, for unit x (no square roots)."""
    if not x.is_unit():
        raise NonUnitQuaternion("to_matrix requires a unit quaternion")
    x1, x2, x3, x4 = x.coords
    return Matrix4(
        [
            [x1, x2, x3, x4],
            [-x2, x1, x4, -x3],
            [-x3, -x4, x1, x2],
            [-x4, x3, -x2, x1],
        ]
    )


def su2_factor(x: Quaternion) -> UniPoly:
    """det(I - u C_x) = 1 - 2 x1 u + u^2 for unit x."""
    if not x.is_unit():
        raise NonUnitQuaternion("su2_factor requires a unit quaternion")
    return UniPoly([1, rat(-2) * x.x1, 1])
