"""Quaternion algebra over QuadElem scalars.

A quaternion x1 + x2 i + x3 j + x4 k is identified with the row vector
(x1, x2, x3, x4).  Left multiplication y -> x*y acts on row vectors as
y -> y . M_x, with the rows of M_x given by `left_matrix_pairs`.
"""

from __future__ import annotations

from .exactnum import QuadElem, RAT, SQRT2, GOLDEN, FieldTagMismatch, rat


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

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return qmul(self, other)
        c = QuadElem.coerce(other)
        return Quaternion(*(xi * c for xi in self.coords))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"quaternion power {n}: exponents start at 0")
        result = Quaternion(1, 0, 0, 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_unit(self) -> bool:
        return norm(self) == 1

    def to_json(self):
        return [c.to_json() for c in self.coords]

    @staticmethod
    def from_json(arr) -> "Quaternion":
        return Quaternion(*(QuadElem.from_json(c) for c in arr))


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


def flat(pairs) -> tuple[int, ...]:
    """The integer components (a_1, b_1, a_2, b_2, ...) of a tuple of pairs."""
    return tuple(v for pair in pairs for v in pair)


# (a + b rho)(c + d rho) on integer pairs, one function per field;
# rho^2 = 2 for SQRT2 and tau^2 = tau + 1 for GOLDEN
PAIR_MUL = {
    RAT: lambda a, b, c, d: (a * c, 0),
    SQRT2: lambda a, b, c, d: (a * c + 2 * b * d, a * d + b * c),
    GOLDEN: lambda a, b, c, d: (a * c + b * d, a * d + b * c + b * d),
}


def qmul_pairs(tag, x, y):
    """Hamilton product on 4-tuples of integer pairs."""
    pmul = PAIR_MUL[tag]

    def mul(i, j):
        return pmul(x[i][0], x[i][1], y[j][0], y[j][1])

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


def char_coeffs_pairs(tag, rows) -> tuple[tuple[int, int], ...]:
    """(e1, e2, e3, e4) with det(tI - A) = t^4 - e1 t^3 + e2 t^2 - e3 t + e4,
    for a 4x4 matrix A of integer pairs.

    Newton's identities k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) p_i with the
    power traces p_i = tr(A^i); the divisions by 2, 3 and 4 are exact on
    Z[rho] and raise AssertionError on a remainder.
    """
    pmul = PAIR_MUL[tag]

    def dot(u, v):
        terms = [pmul(*x, *y) for x, y in zip(u, v)]
        return sum(t[0] for t in terms), sum(t[1] for t in terms)

    cols = tuple(zip(*rows))
    power, traces = rows, []
    for k in range(4):
        if k:
            power = [[dot(r, c) for c in cols] for r in power]
        diag = [power[i][i] for i in range(4)]
        traces.append((sum(t[0] for t in diag), sum(t[1] for t in diag)))
    e = [(1, 0)]
    for k in range(1, 5):
        acc_a = acc_b = 0
        for i in range(1, k + 1):
            ta, tb = pmul(*e[k - i], *traces[i - 1])
            sign = 1 if i % 2 else -1
            acc_a += sign * ta
            acc_b += sign * tb
        if acc_a % k or acc_b % k:
            raise AssertionError(f"Newton identity for e_{k} leaves a remainder")
        e.append((acc_a // k, acc_b // k))
    return tuple(e[1:])


def left_matrix_pairs(x):
    """The rows of M_x, y -> x*y on row vectors, for a quaternion x of
    integer pairs; for x = 2 eps they are the rows of 2 M_eps."""
    x1, x2, x3, x4 = x
    n2, n3, n4 = ((-a, -b) for a, b in (x2, x3, x4))
    return (
        (x1, x2, x3, x4),
        (n2, x1, x4, n3),
        (n3, n4, x1, x2),
        (n4, x3, n2, x1),
    )
