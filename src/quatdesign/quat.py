"""Quaternions: products on integer pairs, and Quaternion for error messages.

A quaternion x1 + x2 i + x3 j + x4 k is identified with the row vector
(x1, x2, x3, x4).  The program computes on 4-tuples of integer pairs (a, b)
for a + b*rho: a point file is read straight into them (`read_points`), and
the listings print the halves of the pairs.  `Quaternion`, with QuadElem
coordinates, is rendered from them only in an error message (`from_pairs`).
Left multiplication y -> x*y acts on row vectors as y -> y . M_x, with the
rows of M_x given by `left_matrix_pairs`.
Hamilton's rule is written once, in `HAMILTON`, and every product reads it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .exactnum import PAIR_MUL, FieldTagMismatch, QuadElem, RAT, read_scalar


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


# Hamilton's rule: (i, j, k, s) says e_i e_j = s e_k, with e_0 = 1 and
# (e_1, e_2, e_3) = (i, j, k).  The entries of each k are in the order of the
# written-out formula, the first with s = +1; qmul adds them in that order, so
# each coordinate takes the field tag the formula gave it.
HAMILTON = (
    (0, 0, 0, 1), (1, 1, 0, -1), (2, 2, 0, -1), (3, 3, 0, -1),
    (1, 0, 1, 1), (0, 1, 1, 1), (3, 2, 1, -1), (2, 3, 1, 1),
    (2, 0, 2, 1), (3, 1, 2, 1), (0, 2, 2, 1), (1, 3, 2, -1),
    (3, 0, 3, 1), (2, 1, 3, -1), (1, 2, 3, 1), (0, 3, 3, 1),
)


# kept for perfbench/kernels.py, which times it, until ROADMAP item 6(a)
def qmul(x: Quaternion, y: Quaternion) -> Quaternion:
    """Hamilton product with ij = k = -ji, on QuadElem coordinates."""
    xs, ys = x.coords, y.coords
    out = [None] * 4
    try:
        for i, j, k, s in HAMILTON:
            term, acc = xs[i] * ys[j], out[k]
            out[k] = term if acc is None else acc + term if s > 0 else acc - term
    except FieldTagMismatch:
        raise FieldTagMismatch(
            "quaternion product requires compatible coefficient fields"
        ) from None
    return Quaternion(*out)


# -- integer-pair coordinates --------------------------------------------------
#
# A scalar a + b*rho with integers a, b is the pair (a, b); a quaternion with
# such coordinates is a 4-tuple of pairs.  The field tag says what rho is.

def read_points(arrs) -> tuple[str, int, list]:
    """The integer frame (tag, D, [D x on integer pairs]) of the quaternions
    x, each four {"tag", "a", "b"} scalars as `group` and `shells` print
    them, with D the lcm of 2 and every coordinate denominator and tag the
    one field of the irrational coordinates, RAT when there are none.
    ValueError for a malformed point, FieldTagMismatch when the points mix
    Q(sqrt2) and Q(sqrt5)."""
    points = []
    for arr in arrs:
        if len(arr) != 4:
            raise ValueError(f"a quaternion has 4 scalars, not {len(arr)}")
        points.append([read_scalar(c) for c in arr])
    tags = {t for x in points for t, _, b in x if b}
    if len(tags) > 1:
        raise FieldTagMismatch(f"point set mixes the fields {sorted(tags)}")
    scale = lcm(2, *(q.denominator for x in points for _, a, b in x for q in (a, b)))
    return tags.pop() if tags else RAT, scale, [
        tuple((a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator))
              for _, a, b in x)
        for x in points
    ]


def from_pairs(tag: str, scale: int, x) -> Quaternion:
    """The Quaternion x / scale for x on integer pairs, its coordinates
    tagged `tag`."""
    return Quaternion(*(QuadElem(tag, Fraction(a, scale), Fraction(b, scale)) for a, b in x))


def flat(pairs) -> tuple[int, ...]:
    """The integer components (a_1, b_1, a_2, b_2, ...) of a tuple of pairs."""
    return tuple(v for pair in pairs for v in pair)


def qmul_pairs(tag, x, y):
    """Hamilton product on 4-tuples of integer pairs."""
    pmul = PAIR_MUL[tag]
    out = [0] * 8
    for i, j, k, s in HAMILTON:
        a, b = pmul(*x[i], *y[j])
        out[2 * k] += s * a
        out[2 * k + 1] += s * b
    return tuple(zip(out[::2], out[1::2]))


def left_matrix_pairs(x):
    """The rows of M_x, y -> x*y on row vectors, for a quaternion x of
    integer pairs: M_x[j][k] = s x_i for each (i, j, k, s) in HAMILTON.
    For x = 2 eps they are the rows of 2 M_eps."""
    rows = [[None] * 4 for _ in range(4)]
    for i, j, k, s in HAMILTON:
        a, b = x[i]
        rows[j][k] = (s * a, s * b)
    return tuple(map(tuple, rows))
