"""The finite unit groups: Q8, 2T, 2O, 2I and cyclic/dihedral families.

Constructions follow the coset unions

    2T = Q8 u wQ8 u w^2 Q8,   2O = 2T u a 2T,   2I = U_k z^k 2T

with w = (-1+i+j+k)/2, a = (1+i)/sqrt2, z = (tau + i/tau + j)/2.

Cyclic and dihedral groups are built from a quaternionic generator of the
right order whose real part equals cos(2pi/n) exactly.  For n where the
planar embedding (cos, sin, 0, 0) leaves the quadratic tower (the sine is
irrational over it), an isometric conjugate inside the tower is used instead;
all inner products, hence all design-theoretic data, agree with the planar
model.  n is supported only when cos(pi/n)-type values stay inside
Q, Q(sqrt2) or Q(sqrt5): C_n for n in {1,2,3,4,5,6,8,10}, D_2n (order 4n)
for n in {1,2,3,4,5}.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from math import lcm

from .exactnum import QuadElem, RAT, SQRT2, GOLDEN, FieldTagMismatch
from .quat import PAIR_MUL, Quaternion, conj, qmul, qmul_pairs, scaled_pairs

CYCLIC_SUPPORTED = (1, 2, 3, 4, 5, 6, 8, 10)
DIHEDRAL_SUPPORTED = (1, 2, 3, 4, 5)


class UnsupportedAngle(ValueError):
    """Requested C_n / D_2n leaves the quadratic scalar tower."""


class NotAntipodal(ValueError):
    pass


def omega() -> Quaternion:
    """w = (-1 + i + j + k)/2, of order 3."""
    h = Fraction(1, 2)
    return Quaternion(-h, h, h, h)


def alpha() -> Quaternion:
    """a = (1 + i)/sqrt2 = (sqrt2/2)(1 + i), with a^4 = -1."""
    c = QuadElem(SQRT2, 0, Fraction(1, 2))
    z = QuadElem(SQRT2, 0)
    return Quaternion(c, c, z, z)


def beta() -> Quaternion:
    """b = (1 + j)/sqrt2."""
    c = QuadElem(SQRT2, 0, Fraction(1, 2))
    z = QuadElem(SQRT2, 0)
    return Quaternion(c, z, c, z)


def zeta() -> Quaternion:
    """z = (tau + tau^{-1} i + j)/2 with tau^{-1} = tau - 1; z^5 = -1."""
    half_tau = QuadElem(GOLDEN, 0, Fraction(1, 2))
    half_tau_inv = QuadElem(GOLDEN, Fraction(-1, 2), Fraction(1, 2))
    half = QuadElem(GOLDEN, Fraction(1, 2))
    zero = QuadElem(GOLDEN, 0)
    return Quaternion(half_tau, half_tau_inv, half, zero)


class UnitGroup:
    """A labeled finite set of norm-1 quaternions closed under product."""

    def __init__(self, label: str, elements):
        elems = list(elements)
        seen = set()
        unique = []
        for e in elems:
            if e in seen:
                raise ValueError(f"duplicate element in {label}: {e!r}")
            seen.add(e)
            unique.append(e)
        for e in unique:
            if not e.is_unit():
                raise ValueError(f"non-unit element in {label}: {e!r}")
        self.label = label
        self.elements = sorted(unique, key=lambda q: q.coords)
        self._set = frozenset(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def as_set(self) -> frozenset:
        return self._set

    def is_closed(self) -> bool:
        """Exact closure test on integer coordinates.

        With D the lcm of all coordinate denominators, every D*g is an
        integer-pair quaternion and (D*g)(D*h) = D^2 * gh; gh is a member
        exactly when that product is divisible by D and the quotient is D
        times a member.
        """
        tag, scale, scaled = _integer_frame(self.elements, self.label)
        members = set(scaled)
        for x in scaled:
            for y in scaled:
                prod = qmul_pairs(tag, x, y)
                if any(a % scale or b % scale for a, b in prod):
                    return False
                if tuple((a // scale, b // scale) for a, b in prod) not in members:
                    return False
        return True

    @cached_property
    def tag(self) -> str:
        """The one field of the irrational coordinates, RAT when there are none."""
        return _field_tag(self.elements, self.label)

    @cached_property
    def doubled(self) -> tuple:
        """2 eps on integer pairs for every element eps, in element order;
        ValueError when some 2 eps is not integral."""
        return tuple(scaled_pairs(e.coords, 2) for e in self.elements)

    @cached_property
    def gram(self) -> "Gram":
        """The Gram pass over the elements, made once per group."""
        return gram_pass(self.elements)

    def is_antipodal(self) -> bool:
        return all(-g in self._set for g in self.elements)

    def contains_inverse_of_all(self) -> bool:
        return all(conj(g) in self._set for g in self.elements)

    def to_json(self):
        return {
            "label": self.label,
            "order": len(self),
            "elements": [e.to_json() for e in self.elements],
        }


def _coset_union(label, gens_powers, base):
    elems = []
    seen = set()
    for g in gens_powers:
        for h in base:
            e = qmul(g, h)
            if e not in seen:
                seen.add(e)
                elems.append(e)
    return UnitGroup(label, elems)


def _retag(q: Quaternion, tag: str) -> Quaternion:
    return Quaternion(*(QuadElem(tag, c.a, c.b) if c.tag == RAT else c for c in q.coords))


def _cyclic_generator(n: int) -> Quaternion:
    """A unit quaternion of multiplicative order n inside the tower."""
    if n == 1:
        return Quaternion(1, 0, 0, 0)
    if n == 2:
        return Quaternion(-1, 0, 0, 0)
    if n == 3:
        return omega()
    if n == 4:
        return Quaternion(0, 1, 0, 0)
    if n == 5:
        return qmul(zeta(), zeta())
    if n == 6:
        return -omega()
    if n == 8:
        return alpha()
    if n == 10:
        return zeta()
    raise UnsupportedAngle(
        f"C_{n}: cos(2pi/{n}) does not lie in Q, Q(sqrt2) or Q(sqrt5)"
    )


def _dihedral_flip(n: int) -> Quaternion:
    """Unit imaginary w orthogonal to the C_2n generator axis, w^2 = -1."""
    if n in (1, 2):
        return Quaternion(0, 0, 1, 0)  # j, axis of g is i (or g = -1)
    if n == 3:
        # generator -w has axis (i+j+k); no rational unit vector is
        # orthogonal to it, but (i - j)/sqrt2 is and stays in Q(sqrt2)
        c = QuadElem(SQRT2, 0, Fraction(1, 2))
        z = QuadElem(SQRT2, 0)
        return Quaternion(z, c, -c, z)
    if n == 4:
        return Quaternion(0, 0, 1, 0)  # axis of alpha is i
    if n == 5:
        return Quaternion(0, 0, 0, 1)  # zeta has no k-component
    raise UnsupportedAngle(
        f"D_{2 * n}: needs an order-{2 * n} element; cos(pi/{n}) leaves the tower"
    )


@lru_cache(maxsize=None)
def build_group(label: str) -> UnitGroup:
    """Construct a supported unit group by label.

    Labels: "Q8", "2T", "2O", "2I", "C<n>", "D2n<n>" (e.g. "C6", "D2n4").
    """
    if label == "Q8":
        one, i, j, k = (
            Quaternion(1, 0, 0, 0),
            Quaternion(0, 1, 0, 0),
            Quaternion(0, 0, 1, 0),
            Quaternion(0, 0, 0, 1),
        )
        return UnitGroup("Q8", [one, -one, i, -i, j, -j, k, -k])

    if label == "2T":
        q8 = build_group("Q8")
        w = omega()
        return _coset_union("2T", [Quaternion(1, 0, 0, 0), w, qmul(w, w)], list(q8))

    if label == "2O":
        t = [_retag(e, SQRT2) for e in build_group("2T")]
        a = alpha()
        return _coset_union("2O", [Quaternion(1, 0, 0, 0), a], t)

    if label == "2I":
        t = [_retag(e, GOLDEN) for e in build_group("2T")]
        z = zeta()
        powers = [Quaternion(1, 0, 0, 0)]
        for _ in range(4):
            powers.append(qmul(powers[-1], z))
        return _coset_union("2I", powers, t)

    if label.startswith("D2n"):
        n = int(label[3:])
        if n not in DIHEDRAL_SUPPORTED:
            raise UnsupportedAngle(
                f"D_2n with n={n} is not constructible in the quadratic tower"
            )
        g = _cyclic_generator(2 * n)
        w = _dihedral_flip(n)
        elems = []
        cur = Quaternion(1, 0, 0, 0)
        for _ in range(2 * n):
            elems.append(cur)
            cur = qmul(cur, g)
        elems.extend(qmul(e, w) for e in list(elems))
        return UnitGroup(label, elems)

    if label.startswith("C"):
        n = int(label[1:])
        if n not in CYCLIC_SUPPORTED:
            raise UnsupportedAngle(
                f"C_{n} is not constructible in the quadratic tower"
            )
        g = _cyclic_generator(n)
        elems = []
        cur = Quaternion(1, 0, 0, 0)
        for _ in range(n):
            elems.append(cur)
            cur = qmul(cur, g)
        return UnitGroup(label, elems)

    raise ValueError(f"unknown group label {label!r}")


# -- point-set statistics ----------------------------------------------------

def _field_tag(points, name: str) -> str:
    """The one field of the irrational coordinates, RAT when there are none;
    FieldTagMismatch when they come from both Q(sqrt2) and Q(sqrt5)."""
    tags = {c.tag for x in points for c in x.coords if c.b}
    if len(tags) > 1:
        raise FieldTagMismatch(f"{name} mixes the fields {sorted(tags)}")
    return tags.pop() if tags else RAT


def _integer_frame(points, name: str):
    """(tag, D, [D*x as integer pairs]) with D the lcm of all coordinate
    denominators and tag from `_field_tag`."""
    scale = lcm(*(
        q.denominator for x in points for c in x.coords for q in (c.a, c.b)
    ))
    return _field_tag(points, name), scale, [scaled_pairs(x.coords, scale) for x in points]


class Gram:
    """D^2 <x, y> over the ordered pairs of a point set, on integer pairs.

    `rows[i]` counts the values in the row of `points[i]`; `unit` is
    (D^2, 0), the value of <x, y> = 1.  QuadElem appears only in `value`.
    """

    def __init__(self, points: list, tag: str, scale: int, rows: list[Counter]):
        self.points, self.tag, self.rows = points, tag, rows
        self.unit = (scale * scale, 0)

    def value(self, key) -> QuadElem:
        return QuadElem(self.tag, *(Fraction(k, self.unit[0]) for k in key))

    def pair_counts(self) -> Counter:
        """The counts of D^2 <x, y> over all ordered pairs."""
        return sum(self.rows, Counter())

    def distribution(self, counts) -> dict[QuadElem, int]:
        """counts of D^2 <x, y>, keyed by <x, y>."""
        return {self.value(k): n for k, n in counts.items()}

    def angles(self) -> set[QuadElem]:
        """A(X) = { <x,y> : x != y }; 1 is in it only when a point repeats."""
        counts = self.pair_counts()
        counts[self.unit] -= len(self.rows)
        return {self.value(k) for k, n in counts.items() if n}

    def antipodal(self) -> bool:
        """-x is a point exactly when some <x, y> = -1."""
        minus_one = (-self.unit[0], 0)
        return all(minus_one in row for row in self.rows)


def gram_pass(points) -> Gram:
    """One pass over the ordered pairs of unit-norm points.

    D*x has integer-pair coordinates, so D^2 <x, y> is the sum of four
    integer pair products.  Every diagonal entry must be (D^2, 0), else
    ValueError; FieldTagMismatch when the points mix Q(sqrt2) and Q(sqrt5).
    """
    tag, scale, scaled = _integer_frame(points, "point set")
    pmul = PAIR_MUL[tag]
    unit = (scale * scale, 0)

    def dot(x, y):
        (a1, b1), (a2, b2), (a3, b3), (a4, b4) = x
        (c1, d1), (c2, d2), (c3, d3), (c4, d4) = y
        p, q, r, s = pmul(a1, b1, c1, d1), pmul(a2, b2, c2, d2), \
            pmul(a3, b3, c3, d3), pmul(a4, b4, c4, d4)
        return p[0] + q[0] + r[0] + s[0], p[1] + q[1] + r[1] + s[1]

    rows = []
    for x in scaled:
        if dot(x, x) != unit:
            raise ValueError("point set must lie on the unit sphere")
        rows.append(Counter(map(dot, repeat(x), scaled)))
    return Gram(points, tag, scale, rows)


def gram_of(points) -> Gram:
    """The group's own Gram pass for a UnitGroup, a new one otherwise."""
    return points.gram if isinstance(points, UnitGroup) else gram_pass(list(points))


def inner_product_set(points) -> set[QuadElem]:
    """A(X) = { <x,y> : x != y } for unit-norm points."""
    return gram_of(points).angles()


def distance_distribution(points, basepoint: Quaternion) -> dict[QuadElem, int]:
    """Counts |X_s| = |{x in X : <x, x0> = s}| for a fixed basepoint."""
    gram = gram_of(points)
    if basepoint not in set(gram.points):
        raise ValueError("basepoint must belong to the point set")
    return gram.distribution(gram.rows[gram.points.index(basepoint)])


def is_distance_invariant(points) -> bool:
    rows = gram_of(points).rows
    return all(row == rows[0] for row in rows)

