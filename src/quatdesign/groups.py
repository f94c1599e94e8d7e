"""The finite unit groups: Q8, 2T, 2O, 2I and cyclic/dihedral families.

Constructions follow the coset unions

    2T = Q8 u wQ8 u w^2 Q8,   2O = 2T u a 2T,   2I = U_k z^k 2T

with w = (-1+i+j+k)/2, a = (1+i)/sqrt2, z = (tau + i/tau + j)/2; Q8 is
<i>{1, j}, C_n the powers of its generator and D_2n = C_2n {1, w'}.  Every
group is one such coset product, and a product that repeats is refused.

The products are formed on doubled integer pairs.  Twice every element of
these groups has its coordinates in Z, Z[sqrt2] or Z[tau] (Conway & Smith,
On Quaternions and Octonions, ch. 3), so (2g)(2h) = 4gh is a product of
integer pairs and 2gh its exact half.  Each element's Quaternion is made
once, from the halves; a coordinate is tagged RAT exactly when every
coordinate of both factors is, as a QuadElem product would tag it, and
carries the field's tag otherwise.  UnitGroup derives the integer pairs
of its elements again and checks, sorts and tests closure on them.

Cyclic and dihedral groups are built from tables of a quaternionic generator
of the right order, whose real part equals cos(2pi/n) exactly, and of a flip
w' orthogonal to its axis.  For n where the planar embedding
(cos, sin, 0, 0) leaves the quadratic tower (the sine is irrational over it),
an isometric conjugate inside the tower is used instead; all inner products,
hence all design-theoretic data, agree with the planar model.  n is
supported only when cos(pi/n)-type values stay inside Q, Q(sqrt2) or
Q(sqrt5): C_n for n in {1,2,3,4,5,6,8,10}, D_2n (order 4n) for
n in {1,2,3,4,5}.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache
from itertools import repeat
from math import lcm

from .exactnum import (
    PAIR_MUL, QuadElem, RAT, SQRT2, GOLDEN, FieldTagMismatch, _sign_quadratic,
)
from .quat import Quaternion, qmul, qmul_pairs, scaled_pairs


class UnsupportedAngle(ValueError):
    """Requested C_n / D_2n leaves the quadratic scalar tower."""


class NotAntipodal(ValueError):
    pass


def omega() -> Quaternion:
    """w = (-1 + i + j + k)/2, of order 3."""
    h = Fraction(1, 2)
    return Quaternion(-h, h, h, h)


_HALF_SQRT2 = QuadElem(SQRT2, 0, Fraction(1, 2))  # 1/sqrt2


def alpha() -> Quaternion:
    """a = (1 + i)/sqrt2 = (sqrt2/2)(1 + i), with a^4 = -1."""
    return Quaternion(_HALF_SQRT2, _HALF_SQRT2, 0, 0, SQRT2)


def beta() -> Quaternion:
    """b = (1 + j)/sqrt2."""
    return Quaternion(_HALF_SQRT2, 0, _HALF_SQRT2, 0, SQRT2)


def zeta() -> Quaternion:
    """z = (tau + tau^{-1} i + j)/2 with tau^{-1} = tau - 1; z^5 = -1."""
    half_tau = QuadElem(GOLDEN, 0, Fraction(1, 2))
    half_tau_inv = QuadElem(GOLDEN, Fraction(-1, 2), Fraction(1, 2))
    half = QuadElem(GOLDEN, Fraction(1, 2))
    zero = QuadElem(GOLDEN, 0)
    return Quaternion(half_tau, half_tau_inv, half, zero)


def _compare(tag: str, x, y) -> int:
    """-1, 0 or 1 as x < y, x = y or x > y, for quaternions on integer pairs
    of one scale: lexicographic in the coordinates, each compared by the
    exact sign of its difference."""
    for (a, b), (c, d) in zip(x, y):
        if a != c or b != d:
            return _sign_quadratic(tag, a - c, b - d)
    return 0


class UnitGroup:
    """A labeled finite set of norm-1 quaternions closed under product.

    Every check reads the integer frame (tag, D, D*eps for each eps as integer
    pairs) that `_integer_frame` derives from the elements, D the lcm of 2 and
    every coordinate denominator: a repeat is a repeated tuple, a unit has
    integer norm (D^2, 0), and the elements are sorted by `_compare`, which
    is the order of their coordinate tuples.  The group keeps the frame in
    element order.
    """

    def __init__(self, label: str, elements):
        elems = list(elements)
        tag, scale, scaled = _integer_frame(elems, label)
        index = {}
        for i, x in enumerate(scaled):
            if index.setdefault(x, i) != i:
                raise ValueError(f"duplicate element in {label}: {elems[i]!r}")
        pmul, unit = PAIR_MUL[tag], (scale * scale, 0)
        for x, e in zip(scaled, elems):
            squares = [pmul(a, b, a, b) for a, b in x]
            if (sum(p for p, _ in squares), sum(q for _, q in squares)) != unit:
                raise ValueError(f"non-unit element in {label}: {e!r}")
        order = sorted(range(len(elems)),
                       key=cmp_to_key(lambda i, j: _compare(tag, scaled[i], scaled[j])))
        self.label, self.tag = label, tag
        self.elements = [elems[i] for i in order]
        self._frame = (tag, scale, tuple(scaled[i] for i in order))

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def is_closed(self) -> bool:
        """Exact closure test on the integer frame, from a generating subset T.

        The members are taken in element order, and one that is not yet a
        product of members of T joins T.  Each product s t of a member s and
        a t in T is formed once, when the later of the two is reached, and
        must be a member, which is then a product of members of T as well.
        So every member is some t_1...t_k, and S.T in S gives S.S in S, as
        s t_1...t_k = ((s t_1)...)t_k.  A set that is not closed thus has a
        product s t outside it, and is refused there.  2T, 2O and 2I take
        three generators each: 72, 144 and 360 products, not all 17,280
        ordered pairs of the three.

        (D x)(D y) = D^2 xy, so xy is a member exactly when that product is
        D^2 times a member: the members are keyed at D^2 and every product
        is looked up as it comes.
        """
        tag, scale, scaled = self._frame
        member = {tuple((scale * a, scale * b) for a, b in x): x for x in scaled}
        gens, reached = [], set()
        for g in scaled:
            if g in reached:
                continue
            pairs = [(x, g) for x in reached]  # earlier products times the new generator
            gens.append(g)
            reached.add(g)
            pairs += [(g, t) for t in gens]
            while pairs:
                x, t = pairs.pop()
                y = member.get(qmul_pairs(tag, x, t))
                if y is None:
                    return False
                if y not in reached:
                    reached.add(y)
                    pairs += [(y, t) for t in gens]
        return True

    @property
    def doubled(self) -> tuple:
        """2 eps on integer pairs for every element eps, in element order;
        ValueError when some 2 eps is not integral."""
        _, scale, scaled = self._frame
        if scale != 2:
            raise ValueError(f"2 eps is not integral for every element eps of {self.label}")
        return scaled

    @cached_property
    def gram(self) -> "Gram":
        """The Gram pass over the elements, made once per group."""
        return gram_pass(self.elements)

    def is_antipodal(self) -> bool:
        return self.gram.antipodal()

    def contains_inverse_of_all(self) -> bool:
        scaled = self._frame[2]
        members = set(scaled)
        return all((x[0], *((-a, -b) for a, b in x[1:])) in members for x in scaled)

    def to_json(self):
        return {
            "label": self.label,
            "order": len(self),
            "elements": [e.to_json() for e in self.elements],
        }


_ONE = ((2, 0), (0, 0), (0, 0), (0, 0))  # 2 * 1


def _factor(q: Quaternion):
    """(2q on integer pairs, the tag of q's coordinates): RAT when all are
    RAT, else the one field tag among them."""
    tags = {c.tag for c in q.coords} - {RAT}
    return scaled_pairs(q.coords, 2), tags.pop() if tags else RAT


def _halve(x):
    """x/2 for a quaternion x on integer pairs; ValueError at an odd component."""
    if any(a % 2 or b % 2 for a, b in x):
        raise ValueError(f"{x} / 2 is not integral")
    return tuple((a // 2, b // 2) for a, b in x)


@lru_cache(maxsize=None)
def _half(tag: str, a: int, b: int) -> QuadElem:
    """(a + b rho)/2, one shared object per value: the groups have few."""
    return QuadElem(tag, Fraction(a, 2), Fraction(b, 2))


def _coset_union(label, gens, base):
    """{g h : g in gens, h in base} for factors (2g, tag) as `_factor` gives
    them; UnitGroup refuses a repeated product."""
    field = next((t for _, t in gens + base if t != RAT), RAT)
    elements = []
    for x, s in gens:
        for y, t in base:
            tag = RAT if s == t == RAT else field
            z = _halve(qmul_pairs(field, x, y))
            elements.append(Quaternion(*(_half(tag, a, b) for a, b in z)))
    return UnitGroup(label, elements)


def _powers(g: Quaternion, n: int) -> list:
    """[1, g, ..., g^(n-1)] as factors."""
    x, tag = _factor(g)
    out = [(_ONE, RAT)]
    for _ in range(n - 1):
        out.append((_halve(qmul_pairs(tag, out[-1][0], x)), tag))
    return out


# n -> a unit quaternion of multiplicative order n inside the tower
_CYCLIC_GENERATORS = {
    1: lambda: Quaternion(1, 0, 0, 0),
    2: lambda: Quaternion(-1, 0, 0, 0),
    3: omega,
    4: lambda: Quaternion(0, 1, 0, 0),
    5: lambda: qmul(zeta(), zeta()),
    6: lambda: -omega(),
    8: alpha,
    10: zeta,
}

# n -> a unit imaginary w orthogonal to the axis of the C_2n generator, w^2 = -1
_DIHEDRAL_FLIPS = {
    1: lambda: Quaternion(0, 0, 1, 0),  # j; the axis of g is i (or g = -1)
    2: lambda: Quaternion(0, 0, 1, 0),
    # -w has axis i + j + k; no rational unit vector is orthogonal to it,
    # but (i - j)/sqrt2 is and stays in Q(sqrt2)
    3: lambda: Quaternion(0, _HALF_SQRT2, -_HALF_SQRT2, 0, SQRT2),
    4: lambda: Quaternion(0, 0, 1, 0),  # the axis of alpha is i
    5: lambda: Quaternion(0, 0, 0, 1),  # zeta has no k-component
}

CYCLIC_SUPPORTED = tuple(_CYCLIC_GENERATORS)
DIHEDRAL_SUPPORTED = tuple(_DIHEDRAL_FLIPS)


def parse_family(label: str) -> tuple[str, int] | None:
    """("D2n", n) or ("C", n) when the label is exactly f"D2n{n}" or f"C{n}"
    for an int n, else None: `int` alone also takes signs, "_", spaces,
    leading zeros and non-ASCII digits."""
    for family in ("D2n", "C"):
        if label.startswith(family):
            try:
                n = int(label[len(family):])
            except ValueError:
                return None
            return (family, n) if label == f"{family}{n}" else None
    return None


@lru_cache(maxsize=None)
def build_group(label: str) -> UnitGroup:
    """Construct a supported unit group by label.

    Labels: "Q8", "2T", "2O", "2I", "C<n>", "D2n<n>" (e.g. "C6", "D2n4").
    """
    if label == "Q8":
        return _coset_union("Q8", _powers(Quaternion(0, 1, 0, 0), 4),
                            [(_ONE, RAT), _factor(Quaternion(0, 0, 1, 0))])

    if label == "2T":
        q8 = [(x, RAT) for x in build_group("Q8").doubled]
        return _coset_union("2T", _powers(omega(), 3), q8)

    # 2O and 2I take 2T into the field of their cosets
    if label == "2O":
        t = [(x, SQRT2) for x in build_group("2T").doubled]
        return _coset_union("2O", _powers(alpha(), 2), t)

    if label == "2I":
        t = [(x, GOLDEN) for x in build_group("2T").doubled]
        return _coset_union("2I", _powers(zeta(), 5), t)

    family, n = parse_family(label) or (None, None)
    if family == "D2n":
        if n not in DIHEDRAL_SUPPORTED:
            raise UnsupportedAngle(
                f"D_2n with n={n} is not constructible in the quadratic tower"
            )
        flips = [(_ONE, RAT), _factor(_DIHEDRAL_FLIPS[n]())]
        return _coset_union(label, _powers(_CYCLIC_GENERATORS[2 * n](), 2 * n), flips)

    if family == "C":
        if n not in CYCLIC_SUPPORTED:
            raise UnsupportedAngle(
                f"C_{n} is not constructible in the quadratic tower"
            )
        return _coset_union(label, _powers(_CYCLIC_GENERATORS[n](), n), [(_ONE, RAT)])

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
    """(tag, D, [D*x as integer pairs]) with D the lcm of 2 and all
    coordinate denominators, so that a group's D*x are its doubled elements
    2 eps whenever those are integral, and tag from `_field_tag`."""
    scale = lcm(2, *(
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


def distance_distribution(points, basepoint: Quaternion) -> dict[QuadElem, int]:
    """Counts |X_s| = |{x in X : <x, x0> = s}| for a fixed basepoint."""
    gram = gram_of(points)
    if basepoint not in set(gram.points):
        raise ValueError("basepoint must belong to the point set")
    return gram.distribution(gram.rows[gram.points.index(basepoint)])


def is_distance_invariant(points) -> bool:
    rows = gram_of(points).rows
    return all(row == rows[0] for row in rows)

