"""The finite unit groups: Q8, 2T, 2O, 2I and cyclic/dihedral families.

Constructions follow the coset unions

    2T = Q8 u wQ8 u w^2 Q8,   2O = 2T u a 2T,   2I = U_k z^k 2T

with w = (-1+i+j+k)/2, a = (1+i)/sqrt2, z = (tau + i/tau + j)/2; Q8 is
<i>{1, j}, C_n the powers of its generator and D_2n = C_2n {1, w'}.  Every
group is one such coset product, and a product that repeats is refused.

A group is held as doubled integer pairs from the start.  Twice every
element of these groups has its coordinates in Z, Z[sqrt2] or Z[tau]
(Conway & Smith, On Quaternions and Octonions, ch. 3), so each generator is
a table of 2g on integer pairs, (2g)(2h) = 4gh is a product of integer pairs
and 2gh its exact half.  A UnitGroup is made from that frame: the field
tag, D = 2, the pairs 2 eps, and one coordinate tag per element, RAT exactly
when both factors are RAT, as a QuadElem product would tag it, and the
field's tag otherwise.  It checks, sorts, tests closure and takes its Gram
pass on the pairs.  A Quaternion is rendered from them only at the
boundary: for output, for the `elements` view and in an error message.

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
from .quat import from_pairs, qmul_pairs, scaled_pairs


class UnsupportedAngle(ValueError):
    """Requested C_n / D_2n leaves the quadratic scalar tower."""


class NotAntipodal(ValueError):
    pass


# A factor is (2g on integer pairs, the tag of g's coordinates): RAT when
# all are rational, else the field's tag.
ONE = (((2, 0), (0, 0), (0, 0), (0, 0)), RAT)
I = (((0, 0), (2, 0), (0, 0), (0, 0)), RAT)
J = (((0, 0), (0, 0), (2, 0), (0, 0)), RAT)
K = (((0, 0), (0, 0), (0, 0), (2, 0)), RAT)
OMEGA = (((-1, 0), (1, 0), (1, 0), (1, 0)), RAT)  # w = (-1 + i + j + k)/2, w^3 = 1
ALPHA = (((0, 1), (0, 1), (0, 0), (0, 0)), SQRT2)  # a = (1 + i)/sqrt2, a^4 = -1
BETA = (((0, 1), (0, 0), (0, 1), (0, 0)), SQRT2)  # b = (1 + j)/sqrt2
ZETA = (((0, 1), (-1, 1), (1, 0), (0, 0)), GOLDEN)  # z = (tau + (tau - 1) i + j)/2, z^5 = -1


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

    It is made from its integer frame: the field tag, a scale D, the
    integer pairs of D eps for each element eps, and the tag of each
    element's coordinates.  A built group has D = 2.  Every check reads the
    pairs: a repeat is a repeated tuple, a unit has integer norm (D^2, 0),
    and the elements are sorted by `_compare`, which is the order of their
    coordinate tuples.  The group keeps the pairs and tags in element order.
    """

    def __init__(self, label: str, tag: str, scale: int, pairs, tags):
        index = {}
        for i, x in enumerate(pairs):
            if index.setdefault(x, i) != i:
                raise ValueError(f"duplicate element in {label}: {from_pairs(tags[i], scale, x)!r}")
        pmul, unit = PAIR_MUL[tag], (scale * scale, 0)
        for x, t in zip(pairs, tags):
            squares = [pmul(a, b, a, b) for a, b in x]
            if (sum(p for p, _ in squares), sum(q for _, q in squares)) != unit:
                raise ValueError(f"non-unit element in {label}: {from_pairs(t, scale, x)!r}")
        order = sorted(range(len(pairs)),
                       key=cmp_to_key(lambda i, j: _compare(tag, pairs[i], pairs[j])))
        self.label, self.tag, self.scale = label, tag, scale
        self.pairs = tuple(pairs[i] for i in order)
        self.tags = tuple(tags[i] for i in order)

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def elements(self) -> list:
        """The elements as Quaternions, rendered from the pairs on first read."""
        return [from_pairs(t, self.scale, x) for t, x in zip(self.tags, self.pairs)]

    def is_closed(self) -> bool:
        """Exact closure test on the integer pairs, from a generating subset T.

        The members are taken in element order; R is the set reached so
        far, and a member g outside R joins T.  The search from g forms each
        product y t of a newly reached y and a t in T once; it must be a
        member, and it is reached unless it is in R already.  So R grows by
        L, the set reached from g by right products with T through elements
        outside R.  A product x g with x in R is not formed, and need not be:

        R is the group H generated by the earlier T (the first g reaches its
        powers, a cyclic group; then by induction).  L is finite and L t
        lies in H u L for every t in T, so L H = L (y t in H, t in H, puts y
        in H), and some power g^n lies in H: the powers of g stay in L until
        they meet H, and they cannot cycle inside L, as 1 is in H.  A left
        product with any v maps the search from g avoiding H onto the search
        from v g avoiding v H, so each such search reaches |L| elements.
        Were v = h g outside L for some h in H, v H would miss both H and L
        (a union of cosets x H), and the search from v g avoiding v H would
        reach v g^(n-1) = h g^n in H, then all of H and, through 1 g = g,
        all of L: |H| + |L| elements.  So H g lies in L, H u L is closed
        under right products with T, and it is the group T generates.  At
        the end R is all of S and a group; a set that is not closed thus
        has a product y t outside it, and is refused there.  2T, 2O and 2I
        take three generators each: 64, 134 and 348 products, not all
        17,280 ordered pairs of the three.

        (D x)(D y) = D^2 xy, so xy is a member exactly when that product is
        D^2 times a member: the members are keyed at D^2 and every product
        is looked up as it comes.
        """
        tag, scale = self.tag, self.scale
        member = {tuple((scale * a, scale * b) for a, b in x): x for x in self.pairs}
        gens, reached = [], set()
        for g in self.pairs:
            if g in reached:
                continue
            gens.append(g)
            reached.add(g)
            pairs = [(g, t) for t in gens]
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
        if self.scale != 2:
            raise ValueError(f"2 eps is not integral for every element eps of {self.label}")
        return self.pairs

    @cached_property
    def gram(self) -> "Gram":
        """The Gram pass over the pairs, made once per group."""
        return _gram(self.tag, self.scale, self.pairs)

    def is_antipodal(self) -> bool:
        return self.gram.antipodal()

    def contains_inverse_of_all(self) -> bool:
        members = set(self.pairs)
        return all((x[0], *((-a, -b) for a, b in x[1:])) in members for x in self.pairs)

    def to_json(self):
        return {
            "label": self.label,
            "order": len(self),
            "elements": [e.to_json() for e in self.elements],
        }


def _halve(x):
    """x/2 for a quaternion x on integer pairs; ValueError at an odd component."""
    if any(a % 2 or b % 2 for a, b in x):
        raise ValueError(f"{x} / 2 is not integral")
    return tuple((a // 2, b // 2) for a, b in x)


def _coset_union(label, gens, base):
    """{g h : g in gens, h in base} for factors; UnitGroup refuses a
    repeated product."""
    field = next((t for _, t in gens + base if t != RAT), RAT)
    pairs, tags = [], []
    for x, s in gens:
        for y, t in base:
            pairs.append(_halve(qmul_pairs(field, x, y)))
            tags.append(RAT if s == t == RAT else field)
    return UnitGroup(label, field, 2, pairs, tags)


def powers(g, n: int) -> list:
    """[1, g, ..., g^(n-1)] as factors, for a factor g."""
    x, tag = g
    out = [ONE]
    for _ in range(n - 1):
        out.append((_halve(qmul_pairs(tag, out[-1][0], x)), tag))
    return out


# n -> a unit quaternion of multiplicative order n inside the tower
_CYCLIC_GENERATORS = {
    1: ONE,
    2: (((-2, 0), (0, 0), (0, 0), (0, 0)), RAT),  # -1
    3: OMEGA,
    4: I,
    5: (((-1, 1), (1, 0), (0, 1), (0, 0)), GOLDEN),  # z^2 = (tau - 1 + i + tau j)/2
    6: (((1, 0), (-1, 0), (-1, 0), (-1, 0)), RAT),  # -w
    8: ALPHA,
    10: ZETA,
}

# n -> a unit imaginary w orthogonal to the axis of the C_2n generator, w^2 = -1
_DIHEDRAL_FLIPS = {
    1: J,  # the axis of g is i (or g = -1)
    2: J,
    # -w has axis i + j + k; no rational unit vector is orthogonal to it,
    # but (i - j)/sqrt2 is and stays in Q(sqrt2)
    3: (((0, 0), (0, 1), (0, -1), (0, 0)), SQRT2),
    4: J,  # the axis of alpha is i
    5: K,  # zeta has no k-component
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
        return _coset_union("Q8", powers(I, 4), [ONE, J])

    if label == "2T":
        q8 = [(x, RAT) for x in build_group("Q8").doubled]
        return _coset_union("2T", powers(OMEGA, 3), q8)

    # 2O and 2I take 2T into the field of their cosets
    if label == "2O":
        t = [(x, SQRT2) for x in build_group("2T").doubled]
        return _coset_union("2O", powers(ALPHA, 2), t)

    if label == "2I":
        t = [(x, GOLDEN) for x in build_group("2T").doubled]
        return _coset_union("2I", powers(ZETA, 5), t)

    family, n = parse_family(label) or (None, None)
    if family == "D2n":
        if n not in DIHEDRAL_SUPPORTED:
            raise UnsupportedAngle(
                f"D_2n with n={n} is not constructible in the quadratic tower"
            )
        flips = [ONE, _DIHEDRAL_FLIPS[n]]
        return _coset_union(label, powers(_CYCLIC_GENERATORS[2 * n], 2 * n), flips)

    if family == "C":
        if n not in CYCLIC_SUPPORTED:
            raise UnsupportedAngle(
                f"C_{n} is not constructible in the quadratic tower"
            )
        return _coset_union(label, powers(_CYCLIC_GENERATORS[n], n), [ONE])

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
    """(tag, D, [D*x as integer pairs]) for a list of Quaternions, with D
    the lcm of 2 and all coordinate denominators and tag from `_field_tag`."""
    scale = lcm(2, *(
        q.denominator for x in points for c in x.coords for q in (c.a, c.b)
    ))
    return _field_tag(points, name), scale, [scaled_pairs(x.coords, scale) for x in points]


class Gram:
    """D^2 <x, y> over the ordered pairs of a point set, on integer pairs.

    `rows[i]` counts the values in the row of the i-th point; `unit` is
    (D^2, 0), the value of <x, y> = 1.  QuadElem appears only in `value`.
    """

    def __init__(self, tag: str, scale: int, rows: list[Counter]):
        self.tag, self.rows = tag, rows
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


def _gram(tag: str, scale: int, scaled) -> Gram:
    """One pass over the ordered pairs of points D*x on integer pairs.

    D^2 <x, y> is the sum of four integer pair products.  Every diagonal
    entry must be (D^2, 0), else ValueError.
    """
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
    return Gram(tag, scale, rows)


def gram_pass(points) -> Gram:
    """The Gram pass of a list of unit-norm Quaternions, on their integer
    frame; FieldTagMismatch when the points mix Q(sqrt2) and Q(sqrt5)."""
    return _gram(*_integer_frame(points, "point set"))


def gram_of(points) -> Gram:
    """The group's own Gram pass for a UnitGroup, a new one otherwise."""
    return points.gram if isinstance(points, UnitGroup) else gram_pass(list(points))


def distance_distribution(points, basepoint) -> dict[QuadElem, int]:
    """Counts |X_s| = |{x in X : <x, x0> = s}| for a fixed basepoint."""
    points = points if isinstance(points, UnitGroup) else list(points)
    gram, elements = gram_of(points), list(points)
    if basepoint not in set(elements):
        raise ValueError("basepoint must belong to the point set")
    return gram.distribution(gram.rows[elements.index(basepoint)])


def is_distance_invariant(points) -> bool:
    rows = gram_of(points).rows
    return all(row == rows[0] for row in rows)
