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

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .exactnum import QuadElem, RAT, SQRT2, GOLDEN, FieldTagMismatch, rat
from .quat import Quaternion, conj, inner, norm, qmul, qmul_pairs, scaled_pairs

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
        self.elements = sorted(unique, key=lambda q: q.sort_key())
        self._set = frozenset(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, q):
        return q in self._set

    def as_set(self) -> frozenset:
        return self._set

    def is_closed(self) -> bool:
        """Exact closure test on integer coordinates.

        With D the lcm of all coordinate denominators, every D*g is an
        integer-pair quaternion and (D*g)(D*h) = D^2 * gh; gh is a member
        exactly when that product is divisible by D and the quotient is D
        times a member.
        """
        tags = {c.tag for g in self.elements for c in g.coords if c.b}
        if len(tags) > 1:
            raise FieldTagMismatch(f"{self.label} mixes the fields {sorted(tags)}")
        tag = tags.pop() if tags else RAT
        scale = lcm(*(
            q.denominator for g in self.elements for c in g.coords for q in (c.a, c.b)
        ))
        scaled = [scaled_pairs(g.coords, scale) for g in self.elements]
        members = set(scaled)
        for x in scaled:
            for y in scaled:
                prod = qmul_pairs(tag, x, y)
                if any(a % scale or b % scale for a, b in prod):
                    return False
                if tuple((a // scale, b // scale) for a, b in prod) not in members:
                    return False
        return True

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

def inner_product_set(points) -> set[QuadElem]:
    """A(X) = { <x,y> : x != y } for unit-norm points."""
    pts = list(points)
    _require_unit(pts)
    vals = set()
    for idx, x in enumerate(pts):
        for y in pts[idx + 1:]:
            s = inner(x, y)
            vals.add(s)
    return vals


def distance_distribution(points, basepoint: Quaternion) -> dict[QuadElem, int]:
    """Counts |X_s| = |{x in X : <x, x0> = s}| for a fixed basepoint."""
    pts = list(points)
    if basepoint not in set(pts):
        raise ValueError("basepoint must belong to the point set")
    counts: dict[QuadElem, int] = {}
    for x in pts:
        s = inner(x, basepoint)
        counts[s] = counts.get(s, 0) + 1
    return counts


def pair_distance_distribution(points) -> dict[QuadElem, int]:
    """A_s(X) over all ordered pairs; sums to |X|^2."""
    pts = list(points)
    counts: dict[QuadElem, int] = {}
    for x in pts:
        for y in pts:
            s = inner(x, y)
            counts[s] = counts.get(s, 0) + 1
    return counts


def is_distance_invariant(points) -> bool:
    pts = list(points)
    base = None
    for x0 in pts:
        d = distance_distribution(pts, x0)
        key = frozenset(d.items())
        if base is None:
            base = key
        elif key != base:
            return False
    return True


def half_set(points) -> list[Quaternion]:
    """A canonical half set X' with X = X' u (-X'), for antipodal X."""
    pts = sorted(points, key=lambda q: q.sort_key())
    pset = set(pts)
    if any(-x not in pset for x in pts):
        raise NotAntipodal("half_set requires an antipodal point set")
    chosen: list[Quaternion] = []
    excluded: set[Quaternion] = set()
    for x in pts:
        if x in excluded:
            continue
        chosen.append(x)
        excluded.add(x)
        excluded.add(-x)
    return chosen


def orbit(x: Quaternion, group: UnitGroup) -> list[Quaternion]:
    """Right coset xG; |xG| = |G| for x != 0."""
    if norm(x).is_zero():
        raise ValueError("orbit of the zero quaternion is not defined")
    pts = [qmul(x, eps) for eps in group]
    if len(set(pts)) != len(group):
        raise AssertionError("orbit collapsed; group action not free")
    return sorted(pts, key=lambda q: q.sort_key())


def _require_unit(pts):
    for p in pts:
        if not p.is_unit():
            raise ValueError("point set must lie on the unit sphere")
