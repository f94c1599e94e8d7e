"""Harmonic strength, two independent ways.

Route 1 (direct): the pair-sum zero test through the distance distribution,
    sum_s A_s(X) C_l^1(s) = 0  iff  l in T(X)   (points on S^3).

Route 2 (invariant theory, groups only): l in T(G) iff the coefficient of
u^l vanishes in the Molien series

    Psi_G(u) = (1/|G|) sum_{eps in G} 1/(1 - 2 eps_1 u + u^2),

whose per-element reciprocals are Chebyshev U_k(eps_1) generating functions.
The sum runs over first-coordinate classes in `class_sum_series`, which
also builds the harmonic Molien series of theta.py.  Both routes are
exact; their agreement is part of the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exactnum import QuadElem, rat
from .gegenbauer import chebyshev_u_value
from .groups import UnitGroup, _require_unit, build_group, pair_distance_distribution


@dataclass(frozen=True)
class StrengthReport:
    group_label: str
    max_degree: int
    even_members: tuple[int, ...]
    all_odd_in: bool
    odd_members: tuple[int, ...] | None = None  # set only when not antipodal

    def to_json(self):
        return {
            "label": self.group_label,
            "max_degree": self.max_degree,
            "even_members": list(self.even_members),
            "all_odd_in": self.all_odd_in,
            "odd_members": None if self.odd_members is None else list(self.odd_members),
        }


def first_coordinate_distribution(points) -> dict[QuadElem, int]:
    counts: dict[QuadElem, int] = {}
    for x in points:
        counts[x.x1] = counts.get(x.x1, 0) + 1
    return counts


def class_sum_series(classes, order: int, num, n: int) -> tuple[int, ...]:
    """(1/order) sum_classes count * num(u)/p(u) to u^n, as dimensions.

    `classes` holds (p, count) with p = (1, p_1, ..., p_d) the coefficients
    of a polynomial shared by `count` group elements; `num` holds those of
    the numerator.  Each quotient f = num/p follows from p * f = num:
    f_k = num_k - (p_1 f_(k-1) + ... + p_d f_(k-d)).  Every coefficient
    must come out a nonnegative integer.
    """
    if n < 0:
        raise IndexError(f"series to u^{n}: degrees start at 0")
    num = [rat(num[k] if k < len(num) else 0) for k in range(n + 1)]
    sums = [rat(0)] * (n + 1)
    for p, count in classes:
        # the nonzero p_j in rising j; a p_j equal to 1 costs no product
        steps = [(j, c) for j, c in enumerate(p) if j and c]
        f = []
        for k in range(n + 1):
            acc = num[k]
            for j, c in steps:
                if j > k:
                    break
                acc = acc - (f[k - j] if c == 1 else c * f[k - j])
            f.append(acc)
            sums[k] = sums[k] + acc * count
    out = []
    for k, c in enumerate(sums):
        if not c.is_rational():
            raise AssertionError(f"Molien coefficient at u^{k} is irrational: {c}")
        q = c.a / order
        if q.denominator != 1 or q < 0:
            raise AssertionError(f"Molien coefficient at u^{k} not a dimension: {q}")
        out.append(int(q))
    return tuple(out)


def molien_series(group: UnitGroup, n: int) -> tuple[int, ...]:
    """Psi_G(u) to u^n: 1/(1 - 2 eps_1 u + u^2) summed over eps_1 classes."""
    classes = [
        ((1, -(x1 + x1), 1), count)
        for x1, count in first_coordinate_distribution(group).items()
    ]
    return class_sum_series(classes, len(group), (1,), n)


_CLOSED_FORM = {
    "2T": ((12,), (6, 8)),
    "2O": ((18,), (8, 12)),
    "2I": ((30,), (12, 20)),
}


def molien_closed_form(label: str, n: int) -> tuple[int, ...]:
    """The known rational-function form of Psi_G, expanded on integers.

    prod(1 + u^a) / prod(1 - u^b) with C_n: (1+u^n)/((1-u^2)(1-u^n)) and
    D_2n: (1+u^{2n+2})/((1-u^4)(1-u^{2n})).
    """
    if label in _CLOSED_FORM:
        num, den = _CLOSED_FORM[label]
    elif label.startswith("D2n"):
        m = int(label[3:])
        num, den = (2 * m + 2,), (4, 2 * m)
    elif label.startswith("C"):
        m = int(label[1:])
        num, den = (m,), (2, m)
    else:
        raise ValueError(f"no closed-form Molien series for {label!r}")
    if min(den) < 1:
        raise ValueError(f"no closed-form Molien series for {label!r}")
    if n < 0:
        raise IndexError(f"series to u^{n}: degrees start at 0")
    out = [1] + [0] * n
    for a in num:  # times (1 + u^a)
        for k in range(n, a - 1, -1):
            out[k] += out[k - a]
    for b in den:  # divided by (1 - u^b)
        for k in range(b, n + 1):
            out[k] += out[k - b]
    return tuple(out)


@lru_cache(maxsize=None)
def _group_pair_distribution(label: str):
    return tuple(pair_distance_distribution(build_group(label).elements).items())


def _distribution_of(points) -> list:
    if isinstance(points, UnitGroup):
        return list(_group_pair_distribution(points.label))
    return list(pair_distance_distribution(points).items())


def pair_sum_value(points, ell: int) -> QuadElem:
    """sum_{x,y in X} C_l^1(<x,y>), via the distance distribution."""
    total = rat(0)
    for s, count in _distribution_of(points):
        total = total + chebyshev_u_value(ell, s) * count
    return total


def pair_sum_test(points, ell: int) -> bool:
    """True iff l lies in the harmonic strength of X (Gegenbauer pair test)."""
    if not isinstance(points, UnitGroup):
        _require_unit(points)
    return pair_sum_value(points, ell).is_zero()


def pair_sum_tests_bulk(points, ells) -> dict[int, bool]:
    """pair_sum_test for several degrees with one distance-distribution scan."""
    dist = _distribution_of(points)
    out = {}
    for ell in ells:
        total = rat(0)
        for s, count in dist:
            total = total + chebyshev_u_value(ell, s) * count
        out[ell] = total.is_zero()
    return out


def harmonic_strength(source, n: int) -> StrengthReport:
    """StrengthReport for a UnitGroup (Molien route) or point list (pair sums).

    Even members come from exact zero coefficients; odd degrees are certified
    by the antipodality argument, with direct pair-sum tests for l <= 15 run
    as defense in depth.  For non-antipodal inputs the odd members found by
    direct testing are reported explicitly.  A point list must be nonempty
    and lie on the unit sphere.
    """
    if isinstance(source, UnitGroup):
        label = source.label
        points = source.elements
        vanishes = [c == 0 for c in molien_series(source, n)]
    else:
        label = "points"
        points = list(source)
        if not points:
            raise ValueError("the strength of an empty point set is not defined")
        _require_unit(points)
        vanishes = pair_sum_tests_bulk(points, range(n + 1))
    zero_evens = tuple(k for k in range(2, n + 1, 2) if vanishes[k])
    odd_nonzero = [k for k in range(1, n + 1, 2) if not vanishes[k]]

    pset = set(points)
    antipodal = all(-x in pset for x in points)
    if antipodal:
        if odd_nonzero:
            raise AssertionError(
                f"antipodal set with nonzero odd pair sum at l={odd_nonzero[0]}"
            )
        probe = source if isinstance(source, UnitGroup) else points
        for ell in range(1, 16, 2):  # spot checks, defense in depth
            if not pair_sum_test(probe, ell):
                raise AssertionError(f"antipodal set fails direct odd test l={ell}")
        return StrengthReport(label, n, zero_evens, True)

    odd_members = tuple(
        k for k in range(1, n + 1, 2) if k not in set(odd_nonzero)
    )
    return StrengthReport(label, n, zero_evens, False, odd_members)


def tetra_gap_check(weights, n: int) -> set[int]:
    """Gaps of the numerical semigroup generated by `weights`, up to n."""
    reachable = [False] * (n + 1)
    reachable[0] = True
    for w in weights:
        for k in range(w, n + 1):
            if reachable[k - w]:
                reachable[k] = True
    return {k for k in range(1, n + 1) if not reachable[k]}


def dihedral_even_part(n: int, limit: int) -> set[int]:
    """{2l : 0 < l < n, l odd}, capped at `limit` (cyclic groups give {})."""
    return {2 * ell for ell in range(1, n, 2) if 2 * ell <= limit}


def cyclic_odd_part(n: int, limit: int) -> set[int]:
    """Odd members of T(C_n): all odds for even n, odds below n otherwise."""
    if n % 2 == 0:
        return {k for k in range(1, limit + 1, 2)}
    return {k for k in range(1, min(n - 1, limit) + 1, 2)}


@lru_cache(maxsize=None)
def group_strength(label: str, n: int) -> StrengthReport:
    return harmonic_strength(build_group(label), n)
