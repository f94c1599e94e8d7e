"""Harmonic strength, two independent ways.

Route 1 (direct): the pair-sum zero test over the Gram pass,
    sum_{x,y in X} C_l^1(<x,y>) = 0  iff  l in T(X)   (points on S^3).

Route 2 (invariant theory, groups only): l in T(G) iff the coefficient of
u^l vanishes in the Molien series

    Psi_G(u) = (1/|G|) sum_{eps in G} 1/(1 - 2 eps_1 u + u^2),

whose per-element reciprocals are Chebyshev U_k(eps_1) generating functions.
The sum runs over first-coordinate classes in `class_sum_series`, which
also builds the harmonic Molien series of theta.py.  Both routes are
exact; their agreement is part of the acceptance suite.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache

from .exactnum import PAIR_MUL, QuadElem
from .groups import Gram, UnitGroup, build_group, gram_of, parse_family


class StrengthReport(namedtuple("StrengthReport", (
    "group_label",
    "max_degree",
    "even_members",
    "all_odd_in",
    "odd_members",  # set only when not antipodal
), defaults=(None,))):
    __slots__ = ()

    def to_json(self):
        return {
            "label": self.group_label,
            "max_degree": self.max_degree,
            "even_members": list(self.even_members),
            "all_odd_in": self.all_odd_in,
            "odd_members": None if self.odd_members is None else list(self.odd_members),
        }


def class_sum_series(tag: str, classes, order: int, num, n: int) -> tuple[int, ...]:
    """(1/order) sum_classes count * num(u)/p(u) to u^n, as dimensions.

    `classes` holds (p, count) with p = ((1, 0), p_1, ..., p_d) the
    coefficients of a polynomial shared by `count` group elements, each an
    integer pair (a, b) for a + b rho in the field `tag`; `num` holds the
    integer coefficients of the numerator.  Each quotient f = num/p follows
    from p * f = num: f_k = num_k - (p_1 f_(k-1) + ... + p_d f_(k-d)), on
    integer pairs.  Every coefficient must come out a nonnegative integer.
    """
    if n < 0:
        raise IndexError(f"series to u^{n}: degrees start at 0")
    pmul = PAIR_MUL[tag]
    sums = [(0, 0)] * (n + 1)
    for p, count in classes:
        # the nonzero p_j in rising j
        steps = [(j, c) for j, c in enumerate(p) if j and c != (0, 0)]
        f = []
        for k in range(n + 1):
            a, b = num[k] if k < len(num) else 0, 0
            for j, c in steps:
                if j > k:
                    break
                ta, tb = pmul(*c, *f[k - j])
                a, b = a - ta, b - tb
            f.append((a, b))
            sums[k] = (sums[k][0] + a * count, sums[k][1] + b * count)
    out = []
    for k, (a, b) in enumerate(sums):
        if b:
            raise AssertionError(
                f"Molien coefficient at u^{k} is irrational: {QuadElem(tag, a, b)}"
            )
        q = Fraction(a, order)
        if q.denominator != 1 or q < 0:
            raise AssertionError(f"Molien coefficient at u^{k} not a dimension: {q}")
        out.append(int(q))
    return tuple(out)


def molien_series(group: UnitGroup, n: int) -> tuple[int, ...]:
    """Psi_G(u) to u^n: 1/(1 - x u + u^2) summed over the classes of
    x = 2 eps_1, an integer pair read off the group's D eps_1 (ValueError
    when x is not in Z[rho])."""
    half = group.scale // 2  # D eps_1 = half * x, D being even
    classes = Counter(x[0] for x in group.pairs)
    if any(a % half or b % half for a, b in classes):
        raise ValueError(f"2 eps_1 is not integral for every element eps of {group.label}")
    return class_sum_series(
        group.tag,
        [(((1, 0), (-(a // half), -(b // half)), (1, 0)), count)
         for (a, b), count in classes.items()],
        len(group), (1,), n,
    )


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
    family, m = parse_family(label) or (None, None)
    if label in _CLOSED_FORM:
        num, den = _CLOSED_FORM[label]
    elif family == "D2n":
        num, den = (2 * m + 2,), (4, 2 * m)
    elif family == "C":
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


def _pair_totals(gram: Gram, ells) -> dict[int, tuple[int, int]]:
    """D^(2l) sum_{x,y} U_l(<x,y>) on integer pairs, for each l in ells.

    With g = D^2 <x,y> the pair the Gram pass counts, V_k = D^(2k) U_k(s)
    obeys V_0 = 1, V_1 = 2g, V_(k+1) = 2g V_k - D^4 V_(k-1); one recurrence
    per distinct g runs to the largest l.
    """
    totals = dict.fromkeys(ells, (0, 0))
    if any(ell < 0 for ell in totals):
        raise IndexError(f"pair sum at degree {min(totals)}: degrees start at 0")
    top = max(totals, default=0)
    pmul = PAIR_MUL[gram.tag]
    d4 = gram.unit[0] ** 2
    for (g0, g1), count in gram.pair_counts().items():
        a, b = g0 + g0, g1 + g1
        v = [(1, 0), (a, b)]
        while len(v) <= top:
            (p0, p1), (q0, q1) = v[-1], v[-2]
            t0, t1 = pmul(a, b, p0, p1)
            v.append((t0 - d4 * q0, t1 - d4 * q1))
        for ell, (s0, s1) in totals.items():
            totals[ell] = (s0 + v[ell][0] * count, s1 + v[ell][1] * count)
    return totals


def pair_sums(gram: Gram, ells) -> dict[int, QuadElem]:
    """sum_{x,y} C_l^1(<x,y>) for each l in ells, over one Gram pass;
    C_l^1 = U_l.  IndexError for a negative degree."""
    scale = gram.unit[0]
    return {ell: QuadElem(gram.tag, Fraction(a, scale ** ell), Fraction(b, scale ** ell))
            for ell, (a, b) in _pair_totals(gram, ells).items()}


def pair_sum_test(points, ell: int) -> bool:
    """True iff l lies in the harmonic strength of X (Gegenbauer pair test);
    ValueError unless every point has unit norm."""
    return _pair_totals(gram_of(points), (ell,))[ell] == (0, 0)


def pair_sum_tests_bulk(points, ells) -> dict[int, bool]:
    """pair_sum_test for several degrees over one Gram pass."""
    return {ell: t == (0, 0) for ell, t in _pair_totals(gram_of(points), ells).items()}


def harmonic_strength(source, n: int) -> StrengthReport:
    """StrengthReport for a UnitGroup (Molien route) or point list (pair sums).

    Even members come from exact zero coefficients; odd degrees are certified
    by the antipodality argument, with direct pair-sum tests for l <= 15 run
    as defense in depth.  For non-antipodal inputs the odd members found by
    direct testing are reported explicitly.  A point list must be nonempty
    and lie on the unit sphere.
    """
    if isinstance(source, UnitGroup):
        label, gram = source.label, source.gram
        vanishes = [c == 0 for c in molien_series(source, n)]
    else:
        label = "points"
        points = list(source)
        if not points:
            raise ValueError("the strength of an empty point set is not defined")
        # one scan serves the degrees up to n, the spot checks below and
        # antipodality, and checks that every point has unit norm
        gram = gram_of(points)
        vanishes = {k: t == (0, 0) for k, t in _pair_totals(gram, range(max(n, 15) + 1)).items()}
    zero_evens = tuple(k for k in range(2, n + 1, 2) if vanishes[k])
    odd_nonzero = [k for k in range(1, n + 1, 2) if not vanishes[k]]

    if gram.antipodal():
        if odd_nonzero:
            raise AssertionError(
                f"antipodal set with nonzero odd pair sum at l={odd_nonzero[0]}"
            )
        for ell in range(1, 16, 2):  # spot checks, defense in depth
            if isinstance(source, UnitGroup):
                passed = pair_sum_test(source, ell)
            else:
                passed = vanishes[ell]
            if not passed:
                raise AssertionError(f"antipodal set fails direct odd test l={ell}")
        return StrengthReport(label, n, zero_evens, True)

    odd_members = tuple(
        k for k in range(1, n + 1, 2) if k not in set(odd_nonzero)
    )
    return StrengthReport(label, n, zero_evens, False, odd_members)


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
