"""Reference implementations shared by several test modules."""

from fractions import Fraction
from math import comb

from quatdesign.exactnum import QuadElem, rat


def harm_dim(ell: int, d: int) -> int:
    """dim Harm_l(R^d) = C(l+d-1, l) - C(l+d-3, l-2)."""
    if ell == 0:
        return 1
    if ell == 1:
        return d
    return comb(ell + d - 1, ell) - comb(ell + d - 3, ell - 2)


def poly4_eval(p, point) -> Fraction:
    """Evaluate a sparse 4-variable polynomial {exponents: coefficient}
    at a rational 4-vector."""
    total = Fraction(0)
    for (e1, e2, e3, e4), c in p.items():
        total += c * point[0] ** e1 * point[1] ** e2 * point[2] ** e3 * point[3] ** e4
    return total


def chebyshev_u_value(ell: int, s: QuadElem) -> QuadElem:
    """C_l^1(s) = U_l(s), evaluated exactly at a QuadElem point, by the
    recurrence from degree 0."""
    s = QuadElem.coerce(s)
    if ell == 0:
        return rat(1)
    prev2, prev1 = rat(1), s + s
    for _ in range(2, ell + 1):
        prev2, prev1 = prev1, (s + s) * prev1 - prev2
    return prev1
