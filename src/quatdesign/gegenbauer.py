"""Exact Gegenbauer polynomials C_l^lambda and the scaled Q_l^(d) family."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .unipoly import UniPoly


@lru_cache(maxsize=None)
def gegenbauer(ell: int, lam: Fraction) -> UniPoly:
    """C_l^lambda(s) via the three-term recurrence.

    l C_l = 2(l + lam - 1) s C_{l-1} - (l + 2 lam - 2) C_{l-2},
    C_0 = 1, C_1 = 2 lam s.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("Gegenbauer parameter lambda must be positive")
    if ell < 0:
        raise ValueError("degree must be nonnegative")
    if ell == 0:
        return UniPoly([1])
    if ell == 1:
        return UniPoly([0, 2 * lam])
    s = UniPoly([0, 1])
    prev2, prev1 = UniPoly([1]), UniPoly([0, 2 * lam])
    for k in range(2, ell + 1):
        cur = s * prev1 * Fraction(2 * (k + lam - 1), k) - prev2 * Fraction(
            k + 2 * lam - 2, k
        )
        prev2, prev1 = prev1, cur
    return prev1


@lru_cache(maxsize=None)
def scaled_q(ell: int, d: int) -> UniPoly:
    """Q_l^(d) = ((d + 2l - 2)/(d - 2)) C_l^{(d-2)/2}; Q_l^(d)(1) = dim Harm_l(R^d)."""
    if d < 3:
        raise ValueError("scaled Gegenbauer polynomials require d >= 3")
    lam = Fraction(d - 2, 2)
    return gegenbauer(ell, lam) * Fraction(d + 2 * ell - 2, d - 2)


def gegenbauer_expand(F: UniPoly, d: int) -> list[Fraction]:
    """Coefficients f_0..f_r with F = sum f_l Q_l^(d), by back-substitution.

    Each Q_l has exact degree l, so the change of basis is triangular and the
    expansion is unique; no integration is involved.
    """
    if not F.is_rational():
        raise ValueError("Gegenbauer expansion requires rational coefficients")
    rem = F
    deg = rem.degree
    if rem.is_zero():
        return []
    out = [Fraction(0)] * (int(deg) + 1)
    while not rem.is_zero():
        k = int(rem.degree)
        qk = scaled_q(k, d)
        f = rem.coeffs[-1].a / qk.coeffs[-1].a
        out[k] = f
        rem = rem - qk * f
        if not rem.is_zero() and rem.degree >= k:
            raise AssertionError("triangular solve failed to reduce degree")
    return out

