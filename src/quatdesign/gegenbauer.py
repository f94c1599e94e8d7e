"""Exact Gegenbauer polynomials C_l^lambda and the scaled Q_l^(d) family.

A polynomial is a tuple of Fraction coefficients, low degree first, with no
trailing zero; the zero polynomial is ().
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def trim(coeffs) -> tuple:
    """The coefficients as a tuple, without trailing zeros."""
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def poly_mul(p, q) -> tuple:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        if c:
            for j, d in enumerate(q):
                out[i + j] += c * d
    return trim(out)


def poly_divmod(p, q) -> tuple[tuple, tuple]:
    """(quotient, remainder) of p by a nonzero q, exactly."""
    rem, dq = list(p), len(q) - 1
    quot = [Fraction(0)] * max(len(rem) - dq, 0)
    for k in range(len(rem) - 1, dq - 1, -1):
        if rem[k]:
            f = quot[k - dq] = rem[k] / q[-1]
            for j, c in enumerate(q):
                rem[k - dq + j] -= f * c
    return trim(quot), trim(rem)


def horner(p, x):
    """p(x) at a Fraction or a QuadElem x, in the kind of x."""
    acc = 0 * x
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _check_dimension(d: int) -> None:
    if d < 3:
        raise ValueError("scaled Gegenbauer polynomials require d >= 3")


@lru_cache(maxsize=None)
def gegenbauer(ell: int, lam: Fraction) -> tuple:
    """C_l^lambda(s) via the three-term recurrence.

    l C_l = 2(l + lam - 1) s C_{l-1} - (l + 2 lam - 2) C_{l-2},
    C_0 = 1, C_1 = 2 lam s.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("Gegenbauer parameter lambda must be positive")
    if ell < 0:
        raise ValueError("degree must be nonnegative")
    prev2, prev1 = (), (Fraction(1),)
    for k in range(1, ell + 1):
        a, b = Fraction(2 * (k + lam - 1), k), Fraction(k + 2 * lam - 2, k)
        cur = [Fraction(0)] + [a * c for c in prev1]  # the s C_{l-1} term
        for i, c in enumerate(prev2):
            cur[i] -= b * c
        prev2, prev1 = prev1, trim(cur)
    return prev1


@lru_cache(maxsize=None)
def scaled_q(ell: int, d: int) -> tuple:
    """Q_l^(d) = ((d + 2l - 2)/(d - 2)) C_l^{(d-2)/2}; Q_l^(d)(1) = dim Harm_l(R^d)."""
    _check_dimension(d)
    factor = Fraction(d + 2 * ell - 2, d - 2)
    return tuple(c * factor for c in gegenbauer(ell, Fraction(d - 2, 2)))


def gegenbauer_expand(F, d: int) -> list[Fraction]:
    """Coefficients f_0..f_r with F = sum f_l Q_l^(d), by back-substitution.

    Each Q_l has exact degree l, so the change of basis is triangular and the
    expansion is unique; no integration is involved.
    """
    _check_dimension(d)
    rem = trim(F)
    out = [Fraction(0)] * len(rem)
    while rem:
        k = len(rem) - 1
        qk = scaled_q(k, d)
        f = out[k] = rem[-1] / qk[-1]
        rem = trim(r - f * c for r, c in zip(rem, qk))
        if len(rem) > k:
            raise AssertionError("triangular solve failed to reduce degree")
    return out
