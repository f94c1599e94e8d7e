"""Exact harmonic polynomials on R^4.

Homogeneous 4-variable polynomials are sparse dicts {(e1,e2,e3,e4): int}.
The harmonic basis avoids any nullspace computation: for a monomial x^a of
degree l, the harmonic component of the decomposition Hom_l = Harm_l (+)
r^2 Hom_{l-2} is given by the exact projection

    H(x^a) = sum_k (-1)^k / (4^k k! l(l-1)...(l-k+1)) r^{2k} Laplacian^k x^a,

and { H(x^a) : deg a = l, a_4 <= 1 } is a basis of Harm_l(R^4): the count is
C(l+2,2) + C(l+1,2) = (l+1)^2, and a combination of monomials with x4-degree
at most one can only be divisible by r^2 if it vanishes.  A harmonic is held
as (P, den), its integer numerator and denominator with no common factor:
H = P / den.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

Monomial = tuple[int, int, int, int]
Poly4 = dict  # Monomial -> int


def laplacian(p: Poly4) -> Poly4:
    out: Poly4 = {}
    for m, c in p.items():
        for axis in range(4):
            e = m[axis]
            if e >= 2:
                key = tuple(e - 2 if k == axis else m[k] for k in range(4))
                nc = out.get(key, 0) + c * e * (e - 1)
                if nc:
                    out[key] = nc
                else:
                    out.pop(key, None)
    return out


def _times_r2(p: dict) -> dict:
    """r^2 p for r^2 = x1^2 + x2^2 + x3^2 + x4^2."""
    out: dict = {}
    for m, c in p.items():
        for axis in range(4):
            key = tuple(e + 2 if k == axis else e for k, e in enumerate(m))
            out[key] = out.get(key, 0) + c
    return out


def harmonic_projection(mono: Monomial) -> tuple[Poly4, int]:
    """Harmonic component of a degree-l monomial (d = 4), as (P, den).

    With c_k the k-th coefficient above and K the last k with a nonzero
    Laplacian^k x^a, den = 1/|c_K| clears every c_k: den c_(k-1) =
    -4 k (l-k+1) den c_k.  The sum is taken on integers, by Horner's rule in
    r^2, and P and den are divided by their gcd at the end.
    """
    ell = sum(mono)
    laps = [{mono: 1}]
    while True:
        lap = laplacian(laps[-1])
        if not lap:
            break
        laps.append(lap)
    top = len(laps) - 1
    weight = (-1) ** top  # den c_k, from k = top down
    numerator: dict = {}
    den = 1
    for k in range(top, -1, -1):
        numerator = _times_r2(numerator)
        for m, c in laps[k].items():
            numerator[m] = numerator.get(m, 0) + weight * c
        if k:
            weight *= -4 * k * (ell - k + 1)
            den *= 4 * k * (ell - k + 1)
    numerator = {m: c for m, c in numerator.items() if c}
    if laplacian(numerator):
        raise AssertionError("projection produced a non-harmonic")
    common = gcd(den, *numerator.values())
    return {m: c // common for m, c in numerator.items()}, den // common


@lru_cache(maxsize=None)
def quotient_monomials(ell: int) -> tuple:
    """The degree-l monomials with a_4 <= 1, a basis of Hom_l mod r^2 Hom_(l-2)."""
    return tuple(
        (e1, e2, ell - e4 - e1 - e2, e4)
        for e4 in (0, 1) if e4 <= ell
        for e1 in range(ell - e4 + 1)
        for e2 in range(ell - e4 - e1 + 1)
    )


@lru_cache(maxsize=None)
def harm_basis(ell: int) -> tuple:
    """Basis of Harm_l(R^4): (l+1)^2 independent rational harmonics, as a
    tuple of (P, den) pairs (read-only by convention)."""
    if ell < 0:
        raise ValueError("degree must be nonnegative")
    polys = [harmonic_projection(mono) for mono in quotient_monomials(ell)]
    expected = (ell + 1) ** 2 if ell >= 1 else 1
    if len(polys) != expected:
        raise AssertionError(
            f"harmonic basis size {len(polys)} != expected {expected}"
        )
    return tuple(polys)
