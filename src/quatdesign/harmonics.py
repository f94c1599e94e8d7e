"""Exact harmonic polynomials on R^4.

Homogeneous 4-variable polynomials are sparse dicts {(e1,e2,e3,e4): Fraction}.
The harmonic basis avoids any nullspace computation: for a monomial x^a of
degree l, the harmonic component of the decomposition Hom_l = Harm_l (+)
r^2 Hom_{l-2} is given by the exact projection

    H(x^a) = sum_k (-1)^k / (4^k k! l(l-1)...(l-k+1)) r^{2k} Laplacian^k x^a,

and { H(x^a) : deg a = l, a_4 <= 1 } is a basis of Harm_l(R^4): the count is
C(l+2,2) + C(l+1,2) = (l+1)^2, and a combination of monomials with x4-degree
at most one can only be divisible by r^2 if it vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

Monomial = tuple[int, int, int, int]
Poly4 = dict  # Monomial -> Fraction


def poly4_add(p: Poly4, q: Poly4) -> Poly4:
    out = dict(p)
    for m, c in q.items():
        nc = out.get(m, Fraction(0)) + c
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)
    return out


def poly4_scale(p: Poly4, c) -> Poly4:
    c = Fraction(c)
    if not c:
        return {}
    return {m: v * c for m, v in p.items()}


def poly4_mul(p: Poly4, q: Poly4) -> Poly4:
    out: Poly4 = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
            nc = out.get(m, Fraction(0)) + c1 * c2
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    return out


def laplacian(p: Poly4) -> Poly4:
    out: Poly4 = {}
    for m, c in p.items():
        for axis in range(4):
            e = m[axis]
            if e >= 2:
                key = tuple(e - 2 if k == axis else m[k] for k in range(4))
                nc = out.get(key, Fraction(0)) + c * e * (e - 1)
                if nc:
                    out[key] = nc
                else:
                    out.pop(key, None)
    return out


def poly4_eval(p: Poly4, point) -> Fraction:
    """Evaluate at a rational 4-vector (exact)."""
    total = Fraction(0)
    for (e1, e2, e3, e4), c in p.items():
        total += c * point[0] ** e1 * point[1] ** e2 * point[2] ** e3 * point[3] ** e4
    return total


_R2: Poly4 = {
    (2, 0, 0, 0): Fraction(1),
    (0, 2, 0, 0): Fraction(1),
    (0, 0, 2, 0): Fraction(1),
    (0, 0, 0, 2): Fraction(1),
}


def harmonic_projection(mono: Monomial) -> Poly4:
    """Harmonic component of a degree-l monomial (d = 4)."""
    ell = sum(mono)
    term: Poly4 = {mono: Fraction(1)}
    out: Poly4 = dict(term)
    r2k: Poly4 = {(0, 0, 0, 0): Fraction(1)}
    coeff = Fraction(1)
    k = 0
    lap = term
    while True:
        lap = laplacian(lap)
        if not lap:
            break
        k += 1
        r2k = poly4_mul(r2k, _R2)
        coeff = coeff * Fraction(-1, 4 * k * (ell - k + 1))
        out = poly4_add(out, poly4_scale(poly4_mul(r2k, lap), coeff))
    return out


@dataclass(frozen=True)
class HarmonicBasis:
    degree: int
    polynomials: tuple  # tuple of Poly4 (read-only by convention)

    def __len__(self):
        return len(self.polynomials)


@lru_cache(maxsize=None)
def harm_basis(ell: int) -> HarmonicBasis:
    """Basis of Harm_l(R^4): (l+1)^2 independent rational harmonics."""
    if ell < 0:
        raise ValueError("degree must be nonnegative")
    polys = []
    for e4 in (0, 1):
        if e4 > ell:
            continue
        rest = ell - e4
        for e1 in range(rest + 1):
            for e2 in range(rest - e1 + 1):
                e3 = rest - e1 - e2
                p = harmonic_projection((e1, e2, e3, e4))
                if laplacian(p):
                    raise AssertionError("projection produced a non-harmonic")
                polys.append(p)
    expected = (ell + 1) ** 2 if ell >= 1 else 1
    if len(polys) != expected:
        raise AssertionError(
            f"harmonic basis size {len(polys)} != expected {expected}"
        )
    return HarmonicBasis(ell, tuple(polys))
