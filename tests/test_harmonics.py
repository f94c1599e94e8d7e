from fractions import Fraction

import pytest

from quatdesign.gegenbauer import harm_dim
from quatdesign.harmonics import (
    harm_basis,
    harmonic_projection,
    laplacian,
    poly4_add,
    poly4_eval,
    poly4_mul,
    poly4_scale,
)


def test_poly4_arithmetic():
    p = {(1, 0, 0, 0): Fraction(2)}
    q = {(0, 1, 0, 0): Fraction(3)}
    assert poly4_mul(p, q) == {(1, 1, 0, 0): Fraction(6)}
    assert poly4_add(p, poly4_scale(p, -1)) == {}
    assert poly4_eval({(2, 1, 0, 0): Fraction(1, 2)}, (2, 3, 0, 0)) == 6


def test_laplacian():
    r2 = {(2, 0, 0, 0): Fraction(1), (0, 2, 0, 0): Fraction(1),
          (0, 0, 2, 0): Fraction(1), (0, 0, 0, 2): Fraction(1)}
    assert laplacian(r2) == {(0, 0, 0, 0): Fraction(8)}
    assert laplacian({(1, 1, 0, 0): Fraction(5)}) == {}


def test_projection_examples():
    # x1^2 -> x1^2 - r^2/4
    p = harmonic_projection((2, 0, 0, 0))
    assert p[(2, 0, 0, 0)] == Fraction(3, 4)
    assert p[(0, 2, 0, 0)] == Fraction(-1, 4)
    assert laplacian(p) == {}
    # harmonic monomials are fixed
    assert harmonic_projection((1, 1, 0, 0)) == {(1, 1, 0, 0): Fraction(1)}


@pytest.mark.parametrize("ell", list(range(0, 13)))
def test_basis_counts(ell):
    basis = harm_basis(ell)
    assert len(basis) == ((ell + 1) ** 2 if ell else 1)
    assert harm_dim(ell, 4) == (ell + 1) ** 2


@pytest.mark.parametrize("ell", [2, 4, 6, 8])
def test_basis_is_harmonic(ell):
    for p in harm_basis(ell).polynomials:
        assert laplacian(p) == {}


def test_basis_degree_one():
    polys = harm_basis(1).polynomials
    monos = sorted(next(iter(p)) for p in polys)
    assert monos == [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
def test_basis_independent(ell):
    # row-reduce the coefficient matrix over Q
    basis = harm_basis(ell)
    echelon = []
    rank = 0
    for p in basis.polynomials:
        cur = dict(p)
        for pivot, vec in echelon:
            c = cur.get(pivot)
            if c is None:
                continue
            for m, v in vec.items():
                nv = cur.get(m, Fraction(0)) - c * v
                if nv:
                    cur[m] = nv
                else:
                    cur.pop(m, None)
        if cur:
            pivot = min(cur)
            inv = 1 / cur[pivot]
            echelon.append((pivot, {m: v * inv for m, v in cur.items()}))
            rank += 1
    assert rank == (ell + 1) ** 2
