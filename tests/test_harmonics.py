from fractions import Fraction
from math import gcd

import pytest

from quatdesign import harmonics
from quatdesign.harmonics import harm_basis, harmonic_projection, laplacian, quotient_monomials

import oracles
from oracles import harm_dim, poly4_add, poly4_eval, poly4_mul, poly4_scale


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
    # x1^2 -> x1^2 - r^2/4 = (3 x1^2 - x2^2 - x3^2 - x4^2) / 4
    p = oracles.as_fractions(harmonic_projection((2, 0, 0, 0)))
    assert p[(2, 0, 0, 0)] == Fraction(3, 4)
    assert p[(0, 2, 0, 0)] == Fraction(-1, 4)
    assert laplacian(p) == {}
    assert harmonic_projection((2, 0, 0, 0)) == (
        {(2, 0, 0, 0): 3, (0, 2, 0, 0): -1, (0, 0, 2, 0): -1, (0, 0, 0, 2): -1}, 4)
    # harmonic monomials are fixed
    assert harmonic_projection((1, 1, 0, 0)) == ({(1, 1, 0, 0): 1}, 1)


@pytest.mark.parametrize("ell", [0, 1, 2, 5, 8, 10])
def test_projection_matches_the_fraction_oracle(ell):
    # every monomial of degree l, a4 > 1 included
    for e1 in range(ell + 1):
        for e2 in range(ell - e1 + 1):
            for e3 in range(ell - e1 - e2 + 1):
                mono = (e1, e2, e3, ell - e1 - e2 - e3)
                got = oracles.as_fractions(harmonic_projection(mono))
                assert got == oracles.harmonic_projection(mono)


def test_projection_tripwire_reads_the_integer_numerator(monkeypatch):
    # a Laplacian that stops one step early leaves r^2 Laplacian^K x^a in the
    # numerator, which is not harmonic
    real = harmonics.laplacian
    calls = []

    def short(p):
        calls.append(p)
        return {} if len(calls) == 2 else real(p)

    monkeypatch.setattr(harmonics, "laplacian", short)
    with pytest.raises(AssertionError, match="non-harmonic"):
        harmonic_projection((4, 0, 0, 0))


@pytest.mark.parametrize("ell", list(range(0, 13)))
def test_basis_counts(ell):
    basis = harm_basis(ell)
    assert len(basis) == ((ell + 1) ** 2 if ell else 1)
    assert harm_dim(ell, 4) == (ell + 1) ** 2


def test_a_short_basis_is_refused(monkeypatch):
    # one quotient monomial fewer projects to 24 harmonics of degree 4, not 25
    full = harmonics.quotient_monomials
    monkeypatch.setattr(harmonics, "quotient_monomials", lambda ell: full(ell)[1:])
    with pytest.raises(AssertionError, match="harmonic basis size 24 != expected 25"):
        harm_basis.__wrapped__(4)


@pytest.mark.parametrize("ell", list(range(0, 13)))
def test_basis_is_integer_numerators_over_a_coprime_den(ell):
    # (P, den) with int coefficients and no common factor; P / den is the
    # Fraction projection of its quotient monomial
    basis = harm_basis(ell)
    for mono, (p, den) in zip(quotient_monomials(ell), basis, strict=True):
        assert type(den) is int and den > 0
        assert all(type(c) is int and c for c in p.values())
        assert gcd(den, *p.values()) == 1
        assert oracles.as_fractions((p, den)) == oracles.harmonic_projection(mono)


@pytest.mark.parametrize("ell", [2, 4, 6, 8])
def test_basis_is_harmonic(ell):
    for p, _ in harm_basis(ell):
        assert laplacian(p) == {}


def test_basis_degree_one():
    polys = harm_basis(1)
    monos = sorted(next(iter(p)) for p, _ in polys)
    assert monos == [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
def test_basis_independent(ell):
    # row-reduce the coefficient matrix over Q
    basis = harm_basis(ell)
    echelon = []
    rank = 0
    for p in map(oracles.as_fractions, basis):
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
