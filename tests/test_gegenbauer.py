from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from quatdesign import gegenbauer as gegenbauer_module
from quatdesign.exactnum import golden_elem, rat, sqrt2_elem
from quatdesign.gegenbauer import (
    gegenbauer,
    gegenbauer_expand,
    horner,
    poly_divmod,
    poly_mul,
    scaled_q,
    trim,
)

from oracles import (
    UniPoly,
    chebyshev_u_value,
    gegenbauer_unipoly,
    harm_dim,
    rational_tuple,
    scaled_q_unipoly,
)


def gegenbauer_value_at_one(ell: int, lam: Fraction) -> Fraction:
    """C_l^lambda(1) = 2lam (2lam+1) ... (2lam+l-1) / l! (test oracle)."""
    num = Fraction(1)
    for k in range(ell):
        num *= 2 * lam + k
    for k in range(1, ell + 1):
        num /= k
    return num


def assemble_from_expansion(coeffs, d: int) -> UniPoly:
    """sum_l f_l Q_l^(d), the inverse of gegenbauer_expand, on UniPoly."""
    total = UniPoly.zero()
    for ell, f in enumerate(coeffs):
        if f:
            total = total + UniPoly(scaled_q(ell, d)) * f
    return total


def generating_function_coeffs(lam: Fraction, order: int):
    """Taylor coefficients of (1 - 2su + u^2)^(-lam) in u, as polynomials in s.

    Independent oracle: expand via the generalized binomial series
    (1 - w)^(-lam) = sum_k C(lam + k - 1, k) w^k with w = 2su - u^2,
    entirely in exact rational arithmetic (lists over u, UniPoly over s).
    """
    w = [UniPoly.zero(), UniPoly([0, 2]), UniPoly([-1])]  # w = 2su - u^2
    w_k = [UniPoly([1])] + [UniPoly.zero()] * order
    total = [UniPoly.zero() for _ in range(order + 1)]
    total[0] = UniPoly([1])
    coeff = Fraction(1)
    for k in range(1, order + 1):
        coeff = coeff * (lam + k - 1) / k
        new = [UniPoly.zero() for _ in range(order + 1)]
        for i, ci in enumerate(w_k):
            if ci.is_zero():
                continue
            for j, cj in enumerate(w):
                if i + j <= order and not cj.is_zero():
                    new[i + j] = new[i + j] + ci * cj
        w_k = new
        for idx in range(order + 1):
            if not w_k[idx].is_zero():
                total[idx] = total[idx] + w_k[idx] * coeff
    return total


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1), Fraction(3, 2)])
def test_recurrence_matches_generating_function(lam):
    oracle = generating_function_coeffs(lam, 12)
    for ell in range(13):
        assert gegenbauer(ell, lam) == rational_tuple(oracle[ell])


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5)])
def test_recurrence_matches_the_unipoly_oracle(lam):
    for ell in range(25):
        assert gegenbauer(ell, lam) == rational_tuple(gegenbauer_unipoly(ell, lam))


@pytest.mark.parametrize("d", [3, 4, 5])
def test_scaled_q_matches_the_unipoly_oracle(d):
    for ell in range(25):
        got = scaled_q(ell, d)
        assert got == rational_tuple(scaled_q_unipoly(ell, d))
        assert got[-1] and all(isinstance(c, Fraction) for c in got)


def test_degree_two_closed_form():
    for lam in (Fraction(1, 2), Fraction(1), Fraction(5, 2)):
        assert gegenbauer(2, lam) == (-lam, 0, 2 * lam * (1 + lam))


def test_value_at_one():
    for ell in range(9):
        for lam in (Fraction(1, 2), Fraction(1)):
            poly = gegenbauer(ell, lam)
            assert horner(poly, Fraction(1)) == gegenbauer_value_at_one(ell, lam)


def test_lambda_must_be_positive():
    with pytest.raises(ValueError):
        gegenbauer(3, Fraction(0))


def test_scaled_q_closed_forms():
    for d in (3, 4, 5):
        got = scaled_q(2, d)
        assert got == (Fraction(-(d + 2), 2), 0, Fraction(d * (d + 2), 2))
    assert scaled_q(4, 4) == (5, 0, -60, 0, 80)
    assert scaled_q(6, 4) == (-7, 0, 168, 0, -560, 0, 448)
    with pytest.raises(ValueError):
        scaled_q(2, 2)


def test_scaled_q_dimension_at_one():
    for ell in range(11):
        assert horner(scaled_q(ell, 4), Fraction(1)) == (ell + 1) ** 2
        assert harm_dim(ell, 4) == (ell + 1) ** 2
    assert harm_dim(8, 4) == comb(11, 8) - comb(9, 6)


def test_expand_basis_element():
    coeffs = gegenbauer_expand(scaled_q(3, 4), 4)
    assert coeffs[3] == 1
    assert all(c == 0 for k, c in enumerate(coeffs) if k != 3)


def test_expand_s_squared():
    coeffs = gegenbauer_expand((0, 0, 1), 4)
    assert coeffs[0] == Fraction(1, 4)
    assert coeffs[2] == Fraction(1, 12)
    assert coeffs[1] == 0


def weighted_moment(k: int) -> Fraction:
    """integral of s^k (1-s^2)^(1/2) over [-1,1], divided by pi."""
    if k % 2:
        return Fraction(0)
    n = k // 2
    return Fraction(comb(2 * n, n), 4**n * (n + 1) * 2)


def weighted_integral(p) -> Fraction:
    return sum((c * weighted_moment(k) for k, c in enumerate(p)), Fraction(0))


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5, 6])
def test_expand_against_integral_oracle(degree):
    # f_l = int F Q_l w / int Q_l^2 w with weight (1-s^2)^(1/2)
    f = tuple(Fraction(k + 1, 3) for k in range(degree + 1))
    computed = gegenbauer_expand(f, 4)
    for ell in range(degree + 1):
        q = scaled_q(ell, 4)
        oracle = weighted_integral(poly_mul(f, q)) / weighted_integral(poly_mul(q, q))
        assert computed[ell] == oracle


@given(
    st.lists(
        st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=9),
        min_size=1,
        max_size=21,
    )
)
@settings(max_examples=40, deadline=None)
def test_expand_round_trip(coeffs):
    expansion = gegenbauer_expand(coeffs, 4)
    assert assemble_from_expansion(expansion, 4) == UniPoly(coeffs)
    assert len(expansion) == len(trim(coeffs))


def test_multiplication_recurrence_consistency():
    # s * Q_l lies in the span of Q_{l-1} and Q_{l+1} (orthogonality check)
    for ell in range(1, 9):
        coeffs = gegenbauer_expand(poly_mul((0, 1), scaled_q(ell, 4)), 4)
        support = {k for k, c in enumerate(coeffs) if c != 0}
        assert support <= {ell - 1, ell + 1}


def test_chebyshev_evaluation_matches_polynomial():
    for ell in range(12):
        poly = gegenbauer(ell, Fraction(1))
        for val in (rat(0), rat(Fraction(1, 2)), rat(-1)):
            assert chebyshev_u_value(ell, val) == horner(poly, val)


def test_expansion_checks_the_dimension_first():
    # the zero polynomial has no coefficient to divide, and is still rejected
    for F in ((), (0,), (1,)):
        for d in (2, -7):
            with pytest.raises(ValueError, match="d >= 3"):
                gegenbauer_expand(F, d)
    assert gegenbauer_expand((0, 0), 4) == []


def test_polynomial_helpers_against_unipoly():
    p = (Fraction(1, 3), 0, Fraction(-2), Fraction(5, 7))
    q = (Fraction(-1, 2), Fraction(1))
    assert trim((1, 0, 0)) == (1,) and trim((0, 0)) == ()
    assert poly_mul(p, q) == rational_tuple(UniPoly(p) * UniPoly(q))
    assert poly_mul(p, ()) == ()
    quot, rem = poly_divmod(p, q)
    want_quot, want_rem = UniPoly(p).divmod(UniPoly(q))
    assert (quot, rem) == (rational_tuple(want_quot), rational_tuple(want_rem))
    assert poly_divmod(poly_mul(p, q), q) == (p, ())
    for x in (rat(Fraction(3, 4)), sqrt2_elem(Fraction(1, 2), Fraction(-1, 3)),
              golden_elem(0, Fraction(1, 2))):
        assert horner(p, x) == UniPoly(p)(x)
        assert horner((), x) == rat(0)
    assert horner(p, Fraction(3, 4)) == UniPoly(p)(rat(Fraction(3, 4))).a


def test_a_solve_that_keeps_the_degree_is_refused(monkeypatch):
    # the first basis polynomial handed out is Q_3 in place of Q_2: odd, it
    # has no s^2 term to cancel the one of F = s^2; the later ones are right,
    # so without the check the solve would go on and return
    calls = []

    def one_wrong(ell, d):
        calls.append(ell)
        return scaled_q(ell + (len(calls) == 1), d)

    monkeypatch.setattr(gegenbauer_module, "scaled_q", one_wrong)
    with pytest.raises(AssertionError, match="failed to reduce degree"):
        gegenbauer_expand((0, 0, Fraction(1)), 4)
    assert calls == [2]
