from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quatdesign.exactnum import rat, sqrt2_elem
from quatdesign.groups import alpha, build_group, omega, zeta
from quatdesign.quat import (
    Matrix4,
    NonUnitQuaternion,
    Quaternion,
    conj,
    inner,
    norm,
    qmul,
    scaled_pairs,
    su2_factor,
    to_matrix,
)
from quatdesign.unipoly import UniPoly

I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)
ONE = Quaternion(1, 0, 0, 0)

small = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6)
quats = st.builds(Quaternion, small, small, small, small)


def test_defining_relations():
    assert qmul(I, J) == K
    assert qmul(J, I) == -K
    assert qmul(I, I) == -ONE


def test_unit_relations():
    w = omega()
    assert w ** 3 == ONE
    assert alpha() ** 4 == -ONE
    assert zeta() ** 5 == -ONE


def test_norm_and_inner_examples():
    assert norm(omega()) == rat(1)
    assert inner(ONE, alpha()) == sqrt2_elem(0, Fraction(1, 2))
    x = Quaternion(1, 2, 3, 4)
    assert conj(conj(x)) == x
    assert norm(x) == inner(x, x)
    assert norm(x) == qmul(x, conj(x)).x1


@given(quats, quats)
@settings(max_examples=50, deadline=None)
def test_norm_multiplicative(x, y):
    assert norm(qmul(x, y)) == norm(x) * norm(y)


def test_inner_via_left_translation():
    # <x, y> = <1, conj(x) y> for unit x
    g = build_group("2O")
    for x in g.elements[:6]:
        for y in g.elements[10:16]:
            assert inner(x, y) == qmul(conj(x), y).x1


def test_to_matrix_identity_and_i():
    assert to_matrix(ONE) == Matrix4.identity()
    m = to_matrix(I)
    assert m == Matrix4([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])


def test_to_matrix_is_left_multiplication():
    w = omega()
    m = to_matrix(w)
    y = Quaternion(1, 2, 3, 4)
    assert m.apply_row(y.coords) == qmul(w, y).coords


def test_to_matrix_orthogonal_on_2O_sample():
    g = build_group("2O")
    for x in g.elements[::3][:20]:
        m = to_matrix(x)
        assert m * m.transpose() == Matrix4.identity()


def test_to_matrix_homomorphism_on_2T():
    # row-vector convention: v.M_{xy} = (v.M_y).M_x, i.e. M_{xy} = M_y M_x
    g = build_group("2T")
    mats = {x: to_matrix(x) for x in g}
    for x in g:
        for y in g:
            assert mats[qmul(x, y)] == mats[y] * mats[x]


def test_to_matrix_rejects_non_unit():
    with pytest.raises(NonUnitQuaternion):
        to_matrix(Quaternion(1, 1, 0, 0))
    with pytest.raises(NonUnitQuaternion):
        su2_factor(Quaternion(2, 0, 0, 0))


def test_su2_factor_examples():
    assert su2_factor(ONE) == UniPoly([1, -2, 1])
    assert su2_factor(I) == UniPoly([1, 0, 1])
    assert su2_factor(omega()) == UniPoly([1, 1, 1])


def test_quaternion_json_round_trip():
    x = zeta()
    assert Quaternion.from_json(x.to_json()) == x


@pytest.mark.parametrize("label", ["2T", "2O", "2I"])
def test_det_factors_as_su2_square_on_every_element(label):
    # det(I - u M_eps) = (1 - 2 eps_1 u + u^2)^2: the harmonic Molien series
    # relies on it to sum over first-coordinate classes
    for eps in build_group(label):
        factor = su2_factor(eps)
        assert to_matrix(eps).det_poly_i_minus_u() == factor * factor


def test_scaled_pairs_checks_integrality():
    assert scaled_pairs(omega().coords, 2) == ((-1, 0), (1, 0), (1, 0), (1, 0))
    assert scaled_pairs(alpha().coords, 2) == ((0, 1), (0, 1), (0, 0), (0, 0))
    with pytest.raises(ValueError):
        scaled_pairs(omega().coords, 1)
    with pytest.raises(ValueError):
        scaled_pairs((sqrt2_elem(0, Fraction(1, 4)),), 2)
