from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from quatdesign import theta
from quatdesign.exactnum import QuadElem, rat, sqrt2_elem
from quatdesign.groups import alpha, build_group, omega, zeta
from quatdesign.quat import (
    Matrix4,
    NonUnitQuaternion,
    Quaternion,
    char_coeffs_pairs,
    conj,
    inner,
    norm,
    qmul,
    scaled_pairs,
    to_matrix,
)

from oracles import UniPoly

I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)
ONE = Quaternion(1, 0, 0, 0)


def su2_factor(x: Quaternion) -> UniPoly:
    """det(I - u C_x) = 1 - 2 x1 u + u^2 for unit x."""
    if not x.is_unit():
        raise NonUnitQuaternion("su2_factor requires a unit quaternion")
    return UniPoly([1, rat(-2) * x.x1, 1])


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


IDENTITY = Matrix4([[1 if i == j else 0 for j in range(4)] for i in range(4)])


def matmul(a: Matrix4, b: Matrix4) -> Matrix4:
    return Matrix4([
        [sum((a.rows[i][k] * b.rows[k][j] for k in range(4)), rat(0)) for j in range(4)]
        for i in range(4)
    ])


def transpose(m: Matrix4) -> Matrix4:
    return Matrix4([[m.rows[j][i] for j in range(4)] for i in range(4)])


def apply_row(m: Matrix4, v) -> tuple[QuadElem, ...]:
    """Row vector times matrix: v . M."""
    return tuple(sum((v[k] * m.rows[k][j] for k in range(4)), rat(0)) for j in range(4))


def test_to_matrix_identity_and_i():
    assert to_matrix(ONE) == IDENTITY
    m = to_matrix(I)
    assert m == Matrix4([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])


def test_to_matrix_is_left_multiplication():
    w = omega()
    m = to_matrix(w)
    y = Quaternion(1, 2, 3, 4)
    assert apply_row(m, y.coords) == qmul(w, y).coords


def test_to_matrix_orthogonal_on_2O_sample():
    g = build_group("2O")
    for x in g.elements[::3][:20]:
        m = to_matrix(x)
        assert matmul(m, transpose(m)) == IDENTITY


def test_to_matrix_homomorphism_on_2T():
    # row-vector convention: v.M_{xy} = (v.M_y).M_x, i.e. M_{xy} = M_y M_x
    g = build_group("2T")
    mats = {x: to_matrix(x) for x in g}
    for x in g:
        for y in g:
            assert mats[qmul(x, y)] == matmul(mats[y], mats[x])


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


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def det_poly_i_minus_u(mat: Matrix4) -> UniPoly:
    """det(I - u M) by the permutation expansion over UniPoly (test oracle)."""
    entries = [
        [UniPoly([1 if i == j else 0, -mat.rows[i][j]]) for j in range(4)]
        for i in range(4)
    ]
    total = UniPoly.zero()
    for perm in permutations(range(4)):
        term = UniPoly([_perm_sign(perm)])
        for i in range(4):
            term = term * entries[i][perm[i]]
        total = total + term
    return total


@pytest.mark.parametrize("label", ["2T", "2O", "2I"])
def test_det_factors_as_su2_square_on_every_element(label):
    # det(I - u M_eps) = (1 - 2 eps_1 u + u^2)^2: the harmonic Molien series
    # relies on it to sum over first-coordinate classes
    tag = theta.FIELD_TAG[label]
    for eps in build_group(label):
        factor = su2_factor(eps)
        mat = to_matrix(eps)
        det = det_poly_i_minus_u(mat)
        assert det == factor * factor
        # the coefficient of u^k is (-1)^k e_k(2M) / 2^k
        e = char_coeffs_pairs(tag, [scaled_pairs(row, 2) for row in mat.rows])
        scaled = [QuadElem(tag, a, b) * Fraction((-1) ** k, 2**k)
                  for k, (a, b) in enumerate(e, 1)]
        assert det == UniPoly([1] + scaled)


def test_char_coeffs_pairs_examples():
    # diag(1, 2, 3, 4) has e = (10, 35, 50, 24)
    diag = [[(0, 0)] * 4 for _ in range(4)]
    for i in range(4):
        diag[i][i] = (i + 1, 0)
    assert char_coeffs_pairs("RAT", diag) == ((10, 0), (35, 0), (50, 0), (24, 0))
    for i in range(4):
        diag[i][i] = (0, 1) if i < 2 else (1, 0)
    # diag(rho, rho, 1, 1) over Z[sqrt2]: (t - rho)^2 (t - 1)^2 has
    # e = (2 + 2 rho, 3 + 4 rho, 4 + 2 rho, 2)
    assert char_coeffs_pairs("SQRT2", diag) == ((2, 2), (3, 4), (4, 2), (2, 0))


@pytest.mark.parametrize("label", ["2T", "2O", "2I"])
def test_det_tripwire_rejects_a_wrong_matrix(label, monkeypatch):
    def swapped(eps):  # keeps the trace, so e_2..e_4 must catch it
        rows = [list(row) for row in to_matrix(eps).rows]
        rows[0][1], rows[0][2] = rows[0][2], rows[0][1]
        return Matrix4(rows)

    assert theta._checked_det_classes.__wrapped__(label)
    monkeypatch.setattr(theta, "to_matrix", swapped)
    with pytest.raises(AssertionError, match="su2 factor"):
        theta._checked_det_classes.__wrapped__(label)


def test_scaled_pairs_checks_integrality():
    assert scaled_pairs(omega().coords, 2) == ((-1, 0), (1, 0), (1, 0), (1, 0))
    assert scaled_pairs(alpha().coords, 2) == ((0, 1), (0, 1), (0, 0), (0, 0))
    with pytest.raises(ValueError):
        scaled_pairs(omega().coords, 1)
    with pytest.raises(ValueError):
        scaled_pairs((sqrt2_elem(0, Fraction(1, 4)),), 2)
