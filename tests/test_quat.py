from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from quatdesign import theta
from quatdesign.exactnum import GOLDEN, RAT, SQRT2, QuadElem, rat, sqrt2_elem
from quatdesign.groups import build_group
from quatdesign.quat import (
    PAIR_MUL,
    Quaternion,
    left_matrix_pairs,
    qmul,
    qmul_pairs,
    scaled_pairs,
)

from oracles import (
    UniPoly, alpha, char_coeffs_pairs, conj, hamilton_formula, inner, neg, norm, omega, qpow,
    zeta,
)

I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)
ONE = Quaternion(1, 0, 0, 0)


def su2_factor(x: Quaternion) -> UniPoly:
    """det(I - u C_x) = 1 - 2 x1 u + u^2 for unit x."""
    if norm(x) != 1:
        raise ValueError("su2_factor requires a unit quaternion")
    return UniPoly([1, rat(-2) * x.x1, 1])


small = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6)
quats = st.builds(Quaternion, small, small, small, small)


def test_defining_relations():
    assert qmul(I, J) == K
    assert qmul(J, I) == neg(K)
    assert qmul(I, I) == neg(ONE)


def test_unit_relations():
    assert qpow(omega(), 3) == ONE
    assert qpow(alpha(), 4) == neg(ONE)
    assert qpow(zeta(), 5) == neg(ONE)


def test_a_negative_power_is_refused():
    # there is no quaternion inverse; -1 >> 1 == -1 would never end the loop
    with pytest.raises(ValueError, match="power -1"):
        qpow(omega(), -1)


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


@st.composite
def pair_operands(draw):
    """(tag, x, y): two quaternions over one field, as QuadElem coordinates
    and as integer pairs.  A rational coordinate carries any of the three
    tags, so the products must join tags in the order of the formula."""
    tags = st.sampled_from([RAT, SQRT2, GOLDEN])
    tag, ints = draw(tags), st.integers(-9, 9)
    out = []
    for _ in range(2):
        elems, pairs = [], []
        for _ in range(4):
            a, b = draw(ints), draw(ints) if tag != RAT else 0
            elems.append(QuadElem(draw(tags) if b == 0 else tag, a, b))
            pairs.append((a, b))
        out.append((tuple(elems), tuple(pairs)))
    return tag, out[0], out[1]


def tagged(coords):
    return [(c.tag, c.a, c.b) for c in coords]


@given(pair_operands())
@settings(max_examples=80, deadline=None)
def test_hamilton_table_matches_the_written_out_formula(operands):
    tag, (xe, xp), (ye, yp) = operands
    want = hamilton_formula(xe, ye)
    assert tagged(qmul(Quaternion(*xe), Quaternion(*ye)).coords) == tagged(want)
    assert qmul_pairs(tag, xp, yp) == scaled_pairs(want, 1)
    # row j of M_x is x e_j
    basis = [[rat(int(i == j)) for i in range(4)] for j in range(4)]
    assert left_matrix_pairs(xp) == tuple(
        scaled_pairs(hamilton_formula(xe, e), 1) for e in basis)


def test_qmul_joins_tags_in_the_order_of_the_formula():
    # a sum of rationals takes the last non-RAT tag it adds, and a product
    # with a RAT factor the other factor's tag: the tag patterns of one
    # operand against an all-RAT other tell any two orders of the terms apart
    ones = (rat(1),) * 4
    for tags in product((RAT, SQRT2, GOLDEN), repeat=4):
        v = tuple(QuadElem(t, 1) for t in tags)
        for x, y in ((v, ones), (ones, v)):
            assert tagged(qmul(Quaternion(*x), Quaternion(*y)).coords) == tagged(
                hamilton_formula(x, y))


def test_inner_via_left_translation():
    # <x, y> = <1, conj(x) y> for unit x
    g = build_group("2O")
    for x in g.elements[:6]:
        for y in g.elements[10:16]:
            assert inner(x, y) == qmul(conj(x), y).x1


def doubled(x: Quaternion):
    return scaled_pairs(x.coords, 2)


def pair_matrix(entries):
    return tuple(tuple((a, 0) for a in row) for row in entries)


def pair_matmul(tag, a, b):
    pmul = PAIR_MUL[tag]

    def dot(u, v):
        terms = [pmul(*p, *q) for p, q in zip(u, v)]
        return sum(t[0] for t in terms), sum(t[1] for t in terms)

    return tuple(tuple(dot(row, col) for col in zip(*b)) for row in a)


def test_to_matrix_identity_and_i():
    assert left_matrix_pairs(doubled(ONE)) == pair_matrix(
        [[2 if i == j else 0 for j in range(4)] for i in range(4)])
    assert left_matrix_pairs(doubled(I)) == pair_matrix(
        [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]])


def test_to_matrix_is_left_multiplication():
    # y . (2 M_w) = 2 (w y), one product per column
    w = omega()
    y = Quaternion(1, 2, 3, 4)
    (row,) = pair_matmul("RAT", (doubled(y),), left_matrix_pairs(doubled(w)))
    assert row == scaled_pairs(qmul(w, y).coords, 4)


def test_to_matrix_orthogonal_on_2O_sample():
    four = pair_matrix([[4 if i == j else 0 for j in range(4)] for i in range(4)])
    g = build_group("2O")
    for x in g.elements[::3][:20]:
        m = left_matrix_pairs(doubled(x))
        assert pair_matmul("SQRT2", m, tuple(zip(*m))) == four


def test_to_matrix_homomorphism_on_2T():
    # row-vector convention: v.M_{xy} = (v.M_y).M_x, i.e. M_{xy} = M_y M_x,
    # so (2 M_y)(2 M_x) is 4 M_{xy}, twice the doubled matrix of qmul(x, y)
    g = build_group("2T")
    mats = {x: left_matrix_pairs(doubled(x)) for x in g}
    for x in g:
        for y in g:
            want = tuple(tuple((2 * a, 2 * b) for a, b in row) for row in mats[qmul(x, y)])
            assert pair_matmul("RAT", mats[y], mats[x]) == want


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


def det_poly_i_minus_u(mat) -> UniPoly:
    """det(I - u M) by the permutation expansion over UniPoly (test oracle),
    for the rows of a 4x4 matrix of QuadElem entries."""
    entries = [
        [UniPoly([1 if i == j else 0, -mat[i][j]]) for j in range(4)]
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
        rows = left_matrix_pairs(doubled(eps))
        mat = [[QuadElem(tag, Fraction(a, 2), Fraction(b, 2)) for a, b in row] for row in rows]
        # row i of M_eps is eps times the i-th unit quaternion
        assert [tuple(row) for row in mat] == [qmul(eps, e).coords for e in (ONE, I, J, K)]
        det = det_poly_i_minus_u(mat)
        assert det == factor * factor
        # the coefficient of u^k is (-1)^k e_k(2M) / 2^k
        e = char_coeffs_pairs(tag, rows)
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
    # two entries of the first row traded: where x2 != x3 the matrix is no
    # longer M_x, and A^2 - 2xA + 4I = 0 fails for it
    def swapped(x):
        rows = [list(row) for row in left_matrix_pairs(x)]
        rows[0][1], rows[0][2] = rows[0][2], rows[0][1]
        return rows

    assert theta._checked_det_classes.__wrapped__(label)
    monkeypatch.setattr(theta, "left_matrix_pairs", swapped)
    with pytest.raises(AssertionError, match="su2 factor"):
        theta._checked_det_classes.__wrapped__(label)


def test_scaled_pairs_checks_integrality():
    assert scaled_pairs(omega().coords, 2) == ((-1, 0), (1, 0), (1, 0), (1, 0))
    assert scaled_pairs(alpha().coords, 2) == ((0, 1), (0, 1), (0, 0), (0, 0))
    with pytest.raises(ValueError):
        scaled_pairs(omega().coords, 1)
    with pytest.raises(ValueError):
        scaled_pairs((sqrt2_elem(0, Fraction(1, 4)),), 2)
