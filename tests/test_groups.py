from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from collections import Counter

from quatdesign.exactnum import (
    GOLDEN, RAT, SQRT2, FieldTagMismatch, QuadElem, golden_elem, rat, sqrt2_elem,
)
from quatdesign import groups
from quatdesign.groups import (
    NotAntipodal,
    UnitGroup,
    UnsupportedAngle,
    alpha,
    build_group,
    distance_distribution,
    inner_product_set,
    is_distance_invariant,
    omega,
    zeta,
)
from quatdesign.quat import Quaternion, inner, norm, qmul, qmul_pairs, scaled_pairs

from oracles import half_set, orbit, pair_distance_distribution

HALF = Fraction(1, 2)


def test_orders():
    for label, size in (("Q8", 8), ("2T", 24), ("2O", 48), ("2I", 120)):
        assert len(build_group(label)) == size


def test_closure_and_antipodality():
    for label in ("Q8", "2T", "2O", "2I"):
        g = build_group(label)
        assert g.is_closed()
        assert g.is_antipodal()
        assert g.contains_inverse_of_all()
        assert Quaternion(1, 0, 0, 0) in g


def test_closure_fails_on_non_groups():
    # mixed coordinate tags, D = 2: omega^2 and alpha * i are not members
    q8 = list(build_group("Q8"))
    assert not UnitGroup("Q8+w", q8 + [omega(), -omega()]).is_closed()
    assert not UnitGroup("Q8+a", q8 + [alpha(), -alpha()]).is_closed()
    # the inverse conj(w) of w is not among them either
    assert not UnitGroup("Q8+w", q8 + [omega(), -omega()]).contains_inverse_of_all()


@pytest.mark.parametrize("label, tag", [("2O", SQRT2), ("2I", GOLDEN)])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_integer_pair_product_matches_qmul(label, tag, data):
    elements = build_group(label).elements
    g = data.draw(st.sampled_from(elements))
    h = data.draw(st.sampled_from(elements))
    assert qmul_pairs(tag, scaled_pairs(g.coords, 2), scaled_pairs(h.coords, 2)) == (
        scaled_pairs(qmul(g, h).coords, 4)
    )


def test_coset_union_structure():
    t = build_group("2T")
    o = build_group("2O")
    i = build_group("2I")
    assert all(e in o for e in t)
    assert all(e in i for e in t)
    assert zeta() in i
    assert zeta() ** 5 == -Quaternion(1, 0, 0, 0)


def test_a_wrong_generator_repeats_a_coset_product(monkeypatch):
    # omega (order 3) standing in for zeta (order 10): z^3 = 1, so the coset
    # product repeats 2T; it is refused, not shrunk to a 24-element "2I"
    monkeypatch.setattr(groups, "zeta", lambda: groups._retag(omega(), GOLDEN))
    build_group.cache_clear()
    try:
        with pytest.raises(ValueError, match="duplicate element in 2I"):
            build_group("2I")
    finally:
        build_group.cache_clear()


def test_d2n2_is_q8():
    assert build_group("D2n2").as_set() == build_group("Q8").as_set()


def test_cyclic_sizes_and_closure():
    for n in (1, 2, 3, 4, 5, 6, 8, 10):
        g = build_group(f"C{n}")
        assert len(g) == n
        assert g.is_closed()
        assert g.is_antipodal() == (n % 2 == 0)  # -1 is in C_n for even n only


def test_dihedral_sizes():
    for n in (1, 2, 3, 4, 5):
        g = build_group(f"D2n{n}")
        assert len(g) == 4 * n
        assert g.is_closed()
        assert g.is_antipodal()


def test_unsupported_angles():
    for label in ("C7", "C12", "C9", "D2n6", "D2n8"):
        with pytest.raises(UnsupportedAngle):
            build_group(label)


def test_inner_product_sets():
    t = inner_product_set(build_group("2T"))
    assert t == {rat(-1), rat(-HALF), rat(0), rat(HALF)}

    o = inner_product_set(build_group("2O"))
    r = sqrt2_elem(0, HALF)
    assert o == {rat(-1), -r, rat(-HALF), rat(0), rat(HALF), r}

    i = inner_product_set(build_group("2I"))
    tau_half = golden_elem(0, HALF)
    tau_inv_half = golden_elem(-HALF, HALF)
    assert i == {
        rat(-1), -tau_half, rat(-HALF), -tau_inv_half, rat(0),
        tau_inv_half, rat(HALF), tau_half,
    }


def test_distance_distribution_2O():
    g = build_group("2O")
    r = sqrt2_elem(0, HALF)
    expected = {
        rat(1): 1, r: 6, rat(HALF): 8, rat(0): 18,
        rat(-HALF): 8, -r: 6, rat(-1): 1,
    }
    assert distance_distribution(g.elements, g.elements[0]) == expected
    assert is_distance_invariant(g.elements)


def test_distance_distribution_q8():
    g = build_group("Q8")
    one = Quaternion(1, 0, 0, 0)
    assert distance_distribution(g.elements, one) == {rat(1): 1, rat(0): 6, rat(-1): 1}


def test_distance_distribution_2T_basepoint_free():
    g = build_group("2T")
    dists = {frozenset(distance_distribution(g.elements, x).items()) for x in g}
    assert len(dists) == 1


def test_pair_distribution_total():
    g = build_group("2T")
    dist = pair_distance_distribution(g.elements)
    assert sum(dist.values()) == len(g) ** 2
    assert dist[rat(1)] == len(g)


def test_distance_distribution_requires_member_basepoint():
    g = build_group("Q8")
    with pytest.raises(ValueError):
        distance_distribution(g.elements, Quaternion(HALF, HALF, HALF, HALF))


def test_half_sets():
    q8 = build_group("Q8")
    h = half_set(q8.elements)
    assert len(h) == 4
    for label in ("2T", "2O", "2I"):
        g = build_group(label)
        h = half_set(g.elements)
        assert len(h) * 2 == len(g)
        assert set(h) | {-x for x in h} == g.as_set()
    assert len(half_set(build_group("2I").elements)) == 60


def test_half_set_rejects_non_antipodal():
    with pytest.raises(NotAntipodal):
        half_set(build_group("C3").elements)


def test_orbits():
    t = build_group("2T")
    assert set(orbit(Quaternion(1, 0, 0, 0), t)) == t.as_set()
    o = build_group("2O")
    coset = orbit(alpha(), t)
    assert set(coset) | t.as_set() == o.as_set()
    assert len(coset) == 24

    i = build_group("2I")
    tau = golden_elem(0, 1)
    scaled = orbit(Quaternion(tau, rat(0), rat(0), rat(0)), i)
    assert all(norm(x) == tau * tau for x in scaled)

    with pytest.raises(ValueError):
        orbit(Quaternion(0, 0, 0, 0), t)


def test_group_json():
    blob = build_group("Q8").to_json()
    assert blob["order"] == 8
    assert len(blob["elements"]) == 8


# -- the Gram pass against a plain inner-product loop ------------------------

def doubled_2I():
    """2I and a second right coset of it: 240 points, two denominators."""
    group = build_group("2I")
    return list(group) + orbit(Quaternion(Fraction(3, 5), Fraction(4, 5), 0, 0), group)


def oracle_rows(points):
    """<x, y> for every ordered pair, by QuadElem inner products on i <= j."""
    rows = [[None] * len(points) for _ in points]
    for i, x in enumerate(points):
        for j in range(i, len(points)):
            rows[i][j] = rows[j][i] = inner(x, points[j])
    return rows


@pytest.mark.parametrize("name", ["Q8", "2T", "2O", "2I", "C5", "D2n3", "doubled"])
def test_gram_readers_match_inner_product_loop(name):
    points = doubled_2I() if name == "doubled" else list(build_group(name))
    rows = oracle_rows(points)
    assert pair_distance_distribution(points) == Counter(s for row in rows for s in row)
    assert inner_product_set(points) == {
        rows[i][j] for i in range(len(points)) for j in range(i + 1, len(points))
    }
    for idx in (0, len(points) - 1):
        assert distance_distribution(points, points[idx]) == Counter(rows[idx])
    assert is_distance_invariant(points) == all(
        Counter(row) == Counter(rows[0]) for row in rows
    )
    if name != "doubled":  # a group's readers share its own pass
        group = build_group(name)
        assert pair_distance_distribution(group) == pair_distance_distribution(points)
        assert inner_product_set(group) == inner_product_set(points)


def test_gram_pass_keeps_a_repeated_point_in_the_angle_set():
    q8 = list(build_group("Q8"))
    assert rat(1) not in inner_product_set(q8)
    assert rat(1) in inner_product_set(q8 + q8[:1])


def test_gram_pass_rejects_a_non_unit_point():
    points = list(build_group("2T")) + [Quaternion(1, 1, 0, 0)]
    for reader in (pair_distance_distribution, inner_product_set, is_distance_invariant):
        with pytest.raises(ValueError, match="unit sphere"):
            reader(points)
    with pytest.raises(ValueError, match="unit sphere"):
        distance_distribution(points, points[0])


def test_gram_pass_rejects_mixed_fields():
    with pytest.raises(FieldTagMismatch):
        pair_distance_distribution([alpha(), zeta()])
    with pytest.raises(FieldTagMismatch):
        inner_product_set(list(build_group("2O")) + list(build_group("2I")))


def test_unit_group_refuses_a_non_unit():
    with pytest.raises(ValueError, match="non-unit element in bad"):
        UnitGroup("bad", [Quaternion(1, 0, 0, 0), Quaternion(1, 1, 0, 0)])


@pytest.mark.parametrize("label, tag", [("2T", RAT), ("2O", SQRT2), ("2I", GOLDEN), ("C8", SQRT2)])
def test_doubled_elements_halve_to_the_elements(label, tag):
    group = build_group(label)
    assert group.tag == tag
    assert len(group.doubled) == len(group)
    for x, e in zip(group.doubled, group):
        assert Quaternion(*(QuadElem(tag, Fraction(a, 2), Fraction(b, 2)) for a, b in x)) == e
