import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from collections import Counter

from quatdesign.exactnum import (
    GOLDEN, RAT, SQRT2, FieldTagMismatch, QuadElem, golden_elem, rat, sqrt2_elem,
)
from quatdesign import groups
from quatdesign.groups import (
    NotAntipodal,
    UnsupportedAngle,
    build_group,
    distance_distribution,
    gram_of,
    is_distance_invariant,
)
from quatdesign.quat import Quaternion, from_pairs, qmul, qmul_pairs, scaled_pairs

import oracles
from oracles import (
    alpha, half_set, inner, neg, norm, omega, orbit, pair_distance_distribution, unit_group, zeta,
)

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
    assert not unit_group("Q8+w", q8 + [omega(), neg(omega())]).is_closed()
    assert not unit_group("Q8+a", q8 + [alpha(), neg(alpha())]).is_closed()
    # the inverse conj(w) of w is not among them either
    assert not unit_group("Q8+w", q8 + [omega(), neg(omega())]).contains_inverse_of_all()


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
    assert oracles.qpow(zeta(), 5) == Quaternion(-1, 0, 0, 0)


def test_a_wrong_generator_repeats_a_coset_product(monkeypatch):
    # omega (order 3) standing in for zeta (order 10): z^3 = 1, so the coset
    # product repeats 2T; it is refused, not shrunk to a 24-element "2I"
    monkeypatch.setattr(groups, "ZETA", (groups.OMEGA[0], GOLDEN))
    build_group.cache_clear()
    try:
        with pytest.raises(ValueError, match="duplicate element in 2I"):
            build_group("2I")
    finally:
        build_group.cache_clear()


def test_a_product_off_the_doubled_lattice_is_refused(monkeypatch):
    # g = (1 + i)/2 is no unit, but 2g, 2g^2 = i are integral and 2g^3 =
    # (i - 1)/2 is not: its half is refused, never rounded
    monkeypatch.setitem(groups._CYCLIC_GENERATORS, 4, (((1, 0), (1, 0), (0, 0), (0, 0)), RAT))
    build_group.cache_clear()
    try:
        with pytest.raises(ValueError, match="not integral"):
            build_group("C4")
    finally:
        build_group.cache_clear()


SUPPORTED = ("Q8", "2T", "2O", "2I", *(f"C{n}" for n in groups.CYCLIC_SUPPORTED),
             *(f"D2n{n}" for n in groups.DIHEDRAL_SUPPORTED))


@pytest.mark.parametrize("label", SUPPORTED)
def test_integer_build_matches_the_quadelem_coset_products(label):
    # the same elements in the same order, and every coordinate's field tag,
    # against coset products of the written-out generators of the oracle
    group, expected = build_group(label), oracles.group_elements(label)
    assert group.elements == expected
    tags = [[c.tag for c in e.coords] for e in group]
    assert tags == [[c.tag for c in e.coords] for e in expected]
    assert group.doubled == tuple(scaled_pairs(e.coords, 2) for e in expected)


@pytest.mark.parametrize("label", ["2O", "2I"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_closure_matches_the_dividing_oracle(label, data):
    # random subsets, with and without 1, and the subgroups generated by one
    # or two random elements, so that both answers occur; the oracle divides
    # each product by D where is_closed looks it up among the D^2-multiples
    elements = build_group(label).elements
    picked = data.draw(st.lists(st.sampled_from(elements), min_size=2, max_size=12, unique=True))
    mode = data.draw(st.sampled_from(["subset", "without 1", "subgroup"]))
    if mode == "subgroup":
        picked = oracles.orbit_closure(picked[:data.draw(st.integers(1, 2))])
    elif mode == "without 1":
        picked = [e for e in picked if e != Quaternion(1, 0, 0, 0)]
    assert unit_group("subset", picked).is_closed() == oracles.is_closed(picked)


def test_closure_follows_every_product_of_a_generator():
    # {x, x^2} for x = w of order 3 and -w of order 6: the generator x
    # squares into the set, but x * x^2 = x^3, 1 or -1, is not in it
    w = omega()
    for x in (w, neg(w)):
        assert not unit_group("two powers", [x, qmul(x, x)]).is_closed()
        assert not oracles.is_closed([x, qmul(x, x)])
    assert unit_group("C6", oracles.orbit_closure([neg(w)])).is_closed()


def test_closure_refuses_a_group_less_one_element():
    # 2O less one element: of the 47^2 products only the 46 or 47 landing on
    # the missing element leave the set
    o = build_group("2O").elements
    for missing in (Quaternion(1, 0, 0, 0), o[0], alpha()):
        rest = [e for e in o if e != missing]
        assert not unit_group("2O minus one", rest).is_closed()
        assert not oracles.is_closed(rest)


def test_d2n2_is_q8():
    assert set(build_group("D2n2")) == set(build_group("Q8"))


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
    t = gram_of(build_group("2T")).angles()
    assert t == {rat(-1), rat(-HALF), rat(0), rat(HALF)}

    o = gram_of(build_group("2O")).angles()
    r = sqrt2_elem(0, HALF)
    assert o == {rat(-1), -r, rat(-HALF), rat(0), rat(HALF), r}

    i = gram_of(build_group("2I")).angles()
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
        assert set(h) | {neg(x) for x in h} == set(g)
    assert len(half_set(build_group("2I").elements)) == 60


def test_half_set_rejects_non_antipodal():
    with pytest.raises(NotAntipodal):
        half_set(build_group("C3").elements)


def test_orbits():
    t = build_group("2T")
    assert set(orbit(Quaternion(1, 0, 0, 0), t)) == set(t)
    o = build_group("2O")
    coset = orbit(alpha(), t)
    assert set(coset) | set(t) == set(o)
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
    """The counts of <x, y> in the row of each x, and the angle set, by
    QuadElem inner products of as few pairs as two symmetries allow.

    <x, y> = <y, x> and <-x, y> = -<x, y>.  So with r_x the first of x and
    -x among the points and x = s_x r_x, <x, y> = s_x s_y <r_x, r_y>: one
    inner product per unordered pair of representatives.  The value of each
    unordered pair {i, j} counts once in row i and once in row j (once only
    for i = j), and the angle set takes the values of the pairs with i < j.
    """
    index = {p: i for i, p in enumerate(points)}
    reps = [min(i, index.get(neg(p), i)) for i, p in enumerate(points)]
    values = {}  # (r, r') with r <= r' -> (<x_r, x_r'>, -<x_r, x_r'>)
    rows, angles = [Counter() for _ in points], set()
    for i in range(len(points)):
        for j in range(i, len(points)):
            key = (reps[i], reps[j]) if reps[i] <= reps[j] else (reps[j], reps[i])
            if key not in values:
                v = inner(points[key[0]], points[key[1]])
                values[key] = (v, -v)
            v = values[key][(reps[i] == i) != (reps[j] == j)]
            rows[i][v] += 1
            if j != i:
                rows[j][v] += 1
                angles.add(v)
    return rows, angles


@pytest.mark.parametrize("name", ["Q8", "2T", "2O", "2I", "C5", "D2n3", "doubled"])
def test_gram_readers_match_inner_product_loop(name):
    points = doubled_2I() if name == "doubled" else list(build_group(name))
    rows, angles = oracle_rows(points)
    assert pair_distance_distribution(points) == sum(rows, Counter())
    assert gram_of(points).angles() == angles
    for idx in (0, len(points) - 1):
        assert distance_distribution(points, points[idx]) == rows[idx]
    assert is_distance_invariant(points) == all(row == rows[0] for row in rows)
    if name != "doubled":  # a group's readers share its own pass
        group = build_group(name)
        assert pair_distance_distribution(group) == pair_distance_distribution(points)
        assert gram_of(group).angles() == gram_of(points).angles()


def test_gram_pass_keeps_a_repeated_point_in_the_angle_set():
    q8 = list(build_group("Q8"))
    assert rat(1) not in gram_of(q8).angles()
    assert rat(1) in gram_of(q8 + q8[:1]).angles()


def test_gram_pass_rejects_a_non_unit_point():
    points = list(build_group("2T")) + [Quaternion(1, 1, 0, 0)]
    for reader in (pair_distance_distribution, gram_of, is_distance_invariant):
        with pytest.raises(ValueError, match="unit sphere"):
            reader(points)
    with pytest.raises(ValueError, match="unit sphere"):
        distance_distribution(points, points[0])


def test_gram_pass_rejects_mixed_fields():
    with pytest.raises(FieldTagMismatch):
        pair_distance_distribution([alpha(), zeta()])
    with pytest.raises(FieldTagMismatch):
        gram_of(list(build_group("2O")) + list(build_group("2I"))).angles()


def test_unit_group_refuses_a_non_unit():
    with pytest.raises(ValueError, match=r"non-unit element in bad: Quaternion\(1, 1, 0, 0\)$"):
        unit_group("bad", [Quaternion(1, 0, 0, 0), Quaternion(1, 1, 0, 0)])


@pytest.mark.parametrize("label, tag", [("2T", RAT), ("2O", SQRT2), ("2I", GOLDEN), ("C8", SQRT2)])
def test_doubled_elements_halve_to_the_elements(label, tag):
    group = build_group(label)
    assert group.tag == tag
    assert len(group.doubled) == len(group)
    for x, e in zip(group.doubled, group):
        assert Quaternion(*(QuadElem(tag, Fraction(a, 2), Fraction(b, 2)) for a, b in x)) == e
        assert from_pairs(tag, 2, x) == e


_QUADELEMS_CHILD = """
from quatdesign import exactnum, groups, orders, strength
made, init = [], exactnum.QuadElem.__init__

def counting(self, *args, **kwargs):
    made.append(args)
    init(self, *args, **kwargs)

exactnum.QuadElem.__init__ = counting
for label in ("Q8", "2T", "2O", "2I", *(f"C{n}" for n in groups.CYCLIC_SUPPORTED),
              *(f"D2n{n}" for n in groups.DIHEDRAL_SUPPORTED)):
    groups.build_group(label)
for label in ("2T", "2O", "2I"):
    group = groups.build_group(label)
    group.is_closed()
    group.gram
    strength.molien_series(group, 30)
    orders.right_multiplication_matrices(label)
print(len(made))
"""


def test_groups_hold_no_field_element():
    # every build, closure test, Gram pass, Molien series and R_eps reads
    # the doubled integer pairs: no QuadElem is made in a fresh interpreter
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "QUATDESIGN_"))}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", _QUADELEMS_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]


@pytest.mark.parametrize("label", SUPPORTED)
def test_a_group_and_its_printed_elements_have_one_gram(label):
    # the user-point route: the group's own JSON elements, read back as
    # Quaternions, give the rows of the Gram pass built from the pairs
    group = build_group(label)
    points = [Quaternion.from_json(e) for e in group.to_json()["elements"]]
    assert groups.gram_pass(points).rows == group.gram.rows
