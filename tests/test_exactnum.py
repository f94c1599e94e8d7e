from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from quatdesign.exactnum import (
    FIELD_TAGS,
    GOLDEN,
    PAIR_MUL,
    RAT,
    SQRT2,
    FieldTagMismatch,
    QuadElem,
    golden_elem,
    power_list,
    rat,
    sqrt2_elem,
)
from quatdesign import groups, theta
from quatdesign.quat import qmul_pairs

import oracles
from oracles import iota, quadelem_from_json

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


def quad_elems(tag):
    if tag == RAT:
        return st.builds(lambda a: QuadElem(RAT, a), rationals)
    return st.builds(lambda a, b: QuadElem(tag, a, b), rationals, rationals)


def symbolic_mul_oracle(tag, a, b, c, d):
    """Independent big-integer expansion of (a + b rho)(c + d rho)."""
    if tag == SQRT2:
        return a * c + 2 * b * d, a * d + b * c
    if tag == GOLDEN:
        # tau^2 = tau + 1 substituted after full symbolic expansion
        return a * c + b * d, a * d + b * c + b * d
    return a * c, Fraction(0)


def test_defining_relations():
    root2 = sqrt2_elem(0, 1)
    assert root2 * root2 == rat(2)
    tau = golden_elem(0, 1)
    assert tau * tau == golden_elem(1, 1)


def test_mul_against_symbolic_oracle():
    x = golden_elem(1, 1)
    y = golden_elem(1, -1)
    a, b = symbolic_mul_oracle(GOLDEN, *(Fraction(v) for v in (1, 1, 1, -1)))
    assert x * y == QuadElem(GOLDEN, a, b)


@given(quad_elems(GOLDEN), quad_elems(GOLDEN))
@settings(max_examples=60, deadline=None)
def test_mul_oracle_golden(x, y):
    a, b = symbolic_mul_oracle(GOLDEN, x.a, x.b, y.a, y.b)
    assert x * y == QuadElem(GOLDEN, a, b)


@given(quad_elems(SQRT2), quad_elems(SQRT2), quad_elems(SQRT2))
@settings(max_examples=60, deadline=None)
def test_field_axioms_sqrt2(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if not x.is_zero():
        assert x * x.inverse() == rat(1)


@given(quad_elems(GOLDEN), quad_elems(GOLDEN), quad_elems(GOLDEN))
@settings(max_examples=60, deadline=None)
def test_field_axioms_golden(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if not x.is_zero():
        assert x * x.inverse() == rat(1)


@given(quad_elems(GOLDEN), quad_elems(GOLDEN))
@settings(max_examples=60, deadline=None)
def test_sign_multiplicative(x, y):
    assert (x * y).sign() == x.sign() * y.sign()


@given(quad_elems(SQRT2), quad_elems(SQRT2), rationals)
@settings(max_examples=60, deadline=None)
def test_iota_linear(x, y, q):
    assert iota(x + y) == iota(x) + iota(y)
    assert iota(x * rat(q)) == q * iota(x)


def test_iota_examples():
    assert iota(sqrt2_elem(3, 5)) == 3
    assert iota(rat(7)) == 7
    assert iota(golden_elem(0, 1)) == 0


def test_sign_examples():
    assert golden_elem(1, -1).sign() == -1  # 1 - tau < 0
    assert rat(0).sign() == 0
    assert sqrt2_elem(3, -2).sign() == 1  # 3 > 2 sqrt2 since 9 > 8


@given(st.sampled_from(FIELD_TAGS).flatmap(quad_elems))
@example(sqrt2_elem(Fraction(141421356, 10**8), -1))  # the near-ties below
@example(sqrt2_elem(Fraction(141421357, 10**8), -1))
@example(golden_elem(1, -1))
@settings(max_examples=150, deadline=None)
def test_norm_conjugate_and_sign_match_the_per_field_rules(x):
    # one rule in (c0, c1) against a branch per field
    assert x.field_norm() == oracles.field_norm(x.tag, x.a, x.b)
    assert x.galois_conj() == QuadElem(x.tag, *oracles.galois_conj(x.tag, x.a, x.b))
    assert x.sign() == oracles.sign_quadratic(x.tag, x.a, x.b)
    assert x * x.galois_conj() == rat(x.field_norm())


def test_sign_boundary_exact():
    # a^2 == 2 b^2 exactly never happens for nonzero rationals, but the
    # comparison path must handle near-ties without approximation
    assert sqrt2_elem(Fraction(141421356, 10**8), -1).sign() == -1
    assert sqrt2_elem(Fraction(141421357, 10**8), -1).sign() == 1


def test_field_elements_are_immutable():
    x = sqrt2_elem(1, 2)
    for name in ("tag", "a", "b"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(x, name, 0)
    assert x == sqrt2_elem(1, 2)


def test_tag_mismatch():
    with pytest.raises(FieldTagMismatch):
        sqrt2_elem(1, 1) * golden_elem(1, 1)


def test_rational_promotes_into_either_field():
    assert rat(2) * sqrt2_elem(0, 1) == sqrt2_elem(0, 2)
    assert rat(3) + golden_elem(0, 1) == golden_elem(3, 1)
    assert sqrt2_elem(5, 0) == rat(5) == golden_elem(5, 0)


def test_division_by_galois_conjugate():
    x = sqrt2_elem(1, 1)
    assert x.field_norm() == -1
    assert x * x.galois_conj() == rat(-1)
    assert (rat(1) / x) * x == rat(1)
    t = golden_elem(0, 1)
    assert t.inverse() == golden_elem(-1, 1)  # 1/tau = tau - 1


def test_ordering_via_real_embedding():
    assert (golden_elem(0, 1) - rat(1)).sign() > 0
    assert (golden_elem(0, 1) - rat(2)).sign() < 0
    assert (sqrt2_elem(0, 1) - sqrt2_elem(0, 2)).sign() < 0
    # comparison across genuinely different quadratic fields is undefined
    with pytest.raises(FieldTagMismatch):
        sqrt2_elem(0, 1)._join(golden_elem(0, 1))


def test_json_round_trip():
    for x in (rat(Fraction(-3, 7)), sqrt2_elem(2, Fraction(1, 2)), golden_elem(0, -5)):
        assert quadelem_from_json(x.to_json()) == x
    blob = sqrt2_elem(Fraction(1, 3), 4).to_json()
    assert blob == {"tag": "SQRT2", "a": "1/3", "b": "4"}


def _power_cases():
    """(name, mul, one, x) for each product that power lists are built under."""
    pair = {RAT: (3, 0), SQRT2: (1, -2), GOLDEN: (2, 1)}
    for tag in FIELD_TAGS:
        pmul = PAIR_MUL[tag]
        yield f"pair-{tag}", lambda p, q, pmul=pmul: pmul(*p, *q), (1, 0), pair[tag]
        yield f"complex-{tag}", theta._CMUL[tag], theta._C_ONE, (*pair[tag], -1, pair[tag][1])
    for g in (groups.OMEGA, groups.ALPHA, groups.ZETA):
        x, tag = g
        half = lambda a, b, tag=tag: groups._halve(qmul_pairs(tag, a, b))
        yield f"group-{tag}", half, groups.ONE[0], x


@pytest.mark.parametrize("name, mul, one, x", list(_power_cases()),
                         ids=[case[0] for case in _power_cases()])
def test_power_list_entries_are_k_fold_products(name, mul, one, x):
    # x^k against x (x (... (x one))), the product taken from the other side
    for n in range(7):
        powers = power_list(mul, one, x, n)
        assert len(powers) == n + 1
        for k, got in enumerate(powers):
            want = one
            for _ in range(k):
                want = mul(x, want)
            assert got == want


def test_group_powers_tag_one_rat_and_the_rest_as_the_generator():
    out = groups.powers(groups.ALPHA, 4)
    assert out[0] == groups.ONE and out[0][1] == RAT
    assert [t for _, t in out[1:]] == [SQRT2] * 3
    assert out[1] == groups.ALPHA
