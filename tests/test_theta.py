import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quatdesign.budget import ResourceBudgetError, get_budget
from quatdesign.exactnum import GOLDEN, SQRT2, QuadElem, golden_elem, rat, sqrt2_elem
from quatdesign.groups import build_group
from quatdesign.harmonics import harm_basis, poly4_eval
from quatdesign import orders
from quatdesign.orders import (
    embed_coords,
    enumerate_shell,
    right_multiplication_matrices,
)
from quatdesign.qseries import qseries
from quatdesign.strength import molien_closed_form, molien_series
from quatdesign.theta import (
    CQuad,
    dimension_hypothesis,
    exact_rank,
    harmonic_invariant_dim,
    harmonic_molien,
    holomorphic_invariants,
    invariant_dimension_coefficients,
    invariant_dimension_evaluation,
    invariant_multiplicity,
    theta_rank,
    theta_table,
    upper_bound_check,
)

D_TABLE = {
    "2T": (0, 0, 7, 9, 0, 26, 15, 17, 38, 42, 23, 75),
    "2O": (0, 0, 0, 9, 0, 13, 0, 17, 19, 21, 0, 50),
    "2I": (0, 0, 0, 0, 0, 13, 0, 0, 0, 21, 0, 25),
}


def test_qseries_reference_values():
    assert qseries("E4", 4) == [1, 240, 2160, 6720, 17520]
    assert qseries("E2", 3) == [1, -24, -72, -96]
    assert qseries("Theta2T1", 4) == [1, 24, 24, 96, 24]
    assert qseries("Theta2O1", 4) == [1, 48, 624, 1344, 5232]
    assert qseries("Delta", 5) == [0, 1, -24, 252, -1472, 4830]
    assert qseries("DeltaPlus64Delta2", 5) == [0, 1, 40, 252, -3008, 4830]
    assert qseries("E4Delta", 4) == [0, 1, 216, -3348, 13888]
    with pytest.raises(ValueError):
        qseries("E6", 3)


@pytest.mark.parametrize("label", ["2T", "2O", "2I"])
def test_harmonic_molien_d_table(label):
    assert harmonic_molien(label, 24)[2::2] == D_TABLE[label]


@pytest.mark.parametrize("label", ["2T", "2O", "2I"])
def test_harmonic_molien_left_right_symmetry(label):
    # dim Harm_l^G = (l+1) * [u^l] Psi_G: the two SU(2) factors decouple
    hm = harmonic_molien(label, 24)
    psi = molien_series(build_group(label), 24)
    for ell in range(25):
        assert hm[ell] == (ell + 1) * psi[ell]


@pytest.mark.parametrize("label", ["2T", "2O", "2I"])
def test_harmonic_molien_factors_through_holomorphic_invariants(label):
    # Harm_l = V_l (x) V_l under left multiplication, with G acting on one
    # factor only: dim Harm_l^G = (l + 1) * m_l
    series = harmonic_molien(label, 40)
    for ell in range(41):
        assert series[ell] == (ell + 1) * invariant_multiplicity(label, ell)


@pytest.mark.parametrize("label", ["2T", "2O", "2I"])
def test_harmonic_molien_truncations_agree(label):
    full = harmonic_molien(label, 40)
    for n in range(2, 25):
        assert harmonic_molien(label, n) == full[: n + 1]


def test_negative_degrees_are_rejected():
    with pytest.raises(IndexError):
        harmonic_invariant_dim("2O", -1)
    with pytest.raises(IndexError):
        harmonic_molien("2O", -1)
    with pytest.raises(IndexError):
        invariant_multiplicity("2O", -1)


@pytest.mark.parametrize("ell, shells, kind", [(8, 4, "invariant"), (2, 3, "full")])
def test_theta_table_enumerates_one_ball(ell, shells, kind, monkeypatch):
    calls = []
    enumerate_ball = orders._enumerate_ball

    def counting(label, bound):
        calls.append(bound)
        return enumerate_ball(label, bound)

    monkeypatch.setattr(orders, "_enumerate_ball", counting)
    monkeypatch.delitem(orders._BALL_CACHE, "2O", raising=False)
    theta_table("2O", ell, shells, kind=kind)
    assert calls == [shells]


def test_invariant_multiplicities():
    assert invariant_multiplicity("2T", 6) == 1
    assert invariant_multiplicity("2T", 12) == 2
    assert invariant_multiplicity("2O", 8) == 1
    assert invariant_multiplicity("2I", 12) == 1
    assert invariant_multiplicity("2I", 2) == 0


def test_holomorphic_invariants_found():
    assert len(holomorphic_invariants("2T", 6)) == 1
    assert len(holomorphic_invariants("2T", 12)) == 2
    assert len(holomorphic_invariants("2O", 8)) == 1
    assert holomorphic_invariants("2I", 4) == ()


def test_zero_table_for_degree_in_strength():
    tbl = theta_table("2T", 2, 5, kind="full")
    assert tbl.is_zero()
    assert tbl.n_columns == 9
    assert tbl.rank() == 0
    assert theta_table("2T", 2, 5).n_columns == 0  # invariant kind, m_l = 0


def test_rank_one_generators():
    tbl = theta_table("2O", 8, 5)
    assert tbl.rank() == 1
    assert tbl.normalized_generator() == [
        Fraction(v) for v in qseries("DeltaPlus64Delta2", 5)[1:]
    ]
    tbl = theta_table("2I", 12, 4)
    assert tbl.rank() == 1
    assert tbl.normalized_generator() == [
        Fraction(v) for v in qseries("E4Delta", 4)[1:]
    ]


def test_theta_rank_examples():
    assert theta_rank("2O", 14, 8) == 0
    assert theta_rank("2O", 12, 6) == 1
    assert theta_rank("2T", 10, 10) == 0
    assert theta_rank("2T", 12, 10) >= 1


def test_upper_bound_checks():
    assert upper_bound_check("2O", 8, 8)
    assert harmonic_invariant_dim("2O", 8) == 9
    assert upper_bound_check("2I", 12, 5)
    assert harmonic_invariant_dim("2I", 12) == 13
    for ell in range(2, 17, 2):
        assert upper_bound_check("2T", ell, 10)


def test_full_and_invariant_tables_span_equally():
    for label, ell, m in (("2T", 6, 4), ("2T", 8, 4), ("2O", 8, 3)):
        full = theta_table(label, ell, m, kind="full")
        inv = theta_table(label, ell, m)
        r_full, r_inv = full.rank(), inv.rank()
        assert r_full == r_inv
        concat = [list(a) + list(b) for a, b in zip(full.matrix, inv.matrix)]
        assert exact_rank(concat) == r_full


def _rank_two_rows(zero, one, s, t):
    """Two independent rows, three combinations of them and a zero row.

    The row s * r1 is a multiple of r1 only over the field holding s, so a
    rank taken over the rational components of the entries would be larger.
    """
    r1 = [one, s, zero, t]
    r2 = [zero, one, t, s * s]
    r3 = [s * a + t * b for a, b in zip(r1, r2)]
    return [r1, r3, [zero] * 4, r2, [s * a for a in r1]]


@pytest.mark.parametrize(
    "zero, one, s, t",
    [
        (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-2, 5)),
        (rat(0), rat(1), sqrt2_elem(0, 1), sqrt2_elem(1, Fraction(-3, 2))),
        (rat(0), rat(1), golden_elem(0, 1), golden_elem(Fraction(1, 2), 1)),
        (CQuad(0), CQuad(1), CQuad(0, 1), CQuad(sqrt2_elem(1, 1), 2)),
    ],
    ids=["fraction", "sqrt2", "golden", "cquad"],
)
def test_exact_rank_of_rank_deficient_rows(zero, one, s, t):
    assert exact_rank(_rank_two_rows(zero, one, s, t)) == 2
    assert exact_rank([[zero] * 3, [zero] * 3]) == 0
    assert exact_rank([]) == 0


_small_rationals = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4
)


@given(st.sampled_from((SQRT2, GOLDEN)), st.data())
@settings(max_examples=40, deadline=None)
def test_exact_rank_ignores_added_combinations(tag, data):
    def elem():
        return QuadElem(tag, data.draw(_small_rationals), data.draw(_small_rationals))

    rows = [[elem() for _ in range(4)] for _ in range(data.draw(st.integers(1, 4)))]
    coeffs = [elem() for _ in rows]
    combo = [sum((c * row[j] for c, row in zip(coeffs, rows)), rat(0)) for j in range(4)]
    at = data.draw(st.integers(0, len(rows)))
    assert exact_rank(rows[:at] + [combo] + rows[at:]) == exact_rank(rows)


def test_group_action_kills_nothing():
    # theta series of P and of P(. eps) agree on every shell
    rng = random.Random(7)
    label, ell = "2T", 6
    basis = harm_basis(ell).polynomials
    mats = right_multiplication_matrices(label)
    for m in (1, 2):
        shell = enumerate_shell(label, m)
        pts = [embed_coords(label, c) for c in shell.points]
        mat = mats[rng.randrange(len(mats))]
        moved = [
            embed_coords(label, tuple(
                sum(c[i] * mat[i][j] for i in range(4)) for j in range(4)
            ))
            for c in shell.points
        ]
        for p in rng.sample(basis, 4):
            direct = sum(
                (poly4_eval(p, [q.a for q in x.coords]) for x in pts), Fraction(0)
            )
            acted = sum(
                (poly4_eval(p, [q.a for q in x.coords]) for x in moved), Fraction(0)
            )
            assert direct == acted


@pytest.mark.parametrize("label", ["2T", "2O", "2I"])
def test_reynolds_dimension_evaluation(label):
    for ell in (2, 4, 6):
        assert invariant_dimension_evaluation(label, ell) == harmonic_invariant_dim(
            label, ell
        )


def test_reynolds_dimension_coefficients_2T():
    for ell in (2, 4, 6):
        assert invariant_dimension_coefficients("2T", ell) == harmonic_invariant_dim(
            "2T", ell
        )
    with pytest.raises(ValueError):
        invariant_dimension_coefficients("2O", 4)


def test_vanishing_entries_small_full_tables():
    for label, ell, m in (("2T", 10, 4), ("2O", 2, 3), ("2I", 2, 2)):
        assert theta_table(label, ell, m, kind="full").is_zero()


def test_nonvanishing_even_degrees():
    for label, ell in (("2T", 6), ("2T", 8), ("2O", 8), ("2I", 12)):
        assert theta_rank(label, ell, 6) >= 1


def test_hypothesis_reports():
    rep = dimension_hypothesis("2T", 12, 8)
    assert rep.proven and rep.conjectured_dim == 2 and rep.agrees
    rep = dimension_hypothesis("2O", 8, 6)
    assert not rep.proven and rep.conjectured_dim == 1 and rep.agrees
    # conjectured dimension equals the Molien closed-form coefficient
    assert rep.conjectured_dim == molien_closed_form("2O", 8)[8]


def test_budget_guards():
    small = get_budget("small")
    with pytest.raises(ResourceBudgetError):
        theta_table("2I", 16, 3, budget=small)
    with pytest.raises(ResourceBudgetError):
        theta_table("2O", 12, 6, kind="full", budget=small)


def test_table_json():
    blob = theta_table("2O", 8, 3).to_json()
    assert blob["rank"] == 1
    assert blob["group"] == "2O"
