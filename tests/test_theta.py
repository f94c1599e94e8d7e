import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quatdesign.budget import Budget, ResourceBudgetError, get_budget
from quatdesign.exactnum import GOLDEN, RAT, RHO_SQUARED, SQRT2, QuadElem, golden_elem, rat, sqrt2_elem
from quatdesign.groups import build_group
from quatdesign.harmonics import harm_basis, quotient_monomials
from quatdesign.orders import (
    enumerate_shell,
    right_multiplication_matrices,
    shell_count_formula,
)
from quatdesign.qseries import qseries
from quatdesign.strength import molien_closed_form, molien_series
from quatdesign import cli, orders, theta, verify
from quatdesign import qseries as qseries_module
from quatdesign.quat import flat, left_matrix_pairs, qmul_pairs
from quatdesign.theta import (
    exact_rank,
    harmonic_invariant_dim,
    harmonic_molien,
    holomorphic_invariants,
    invariant_dimensions,
    invariant_multiplicity,
    theta_ranks,
    theta_table,
)

import oracles
from oracles import embed_coords, poly4_eval, scaled_pairs


def theta_rank(label, ell, shells, budget=None):
    return theta_ranks(label, (ell,), shells, budget)[ell]

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


def test_a_non_integral_theta2o1_coefficient_is_refused(monkeypatch):
    # E4 with 241 at q^1 gives (241 + 4 * 0)/5 there, not an integer
    real = qseries_module.e4
    monkeypatch.setattr(qseries_module, "e4",
                        lambda n: [a + (k == 1) for k, a in enumerate(real(n))])
    with pytest.raises(AssertionError, match="Theta2O1 coefficient not integral"):
        qseries("Theta2O1", 4)


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
    with pytest.raises(IndexError):
        invariant_dimensions("2O", (4, -1))
    with pytest.raises(ValueError):
        invariant_dimensions("Q8", (4,))


@pytest.mark.parametrize("ell, shells, kind", [(8, 4, "invariant"), (2, 3, "full")])
def test_theta_table_enumerates_one_ball(ell, shells, kind, ball_calls):
    theta_table("2O", ell, shells, kind=kind)
    assert ball_calls == [("2O", shells)]


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


@pytest.mark.parametrize("label, ell", [("2T", 6), ("2T", 12), ("2O", 8), ("2I", 12)])
def test_holomorphic_invariants_are_right_invariant(label, ell):
    # the forms are 2^l f on integer pairs; x (2 eps) = 2 (x eps) and
    # f(x eps) = f(x), so each form at x (2 eps) is 2^l times its value at x
    tag = theta.FIELD_TAG[label]
    rng = random.Random(ell)
    rho_part = 0 if tag == RAT else 3  # Z has no rho part
    points = [
        tuple((rng.randint(-3, 3), rng.randint(-rho_part, rho_part)) for _ in range(4))
        for _ in range(3)
    ]
    cmul = theta._CMUL[tag]
    for form in holomorphic_invariants(label, ell):
        def value(x):  # x = z1 + z2 j, through the tables' complex kernel
            z1, z2 = flat(x[:2]), flat(x[2:])
            return theta._csum(
                cmul(c, cmul(theta._cpow(cmul, z1, a), theta._cpow(cmul, z2, b)))
                for (a, b), c in form.items()
            )

        for x in points:
            want = tuple(2**ell * c for c in value(x))
            for eps in oracles.elements(build_group(label)):
                assert value(qmul_pairs(tag, x, scaled_pairs(eps.coords, 2))) == want


def test_holomorphic_invariants_are_independent_over_k_of_i(monkeypatch):
    # f and i f are dependent over K(i) but independent over K, so a search
    # that only compared real splits would return (f, i f)
    f = {(2, 0): (1, 0, 0, 0), (0, 2): (0, 0, 3, 0)}
    i_f = {(2, 0): (0, 0, 1, 0), (0, 2): (-3, 0, 0, 0)}
    g = {(1, 1): (2, 0, 0, 0)}
    candidates = iter([f, i_f, g])
    monkeypatch.setattr(theta, "_reynolds_holomorphic", lambda *args: next(candidates))
    monkeypatch.setattr(theta, "invariant_multiplicity", lambda *args: 2)
    assert holomorphic_invariants.__wrapped__("2T", 2) == (f, g)


_RHO_SQUARED = {RAT: (0, 0), SQRT2: (2, 0), GOLDEN: (1, 1)}  # rho^2 = p + q rho


def _complex_mul(tag, u, v):
    """(re, im) times (re, im), each part an integer pair (a, b) = a + b rho."""
    p, q = _RHO_SQUARED[tag]
    ((a, b), (c, d)), ((e, f), (g, h)) = u, v
    # coefficients of 1, rho, rho^2 before reducing rho^2 = p + q rho
    re = (a * e - c * g, a * f + b * e - c * h - d * g, b * f - d * h)
    im = (a * g + c * e, a * h + b * g + c * f + d * e, b * h + d * f)
    return (re[0] + p * re[2], re[1] + q * re[2]), (im[0] + p * im[2], im[1] + q * im[2])


def test_rho_squared_is_read_off_the_pair_product():
    assert RHO_SQUARED == _RHO_SQUARED


def _flat_operands(tag):
    """Flat 4-tuples (re_a, re_b, im_a, im_b) of 1 to 300-bit integers; Z has
    no rho parts."""
    part = st.integers(1, 300).flatmap(lambda n: st.integers(-(2**n - 1), 2**n - 1))
    rho = part if tag != RAT else st.just(0)
    return st.tuples(part, rho, part, rho)


@pytest.mark.parametrize("tag", [RAT, SQRT2, GOLDEN])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_complex_product_matches_expansion_before_reduction(tag, data):
    u, v = data.draw(_flat_operands(tag)), data.draw(_flat_operands(tag))
    (ra, rb), (ia, ib) = _complex_mul(tag, (u[:2], u[2:]), (v[:2], v[2:]))
    assert theta._CMUL[tag](u, v) == (ra, rb, ia, ib)


def _complex_powers(tag, z, n):
    out = [((1, 0), (0, 0))]
    for _ in range(n):
        out.append(_complex_mul(tag, out[-1], z))
    return out


@pytest.mark.parametrize(
    "label, ell, shells",
    [("2T", 12, 4), ("2O", 8, 3), ("2I", 12, 2), ("2T", 0, 3), ("2O", 7, 2)],
)
def test_invariant_table_entries_are_per_point_sums(label, ell, shells):
    # entry (m, f_t . L_y) = sum over every x in O_(G,m) of f_t(y x / root):
    # a plain sum over the whole shell, without orbits or power chains
    tag = theta.FIELD_TAG[label]
    forms = holomorphic_invariants(label, ell)
    pool = theta._translate_pool()
    rows = []
    for m in range(1, shells + 1):
        doubled = [
            scaled_pairs(embed_coords(label, c).coords, 2)
            for c in enumerate_shell(label, m)
        ]
        sums = {}  # (t, y) -> complex sum of 2^l f_t at y (2x)
        for y, _ in pool:
            for x in doubled:
                moved = qmul_pairs(tag, y, x)
                z1p = _complex_powers(tag, moved[:2], ell)
                z2p = _complex_powers(tag, moved[2:], ell)
                for t, form in enumerate(forms):
                    acc = sums.get((t, y), ((0, 0), (0, 0)))
                    for (a, b), (ra, rb, ia, ib) in form.items():
                        term = _complex_mul(
                            tag, ((ra, rb), (ia, ib)), _complex_mul(tag, z1p[a], z2p[b])
                        )
                        acc = tuple(
                            (p[0] + q[0], p[1] + q[1]) for p, q in zip(acc, term)
                        )
                    sums[(t, y)] = acc
        row = []
        for t in range(len(forms)):
            for y, root in pool:
                # y (2x) = 2 root (y / root) x, and the form is 2^l f
                scale = Fraction(1, (4 * root) ** ell)
                row += [QuadElem(tag, *part) * scale for part in sums[(t, y)]]
        rows.append(tuple(row))
    assert theta_table(label, ell, shells).matrix == tuple(rows)


@pytest.mark.parametrize("label, ell, shells", [("2T", 4, 3), ("2O", 2, 2), ("2T", 3, 3)])
def test_full_table_entries_are_per_point_sums(label, ell, shells):
    basis = harm_basis(ell)
    rows = []
    for m in range(1, shells + 1):
        row = [rat(0)] * len(basis)
        for c in enumerate_shell(label, m):
            x = embed_coords(label, c).coords
            for i, poly in enumerate(map(oracles.as_fractions, basis)):
                for mono, coeff in poly.items():
                    term = rat(coeff)
                    for xk, e in zip(x, mono):
                        for _ in range(e):
                            term = term * xk
                    row[i] = row[i] + term
        rows.append(tuple(row))
    table = theta_table(label, ell, shells, kind="full")
    assert table.matrix == tuple(rows)
    if ell % 2:  # P(-x) = -P(x), and every shell is symmetric under -1
        assert table.is_zero()


def test_theta_rank_is_built_once_and_budget_checked_every_call(table_builds):
    desk = get_budget("desk")
    rank = theta_rank("2T", 8, 13, desk)
    assert rank >= 1
    with pytest.raises(ResourceBudgetError):
        theta_rank("2T", 8, 13, get_budget("small"))  # SMALL caps 2T at m = 12
    with pytest.raises(ResourceBudgetError):
        theta_rank("2T", 8, 13, Budget("tiny", max_enum_points=100))
    assert theta_rank("2T", 8, 13, desk) == rank
    assert table_builds == [("2T", (8,), 13)]
    # three degrees, one of them known: one build for the other two, and a
    # refusal of any degree comes before any build or lookup
    ranks = theta_ranks("2T", (6, 8, 12), 13, desk)
    assert ranks[8] == rank and ranks == {ell: theta_rank("2T", ell, 13) for ell in (6, 8, 12)}
    assert table_builds == [("2T", (8,), 13), ("2T", (6, 12), 13)]
    for ells in ((6, 8, 26), (26, 6, 8)):
        with pytest.raises(ResourceBudgetError):
            theta_ranks("2T", ells, 13, desk)  # DESK caps 2T at l = 24
    with pytest.raises(ResourceBudgetError):
        theta_ranks("2T", (14, 16, 18), 13, get_budget("small"))
    assert table_builds == [("2T", (8,), 13), ("2T", (6, 12), 13)]


@pytest.mark.parametrize(
    "label, ells, shells",
    [("2T", (6, 8, 12, 14, 16), 6), ("2O", (8, 12, 16), 4), ("2I", (12, 20), 3),
     # derived translates from two and from three basis translates, and nine
     # derived from one at every degree
     ("2T", (12, 24), 6), ("2I", (12, 20, 24), 4)],
)
def test_invariant_tables_match_the_per_degree_oracle(label, ells, shells):
    desk = get_budget("desk")
    tables = theta._invariant_tables(label, ells, shells, desk)
    assert list(tables) == list(ells)
    for ell in ells:
        # tuple equality: every field, column labels and matrix alike
        assert tables[ell] == oracles.invariant_table(label, ell, shells, desk)
        assert tables[ell] == theta._invariant_tables(label, (ell,), shells, desk)[ell]
        assert tables[ell] == theta_table(label, ell, shells)


@pytest.mark.parametrize("label, ells, shells, basis", [
    ("2I", (12, 20, 24), 4, (0,)), ("2T", (24,), 6, (0, 1, 2)), ("2T", (12,), 6, (0, 1)),
    ("2O", (12, 18, 20), 3, (1,))])
def test_only_the_basis_translates_are_evaluated(label, ells, shells, basis, monkeypatch):
    # with the plan warm, the one point map a batch builds per evaluated
    # translate is the work it does per representative
    desk = get_budget("desk")
    assert {theta._translate_plan(label, ell)[0] for ell in ells} == {basis}
    pool = theta._translate_pool()
    mapped = []
    point_map = theta._point_map

    def counting(lab, y):
        mapped.append(y)
        return point_map(lab, y)

    monkeypatch.setattr(theta, "_point_map", counting)
    tables = theta._invariant_tables(label, ells, shells, desk)
    assert mapped == [pool[j][0] for j in basis]
    for ell in ells:
        assert len(tables[ell].column_labels) == 2 * len(pool) * invariant_multiplicity(label, ell)


def test_a_plan_reproduces_the_value_vectors():
    # v(y_k) = sum_j (N_j / D) v(y_j), with each f_s(r(y)) summed on (re, im)
    # pairs by the plain product below, not by the tables' kernel
    def cadd(u, v):
        return tuple((p[0] + q[0], p[1] + q[1]) for p, q in zip(u, v))

    def as_pairs(c):
        return (c[0], c[1]), (c[2], c[3])

    pool = theta._translate_pool()
    for label, ell in (("2T", 12), ("2T", 24), ("2O", 18), ("2I", 20)):
        tag = theta.FIELD_TAG[label]
        forms = holomorphic_invariants(label, ell)

        def value(k):  # r(y) = (y0 + y1 i, y2 + y3 i) on integer pairs
            y = pool[k][0]
            z1p, z2p = _complex_powers(tag, y[:2], ell), _complex_powers(tag, y[2:], ell)
            out = []
            for form in forms:
                acc = ((0, 0), (0, 0))
                for (a, b), c in form.items():
                    acc = cadd(acc, _complex_mul(tag, as_pairs(c),
                                                 _complex_mul(tag, z1p[a], z2p[b])))
                out.append(acc)
            return out

        basis, derived = theta._translate_plan(label, ell)
        assert len(basis) <= len(forms)
        assert sorted(basis + tuple(k for k, _, _ in derived)) == list(range(len(pool)))
        for k, den, terms in derived:
            assert den >= 1 and all(j in basis and any(n) for j, n in terms)
            for s, v in enumerate(value(k)):
                combined = ((0, 0), (0, 0))
                for j, n in terms:
                    combined = cadd(combined, _complex_mul(tag, as_pairs(n), value(j)[s]))
                assert combined == tuple((den * a, den * b) for a, b in v)


def test_a_wrong_derived_coefficient_is_caught(table_builds, monkeypatch):
    # the last derived translate's first coefficient beta one too large
    plan = theta._translate_plan

    def corrupted(label, ell):
        basis, derived = plan(label, ell)
        k, den, ((j, n), *rest) = derived[-1]
        off = (j, (n[0] + den,) + n[1:])
        return basis, derived[:-1] + ((k, den, (off, *rest)),)

    monkeypatch.setattr(theta, "_translate_plan", corrupted)
    with pytest.raises(AssertionError,
                       match=r"^2I deg 12: translate 9 differs from its derived sum$"):
        theta._invariant_tables("2I", (12,), 2, get_budget("desk"))
    result = verify.run_check("theta-vanishing", get_budget("desk"))
    assert result.status == "ERROR"
    assert result.details == (
        "AssertionError in theta._certify_derived: "
        "2T deg 6: translate 9 differs from its derived sum")


def test_invariant_tables_with_a_vanishing_degree():
    # m_l = 0 at l = 2 and 10 for 2O: an empty table beside a full one
    desk = get_budget("desk")
    tables = theta._invariant_tables("2O", (2, 8, 10), 3, desk)
    for ell in (2, 10):
        assert tables[ell].column_labels == () and tables[ell].matrix == ((),) * 3
    assert tables[8] == oracles.invariant_table("2O", 8, 3, desk)


def test_an_all_vanishing_batch_enumerates_no_ball(ball_calls, table_builds, monkeypatch):
    # every m_l is 0: no translate pool, point map or ball is made
    monkeypatch.setattr(theta, "_translate_pool", None)
    monkeypatch.setattr(theta, "_point_map", None)
    tables = theta._invariant_tables("2I", (6, 8), 4, get_budget("desk"))
    assert [t.rank() for t in tables.values()] == [0, 0]
    assert theta_ranks("2I", (2, 6, 8), 4) == {2: 0, 6: 0, 8: 0}
    assert ball_calls == []


def test_a_short_invariant_basis_is_refused(monkeypatch):
    # 2O has one invariant form of degree 8; a Molien count of 2 must fail
    monkeypatch.setattr(theta, "invariant_multiplicity", lambda *args: 2)
    with pytest.raises(AssertionError,
                       match="found 1 holomorphic invariants for 2O deg 8, Molien predicts 2"):
        holomorphic_invariants.__wrapped__("2O", 8)


def test_an_irrational_rank_one_column_is_refused():
    # entries 1 and sqrt2 span rank 1, but their ratio is not rational
    table = theta.ThetaTable("2O", 8, 2, "invariant", ("f",),
                             [[sqrt2_elem(1)], [sqrt2_elem(0, 1)]])
    with pytest.raises(AssertionError, match="rank-1 column failed to rationalize"):
        table.normalized_generator()


def test_a_translate_of_non_square_norm_is_refused(monkeypatch):
    # 1 + i has norm 2, not a square: refused with or without python -O
    monkeypatch.setattr(theta, "_POOL_GENERATORS", (((1, 0), (1, 0), (0, 0), (0, 0)),))
    theta._translate_pool.cache_clear()
    with pytest.raises(AssertionError, match=r"translate \(1, 1, 0, 0\) has norm 2, not a square"):
        theta._translate_pool()
    theta._translate_pool.cache_clear()


def test_theta_vanishing_check_builds_once_per_label(table_builds):
    assert verify.run_check("theta-vanishing", get_budget("desk")).passed
    assert table_builds == [
        (label, in_t + not_in_t, 6)
        for label, (in_t, not_in_t) in verify.THETA_SAMPLES.items()
    ]


def test_theta_tables_read_the_orbit_representatives_of_the_cached_shells(
        ball_calls, table_builds, monkeypatch):
    # the ranks decompose each shell of the ball once; a later table on the
    # same ball reads those representatives and decomposes nothing
    theta_ranks("2O", (8,), 6)
    decomposed = []
    decompose = orders.orbit_decompose

    def counting(shell):
        decomposed.append(shell.m)
        return decompose(shell)

    monkeypatch.setattr(orders, "orbit_decompose", counting)
    assert theta_table("2O", 8, 5).rank() == 1
    assert decomposed == []
    assert enumerate_shell("2O", 3) is enumerate_shell("2O", 3)
    assert ball_calls == [("2O", 6)]


def test_the_cached_ball_holds_records_and_no_point_tuples(ball_calls, table_builds):
    # the ranks read orbit representatives only: each cached shell keeps one
    # block of 16-byte records of its half-ball H_m, 8 bytes per point of the
    # shell, and nothing decodes it for the cache
    theta_ranks("2I", (12,), 6)
    assert ball_calls == [("2I", 6)]
    top, shells = orders._BALL_CACHE["2I"]
    assert top == 6 and [sh.m for sh in shells] == list(range(1, 7))
    for sh in shells:
        assert type(sh.records) is bytes
        assert len(sh.records) == 8 * len(sh) == 8 * shell_count_formula("2I", sh.m)
        assert set(vars(sh)) == {"group_label", "m", "records", "orbit_reps"}


def test_theta_vanishing_check_names_the_degree(table_builds, monkeypatch):
    # l = 6 is not in T(2T), so claiming rank 0 there must fail
    monkeypatch.setattr(verify, "THETA_SAMPLES", {"2T": ((2, 4, 6), ())})
    result = verify.run_check("theta-vanishing", get_budget("desk"))
    assert not result.passed
    assert result.details == "2T l=6: rank 1 != 0"


def test_theta_generators_check_names_the_space(monkeypatch):
    # one coefficient of Delta + 64 Delta(2z) off by one must fail Theta(2O,8)
    series = verify.qseries

    def corrupted(name, terms):
        out = series(name, terms)
        return out[:3] + [out[3] + 1] + out[4:] if name == "DeltaPlus64Delta2" else out

    monkeypatch.setattr(verify, "qseries", corrupted)
    result = verify.run_check("theta-generators", get_budget("desk"))
    assert not result.passed
    assert result.details.startswith("Theta(2O,8) generator ")
    assert "Theta(2I,12)" not in result.details


def test_theta_generators_check_names_the_2i_space(monkeypatch):
    # one coefficient of E4 Delta off by one must fail Theta(2I,12) alone
    series = verify.qseries

    def corrupted(name, terms):
        out = series(name, terms)
        return out[:3] + [out[3] + 1] + out[4:] if name == "E4Delta" else out

    monkeypatch.setattr(verify, "qseries", corrupted)
    result = verify.run_check("theta-generators", get_budget("desk"))
    assert result.status == "FAIL"
    assert result.details.startswith("Theta(2I,12) generator ")
    assert "Theta(2O,8)" not in result.details


def test_zero_table_for_degree_in_strength():
    tbl = theta_table("2T", 2, 5, kind="full")
    assert tbl.is_zero()
    assert len(tbl.column_labels) == 9
    assert tbl.rank() == 0
    assert len(theta_table("2T", 2, 5).column_labels) == 0  # invariant kind, m_l = 0


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
    assert theta_rank("2O", 8, 8) <= harmonic_invariant_dim("2O", 8) == 9
    assert theta_rank("2I", 12, 5) <= harmonic_invariant_dim("2I", 12) == 13
    for ell in range(2, 17, 2):
        assert theta_rank("2T", ell, 10) <= harmonic_invariant_dim("2T", ell)


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
    ],
    ids=["fraction", "sqrt2", "golden"],
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
    basis = [oracles.as_fractions(h) for h in harm_basis(ell)]
    mats = right_multiplication_matrices(label)
    for m in (1, 2):
        shell = enumerate_shell(label, m)
        pts = [embed_coords(label, c) for c in shell]
        mat = mats[rng.randrange(len(mats))]
        moved = [
            embed_coords(label, tuple(
                sum(c[i] * mat[i][j] for i in range(4)) for j in range(4)
            ))
            for c in shell
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
    assert invariant_dimensions(label, (2, 4, 6)) == {
        ell: harmonic_invariant_dim(label, ell) for ell in (2, 4, 6)
    }


def test_reynolds_dimension_coefficients_2T():
    # the coefficient route on the harmonic basis is the oracle for 2T
    assert invariant_dimensions("2T", (2, 4, 6)) == {
        ell: oracles.invariant_dimension_coefficients("2T", ell) for ell in (2, 4, 6)
    }
    assert invariant_dimensions("2O", (4,)) == {4: harmonic_invariant_dim("2O", 4)}


_MINUS_X4_SQUARED = {(2, 0, 0, 0): rat(-1), (0, 2, 0, 0): rat(-1), (0, 0, 2, 0): rat(-1)}


def _mod_r2(poly):
    """poly with x4^2 replaced by -(x1^2 + x2^2 + x3^2) until no x4-degree
    exceeds 1."""
    while True:
        high = [mono for mono in poly if mono[3] > 1]
        if not high:
            return poly
        for mono in high:
            rest = {mono[:3] + (mono[3] - 2,): poly.pop(mono)}
            poly = oracles.poly4_add(poly, oracles.poly4_mul(rest, _MINUS_X4_SQUARED))


@pytest.mark.parametrize("label", ["2T", "2O", "2I"])
def test_quotient_images_match_naive_expansion(label):
    tag = theta.FIELD_TAG[label]
    rho2 = theta.PAIR_MUL[tag](0, 1, 0, 1)
    for x in random.Random(label).sample(build_group(label).doubled, 3):
        rows = left_matrix_pairs(x)
        cols = tuple(zip(*rows))
        # (xA)_j = sum_i x_i A[i][j] with A = 2 M, as polynomials over QuadElem
        linear = [
            {tuple(int(k == i) for k in range(4)): QuadElem(tag, *rows[i][j])
             for i in range(4) if rows[i][j] != (0, 0)}
            for j in range(4)
        ]
        for d, level in enumerate(oracles._quotient_images(rho2, cols, 4)):
            basis = quotient_monomials(d)
            for mono, (va, vb) in zip(basis, level):
                naive = {(0, 0, 0, 0): rat(1)}
                for j, e in enumerate(mono):
                    for _ in range(e):
                        naive = oracles.poly4_mul(naive, linear[j])
                got = {m: QuadElem(tag, a, b) for m, a, b in zip(basis, va, vb) if a or b}
                assert _mod_r2(naive) == got


@pytest.mark.parametrize("label", ["2T", "2O", "2I"])
def test_binary_route_matches_hom_quotient_oracle(label):
    # the binary forms V_l against Hom_l mod r^2, odd degrees included
    ells = range(11)
    assert invariant_dimensions(label, ells) == oracles.hom_quotient_dimensions(label, ells)


def test_reynolds_batches_match_single_degrees():
    for label in ("2T", "2O", "2I"):
        assert invariant_dimensions(label, (4, 5)) == {
            4: invariant_dimensions(label, (4,))[4], 5: invariant_dimensions(label, (5,))[5]
        }
    # a mixed batch sums over all of G; l = 6 is nonzero for 2T
    assert invariant_dimensions("2T", (5, 6)) == {5: 0, 6: 7}
    assert invariant_dimensions("2T", (1, 3, 5)) == {1: 0, 3: 0, 5: 0}


def test_harmonic_molien_check_names_reynolds(reynolds_calls, monkeypatch):
    # a series off by one at (2O, 8) must fail the Reynolds comparison
    dim = verify.harmonic_invariant_dim
    monkeypatch.setattr(
        verify, "harmonic_invariant_dim",
        lambda label, ell: dim(label, ell) + ((label, ell) == ("2O", 8)),
    )
    result = verify.run_check("harmonic-molien", get_budget("desk"))
    assert not result.passed
    assert result.details == "2O l=8: Reynolds 9 != 10"
    assert reynolds_calls == [(label, (2, 4, 6, 8, 10)) for label in ("2T", "2O", "2I")]


def test_vanishing_entries_small_full_tables():
    for label, ell, m in (("2T", 10, 4), ("2O", 2, 3), ("2I", 2, 2)):
        assert theta_table(label, ell, m, kind="full").is_zero()


def test_nonvanishing_even_degrees():
    for label, ell in (("2T", 6), ("2T", 8), ("2O", 8), ("2I", 12)):
        assert theta_rank(label, ell, 6) >= 1


def test_hypothesis_reports():
    # the dimension series is the Molien closed form; the ranks reach it
    assert theta_rank("2T", 12, 8) == molien_closed_form("2T", 12)[12] == 2
    assert theta_rank("2O", 8, 6) == molien_closed_form("2O", 8)[8] == 1


def test_dimension_hypotheses_row_marks_a_rank_below_the_series(monkeypatch):
    # every rank claimed as 1: only Theta(2T, 12), of dimension 2, falls short
    monkeypatch.setattr(verify, "theta_ranks",
                        lambda label, ells, shells, budget: dict.fromkeys(ells, 1))
    result = verify.run_check("dimension-hypotheses", get_budget("desk"))
    assert result.status == "INFO"
    rows = [f"2T l={ell}: rank>=1 vs proven dim {d} ({mark})" for ell, d, mark in (
        (6, 1, "agrees"), (8, 1, "agrees"), (12, 2, "rank below conjecture"), (14, 1, "agrees"))]
    rows += [f"{label} l={ell}: rank>=1 vs conjectured dim 1 (agrees)"
             for label, ells in (("2O", (8, 12, 16, 18, 20)), ("2I", (12, 20, 24)))
             for ell in ells]
    assert result.details == "; ".join(rows)


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


def test_a_theta_call_ranks_its_table_once(monkeypatch, capsys):
    # the rank in the output and the rank-1 generator read one exact rank
    calls = []
    rank = theta.exact_rank
    monkeypatch.setattr(theta, "exact_rank", lambda rows: calls.append(rows) or rank(rows))
    assert cli.main(["theta", "--group", "2T", "--ell", "8", "--shells", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 1 and payload["generator"][:2] == ["1", "16"]
    assert len(calls) == 1
