import json
from collections import Counter
from fractions import Fraction

import pytest

from quatdesign.budget import get_budget
from quatdesign.exactnum import rat
from quatdesign import groups, strength, verify
from quatdesign.cli import main
from quatdesign.groups import build_group
from quatdesign.quat import Quaternion
from quatdesign.strength import (
    StrengthReport,
    class_sum_series,
    cyclic_odd_part,
    dihedral_even_part,
    group_strength,
    harmonic_strength,
    molien_closed_form,
    molien_series,
    pair_sum_test,
    pair_sum_tests_bulk,
)

import oracles
from oracles import (
    alpha, chebyshev_u_value, half_set, omega, orbit, pair_sum_value, pair_sums, points_gram, qpow,
    scaled_pairs, unit_group,
)

EXPECTED_EVEN = {
    "2T": (2, 4, 10),
    "2O": (2, 4, 6, 10, 14, 22),
    "2I": (2, 4, 6, 8, 10, 14, 16, 18, 22, 26, 28, 34, 38, 46, 58),
}


@pytest.mark.parametrize("label", ["2T", "2O", "2I"])
def test_even_strength_sets(label):
    report = group_strength(label, 60)
    assert report.even_members == EXPECTED_EVEN[label]
    assert report.all_odd_in


@pytest.mark.parametrize("label", ["2T", "2O", "2I", "C4", "C6", "D2n3", "D2n5"])
def test_molien_from_points_equals_closed_form(label)-> None:
    n = 40
    assert molien_series(build_group(label), n) == molien_closed_form(label, n)


def test_molien_2T_low_coefficients():
    assert molien_series(build_group("2T"), 14) == (
        1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 2, 0, 1,
    )


def test_molien_2I_landmarks():
    # [u^30] = 1: only the numerator term of (1+u^30)/((1-u^12)(1-u^20))
    # contributes, since 12a + 20b = 30 has no solutions
    coeffs = molien_series(build_group("2I"), 30)
    assert coeffs[12] == 1 and coeffs[20] == 1 and coeffs[30] == 1
    assert all(coeffs[k] == 0 for k in range(2, 11, 2))


def test_pair_sum_examples():
    t = build_group("2T")
    assert pair_sum_test(t.gram, 2)
    assert not pair_sum_test(t.gram, 6)
    assert pair_sum_value(t.gram, 6) == rat(576)  # |G|^2 * [u^6] Psi
    assert pair_sum_test(build_group("2O").gram, 22)


@pytest.mark.parametrize("label", ["2T", "2O", "2I"])
def test_route_consistency(label):
    group = build_group(label)
    series = molien_series(group, 24)
    for ell in range(2, 25, 2):
        assert pair_sum_test(group.gram, ell) == (series[ell] == 0)


@pytest.mark.parametrize("label", ["2T", "2O", "2I", "C5", "D2n3"])
def test_pair_sums_match_the_recurrence_from_degree_zero(label):
    group = build_group(label)
    # the group's own pass and a pass over a point list with denominators 10
    for gram in (group.gram, points_gram(orbit(Quaternion(Fraction(3, 5), Fraction(4, 5), 0, 0),
                                               group))):
        dist = list(gram.distribution(gram.pair_counts()).items())
        ells = (7, 0, 30, 1, 2, 12)  # unsorted, with both starting degrees
        want = {ell: sum((chebyshev_u_value(ell, s) * count for s, count in dist), rat(0))
                for ell in ells}
        got = pair_sums(gram, ells)
        assert got == want and list(got) == list(ells)
        assert pair_sums(gram, ()) == {}
        bulk = pair_sum_tests_bulk(gram, range(31))
        assert bulk == {ell: sum((chebyshev_u_value(ell, s) * count for s, count in dist),
                                 rat(0)).is_zero() for ell in range(31)}


def test_pair_sums_reject_negative_degrees():
    group = build_group("2T")
    with pytest.raises(IndexError):
        pair_sums(group.gram, (2, -1))
    with pytest.raises(IndexError):
        pair_sum_test(group.gram, -1)
    with pytest.raises(IndexError):
        pair_sum_value(group.gram, -2)
    with pytest.raises(IndexError):
        pair_sum_tests_bulk(points_gram(oracles.elements(group)), range(-1, 5))


def test_pair_sum_rejects_non_unit_points():
    with pytest.raises(ValueError):
        pair_sum_test(points_gram([Quaternion(2, 0, 0, 0)]), 2)


def test_point_strength_rejects_degenerate_sets():
    with pytest.raises(ValueError, match="empty"):
        harmonic_strength(points_gram([]), 6)
    with pytest.raises(ValueError, match="unit sphere"):
        harmonic_strength(points_gram([Quaternion(2, 0, 0, 0)]), 6)


def test_molien_tripwires():
    # [u^1] = (1/|G|) sum 2 eps_1: sqrt2 for {alpha}, 1/2 for {1, omega}
    with pytest.raises(AssertionError, match="irrational"):
        molien_series(unit_group("a", [alpha()]), 2)
    with pytest.raises(AssertionError, match="not a dimension"):
        molien_series(unit_group("w", [Quaternion(1, 0, 0, 0), omega()]), 2)


def test_class_sum_series_on_integer_pairs():
    # 1/(1 - u)^2 = sum (k + 1) u^k; 1/(1 + u^2) = 1 - u^2 + u^4 - ...
    assert class_sum_series("RAT", [(((1, 0), (-2, 0), (1, 0)), 1)], 1, (1,), 3) == (1, 2, 3, 4)
    classes = [(((1, 0), (-2, 0), (1, 0)), 1), (((1, 0), (0, 0), (1, 0)), 1)]
    assert class_sum_series("SQRT2", classes, 2, (1, 0, 1), 4) == (1, 1, 2, 3, 4)


def test_molien_needs_only_2_eps_1_integral():
    # a conjugate of C4: 2 eps is not integral, 2 eps_1 is, and the class
    # sums over 2 eps_1 give the series of C4
    g = Quaternion(0, Fraction(3, 5), Fraction(4, 5), 0)
    with pytest.raises(ValueError, match="not integral"):
        scaled_pairs(g.coords, 2)
    classes = Counter(scaled_pairs((qpow(g, k).x1,), 2)[0] for k in range(4))
    series = class_sum_series("RAT", [(((1, 0), (-a, -b), (1, 0)), count)
                                      for (a, b), count in classes.items()], 4, (1,), 8)
    assert series == (1, 0, 1, 0, 3, 0, 3, 0, 5) == molien_closed_form("C4", 8)


def test_molien_negative_degree_is_rejected():
    with pytest.raises(IndexError):
        molien_series(build_group("2T"), -1)
    with pytest.raises(IndexError):
        molien_closed_form("2T", -1)


def test_cyclic_strengths():
    for n in (2, 3, 4, 5, 6, 8, 10):
        report = group_strength(f"C{n}", 20)
        assert report.even_members == ()
        if n % 2 == 0:
            assert report.all_odd_in
        else:
            assert not report.all_odd_in
            assert set(report.odd_members) == cyclic_odd_part(n, 20)


def test_dihedral_strengths():
    for n in (2, 3, 4, 5):
        report = group_strength(f"D2n{n}", 20)
        assert set(report.even_members) == dihedral_even_part(n, 20)
        assert report.all_odd_in


def test_dihedral_even_part_values():
    assert dihedral_even_part(4, 20) == {2, 6}
    assert dihedral_even_part(2, 20) == {2}
    assert dihedral_even_part(6, 20) == {2, 6, 10}


def tetra_gap_check(weights, n: int) -> set[int]:
    """Gaps of the numerical semigroup generated by `weights`, up to n."""
    reachable = [False] * (n + 1)
    reachable[0] = True
    for w in weights:
        for k in range(w, n + 1):
            if reachable[k - w]:
                reachable[k] = True
    return {k for k in range(1, n + 1) if not reachable[k]}


def test_gap_sets():
    assert tetra_gap_check((3, 4), 30) == {1, 2, 5}
    # octahedral doubled structure: [u^{2k}] Psi_2O = 0 iff k unreachable
    # from <4, 6> and k - 9 unreachable from <4, 6>
    reach = set(range(201)) - tetra_gap_check((4, 6), 200)
    zero_ks = {
        k for k in range(1, 30)
        if k not in reach and (k - 9 < 0 or k - 9 not in reach)
    }
    assert {2 * k for k in zero_ks if 2 * k <= 22} == set(EXPECTED_EVEN["2O"])
    # icosahedral: generators <6, 10>, numerator shift 15
    reach = set(range(201)) - tetra_gap_check((6, 10), 200)
    zero_ks = {
        k for k in range(1, 40)
        if k not in reach and (k - 15 < 0 or k - 15 not in reach)
    }
    assert {2 * k for k in zero_ks if 2 * k <= 58} == set(EXPECTED_EVEN["2I"])


@pytest.mark.parametrize("label", ["2T", "2O"])
def test_half_set_even_strength_matches(label):
    group = build_group(label)
    half = half_set(oracles.elements(group))
    report_half = harmonic_strength(points_gram(half), 24)
    report_full = group_strength(label, 24)
    full_evens = {e for e in report_full.even_members if e <= 24}
    assert set(report_half.even_members) == full_evens


def test_report_shape():
    report = group_strength("2O", 30)
    assert isinstance(report, StrengthReport)
    blob = report.to_json()
    assert blob["label"] == "2O"
    assert blob["even_members"] == [2, 4, 6, 10, 14, 22]


def test_molien_closed_form_families():
    c4 = molien_closed_form("C4", 10)
    assert c4[:5] == (1, 0, 1, 0, 3)
    d4 = molien_closed_form("D2n2", 8)
    assert d4[2] == 0 and d4[4] == 2
    for label in ("C0", "C-3", "D2n0", "Q8"):
        with pytest.raises(ValueError):
            molien_closed_form(label, 8)


def test_group_pair_sums_read_the_group_not_its_label():
    q8 = oracles.elements(build_group("Q8"))
    for label in ("2T", "Q8 copy"):
        group = unit_group(label, q8)
        assert not pair_sum_test(group.gram, 4)  # Q8 is a 3-design; 2T is a 4-design
        assert pair_sum_value(group.gram, 4) == pair_sum_value(points_gram(q8), 4)


def test_point_list_strength_scans_pair_distances_once(monkeypatch, tmp_path, capsys):
    # strength --points on 2O's elements: one Gram pass, read by every degree
    path = tmp_path / "2o.json"
    path.write_text(json.dumps(build_group("2O").to_json()))
    scans = []
    scan = groups._gram

    def counting(tag, scale, pairs):
        scans.append(1)
        return scan(tag, scale, pairs)

    monkeypatch.setattr(groups, "_gram", counting)
    assert main(["strength", "--points", str(path), "--max", "30", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_odd_in"]
    assert report["even_members"] == list(group_strength("2O", 30).even_members)
    assert len(scans) == 1


def test_a_nonzero_odd_coefficient_of_an_antipodal_group_is_refused(monkeypatch):
    # -1 lies in 2T, so its u^3 coefficient must vanish
    monkeypatch.setattr(strength, "molien_series",
                        lambda group, n: (1,) + tuple(int(k == 3) for k in range(1, n + 1)))
    with pytest.raises(AssertionError, match="antipodal set with nonzero odd pair sum at l=3"):
        harmonic_strength(build_group("2T"), 6)


def test_a_failed_direct_odd_test_of_an_antipodal_group_is_refused(monkeypatch):
    monkeypatch.setattr(strength, "pair_sum_test", lambda points, ell: ell != 5)
    with pytest.raises(AssertionError, match="antipodal set fails direct odd test l=5"):
        harmonic_strength(build_group("2T"), 6)


def test_strength_molien_check_names_the_group(monkeypatch):
    # one coefficient off at (2O, u^8) must fail the closed-form comparison
    series = verify.molien_series

    def corrupted(group, n):
        out = series(group, n)
        return out[:8] + (out[8] + 1,) + out[9:] if group.label == "2O" else out

    monkeypatch.setattr(verify, "molien_series", corrupted)
    result = verify.run_check("strength-molien", get_budget("desk"))
    assert not result.passed
    assert result.details == "2O: Molien from points != closed form"


def test_dihedral_cyclic_check_names_the_group(monkeypatch):
    # D2n4 reported without its even member 2 must fail the dihedral formula
    strength_of = verify.group_strength

    def corrupted(label, n):
        report = strength_of(label, n)
        if label == "D2n4":
            report = report._replace(even_members=report.even_members[1:])
        return report

    monkeypatch.setattr(verify, "group_strength", corrupted)
    result = verify.run_check("dihedral-cyclic", get_budget("desk"))
    assert not result.passed
    assert result.details == "D2n4: even part (6,) != [2, 6]"
