from fractions import Fraction

import pytest

from quatdesign.exactnum import rat
from quatdesign.groups import UnitGroup, alpha, build_group, half_set, omega
from quatdesign.quat import Quaternion
from quatdesign import strength
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
    pair_sum_value,
    pair_sum_tests_bulk,
    pair_sums,
)

from oracles import chebyshev_u_value

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
    assert pair_sum_test(t, 2)
    assert not pair_sum_test(t, 6)
    assert pair_sum_value(t, 6) == rat(576)  # |G|^2 * [u^6] Psi
    assert pair_sum_test(build_group("2O"), 22)


@pytest.mark.parametrize("label", ["2T", "2O", "2I"])
def test_route_consistency(label):
    group = build_group(label)
    series = molien_series(group, 24)
    for ell in range(2, 25, 2):
        assert pair_sum_test(group, ell) == (series[ell] == 0)


@pytest.mark.parametrize("label", ["2T", "2O", "2I", "C5", "D2n3"])
def test_pair_sums_match_the_recurrence_from_degree_zero(label):
    group = build_group(label)
    dist = list(group.gram.distribution().items())
    ells = (7, 0, 30, 1, 2, 12)  # unsorted, with both starting degrees
    want = {ell: sum((chebyshev_u_value(ell, s) * count for s, count in dist), rat(0))
            for ell in ells}
    got = pair_sums(dist, ells)
    assert got == want and list(got) == list(ells)
    assert pair_sums(dist, ()) == {}
    bulk = pair_sum_tests_bulk(group.elements, range(31))
    assert bulk == {ell: sum((chebyshev_u_value(ell, s) * count for s, count in dist),
                             rat(0)).is_zero() for ell in range(31)}


def test_pair_sum_rejects_non_unit_points():
    with pytest.raises(ValueError):
        pair_sum_test([Quaternion(2, 0, 0, 0)], 2)


def test_point_strength_rejects_degenerate_sets():
    with pytest.raises(ValueError, match="empty"):
        harmonic_strength([], 6)
    with pytest.raises(ValueError, match="unit sphere"):
        harmonic_strength([Quaternion(2, 0, 0, 0)], 6)


def test_molien_tripwires():
    # [u^1] = (1/|G|) sum 2 eps_1: sqrt2 for {alpha}, 1/2 for {1, omega}
    with pytest.raises(AssertionError, match="irrational"):
        molien_series(UnitGroup("a", [alpha()]), 2)
    with pytest.raises(AssertionError, match="not a dimension"):
        molien_series(UnitGroup("w", [Quaternion(1, 0, 0, 0), omega()]), 2)


def test_class_sums_need_coefficients_in_z_rho():
    # 1/(1 - u/2) has no integer-pair recurrence
    with pytest.raises(ValueError, match="not integral"):
        class_sum_series([((1, Fraction(-1, 2)), 1)], 1, (1,), 3)


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
    half = half_set(group.elements)
    report_half = harmonic_strength(half, 24)
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
    q8 = build_group("Q8").elements
    for label in ("2T", "Q8 copy"):
        group = UnitGroup(label, q8)
        assert not pair_sum_test(group, 4)  # Q8 is a 3-design; 2T is a 4-design
        assert pair_sum_value(group, 4) == pair_sum_value(q8, 4)


def test_point_list_strength_scans_pair_distances_once(monkeypatch):
    points = list(build_group("2O").elements)
    scans = []
    scan = strength.pair_distance_distribution

    def counting(pts):
        scans.append(1)
        return scan(pts)

    monkeypatch.setattr(strength, "pair_distance_distribution", counting)
    report = harmonic_strength(points, 30)
    assert report.all_odd_in
    assert report.even_members == group_strength("2O", 30).even_members
    assert len(scans) == 1
