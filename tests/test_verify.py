"""The verification runner: every check gives one row, whatever it does.

Each blocking check can fail on one corrupted input and names what failed;
a check that is over budget or raises costs its own row only.
"""

import copy
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from quatdesign import cli, lpbound, orders, verify
from quatdesign.budget import get_budget
from quatdesign.exactnum import rat
from quatdesign.groups import UnitGroup
from quatdesign.orders import IntegrityError

import oracles
from oracles import alpha, conj, neg, omega, unit_group

DESK = get_budget("desk")

_IDS = [cid for cid, _ in verify.ALL_CHECKS]


# -- negative controls: one corrupted input fails the check, which names it

def test_groups_check_names_the_unit_relation(monkeypatch):
    # alpha has order 8, so standing in for omega it breaks omega^3 = 1
    monkeypatch.setattr(verify, "OMEGA", verify.ALPHA)
    result = verify.run_check("groups", DESK)
    assert result.status == "FAIL"
    assert result.details == "omega^3 != 1"


def _route_2t(monkeypatch, group):
    build = verify.build_group
    monkeypatch.setattr(verify, "build_group",
                        lambda label: group if label == "2T" else build(label))


def test_groups_check_names_a_group_not_closed(monkeypatch):
    # 2T with +-w and +-conj(w) traded for +-a and +-conj(a), a = (1 + i)/sqrt2,
    # tagged SQRT2: still 24 antipodal units closed under inverses, with
    # integral 2 eps, but a j = (j + k)/sqrt2 is not among them
    w, a = omega(), alpha()
    traded = {w, neg(w), conj(w), neg(conj(w))}
    elements = [e for e in oracles.elements(verify.build_group("2T")) if e not in traded]
    group = unit_group("2T", elements + [a, neg(a), conj(a), neg(conj(a))])
    assert (group.tag, len(group), group.is_antipodal(), group.contains_inverse_of_all(),
            group.is_closed()) == ("SQRT2", 24, True, True, False)
    _route_2t(monkeypatch, group)
    result = verify.run_check("groups", DESK)
    assert result.status == "FAIL"
    assert result.details == "2T not closed under multiplication"


# An antipodal set has even size, and a closed finite set of units is a group,
# so antipodal and inverse-closed: no set of quaternions fails the other three
# group guards alone.  The real 2T answers every question but one.
@pytest.mark.parametrize("method, answer, details", [
    ("__len__", 23, "|2T| = 23 != 24"),
    ("is_antipodal", False, "2T not antipodal"),
    ("contains_inverse_of_all", False, "2T not inverse-closed"),
])
def test_groups_check_names_a_wrong_group_property(monkeypatch, method, answer, details):
    corrupted = type("Corrupted2T", (UnitGroup,), {method: lambda self: answer})
    g = verify.build_group("2T")
    _route_2t(monkeypatch, corrupted("2T", g.tag, g.doubled, g.tags))
    result = verify.run_check("groups", DESK)
    assert result.status == "FAIL"
    assert result.details == details


@pytest.mark.parametrize("name, stand_in, details", [
    ("alpha", "omega", "alpha^4 != -1"),  # omega^4 = omega
    ("zeta", "alpha", "zeta^5 != -1"),    # alpha^5 = -alpha
])
def test_groups_check_names_each_unit_relation(monkeypatch, name, stand_in, details):
    monkeypatch.setattr(verify, name.upper(), getattr(verify, stand_in.upper()))
    result = verify.run_check("groups", DESK)
    assert result.status == "FAIL"
    assert result.details == details


def test_strength_direct_check_names_the_degree(monkeypatch):
    # one pair-sum test of 2I claims l = 12 vanishes; 12 is not in T(2I)
    tests_bulk = verify.pair_sum_tests_bulk

    def corrupted(gram, ells):
        out = tests_bulk(gram, ells)
        return {**out, 12: True} if gram is verify.build_group("2I").gram else out

    monkeypatch.setattr(verify, "pair_sum_tests_bulk", corrupted)
    result = verify.run_check("strength-direct", DESK)
    assert result.status == "FAIL"
    assert result.details == "2I l=12: routes disagree"


def test_lp_certificates_check_names_the_bound(monkeypatch):
    monkeypatch.setitem(verify.EXPECTED_FULL_BOUNDS, "F2O", 47)
    result = verify.run_check("lp-certificates", DESK)
    assert result.status == "FAIL"
    assert result.details == "F2O: bound 48 != 47"


def test_equality_cases_check_names_the_distribution(monkeypatch):
    # one distance count of 2O off by one: 17 orthogonal elements, not 18
    distribution = verify.distance_distribution

    def corrupted(gram, row):
        out = dict(distribution(gram, row))
        out[rat(0)] -= 1
        return out

    monkeypatch.setattr(verify, "distance_distribution", corrupted)
    result = verify.run_check("equality-cases", DESK)
    assert result.status == "FAIL"
    assert result.details.startswith("2O distance distribution {")
    assert "QuadElem(SQRT2, 0): 17" in result.details


def test_strength_direct_check_names_an_odd_degree(monkeypatch):
    # one pair-sum test of 2O claims l = 5 is not in its strength; -1 lies in
    # 2O, so every odd pair sum vanishes
    tests_bulk = verify.pair_sum_tests_bulk

    def corrupted(gram, ells):
        out = tests_bulk(gram, ells)
        return {**out, 5: False} if gram is verify.build_group("2O").gram else out

    monkeypatch.setattr(verify, "pair_sum_tests_bulk", corrupted)
    result = verify.run_check("strength-direct", DESK)
    assert result.status == "FAIL"
    assert result.details == "2O odd l=5: pair sum nonzero"


def _corrupt_test_function(monkeypatch, corrupted_build):
    build = verify.build_test_function
    monkeypatch.setattr(verify, "build_test_function",
                        lambda name, override=None: corrupted_build(build, name, override))


def test_lp_certificates_check_names_a_failed_certificate(monkeypatch):
    # F2O with a positive coefficient at l = 8, off its design set
    _corrupt_test_function(monkeypatch, lambda build, name, override: build(
        name, override or ({8: Fraction(1, 1000)} if name == "F2O" else None)))
    result = verify.run_check("lp-certificates", DESK)
    assert result.status == "FAIL"
    # the coefficient also moves the claimed roots, which the report names next
    assert result.details.startswith(
        "F2O: certificate failed ('off-design coefficient f_8 = 1/1000 is positive', "
        "'claimed root 0 is not a root'")


def test_lp_certificates_check_names_an_unrejected_corruption(monkeypatch):
    # the corrupted F2T loses its override, so it is the certified F2T
    _corrupt_test_function(monkeypatch, lambda build, name, override: build(name))
    result = verify.run_check("lp-certificates", DESK)
    assert result.status == "FAIL"
    assert result.details == "corrupted F2T was not rejected at l=6"


def test_equality_cases_check_names_a_failed_equality_case(monkeypatch):
    # the report of 2I claims it is not a design
    check = verify.check_equality_case

    def corrupted(gram, tf):
        out = check(gram, tf)
        return out._replace(is_design=False) if gram is verify.build_group("2I").gram else out

    monkeypatch.setattr(verify, "check_equality_case", corrupted)
    result = verify.run_check("equality-cases", DESK)
    assert result.status == "FAIL"
    assert result.details.startswith("2I: equality case fails EqualityReport(")
    assert "is_design=False" in result.details


def test_equality_cases_check_names_an_angle_outside_the_certificate(monkeypatch):
    # the certified angles of F2O lose 0, the inner product of 18 pairs
    certify = lpbound.verify_certificate

    def corrupted(tf):
        out = certify(tf)
        return out._replace(angle_set=out.angle_set - {rat(0)}) if tf.name == "F2O" else out

    monkeypatch.setattr(lpbound, "verify_certificate", corrupted)
    result = verify.run_check("equality-cases", DESK)
    assert result.status == "FAIL"
    assert result.details == "2O: A(X) outside the certified angle set"


def test_equality_cases_check_names_a_group_not_distance_invariant(monkeypatch):
    # 2O with a Gram pass whose rows 1 and 2 trade one count between their
    # two largest values: the pair counts, the angle set, the pair sums and
    # the row of the first element are those of 2O, the rows are not equal
    group = verify.build_group("2O")
    gram = copy.copy(group.gram)
    gram.rows = [Counter(row) for row in gram.rows]
    (a, _), (b, _) = gram.rows[1].most_common(2)
    gram.rows[1].update({a: -1, b: 1})
    gram.rows[2].update({a: 1, b: -1})
    corrupted = unit_group("2O", oracles.elements(group))
    corrupted.gram = gram
    build = verify.build_group
    monkeypatch.setattr(verify, "build_group",
                        lambda label: corrupted if label == "2O" else build(label))
    result = verify.run_check("equality-cases", DESK)
    assert result.status == "FAIL"
    assert result.details == "2O is not distance invariant"


def test_shell_counts_check_names_the_shell(monkeypatch):
    # the divisor formula off by one at (2O, m = 7): the enumerated count and
    # the q-series coefficient both disagree with it
    formula = verify.shell_count_formula
    monkeypatch.setattr(
        verify, "shell_count_formula",
        lambda label, m: formula(label, m) + ((label, m) == ("2O", 7)),
    )
    result = verify.run_check("shell-counts", DESK)
    assert result.status == "FAIL"
    assert result.details == "2O m=7: 16512 != 16513; 2O m=7: formula != q-series"


def _corrupt_report(monkeypatch, label, **fields):
    """group_strength with some fields of `label`'s report replaced."""
    strength = verify.group_strength

    def corrupted(name, limit):
        report = strength(name, limit)
        return report._replace(**fields) if name == label else report

    monkeypatch.setattr(verify, "group_strength", corrupted)


@pytest.mark.parametrize("label, fields, details", [
    ("C3", {"even_members": (2,)}, "C3: nonempty even part (2,)"),
    ("C4", {"all_odd_in": False}, "C4: odd degrees missing"),
    # T(C_5) holds the odd degrees below 5 only
    ("C5", {"odd_members": (1, 3, 5)}, "C5: odd part [1, 3, 5] != [1, 3]"),
])
def test_dihedral_cyclic_check_names_the_cyclic_report(monkeypatch, label, fields, details):
    _corrupt_report(monkeypatch, label, **fields)
    result = verify.run_check("dihedral-cyclic", DESK)
    assert result.status == "FAIL"
    assert result.details == details


def test_dihedral_cyclic_check_names_the_closed_form_of_d12(monkeypatch):
    # the u^4 coefficient of Psi_(D_12) zeroed: 4 joins the zero set {2, 6, 10}
    closed_form = verify.molien_closed_form

    def corrupted(label, n):
        series = closed_form(label, n)
        return series[:4] + (0,) + series[5:] if label == "D2n6" else series

    monkeypatch.setattr(verify, "molien_closed_form", corrupted)
    result = verify.run_check("dihedral-cyclic", DESK)
    assert result.status == "FAIL"
    assert result.details == "D2n6: closed-form even part [2, 4, 6, 10]"


def test_shell_counts_check_names_the_printed_head(monkeypatch):
    monkeypatch.setitem(verify.PRINTED_SHELL_HEADS, "2I", (240, 2160, 6720, 17521))
    result = verify.run_check("shell-counts", DESK)
    assert result.status == "FAIL"
    assert result.details == "2I: first counts (240, 2160, 6720, 17520)"


def test_order_units_check_names_the_unit_shell(monkeypatch):
    # Q8 standing in for 2T: the 24 units of the Hurwitz order are not its 8
    _route_2t(monkeypatch, verify.build_group("Q8"))
    result = verify.run_check("order-units", DESK)
    assert result.status == "FAIL"
    assert result.details == "O_(2T,1) != 2T"


def test_order_units_check_names_the_orbit_count(monkeypatch):
    # one orbit representative of the 240 units of O_2I kept, not two; the
    # shells are enumerated afresh so that none has its orbits cached
    decompose = orders.orbit_decompose
    monkeypatch.setattr(orders, "orbit_decompose", lambda shell: decompose(shell)[:1])
    monkeypatch.setattr(orders, "_BALL_CACHE", {})
    result = verify.run_check("order-units", DESK)
    assert result.status == "FAIL"
    assert result.details == "O_(2I,1) has 1 orbits, expected 2"


def test_harmonic_molien_check_names_the_d_row(monkeypatch):
    # the paper's d_(2O, 24) claimed as 49: the series row no longer matches
    monkeypatch.setitem(
        verify.EXPECTED_D_TABLE, "2O", (0, 0, 0, 9, 0, 13, 0, 17, 19, 21, 0, 49)
    )
    result = verify.run_check("harmonic-molien", DESK)
    assert result.status == "FAIL"
    assert result.details == "2O: d-row (0, 0, 0, 9, 0, 13, 0, 17, 19, 21, 0, 50)"


@pytest.mark.parametrize("name, key, value, details", [
    ("invariant_multiplicity", ("2T", 4), 1, "2T l=4: invariant multiplicity nonzero"),
    ("harmonic_invariant_dim", ("2T", 4), 1, "2T l=4: harmonic invariants nonzero"),
    # the rank of Theta(2T, 12) at M = 6 is 2, above a claimed dim Harm^G of 1
    ("harmonic_invariant_dim", ("2T", 12), 1, "2T l=12: rank 2 > dim Harm^G 1"),
])
def test_theta_vanishing_check_names_a_wrong_dimension(monkeypatch, name, key, value, details):
    dimension = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda label, ell: value if (label, ell) == key
                        else dimension(label, ell))
    result = verify.run_check("theta-vanishing", DESK)
    assert result.status == "FAIL"
    assert result.details == details


def test_theta_vanishing_check_names_a_rank_below_one(monkeypatch):
    # the rank of Theta(2O, 8) claimed as 0; 8 is not in T(2O)
    ranks = verify.theta_ranks

    def corrupted(label, ells, shells, budget):
        out = ranks(label, ells, shells, budget)
        return {**out, 8: 0} if label == "2O" else out

    monkeypatch.setattr(verify, "theta_ranks", corrupted)
    result = verify.run_check("theta-vanishing", DESK)
    assert result.status == "FAIL"
    assert result.details == "2O l=8: rank 0 < 1"


def test_theta_vanishing_check_names_a_nonzero_full_table(monkeypatch):
    # one entry of the full table of (2T, l = 10, M = 4) set to 1
    table = verify.theta_table

    def corrupted(label, ell, shells, kind, budget):
        out = table(label, ell, shells, kind, budget)
        if (label, ell) != ("2T", 10):
            return out
        first, *rest = out.matrix
        return out._replace(matrix=((rat(1),) + first[1:], *rest))

    monkeypatch.setattr(verify, "theta_table", corrupted)
    result = verify.run_check("theta-vanishing", DESK)
    assert result.status == "FAIL"
    assert result.details == "2T l=10: full table has nonzero entries"


def test_strength_molien_check_names_the_closed_form_zero_set(monkeypatch):
    # a zero scan that misses the last zero: corrupting the closed form itself
    # would also break "Molien from points", and the expected sets the report
    even_zeros = verify._even_zeros
    monkeypatch.setattr(verify, "_even_zeros", lambda series: even_zeros(series)[:-1])
    result = verify.run_check("strength-molien", DESK)
    assert result.status == "FAIL"
    assert result.details == "; ".join(
        f"{label}: closed-form zero set {evens[:-1]}"
        for label, evens in verify.EXPECTED_EVEN_STRENGTH.items())


def test_strength_molien_check_names_the_strength_report(monkeypatch):
    _corrupt_report(monkeypatch, "2I", all_odd_in=False)
    result = verify.run_check("strength-molien", DESK)
    assert result.status == "FAIL"
    assert result.details == (
        "2I: strength report (2, 4, 6, 8, 10, 14, 16, 18, 22, 26, 28, 34, 38, 46, 58)")


# -- the whole matrix prints when a check is refused or raises

def _text_rows(out: str) -> dict:
    """check id -> (status, details) from the text matrix."""
    rows = {}
    for line in out.splitlines()[1:-1]:
        status, cid = line.split()[:2]
        rows[cid] = (status.strip("[]"), line.split("): ", 1)[1])
    return rows


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_small_budget_prints_the_whole_matrix(capsys, fmt):
    code = cli.main(["verify-paper", "--budget", "small", "--format", fmt])
    out = capsys.readouterr().out
    assert code == 3
    if fmt == "json":
        rows = {r["id"]: (r["status"], r["details"]) for r in json.loads(out)}
    else:
        rows = _text_rows(out)
        assert out.splitlines()[-1] == (
            "9/12 checks passed; "
            "SKIPPED: ['shell-counts', 'theta-vanishing', 'dimension-hypotheses']")
    assert list(rows) == _IDS
    theta_cap = "budget: theta degree 14 for 2T exceeds budget 'small' (cap 12)"
    assert {cid: row for cid, row in rows.items() if row[0] != "PASS"} == {
        "shell-counts": (
            "SKIP", "budget: shell index 30 for 2T exceeds budget 'small' (cap 12)"),
        "theta-vanishing": ("SKIP", theta_cap),
        "dimension-hypotheses": ("SKIP", theta_cap),
    }


def test_a_raising_check_is_an_error_row_and_the_others_still_run(capsys, monkeypatch):
    # under the small budget two later checks are SKIP too: ERROR (exit 1)
    # takes precedence over SKIP (exit 3)
    def corrupted_counts(label, m_max, budget):
        raise IntegrityError(f"Q_{label} is not positive definite")

    monkeypatch.setattr(verify, "shell_counts", corrupted_counts)
    code = cli.main(["verify-paper", "--budget", "small"])
    out = capsys.readouterr().out
    assert code == 1
    rows = _text_rows(out)
    assert list(rows) == _IDS
    assert rows.pop("shell-counts") == (
        "ERROR",
        "IntegrityError in test_verify.corrupted_counts: Q_2T is not positive definite",
    )
    assert {cid for cid, (status, _) in rows.items() if status != "PASS"} == {
        "theta-vanishing", "dimension-hypotheses"}
    assert out.splitlines()[-1] == (
        "9/12 checks passed; ERROR: ['shell-counts']; "
        "SKIPPED: ['theta-vanishing', 'dimension-hypotheses']")


def test_every_cheap_check_alone_in_a_fresh_process_gives_its_matrix_row():
    # the caches shared between checks (the ball cache, the rank memo, the
    # label-keyed lru_caches) must not change a row; theta-vanishing and
    # harmonic-molien are left out for their cost
    alone = [cid for cid in _IDS if cid not in ("theta-vanishing", "harmonic-molien")]
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "QUATDESIGN_"))}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    argv = [sys.executable, "-m", "quatdesign.cli", "verify-paper", "--budget", "desk",
            "--format", "json"]
    runs = [subprocess.Popen(argv + checks, env=env, stdout=subprocess.PIPE, text=True)
            for checks in [[]] + [["--check", cid] for cid in alone]]
    rows = []
    for run in runs:
        out, _ = run.communicate(timeout=300)
        assert run.returncode == 0, run.args
        rows.append([{k: v for k, v in row.items() if k != "seconds"} for row in json.loads(out)])
    matrix = {row["id"]: row for row in rows[0]}
    assert list(matrix) == _IDS
    assert [row for (row,) in rows[1:]] == [matrix[cid] for cid in alone]
