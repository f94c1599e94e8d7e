"""The verification runner: every check gives one row, whatever it does.

Each blocking check can fail on one corrupted input and names what failed;
a check that is over budget or raises costs its own row only.
"""

import json

import pytest

from quatdesign import cli, verify
from quatdesign.budget import get_budget
from quatdesign.exactnum import rat
from quatdesign.orders import IntegrityError

DESK = get_budget("desk")

_IDS = [cid for cid, _ in verify.ALL_CHECKS]


# -- negative controls: one corrupted input fails the check, which names it

def test_groups_check_names_the_unit_relation(monkeypatch):
    # alpha has order 8, so standing in for omega it breaks omega^3 = 1
    monkeypatch.setattr(verify, "omega", verify.alpha)
    result = verify.run_check("groups", DESK)
    assert result.status == "FAIL"
    assert result.details == "omega^3 != 1"


def test_strength_direct_check_names_the_degree(monkeypatch):
    # one pair-sum test of 2I claims l = 12 vanishes; 12 is not in T(2I)
    tests_bulk = verify.pair_sum_tests_bulk

    def corrupted(group, ells):
        out = tests_bulk(group, ells)
        return {**out, 12: True} if group.label == "2I" else out

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

    def corrupted(points, base):
        out = dict(distribution(points, base))
        out[rat(0)] -= 1
        return out

    monkeypatch.setattr(verify, "distance_distribution", corrupted)
    result = verify.run_check("equality-cases", DESK)
    assert result.status == "FAIL"
    assert result.details.startswith("2O distance distribution {")
    assert "QuadElem(SQRT2, 0): 17" in result.details


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


def test_harmonic_molien_check_names_the_d_row(monkeypatch):
    # the paper's d_(2O, 24) claimed as 49: the series row no longer matches
    monkeypatch.setitem(
        verify.EXPECTED_D_TABLE, "2O", (0, 0, 0, 9, 0, 13, 0, 17, 19, 21, 0, 49)
    )
    result = verify.run_check("harmonic-molien", DESK)
    assert result.status == "FAIL"
    assert result.details == "2O: d-row (0, 0, 0, 9, 0, 13, 0, 17, 19, 21, 0, 50)"


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
