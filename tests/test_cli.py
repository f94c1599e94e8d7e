import json

import pytest

from quatdesign.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_group_json(capsys):
    code, out = run_cli(capsys, "group", "--name", "2O", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["order"] == 48
    assert len(blob["elements"]) == 48


def test_strength_json(capsys):
    code, out = run_cli(capsys, "strength", "--group", "2O", "--max", "60",
                        "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["even_members"] == [2, 4, 6, 10, 14, 22]
    assert blob["all_odd_in"] is True


def test_strength_from_point_file(tmp_path, capsys):
    code, out = run_cli(capsys, "group", "--name", "2T", "--format", "json")
    pts = json.loads(out)["elements"]
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": pts}))
    code, out = run_cli(capsys, "strength", "--points", str(path), "--max", "20",
                        "--format", "json")
    assert code == 0
    assert json.loads(out)["even_members"] == [2, 4, 10]


def test_strength_rejects_degenerate_point_files(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"points": []}))
    code, out = run_cli(capsys, "strength", "--points", str(empty))
    assert code == 4 and out == ""
    norm4 = tmp_path / "norm4.json"
    zero = {"tag": "RAT", "a": "0", "b": "0"}
    two = {"tag": "RAT", "a": "2", "b": "0"}
    norm4.write_text(json.dumps({"points": [[two, zero, zero, zero]]}))
    code, out = run_cli(capsys, "strength", "--points", str(norm4))
    assert code == 4 and out == ""


def test_missing_point_file_is_bad_input(tmp_path, capsys):
    code, _ = run_cli(capsys, "strength", "--points", str(tmp_path / "missing.json"))
    assert code == 4


def test_undefined_csv_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["group", "--name", "2T", "--format", "csv"])
    assert err.value.code == 2


def test_molien_csv(capsys):
    code, out = run_cli(capsys, "molien", "--group", "2T", "--max", "8",
                        "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0] == ["degree", "coefficient"]
    assert rows[1] == ["0", "1"]
    assert rows[7] == ["6", "1"]


def test_gegenbauer_text(capsys):
    code, out = run_cli(capsys, "gegenbauer", "--ell", "2", "--d", "4")
    assert code == 0
    assert "-3 0 12" in out


def test_gegenbauer_expand(capsys):
    code, out = run_cli(capsys, "gegenbauer", "--ell", "0", "--expand", "0,0,1",
                        "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["expansion"] == {"0": "1/4", "2": "1/12"}


def test_lp_json(capsys):
    code, out = run_cli(capsys, "lp", "--name", "F2O")
    assert code == 0
    blob = json.loads(out)
    assert blob["full_set_bound"] == "48"
    assert blob["certificate"]["passed"] is True


def test_shells_count_only(capsys):
    code, out = run_cli(capsys, "shells", "--group", "2T", "--m", "4",
                        "--count-only", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["counts"]["4"]["enumerated"] == 24


def test_shells_emit_round_trip(tmp_path, capsys):
    path = tmp_path / "shell.json"
    code, out = run_cli(capsys, "shells", "--group", "2T", "--m", "1",
                        "--emit", str(path))
    assert code == 0
    blob = json.loads(path.read_text())
    assert blob["size"] == 24
    assert len(blob["points"]) == 24


def test_theta_json(capsys):
    code, out = run_cli(capsys, "theta", "--group", "2O", "--ell", "8",
                        "--shells", "5")
    assert code == 0
    blob = json.loads(out)
    assert blob["rank"] == 1
    assert blob["generator"] == ["1", "40", "252", "-3008", "4830"]


def test_qseries(capsys):
    code, out = run_cli(capsys, "qseries", "--name", "E4", "--terms", "3",
                        "--format", "json")
    assert code == 0
    assert json.loads(out)["coefficients"] == [1, 240, 2160, 6720]


def test_verify_single_check(capsys):
    code, out = run_cli(capsys, "verify-paper", "--check", "lp-certificates")
    assert code == 0
    assert "PASS" in out


def test_verify_has_no_threads_option():
    with pytest.raises(SystemExit) as err:
        main(["verify-paper", "--threads", "1"])
    assert err.value.code == 2


def test_verify_unknown_check(capsys):
    code, out = run_cli(capsys, "verify-paper", "--check", "nonsense")
    assert code == 4


def test_budget_exit_code(capsys):
    code, _ = run_cli(capsys, "--budget", "small", "shells", "--group", "2I",
                      "--m", "8", "--count-only")
    assert code == 3


def test_unsupported_group_exit_code(capsys):
    code, _ = run_cli(capsys, "group", "--name", "C12")
    assert code == 4


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["shells", "--group", "E8", "--m", "1"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("theta", "--group", "2O", "--ell", "-2", "--shells", "3"),
        ("molien", "--group", "2T", "--max", "-1"),
        ("qseries", "--name", "E4", "--terms", "-1"),
        ("theta", "--group", "2O", "--ell", "8", "--shells", "0"),
        ("shells", "--group", "2T", "--m", "0", "--count-only"),
        ("shells", "--group", "2T", "--m", "0"),
    ],
    ids=["theta-ell", "molien-max", "qseries-terms", "theta-shells",
         "shells-m-count-only", "shells-m"],
)
def test_out_of_range_counts_are_usage_errors(argv):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2


def test_deterministic_output(capsys):
    _, out1 = run_cli(capsys, "group", "--name", "2I", "--format", "json")
    _, out2 = run_cli(capsys, "group", "--name", "2I", "--format", "json")
    assert out1 == out2
    _, out3 = run_cli(capsys, "theta", "--group", "2T", "--ell", "6",
                      "--shells", "3")
    _, out4 = run_cli(capsys, "theta", "--group", "2T", "--ell", "6",
                      "--shells", "3")
    assert out3 == out4
