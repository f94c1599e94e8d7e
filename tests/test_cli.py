import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quatdesign import cli, orders, theta, verify
from quatdesign.cli import main
from quatdesign.exactnum import frac_str
from quatdesign.orders import IntegrityError, shell_count_formula
from quatdesign.qseries import QSERIES_NAMES

import oracles


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


def test_strength_rejects_a_mixed_field_point_file(tmp_path, capsys):
    # Q(sqrt2) and Q(sqrt5) coordinates share no field to take inner products in
    from oracles import alpha, zeta

    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({"points": [alpha().to_json(), zeta().to_json()]}))
    code, out = run_cli(capsys, "strength", "--points", str(mixed))
    assert code == 4 and out == ""


@pytest.mark.parametrize("slot, value", [(0, True), (1, 0.0), (0, -1.0), (1, "1/0")],
                         ids=["bool", "float-zero", "float-minus-one", "zero-denominator"])
def test_point_file_scalars_are_p_over_q_strings_or_ints(tmp_path, capsys, slot, value):
    # the unit point (1, 0, 0, 0), with an int and with "p/q" strings
    zero = {"tag": "RAT", "a": "0", "b": "0/1"}
    point = [{"tag": "RAT", "a": 1, "b": "0"}, zero, zero, zero]
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [point]}))
    assert run_cli(capsys, "strength", "--points", str(path))[0] == 0
    point[slot] = {**point[slot], "a": value}
    path.write_text(json.dumps({"points": [point]}))
    assert main(["strength", "--points", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read point file")


@pytest.mark.parametrize("length", [3, 5])
def test_a_point_of_other_than_four_scalars_is_bad_input(tmp_path, capsys, length):
    # a fifth scalar would land in Quaternion's tag argument and be dropped
    unit, zero = {"tag": "RAT", "a": 1, "b": "0"}, {"tag": "RAT", "a": "0", "b": "0"}
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [[unit] + [zero] * (length - 1)]}))
    assert main(["strength", "--points", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read point file")
    assert f"a quaternion has 4 scalars, not {length}" in captured.err


@pytest.mark.parametrize("label", ["C1_0", "C+8", "C 8", "C08", "D2n٣", "D2n+3", "C-08", "C", "D2n"])
def test_a_malformed_family_label_is_bad_input(capsys, label):
    # int() alone would read n = 10, 8, 8, 8, 3, 3 and -8 from the first seven
    for argv in (["group", "--name", label], ["strength", "--group", label],
                 ["molien", "--group", label, "--closed-form"]):
        code, (out, err) = main(argv), capsys.readouterr()
        assert (code, out) == (4, ""), argv
        assert err.startswith("error: ") and repr(label) in err, err


def test_every_canonical_family_label_is_read():
    from quatdesign.groups import CYCLIC_SUPPORTED, DIHEDRAL_SUPPORTED, build_group, parse_family

    for family, supported in (("C", CYCLIC_SUPPORTED), ("D2n", DIHEDRAL_SUPPORTED)):
        for n in supported:
            assert parse_family(f"{family}{n}") == (family, n)
            assert build_group(f"{family}{n}").label == f"{family}{n}"
    assert parse_family("C-1") == ("C", -1) and parse_family("Q8") is None


def test_missing_point_file_is_bad_input(tmp_path, capsys):
    code, _ = run_cli(capsys, "strength", "--points", str(tmp_path / "missing.json"))
    assert code == 4


def test_undefined_csv_is_a_usage_error(capsys, monkeypatch):
    def no_checks(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "run_all", no_checks)
    for argv in (
        ["group", "--name", "2T", "--format", "csv"],
        ["verify-paper", "--check", "groups", "--format", "csv"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
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
    code, out = run_cli(capsys, "gegenbauer", "--expand", "0,0,1",
                        "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["expansion"] == {"0": "1/4", "2": "1/12"}


@pytest.mark.parametrize("argv, bad", [
    (("--ell", "2", "--lam", "1/0"), "1/0"),
    (("--expand", "1/0"), "1/0"),
    (("--expand", "1,2/0,3"), "2/0"),
])
def test_zero_denominators_are_bad_input(capsys, argv, bad):
    assert main(["gegenbauer", *argv]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and bad in captured.err


@pytest.mark.parametrize("expand", ["0", "1", "0,0"])
@pytest.mark.parametrize("d", ["2", "-7"])
def test_gegenbauer_expand_checks_the_dimension(capsys, expand, d):
    code, out = run_cli(capsys, "gegenbauer", "--expand", expand, "--d", d)
    assert code == 4 and out == ""


# every gegenbauer, lp, strength, molien and group call and every 2T theta
# call that the benchmark makes, with the digest of its output recorded in
# perfbench/expected.json (read only)
_EXPECTED = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "expected.json").read_text()
)
_DIGEST_CALLS = sorted(
    k for k in _EXPECTED
    if k.split()[0] in ("gegenbauer", "lp", "strength", "molien", "group")
    or k.startswith("theta --group 2T ")
)


def test_benchmark_menu_has_polynomial_calls():
    assert {k.split()[0] for k in _DIGEST_CALLS} == {
        "gegenbauer", "lp", "strength", "molien", "group", "theta"}
    assert {k.split()[2] for k in _DIGEST_CALLS if k.startswith("theta ")} == {"2T"}


@pytest.mark.parametrize("call", _DIGEST_CALLS)
def test_output_matches_the_benchmark_digest(capsys, call):
    code, out = run_cli(capsys, *call.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _EXPECTED[call]


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


@pytest.mark.parametrize("fmt", [(), ("--format", "json")])
def test_shells_emit_writes_json_with_or_without_format_json(tmp_path, capsys, fmt):
    path = tmp_path / "shell.json"
    code, out = run_cli(capsys, "shells", "--group", "2T", "--m", "1",
                        "--emit", str(path), *fmt)
    assert (code, out) == (0, f"wrote 24 points to {path}\n")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "9950e98b0b76b328d2460ce8cfeaa6386c669e5e5ba55160fa223210469f3a4e")


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_shells_emit_refuses_csv_and_text(tmp_path, capsys, ball_calls, fmt):
    # the point file is JSON only: no file, no stdout and no enumeration
    path = tmp_path / "shell.json"
    with pytest.raises(SystemExit) as err:
        main(["shells", "--group", "2T", "--m", "1", "--emit", str(path), "--format", fmt])
    assert err.value.code == 2
    assert not path.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --emit writes JSON; --format {fmt} does not apply\n"
    assert ball_calls == []


def test_shells_refuses_csv_before_enumerating(capsys, ball_calls):
    # a point listing has no csv form: refused with no ball enumerated
    with pytest.raises(SystemExit) as err:
        main(["shells", "--group", "2I", "--m", "3", "--format", "csv"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: csv output is not defined for this subcommand\n"
    assert ball_calls == []


@pytest.mark.parametrize("label, m", [(label, m) for label in ("2T", "2O", "2I")
                                      for m in (1, 2, 3)]
                         + [("2T", m) for m in range(4, 9)])
def test_shell_listings_match_the_payload_oracle(tmp_path, capsys, label, m):
    # the streamed listings are the bytes json.dumps(sort_keys=True) makes of
    # the payload of field elements, and the text lists its coordinates
    payload = oracles.shell_payload(label, m)
    path = tmp_path / "shell.json"
    code, out = run_cli(capsys, "shells", "--group", label, "--m", str(m), "--emit", str(path))
    assert (code, out) == (0, f"wrote {payload['size']} points to {path}\n")
    assert path.read_bytes() == json.dumps(payload, indent=1, sort_keys=True).encode()
    code, out = run_cli(capsys, "shells", "--group", label, "--m", str(m), "--format", "json")
    assert (code, out) == (0, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    code, out = run_cli(capsys, "shells", "--group", label, "--m", str(m))
    lines = [f"O_({label},{m}): {payload['size']} points"] + [
        "  " + " ".join(str(x) for x in pt["coords"]) for pt in payload["points"]]
    assert (code, out) == (0, "".join(line + "\n" for line in lines))


def test_half_str_is_frac_str_of_the_half():
    for v in [*range(-9, 10), -2**40 - 1, -2**40, 2**40, 2**40 + 1]:
        assert cli._half_str(v) == frac_str(Fraction(v, 2)), v


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


def test_budget_exit_code(capsys, ball_calls):
    # the budget for the whole count is checked before any ball is enumerated
    code = main(["--budget", "small", "shells", "--group", "2I", "--m", "8",
                 "--count-only"])
    assert code == 3
    assert ball_calls == []
    assert "shell index 8 for 2I" in capsys.readouterr().err


def test_an_explicit_budget_governs_every_shell(capsys, monkeypatch, ball_calls):
    # $QUATDESIGN_BUDGET only sets the default: shell 13 of 2T is past the
    # small budget's cap (12) but inside the desk budget asked for
    monkeypatch.setenv("QUATDESIGN_BUDGET", "small")
    code, out = run_cli(capsys, "--budget", "desk", "theta", "--group", "2T",
                        "--ell", "6", "--shells", "13", "--format", "json")
    assert code == 0
    assert json.loads(out)["rank"] == 1
    assert ball_calls == [("2T", 13)]


def test_an_over_budget_full_table_is_refused_before_its_basis(
        capsys, monkeypatch, ball_calls):
    def no_basis(ell):
        raise AssertionError("the harmonic basis was built")

    monkeypatch.setattr(theta, "_integer_basis", no_basis)
    code = main(["theta", "--group", "2I", "--ell", "24", "--shells", "10",
                 "--kind", "full"])
    assert code == 3
    assert "full theta table with 496350000 cells" in capsys.readouterr().err
    assert ball_calls == []


def test_shells_count_only_enumerates_one_ball(capsys, ball_calls):
    code, out = run_cli(capsys, "shells", "--group", "2O", "--m", "5",
                        "--count-only", "--format", "json")
    assert code == 0
    assert ball_calls == [("2O", 5)]
    assert orders._BALL_CACHE == {}
    counts = json.loads(out)["counts"]
    assert [counts[str(m)]["enumerated"] for m in range(1, 6)] == [
        shell_count_formula("2O", m) for m in range(1, 6)]


_PEAK_CHILD = """
import contextlib, io, json, sys
from quatdesign.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "peak_kb": peak, "out": out.getvalue()}))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="peak memory is read from /proc/self/status (VmHWM)")
def test_shells_count_only_peak_memory():
    # counting in the leaf stores no point: 2O m<=12 is a ball of 414,768
    # points, which took over 110 MB to hold and takes under 20 MB to count
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "QUATDESIGN_"))}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    argv = ["shells", "--group", "2O", "--m", "12", "--count-only", "--format", "json"]
    done = subprocess.run([sys.executable, "-c", _PEAK_CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    report = json.loads(done.stdout)
    assert report["code"] == 0
    counts = json.loads(report["out"])["counts"]
    assert counts["12"] == {"enumerated": 146496, "formula": 146496}
    assert report["peak_kb"] / 1024 < 40


_SINK_PEAK_CHILD = """
import contextlib, os, sys
from quatdesign.cli import main
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(code, peak)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="peak memory is read from /proc/self/status (VmHWM)")
@pytest.mark.parametrize("m, listing", [("2", ("--emit", "shell.json")),
                                        ("3", ("--format", "json"))],
                         ids=["2I-m2-emit", "2I-m3-json"])
def test_a_shell_listing_peaks_near_the_count_of_its_shell(tmp_path, m, listing):
    # a listing streams each point from its int16 record: it holds the ball's
    # records and one point's text beyond what counting the shell holds (the
    # payload of field elements took about 5.5 MB more at 2I m=2, 41 MB at m=3)
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "QUATDESIGN_"))}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")

    def peak_kb(*argv):
        done = subprocess.run([sys.executable, "-c", _SINK_PEAK_CHILD, *argv], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=300,
                              check=True)
        code, peak = map(int, done.stdout.split())
        assert code == 0
        return peak

    # bytecode is compiled and written here, not inside a measured call
    subprocess.run([sys.executable, "-c", "import quatdesign.cli"], env=env, timeout=60,
                   check=True)
    shell = ("shells", "--group", "2I", "--m", m)
    counted = peak_kb(*shell, "--count-only")
    listed = peak_kb(*shell, *listing)
    assert listed - counted < 2 * 1024, (listed, counted)


def _modules_loaded_by(code: str) -> set:
    """The modules a fresh interpreter loads while it runs `code` (with
    stdout discarded; contextlib and io are the harness's own)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "QUATDESIGN_"))}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    script = ("import sys; bare = set(sys.modules); import contextlib, io\n"
              f"with contextlib.redirect_stdout(io.StringIO()):\n    {code}\n"
              "print(' '.join(set(sys.modules) - bare))")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return set(done.stdout.split())


def test_cli_import_loads_no_dataclass_machinery():
    # every CLI call pays its imports: no module of the program may pull in
    # dataclasses, or inspect through it, or typing, beyond what the
    # interpreter has
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "QUATDESIGN_"))}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; bare = set(sys.modules); import quatdesign.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & (set(sys.modules) - bare)))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_only_the_parser_modules():
    # each subcommand imports what it runs; the parser needs budget and the
    # q-series names, and no exact arithmetic (fractions)
    loaded = _modules_loaded_by("import quatdesign.cli; quatdesign.cli.build_parser()")
    ours = {m for m in loaded if m.startswith("quatdesign")}
    assert ours == {"quatdesign", "quatdesign.budget", "quatdesign.cli", "quatdesign.qseries"}
    assert "fractions" not in loaded


def test_a_shell_count_loads_no_theta_or_verification_module():
    loaded = _modules_loaded_by("import quatdesign.cli; quatdesign.cli.main("
                                "['shells', '--group', '2T', '--m', '2', '--count-only'])")
    assert "quatdesign.orders" in loaded
    heavy = {"theta", "verify", "lpbound", "strength", "harmonics", "gegenbauer"}
    assert not {f"quatdesign.{name}" for name in heavy} & loaded


def test_verify_paper_help_lists_the_check_ids_in_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # one line per option
    with pytest.raises(SystemExit) as err:
        main(["verify-paper", "--help"])
    assert err.value.code == 0
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.lstrip().startswith("--check ID"))
    assert line.split("; ids: ")[1].split(", ") == [cid for cid, _ in verify.ALL_CHECKS]


def test_qseries_name_choices_are_the_series_names():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    name = next(a for a in subparsers.choices["qseries"]._actions if a.dest == "name")
    assert name.choices == QSERIES_NAMES


def test_an_internal_check_failure_is_one_line_and_exit_1(capsys, monkeypatch):
    def corrupted_counts(label, m_max, budget):
        raise IntegrityError("group action on the shell is not free")

    monkeypatch.setattr(orders, "shell_counts", corrupted_counts)
    code = main(["shells", "--group", "2T", "--m", "2", "--count-only"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: internal check failed: group action on the shell is not free\n"


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


def test_shells_refuses_count_only_with_emit(tmp_path):
    # counts alone would be printed and no point file written
    path = tmp_path / "pts.json"
    with pytest.raises(SystemExit) as err:
        main(["shells", "--group", "2T", "--m", "2", "--count-only", "--emit", str(path)])
    assert err.value.code == 2
    assert not path.exists()


def test_gegenbauer_refuses_lam_with_expand(capsys):
    # the expansion would be printed and lambda ignored
    with pytest.raises(SystemExit) as err:
        main(["gegenbauer", "--ell", "5", "--lam", "3", "--expand", "0,0,1"])
    assert err.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("--ell", "5", "--expand", "0,0,1"), "--ell does not apply to --expand"),
    (("--ell", "0", "--expand", "0,0,1", "--format", "json"), "--ell does not apply to --expand"),
    (("--d", "4",), "--ell is required without --expand"),
    (("--lam", "3",), "--ell is required without --expand"),
])
def test_gegenbauer_needs_exactly_one_of_ell_and_expand(capsys, argv, message):
    # --expand expands its own coefficients: a degree beside it would be ignored
    with pytest.raises(SystemExit) as err:
        main(["gegenbauer", *argv])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_deterministic_output(capsys):
    _, out1 = run_cli(capsys, "group", "--name", "2I", "--format", "json")
    _, out2 = run_cli(capsys, "group", "--name", "2I", "--format", "json")
    assert out1 == out2
    _, out3 = run_cli(capsys, "theta", "--group", "2T", "--ell", "6",
                      "--shells", "3")
    _, out4 = run_cli(capsys, "theta", "--group", "2T", "--ell", "6",
                      "--shells", "3")
    assert out3 == out4


# -- fuzzing the cheap subcommands: small ints only, so no call asks for a
# large ball, table or series

def _ints(high):
    return st.one_of(st.integers(-1, high).map(str), st.sampled_from(["x", "1.5", ""]))


_LABELS = st.sampled_from(["2T", "2O", "2I", "Q8", "C3", "C5", "C12", "D2n4", "E8", ""])
_ORDER_LABELS = st.sampled_from(["2T", "2O", "2I", "Q8"])
_RATIONALS = st.sampled_from(["0", "1", "-1/2", "3/4", "1/0", "x", ""])
_CHEAP_CHECKS = st.sampled_from([
    "groups", "strength-molien", "strength-direct", "dihedral-cyclic",
    "lp-certificates", "equality-cases", "order-units", "nonsense"])


@st.composite
def _cheap_argv(draw):
    def maybe(*args):
        return list(args) if draw(st.booleans()) else []

    sub = draw(st.sampled_from([
        "group", "strength", "molien", "gegenbauer", "lp", "shells", "theta",
        "qseries", "verify-paper"]))
    argv = maybe("--budget", draw(st.sampled_from(["desk", "small", "unbounded", "huge"])))
    argv.append(sub)
    if sub == "group":
        argv += ["--name", draw(_LABELS)]
    elif sub in ("strength", "molien"):
        argv += ["--group", draw(_LABELS), "--max", draw(_ints(30))]
        argv += maybe("--closed-form") if sub == "molien" else []
    elif sub == "gegenbauer":
        argv += maybe("--ell", draw(_ints(6)))
        argv += maybe("--d", draw(st.integers(-3, 6).map(str)))
        argv += maybe("--lam", draw(_RATIONALS))
        argv += maybe("--expand", ",".join(draw(st.lists(_RATIONALS, max_size=4))))
    elif sub == "lp":
        argv += ["--name", draw(st.sampled_from(["F2T", "F2O", "F2I", "F2X"]))]
    elif sub == "shells":
        argv += ["--group", draw(_ORDER_LABELS), "--m", draw(_ints(3))]
        argv += maybe("--count-only")
    elif sub == "theta":
        argv += ["--group", draw(_ORDER_LABELS), "--ell", draw(_ints(6)),
                 "--shells", draw(_ints(2))]
        argv += maybe("--kind", draw(st.sampled_from(["invariant", "full", "half"])))
    elif sub == "qseries":
        argv += ["--name", draw(st.sampled_from(QSERIES_NAMES + ("nope",))),
                 "--terms", draw(_ints(30))]
    else:
        for _ in range(draw(st.integers(0, 2))):
            argv += ["--check", draw(_CHEAP_CHECKS)]
        if "--check" not in argv:
            argv += ["--check", "groups"]
    argv += maybe("--format", draw(st.sampled_from(["json", "csv", "text", "xml"])))
    return argv


@settings(max_examples=80, deadline=None)
@given(_cheap_argv())
def test_every_exit_code_is_documented(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse and the csv refusal
            code = exc.code
    failed_check = "FAIL" in out.getvalue()  # a verify-paper row or an lp certificate
    assert code in (0, 2, 3, 4) or (code == 1 and failed_check), (argv, code, err.getvalue())
