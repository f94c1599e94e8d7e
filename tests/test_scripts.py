"""The scripts in scripts/ run end to end against the library's API."""

import re
import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_reproduce_tables(capsys):
    runpy.run_path(str(SCRIPTS / "reproduce_tables.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "T(2O) even part: [2, 4, 6, 10, 14, 22]" in out
    assert "Psi_2I = 1 + u^12 + u^20 + u^24 + u^30 + u^32 + ..." in out
    assert "2O: [0, 0, 0, 9, 0, 13, 0, 17, 19, 21, 0, 50]" in out
    assert "2I: [240, 2160, 6720, 17520, 30240]" in out


def test_coverage_src_reports_unexecuted_statements_by_function(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["coverage_src.py", "group --name Q8 --format json"])
    try:
        runpy.run_path(str(SCRIPTS / "coverage_src.py"), run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0
    *functions, summary = capsys.readouterr().out.splitlines()
    assert functions
    for line in functions:
        assert re.fullmatch(r"\w+\.py:[\w.]+ \d+(,\d+)*( never entered)?", line), line
    # the parser was built in this process; the verification runner was not run
    names = [line.split()[0] for line in functions]
    assert "cli.py:build_parser" not in names and "verify.py:run_all" in names
    # a function is marked exactly when every one of its statements is listed
    script = runpy.run_path(str(SCRIPTS / "coverage_src.py"))
    statements = {path.name: script["statements"](path)
                  for path in script["PACKAGE"].glob("*.py")}
    never = set()
    for line in functions:
        function, lines = line.split()[:2]
        name, qualname = function.split(":")
        if line.endswith(" never entered"):
            never.add(function)
        assert (function in never) == (len(lines.split(",")) == len(statements[name][qualname]))
    assert "verify.py:run_all" in never and "cli.py:main" in names and "cli.py:main" not in never
    match = re.fullmatch(r"(\d+) of (\d+) statements in src/quatdesign executed, "
                         r"(\d+) not, in (\d+) functions, (\d+) never entered; "
                         r"exit codes \[0\]", summary)
    assert match, summary
    executed, total, missed, count, entered_none = map(int, match.groups())
    assert executed + missed == total and count == len(functions)
    assert entered_none == len(never)
    assert missed == sum(len(line.split()[1].split(",")) for line in functions)
