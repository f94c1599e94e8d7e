"""The scripts in scripts/ run end to end against the library's API."""

import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_reproduce_tables(capsys):
    runpy.run_path(str(SCRIPTS / "reproduce_tables.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "T(2O) even part: [2, 4, 6, 10, 14, 22]" in out
    assert "Psi_2I = 1 + u^12 + u^20 + u^24 + u^30 + u^32 + ..." in out
    assert "2O: [0, 0, 0, 9, 0, 13, 0, 17, 19, 21, 0, 50]" in out
    assert "2I: [240, 2160, 6720, 17520, 30240]" in out
