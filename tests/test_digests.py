"""The benchmark's own programs, read-only, against the program in-process.

Every call of `perfbench/workloads.full_menu()` must print (or, for
`--emit`, write) exactly the bytes whose SHA-256 `perfbench/expected.json`
records, and pass the benchmark's structural checks; the micro-kernels of
`perfbench/kernels.py` must run and report every figure.
"""

import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from quatdesign import cli, groups

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

sys.path.insert(0, str(PERFBENCH))
try:
    import checks
    import kernels
    import shim
    import workloads
finally:
    sys.path.remove(str(PERFBENCH))

EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())


def test_every_menu_call_has_a_recorded_digest():
    assert sorted(op.key for op in workloads.full_menu()) == sorted(EXPECTED)


@pytest.mark.parametrize("op", workloads.full_menu(), ids=lambda op: op.key)
def test_menu_call_matches_its_recorded_digest(op, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QUATDESIGN_BUDGET", raising=False)  # the benchmark drops it too
    emit_path = tmp_path / "emit.json"
    code = cli.main(op.cli_args(str(emit_path)))
    out = capsys.readouterr()
    done = SimpleNamespace(timed_out=False, returncode=code,
                           stdout=out.out.encode(), stderr=out.err.encode())
    assert checks.check_op(op, done, emit_path, EXPECTED) is None


def test_kernels_report_every_figure():
    figures = kernels.main(1)
    assert sorted(figures) == sorted(
        [f"exactnum.mul_ns.{tag}" for tag in kernels.TAGS]
        + ["exactnum.add_ns", "quat.qmul_ns"])
    assert all(isinstance(ns, float) and ns > 0 for ns in figures.values())


@pytest.mark.parametrize("module, path", [span[:2] for span in shim.SPANS],
                         ids=[span[2] for span in shim.SPANS])
def test_every_span_of_the_shim_resolves(module, path):
    # a name the shim cannot find is reported missing by every traced run;
    # the methods it wraps must stay plain functions on their classes
    owner = importlib.import_module(f"quatdesign.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_the_group_build_keeps_its_cache_info():
    # the shim reads the misses of every lru_cache'd span from cache_info()
    assert groups.build_group.cache_info().maxsize is None
