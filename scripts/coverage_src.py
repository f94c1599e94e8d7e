#!/usr/bin/env python3
"""Statement coverage of src/quatdesign, stdlib only.

Runs CLI calls in-process through `quatdesign.cli.main`, or pytest
in-process, under `sys.settrace` (and `threading.settrace`, so threads the
program starts are traced too), then prints every statement of a function
body in src/quatdesign that never ran, grouped by function.  Statements are
taken from the `ast`; docstrings are not statements, and neither is code at
module or class level, which runs on import.

Children started through `subprocess` are not followed, so what they run is
reported as unexecuted: the report is an upper bound on dead code.

    python scripts/coverage_src.py "group --name Q8 --format json" \\
        "verify-paper --budget desk"
    python scripts/coverage_src.py --pytest "-q tests/test_quat.py"

Each positional argument is one CLI call, split like a shell command line;
the calls' own output is discarded.  The report has one line per function,
`file:function line,line,...`, ending in ` never entered` when none of the
function's statements ran, then a summary line.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import shlex
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quatdesign"
sys.path.insert(0, str(ROOT / "src"))


def statements(path: Path) -> dict[str, dict[int, range]]:
    """function name -> {statement line: lines whose execution counts as the
    statement's}, for the statements inside function bodies of one file.

    A simple statement owns all its lines; a compound one only its header
    (decorators included), since its body holds statements of their own.
    """
    out: dict[str, dict[int, range]] = {}

    def visit(body, scope: list[str], function: str | None):
        for i, node in enumerate(body):
            docstring = (i == 0 and isinstance(node, ast.Expr)
                         and isinstance(node.value, ast.Constant)
                         and isinstance(node.value.value, str))
            if function is not None and not docstring:
                first = min([node.lineno] + [d.lineno for d in
                                              getattr(node, "decorator_list", ())])
                last = node.body[0].lineno - 1 if hasattr(node, "body") else node.end_lineno
                out.setdefault(function, {})[node.lineno] = range(first, last + 1)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [node.name]
                is_function = not isinstance(node, ast.ClassDef)
                visit(node.body, inner, ".".join(inner) if is_function else function)
            else:
                for field in ("body", "orelse", "finalbody"):
                    visit(getattr(node, field, ()), scope, function)
                for handler in getattr(node, "handlers", ()):
                    visit(handler.body, scope, function)
                for case in getattr(node, "cases", ()):
                    visit(case.body, scope, function)

    visit(ast.parse(path.read_text()).body, [], None)
    return out


@contextlib.contextmanager
def traced_lines():
    """Yield a set that fills with (file, line) for every line run in the
    package while the block is open."""
    executed: set[tuple[str, int]] = set()
    inside: dict[str, bool] = {}  # file name as imported -> in the package

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = Path(name).resolve().parent == PACKAGE
        return local if inside[name] else None

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        yield executed
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])


def unexecuted(executed) -> tuple[int, dict[str, list[int]], set[str]]:
    """(statements in the package, {"file:function": unexecuted lines},
    the functions none of whose statements ran)."""
    real = {name: Path(name).resolve() for name, _ in executed}
    total, missing, never = 0, {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = {line for name, line in executed if real[name] == path}
        for function, stmts in statements(path).items():
            total += len(stmts)
            gone = [start for start, owned in stmts.items() if lines.isdisjoint(owned)]
            if gone:
                missing[f"{path.name}:{function}"] = sorted(gone)
            if len(gone) == len(stmts):
                never.add(f"{path.name}:{function}")
    return total, missing, never


def run_cli(argvs) -> list[int]:
    """Exit codes of the CLI calls, each run in this process."""
    from quatdesign import cli

    codes = []
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                codes.append(cli.main(shlex.split(argv)))
            except SystemExit as exc:
                codes.append(exc.code)
    return codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("calls", nargs="*", help="one quatdesign CLI call each")
    parser.add_argument("--pytest", metavar="ARGS",
                        help="run pytest in-process with these arguments")
    args = parser.parse_args(argv)
    if not args.calls and args.pytest is None:
        parser.error("give CLI calls or --pytest")
    with traced_lines() as executed:
        codes = run_cli(args.calls)
        if args.pytest is not None:
            import pytest

            codes.append(int(pytest.main(shlex.split(args.pytest))))
    total, missing, never = unexecuted(executed)
    for function, lines in missing.items():
        marker = " never entered" if function in never else ""
        print(f"{function} {','.join(map(str, lines))}{marker}")
    count = sum(map(len, missing.values()))
    print(f"{total - count} of {total} statements in src/quatdesign executed, "
          f"{count} not, in {len(missing)} functions, {len(never)} never entered; "
          f"exit codes {codes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
