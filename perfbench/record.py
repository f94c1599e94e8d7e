"""Record the SHA-256 of every menu entry's output into expected.json.

Run it once on a commit whose outputs are trusted (the benchmark's own
divisor sums are checked at the same time); later commits are checked
against the recorded digests.  Usage, from the repository root:

    python3 perfbench/record.py
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import child
import workloads
from checks import check_op, digest

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-record-", dir=child.ROOT))
    env = child.pinned_env(workdir)
    digests, bad = {}, []
    try:
        for op in workloads.full_menu():
            emit_path = workdir / "emit.json"
            cmd = child.cli_command(workdir / "report.json", False,
                                    op.cli_args(str(emit_path)))
            done = child.run(cmd, env, workdir, timeout=600)
            problem = check_op(op, done, emit_path, expected=None)
            if problem:
                bad.append(f"{op.key}: {problem}")
                continue
            digests[op.key] = digest(op, done, emit_path)
            print(f"{done.wall_s:7.2f}s  {op.key}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    EXPECTED.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
