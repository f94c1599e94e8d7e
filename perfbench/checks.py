"""Output checks that do not trust the program under test: recorded digests,
the benchmark's own divisor sums, and the verification matrix's rows."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import workloads


def digest(op, done, emit_path: Path) -> str:
    if op.kind != "emit":
        return hashlib.sha256(done.stdout).hexdigest()
    # hashed in chunks: a benchmark process that grew to the size of a parsed
    # emit file would raise the peak RSS its children report (see child.py)
    h = hashlib.sha256()
    with open(emit_path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def check_op(op, done, emit_path: Path, expected: dict | None) -> str | None:
    """None when the call did what it must, else what went wrong.  With
    expected=None only the structural checks run (used while recording)."""
    if done.timed_out:
        return "timed out"
    if done.returncode != 0:
        tail = done.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit {done.returncode} {tail}"
    try:
        problem = _CHECKS[op.kind](op, done, emit_path)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return f"unreadable output: {exc!r}"
    if problem or expected is None or op.kind == "verify":
        return problem
    want = expected.get(op.key)
    if want is None:
        return "no recorded digest for this call"
    if digest(op, done, emit_path) != want:
        return "output differs from the recorded digest"
    return None


def _check_verify(op, done, emit_path):
    rows = json.loads(done.stdout)
    ids = [r["id"] for r in rows]
    if sorted(ids) != sorted(workloads.VERIFY_CHECKS):
        return f"check ids {ids}"
    failed = [r["id"] for r in rows if r["blocking"] and r["passed"] is not True]
    return f"blocking checks failed: {failed}" if failed else None


def _check_count(op, done, emit_path):
    payload = json.loads(done.stdout)
    label, m = op.argv[2], int(op.argv[4])
    counts = payload["counts"]
    if payload["group"] != label or sorted(counts, key=int) != [str(k) for k in range(1, m + 1)]:
        return "wrong shells listed"
    for k in range(1, m + 1):
        size = workloads.shell_size(label, k)
        row = counts[str(k)]
        if row["enumerated"] != size or row["formula"] != size:
            return f"m={k}: {row} but the divisor sum is {size}"
    return None


def _check_emit(op, done, emit_path):
    # the file's content is checked by its digest, its size here
    if done.stdout.decode() != f"wrote {op.points} points to {emit_path}\n":
        return f"stdout {done.stdout[:80]!r}, the divisor sum gives {op.points} points"
    return None


def _check_query(op, done, emit_path):
    json.loads(done.stdout)
    return None


_CHECKS = {"verify": _check_verify, "count": _check_count,
           "emit": _check_emit, "query": _check_query}
