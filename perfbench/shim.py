"""CLI entry point for measured calls: `python3 shim.py REPORT TRACE ARG...`
runs `quatdesign ARG...` and, when the command ends, writes to REPORT a JSON
object with the process's peak resident memory and, with TRACE=1, the totals
of spans around the public functions named in SPANS.

Peak memory is read from the process itself (VmHWM): the ru_maxrss that
wait4 returns is at least the parent's peak, as Linux carries the larger
value across exec.

Each wrapper is rebound in every `quatdesign.*` namespace that holds the
function (and in `verify.ALL_CHECKS`), so calls through `from x import f`
are seen too.  Span stacks are thread-local, so spans inside the
verification thread pool nest correctly; CPU time is `time.thread_time()` of
the calling thread, and wall minus CPU is time spent waiting (for the GIL,
under a thread pool).  A name that no longer exists in the program is
reported as missing, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

# (module, attribute path, span name, counter over the result or None)
SPANS = (
    ("theta", "harmonic_molien", "theta.harmonic_molien", None),
    ("theta", "invariant_multiplicity", "theta.invariant_multiplicity", None),
    ("theta", "holomorphic_invariants", "theta.holomorphic_invariants", None),
    ("theta", "theta_table", "theta.theta_table",
     ("theta.table_cells", lambda t: len(t.matrix) * len(t.column_labels))),
    ("theta", "ThetaTable.rank", "theta.ThetaTable.rank", None),
    ("harmonics", "harm_basis", "harmonics.harm_basis", None),
    ("orders", "enumerate_shell", "orders.enumerate_shell",
     ("orders.points", len)),
    ("orders", "orbit_decompose", "orders.orbit_decompose", ("orders.orbits", len)),
    ("orders", "Shell.embedded", "orders.Shell.embedded", None),
    ("groups", "build_group", "groups.build_group", None),
    ("groups", "UnitGroup.is_closed", "groups.UnitGroup.is_closed", None),
    ("strength", "molien_series", "strength.molien_series", None),
    ("strength", "pair_sum_test", "strength.pair_sum_test", None),
    ("strength", "harmonic_strength", "strength.harmonic_strength", None),
    ("lpbound", "verify_certificate", "lpbound.verify_certificate", None),
)


class Recorder:
    """Per-name totals of spans, plus CPU per (parent span, child span)."""

    def __init__(self):
        self.lock = threading.Lock()
        self.local = threading.local()
        self.totals = {}     # name -> {"calls", "wall_s", "cpu_s", "self_cpu_s"}
        self.counts = {}     # counter name -> int
        self.edges = {}      # "parent > child" -> cpu seconds
        self.missing = []    # span or counter names that could not be recorded

    def _stack(self):
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def wrap(self, name, fn, counter=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            nested = any(frame[0] == name for frame in stack)
            frame = [name, 0.0]            # name, CPU of direct child spans
            stack.append(frame)
            w0, c0 = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = time.thread_time() - c0
                wall = time.perf_counter() - w0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += cpu
                with rec.lock:
                    t = rec.totals.setdefault(
                        name, {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0, "self_cpu_s": 0.0})
                    t["calls"] += 1
                    t["self_cpu_s"] += cpu - frame[1]
                    if not nested:         # count a recursive call's time once
                        t["wall_s"] += wall
                        t["cpu_s"] += cpu
                    if parent is not None and parent[0] != name:
                        key = f"{parent[0]} > {name}"
                        rec.edges[key] = rec.edges.get(key, 0.0) + cpu
            if counter is not None:
                cname, count = counter
                try:
                    n = count(result)
                except (AttributeError, TypeError):
                    rec.note_missing(cname)
                else:
                    with rec.lock:
                        rec.counts[cname] = rec.counts.get(cname, 0) + n
            return result

        return traced

    def note_missing(self, name):
        with self.lock:
            if name not in self.missing:
                self.missing.append(name)


def _rebind(original, replacement):
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("quatdesign") and mod is not None:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(rec: Recorder) -> dict:
    """Wrap every name in SPANS and each verification check; returns the
    lru_cache'd originals, whose cache_info() gives the misses."""
    cached = {}
    for modname, path, name, counter in SPANS:
        try:
            owner = importlib.import_module(f"quatdesign.{modname}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            rec.note_missing(name)
            continue
        traced = rec.wrap(name, fn, counter)
        if outer:
            setattr(owner, attr, traced)
        else:
            _rebind(fn, traced)
        if hasattr(fn, "cache_info"):
            cached[name] = fn
    try:
        verify = importlib.import_module("quatdesign.verify")
        verify.ALL_CHECKS = tuple(
            (cid, rec.wrap(f"verify.{cid}", fn)) for cid, fn in verify.ALL_CHECKS)
    except (ImportError, AttributeError):
        rec.note_missing("verify.ALL_CHECKS")
    return cached


def peak_rss_kb() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv) -> int:
    out_path, traced, cli_args = argv[0], argv[1] == "1", argv[2:]
    import quatdesign.cli as cli

    rec = Recorder()
    cached = install(rec) if traced else {}
    try:
        return cli.main(cli_args)
    finally:
        report = {"peak_rss_kb": peak_rss_kb()}
        if traced:
            report.update(
                totals=rec.totals, counts=rec.counts, edges=rec.edges,
                missing=rec.missing,
                misses={name: fn.cache_info().misses for name, fn in cached.items()})
        with open(out_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
