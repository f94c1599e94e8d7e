"""The quatdesign benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every operation is a fresh `quatdesign`
CLI process started from this checkout's src/, in a closed loop with one
client: the next call starts when the previous one has exited.  The seed
draws one pass of the workload's calls (workloads.py); the run makes that
pass several times, each in a new seeded order, and takes each call's time
as the median of its repeats, because single timings on a shared machine
swing by tens of percent.  S fixes the number of repeats through the
workload's nominal pass length, so a run lasts about S seconds and two
commits compared at one S make the same calls.

--trace 0 reports the end-to-end metrics.  This shared machine runs up to
30 % slower for minutes at a time, which would swamp the bounds, so the
times are divided by the run's slowdown as probe.py measures it just before
every call (and, for verify-desk's one long call, while it runs), and the
measured values are printed as raw_* too.

--trace 1 makes each call of the pass once plainly and once with shim.py's
spans, which time the program's public functions from outside, then times
the scalar kernels (kernels.py); it reports the per-layer metrics.

Every output is checked (checks.py); the last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import child
import probe
import workloads
from checks import check_op

HERE = Path(__file__).resolve().parent
HARD_LIMIT_S = 170          # every run ends well inside 180 s
MIN_PROBES = 20             # fewer probes do not tell the machine's speed
SETUP_SAMPLES = 11
SETUP_CODE = ("import time; t0 = time.perf_counter(); import quatdesign.cli as c; "
              "c.build_parser(); print(time.perf_counter() - t0)")


@dataclass
class Call:
    op: workloads.Op
    slot: int               # position in the drawn pass
    wall_s: float
    rss_mb: float
    problem: str | None
    spans: dict | None      # the shim's report, for traced calls


class Bench:
    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.env = child.pinned_env(workdir)
        self.expected = json.loads((HERE / "expected.json").read_text())
        self.t0 = time.perf_counter()
        self.failures = []
        self.probes = []        # probe.work() just before each measured call

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.t0)

    def setup_seconds(self) -> list:
        """Cold `import quatdesign.cli` + build_parser() in fresh interpreters.
        The first, untimed, start writes the bytecode caches of a fresh checkout."""
        times = []
        for i in range(SETUP_SAMPLES + 1):
            done = child.run([sys.executable, "-c", SETUP_CODE], self.env,
                             self.workdir, self.remaining())
            if done.returncode != 0:
                raise RuntimeError("cannot import quatdesign.cli: "
                                   + done.stderr.decode(errors="replace")[-300:])
            if i:
                times.append(float(done.stdout))
        return times

    def call(self, slot: int, op, traced: bool) -> Call:
        emit_path = self.workdir / "emit.json"
        report_path = self.workdir / "report.json"
        cmd = child.cli_command(report_path, traced, op.cli_args(str(emit_path)))
        done = child.run(cmd, self.env, self.workdir, self.remaining())
        problem = check_op(op, done, emit_path, self.expected)
        try:
            report = json.loads(report_path.read_text())
        except (OSError, ValueError):
            report = {}
            problem = problem or "no report from shim.py"
        if problem:
            self.failures.append(f"{op.key}: {problem}")
        for path in (emit_path, report_path):
            path.unlink(missing_ok=True)
        return Call(op, slot, done.wall_s, report.get("peak_rss_kb", 0) / 1024,
                    problem, report if traced else None)

    def rounds(self, ops, count: int) -> list:
        """Make the pass `count` times, each time in a new seeded order."""
        out = []
        for _ in range(count):
            order = list(enumerate(ops))
            self.rng.shuffle(order)
            calls = []
            for slot, op in order:
                self.probes.append(probe.work())
                with (probe.sampled(self.probes) if self.workload.probe_during
                      else contextlib.nullcontext()):
                    calls.append(self.call(slot, op, traced=False))
            out.append(calls)
        return out

    def slowdown(self) -> float:
        """How much slower the machine ran than the one the bounds were set
        on: the median probe time over probe.REFERENCE_S.  verify-desk makes
        one long call, so its probes are taken while that call runs.  A run
        with fewer than MIN_PROBES probes keeps its times as measured."""
        if len(self.probes) < MIN_PROBES:
            return 1.0
        return statistics.median(self.probes) / probe.REFERENCE_S


def _tail(latencies):
    """The highest percentile with at least ten operations beyond it (the
    maximum when there are fewer than eleven), and that percentile."""
    xs = sorted(latencies)
    if len(xs) < 11:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def end_to_end(ops, rounds, setup):
    calls = [c for r in rounds for c in r]
    per_slot = [statistics.median(c.wall_s for c in calls if c.slot == i)
                for i in range(len(ops))]
    # every call counts with its slot's median, so that one call slowed by
    # the machine cannot move an order statistic
    lat = [per_slot[c.slot] for c in calls]
    tail, pct = _tail(lat)
    wall = sum(per_slot)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail, "s"),
        "ops_per_s": (len(ops) / wall, "1/s"),
        "peak_rss_mb": (max(c.rss_mb for c in calls), "MB"),
    }
    failed = sum(1 for c in calls if c.problem)
    notes = {"ops": len(calls), "ops_per_pass": len(ops), "repeats": len(rounds),
             "tail_percentile": round(pct, 1), "setup_samples": len(setup)}
    # printed by name, but not in the result: fail_frac is 0 when all is
    # well, and the shells throughputs do not exist on the other workloads
    extra = {"fail_frac": (failed / len(calls), "ratio")}
    for kind in ("count", "emit"):
        slots = [i for i, op in enumerate(ops) if op.kind == kind]
        if slots:
            extra[f"{kind}_points_per_s"] = (
                sum(ops[i].points for i in slots) / sum(per_slot[i] for i in slots), "1/s")
    lines = [f"{name} {value:.6g} {unit}" for name, (value, unit) in extra.items()]
    return metrics, notes, lines, len(calls), failed


def per_layer(workload, plain, traced, kernels):
    """Sum the shim's span totals over every traced call."""
    totals, counts, misses, edges, missing = {}, {}, {}, {}, set()
    for c in traced:
        if not c.spans:
            continue
        missing.update(c.spans["missing"])
        for name, t in c.spans["totals"].items():
            acc = totals.setdefault(name, dict.fromkeys(t, 0))
            for k, v in t.items():
                acc[k] += v
        for src, dst in ((c.spans["counts"], counts), (c.spans["misses"], misses),
                         (c.spans["edges"], edges)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    zero = {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0, "self_cpu_s": 0.0}
    metrics = {}
    for name in workloads.SPAN_NAMES:
        if name in missing:
            continue
        t = totals.get(name, zero)
        if name.startswith("verify."):
            metrics[f"{name}.wait_s"] = (t["wall_s"] - t["cpu_s"], "s")
        else:
            metrics[f"{name}.calls"] = (t["calls"], "count")
        metrics[f"{name}.cpu_s"] = (t["cpu_s"], "s")
        metrics[f"{name}.self_cpu_s"] = (t["self_cpu_s"], "s")
        if name in workloads.CACHED_SPANS:
            metrics[f"{name}.misses"] = (misses.get(name, 0), "count")
    for name in workloads.COUNT_NAMES:
        if name not in missing:
            metrics[name] = (counts.get(name, 0), "count")
    for name, ns in kernels.items():
        metrics[name] = (ns, "ns")
    overhead = sum(c.wall_s for c in traced) - sum(c.wall_s for c in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    never = [name for name in workload.expected_spans
             if name not in missing and totals.get(name, zero)["calls"] == 0]
    return metrics, sorted(missing), never, _attribution(totals, edges)


def _attribution(totals, edges) -> list:
    """Where each verification check spent its CPU: its wrapped children."""
    lines = []
    for name in sorted(totals):
        cpu = totals[name]["cpu_s"]
        if not name.startswith("verify.") or cpu <= 0:
            continue
        kids = sorted(((v, k.split(" > ")[1]) for k, v in edges.items()
                       if k.startswith(name + " > ")), reverse=True)
        covered = sum(v for v, _ in kids) / cpu
        top = ", ".join(f"{k} {v:.2f}s" for v, k in kids[:4])
        lines.append(f"attribution {name}: cpu {cpu:.2f}s, {covered:.0%} in "
                     f"wrapped children ({top})")
    return lines


def run_info(args) -> dict:
    src = hashlib.sha256()
    for path in sorted(child.SRC.rglob("*.py")):
        src.update(path.relative_to(child.SRC).as_posix().encode())
        src.update(path.read_bytes())
    commit = ""
    if (child.ROOT / ".git").exists():      # never ask a repository above the checkout
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=child.ROOT,
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except OSError:
            pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": commit or "unknown (not a git checkout)",
            "src_sha256": src.hexdigest()[:16], "python": platform.python_version(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}


def measure(args, bench):
    """Returns (metrics, run notes, report lines, attempted, failed)."""
    workload = bench.workload
    ops = workload.draw_pass(bench.rng)
    if not args.trace:
        setup = bench.setup_seconds()
        rounds = bench.rounds(ops, workload.repeats(args.seconds))
        metrics, notes, lines, attempted, failed = end_to_end(ops, rounds, setup)
        slow = bench.slowdown()
        notes.update(slowdown=round(slow, 4), probes=len(bench.probes))
        scaled = {"1/s": lambda v: v * slow, "s": lambda v: v / slow}
        lines += [f"raw_{name} {value:.6g} {unit}"
                  for name, (value, unit) in metrics.items() if unit in scaled]
        metrics = {name: (scaled.get(unit, lambda v: v)(value), unit)
                   for name, (value, unit) in metrics.items()}
        return metrics, notes, lines, attempted, failed
    # each call is made plainly and then traced, back to back, so that both
    # see the same machine and trace.overhead_s compares like with like
    order = list(enumerate(ops))
    bench.rng.shuffle(order)
    pairs = [(bench.call(slot, op, False), bench.call(slot, op, True))
             for slot, op in order]
    plain, traced = [p for p, _ in pairs], [t for _, t in pairs]
    k = child.run([sys.executable, str(HERE / "kernels.py"), str(args.seed)],
                  bench.env, bench.workdir, bench.remaining())
    kernels = {}
    if k.returncode == 0:
        kernels = json.loads(k.stdout)
    else:
        bench.failures.append("kernels.py: " + k.stderr.decode(errors="replace")[-300:])
    metrics, missing, never, lines = per_layer(workload, plain, traced, kernels)
    lines = [f"MISSING {name}: no longer in the program, not measured"
             for name in missing] + lines
    bench.failures += [f"self-check: span {name} was never recorded" for name in never]
    calls = plain + traced
    failed = sum(1 for c in calls if c.problem) + (k.returncode != 0)
    return metrics, {"ops": len(calls)}, lines, len(calls) + 1, failed


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)     # clean up when stopped
    ap = argparse.ArgumentParser(description="the quatdesign benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (child.SRC / "quatdesign" / "cli.py").is_file():
        print(f"perfbench: no quatdesign sources under {child.SRC}", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=child.ROOT))
    try:
        bench = Bench(workloads.WORKLOADS[args.workload], args.seed, workdir)
        info = run_info(args)
        metrics, notes, lines, attempted, failed = measure(args, bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("run " + json.dumps({**info, **notes}, sort_keys=True))
    for line in lines + ["FAIL " + f for f in bench.failures]:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not bench.failures, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
