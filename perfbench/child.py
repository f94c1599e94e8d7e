"""Run one fresh process with a pinned environment and time it."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Finished:
    returncode: int
    wall_s: float
    stdout: bytes
    stderr: bytes
    timed_out: bool


def pinned_env(workdir: Path) -> dict:
    """The inherited environment without any QUATDESIGN_* or PYTHON* setting,
    so that neither a stray budget nor a stray import path changes what is
    measured; the source tree of this checkout is the only import path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("QUATDESIGN", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir)
    return env


def cli_command(report: Path, traced: bool, args) -> list:
    """A `quatdesign ARG...` call through shim.py, which reports peak memory
    (and spans when traced) to `report`."""
    return [sys.executable, str(Path(__file__).with_name("shim.py")), str(report),
            "1" if traced else "0", *args]


def run(cmd, env: dict, workdir: Path, timeout: float) -> Finished:
    """Start cmd, wait for it (killing it after `timeout` seconds) and return
    what it did.  stdout and stderr go to files, so a large output cannot
    block the child."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=workdir)
        # a blocking wait returns when the child exits; wait(timeout=...)
        # polls, which would round every timing up to 50 ms
        fired = threading.Event()
        timer = threading.Timer(max(timeout, 0.1), lambda: (fired.set(), proc.kill()))
        timer.start()
        try:
            proc.wait()
        except BaseException:           # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    return Finished(proc.returncode, wall, out_path.read_bytes(),
                    err_path.read_bytes(), fired.is_set())
