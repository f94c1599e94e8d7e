"""Machine-speed probe: a fixed piece of pure-Python work that run.py times
in its own process just before every call it starts, and for a workload of
one long call also every quarter second while that call runs.

On a shared machine the same call can take 30 % longer for minutes at a
time, and the probe slows with it.  The median probe time of a run tells how
fast the machine was, and run.py scales the run's end-to-end times by it.
The work is the benchmark's own, so no change to the program moves it.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from fractions import Fraction

# work()'s median on the 2-core machine the bounds were set on, at a quiet time
REFERENCE_S = 0.005


def work(clock=time.perf_counter) -> float:
    """Seconds for exact-fraction arithmetic and dict stores, as the program does."""
    t0 = clock()
    x, d = Fraction(1, 3), {}
    for k in range(1, 400):
        x = (x * Fraction(k, k + 1) + Fraction(1, k)) % 7
        d[k % 31] = x
    return clock() - t0


@contextmanager
def sampled(into: list, every_s: float = 0.25):
    """Append a work() time to `into` every `every_s` seconds while the body
    runs.  The body waits for a child process, whose threads may hold the
    other core: the samples are timed in this thread's CPU time, which the
    host's load stretches but time spent waiting for the child does not."""
    stop = threading.Event()

    def loop():
        while not stop.wait(every_s):
            into.append(work(time.thread_time))

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()
