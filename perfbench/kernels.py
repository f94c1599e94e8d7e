"""Micro-timings of the scalar and quaternion kernels on seeded operands:
`python3 kernels.py SEED` prints one JSON object of nanoseconds per call.

Operands are drawn from all three fields (Q, Q(sqrt2), Q(tau)) with small
rational coordinates, as the group elements and order points have.  Each
figure is the median over several timed batches.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

from quatdesign.exactnum import GOLDEN, RAT, SQRT2, QuadElem
from quatdesign.quat import Quaternion, qmul

BATCHES = 7
TAGS = (RAT, SQRT2, GOLDEN)


def _scalar(rng, tag):
    def q():
        return f"{rng.randint(-9, 9)}/{rng.choice((1, 1, 2, 4))}"
    return QuadElem(tag, q(), 0 if tag == RAT else q())


def _ns_per_call(fn, pairs) -> float:
    runs = []
    for _ in range(BATCHES):
        t0 = time.perf_counter_ns()
        for x, y in pairs:
            fn(x, y)
        runs.append((time.perf_counter_ns() - t0) / len(pairs))
    return statistics.median(runs)


def main(seed: int) -> dict:
    rng = random.Random(seed)
    out = {}
    mixed = []
    for tag in TAGS:
        pairs = [(_scalar(rng, tag), _scalar(rng, tag)) for _ in range(400)]
        out[f"exactnum.mul_ns.{tag}"] = _ns_per_call(lambda x, y: x * y, pairs)
        mixed += pairs
    rng.shuffle(mixed)
    out["exactnum.add_ns"] = _ns_per_call(lambda x, y: x + y, mixed)
    quats = []
    for tag in TAGS:
        for _ in range(40):
            x, y = ([_scalar(rng, tag) for _ in range(4)] for _ in range(2))
            quats.append((Quaternion(*x, tag=tag), Quaternion(*y, tag=tag)))
    out["quat.qmul_ns"] = _ns_per_call(qmul, quats)
    return out


if __name__ == "__main__":
    print(json.dumps(main(int(sys.argv[1]))))
