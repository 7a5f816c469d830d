"""A fixed exact-arithmetic kernel that gauges the host's current CPU speed.

Usage: python3 perfbench/calibrate.py  (spawned by perfbench/run.py)

Prints one JSON line with the kernel's own wall and CPU time, interpreter
start-up excluded.

The shared host this benchmark was written on changes speed by up to a
factor of two over minutes, in wall and in CPU time alike, so raw job times
of two runs of the same code are not comparable.  run.py runs this kernel
between jobs and scales each job's times by the kernel's reference time
over its times around the job.  The kernel uses none of virwhit, so a change
to the program cannot move it; it does the kind of work the program does:
``Fraction`` elimination with growing integers and a dict of tuple keys.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction


def kernel() -> int:
    n = 22
    rows = [
        [Fraction(1, i + j + 1) + (i == j) for j in range(n)] + [Fraction(i + 1)]
        for i in range(n)
    ]
    for k in range(n):
        for i in range(n):
            if i != k:
                factor = rows[i][k] / rows[k][k]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    memo = {}
    for i in range(80000):
        memo[(i % 977, i % 131, i)] = Fraction(i, 7)
    return len(memo) + rows[0][-1].denominator.bit_length()


if __name__ == "__main__":
    wall, cpu = time.perf_counter(), time.process_time()
    kernel()
    print(
        json.dumps(
            {"wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu}
        )
    )
