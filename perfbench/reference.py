"""The reference loop that converts measured seconds to reference seconds.

    python3 perfbench/reference.py      prints the loop's time in seconds

A fixed pure-Python loop in the style of covwalk's step loop: 2x2 float
products on tuples, an integer generator, list counters and a rare
renormalisation.  It imports nothing from the repository, so it runs the
same on every commit.  run.py runs one copy on each CPU a workload's
processes are kept on, at once.
"""

from __future__ import annotations

import math
import time

ITERS = 1_000_000


def reference_loop(n: int = ITERS) -> float:
    """Runs the loop n times; returns the time it took in seconds."""
    mats = ((1.2, 0.3, 0.1, 0.8583333333333333), (0.9, -0.2, 0.4, 1.0222222222222221))
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    counts = [0, 0]
    x = 12345
    acc = 0.0
    log = math.log
    t0 = time.perf_counter()
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        j = x & 1
        m0, m1, m2, m3 = mats[j]
        a, b, c, d = a * m0 + b * m2, a * m1 + b * m3, c * m0 + d * m2, c * m1 + d * m3
        counts[j] += 1
        t = a * a + b * b + c * c + d * d
        if t > 1e6:
            acc += log(t)
            r = t ** -0.5
            a, b, c, d = a * r, b * r, c * r, d * r
    elapsed = time.perf_counter() - t0
    if not (math.isfinite(acc) and sum(counts) == n):
        raise RuntimeError("reference loop went wrong")
    return elapsed


if __name__ == "__main__":
    print(repr(reference_loop()))
