"""The reference loop that calibrates the benchmark's timings.

The host's speed drifts between identical runs, and within one run, by
more than any useful bound.  The benchmark therefore times this fixed
pure-Python loop beside every batch of items and reports

    calibrated time = wall time * K / k

where k is the loop's duration measured beside the batch and K is the
nominal constant below.  The loop belongs to the benchmark: it imports
nothing from the program and allocates no object the cyclic garbage
collector tracks (ints and a dict holding only ints), so no change to the
program can move it.
"""

from __future__ import annotations

import time

STEPS = 20_000

# Nominal duration of one loop, in seconds: about its duration in a quiet
# moment of the 2-core x86-64 host, Python 3.11.7, where the reference
# figures in the README were taken.  Only the ratio K/k matters; each run
# prints it as the speed factor.
K = 0.0065


def reference_loop(steps: int = STEPS) -> int:
    table = {}
    x = 12345
    acc = 0
    for i in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x & 1023
        acc ^= table.get(k, i)
        table[k] = x
    return acc + len(table)


def time_reference_loop() -> float:
    """Wall time of one loop, in seconds."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start
