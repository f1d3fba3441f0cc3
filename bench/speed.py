"""Machine speed, measured by a fixed reference loop.

On a shared machine the speed of the whole process drifts by tens of
percent within a minute.  A reference loop runs just before and just after
every timed step; each sample is scaled by REF_MS over the median loop time
around it (its own two loops and REF_WINDOW more on either side), so that
the timings read as if the loop had taken REF_MS, its time on an idle 2-core
VM with CPython 3.11.  The loop never calls the package, so a faster
compiler still shows.  It works on a few megabytes, like the compiler, so
that it also feels contention for the caches.
"""
from __future__ import annotations

import gc
import statistics
import time

REF_MS = 5.0
REF_WINDOW = 4


def reference_loop() -> int:
    """Fixed work of the compiler's own kinds: command tuples in a list,
    dict updates, and formatting them as text."""
    rows = [(i, ("SMU", (1, i & 63))) for i in range(12_000)]
    table = {}
    for i, row in rows:
        table[i & 4095] = row
    return len("\n".join(f"{i} {op} {p[0]} {p[1]}" for i, (op, p) in rows[:6_000]))


def reference_seconds() -> float:
    """One reference loop, timed with the cyclic garbage collector paused:
    a collection would scan the whole heap the workload holds, which is not
    the machine speed the loop is there to measure."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scaled(seconds: float, refs: list[float], i: int) -> float:
    """``seconds`` measured between ``refs[i]`` and ``refs[i + 1]``, at the
    reference speed."""
    window = refs[max(0, i - REF_WINDOW):i + 2 + REF_WINDOW]
    return seconds * REF_MS / (1e3 * statistics.median(window))
