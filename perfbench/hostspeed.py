"""Host speed, measured by a fixed loop that does not touch hidra.

The benchmark runs on a shared host whose speed for one process changes
by up to 1.6x over seconds to minutes; the process's CPU time follows
its wall time, so the change is in the speed of the core (most likely a
busy or idle sibling hardware thread), not in scheduling.  Each timed job is
therefore bracketed by two samples of this loop, and the benchmark
reports the job's time scaled to a host on which the loop takes
``REFERENCE_S``: ``wall * REFERENCE_S / loop_time``.

The loop mixes what hidra's own Python does per face and hinge: float
arithmetic, math calls, dict stores and list growth.  It is fixed code
in the benchmark, so a change to hidra cannot change it, and scaled
times of two commits compare as their raw times would on one steady
host.
"""

import math
import statistics
import time

LOOP_ITERATIONS = 20000
LOOPS_PER_SAMPLE = 9
# The loop's time on the reference host, a 2-vCPU x86-64 cloud VM with
# CPython 3; scaled times are seconds on that host.
REFERENCE_S = 0.005


def reference_loop():
    acc = 0.0
    table = {}
    items = []
    for i in range(LOOP_ITERATIONS):
        x = math.sqrt(i + 1.5) * 1.0001
        acc += math.atanh(1.0 / (x + 1.0))
        table[i & 127] = acc
        items.append(x)
        if len(items) > 64:
            items.clear()
    return acc


def sample():
    """Median seconds of a few runs of the reference loop."""
    times = []
    for _ in range(LOOPS_PER_SAMPLE):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(wall, before, after):
    """``wall`` seconds at the reference speed, given loop samples taken
    just before and just after it."""
    return wall * REFERENCE_S / (0.5 * (before + after))
