"""Host-speed calibration: a fixed reference task timed beside the program.

The host is shared, and other load costs the program time in two ways.
Other processes of the guest take its processor away for a while; that
shows in wall time but not in CPU time, so every time here is the CPU time
of the thread that runs the program, ``time.thread_time`` (the numpy import
starts OpenBLAS threads, and their CPU time would blur any process-wide
figure; the benchmark checks that they stay idle).  Other tenants of the machine slow every
instruction by up to a factor of two, in stretches from a second to several
minutes; that shows in CPU time too, and a slowed stretch can outlast a
whole run.  So the benchmark times a fixed task, ``reference()``, between
the program's rounds (and around each process start), and reports program
times scaled to a host on which ``reference()`` takes ``REFERENCE_S`` of
CPU time:

    scaled time = measured time * REFERENCE_S / (local reference time)

where the local reference time is the median of the nearest reference
samples.  ``reference()`` is pure Python of the same kind as the program's
hot loops (heap events, dict lookups, float arithmetic) and never changes
with the program, so a faster program gives a smaller scaled time while
load that slows both cancels.  Its constant was set once, near the task's
median time on the 2-vCPU host this was written on (1.6 ms quiet, up to
2.9 ms loaded); changing it or the task rescales every figure, so neither
may change between two commits that are compared.
"""

from __future__ import annotations

import heapq
import math
import time
from bisect import bisect_right
from statistics import median

REFERENCE_S = 0.002
# Each local reference time is the median of this many samples on either
# side of it as well as itself.
NEIGHBOURS = 5
# In a timed run, a reference sample follows a round once this much program
# time has passed since the last one.
EVERY_S = 0.025


def reference(events: int = 2000) -> float:
    """A fixed small event loop: heap pushes and pops, dict rows, sqrt."""
    heap: list = []
    table: dict = {}
    total = 0.0
    push, pop = heapq.heappush, heapq.heappop
    for i in range(events):
        push(heap, ((i * 7919) % 1013 * 0.001, i % 97))
    while heap:
        at, node = pop(heap)
        row = table.get(node)
        if row is None:
            row = table[node] = [0, 0.0]
        row[0] += 1
        row[1] += math.sqrt(at + node)
        total += row[1]
    return total


def sample(times: int = 1) -> list[tuple[float, float]]:
    """Run ``reference()`` ``times`` times; ``(start, duration)`` of each,
    in the calling thread's CPU time."""
    clock = time.thread_time
    out = []
    for _ in range(times):
        start = clock()
        reference()
        out.append((start, clock() - start))
    return out


def factors(durations: list[float]) -> list[float]:
    """Host slowdown at each sample: local reference time / REFERENCE_S."""
    n = len(durations)
    return [
        median(durations[max(0, i - NEIGHBOURS): i + NEIGHBOURS + 1]) / REFERENCE_S
        for i in range(n)
    ]


def scale_run(
    refs: list[tuple[float, float]],
    start: float,
    end: float,
    rounds: list[tuple[float, float]],
) -> tuple[float, float, list[float]]:
    """Scale a timed stretch ``[start, end]`` that ``refs`` interrupt.

    The stretch less the reference samples inside it is cut into segments
    at those samples; each segment is divided by the slowdown of the sample
    that ends it (the last segment by the last sample's).  Each round
    ``(start, duration)`` is divided by the slowdown of the sample that
    follows it.  Returns the measured program time (reference samples left
    out), the scaled time, and the scaled rounds.
    """
    if not refs:
        raise ValueError("no reference samples")
    starts = [s for s, _ in refs]
    slow = factors([d for _, d in refs])
    last = len(slow) - 1

    def at(t: float) -> float:
        return slow[min(bisect_right(starts, t), last)]

    measured = scaled = 0.0
    cursor = start
    for s, d in refs:
        if cursor <= s < end:
            measured += s - cursor
            scaled += (s - cursor) / at(cursor)
            cursor = s + d
    measured += end - cursor
    scaled += (end - cursor) / at(cursor)
    return measured, scaled, [d / at(s) for s, d in rounds]
