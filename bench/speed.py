"""Host speed, sampled while the benchmark measures.

The benchmark runs on a core of a shared virtual machine.  There the CPU time
of one and the same task moved by a factor of two within half a minute, as
other guests loaded the host.  A sampler thread therefore runs a fixed piece
of pure-Python work (the reference chunk) every INTERVAL_S seconds, on the
same core as the measured work, and records the chunk's thread CPU time.

`Sampler.factor(start, end)` is REF_CHUNK_S over the median chunk time in
that interval of `time.perf_counter()`.  A CPU time measured in the interval,
multiplied by it, is the CPU time at the reference speed: the speed at which
one chunk takes REF_CHUNK_S.

The chunk has two halves: arithmetic on small Fractions, which stays in the
core's caches, and Fraction sums drawn from a table of several megabytes,
which does not.  The program's tasks do both.  Over five minutes of tasks
from all four workloads, a task's CPU time moved with the small half's time
to the power 0.6-0.7 only, so scaling by it over-corrected; with both halves
the power was 0.9-1.1, and the spread of a task's scaled times was 10-35%
below that for the small half alone.
"""

from __future__ import annotations

import bisect
import os
import random
import statistics
import threading
import time
from fractions import Fraction

# CPU time of one reference chunk on a vCPU of an Intel Xeon (family 6,
# model 207) under Python 3.11.7, when the host is quiet: about the fastest
# tenth of the chunks.  It sets the unit, not the result's accuracy.
REF_CHUNK_S = 0.0022
INTERVAL_S = 0.06  # the chunk takes 2-3 ms: about 5% of the core
MIN_SAMPLES = 5  # chunks a window is widened to, for short tasks
TABLE_SIZE = 40_000  # Fractions in the table, several megabytes
TABLE_READS = 400  # of them summed by one chunk


def reference_table() -> tuple[dict[int, Fraction], list[int]]:
    """The table the chunk reads from, and the keys it reads, in a fixed
    random order."""
    table = {i: Fraction(i * 7919 % 100003, i + 1) for i in range(1, TABLE_SIZE)}
    keys = list(table)
    random.Random(1).shuffle(keys)
    return table, keys[:TABLE_READS]


def reference_chunk(table: dict[int, Fraction], keys: list[int]) -> int:
    """Fixed work of the kind the program does: Fraction sums and dict
    updates in the caches, then Fraction sums from a table beyond them."""
    acc = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(1, 120):
        acc += Fraction(i, i + 1)
        counts[i % 17] = counts.get(i % 17, 0) + acc.numerator % 1000003
    total = Fraction(0)
    for k in keys:
        total += table[k]
    return len(counts) + total.denominator % 7


def pin_to_one_cpu() -> int:
    """Keep this process, its threads and its children on one CPU, so that
    the sampler measures the core the work runs on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Sampler:
    """Samples the reference chunk's CPU time on a thread while entered."""

    def __init__(self):
        self.times: list[float] = []  # perf_counter() at each chunk's start
        self.chunks: list[float] = []  # the chunk's thread CPU seconds
        self._table = reference_table()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-sampler", daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            start = time.perf_counter()
            cpu = time.thread_time()
            reference_chunk(*self._table)
            self.chunks.append(time.thread_time() - cpu)
            self.times.append(start)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def wait_for_samples(self, count: int = MIN_SAMPLES) -> None:
        while len(self.chunks) < count:
            time.sleep(INTERVAL_S)

    def factor(self, start: float, end: float) -> float:
        """REF_CHUNK_S over the median chunk time between start and end,
        widened on both sides to MIN_SAMPLES chunks where it holds fewer."""
        n = min(len(self.times), len(self.chunks))
        lo = bisect.bisect_left(self.times, start, 0, n)
        hi = bisect.bisect_right(self.times, end, 0, n)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < n):
            lo, hi = max(lo - 1, 0), min(hi + 1, n)
        if hi == lo:
            raise RuntimeError("no speed samples")
        return REF_CHUNK_S / statistics.median(self.chunks[lo:hi])
