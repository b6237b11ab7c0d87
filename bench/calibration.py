"""CPU-speed normalization of measured times.

On a host whose processors are shared with other tenants, the speed of
one CPU second can drift by up to a factor of two over tens of seconds,
independently on each CPU, while CPU time tracks wall time.  To make runs
taken at different moments comparable:

- the benchmark's main thread is pinned to one CPU (``home``), except
  inside ``parallel()``, where it may use every CPU it was allowed, so
  that the processes it forks (the `--workers 2` pool) spread out;
- a background thread runs a fixed pure-Python loop (``kernel``) every
  PERIOD_S on the home CPU, or inside ``parallel()`` on each CPU in turn
  as often per CPU, and records the loop's thread CPU time, which leaves
  out any wait for the interpreter lock or for a processor;
- a timed interval is reported as the sum, over its pieces of at most
  CHUNK_S, of ``raw seconds * REF_S / (median loop time near the
  piece)``: the time the work would take at the speed where the loop
  takes REF_S.  From a serial piece the CPU time of the loop turns that
  overlap it is taken out first, since they ran on the same CPU as the
  work.  In a parallel interval the speed is the mean over the CPUs.

The loop uses none of saitodual, so a change to the package moves
normalized times as it moves raw ones.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import os
import statistics
import threading
import time

REF_S = 0.007  # loop CPU time that defines the reference speed
PERIOD_S = 0.25  # pause between samples
WINDOW_S = 0.5  # samples this close to a piece calibrate it
CHUNK_S = 0.5  # longest piece of an interval given one speed


def kernel():
    """Fixed mix of the interpreter work saitodual does: big-integer
    arithmetic, gcds, tuple hashing and dictionary updates."""
    x = 0x2545F4914F6CDD1D
    counts = {}
    acc = 0
    for i in range(4000):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        a = x % 1000003
        g = math.gcd(a, 720720)
        key = (a & 127, g, i & 7)
        counts[key] = counts.get(key, 0) + 1
        q, r = divmod(x * x, a + 1)
        acc ^= q + r
    return acc + len(sorted(counts))


class _Samples:
    """Loop samples of one CPU, in time order."""

    def __init__(self):
        self.start = []  # wall-clock start of each sample
        self.end = []  # its end
        self.mid = []  # its middle
        self.cpu = []  # its thread CPU time

    def busy(self, start, end):
        """CPU seconds the loop used within [start, end], each sample's
        CPU time prorated by the share of its wall interval inside."""
        total = 0.0
        hi = bisect.bisect_left(self.start, end)
        for i in range(bisect.bisect_left(self.end, start), hi):
            overlap = min(end, self.end[i]) - max(start, self.start[i])
            if overlap > 0:
                total += self.cpu[i] * overlap / (self.end[i] - self.start[i])
        return total

    def speed(self, start, end):
        """REF_S over the median loop time within WINDOW_S of [start, end]
        (the four nearest samples when there are fewer than 3)."""
        lo = bisect.bisect_left(self.mid, start - WINDOW_S)
        hi = bisect.bisect_right(self.mid, end + WINDOW_S)
        if hi - lo < 3:
            mid = bisect.bisect_left(self.mid, (start + end) / 2)
            lo, hi = max(0, mid - 2), min(len(self.mid), mid + 2)
        return REF_S / statistics.median(self.cpu[lo:hi])


class Speedometer:
    """Pins the calling thread and samples the loop in the background while
    used as a context manager; afterwards normalizes intervals taken
    meanwhile."""

    def __init__(self):
        self._cpus = sorted(os.sched_getaffinity(0))
        self.home = self._cpus[0]
        self._samples = {cpu: _Samples() for cpu in self._cpus}
        self._parallel = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        os.sched_setaffinity(0, {self.home})
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._cpus)

    @contextlib.contextmanager
    def parallel(self):
        """Let the calling thread, and what it forks, use every CPU."""
        os.sched_setaffinity(0, self._cpus)
        self._parallel = True
        try:
            yield
        finally:
            self._parallel = False
            os.sched_setaffinity(0, {self.home})

    def _run(self):
        turn = 0
        while True:
            cpu = self._cpus[turn % len(self._cpus)] if self._parallel \
                else self.home
            turn += 1
            os.sched_setaffinity(0, {cpu})
            start, used = time.perf_counter(), time.thread_time()
            kernel()
            used = time.thread_time() - used
            end = time.perf_counter()
            samples = self._samples[cpu]
            samples.start.append(start)
            samples.end.append(end)
            samples.mid.append((start + end) / 2)
            samples.cpu.append(used)
            pause = PERIOD_S / len(self._cpus) if self._parallel else PERIOD_S
            if self._stop.wait(pause):
                return

    def normalize(self, watch, parallel=False):
        """Seconds at the reference speed of the work timed by ``watch``
        (a Stopwatch).  A serial interval leaves out the loop's own turns
        on the home CPU; a ``parallel`` one ran on every CPU and counts in
        full."""
        start, end = watch.start, watch.end
        home = self._samples[self.home]
        total = 0.0
        while start < end:
            piece = min(end, start + CHUNK_S)
            if parallel:
                speed = statistics.fmean(
                    s.speed(start, piece) for s in self._samples.values()
                    if s.mid)
                total += (piece - start) * speed
            else:
                work = piece - start - home.busy(start, piece)
                total += max(0.0, work) * home.speed(start, piece)
            start = piece
        return total

    def cpu_share(self, watches):
        """Share of the serial intervals of ``watches``, less the loop's
        turns, that the timed thread spent on a CPU.  Well below 1, the
        work ran elsewhere (a thread, a process) or waited (I/O, a lock)."""
        home = self._samples[self.home]
        cpu = sum(w.cpu for w in watches)
        work = sum(w.end - w.start - home.busy(w.start, w.end)
                   for w in watches)
        return cpu / work

    def mean_speed(self):
        """The home CPU's median speed over the run, relative to REF_S."""
        return REF_S / statistics.median(self._samples[self.home].cpu)
