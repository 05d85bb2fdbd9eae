"""Machine-speed sampling, to express round and item times in reference seconds.

The benchmark runs on shared machines whose speed drifts by tens of percent
within seconds.  :class:`SpeedSampler` interrupts the timed round every
``PERIOD_S`` seconds (``SIGALRM``) and times one calibration pass: a fixed
piece of work of the same kinds as the package's, namely tuples built from
table lookups and kept in a small set, map compositions looked up in a set
larger than the caches, and union-find merges.  A time divided by the mean
calibration pass around it, times ``REFERENCE_S``, is that time in
*reference seconds* (unit ``ref_s``): what it would take on a machine
whose calibration pass takes exactly ``REFERENCE_S``.

On a 2-core shared VM, repeating one 150 ms item 40 times gave an
interquartile range of about 0.7 of the median in seconds and about 0.08
in reference seconds.  Sampling takes about 1.5% of the round on an idle
machine and is subtracted from every interval.

Each pass is also timed in the CPU time of the calling thread, so that a
CPU-time interval (:meth:`SpeedSampler.reference_cpu_s`) can be expressed
in reference seconds too.  CPU time leaves out the time the process waits
for a core, which on a shared host is most of the tail of a millisecond
call's wall time.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from time import perf_counter, thread_time

PERIOD_S = 0.05
REFERENCE_S = 0.65e-3

_rng = random.Random(5)
_TABLE = tuple(tuple((a * 7 + b * 3) % 6 for b in range(6)) for a in range(6))
_MAPS = tuple(tuple(_rng.randrange(8) for _ in range(8)) for _ in range(4096))
_BIG = frozenset(tuple(_rng.randrange(8) for _ in range(8)) for _ in range(12000))


def calibration_pass():
    """One pass of the calibration work; returns its duration in seconds."""
    t0 = perf_counter()
    seen = set()
    for _ in range(30):
        for a in range(6):
            seen.add(tuple(_TABLE[a][b] for b in range(6)))
            seen.add(tuple(_TABLE[b][a] for b in (5, 4, 3, 2, 1, 0)))
    hits = 0
    for k in range(0, 4096, 32):
        f = _MAPS[k]
        g = _MAPS[(k * 7 + 3) % 4096]
        for h in (tuple(f[v] for v in g), tuple(g[v] for v in f)):
            hits += h in _BIG
            seen.add(h)
    parent = list(range(512))
    for k in range(300):
        a = (k * 37) % 512
        b = (k * 91 + 5) % 512
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[a] = b
    return perf_counter() - t0


class SpeedSampler:
    """Context manager sampling calibration passes while it is open."""

    def __init__(self):
        self.times = []      # midpoint of each pass
        self.passes = []     # duration of each pass
        self.cpu_starts = []  # thread CPU time at the start of each pass
        self.cpu_passes = []  # thread CPU time each pass took

    def _sample(self, signum, frame):
        c = thread_time()
        t = perf_counter()
        d = calibration_pass()
        self.cpu_passes.append(thread_time() - c)
        self.cpu_starts.append(c)
        self.times.append(t + d / 2)
        self.passes.append(d)

    def __enter__(self):
        calibration_pass()  # warm up
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def net_s(self, start, end):
        """``end - start`` less the calibration passes made inside it."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return end - start - sum(self.passes[lo:hi])

    def reference_s(self, start, end, pad=PERIOD_S):
        """``net_s(start, end)`` in reference seconds, normalised by the
        passes sampled between ``start - pad`` and ``end + pad``.

        The machine's speed changes within a tenth of a second, so the
        window is kept tight: for a short item, the passes just around it.
        """
        lo = bisect.bisect_left(self.times, start - pad)
        hi = bisect.bisect_right(self.times, end + pad)
        window = self.passes[lo:hi] or self.passes
        return self.net_s(start, end) * REFERENCE_S / statistics.fmean(window)

    def reference_cpu_s(self, start, end, cpu_start, cpu_end, pad=PERIOD_S):
        """Thread CPU time ``cpu_end - cpu_start``, less the passes made
        inside it, in reference seconds.  ``start`` and ``end`` are the
        same interval's ``perf_counter`` stamps; the passes' CPU times
        between ``start - pad`` and ``end + pad`` normalise it."""
        lo = bisect.bisect_left(self.cpu_starts, cpu_start)
        hi = bisect.bisect_left(self.cpu_starts, cpu_end)
        net = cpu_end - cpu_start - sum(self.cpu_passes[lo:hi])
        lo = bisect.bisect_left(self.times, start - pad)
        hi = bisect.bisect_right(self.times, end + pad)
        window = self.cpu_passes[lo:hi] or self.cpu_passes
        return net * REFERENCE_S / statistics.fmean(window)
