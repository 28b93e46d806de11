"""A speed reference for the measured runs: times scaled to a fixed machine speed.

The benchmark's host is a shared VM whose CPU runs at a speed that changes
by up to two times over seconds and by a third over minutes, with CPU time
equal to wall time (so it is not the scheduler).  Medians within a run
cannot remove drift that lasts longer than the run.  So while a run
measures, a ``Speedometer`` times a fixed pure-Python kernel every
``PERIOD_S`` seconds from a ``SIGALRM`` handler: sums of
``fractions.Fraction`` values in a dict keyed by tuples, the kind of work
the engine's polynomials do, but stdlib only and sharing no code with the
engine.  An interval is cut at the kernel samples; each piece is scaled by
``REF_KERNEL_S`` over the median kernel time of the ``NEAREST`` samples
nearest to it, and the pieces are summed.  The kernel time inside the
interval is taken out in proportion.  So every end-to-end time reads as
seconds on a machine where the kernel takes ``REF_KERNEL_S``.
``REF_KERNEL_S`` is about the kernel's median time, interleaved with the
engine, on the 2.1 GHz VM the benchmark was written on, so that there a
scaled time reads close to the raw one.  A change to the engine moves the
scaled times as it moves the raw ones; a change of the machine's speed
moves the kernel as well and mostly cancels.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.1         # one kernel sample every this many seconds of a run
REF_KERNEL_S = 0.0044  # the kernel's time at the reference speed
NEAREST = 3            # a piece's speed is the median of this many samples
KERNEL_TERMS = 800


def kernel():
    """Sum ``KERNEL_TERMS`` fractions into a dict keyed by tuples."""
    acc = {}
    for i in range(KERNEL_TERMS):
        key = (i % 31, i % 17, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7)
    return acc


class Speedometer:
    """Kernel samples ``(start, end)`` in ``time.perf_counter`` seconds, taken
    from a timer signal while started."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter()))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        """Stop the timer; a run shorter than a few periods gets its samples
        now, right after it."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        while len(self.samples) < NEAREST:
            self._tick(None, None)

    def scale(self, start, end):
        """The interval's seconds at the reference speed, without the kernel
        samples that ran inside it."""
        return scaled(self.samples, start, end)


def scaled(samples, start, end):
    """``samples`` are ``(start, end)`` kernel runs in time order."""
    if not samples:
        raise ValueError("no speed samples")
    if end <= start:
        return 0.0
    mids = [(s + e) / 2 for s, e in samples]
    first = bisect.bisect_right(mids, start)
    last = bisect.bisect_left(mids, end)
    inside = 0.0
    for s, e in samples[max(0, first - 1):last + 1]:
        inside += max(0.0, min(end, e) - max(start, s))

    def kernel_time(at):
        i = bisect.bisect_left(mids, at)
        candidates = range(max(0, i - NEAREST), min(len(samples), i + NEAREST))
        near = sorted(candidates, key=lambda j: abs(mids[j] - at))[:NEAREST]
        return statistics.median(samples[j][1] - samples[j][0] for j in near)

    cuts = [start] + mids[first:last] + [end]
    total = sum((b - a) / kernel_time((a + b) / 2) for a, b in zip(cuts, cuts[1:]))
    return total * REF_KERNEL_S * (1.0 - inside / (end - start))
