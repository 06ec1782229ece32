"""Machine-speed normalisation for timings on a shared, unsteady CPU.

On a machine shared with other tenants, the same pure-Python work can run
at half speed for tens of seconds and then at full speed again.  Wall times
of one workload then spread by 20% or more between runs, which hides any
regression smaller than that.

A fixed reference loop, independent of braidforge, measures the current
speed.  ``Sampler`` runs it from a ``SIGALRM`` handler at a fixed interval
while a workload runs, in the same process and on the same CPU, and ``normalised`` scales each slice of wall time between two samples
by ``REF_S`` over the reference time measured around it.  The result is in
seconds at the speed where one reference loop takes ``REF_S``: the time
the workload's work would take on an unloaded machine.  The reference
loops themselves are left out of the total.
"""
from __future__ import annotations

import signal
import time

# Duration of one reference loop on an unloaded 2 GHz x86-64 core under
# CPython 3.11; only a scale, so normalised times read as seconds.
REF_S = 0.00036
INTERVAL_S = 0.1


def reference() -> int:
    """Fixed pure-Python work: list push/pop with cancellation and dict counts."""
    out: list[int] = []
    counts: dict[int, int] = {}
    for i in range(1500):
        x = (i * 7919) % 1009 - 504
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
        counts[x & 63] = counts.get(x & 63, 0) + 1
    return len(out) + len(counts)


def sample() -> tuple[float, float]:
    start = time.perf_counter()
    reference()
    return start, time.perf_counter()


class Sampler:
    """Samples the reference loop periodically while a workload runs."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[tuple[float, float]] = []

    def _handler(self, signum, frame) -> None:
        self.samples.append(sample())

    def start(self) -> None:
        self.samples = [sample()]
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(sample())

    def first_factor(self) -> float:
        """Speed factor of the first sample, for wall time just before it."""
        start, end = self.samples[0]
        return REF_S / (end - start)

    def normalised(self, t0: float, t1: float) -> float:
        """Work-equivalent seconds of the wall interval [t0, t1], samples excluded."""
        total = 0.0
        prev_end, prev_ref = t0, self.samples[0][1] - self.samples[0][0]
        for start, end in self.samples[1:]:
            ref = end - start
            lo, hi = max(prev_end, t0), min(start, t1)
            if hi > lo:
                total += (hi - lo) * REF_S * 2 / (prev_ref + ref)
            prev_end, prev_ref = end, ref
        return total

    def wall(self, t0: float, t1: float) -> float:
        """Wall seconds of [t0, t1] spent outside the reference samples."""
        inside = sum(max(0.0, min(end, t1) - max(start, t0)) for start, end in self.samples)
        return (t1 - t0) - inside
