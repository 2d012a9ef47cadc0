"""Machine-speed probe: the benchmark's yardstick for a noisy machine.

On a shared machine the same verdict can take twice as long at one
moment as at another: CPU time tracks wall time, so the process is not
waiting, it runs slower.  The probe measures that speed while a verdict
runs.  A SIGALRM timer interrupts the verdict every ``INTERVAL_S`` and
runs ``kernel``, a fixed pure-Python mix of dict updates on tuple keys
and ``Fraction`` arithmetic, the two kinds of work qchar does, twice.
The first run only refills the caches the verdict's own work evicted;
the second is timed, by the thread's CPU clock.

Both choices keep the verdict from moving its own yardstick.  A cold
timing depends on the verdict's working set: in a qchar child it read
12 to 18 % slower than warm, by an amount that differed between
workloads.  A wall-clock timing is stretched when other processes of
the verdict (a worker pool) hold the cores, which would scale a pool's
wall time down.  The CPU clock does not run while the
thread waits for a core, and it still shows the machine's own slowness,
which is not waiting but slower running.  What the verdict can still
reach is what one core shares with the other, such as the last-level
cache; ``bench/README.md`` gives the measured residue.

``speed`` is the mean of ``REF_KERNEL_S / t`` over the kernel timings
``t``: 1.0 on a machine where the kernel takes ``REF_KERNEL_S``, 0.5
where the machine runs at half that speed.  A verdict's wall time times
its speed is the time it would have taken at reference speed; the mean
of the speeds over time is exact for a speed that varies during the
verdict.  Garbage collection is off while the kernel runs.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

REF_KERNEL_S = 1e-3
INTERVAL_S = 0.05
# Set-up lasts about 0.15 s, so it is sampled more densely.
SETUP_INTERVAL_S = 0.008

_A = [((i % 5, i * 7 % 11), i % 4 + 1) for i in range(48)]
_B = [((i % 3, i * 5 % 13), i % 3 - 1) for i in range(40)]


def kernel() -> None:
    """Dict and Fraction work: about a millisecond on a 2-core Xeon VM."""
    acc: dict = {}
    get = acc.get
    for ka, ca in _A:
        for kb, cb in _B:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    f = Fraction(1)
    for i in range(1, 40):
        f = f * Fraction(i + 1, i + 3) + Fraction(1, i)


def timed_kernel() -> tuple:
    """(wall time of the tick, CPU time of the warmed kernel run)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        w0 = time.perf_counter()
        kernel()
        t0 = time.thread_time()
        kernel()
        t1 = time.thread_time()
        return time.perf_counter() - w0, t1 - t0
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples the kernel every ``interval`` s inside a ``with`` block.

    ``busy_s`` is the time the probe itself took, which the caller
    subtracts from the block's wall time.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.timings: list = []
        self.busy_s = 0.0
        self._ticking = False

    def _tick(self, signum, frame) -> None:
        # A signal that arrives while the kernel runs would start a nested
        # tick whose time the outer one already counts; drop it.
        if self._ticking:
            return
        self._ticking = True
        try:
            busy, timing = timed_kernel()
            self.busy_s += busy
            self.timings.append(timing)
        finally:
            self._ticking = False

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def speed(self) -> float:
        # A block shorter than the interval gets no tick; time a burst.
        timings = self.timings or [timed_kernel()[1] for _ in range(30)]
        return statistics.fmean(REF_KERNEL_S / t for t in timings)
