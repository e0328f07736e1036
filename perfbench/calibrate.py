"""Host-speed calibration of the end-to-end times.

The benchmark was defined on a 2-vCPU KVM guest whose host speed drifts
with no steal time reported to the guest: the fixed ``kernel`` below took
from 1.9 ms to 6 ms at different times.  Ten runs of one workload taken in a
row spread by up to 32% (fhn01-paths median latency) and 26% (spde-desk
throughput) as raw wall time when the host changed pace between them, and
medians inside a run cannot remove a slow phase that covers the whole run.
So every end-to-end time is measured together with the host's speed.

While a :class:`Calibrator` is active, an interval timer interrupts the
workload every ``INTERVAL_S`` and runs ``kernel`` in the same thread, with
the garbage collector off, recording its duration.  A timed interval is
reported as

    (wall time - kernel time inside it) * speed ** sensitivity,
    speed = REFERENCE_S / median kernel time

with the median over the kernel runs inside the interval, or over the
``NEAREST`` runs around it when the interval is short.  ``sensitivity`` is
how a workload's duration follows the kernel's as the host changes pace.
Single fhn01 solves and the ``setup_s`` imports use 1: with it, ten
fhn01-paths runs across host speeds 0.47-0.98 spread by 3-10% instead of
27-32%.  Whole sweeps mix in stages the kernel does not track; over ten runs
their log wall time followed the log kernel time with slope 0.5-0.65, and
with 1 they were over-corrected (spde-desk spread 21% instead of 15%).
Sweeps use 0.5; on a later set of ten runs spde-desk then spread 11%
scaled against 25% raw.

The kernel belongs to the benchmark, never to the program: a change to
adaptsde moves the wall time, not the speed it is scaled by.  The speed and
the raw times are kept in the run record.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import numpy as np

#: The kernel's median duration on the defining machine when its host was quiet.
REFERENCE_S = 2.0e-3
INTERVAL_S = 0.1
NEAREST = 11
_Y0 = np.linspace(0.5, 1.5, 30)[:, None]
_H = np.full(30, 1e-3)


def kernel(steps: int = 400) -> float:
    """Fixed work: a tamed cubic-drift march of 30 rows, ~2 ms when quiet."""
    y = _Y0
    acc = 0.0
    for i in range(steps):
        y = y + _H[:, None] * (y - y**3) / (1.0 + np.sqrt(np.square(y).sum(axis=-1)))[:, None]
        acc += i * 1e-9
    return float(y[0, 0]) + acc


def _timed_kernel() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_now(samples: int = 7) -> float:
    """``REFERENCE_S`` over the median of ``samples`` kernel runs now: 1 at
    the reference speed, below 1 when the host is slower."""
    kernel()
    return REFERENCE_S / statistics.median(_timed_kernel() for _ in range(samples))


class Calibrator:
    """Samples the kernel's duration on a timer while active (a context manager)."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.durations.append(_timed_kernel())
        self.starts.append(start)

    def __enter__(self):
        kernel()  # the first call pays one-off numpy dispatch set-up
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)  # so even a run shorter than the interval has samples

    def _inside(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def speed(self, t0: float, t1: float) -> float:
        """Host speed over [t0, t1], as :func:`speed_now` defines it."""
        lo, hi = self._inside(t0, t1)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.starts, 0.5 * (t0 + t1))
            lo = max(0, min(mid - NEAREST // 2, len(self.starts) - NEAREST))
            hi = min(len(self.starts), lo + NEAREST)
        return REFERENCE_S / statistics.median(self.durations[lo:hi])

    def scaled(self, t0: float, t1: float, sensitivity: float) -> float:
        """Length of [t0, t1] without kernel time, at the reference speed, for
        work whose duration goes as the kernel's to the power ``sensitivity``."""
        lo, hi = self._inside(t0, t1)
        return (t1 - t0 - sum(self.durations[lo:hi])) * self.speed(t0, t1) ** sensitivity
