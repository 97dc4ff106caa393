"""Machine-speed meter: normalizes measured durations for a drifting machine.

On the shared 2-vCPU machine this benchmark was defined on (Intel Xeon,
Python 3.11.7, numpy 2.4.6), the speed of the same code drifts by up to 2x
within minutes. The meter runs fixed calibration kernels, which do not touch
the package, from a SIGALRM handler every INTERVAL_S seconds (no thread or
process) and records each kernel's speed: its reference time over the time it
took. A phase's normalized duration is its wall time, less the bursts that ran
inside it, times the mean speed of one kernel over the bursts around it: what
the phase would have taken had the machine run that kernel in exactly its
reference time. Python-bound and memory-bound code drift differently, so each
phase is normalized by the kernel that resembles it. The mean of speeds, not a
median of times, because the machine's speed is often bimodal and a median
would flip between the modes.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right
from functools import cache
from statistics import fmean

import numpy as np

INTERVAL_S = 0.1
NEAR_S = 0.5  # bursts within this distance of a phase describe its speed
MIN_BURSTS = 5

_RNG = np.random.default_rng(20250402)
_M = _RNG.standard_normal((40, 40)) * 0.01
_V = _RNG.standard_normal(40)


def _python(n: int = 150) -> float:
    """Small mat-vecs and scalar Python work, like one flow step of a small
    instance."""
    acc = _V
    total = 0.0
    for _ in range(n):
        acc = np.maximum(0.0, _M @ acc + _V)
        total += float(acc @ acc)
    return total


def _memory(n: int = 3) -> float:
    """Dense mat-vecs that stream a matrix the size of a large instance's
    Laplacian through the caches, like its flow step."""
    big, v = _big()
    return sum(float(v @ (big @ v)) for _ in range(n))


@cache
def _big() -> tuple[np.ndarray, np.ndarray]:
    """4.5 MB, like large_team's L_bar; made on first use only."""
    rng = np.random.default_rng(20250403)
    return rng.standard_normal((750, 750)), rng.standard_normal(750)


# name: (kernel, warm-up argument, time of one timed call on the machine above)
KERNELS = {
    "python": (_python, 20, 1e-3),
    "memory": (_memory, 1, 7e-4),
}


class SpeedMeter:
    """Samples the machine's speed with the named kernels while active; one
    meter per run."""

    def __init__(self, kernels):
        self.kernels = tuple(kernels)
        self.starts: list[float] = []  # burst start times
        self.speeds: dict[str, list[float]] = {k: [] for k in self.kernels}
        self.busy: list[float] = []  # whole burst, warm-ups included
        self._previous = None
        self._bursting = False

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._burst()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _burst(self, *_signal_args) -> None:
        if self._bursting:  # a signal that arrives during a burst is dropped
            return
        self._bursting = True
        start = time.perf_counter()
        for name in self.kernels:
            kernel, warm, ref_s = KERNELS[name]
            kernel(warm)  # warm the kernel's code and data first
            mid = time.perf_counter()
            kernel()
            self.speeds[name].append(ref_s / (time.perf_counter() - mid))
        self.starts.append(start)
        self.busy.append(time.perf_counter() - start)
        self._bursting = False

    def duration(self, start: float, end: float, kernel: str) -> float:
        """Normalized duration of the interval [start, end] of this run, at
        the speed the named kernel measured around it."""
        inside = slice(bisect_left(self.starts, start), bisect_right(self.starts, end))
        busy = sum(self.busy[inside])
        lo = bisect_left(self.starts, start - NEAR_S)
        hi = bisect_right(self.starts, end + NEAR_S)
        while hi - lo < MIN_BURSTS and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        return (end - start - busy) * fmean(self.speeds[kernel][lo:hi])
