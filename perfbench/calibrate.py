"""Machine-speed calibration, so timings compare across noisy minutes.

On a shared machine the speed of one core drifts by up to 1.75x over
minutes, as other tenants load the host.  A fixed kernel of small numpy
operations in a Python loop (the same mix of interpreter and tiny-array
work as the program's per-node code, but none of the program's code)
slows down in step with it: a longer kernel of the same operations,
interleaved with a closure scenario for four minutes on the reference
box, saw the scenario's 15-second medians range over +-25% while its
ratio to the kernel stayed within +-4%.

:class:`SpeedGauge` times the kernel four times a second through a run,
from a timer signal, so also in the middle of a long scenario; the time
the kernel takes is left out of what it interrupted.  The speed factor
of an interval is the mean kernel time in and near it divided by
:data:`REFERENCE_S`, the kernel time on the reference machine; a
measured time divided by its factor is in reference seconds.  The speed
also changes within a second, so many short samples track it better than
a few long ones.

Interpreter start-up slows differently (file reads, unmarshalling, page
faults), so set-up is calibrated against a start-up of its own: a fresh
interpreter that imports only the program's dependencies
(:data:`START_CODE`), timed right before each set-up probe.  Over
100 seconds of interleaved probes the set-up time ranged over +-30%
(quartile spread) and its ratio to that start-up over +-11%.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from typing import List, Tuple

import numpy as np

REFERENCE_S = 0.010     # kernel time on a 2-core Xeon box with numpy 2.4.6
START_REFERENCE_S = 0.150   # START_CODE start-up time on the same box
START_CODE = ("import time, numpy, jsonschema; "
              "print(time.clock_gettime(time.CLOCK_MONOTONIC))")
KERNEL_ITERATIONS = 200
SAMPLE_INTERVAL_S = 0.25
WINDOW_MARGIN_S = 0.5


def kernel() -> float:
    x = np.array([0.1, 0.2, 0.3])
    m = np.eye(3)
    total = 0.0
    for _ in range(KERNEL_ITERATIONS):
        a = m + 0.01 * x[0]
        total += float(np.linalg.det(a))
        np.cross(x, x + 1.0)
        np.einsum("ij,j->i", a, x)
        a.T @ a
        bool(np.all(np.isfinite(x)))
    return total


class SpeedGauge:
    """Kernel timings along a run, and the speed factor of any interval.

    ``paused`` totals the time spent in the kernel, so that an interval
    the kernel interrupted can leave it out.
    """

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []   # (midpoint, seconds)
        self.paused = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append((0.5 * (start + end), end - start))
        self.paused += end - start

    def maybe_sample(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= SAMPLE_INTERVAL_S:
            self.sample()

    @contextlib.contextmanager
    def sampling(self):
        """Sample every SAMPLE_INTERVAL_S from a timer signal, also in the
        middle of the work; the handler runs between bytecodes of the
        main thread, so the work waits while the kernel runs."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """Mean kernel time around [start, end] over the reference time."""
        near = [s for t, s in self.samples
                if start - WINDOW_MARGIN_S <= t <= end + WINDOW_MARGIN_S]
        if not near:
            middle = 0.5 * (start + end)
            near = [min(self.samples, key=lambda item: abs(item[0] - middle))[1]]
        return statistics.fmean(near) / REFERENCE_S
