"""Host-speed probe: rescale wall time to a fixed reference speed.

The benchmark runs on shared hosts whose speed changes in phases, from under
a second to a minute or more long; in a slow phase the same call takes up to
twice as long (see NOTES.md).  One reconstruction takes 20-50 s, too long to
repeat and keep the fastest repeat.  Instead the probe times a fixed
reference kernel while the work runs: Kalman-like steps on 30-by-30 and on
12-by-12 matrices (the state sizes of the desk and long-series workloads)
and a plain interpreter loop, the mix of small numpy calls and interpreter
work that the library's smoother and SBL loops are made of.  Each part
alone tracked one workload's slowdowns better than the other; together
they track both.  ``running()`` samples it from a ``SIGALRM`` timer every
``INTERVAL`` seconds; ``speed_now()`` takes a few samples directly, for
steps too short for the timer.

``REFERENCE_S`` over the kernel's time at a sample is the host's speed at
that moment, relative to a fixed reference speed.  ``seconds(t0, t1)`` is
the wall time from ``t0`` to ``t1`` less the probe's own time, times the
mean of that speed over the samples taken in between: the time the interval
would have taken at the reference speed.  On the 2-core x86_64 host the
benchmark was sized on, three runs of one long-series cell took 27.4-28.9 s
of wall time and 14.9-15.2 reference seconds.

The timer handler runs on the main thread between bytecodes and touches no
state of the library, so the reconstruction computes exactly what it
computes without the probe.
"""

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

INTERVAL = 0.1        # seconds between timer samples
WARMUP = 20           # kernel calls before the first sample
NOW_SAMPLES = 5       # samples per speed_now()
REFERENCE_S = 5.5e-4  # kernel seconds at the reference speed: about its
                      # fastest time on the host above


def mean_speed(samples):
    return statistics.fmean(REFERENCE_S / k for _, k, _ in samples)


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._A = {n: 0.1 * rng.standard_normal((n, n)) for n in (30, 12)}
        self.samples = []   # (start, kernel seconds, probe seconds)
        for _ in range(WARMUP):
            self.kernel()

    def _steps(self, n, p, steps):
        A, eye = self._A[n], np.eye(n)
        P = eye
        for _ in range(steps):
            P = A @ P @ A.T + eye
            K = np.linalg.solve(P[:p, :p] + eye[:p, :p], P[:p, :]).T
            P = P - K @ P[:p, :]
        return P

    def kernel(self):
        self._steps(30, 10, 5)
        self._steps(12, 5, 15)
        total = 0.0
        for i in range(2000):
            total += i * 0.5
        return total

    def sample(self, *_):
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.samples.append((t0, t1 - t0, time.perf_counter() - t0))

    @contextmanager
    def running(self):
        """Sample from a timer while the block runs; the timer is stopped
        and the previous handler restored on every way out."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        try:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def speed_now(self):
        """Mean speed, relative to the reference, over samples taken now."""
        for _ in range(NOW_SAMPLES):
            self.sample()
        return mean_speed(self.samples[-NOW_SAMPLES:])

    def seconds(self, t0, t1):
        """Reference seconds of the wall interval from ``t0`` to ``t1``; the
        nearest sample gives the speed when none fell in between."""
        inside = [s for s in self.samples if t0 <= s[0] < t1]
        spent = sum(p for _, _, p in inside)
        nearest = [min(self.samples, key=lambda s: abs(s[0] - t0))]
        return (t1 - t0 - spent) * mean_speed(inside or nearest)

    def summary(self):
        kernel = [k for _, k, _ in self.samples]
        return {"samples": len(kernel), "reference_ms": 1e3 * REFERENCE_S,
                "fastest_ms": 1e3 * min(kernel),
                "median_ms": 1e3 * statistics.median(kernel),
                "probe_s": sum(p for _, _, p in self.samples)}
