"""Reference kernels, sampled all through a run, that put the benchmark's
times on one scale whatever the host's current speed.

On a shared host the speed of a core swings by 1.5x to 2x, both from one
second to the next and over minutes, as other tenants come and go. A time
of the program read alone moves with it. So while a run measures, a timer
interrupts it every PERIOD seconds and times a fixed kernel. A sample's
*slowness* is the kernel's time over its nominal time. An interval of the
program is reported as its wall time, less the kernel time inside it,
divided by the median slowness of the samples in and around it: the
interval as it would read on a host where the kernel takes its nominal
time. A change to the program moves the interval and not the kernel,
which is the benchmark's own code and calls only NumPy and SciPy.

The timer's handler runs in the main thread between two bytecodes, so it
samples inside calls the benchmark cannot enter (a set-up, a round trip)
as well as between them, and starts no thread or process.

Each workload samples the kernel that is slowed by a busy host the way its
own work is: ``small`` (Python, small dense BLAS products, a small sparse
product) for training, ``spmm`` (a sparse-times-dense product of the round
trip's shape) for the matrix-free round trip.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np
import scipy.sparse as sp

from stats import median

# Nominal kernel times, in seconds: about the lower decile of 1000 timings
# on a shared 2-vCPU "Intel(R) Xeon(R) Processor" virtual machine, one BLAS
# thread. Fixed, so that results of any host share one scale.
NOMINAL_S = {"small": 0.0018, "spmm": 0.0060}
PERIOD = 0.05
# Fewest samples an interval's slowness is taken from.
MIN_SAMPLES = 2


def small_kernel():
    """Python, small dense BLAS products and a small sparse product."""
    rng = np.random.default_rng(0)
    a = rng.random((300, 300))
    b = rng.random((300, 64))
    s = sp.random(2000, 2000, density=0.005, format="csr", random_state=rng)
    x = rng.random((2000, 32))

    def run() -> None:
        counts: dict[int, int] = {}
        for i in range(2000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        for _ in range(4):
            a @ b
        s @ x

    return run


def spmm_kernel():
    """A sparse-times-dense product: N = 20000, ten entries per row, 32
    columns."""
    rng = np.random.default_rng(0)
    s = sp.random(20000, 20000, density=0.0005, format="csr", random_state=rng)
    x = rng.random((20000, 32))

    def run() -> None:
        s @ x

    return run


KERNELS = {"small": small_kernel, "spmm": spmm_kernel}


class Sampler:
    """Samples one kernel every PERIOD seconds while in a ``with`` block.

    ``Sampler(None)`` samples nothing, and measures wall time as read.
    """

    def __init__(self, kernel: str | None):
        self.kernel = kernel
        self._run = KERNELS[kernel]() if kernel else None
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.slownesses: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._run()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.slownesses.append((end - start) / NOMINAL_S[self.kernel])

    def __enter__(self) -> "Sampler":
        if self._run is not None:
            # A first sample now, so that every interval has one near it.
            self._sample(signal.SIGALRM, None)
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        if self._run is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall, scaled) of the interval from t0 to t1.

        ``wall`` leaves out the kernel time inside the interval. ``scaled``
        is ``wall`` over the median slowness of the samples that start
        within PERIOD of the interval, or of the MIN_SAMPLES nearest ones.
        """
        lo = bisect.bisect_left(self.starts, t0 - PERIOD)
        hi = bisect.bisect_right(self.starts, t1 + PERIOD)
        inside = sum(
            max(0.0, min(e, t1) - max(s, t0))
            for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])
        )
        wall = (t1 - t0) - inside
        if not self.starts:
            return wall, wall
        while hi - lo < min(MIN_SAMPLES, len(self.starts)):
            before = self.starts[lo - 1] if lo > 0 else None
            after = self.starts[hi] if hi < len(self.starts) else None
            if after is None or (before is not None and t0 - before <= after - t1):
                lo -= 1
            else:
                hi += 1
        return wall, wall / median(self.slownesses[lo:hi])
