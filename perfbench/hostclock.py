"""A sampler of the host's speed, taken while the workload runs.

The shared machine the benchmark runs on changes speed by tens of per cent
every few seconds, whatever the program does.  A background thread times a
fixed pure-Python kernel, independent of roelcke, ten times a second; the
mean of those times says how slow the host was over the run.  The kernel
holds the interpreter lock for under a millisecond, below the 5 ms switch
interval, so it takes about 1 % of the workload's time.

Times measured under a clock are rescaled to a reference host, one whose
kernel takes REFERENCE_KERNEL_S: the gated metrics are in those seconds.
"""
from __future__ import annotations

import random
import statistics
import threading
import time
from fractions import Fraction

PERIOD_S = 0.1  # pause between samples
# The median kernel time over the proof runs on the 2-vCPU machine the
# benchmark was built on (README.md).  Only a scale: never change it, or
# every recorded figure changes with it.
REFERENCE_KERNEL_S = 0.70e-3


def _operands() -> list[Fraction]:
    rng = random.Random(20090321)
    return [Fraction(rng.randrange(1, 10**5), rng.randrange(1, 10**5))
            for _ in range(200)]


def kernel(xs: list[Fraction]) -> Fraction:
    """Fixed exact arithmetic of the kind the workloads do."""
    total = Fraction(0)
    for a, b in zip(xs[::2], xs[1::2]):
        total += a * b
    return total


class HostClock:
    """Background sampler; use as a context manager around the timed part."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._xs = _operands()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while True:  # sample first, so even a short span has a sample
            t0 = time.perf_counter()
            kernel(self._xs)
            self.samples.append(time.perf_counter() - t0)
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self) -> "HostClock":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mean_s(self) -> float:
        """Mean kernel time, leaving out samples a thread switch stretched.

        A sample more than three times the median was preempted by the
        workload's own thread, not slowed by the host.
        """
        cap = 3 * statistics.median(self.samples)
        return statistics.fmean(s for s in self.samples if s <= cap)

    def to_reference(self, seconds: float) -> float:
        """Seconds measured while this clock ran, as seconds on the reference host."""
        return seconds * REFERENCE_KERNEL_S / self.mean_s()
