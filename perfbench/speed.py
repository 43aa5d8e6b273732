"""Machine-speed probe: a fixed reference kernel sampled during the run.

The benchmark runs on shared machines whose speed drifts by tens of percent
over minutes. A timer signal interrupts the run every ``PERIOD`` seconds
and times one run of a fixed pure-Python kernel: the benchmark's own rank,
flat and elimination code on fixed families, the same kind of bitmask loops
matlift spends its time in. The kernel never changes with matlift, so its
median time measures the machine alone. Time spent in the probe is kept out
of every measured interval through :meth:`Probe.clock`.
"""

from __future__ import annotations

import signal
import statistics
import time
from itertools import combinations

import oracle

PERIOD = 0.05
# Kernel time that defines the reference speed; normalized seconds are the
# seconds the work would take on a machine where the kernel takes this long.
REFERENCE_S = 0.001
# The kernel's time swings about 1.5 times as far as the workloads' when the
# machine speeds up or slows down (30 runs per workload on a shared 2-vCPU
# VM, unscaled pass times 30-44 s for exhaustive-n5). Scaling by the full
# kernel ratio over-corrects, so times are scaled by its 2/3 power.
EXPONENT = 2 / 3

_N = 7
_FAMILIES = [
    [sum(1 << i for i in combo) for combo in combinations(range(_N), size)]
    for size in (2, 3, 4)
]


def kernel() -> None:
    for family in _FAMILIES:
        rk = oracle.rank_table(_N, family)
        oracle.flat_bits(_N, rk)
        oracle.eliminates(family[:12])


class Probe:
    """Samples the kernel from SIGALRM while active; a context manager."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def clock(self) -> float:
        """perf_counter minus the time spent inside the probe."""
        return time.perf_counter() - self.spent

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Multiply a measured time by this to get reference-speed seconds."""
        return (REFERENCE_S / statistics.median(self.samples)) ** EXPONENT
