"""Host-speed probe: a fixed calibration kernel run between the timed calls.

The benchmark runs on shared 2-vCPU hosts whose speed changes with the
load of other tenants: the same degen call takes up to twice as long in a
busy stretch, and busy stretches last from under a second to minutes.  So
after every timed call the benchmark runs this kernel for about a fifth of
the call's time (once at least), and reports times scaled to the speed at
which the kernel takes ``REFERENCE_S``:

    scaled time = measured time * REFERENCE_S / mean kernel time

The kernel is plain Python with no degen code (union-find over fixed pairs,
dictionary counting, a sort), so a change to degen never changes it.  Over six
runs of the catalog workload on a 2-vCPU Xeon host at 2.0 GHz, the scaled
throughput spread 3% (quartile distance over median) where the raw one
spread 12%.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

# About the kernel's time on an idle host of the kind the benchmark was made
# on (Xeon vCPU at 2.0 GHz); it only fixes the scale of the reported times.
REFERENCE_S = 0.005
SHARE = 0.2  # kernel time per unit of measured time

_N = 4000
_RNG = random.Random(12345)
_PAIRS = [(_RNG.randrange(_N), _RNG.randrange(_N)) for _ in range(_N)]


def kernel() -> float:
    """Run the calibration kernel once and return its duration in seconds."""
    t0 = perf_counter()
    parent = list(range(_N))
    counts: dict[tuple[int, int], int] = {}
    for a, b in _PAIRS:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[max(a, b)] = min(a, b)
        key = (a % 61, b % 59)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())
    return perf_counter() - t0


class Probe:
    """Kernel timings taken right after measured calls."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def after(self, measured: float) -> None:
        """Run the kernel for SHARE of ``measured`` seconds, at least once."""
        spent = 0.0
        while not spent or spent < SHARE * measured:
            t = kernel()
            self.times.append(t)
            spent += t

    def scale(self) -> float:
        return scale(self.times)


def scale(kernel_times: list[float]) -> float:
    """Factor turning measured seconds into reference seconds."""
    return REFERENCE_S / statistics.fmean(kernel_times)
