"""Machine-speed probes: time measured on a shared machine, rescaled to a
fixed reference speed.

On a shared 2-vCPU VM the same pure-Python loop runs up to 1.8x slower in
stretches of a few seconds, and the level drifts by 20-30% over tens of
minutes, while no CPU time is stolen (process time tracks wall time).  A
benchmark figure in raw seconds then moves with the neighbours, not with
the program.  So a pass runs a fixed kernel between items, at least every
``PROBE_EVERY_S``, and an interval of wall time is rescaled by
``KERNEL_REF_S`` over the median kernel time of the seconds around it: the
result is the time the interval would have taken where the kernel takes
exactly ``KERNEL_REF_S``.  The kernel is benchmark code; a change to the
program cannot move it.
"""

import bisect
import statistics
from time import perf_counter

# The kernel's duration on a quiet machine, which fixes the reference speed.
KERNEL_REF_S = 0.0006
PROBE_EVERY_S = 0.03
KERNELS_PER_PROBE = 2
# Kernel samples within this distance of an interval set its speed.  Over
# five seeds of each workload (with an earlier kernel), windows of 2 to
# 10 s and the whole pass all gave spreads of 0.03 to 0.09; a 0.25 s window
# gave up to 0.11 on the long tree items.
WINDOW_S = 5.0


def kernel() -> int:
    """Fixed interpreter work of the kind the program does: small frozensets
    built from bit masks, intersected, sorted into tuples and used as dict
    keys.  Over 100 s of alternating runs, the program's items slowed by
    0.98 to 1.12 times as much as this kernel (in logs); a loop of integer
    and dict operations alone, 0.79 to 0.88 times."""
    r = 12345
    sets = []
    for _ in range(120):
        r = (r * 1103515245 + 12345) & 0x7FFFFFFF
        sets.append(frozenset(j for j in range(24) if r >> j & 1))
    keys = {tuple(sorted(s)): len(s) for s in sets}
    meets = {a & b for a in sets[:40] for b in sets[:10]}
    return len(keys) + len(meets)


class Speedometer:
    def __init__(self):
        self.at: list[float] = []  # midpoints of kernel runs, perf_counter
        self.took: list[float] = []

    def probe(self):
        for _ in range(KERNELS_PER_PROBE):
            t0 = perf_counter()
            kernel()
            t1 = perf_counter()
            self.at.append((t0 + t1) / 2)
            self.took.append(t1 - t0)

    def maybe_probe(self):
        if perf_counter() - self.at[-1] >= PROBE_EVERY_S:
            self.probe()

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second over [t0, t1], from the kernel
        samples within WINDOW_S of the interval.  A pass probes before every
        item, so there is always one."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        return KERNEL_REF_S / statistics.median(self.took[lo:hi])

    def overall(self) -> float:
        """Reference seconds per wall second over all samples."""
        return KERNEL_REF_S / statistics.median(self.took)
