"""Step timing, rescaled to a reference host speed.

The host this benchmark runs on is shared: its speed drifts by tens of
percent over seconds to minutes, as whole runs have shown, and medians
within a run cannot remove a slowdown that lasts the whole run. So the
:class:`Clock` times a fixed kernel (:func:`speed_kernel`) every
:data:`CALIBRATE_EVERY_S` between steps, and rescales each step by the
kernel's time around it: a step reported as 1 s took as long as
``1 / REF_KERNEL_S`` kernels. The kernel uses only the standard library
and NumPy, so no change to the simulator can speed it up; a slower
simulator still reads slower.
"""

from __future__ import annotations

import heapq
import math
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["CALIBRATE_EVERY_S", "REF_KERNEL_S", "Clock", "speed_kernel"]

#: host seconds the kernel takes at the reference speed: the fast mode of
#: the shared 2-vCPU Xeon host the workload sizes were chosen on
REF_KERNEL_S = 0.004

#: longest gap between two kernel timings inside a pass
CALIBRATE_EVERY_S = 0.15


def speed_kernel() -> int:
    """A fixed mix of the host work the simulator does, about 4 ms of it.

    An event loop (heap traffic, generator resumes, dict stores), random
    reads from a cache-resident dict, and small NumPy operations. Timed
    beside simulator steps over ten runs of each workload, this mix
    tracked their slowdowns better than each part alone or a mix with
    cache-missing reads.
    """
    table: Dict[int, int] = {}

    def process():
        acc = 0
        while True:
            v = yield acc
            acc += v & 7
            table[v & 255] = acc

    procs = [process() for _ in range(16)]
    for p in procs:
        next(p)
    heap: List[Tuple[int, int]] = []
    total = 0
    for i in range(3000):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if len(heap) > 32:
            _, j = heapq.heappop(heap)
            total += procs[j & 15].send(j)
    for k in _KEYS:
        total ^= _TABLE[k]
    for i in range(400):
        total += int((_SMALL[_EVERY_THIRD] * 0.5 + i).sum())
    return total


_TABLE = {i: i * 3 for i in range(4096)}
_KEYS = [(i * 40503) % 4096 for i in range(17000)]
_SMALL = np.arange(64.0)
_EVERY_THIRD = np.arange(0, 64, 3)


class Clock:
    """One pass's timed steps, in order, with optional trace spans.

    Passes of one workload run the same steps in the same order, so step
    ``i`` of every pass times the same work; the runner takes per-step
    medians across passes. Call :meth:`calibrate` once before and once
    after the pass; the clock calibrates between steps on its own every
    ``calibrate_every`` seconds.
    """

    def __init__(self, tracer: Any = None, calibrate_every: float = CALIBRATE_EVERY_S) -> None:
        #: ``(kind, label, seconds, index of the last kernel timing before it)``;
        #: ``label`` names the cell a step answers
        self.steps: List[Tuple[str, Optional[str], float, int]] = []
        #: host seconds of each kernel timing
        self.kernel_s: List[float] = []
        self.counts: Dict[str, int] = {}
        self.tracer = tracer
        self.calibrate_every = calibrate_every
        self._calibrated_at = -math.inf

    def calibrate(self) -> None:
        t0 = perf_counter()
        speed_kernel()
        self._calibrated_at = perf_counter()
        self.kernel_s.append(self._calibrated_at - t0)

    @contextmanager
    def step(self, kind: str, label: Optional[str] = None) -> Iterator[None]:
        if perf_counter() - self._calibrated_at > self.calibrate_every:
            self.calibrate()
        t0 = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t0
            self.steps.append((kind, label, dt, len(self.kernel_s) - 1))
            if self.tracer is not None:
                self.tracer.event(label or kind, t0, dt)

    def scale(self) -> float:
        """Reference seconds per host second over the whole pass."""
        return REF_KERNEL_S / statistics.median(self.kernel_s)

    def scaled_steps(self) -> List[Tuple[str, Optional[str], float]]:
        """``(kind, label, reference seconds)``: each step rescaled by the
        mean of the kernel timings just before and just after it."""
        k = self.kernel_s
        last = len(k) - 1
        return [
            (kind, label, dt * 2 * REF_KERNEL_S / (k[j] + k[min(j + 1, last)]))
            for kind, label, dt, j in self.steps
        ]

    def seconds(self, kind: str) -> float:
        """Host seconds of this pass's steps of ``kind``, not rescaled."""
        return sum(dt for k, _, dt, _ in self.steps if k == kind)
