"""How fast the host ran during a run: a fixed kernel timed between operations.

The sandbox this benchmark was written on is a small VM on a shared host whose
speed moves by 30-45% for minutes at a time (no steal time, CPU time equal to
wall time: the machine itself runs slower).  A wall-clock number taken there
says as much about the neighbours as about the program, and two sets of runs
of the same commit differ by more than any bound ``BENCHMARK.json`` may state.
So a run spends :data:`DUTY` (5%) of its time on a fixed numpy + Python kernel,
in probes between its operations and never inside one, and states its
end-to-end timings at a reference host speed: ``wall seconds * REFERENCE_MS /
(mean kernel ms of this run)``.  The wall-clock values are printed beside
them.  Between two seven-minute recordings the host slowed write, read,
cold-decode and warm-serve operations by 44%, 47%, 46% and 39% and the kernel
by 46%; within them, groups of four operations had a distance between
quartiles of 14-25% of the median as measured and 5-9% restated.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

__all__ = ["HostSpeed", "REFERENCE_MS"]

#: the kernel's mean on the sandbox in a quiet spell; timings are stated at this speed
REFERENCE_MS = 3.0
#: share of the run spent on the kernel
DUTY = 0.05
#: kernels per probe at most, so one probe never takes longer than a small operation
MAX_KERNELS = 32


class HostSpeed:
    """Kernel timings of one run; :meth:`probe` goes between timed operations."""

    def __init__(self) -> None:
        self._codes = np.random.default_rng(0).integers(0, 255, 2048)
        self._work = np.empty_like(self._codes)
        self._table = np.arange(1 << 16)
        self.samples_ms: List[float] = []
        self._mark = time.perf_counter()
        self._run(MAX_KERNELS // 2)

    def _kernel(self) -> float:
        """Milliseconds for a fixed piece of work shaped like the program's own.

        Hundreds of small in-place numpy calls and table gathers on a few KB
        (what the entropy coder, the predictor and the geometry do all day)
        plus a short interpreter loop.  Measured against write, full-read,
        cold-decode and warm-serve operations through spells where the host
        slowed by a quarter, each slowed by 0.9-1.07% per 1% of this kernel;
        a kernel of 48^3 array passes and a long Python loop moved 1.3-1.5x
        less than the operations and left half of the host's effect in.
        """
        start = time.perf_counter()
        acc = 0
        for _ in range(350):
            np.add(self._codes, 3, out=self._work)
            np.bitwise_and(self._work, 0xFFFF, out=self._work)
            acc += int((self._table[self._work] > 100).sum())
        for i in range(4000):
            acc += i * i % 7
        return (time.perf_counter() - start) * 1e3

    def _run(self, kernels: int) -> None:
        self.samples_ms.extend(self._kernel() for _ in range(kernels))
        self._mark = time.perf_counter()

    def probe(self) -> None:
        """Run the kernels owed since the last probe (none if under one is owed)."""
        owed = (time.perf_counter() - self._mark) * DUTY / (REFERENCE_MS / 1e3)
        if owed >= 1.0:
            self._run(min(MAX_KERNELS, int(owed)))

    @property
    def calib_ms(self) -> float:
        return statistics.mean(self.samples_ms)

    def at_reference(self, seconds: float) -> float:
        """``seconds`` of this run's wall clock, restated at the reference host speed."""
        return seconds * REFERENCE_MS / self.calib_ms
