"""Machine-speed gauge: a fixed reference workload timed next to the ops.

The benchmark runs on a few cores of a shared host whose speed moves by
up to 1.6x for seconds to minutes at a time.  The runner therefore
times a reference workload that does not touch the package between
operations (at most every ``interval_s``) and right after each set-up,
and reports every end-to-end time twice: as measured, and scaled by
``ref_ms / reference time`` to the speed at which the reference takes
``ref_ms``.  The gated metrics are the scaled ones.  The reference does
not depend on the package, so a change to the package moves the scaled
times in proportion to the measured ones.

Two references, each tracking the machine's speed for one kind of work:

- ``in_process``: a kernel of half interpreter work (float math and dict
  stores, like the closed-form core) and half numpy work (like the
  quadrature oracle), for the library workloads;
- ``process_start``: a bare ``python -c pass``, for the CLI workload,
  whose time is mostly interpreter start-up and imports; process
  start-up slowed down by up to 1.4x at times when the in-process
  kernel did not.

On a 2-vCPU Intel Xeon virtual machine, scaling cut the coefficient of
variation of op times over 10 s windows from 7-10% to 2-4% for the
library workloads and from 7% to 3% for the CLI.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

# Scaled times are ms at the speed where the kernel takes 1.7 ms and a
# bare python start 45 ms.  On the 2-vCPU Intel Xeon virtual machine the
# benchmark was written on, the kernel took 1.2-2.3 ms and the start
# 43-70 ms as the host's load came and went.
REF_KERNEL_MS = 1.7
REF_PROCESS_MS = 45.0

# The median of this many latest reference runs gives the current speed.
WINDOW = 3


def kernel(np, grid) -> float:
    """The in-process reference: ~1 ms of interpreter loop, ~1 ms of numpy."""
    acc = 0.0
    table = {}
    for i in range(4000):
        acc += math.exp(-(i % 64) * 0.125) * i
        table[i & 255] = acc
    for k in range(12):
        acc += float(np.exp(-grid * grid * (1.0 + k)).sum())
    return acc


def process_start_ms(cwd, env: dict) -> float:
    """Wall time in ms of a bare ``python -c pass``; waits for it to end."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, env=env,
                   capture_output=True, timeout=60, check=True)
    return (perf_counter() - t0) * 1e3


@dataclass(frozen=True)
class Reference:
    """A reference workload: its nominal time and how to run it."""

    name: str
    ref_ms: float
    run_ms: Callable[[], float]
    interval_s: float


def in_process() -> Reference:
    """The kernel; call it after set-up, as it imports numpy."""
    import numpy as np
    grid = np.linspace(-8.0, 8.0, 16384)

    def run_ms() -> float:
        t0 = perf_counter()
        kernel(np, grid)
        return (perf_counter() - t0) * 1e3
    return Reference("in-process kernel", REF_KERNEL_MS, run_ms, 0.02)


def process_start(cwd, env: dict) -> Reference:
    return Reference("python -c pass", REF_PROCESS_MS,
                     lambda: process_start_ms(cwd, env), 0.25)


def settled_factor(ref: Reference, runs: int = 5) -> float:
    """Scale factor from the median of ``runs`` reference runs."""
    return ref.ref_ms / statistics.median(ref.run_ms() for _ in range(runs))


class Gauge:
    """Current scale factor for a closed loop, re-measured as it runs."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self.times: list[float] = []
        self._recent: deque = deque(maxlen=WINDOW)
        self._next = -math.inf

    def factor(self) -> float:
        """ref_ms over the median of the latest reference runs."""
        if perf_counter() >= self._next:
            ms = self.ref.run_ms()
            self.times.append(ms)
            self._recent.append(ms)
            self._next = perf_counter() + self.ref.interval_s
        return self.ref.ref_ms / statistics.median(self._recent)
