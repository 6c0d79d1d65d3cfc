"""Host-speed calibration: a fixed piece of work timed next to every operation.

The benchmark runs on a shared host whose speed drifts by up to a factor
of two over minutes (other tenants' load), which moves every timing of
the program with it.  To report times that move only when the program
does, :func:`calibrate` runs before the first operation of a timed pass
and after each one, and the run's times are scaled by ``REFERENCE_S /
(mean of the run's calibration times)``: the time the operations would
have taken on a host on which the calibration takes ``REFERENCE_S``.

The calibration imports nothing from the program, so no change to the
program can change it.  It mixes the two kinds of work the program does:
an interpreter-bound event loop over small objects (like the event
oracle and the kernels' bookkeeping) and small-array NumPy reductions
(like the vectorized kernels' rounds).
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Seconds one :func:`calibrate` takes on the reference host (roughly
#: its time in a quiet period of a 2-vCPU Xeon VM, Python 3.11.7, NumPy
#: 2.4.6).  Only a unit: it scales every normalised time alike.
REFERENCE_S = 0.020

_EVENTS = 15000
_ROUNDS = 300


class _Job:
    __slots__ = ("id", "left", "done")

    def __init__(self, ident: int, left: float):
        self.id = ident
        self.left = left
        self.done = 0.0


def _event_loop() -> float:
    """Interpreter-bound: a heap-driven loop over small objects."""
    state = 12345
    jobs = {i: _Job(i, 1.0 + i % 5) for i in range(64)}
    heap = [(0.0, i) for i in range(64)]
    heapq.heapify(heap)
    total = 0.0
    for _ in range(_EVENTS):
        t, i = heapq.heappop(heap)
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        dt = (state % 1000) / 1000.0 + 0.001
        job = jobs[i]
        job.done += dt
        if job.done >= job.left:
            total += job.done
            job.done = 0.0
        heapq.heappush(heap, (t + dt, i))
    return total


_GRID = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)


def _array_rounds() -> float:
    """NumPy-bound: small-array selections, as in one kernel round."""
    total = 0.0
    for i in range(_ROUNDS):
        b = np.minimum(_GRID, _GRID[::-1]) + i
        total += float(b.min(axis=1).sum()) + int(np.argmin(b[:, i % 64]))
    return total


def calibrate() -> tuple[float, float]:
    """Run the calibration work once; return its (wall, CPU) seconds."""
    c0, t0 = time.process_time(), time.perf_counter()
    _event_loop()
    _array_rounds()
    return time.perf_counter() - t0, time.process_time() - c0
