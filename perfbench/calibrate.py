"""A fixed reference computation that measures how fast the host runs now.

On a shared host the same work runs at speeds up to ~1.9x apart: within a
few milliseconds the host alternates between a fast and a slow speed, and
the share of slow time drifts over seconds to minutes. CPU time equals wall
time, so the slowdown is not time taken away from the process but slower
execution (cores and caches shared with other tenants). No statistic over a
40 s run removes a slow phase that lasts the whole run.

So while the benchmark runs, a timer interrupts it every `INTERVAL` seconds
and runs one round of this reference in the main thread, also in the middle
of an operation. The sampler's clock stands still during those rounds, so
every timing taken with it leaves them out. A pass's timings are then
divided by the host's slowness during the pass: its median round over
`REF_S`. An adjusted timing reads as the wall time on a host where one round
takes `REF_S`. The reference does not touch gridcp, so a change to gridcp
moves adjusted times as it moves wall times on a host of steady speed.

A round is interpreter work (a dict-update loop) and memory-bound numpy work
(an elementwise product and a reduction into preallocated buffers, so no
round allocates or faults in pages), because the workloads mix the two.
"""

from __future__ import annotations

import functools
import signal
import statistics
import time

import numpy as np

# Seconds of one round in the host's fast phase (2-vCPU Xeon VM, Python 3.11).
REF_S = 0.006
# Seconds between two interrupting rounds; each costs about 2-3% of the run.
INTERVAL = 0.25


@functools.cache
def _buffers() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a = np.random.default_rng(0).standard_normal((250, 400, 8))
    return a, np.empty_like(a), np.empty(a.shape[:2])


def _round() -> float:
    """Seconds of one round: a dict-update loop, then a numpy product and
    reduction into preallocated buffers."""
    a, product, total = _buffers()
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(20000):
        d[i % 97] = d.get(i % 97, 0) + i
    np.multiply(a, a, out=product)
    product.sum(axis=2, out=total)
    return time.perf_counter() - t0


def rounds(count: int) -> list[float]:
    """Seconds of each of `count` rounds run now."""
    return [_round() for _ in range(count)]


def slowness(samples: list[float]) -> float:
    """How many times slower than REF_S the host ran over `samples`."""
    return statistics.median(samples) / REF_S


class Sampler:
    """Once started, interrupts the process every INTERVAL seconds with one
    round; its `clock` leaves those rounds out. SIGALRM is the process's
    only timer signal, so one sampler runs at a time."""

    def __init__(self) -> None:
        self.paused = 0.0  # seconds spent in interrupting rounds
        self.ticks: list[tuple[float, float]] = []  # (clock() at the round, its seconds)

    def clock(self) -> float:
        """`time.perf_counter()` less the time spent in interrupting rounds."""
        return time.perf_counter() - self.paused

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        secs = _round()
        self.ticks.append((t0 - self.paused, secs))
        self.paused += time.perf_counter() - t0

    def start(self) -> None:
        _buffers()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def ticks_since(self, t: float) -> list[float]:
        """Seconds of each interrupting round since `clock()` read `t`."""
        return [secs for at, secs in self.ticks if at >= t]
