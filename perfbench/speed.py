"""Machine speed from a fixed probe, for scaling times to a reference speed.

The machines this benchmark runs on are shared.  For a minute or two at a
time a neighbour slows the core, and identical work then takes up to 1.5
times longer; process CPU time grows just as much, and so does the best
of several repeats.  A fixed pure-Python probe, run between requests,
slows down alike.  Scaling each request's latency by REF_PROBE_S over the
probe times around it gives its latency at the reference speed.  Those
figures follow ddlkit's own work and move much less with the machine.

The probe runs no ddlkit code, so a change to ddlkit never moves it.
"""

from __future__ import annotations

import bisect
import statistics
import time

# about the probe's time on an idle core of a shared 2-vCPU x86 machine
# (Python 3.11); it fixes the unit of the scaled figures, nothing more
REF_PROBE_S = 0.8e-3
SAMPLE_EVERY_S = 0.05
WINDOW_S = 0.5


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _probe() -> float:
    """Time one run of a fixed interpreter-bound kernel: objects, tuples,
    isinstance and dict lookups, as in ddlkit's evaluators."""
    t0 = time.perf_counter()
    memo: dict = {}
    acc = 0
    for i in range(1500):
        cell = _Cell((i & 31, i % 5), i)
        if isinstance(cell.key, tuple):
            acc += memo.get(cell.key, 0)
        memo[cell.key] = (acc ^ cell.value) & 0xFFFF
    return time.perf_counter() - t0


class Speedometer:
    """Probe times over the run, sampled between requests."""

    def __init__(self):
        self.at: list[float] = []
        self.probe: list[float] = []
        self.sample(force=True)

    def sample(self, force: bool = False) -> None:
        """Run the probe if SAMPLE_EVERY_S has passed since the last one."""
        now = time.perf_counter()
        if force or now - self.at[-1] >= SAMPLE_EVERY_S:
            self.probe.append(_probe())
            self.at.append(time.perf_counter())

    def scale(self, start: float, end: float) -> float:
        """REF_PROBE_S over the median probe time within WINDOW_S of the
        interval [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        near = self.probe[lo:hi] or [self.probe[min(lo, len(self.probe) - 1)]]
        return REF_PROBE_S / statistics.median(near)


def scale_now(samples: int = 5) -> float:
    """REF_PROBE_S over the median of a few probes run right now."""
    return REF_PROBE_S / statistics.median(_probe() for _ in range(samples))
