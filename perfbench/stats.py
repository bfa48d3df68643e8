"""Order statistics shared by the workloads.

The benchmark runs on shared machines whose slow episodes (seconds to
minutes long, up to ~2x) only ever add time.  Timed phases are
therefore cut into one-second windows and a run reports the window at
the fast decile — the 90th percentile of per-window rates, the 10th
percentile of per-window latency percentiles — which stays put as long
as a tenth of the run is undisturbed.  The first and last window (arena
ramp-up and drain) are dropped.
"""

from __future__ import annotations

from array import array
from typing import Optional, Sequence, Tuple

WINDOW_S = 1.0
FAST = 10          # the fast decile


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return float(ordered[int(rank) - 1])


class Windows:
    """One-second windows over a timed phase: completions, work done and
    latencies per window (latencies as 4-byte floats, so a long run
    does not swell the process)."""

    def __init__(self, t0: float, seconds: float):
        self.t0 = t0
        self.count = max(3, int(seconds / WINDOW_S))
        self.width = seconds / self.count
        self.done = [0] * self.count
        self.work = [0] * self.count
        self.lat = [array("f") for _ in range(self.count)]

    def add(self, t: float, work: int, latency: Optional[float] = None):
        w = int((t - self.t0) / self.width)
        if 0 <= w < self.count:
            self.done[w] += 1
            self.work[w] += work
            if latency is not None:
                self.lat[w].append(latency)

    def _inner(self) -> range:
        return range(1, self.count - 1)

    def rates(self) -> Tuple[float, float]:
        """Fast-decile completions/s and work/s."""
        return (percentile([self.done[w] / self.width
                            for w in self._inner()], 100 - FAST),
                percentile([self.work[w] / self.width
                            for w in self._inner()], 100 - FAST))

    def latency(self, p: float) -> float:
        """Fast decile of the per-window ``p``-th percentile latencies."""
        return percentile([percentile(self.lat[w], p) for w in self._inner()
                           if self.lat[w]], FAST)
