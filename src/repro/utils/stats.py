"""Streaming summary statistics for the serving runtime.

The metrics layer needs latency percentiles and running means without
keeping an unbounded sample store.  :class:`RollingReservoir` keeps the
most recent ``capacity`` observations (a sliding window, so percentiles
track current behaviour under long-running traffic) while the running
count/sum cover the full stream.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Optional, Sequence

import numpy as np


class RollingReservoir(object):
    """Sliding-window sample store with whole-stream count and mean.

    Parameters
    ----------
    capacity:
        Number of most-recent observations retained for percentile
        queries (the count and mean always cover every observation).
    """

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._window: deque = deque(maxlen=capacity)
        self._count = 0
        self._total = 0.0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value``."""
        value = float(value)
        self._window.extend(itertools.repeat(value, count))
        self._count += count
        for _ in range(count):
            self._total += value   # the float sum of single calls

    def observe_many(self, values: Sequence[float]) -> None:
        """Record each of ``values`` in order, as single calls would."""
        values = [float(v) for v in values]
        self._window.extend(values)
        self._count += len(values)
        for value in values:
            self._total += value

    @property
    def count(self) -> int:
        """Observations recorded over the whole stream."""
        return self._count

    @property
    def mean(self) -> float:
        """Mean over the whole stream (0.0 when empty)."""
        if self._count == 0:
            return 0.0
        return self._total / self._count

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) of the retained window.

        Returns 0.0 when no observations have been recorded.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self._window:
            return 0.0
        return float(np.percentile(np.fromiter(self._window, dtype=np.float64), q))

    def max(self) -> Optional[float]:
        """Largest retained observation (None when empty)."""
        if not self._window:
            return None
        return float(max(self._window))
