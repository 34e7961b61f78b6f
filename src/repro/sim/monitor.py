"""Statistics collection for simulation runs."""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.sim.engine import Simulator


class Monitor:
    """Records (time, value) observations and computes summary stats."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.times.append(self.sim.now)
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.total / len(self.values) if self.values else math.nan

    @property
    def minimum(self) -> float:
        return min(self.values) if self.values else math.nan

    @property
    def maximum(self) -> float:
        return max(self.values) if self.values else math.nan

    @property
    def variance(self) -> float:
        n = len(self.values)
        if n < 2:
            return 0.0 if n == 1 else math.nan
        mu = self.mean
        return sum((v - mu) ** 2 for v in self.values) / (n - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def series(self) -> List[Tuple[float, float]]:
        return list(zip(self.times, self.values))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Monitor {self.name!r} n={self.count} mean={self.mean:.4g}>"


class TimeWeightedMonitor:
    """Tracks a piecewise-constant level (e.g. queue length, utilization)
    and integrates it over time."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._level = 0.0
        self._last_t = sim.now
        self._start_t = sim.now
        self._area = 0.0
        self._max = 0.0

    @property
    def level(self) -> float:
        return self._level

    def set(self, value: float) -> None:
        self._advance()
        self._level = float(value)
        self._max = max(self._max, self._level)

    def add(self, delta: float) -> None:
        self.set(self._level + delta)

    def _advance(self) -> None:
        now = self.sim.now
        self._area += self._level * (now - self._last_t)
        self._last_t = now

    @property
    def time_average(self) -> float:
        self._advance()
        elapsed = self._last_t - self._start_t
        return self._area / elapsed if elapsed > 0 else self._level

    @property
    def maximum(self) -> float:
        return self._max

    def busy_fraction(self) -> float:
        """Alias for :attr:`time_average` when the level is 0/1 busy."""
        return self.time_average

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TimeWeightedMonitor {self.name!r} level={self._level:.4g}>"
