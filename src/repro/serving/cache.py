"""Versioned LRU forecast cache.

Entries are keyed on ``(entity, ring version, horizon)`` — the ring
version advances once per accepted observation
(:class:`~repro.serving.session.ObservationRing`), so a lookup performed
with the entity's *current* version can, by construction, never return
a forecast computed from older data.  Stale-version entries are never
*served*; they simply age out of the LRU order.

Prototype adaptation invalidates differently: an EMA nudge
(:meth:`~repro.core.model.FOCUSForecaster.update_prototype`) changes the
forecast for an *unchanged* window, so every entry also records the
model's ``prototype_version`` at computation time.  A lookup whose
prototype version disagrees evicts the entry and reports a miss.

All values are defensively copied on both insert and lookup: cache
memory is never aliased by callers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np


class ForecastCache:
    """Thread-safe LRU cache of ``(entity, version, horizon)`` forecasts."""

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[int, np.ndarray]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def get(
        self, entity: str, version: int, horizon: int, prototype_version: int
    ) -> np.ndarray | None:
        """A copy of the cached forecast, or ``None`` on miss.

        An entry computed under a different ``prototype_version`` is
        evicted on sight (the prototype EMA moved the dictionary since).
        """
        key = (entity, version, horizon)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if entry[0] != prototype_version:
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[1].copy()

    def put(
        self,
        entity: str,
        version: int,
        horizon: int,
        prototype_version: int,
        forecast: np.ndarray,
    ) -> None:
        key = (entity, version, horizon)
        with self._lock:
            self._entries[key] = (prototype_version, np.array(forecast, copy=True))
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
