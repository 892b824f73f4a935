"""Concurrent multi-entity serving in front of a trained FOCUS model.

Layered bottom-up:

- :class:`ObservationRing` / :class:`EntitySession` /
  :class:`EntitySessionStore` — per-entity ring buffers, NaN-policy
  guards, locks, and optional replayable journals;
- :class:`ForecastCache` — versioned LRU keyed on
  ``(entity, ring version, horizon)`` and invalidated by prototype EMA
  updates;
- :class:`MicroBatcher` — coalesces requests into one batched forward
  (bit-identical per sample to a single-window forward in float64);
- :class:`StreamingFOCUS` — the single-stream facade: one session and a
  ``B=1`` batcher, plus novelty-triggered prototype adaptation;
- :class:`ForecastServer` / :class:`ServingConfig` — bounded queue,
  background batching worker, admission control, health + telemetry;
- :class:`ShardRouter` / :class:`FleetConfig` — multi-process scale-out:
  consistent-hash routing, a shared-memory prototype bank with epoch
  fencing, scatter-gather replay, and crashed-worker rehash.

See ``docs/api.md`` (architecture) and ``examples/serving_replay.py``.
"""

from repro.serving.batcher import BATCH_SIZE_BUCKETS, ForecastResponse, MicroBatcher
from repro.serving.cache import ForecastCache
from repro.serving.fleet import (
    FleetConfig,
    FleetError,
    HashRing,
    PrototypeBank,
    ShardRouter,
    StaleEpochError,
    WorkerCrashedError,
    replay_fleet,
    replay_routed,
)
from repro.serving.server import ForecastServer, ServingConfig, replay_streams
from repro.serving.session import (
    EntitySession,
    EntitySessionStore,
    IngestResult,
    ObservationRing,
    SessionStats,
)
from repro.serving.streaming import StreamingFOCUS, StreamingStats

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "EntitySession",
    "EntitySessionStore",
    "FleetConfig",
    "FleetError",
    "ForecastCache",
    "ForecastResponse",
    "ForecastServer",
    "HashRing",
    "IngestResult",
    "MicroBatcher",
    "ObservationRing",
    "PrototypeBank",
    "ServingConfig",
    "SessionStats",
    "ShardRouter",
    "StaleEpochError",
    "StreamingFOCUS",
    "StreamingStats",
    "WorkerCrashedError",
    "replay_fleet",
    "replay_routed",
    "replay_streams",
]
