"""MicroBatcher: coalesce per-entity forecast requests into one forward.

ProtoAttn's cost is O(k·l·d) per window but every forward pays fixed
overheads — graph-free tensor wrapping, segment reshapes, the prototype
assignment GEMM setup — once per *call*.  Batching ``B`` windows into a
single ``(B, L, N)`` forward (``FOCUSForecaster.forecast_batch``)
amortizes all of it, and because every per-sample computation in the
network is independent across the batch axis, each row of the batched
result is **bit-identical** (float64) to a single-window eager forward
of the same window — the property ``tests/serving`` pins.  The
single-stream :class:`~repro.serving.StreamingFOCUS` is this batcher at
``B=1``.

Execution of one batch:

1. snapshot each session's ``(window, version)`` atomically under its
   lock;
2. serve what the :class:`~repro.serving.ForecastCache` already knows
   (keyed on entity/version/horizon + model prototype version);
3. deduplicate identical ``(entity, version)`` requests within the
   batch, stack the rest, and run one gradient-free batched forward;
4. per-sample finite checks: a non-finite row (or a raised forward,
   which fails the whole batch) answers from the model-free fallback
   (:func:`~repro.robustness.fallback.resolve_fallback`) instead;
5. fill the cache, bump per-entity stats, record health outcomes, and
   emit batch-size/latency telemetry plus a ``serve_batch`` run event.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.core.model import FOCUSForecaster
from repro.robustness.fallback import resolve_fallback
from repro.robustness.health import check_engine
from repro.serving.cache import ForecastCache
from repro.serving.session import EntitySession
from repro.telemetry.context import record_stage

#: Histogram bounds for batch sizes (powers of two up to 256).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclasses.dataclass
class ForecastResponse:
    """One answered forecast request.

    ``source`` is the provenance trail: ``"model"`` (fresh batched
    forward), ``"cache"`` (version-exact cache hit),
    ``"fallback:<kind>"`` (model failure), or ``"rejected:<kind>"``
    (admission control shed the request before it reached the model).
    ``ring_version`` is the entity's ring version the forecast was
    computed against; ``batch_size`` the number of windows in the
    executed forward (0 when no forward ran for this response).
    ``request_id`` echoes the :class:`~repro.telemetry.RequestContext`
    the request was traced under ("" when tracing is off).  ``failure``
    says why a fallback answered ("" otherwise) — the reason health
    monitors record.
    """

    entity: str
    forecast: np.ndarray
    source: str
    ring_version: int
    batch_size: int = 0
    request_id: str = ""
    failure: str = ""


class MicroBatcher:
    """Executes coalesced forecast requests as single batched forwards."""

    def __init__(
        self,
        model: FOCUSForecaster,
        cache: ForecastCache | None = None,
        fallback: str = "persistence",
        seasonal_period: int | None = None,
        telemetry=None,
        run_logger=None,
        health=None,
        process_name: str = "server",
        engine: str = "eager",
    ):
        self._fallback = resolve_fallback(fallback, seasonal_period)
        self.model = model
        self.engine = check_engine(engine)
        self.model.eval()
        self.cache = cache
        self.fallback = fallback
        self._run_logger = run_logger
        self._health = health
        # Stamped on trace spans so merged cross-process traces name the
        # process that ran each stage ("server", "shard-0", ...).
        self.process_name = process_name
        # Pre-resolved instrument handles (None when telemetry is off) so
        # the batch path never takes the registry lock.
        self._instruments = None
        if telemetry is not None:
            self._instruments = {
                "batch_size": telemetry.histogram(
                    "serve_batch_size",
                    bounds=BATCH_SIZE_BUCKETS,
                    help="windows per executed batched forward",
                ),
                "latency": telemetry.histogram(
                    "serve_batch_seconds", help="wall clock of one batched forward"
                ),
                "model": telemetry.counter(
                    "serve_forecasts_total", labels={"source": "model"},
                    help="forecasts answered by the batched model forward",
                ),
                "cache": telemetry.counter(
                    "serve_forecasts_total", labels={"source": "cache"},
                    help="forecasts answered from the versioned cache",
                ),
                "fallback": telemetry.counter(
                    "serve_forecasts_total", labels={"source": "fallback"},
                    help="forecasts answered by the degraded-mode fallback",
                ),
                "cache_hit": telemetry.counter(
                    "serve_cache_total", labels={"result": "hit"},
                    help="cache lookups that answered a request",
                ),
                "cache_miss": telemetry.counter(
                    "serve_cache_total", labels={"result": "miss"},
                    help="cache lookups that fell through to the model",
                ),
            }

    # ------------------------------------------------------------------
    def forecast_sessions(
        self,
        sessions: list[EntitySession],
        contexts: dict | None = None,
        trace: list | None = None,
    ) -> list[ForecastResponse]:
        """Snapshot and answer one forecast request per session.

        Raises ``RuntimeError`` if any session lacks a full lookback
        window.

        ``contexts`` maps entity ids to their
        :class:`~repro.telemetry.RequestContext` (stamped onto the
        responses as ``request_id``); ``trace`` is a mutable list the
        batch's :class:`~repro.telemetry.StageSpan` records are appended
        to.  Both default to off — the untraced path is unchanged.
        """
        requests = []
        for session in sessions:
            with session.lock:
                if not session.ring.ready:
                    raise RuntimeError(
                        f"entity {session.entity_id!r} needs "
                        f"{self.model.config.lookback} observations, "
                        f"have {session.ring.filled}"
                    )
                requests.append((session, session.ring.window(), session.ring.version))
        return self.execute(requests, contexts=contexts, trace=trace)

    def execute(
        self,
        requests: list[tuple[EntitySession, np.ndarray, int]],
        contexts: dict | None = None,
        trace: list | None = None,
    ) -> list[ForecastResponse]:
        """Answer pre-snapshotted ``(session, window, version)`` requests."""
        if not requests:
            return []
        horizon = self.model.config.horizon
        proto_version = self.model.prototype_version
        instruments = self._instruments
        responses: list[ForecastResponse | None] = [None] * len(requests)

        def request_id(entity: str) -> str:
            if contexts is None:
                return ""
            context = contexts.get(entity)
            return context.request_id if context is not None else ""

        # Phase 1: cache, and dedup identical (entity, version) requests.
        lookup_wall = time.time()
        lookup_started = time.perf_counter()
        pending: list[int] = []  # request indices needing a forward
        computed: dict[tuple[str, int], int] = {}  # (entity, version) -> request idx
        duplicates: list[tuple[int, int]] = []  # (dup idx, primary idx)
        for index, (session, _window, version) in enumerate(requests):
            key = (session.entity_id, version)
            if key in computed:
                duplicates.append((index, computed[key]))
                continue
            if self.cache is not None:
                cached = self.cache.get(
                    session.entity_id, version, horizon, proto_version
                )
                if cached is not None:
                    responses[index] = ForecastResponse(
                        session.entity_id, cached, "cache", version,
                        request_id=request_id(session.entity_id),
                    )
                    with session.lock:
                        session.stats.forecasts += 1
                        session.stats.cache_hits += 1
                    if instruments is not None:
                        instruments["cache_hit"].inc()
                        instruments["cache"].inc()
                    continue
                if instruments is not None:
                    instruments["cache_miss"].inc()
            computed[key] = index
            pending.append(index)
        if self.cache is not None:
            record_stage(
                trace, "cache_lookup", time.perf_counter() - lookup_started,
                started=lookup_wall, process=self.process_name,
            )

        # Phase 2: one batched forward for everything the cache missed.
        if pending:
            batch_wall = time.time()
            started = time.perf_counter()
            windows = np.stack([requests[i][1] for i in pending])
            assembled = time.perf_counter()
            record_stage(
                trace, "batch_assembly", assembled - started,
                started=batch_wall, process=self.process_name,
            )
            forward_wall = time.time()
            failure = None
            predictions = None
            finite = None
            try:
                # The eager default keeps the legacy single-argument call
                # so forecast_batch stand-ins (tests, wrappers) need not
                # accept the keyword.
                if self.engine == "eager":
                    predictions = self.model.forecast_batch(windows)
                else:
                    predictions = self.model.forecast_batch(windows, engine=self.engine)
                finite = np.isfinite(predictions).all(axis=(1, 2))
            except Exception as error:  # noqa: BLE001 — serving must not crash
                failure = f"model forward raised {type(error).__name__}: {error}"
            record_stage(
                trace, "forward", time.perf_counter() - assembled,
                started=forward_wall, process=self.process_name,
            )
            latency = time.perf_counter() - started
            batch_size = len(pending)
            # Re-read the prototype version *after* the forward: a
            # concurrent update_prototype/set_prototypes between the
            # version snapshot and the forward would otherwise let the
            # cache stamp a forecast computed under one prototype bank
            # with another bank's version — poisoning the cache with an
            # entry that version-exact lookups would then serve.
            cacheable = (
                self.cache is not None
                and self.model.prototype_version == proto_version
            )
            for row, index in enumerate(pending):
                session, window, version = requests[index]
                ok = failure is None and bool(finite[row])
                reason = ""
                if ok:
                    forecast = predictions[row].copy()
                    source = "model"
                    if cacheable:
                        self.cache.put(
                            session.entity_id, version, horizon, proto_version, forecast
                        )
                    if self._health is not None:
                        self._health.record_success()
                else:
                    forecast = self._fallback(window, horizon)
                    source = f"fallback:{self.fallback}"
                    reason = failure or "non-finite model output"
                    if self._health is not None:
                        self._health.record_failure(reason)
                responses[index] = ForecastResponse(
                    session.entity_id, forecast, source, version, batch_size,
                    request_id=request_id(session.entity_id), failure=reason,
                )
                with session.lock:
                    session.stats.forecasts += 1
                    if ok:
                        session.stats.model_forecasts += 1
                    else:
                        session.stats.fallback_forecasts += 1
                if instruments is not None:
                    instruments["model" if ok else "fallback"].inc()
            if instruments is not None:
                instruments["batch_size"].observe(batch_size)
                instruments["latency"].observe(latency)
            if self._run_logger is not None:
                extra = {}
                if contexts is not None:
                    # The batch's share of each trace: which requests rode
                    # this forward (optional key — schema v1 unchanged).
                    extra["request_ids"] = [
                        request_id(requests[i][0].entity_id) for i in pending
                    ]
                self._run_logger.event(
                    "serve_batch",
                    size=batch_size,
                    latency_ms=round(latency * 1e3, 4),
                    cached=len(requests) - batch_size - len(duplicates),
                    failed=failure is not None,
                    **extra,
                )

        # Phase 3: resolve duplicates from their primary's answer.
        for index, primary in duplicates:
            answer = responses[primary]
            session = requests[index][0]
            responses[index] = ForecastResponse(
                answer.entity,
                answer.forecast.copy(),
                answer.source,
                answer.ring_version,
                answer.batch_size,
                request_id=request_id(answer.entity),
                failure=answer.failure,
            )
            with session.lock:
                session.stats.forecasts += 1
                if answer.source == "model":
                    session.stats.model_forecasts += 1
                elif answer.source == "cache":
                    session.stats.cache_hits += 1
                else:
                    session.stats.fallback_forecasts += 1
        return responses  # type: ignore[return-value]
