"""StreamingFOCUS: one stream through the serving stack.

The paper's online phase assumes a fixed prototype set discovered
offline, arguing prototypes are "relatively universal" (Sec. I), so a
single stream and a fleet share one path: :class:`StreamingFOCUS` is a
thin facade over one :class:`~repro.serving.EntitySession` and a
``B=1`` :class:`~repro.serving.MicroBatcher`.

- **Ingestion** goes through the session's
  :class:`~repro.serving.session.ObservationRing`, which applies the
  NaN policy (``reject`` / ``impute_last`` / ``impute_prototype``, see
  :func:`repro.robustness.health.apply_nan_policy`) before a row touches
  the ring, with the prototype-mean fill from
  :meth:`EntitySessionStore.for_model
  <repro.serving.EntitySessionStore.for_model>`.
- **Forecasting** is :meth:`MicroBatcher.execute
  <repro.serving.MicroBatcher.execute>` on one window, with no cache,
  telemetry, run log or health attached: if the forward raises or
  returns non-finite values, the configured fallback (persistence or
  seasonal-naive) answers and ``stats.last_forecast_source`` records
  which one did.
- **Health** is a ``HEALTHY → DEGRADED → FAILED``
  :class:`~repro.robustness.health.HealthMonitor` fed from each
  response's source, after the optional assignment-drift check (a
  :class:`~repro.telemetry.DriftConfig`): a drift alarm on a model
  answer is recorded as a failure, so a silently stale dictionary
  degrades health before accuracy craters.
- **Telemetry** (``docs/observability.md``): an attached
  :class:`~repro.telemetry.MetricsRegistry` receives the ``focus_*``
  families (forecast latency, per-source forecast counts, NaN-policy,
  novelty and health counters); a run logger receives
  ``health_transition``, ``drift_alarm`` and ``stream_stats`` events.
  With neither attached, none of this touches the hot path.

On top of the shared stack the facade adds one extension beyond the
paper, *novelty-triggered prototype adaptation*: when an incoming
segment's nearest-prototype distance exceeds a drift threshold, the
nearest prototype is nudged toward the segment with an exponential
moving average, keeping the offline dictionary fresh without
re-clustering.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.core.clustering import composite_distance
from repro.core.model import FOCUSForecaster
from repro.robustness.health import HealthMonitor, HealthState, health_reporter
from repro.serving.batcher import MicroBatcher
from repro.serving.session import EntitySessionStore, IngestResult
from repro.telemetry.drift import DriftConfig, DriftMonitor


@dataclasses.dataclass
class StreamingStats:
    """Counters exposed for monitoring a deployment."""

    observations: int = 0
    forecasts: int = 0
    novel_segments: int = 0
    prototype_updates: int = 0
    # Guardrail and degraded-mode counters.
    rejected_observations: int = 0
    imputed_values: int = 0
    model_failures: int = 0
    fallback_forecasts: int = 0
    health: str = HealthState.HEALTHY.value
    last_forecast_source: str = ""
    # Drift-monitor readouts (0 until a DriftConfig is attached).
    drift_alarms: int = 0
    assignment_entropy: float = 0.0
    assignment_drift: float = 0.0


class StreamingFOCUS:
    """Incremental forecasting facade over a trained FOCUS model.

    Parameters
    ----------
    model:
        A trained :class:`FOCUSForecaster`.
    adapt_prototypes:
        Enable novelty-triggered EMA adaptation of the prototype set.
    novelty_threshold:
        A segment is *novel* when its nearest-prototype composite distance
        exceeds ``novelty_threshold`` times the running median distance.
    ema:
        Step size of the prototype nudge (0 disables movement).
    nan_policy:
        What to do with non-finite observations before they enter the
        ring buffer: ``"reject"`` drops the offending rows (counted in
        ``stats.rejected_observations``), ``"impute_last"``
        forward-fills per entity, ``"impute_prototype"`` substitutes
        the prototype-dictionary mean.
    fallback:
        Degraded-mode forecaster used when the model fails:
        ``"persistence"`` or ``"seasonal"`` (requires
        ``seasonal_period``).
    seasonal_period:
        Season length (in steps) for the seasonal-naive fallback.
    fail_threshold / recover_after:
        Consecutive-failure count that marks the stream ``FAILED``, and
        consecutive-success count that restores ``HEALTHY``.
    telemetry:
        Optional :class:`~repro.telemetry.MetricsRegistry` receiving
        forecast latency, utilization, entropy, NaN, and health metrics.
    drift:
        Optional :class:`~repro.telemetry.DriftConfig` enabling the
        assignment-drift alarm (requires a prototype mixer); drifted
        forecasts are recorded as health *failures*.
    run_logger:
        Optional :class:`~repro.telemetry.RunLogger` receiving
        ``health_transition`` and ``drift_alarm`` JSONL events.
    """

    def __init__(
        self,
        model: FOCUSForecaster,
        adapt_prototypes: bool = False,
        novelty_threshold: float = 4.0,
        ema: float = 0.05,
        nan_policy: str = "reject",
        fallback: str = "persistence",
        seasonal_period: int | None = None,
        fail_threshold: int = 5,
        recover_after: int = 3,
        telemetry=None,
        drift: DriftConfig | None = None,
        run_logger=None,
    ):
        if novelty_threshold <= 1.0:
            raise ValueError("novelty_threshold must exceed 1")
        if not 0.0 <= ema < 1.0:
            raise ValueError("ema must lie in [0, 1)")
        self.model = model
        self.adapt_prototypes = adapt_prototypes
        self.novelty_threshold = novelty_threshold
        self.ema = ema
        self.nan_policy = nan_policy
        self.fallback = fallback
        self.seasonal_period = seasonal_period
        self._session = EntitySessionStore.for_model(
            model, nan_policy=nan_policy
        ).session("stream")
        self.ring = self._session.ring
        self._batcher = MicroBatcher(
            model, fallback=fallback, seasonal_period=seasonal_period
        )
        self._distance_history: list[float] = []
        self._run_logger = run_logger
        self._health = HealthMonitor(
            fail_threshold=fail_threshold,
            recover_after=recover_after,
            on_transition=health_reporter("focus_", telemetry, run_logger),
        )
        self.stats = StreamingStats()
        self.drift_monitor: DriftMonitor | None = None
        if drift is not None:
            if model.prototype_values() is None:
                raise ValueError(
                    "drift monitoring requires a prototype mixer "
                    "(the attn/linear variants have no dictionary)"
                )
            self.drift_monitor = DriftMonitor(
                model.config.num_prototypes,
                config=drift,
                registry=telemetry,
                run_logger=run_logger,
            )
        # Pre-resolved instrument handles (None when telemetry is off) so
        # the forecast path never takes the registry lock.
        self._instruments = None
        if telemetry is not None:
            self._instruments = {
                "latency": telemetry.histogram(
                    "focus_forecast_latency_seconds",
                    help="end-to-end forecast latency",
                ),
                "model": telemetry.counter(
                    "focus_forecasts_total", labels={"source": "model"},
                    help="forecasts answered by the model",
                ),
                "fallback": telemetry.counter(
                    "focus_forecasts_total", labels={"source": "fallback"},
                    help="forecasts answered by the degraded-mode fallback",
                ),
                "failures": telemetry.counter(
                    "focus_model_failures_total", help="model forward failures"
                ),
                "imputed": telemetry.counter(
                    "focus_nan_imputed_total",
                    help="non-finite values imputed at ingestion",
                ),
                "rejected": telemetry.counter(
                    "focus_nan_rejected_total",
                    help="observation rows rejected at ingestion",
                ),
                "novel": telemetry.counter(
                    "focus_novel_segments_total",
                    help="segments beyond the novelty threshold",
                ),
                "proto_updates": telemetry.counter(
                    "focus_prototype_updates_total",
                    help="EMA prototype adaptations",
                ),
                "novelty_rate": telemetry.gauge(
                    "focus_novelty_rate",
                    help="novel segments per observed segment",
                ),
            }

    @property
    def ready(self) -> bool:
        """True once a full lookback window has been observed."""
        return self.ring.ready

    @property
    def health(self) -> HealthState:
        """Current serving-health state of the stream."""
        return self._health.state

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _note_ingest(self, result: IngestResult) -> None:
        self.stats.observations += result.accepted
        self.stats.imputed_values += result.imputed
        self.stats.rejected_observations += result.rejected
        if self._instruments is not None and (result.imputed or result.rejected):
            if result.imputed:
                self._instruments["imputed"].inc(result.imputed)
            if result.rejected:
                self._instruments["rejected"].inc(result.rejected)

    def observe(self, observation: np.ndarray) -> None:
        """Push one time step of ``(N,)`` values into the buffer.

        Non-finite values are handled per ``nan_policy``; under
        ``"reject"`` a bad observation is dropped entirely (the ring and
        the ``observations`` counter are untouched).
        """
        result = self._session.observe(observation)
        self._note_ingest(result)
        p = self.model.config.segment_length
        if (
            result.accepted
            and self.adapt_prototypes
            and self.ring.filled >= p
            and self.stats.observations % p == 0
        ):
            self._maybe_adapt(self.ring.recent(p))

    def observe_many(self, observations: np.ndarray) -> None:
        """Push a ``(T, N)`` block of observations."""
        observations = np.asarray(observations, dtype=self.ring.storage.dtype)
        if self.adapt_prototypes:
            # Adaptation checks fire on per-segment boundaries; route
            # through observe() (cheap) to keep them exact.
            for row in observations:
                self.observe(row)
            return
        self._note_ingest(self._session.observe_many(observations))

    # ------------------------------------------------------------------
    # Forecasting
    # ------------------------------------------------------------------
    def forecast(self) -> np.ndarray:
        """Forecast the next ``horizon`` steps from the current buffer.

        Guaranteed to return a finite ``(horizon, N)`` array: when the
        model forward raises or emits non-finite values the configured
        fallback answers instead, the health monitor records the
        failure, and ``stats.last_forecast_source`` flags the forecast
        as ``"fallback:<kind>"`` rather than ``"model"``.
        """
        if not self.ready:
            raise RuntimeError(
                f"need {self.model.config.lookback} observations, "
                f"have {self.ring.filled}"
            )
        instruments = self._instruments
        started = time.perf_counter() if instruments is not None else 0.0
        window, version = self._session.snapshot()
        (response,) = self._batcher.execute([(self._session, window, version)])
        self.stats.forecasts += 1
        self.stats.last_forecast_source = response.source
        from_model = response.source == "model"
        if from_model:
            # Drift is judged only on model answers: a fallback window
            # says nothing about the prototype bank.
            drift_reason = self._check_drift(window)
            if drift_reason is None:
                self._health.record_success()
            else:
                self._health.record_failure(drift_reason)
        else:
            self.stats.model_failures += 1
            self.stats.fallback_forecasts += 1
            self._health.record_failure(response.failure)
        self.stats.health = self._health.state.value
        if instruments is not None:
            if from_model:
                instruments["model"].inc()
            else:
                instruments["failures"].inc()
                instruments["fallback"].inc()
            instruments["latency"].observe(time.perf_counter() - started)
        return response.forecast

    def set_prototypes(self, prototypes: np.ndarray) -> None:
        """Hot-swap the prototype dictionary and re-arm drift detection.

        The drift baseline describes the *retired* bank's assignment
        distribution; keeping it across a swap would alarm forever on
        healthy traffic.  See :meth:`DriftMonitor.reset
        <repro.telemetry.drift.DriftMonitor.reset>`.
        """
        self.model.set_prototypes(prototypes)
        if self.drift_monitor is not None:
            self.drift_monitor.reset()

    def _check_drift(self, window: np.ndarray) -> str | None:
        """Feed the drift monitor; returns the alarm reason when it fires."""
        monitor = self.drift_monitor
        if monitor is None:
            return None
        profile = self.model.assignment_profile(window)
        summary = monitor.observe(profile["assignments"])
        self.stats.assignment_entropy = summary["entropy"]
        self.stats.assignment_drift = summary["drift"]
        if summary["alarmed"]:
            self.stats.drift_alarms += 1
            return summary["reason"]
        return None

    def emit_stats(self) -> None:
        """Write a ``stream_stats`` snapshot event to the run logger."""
        if self._run_logger is None:
            return
        self._run_logger.event(
            "stream_stats",
            observations=self.stats.observations,
            forecasts=self.stats.forecasts,
            novel_segments=self.stats.novel_segments,
            prototype_updates=self.stats.prototype_updates,
            rejected_observations=self.stats.rejected_observations,
            imputed_values=self.stats.imputed_values,
            model_failures=self.stats.model_failures,
            fallback_forecasts=self.stats.fallback_forecasts,
            drift_alarms=self.stats.drift_alarms,
            health=self.stats.health,
        )

    # ------------------------------------------------------------------
    # Prototype adaptation
    # ------------------------------------------------------------------
    def _prototypes(self) -> np.ndarray:
        return self.model.extractor.temporal_mixer.prototypes

    def _maybe_adapt(self, latest_block: np.ndarray) -> None:
        """EMA-update prototypes for novel segments in the latest block."""
        prototypes = self._prototypes()
        alpha = self.model.config.alpha
        segments = latest_block.T  # (N, p): one fresh segment per entity
        distances = composite_distance(segments, prototypes, alpha)
        nearest = distances.argmin(axis=1)
        nearest_dist = distances[np.arange(len(segments)), nearest]
        # Novelty is judged against the history *before* this block: a
        # burst of novel segments must not inflate the median it is
        # compared against (which would suppress its own detection).
        history = self._distance_history
        median = float(np.median(history)) if history else 0.0
        history.extend(nearest_dist.tolist())
        if len(history) > 1024:
            del history[: len(history) - 1024]
        if median <= 0.0:
            return
        novel = nearest_dist > self.novelty_threshold * median
        novel_count = int(novel.sum())
        self.stats.novel_segments += novel_count
        if self._instruments is not None:
            if novel_count:
                self._instruments["novel"].inc(novel_count)
            segments_seen = max(self.stats.observations // self.model.config.segment_length, 1)
            self._instruments["novelty_rate"].set(
                self.stats.novel_segments / (segments_seen * len(segments))
            )
        if self.ema <= 0.0:
            return
        for segment, proto_idx in zip(segments[novel], nearest[novel]):
            # In-place row update (both mixers share the dictionary);
            # ``prototypes`` aliases the live buffer, so consecutive novel
            # segments hitting the same prototype compound, as before.
            updated = (1.0 - self.ema) * prototypes[proto_idx] + self.ema * segment
            self.model.update_prototype(int(proto_idx), updated)
            self.stats.prototype_updates += 1
            if self._instruments is not None:
                self._instruments["proto_updates"].inc()
