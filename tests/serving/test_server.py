"""ForecastServer behavior: backpressure, cache, fallbacks, telemetry.

The equivalence and concurrency suites prove the numeric and locking
invariants; this file pins the *operational* contract — what happens at
the queue boundary, on model failure, on prototype updates, and which
telemetry instruments and run-log events fire.
"""

import threading
import time

import numpy as np
import pytest

from repro.robustness import ChaosModel, ChaosSpec, persistence_forecast
from repro.serving import (
    BATCH_SIZE_BUCKETS,
    ForecastServer,
    MicroBatcher,
    ServingConfig,
    replay_streams,
)
from repro.telemetry import MetricsRegistry
from repro.telemetry.runlog import RunLogger, validate_event

from .conftest import HORIZON, LOOKBACK, NUM_ENTITIES

pytestmark = pytest.mark.serve


class ListSink:
    def __init__(self):
        self.records = []

    def write(self, record):
        self.records.append(record)

    def close(self):
        pass


def warm(server, entities, rng, steps=None):
    for entity_id in entities:
        server.observe_many(
            entity_id, rng.normal(size=(steps or LOOKBACK, NUM_ENTITIES))
        )


def test_backpressure_rejects_with_fallback(model, rng):
    """A full queue answers immediately from the fallback, never blocks."""
    server = ForecastServer(model, ServingConfig(queue_capacity=2))
    warm(server, ["a", "b", "c"], rng)
    first = server.submit("a")
    second = server.submit("b")
    third = server.submit("c")  # queue full -> shed
    assert not first.done.is_set() and not second.done.is_set()
    assert third.done.is_set()
    assert third.response.source == "rejected:persistence"
    # The shed answer is the persistence fallback: last row repeated.
    window, _ = server.store.session("c").snapshot()
    expected = np.repeat(window[-1:], model.config.horizon, axis=0)
    np.testing.assert_array_equal(third.response.forecast, expected)
    assert server.drain() == 2
    assert first.response.source == "model"
    assert server.rejected_requests == 1
    assert server.stats()["rejected_requests"] == 1


def test_close_drains_pending(model, rng):
    server = ForecastServer(model, ServingConfig())
    warm(server, ["a", "b"], rng)
    requests = [server.submit("a"), server.submit("b")]
    server.close()  # never started — close still answers everyone
    assert all(r.done.is_set() for r in requests)
    assert {r.response.source for r in requests} == {"model"}


def test_threaded_lifecycle_and_reuse(model, rng):
    server = ForecastServer(model, ServingConfig(max_delay_ms=1.0))
    warm(server, ["a"], rng)
    with server:
        assert server.running
        assert server.forecast("a").source == "model"
    assert not server.running
    # Synchronous mode still works after the worker stopped.
    assert server.forecast("a").source == "cache"
    # And the worker can be restarted.
    with server:
        assert server.forecast("a").source == "cache"


def test_cache_invalidated_by_new_data_and_prototypes(model, rng):
    server = ForecastServer(model, ServingConfig())
    warm(server, ["a"], rng)
    first = server.forecast("a")
    assert first.source == "model"
    assert server.forecast("a").source == "cache"
    # New observation -> new ring version -> cache cannot serve stale.
    server.observe("a", rng.normal(size=NUM_ENTITIES))
    fresh = server.forecast("a")
    assert fresh.source == "model"
    assert fresh.ring_version == first.ring_version + 1
    # Prototype EMA update -> prototype_version bump -> invalidation.
    assert server.forecast("a").source == "cache"
    model.update_prototype(0, model.prototype_values()[0] * 1.01)
    assert server.forecast("a").source == "model"
    assert server.cache.invalidations >= 1


def test_cache_lru_eviction(model, rng):
    server = ForecastServer(model, ServingConfig(cache_capacity=2, max_batch=8))
    warm(server, ["a", "b", "c"], rng)
    server.forecast_many(["a", "b", "c"])  # fills cache; "a" evicted (LRU)
    assert len(server.cache) == 2
    assert server.forecast("b").source == "cache"
    assert server.forecast("a").source == "model"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_model_output_falls_back(model, rng):
    """A NaN observation under impute-free policies never reaches the
    model; but a non-finite *model output* answers from the fallback."""
    server = ForecastServer(
        model, ServingConfig(use_cache=False, fail_threshold=1, recover_after=100)
    )
    warm(server, ["a"], rng)
    # Poison the window via an absurd magnitude that overflows float64
    # in the forward (exp in softmax is safe; use inf directly instead).
    session = server.store.session("a")
    with session.lock:
        session.ring.storage[0, 0] = np.inf
    response = server.forecast("a")
    assert response.source == "fallback:persistence"
    assert np.isfinite(response.forecast).all()
    assert server.stats()["health"] == "DEGRADED"


@pytest.mark.chaos
@pytest.mark.parametrize(
    "spec, counter",
    [
        (ChaosSpec(fail_every=1), "injected_failures"),
        (ChaosSpec(nan_every=1), "injected_nans"),
    ],
)
def test_chaos_faults_reach_the_batched_forward(model, rng, spec, counter):
    """Faults injected by ChaosModel fire on the batched serving path."""
    chaos = ChaosModel(model, spec)
    server = ForecastServer(chaos, ServingConfig(use_cache=False))
    warm(server, ["a", "b"], rng)
    for round_ in range(1, 3):
        responses = server.forecast_many(["a", "b"])
        assert [r.source for r in responses] == ["fallback:persistence"] * 2
        for response in responses:
            window, _ = server.store.session(response.entity).snapshot()
            np.testing.assert_array_equal(
                response.forecast, persistence_forecast(window, HORIZON)
            )
        # One batched forward per round: one call of the schedule.
        assert chaos.calls == round_
        assert getattr(chaos, counter) == round_
    assert server.stats()["fallback_forecasts"] == 4
    assert server.stats()["health"] == "DEGRADED"


def test_telemetry_instruments_wired(model, rng):
    telemetry = MetricsRegistry()
    server = ForecastServer(model, ServingConfig(queue_capacity=1), telemetry=telemetry)
    warm(server, ["a", "b"], rng)
    server.forecast("a")          # model
    server.forecast("a")          # cache hit
    server.submit("a")            # queued (depth gauge)
    server.submit("b")            # shed
    server.drain()
    names = {instrument.name for instrument in telemetry.collect()}
    for name in (
        "serve_batch_size",
        "serve_batch_seconds",
        "serve_forecasts_total",
        "serve_cache_total",
        "serve_queue_depth",
    ):
        assert name in names, f"instrument {name} missing from telemetry"
    assert telemetry.value("serve_forecasts_total", {"source": "model"}) == 1.0
    # Second forecast + the drained queued request both hit the cache.
    assert telemetry.value("serve_forecasts_total", {"source": "cache"}) == 2.0
    assert telemetry.value("serve_forecasts_total", {"source": "rejected"}) == 1.0
    assert telemetry.value("serve_cache_total", {"result": "hit"}) == 2.0


def test_run_logger_events_valid(model, rng):
    sink = ListSink()
    logger = RunLogger([sink])
    server = ForecastServer(
        model, ServingConfig(queue_capacity=1), run_logger=logger
    )
    warm(server, ["a", "b"], rng)
    server.forecast("a")
    server.submit("a")
    server.submit("b")  # shed -> serve_reject
    server.drain()
    types = [record["type"] for record in sink.records]
    assert "serve_batch" in types
    assert "serve_reject" in types
    for record in sink.records:
        assert validate_event(record) == [], record


def test_replay_streams_interleaves(model, rng):
    server = ForecastServer(model, ServingConfig())
    streams = {
        "x": rng.normal(size=(LOOKBACK + 8, NUM_ENTITIES)),
        "y": rng.normal(size=(LOOKBACK + 8, NUM_ENTITIES)),
    }
    responses = replay_streams(server, streams, forecast_every=8)
    assert [r.entity for r in responses] == ["x", "y", "x", "y"]
    assert all(r.source == "model" for r in responses)
    with pytest.raises(ValueError, match="forecast_every"):
        replay_streams(server, streams, forecast_every=0)


def test_config_validation(model):
    with pytest.raises(ValueError, match="max_batch"):
        ServingConfig(max_batch=0)
    with pytest.raises(ValueError, match="queue_capacity"):
        ServingConfig(queue_capacity=0)
    with pytest.raises(ValueError, match="nan_policy"):
        ServingConfig(nan_policy="wat")
    with pytest.raises(ValueError, match="fallback"):
        ServingConfig(fallback="wat")
    with pytest.raises(ValueError, match="seasonal_period"):
        ServingConfig(fallback="seasonal")
    with pytest.raises(ValueError, match="fallback"):
        MicroBatcher(model, fallback="wat")
    with pytest.raises(ValueError, match="seasonal_period"):
        MicroBatcher(model, fallback="seasonal")


def test_session_policy_conflict(model, rng):
    server = ForecastServer(model, ServingConfig(nan_policy="reject"))
    server.store.session("a", nan_policy="impute_last")
    with pytest.raises(ValueError, match="nan_policy"):
        server.store.session("a", nan_policy="reject")
    # Re-request with no explicit policy is fine.
    assert server.store.session("a").ring.nan_policy == "impute_last"


def test_batch_size_buckets_are_sane():
    assert list(BATCH_SIZE_BUCKETS) == sorted(BATCH_SIZE_BUCKETS)
    assert BATCH_SIZE_BUCKETS[0] == 1.0


# ----------------------------------------------------------------------
# Concurrency-bug regressions (the serving-layer bugfix sweep)
# ----------------------------------------------------------------------
def test_replay_streams_raises_on_stalled_worker(model, rng):
    """A wedged worker must surface as TimeoutError, never a silent None
    response appended to the replay results."""
    server = ForecastServer(model, ServingConfig(max_delay_ms=0.0))
    release = threading.Event()
    original = server.batcher.forecast_sessions

    def wedged(sessions):
        release.wait(30.0)
        return original(sessions)

    server.batcher.forecast_sessions = wedged
    streams = {"x": rng.normal(size=(LOOKBACK, NUM_ENTITIES))}
    try:
        with server:
            with pytest.raises(TimeoutError, match="'x'"):
                replay_streams(server, streams, forecast_every=LOOKBACK, timeout=0.2)
            # Unwedge before leaving the block, which joins the worker.
            release.set()
    finally:
        release.set()
        server.batcher.forecast_sessions = original
        server.close()


def test_replay_streams_empty_and_short_streams(model, rng):
    """Edge shapes: empty dict (no min(()) crash), single-row streams,
    and warmup=0 with rings that are not yet full."""
    server = ForecastServer(model, ServingConfig())
    assert replay_streams(server, {}) == []
    single_row = {"x": rng.normal(size=(1, NUM_ENTITIES))}
    assert replay_streams(server, single_row, forecast_every=1) == []
    short = {"y": rng.normal(size=(LOOKBACK // 2, NUM_ENTITIES))}
    # warmup=0 makes every step due, but an unfilled ring is skipped
    # rather than crashing the replay with RuntimeError
    assert replay_streams(server, short, forecast_every=1, warmup=0) == []


def test_replay_streams_warmup_zero_with_full_ring(model, rng):
    """warmup=0 forecasts from the first replayed step when the ring is
    already full (e.g. continuing a previous replay)."""
    server = ForecastServer(model, ServingConfig())
    warm(server, ["x"], rng)
    streams = {"x": rng.normal(size=(4, NUM_ENTITIES))}
    responses = replay_streams(server, streams, forecast_every=1, warmup=0)
    assert len(responses) == 4
    assert all(r.source == "model" for r in responses)


def test_reject_event_reports_snapshotted_queue_depth(model, rng):
    """serve_reject must carry the depth observed under the condition
    lock at shed time, not an unsynchronized read taken later."""
    sink = ListSink()
    server = ForecastServer(
        model, ServingConfig(queue_capacity=2), run_logger=RunLogger([sink])
    )
    warm(server, ["a", "b", "c"], rng)
    server.submit("a")
    server.submit("b")
    server.submit("c")  # shed at depth 2
    rejects = [r for r in sink.records if r["type"] == "serve_reject"]
    assert len(rejects) == 1
    assert rejects[0]["queue_depth"] == 2
    assert validate_event(rejects[0]) == []
    server.drain()


def test_shed_path_never_holds_condition_over_session_lock(model, rng):
    """Admission control resolves shed requests outside the server's
    condition lock: a shed blocked on one entity's session lock must not
    stall submitters (or the worker) for other entities."""
    server = ForecastServer(model, ServingConfig(queue_capacity=1))
    warm(server, ["a", "b", "held"], rng)
    server.submit("a")  # fills the queue
    held = server.store.session("held")
    shed_done = threading.Event()
    with held.lock:  # an in-flight writer pins "held"
        shed_thread = threading.Thread(
            target=lambda: (server.submit("held"), shed_done.set())
        )
        shed_thread.start()
        time.sleep(0.05)  # let the shed reach the session-lock acquire
        assert not shed_done.is_set()
        # the condition lock must be free while the shed waits: these
        # would deadlock if _reject ran under _cond
        probe = []
        prober = threading.Thread(target=lambda: probe.append(server.queue_depth))
        prober.start()
        prober.join(timeout=2.0)
        assert probe == [1]
    shed_thread.join(timeout=5.0)
    assert shed_done.is_set()
    server.drain()


def test_cache_not_poisoned_by_concurrent_prototype_update(model, rng):
    """A prototype update racing the batched forward must not let the
    cache stamp the fresh forecast with the pre-update version."""
    server = ForecastServer(model, ServingConfig())
    warm(server, ["a"], rng)
    original = model.forecast_batch

    def racing_forward(windows):
        predictions = original(windows)
        # lands between execute()'s version snapshot and cache.put
        model.update_prototype(0, model.prototype_values()[0] * 1.001)
        return predictions

    model.forecast_batch = racing_forward
    try:
        response = server.forecast("a")
    finally:
        model.forecast_batch = original
    assert response.source == "model"
    assert len(server.cache) == 0  # put skipped on version mismatch
    # and the next request recomputes under the new bank, then caches
    assert server.forecast("a").source == "model"
    assert server.forecast("a").source == "cache"
