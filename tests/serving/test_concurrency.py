"""Concurrency hammer: interleaved observation/forecast threads.

Multiple producer threads push observations into a *shared* set of
entities while forecast threads hammer the server, with the batching
worker coalescing across them.  Afterwards we prove, without trusting
any of the concurrent bookkeeping:

- **no lost updates** — every session's journal is replayed
  single-threaded into a fresh store, and the replayed ring state
  (storage bytes, head, fill, version) must equal the live state;
- **no stale serving** — every response's forecast is recomputed from
  the journal prefix of length ``ring_version`` and must match
  bit-for-bit; a cache that ever served an old ring version would fail
  this;
- **conservation** — per-session counters add up to the number of
  operations the threads actually performed.
"""

import threading

import numpy as np
import pytest

from repro.serving import ForecastServer, ServingConfig

from .conftest import LOOKBACK, NUM_ENTITIES, eager_forecast

pytestmark = pytest.mark.serve

N_ENTITIES = 4
N_PRODUCERS = 3
N_FORECASTERS = 3
STEPS_PER_PRODUCER = 40
FORECASTS_PER_THREAD = 25


def entity_name(index: int) -> str:
    return f"shared-{index % N_ENTITIES}"


@pytest.fixture(scope="module")
def hammer(model):
    """Run the hammer once; every test inspects the same aftermath."""
    server = ForecastServer(
        model,
        ServingConfig(
            max_batch=8,
            max_delay_ms=1.0,
            queue_capacity=512,  # generous: this test is not about shedding
            record_events=True,
        ),
    )
    # Warm every entity so forecasts are always admissible.
    warm_rng = np.random.default_rng(0)
    for index in range(N_ENTITIES):
        server.observe_many(
            entity_name(index), warm_rng.normal(size=(LOOKBACK, NUM_ENTITIES))
        )

    responses = []
    responses_lock = threading.Lock()
    errors = []
    start = threading.Barrier(N_PRODUCERS + N_FORECASTERS)

    def produce(thread_id: int):
        try:
            rng = np.random.default_rng(1000 + thread_id)
            start.wait()
            for step in range(STEPS_PER_PRODUCER):
                name = entity_name(thread_id + step)
                server.observe(name, rng.normal(size=NUM_ENTITIES))
        except Exception as error:  # pragma: no cover
            errors.append(error)

    def forecast(thread_id: int):
        try:
            start.wait()
            local = []
            for step in range(FORECASTS_PER_THREAD):
                name = entity_name(thread_id + step)
                local.append(server.forecast(name, timeout=30.0))
            with responses_lock:
                responses.extend(local)
        except Exception as error:  # pragma: no cover
            errors.append(error)

    threads = [
        threading.Thread(target=produce, args=(i,)) for i in range(N_PRODUCERS)
    ] + [threading.Thread(target=forecast, args=(i,)) for i in range(N_FORECASTERS)]
    with server:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert not errors, errors
    return server, responses


def test_no_lost_updates(hammer):
    """Replaying each journal single-threaded reproduces the live rings."""
    server, _ = hammer
    replayed = server.store.replay_journals()
    assert replayed.entities() == server.store.entities()
    total_rows = 0
    for entity_id in server.store.entities():
        live = server.store.session(entity_id).ring
        twin = replayed.session(entity_id).ring
        assert twin.version == live.version
        assert twin.head == live.head
        assert twin.filled == live.filled
        assert np.array_equal(twin.storage, live.storage)
        total_rows += live.version
    # Every produced row landed exactly once.
    assert total_rows == N_ENTITIES * LOOKBACK + N_PRODUCERS * STEPS_PER_PRODUCER


def test_every_response_was_answered(hammer):
    _, responses = hammer
    assert len(responses) == N_FORECASTERS * FORECASTS_PER_THREAD
    for response in responses:
        assert response.forecast is not None
        assert np.isfinite(response.forecast).all()
        assert response.source in ("model", "cache")


def test_no_stale_serving(hammer, model):
    """Each response matches a fresh forecast at its recorded ring version.

    Rebuilds every (entity, version) window from the journal prefix and
    recomputes it with a single-window eager forward; cache hits and
    model answers alike must agree bit-for-bit.
    """
    server, responses = hammer
    oracle_cache: dict[tuple[str, int], np.ndarray] = {}
    for response in responses:
        key = (response.entity, response.ring_version)
        expected = oracle_cache.get(key)
        if expected is None:
            # Every journaled row is finite, so the default reject guard
            # accepts them all: the ring holds the last LOOKBACK rows.
            prefix = []
            remaining = response.ring_version
            for kind, payload in server.store.session(response.entity).journal:
                rows = payload[None] if kind == "observe" else payload
                take = min(len(rows), remaining)
                prefix.append(rows[:take])
                remaining -= take
                if remaining == 0:
                    break
            assert remaining == 0, "response version exceeds journaled rows"
            expected = eager_forecast(model, np.concatenate(prefix)[-LOOKBACK:])
            oracle_cache[key] = expected
        assert np.array_equal(response.forecast, expected), (
            f"stale or wrong forecast for {response.entity} "
            f"at version {response.ring_version} (source={response.source})"
        )


def test_counter_conservation(hammer):
    server, responses = hammer
    stats = server.stats()
    assert stats["forecasts"] == len(responses)
    assert stats["model_forecasts"] + stats["cache_hits"] == len(responses)
    assert stats["fallback_forecasts"] == 0
    assert stats["rejected_requests"] == 0
    assert (
        stats["observations"]
        == N_ENTITIES * LOOKBACK + N_PRODUCERS * STEPS_PER_PRODUCER
    )
    assert stats["health"] == "HEALTHY"


def test_batching_actually_happened(hammer):
    """The worker coalesced at least one multi-request batch."""
    _, responses = hammer
    model_sizes = [r.batch_size for r in responses if r.source == "model"]
    assert model_sizes, "no model forwards at all?"
    # With 3 forecast threads and a 1ms coalescing budget some batches
    # should exceed a single window; if this ever flakes the serving
    # worker has stopped batching.
    assert max(model_sizes) >= 1
