"""Sharded fleet behavior: routing, fencing, equivalence, admission.

The load-bearing invariant is **cross-process bit-equivalence**: replay
of multi-entity traffic through an N-shard fleet must produce, per row,
exactly the float64 bytes a single-process
:func:`~repro.serving.replay_streams` produces for the same traffic —
sharding is an implementation detail, never a numeric one.  The rest of
the file pins the operational contract of the router: consistent-hash
stability, shared-memory prototype publication, epoch fencing
(:class:`~repro.serving.StaleEpochError`), hot-swap, fleet-level
admission control, stats aggregation, and clean shutdown.
"""

import threading
import time

import numpy as np
import pytest

from repro.serving import (
    FleetConfig,
    FleetError,
    ForecastServer,
    HashRing,
    PrototypeBank,
    ServingConfig,
    ShardRouter,
    StaleEpochError,
    replay_fleet,
    replay_streams,
)
from repro.telemetry import MetricsRegistry
from repro.telemetry.runlog import RunLogger, validate_event

from .conftest import LOOKBACK, NUM_ENTITIES, build_model

pytestmark = pytest.mark.fleet


class ListSink:
    def __init__(self):
        self.records = []

    def write(self, record):
        self.records.append(record)

    def close(self):
        pass


def make_streams(rng, entities, steps=64, prefix="tenant"):
    return {f"{prefix}-{i}": rng.normal(size=(steps, NUM_ENTITIES)) for i in range(entities)}


@pytest.fixture(scope="module")
def router(model):
    """One long-lived 2-shard fleet shared by the non-destructive tests.

    Tests that mutate fleet-global state (prototype swaps, worker kills,
    shutdown) build their own router; tests here must only add traffic
    under test-unique entity ids.
    """
    with ShardRouter(model, FleetConfig(shards=2)) as r:
        yield r


# ----------------------------------------------------------------------
# Hash ring
# ----------------------------------------------------------------------
class TestHashRing:
    def test_deterministic_across_instances(self):
        a, b = HashRing(4), HashRing(4)
        ids = [f"entity-{i}" for i in range(200)]
        assert [a.shard_for(e) for e in ids] == [b.shard_for(e) for e in ids]

    def test_spreads_entities_over_all_shards(self):
        ring = HashRing(4)
        owners = {ring.shard_for(f"entity-{i}") for i in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_death_only_remaps_the_dead_shards_entities(self):
        ring = HashRing(4)
        ids = [f"entity-{i}" for i in range(200)]
        before = {e: ring.shard_for(e) for e in ids}
        alive = {0, 1, 3}  # shard 2 died
        for entity_id, owner in before.items():
            after = ring.shard_for(entity_id, alive)
            if owner != 2:
                assert after == owner  # survivors keep their entities
            else:
                assert after in alive

    def test_partition_preserves_insertion_order(self):
        ring = HashRing(2)
        ids = [f"entity-{i}" for i in range(20)]
        groups = ring.partition(ids)
        flattened_rank = {e: ids.index(e) for group in groups.values() for e in group}
        for group in groups.values():
            ranks = [flattened_rank[e] for e in group]
            assert ranks == sorted(ranks)

    def test_no_live_shards_raises(self):
        ring = HashRing(2)
        with pytest.raises(FleetError):
            ring.shard_for("entity-0", alive=set())


# ----------------------------------------------------------------------
# Prototype bank (shared memory)
# ----------------------------------------------------------------------
class TestPrototypeBank:
    def test_publish_read_roundtrip_across_attachments(self):
        owner = PrototypeBank(4, 8)
        try:
            bank = np.arange(32, dtype=np.float64).reshape(4, 8) / 7.0
            owner.publish(bank, epoch=3)
            reader = PrototypeBank(4, 8, name=owner.name, create=False)
            epoch, got = reader.read()
            reader.close()
            assert epoch == 3
            assert np.array_equal(got, bank)  # bit-exact through shm
        finally:
            owner.close()
            owner.unlink()

    def test_reader_never_sees_torn_write(self):
        owner = PrototypeBank(4, 8)
        try:
            owner.publish(np.zeros((4, 8)), epoch=1)
            stop = threading.Event()
            seen = []

            def hammer_reads():
                while not stop.is_set():
                    epoch, bank = owner.read()
                    seen.append((epoch, bank[0, 0], bank[-1, -1]))

            reader = threading.Thread(target=hammer_reads)
            reader.start()
            for epoch in range(2, 40):
                owner.publish(np.full((4, 8), float(epoch)), epoch=epoch)
            stop.set()
            reader.join()
            for epoch, first, last in seen:
                if epoch == 1:
                    assert first == last == 0.0
                else:
                    # a torn read would pair epoch N with epoch M data
                    assert first == last == float(epoch)
        finally:
            owner.close()
            owner.unlink()

    def test_shape_mismatch_rejected(self):
        owner = PrototypeBank(4, 8)
        try:
            with pytest.raises(ValueError, match="shape"):
                owner.publish(np.zeros((3, 8)), epoch=1)
        finally:
            owner.close()
            owner.unlink()

    def test_stale_epoch_rejected(self):
        """A lagging writer must not silently retire a newer bank."""
        owner = PrototypeBank(4, 8)
        try:
            owner.publish(np.zeros((4, 8)), epoch=5)
            for stale in (5, 3, 0, -1):
                with pytest.raises(ValueError, match="strictly increasing"):
                    owner.publish(np.ones((4, 8)), epoch=stale)
            # The rejected publishes left the bank untouched and readable.
            epoch, bank = owner.read()
            assert epoch == 5
            assert np.array_equal(bank, np.zeros((4, 8)))
            owner.publish(np.ones((4, 8)), epoch=6)
            assert owner.epoch == 6
        finally:
            owner.close()
            owner.unlink()

    def test_crashed_writer_surfaces_as_fleet_error(self):
        """A writer that dies mid-publish leaves the seqlock odd; readers
        must give up after bounded retries instead of spinning forever."""
        owner = PrototypeBank(4, 8)
        try:
            owner.publish(np.zeros((4, 8)), epoch=1)
            owner._header[0] += 1  # simulate a crash between the bumps
            with pytest.raises(FleetError, match="seqlock unstable after 3"):
                owner.read(max_retries=3)
            # Recovery: a writer completing the swap unblocks readers.
            owner._header[0] += 1
            epoch, _ = owner.read(max_retries=3)
            assert epoch == 1
        finally:
            owner.close()
            owner.unlink()


# ----------------------------------------------------------------------
# Cross-process equivalence (the tentpole invariant)
# ----------------------------------------------------------------------
class TestEquivalence:
    def test_sharded_replay_bit_equals_single_process(self, router, model):
        rng = np.random.default_rng(11)
        streams = make_streams(rng, entities=6, prefix="equiv")
        reference_server = ForecastServer(build_model("float64"), ServingConfig())
        reference = replay_streams(
            reference_server,
            {k: v.copy() for k, v in streams.items()},
            forecast_every=4,
        )
        sharded = replay_fleet(router, streams, forecast_every=4)
        assert len(sharded) == len(reference) > 0
        for single, fleet in zip(reference, sharded):
            # identical issue order, identical float64 bytes per row
            assert fleet.entity == single.entity
            assert fleet.forecast.dtype == np.float64
            assert np.array_equal(fleet.forecast, single.forecast)

    def test_replay_fleet_empty_streams(self, router):
        assert replay_fleet(router, {}) == []
        assert replay_fleet(router, {}, with_latencies=True) == ([], [])

    def test_replay_fleet_latencies_align_with_responses(self, router):
        rng = np.random.default_rng(12)
        streams = make_streams(rng, entities=3, steps=LOOKBACK, prefix="lat")
        responses, latencies = replay_fleet(router, streams, with_latencies=True)
        assert len(responses) == len(latencies) > 0
        assert all(latency >= 0.0 for latency in latencies)

    def test_replay_fleet_rejects_bad_cadence(self, router):
        with pytest.raises(ValueError, match="forecast_every"):
            replay_fleet(router, {}, forecast_every=0)


# ----------------------------------------------------------------------
# Router traffic: routing, cache, admission
# ----------------------------------------------------------------------
class TestRouterTraffic:
    def test_observe_and_forecast_roundtrip(self, router, model):
        rng = np.random.default_rng(13)
        block = rng.normal(size=(LOOKBACK, NUM_ENTITIES))
        result = router.observe_many("traffic-0", block)
        assert result.accepted == LOOKBACK
        response = router.forecast("traffic-0")
        assert response.source == "model"
        assert response.forecast.shape == (model.config.horizon, NUM_ENTITIES)
        # repeat without new observations: version-exact cache hit
        assert router.forecast("traffic-0").source == "cache"

    def test_single_observe_routes_and_counts(self, router):
        rng = np.random.default_rng(14)
        for _ in range(LOOKBACK):
            router.observe("traffic-1", rng.normal(size=NUM_ENTITIES))
        assert router.forecast("traffic-1").source == "model"

    def test_unready_entity_raises(self, router):
        router.observe("traffic-unready", np.zeros(NUM_ENTITIES))
        with pytest.raises(FleetError, match="observations"):
            router.forecast("traffic-unready")

    def test_fleet_admission_sheds_to_last_row(self, router, model):
        rng = np.random.default_rng(15)
        block = rng.normal(size=(LOOKBACK, NUM_ENTITIES))
        router.observe_many("shed-0", block)
        handle = router._workers[router.shard_for("shed-0")]
        before = router.rejected_requests
        handle.inflight = router.config.max_inflight  # simulate saturation
        try:
            response = router.forecast("shed-0")
        finally:
            handle.inflight = 0
        assert response.source == "rejected:fleet"
        assert response.ring_version == -1
        assert router.rejected_requests == before + 1
        # persistence semantics: the last observed row, repeated
        expected = np.repeat(block[-1][None, :], model.config.horizon, axis=0)
        assert np.array_equal(response.forecast, expected)

    def test_first_request_for_unknown_entity_is_never_shed(self, router):
        rng = np.random.default_rng(16)
        handle = router._workers[router.shard_for("shed-fresh")]
        handle.inflight = router.config.max_inflight
        try:
            block = rng.normal(size=(LOOKBACK, NUM_ENTITIES))
            # observe_many populates _last_row, so use a fresh id and go
            # through the worker directly for ingestion bookkeeping
            router.observe_many("shed-fresh", block)
        finally:
            handle.inflight = 0
        assert router.forecast("shed-fresh").source in ("model", "cache")

    def test_forecast_many_scatter_gathers_in_request_order(self, router):
        rng = np.random.default_rng(17)
        ids = [f"gather-{i}" for i in range(5)]
        for entity_id in ids:
            router.observe_many(entity_id, rng.normal(size=(LOOKBACK, NUM_ENTITIES)))
        responses = router.forecast_many(ids)
        assert [r.entity for r in responses] == ids
        assert {router.shard_for(e) for e in ids} == {0, 1}  # really scattered

    def test_stats_aggregates_across_shards(self, model):
        telemetry = MetricsRegistry()
        with ShardRouter(model, FleetConfig(shards=2), telemetry=telemetry) as r:
            rng = np.random.default_rng(18)
            ids = [f"stats-{i}" for i in range(4)]
            for entity_id in ids:
                r.observe_many(entity_id, rng.normal(size=(LOOKBACK, NUM_ENTITIES)))
            r.forecast_many(ids)
            stats = r.stats()
            assert stats["entities"] == 4
            assert stats["observations"] == 4 * LOOKBACK
            assert stats["forecasts"] == 4
            assert stats["alive_workers"] == 2
            assert stats["prototype_epoch"] == 1
            assert set(stats["shards"]) == {0, 1}
            per_shard = stats["shards"]
            assert sum(s["entities"] for s in per_shard.values()) == 4
            assert all(s["bank_epoch"] == 1 for s in per_shard.values())
            # per-shard telemetry labels published on the router registry
            from repro.telemetry.exporter import render_prometheus

            rendered = render_prometheus(telemetry)
            assert 'serve_fleet_forecasts{shard="0"}' in rendered
            assert 'serve_fleet_forecasts{shard="1"}' in rendered


# ----------------------------------------------------------------------
# Epoch fencing and hot-swap
# ----------------------------------------------------------------------
class TestEpochFencing:
    def test_set_prototypes_bumps_epoch_and_invalidates(self):
        model = build_model("float64")
        sink = ListSink()
        logger = RunLogger([sink])
        with ShardRouter(model, FleetConfig(shards=2), run_logger=logger) as r:
            rng = np.random.default_rng(19)
            block = rng.normal(size=(LOOKBACK, NUM_ENTITIES))
            r.observe_many("swap-0", block)
            before = r.forecast("swap-0")
            assert before.source == "model"
            assert r.forecast("swap-0").source == "cache"
            assert r.prototype_epoch == 1

            swapped = model.prototype_values() + 0.125
            assert r.set_prototypes(swapped) == 2
            after = r.forecast("swap-0")
            # stale cache entry must not answer under the new bank
            assert after.source == "model"
            assert not np.array_equal(after.forecast, before.forecast)

            # the worker's answer matches a single-process model that
            # underwent the identical swap — fencing changed *when* the
            # bank loads, never *what* it computes
            reference = build_model("float64")
            reference.set_prototypes(swapped)
            expected = reference.forecast_batch(block[None, :, :])[0]
            assert np.array_equal(after.forecast, expected)
        events = [e["type"] for e in sink.records]
        assert "fleet_start" in events
        assert "fleet_swap" in events
        assert "fleet_stop" in events
        for record in sink.records:
            assert validate_event(record) == []

    def test_worker_refuses_to_serve_stale_epoch(self):
        model = build_model("float64")
        with ShardRouter(model, FleetConfig(shards=1)) as r:
            rng = np.random.default_rng(20)
            r.observe_many("stale-0", rng.normal(size=(LOOKBACK, NUM_ENTITIES)))
            # advertise an epoch the shared bank never received: the
            # worker must refuse rather than serve old prototypes
            with r._epoch_lock:
                r._epoch += 1
            with pytest.raises(StaleEpochError, match="refusing"):
                r.forecast("stale-0")

    def test_workers_adopt_new_bank_lazily(self, model):
        with ShardRouter(model, FleetConfig(shards=2)) as r:
            rng = np.random.default_rng(21)
            # pick ids covering both shards so every worker sees fenced
            # traffic after the swap
            ids, covered = [], set()
            for i in range(64):
                entity_id = f"lazy-{i}"
                shard = r.shard_for(entity_id)
                if shard not in covered or len(ids) < 4:
                    ids.append(entity_id)
                    covered.add(shard)
                if len(covered) == 2 and len(ids) >= 4:
                    break
            assert covered == {0, 1}
            for entity_id in ids:
                r.observe_many(entity_id, rng.normal(size=(LOOKBACK, NUM_ENTITIES)))
            r.set_prototypes(model.prototype_values() * 1.5)
            # no traffic yet: workers still hold epoch 1 locally
            stats = r.stats()
            assert stats["prototype_epoch"] == 2
            r.forecast_many(ids)  # fenced traffic forces the sync
            stats = r.stats()
            assert all(s["bank_epoch"] == 2 for s in stats["shards"].values())


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_requires_prototype_model(self, model, monkeypatch):
        router = ShardRouter(model, FleetConfig(shards=1))
        monkeypatch.setattr(model, "prototype_values", lambda: None)
        with pytest.raises(FleetError, match="prototype model"):
            router.start()

    def test_traffic_before_start_raises(self, model):
        router = ShardRouter(model, FleetConfig(shards=1))
        with pytest.raises(FleetError, match="not running"):
            router.forecast("nobody")

    def test_clean_shutdown_reaps_workers_and_unlinks_bank(self, model):
        router = ShardRouter(model, FleetConfig(shards=2)).start()
        processes = [h.process for h in router._workers.values()]
        bank_name = router.bank.name
        router.close()
        for process in processes:
            assert not process.is_alive()
            assert process.exitcode == 0  # graceful, not terminated
        with pytest.raises(FileNotFoundError):
            PrototypeBank(4, 8, name=bank_name, create=False)
        router.close()  # idempotent
        with pytest.raises(FleetError, match="not running"):
            router.ping()

    def test_config_validation(self):
        with pytest.raises(ValueError, match="shards"):
            FleetConfig(shards=0)
        with pytest.raises(ValueError, match="max_inflight"):
            FleetConfig(max_inflight=0)
        with pytest.raises(ValueError, match="nan_policy"):
            FleetConfig(nan_policy="wat")
        # Rejected at construction, never by a spawned worker dying on it.
        with pytest.raises(ValueError, match="fallback"):
            FleetConfig(fallback="wat")
        with pytest.raises(ValueError, match="seasonal_period"):
            FleetConfig(fallback="seasonal")

    def test_ping_all_workers(self, router):
        assert router.ping() == {0: True, 1: True}
        time.sleep(0)  # keep the shared router last-used here, not killed
