"""Tests for the streaming FOCUS facade (a serving-stack front door)."""

import numpy as np
import pytest

from repro.core import FOCUSConfig, FOCUSForecaster
from repro.serving import StreamingFOCUS

pytestmark = pytest.mark.serve


def make_model(rng, lookback=24, horizon=6, entities=3, p=6, k=4):
    config = FOCUSConfig(
        lookback=lookback, horizon=horizon, num_entities=entities,
        segment_length=p, num_prototypes=k, d_model=8, num_readout=2,
    )
    return FOCUSForecaster(config, prototypes=rng.standard_normal((k, p)))


class TestBuffering:
    def test_not_ready_until_lookback_filled(self, rng):
        stream = StreamingFOCUS(make_model(rng))
        for _ in range(23):
            stream.observe(rng.standard_normal(3))
        assert not stream.ready
        with pytest.raises(RuntimeError, match="need 24"):
            stream.forecast()
        stream.observe(rng.standard_normal(3))
        assert stream.ready

    def test_forecast_shape(self, rng):
        stream = StreamingFOCUS(make_model(rng))
        stream.observe_many(rng.standard_normal((30, 3)))
        forecast = stream.forecast()
        assert forecast.shape == (6, 3)
        assert stream.stats.forecasts == 1

    def test_buffer_holds_latest_window(self, rng):
        model = make_model(rng)
        stream = StreamingFOCUS(model)
        data = rng.standard_normal((40, 3))
        stream.observe_many(data)
        assert np.allclose(stream.ring.window(), data[-24:])

    def test_matches_batch_forecast(self, rng):
        """Streaming forecast equals calling the model on the same window."""
        from repro import autograd as ag

        model = make_model(rng)
        stream = StreamingFOCUS(model)
        data = rng.standard_normal((30, 3))
        stream.observe_many(data)
        streamed = stream.forecast()
        with ag.no_grad():
            direct = model(ag.Tensor(data[-24:][None])).data[0]
        assert np.array_equal(streamed, direct)

    def test_wrong_observation_shape(self, rng):
        stream = StreamingFOCUS(make_model(rng))
        with pytest.raises(ValueError, match="observation"):
            stream.observe(np.zeros(5))

    def test_observation_counter(self, rng):
        stream = StreamingFOCUS(make_model(rng))
        stream.observe_many(rng.standard_normal((10, 3)))
        assert stream.stats.observations == 10

    def test_observe_many_rejects_wrong_block_shape(self, rng):
        stream = StreamingFOCUS(make_model(rng))
        with pytest.raises(ValueError, match="block"):
            stream.observe_many(np.zeros((10, 5)))

    def test_ring_matches_roll_reference(self, rng):
        """The ring buffer must be observably identical to the old
        np.roll-based buffer at every step, including before fill."""
        model = make_model(rng)
        stream = StreamingFOCUS(model)
        lookback = model.config.lookback
        reference = np.zeros((lookback, 3))
        for step in range(2 * lookback + 5):
            row = rng.standard_normal(3)
            stream.observe(row)
            reference = np.roll(reference, -1, axis=0)
            reference[-1] = row
            assert np.array_equal(stream.ring.window(), reference), f"step {step}"

    def test_observe_many_matches_single_observes(self, rng):
        model = make_model(rng)
        chunked = StreamingFOCUS(model)
        stepped = StreamingFOCUS(model)
        data = rng.standard_normal((57, 3))
        # Partial fill, a wrapping chunk, and a chunk longer than lookback.
        for start, end in ((0, 17), (17, 29), (29, 57)):
            chunked.observe_many(data[start:end])
        for row in data:
            stepped.observe(row)
        assert np.array_equal(chunked.ring.window(), stepped.ring.window())
        assert chunked.stats.observations == stepped.stats.observations == 57

    def test_observe_does_not_reallocate_storage(self, rng):
        """observe() is an O(N) row write into fixed storage — the ring
        array object must never be replaced (the old implementation
        rebuilt the full (L, N) buffer with np.roll on every step)."""
        stream = StreamingFOCUS(make_model(rng))
        storage = stream.ring.storage
        stream.observe_many(rng.standard_normal((60, 3)))
        for _ in range(10):
            stream.observe(rng.standard_normal(3))
        assert stream.ring.storage is storage


class TestBufferIsolation:
    def test_buffer_not_aliased_at_ring_boundary(self, rng):
        """Regression: with _head == 0 the old _buffer returned the live
        ring storage, so a caller holding the result saw it mutate on the
        next observe()."""
        stream = StreamingFOCUS(make_model(rng))
        stream.observe_many(rng.standard_normal((24, 3)))  # exactly lookback
        assert stream.ring.head == 0
        held = stream.ring.window()
        assert held is not stream.ring.storage
        snapshot = held.copy()
        stream.observe(rng.standard_normal(3))
        assert np.array_equal(held, snapshot)

    def test_buffer_not_aliased_mid_ring(self, rng):
        stream = StreamingFOCUS(make_model(rng))
        stream.observe_many(rng.standard_normal((30, 3)))
        assert stream.ring.head != 0
        held = stream.ring.window()
        snapshot = held.copy()
        stream.observe_many(rng.standard_normal((5, 3)))
        assert np.array_equal(held, snapshot)

    def test_writing_to_buffer_does_not_poison_ring(self, rng):
        stream = StreamingFOCUS(make_model(rng))
        data = rng.standard_normal((24, 3))
        stream.observe_many(data)
        stream.ring.window()[:] = np.nan
        assert np.array_equal(stream.ring.window(), data)


class TestObserveManyWraparound:
    def test_block_larger_than_lookback(self, rng):
        chunked = StreamingFOCUS(make_model(rng))
        stepped = StreamingFOCUS(make_model(rng))
        block = rng.standard_normal((2 * 24 + 5, 3))
        chunked.observe_many(block)
        for row in block:
            stepped.observe(row)
        assert np.array_equal(chunked.ring.window(), block[-24:])
        assert np.array_equal(chunked.ring.window(), stepped.ring.window())
        assert chunked.ring.head == stepped.ring.head
        assert chunked.ready

    def test_block_landing_exactly_on_ring_boundary(self, rng):
        chunked = StreamingFOCUS(make_model(rng))
        stepped = StreamingFOCUS(make_model(rng))
        data = rng.standard_normal((7 + 17, 3))
        chunked.observe_many(data[:7])
        chunked.observe_many(data[7:])  # lands the head exactly on slot 0
        for row in data:
            stepped.observe(row)
        assert chunked.ring.head == 0
        assert np.array_equal(chunked.ring.window(), stepped.ring.window())
        # A full-lookback block from the boundary wraps back to it.
        more = rng.standard_normal((24, 3))
        chunked.observe_many(more)
        assert chunked.ring.head == 0
        assert np.array_equal(chunked.ring.window(), more)

    def test_equivalence_on_an_already_wrapped_stream(self, rng):
        """Chunked and stepped ingestion agree even after the ring has
        wrapped several times and the head sits mid-ring."""
        chunked = StreamingFOCUS(make_model(rng))
        stepped = StreamingFOCUS(make_model(rng))
        prefix = rng.standard_normal((61, 3))  # head mid-ring, wrapped twice
        chunked.observe_many(prefix)
        for row in prefix:
            stepped.observe(row)
        for size in (1, 23, 24, 25, 70):
            block = rng.standard_normal((size, 3))
            chunked.observe_many(block)
            for row in block:
                stepped.observe(row)
            assert np.array_equal(chunked.ring.window(), stepped.ring.window()), size
            assert chunked.ring.head == stepped.ring.head
        assert chunked.stats.observations == stepped.stats.observations


class TestAdaptation:
    def test_disabled_by_default(self, rng):
        model = make_model(rng)
        before = model.extractor.temporal_mixer.prototypes.copy()
        stream = StreamingFOCUS(model)
        stream.observe_many(100.0 * rng.standard_normal((60, 3)))
        assert np.allclose(model.extractor.temporal_mixer.prototypes, before)

    def test_novel_segments_trigger_updates(self, rng):
        model = make_model(rng)
        stream = StreamingFOCUS(
            model, adapt_prototypes=True, novelty_threshold=2.0, ema=0.2
        )
        # Familiar data first to establish the distance baseline...
        calm = 0.01 * rng.standard_normal((48, 3))
        stream.observe_many(calm)
        before = model.extractor.temporal_mixer.prototypes.copy()
        # ...then a wild regime: segments far from every prototype.
        stream.observe_many(50.0 + 10.0 * rng.standard_normal((24, 3)))
        assert stream.stats.novel_segments > 0
        assert stream.stats.prototype_updates > 0
        assert not np.allclose(model.extractor.temporal_mixer.prototypes, before)

    def test_ema_zero_counts_but_does_not_move(self, rng):
        model = make_model(rng)
        stream = StreamingFOCUS(
            model, adapt_prototypes=True, novelty_threshold=2.0, ema=0.0
        )
        stream.observe_many(0.01 * rng.standard_normal((48, 3)))
        before = model.extractor.temporal_mixer.prototypes.copy()
        stream.observe_many(50.0 + 10.0 * rng.standard_normal((24, 3)))
        assert stream.stats.novel_segments > 0
        assert stream.stats.prototype_updates == 0
        assert np.allclose(model.extractor.temporal_mixer.prototypes, before)

    def test_both_mixers_share_updated_prototypes(self, rng):
        model = make_model(rng)
        stream = StreamingFOCUS(
            model, adapt_prototypes=True, novelty_threshold=2.0, ema=0.3
        )
        stream.observe_many(0.01 * rng.standard_normal((48, 3)))
        stream.observe_many(50.0 + 10.0 * rng.standard_normal((24, 3)))
        assert np.allclose(
            model.extractor.temporal_mixer.prototypes,
            model.extractor.entity_mixer.prototypes,
        )

    def test_first_block_has_no_baseline(self, rng):
        """With an empty distance history there is no median to compare
        against, so even a wild first segment cannot be flagged novel."""
        model = make_model(rng)
        stream = StreamingFOCUS(model, adapt_prototypes=True, ema=0.2)
        stream.observe_many(50.0 + 10.0 * rng.standard_normal((6, 3)))
        assert stream.stats.novel_segments == 0
        assert stream.stats.prototype_updates == 0

    def test_burst_judged_against_prior_history_only(self, rng):
        """Regression: the novelty median must exclude the current block.

        One calm block establishes the baseline (3 history entries), then
        a drift burst arrives.  If the burst's own distances were folded
        into the median *before* the comparison — as the seed code did —
        the median of {3 calm, 3 burst} values lands near burst/2, so at
        the default 4x threshold the burst suppresses its own detection.
        """
        model = make_model(rng)
        stream = StreamingFOCUS(model, adapt_prototypes=True, ema=0.1)
        assert stream.novelty_threshold == 4.0
        calm = 0.01 * rng.standard_normal((6, 3))
        stream.observe_many(calm)  # first adapt call: empty history, no-op
        assert stream.stats.novel_segments == 0
        burst = 80.0 + rng.standard_normal((6, 3))
        stream.observe_many(burst)
        assert stream.stats.novel_segments == 3
        assert stream.stats.prototype_updates == 3

    def test_history_capped(self, rng):
        model = make_model(rng)
        stream = StreamingFOCUS(model, adapt_prototypes=True)
        stream.observe_many(rng.standard_normal((3000, 3)))
        assert len(stream._distance_history) <= 1024

    def test_parameter_validation(self, rng):
        with pytest.raises(ValueError, match="novelty_threshold"):
            StreamingFOCUS(make_model(rng), novelty_threshold=1.0)
        with pytest.raises(ValueError, match="ema"):
            StreamingFOCUS(make_model(rng), ema=1.0)
