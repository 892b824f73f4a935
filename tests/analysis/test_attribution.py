"""Tests for prototype importance attribution."""

import numpy as np
import pytest

from repro.analysis.attribution import prototype_importance
from repro.core import FOCUSConfig, FOCUSForecaster, make_focus_variant


@pytest.fixture
def model(rng):
    config = FOCUSConfig(
        lookback=24, horizon=6, num_entities=3, segment_length=6,
        num_prototypes=4, d_model=8, num_readout=2,
    )
    return FOCUSForecaster(config, prototypes=rng.standard_normal((4, 6)))


class TestPrototypeImportance:
    def test_shapes(self, model, rng):
        windows = rng.standard_normal((2, 24, 3))
        result = prototype_importance(model, windows)
        assert result.importance.shape == (4,)
        assert result.usage.shape == (4,)
        assert result.baseline_forecast.shape == (2, 6, 3)
        assert result.usage.sum() == pytest.approx(1.0)

    def test_unused_prototype_has_zero_importance(self, model, rng):
        windows = rng.standard_normal((2, 24, 3))
        result = prototype_importance(model, windows)
        for proto in range(4):
            if result.usage[proto] == 0.0:
                # Not routed in the temporal branch; entity branch may still
                # use it, so only assert when completely unused.
                continue
        # At least one used prototype must matter.
        used = result.usage > 0
        assert result.importance[used].max() > 0.0

    def test_knockout_restores_model(self, model, rng):
        """After attribution the model must be byte-identical in behavior."""
        windows = rng.standard_normal((2, 24, 3))
        from repro import autograd as ag
        from repro.autograd import Tensor

        model.eval()
        with ag.no_grad():
            before = model(Tensor(windows)).data
        prototype_importance(model, windows)
        with ag.no_grad():
            after = model(Tensor(windows)).data
        assert np.array_equal(before, after)
        # No knockout mask is left behind.
        extractor = model.extractor
        for mixer in (extractor.temporal_mixer, extractor.entity_mixer):
            assert mixer.knockout is None

    def test_ranking_order(self, model, rng):
        windows = rng.standard_normal((2, 24, 3))
        result = prototype_importance(model, windows)
        ranking = result.ranking()
        assert sorted(ranking.tolist()) == [0, 1, 2, 3]
        assert result.importance[ranking[0]] >= result.importance[ranking[-1]]

    def test_rejects_non_batched_input(self, model, rng):
        with pytest.raises(ValueError, match="B, L, N"):
            prototype_importance(model, rng.standard_normal((24, 3)))

    def test_requires_proto_mixer(self, rng):
        config = FOCUSConfig(
            lookback=24, horizon=6, num_entities=3, segment_length=6,
            num_prototypes=4, d_model=8, num_readout=2,
        )
        attn_model = make_focus_variant("attn", config)
        with pytest.raises(RuntimeError, match="ProtoAttn"):
            prototype_importance(attn_model, rng.standard_normal((1, 24, 3)))

    def test_dominant_prototype_matters_most(self, rng):
        """If every segment routes to one prototype, knocking it out must
        dominate the importance vector."""
        prototypes = np.vstack([np.zeros(6), 100.0 + rng.standard_normal((3, 6))])
        config = FOCUSConfig(
            lookback=24, horizon=6, num_entities=2, segment_length=6,
            num_prototypes=4, d_model=8, num_readout=2, use_revin=False,
        )
        model = FOCUSForecaster(config, prototypes=prototypes)
        windows = 0.1 * rng.standard_normal((2, 24, 2))  # near prototype 0
        result = prototype_importance(model, windows)
        assert result.usage[0] == pytest.approx(1.0)
        assert result.ranking()[0] == 0
