"""Tests for the multi-layer (DeepProtoBlock) extension."""

import numpy as np
import pytest

from repro import autograd as ag
from repro.core import FOCUSConfig, FOCUSForecaster
from repro.core.deep import DeepProtoBlock
from repro.core.extractor import DualBranchExtractor
from repro.core.protoattn import ProtoAttn


def _router(rng, k=4, p=6):
    """A layer-1 ProtoAttn whose assignment routes the block."""
    return ProtoAttn(rng.standard_normal((k, p)), d_model=8)


class TestDeepProtoBlock:
    def test_shape_preserved(self, rng):
        block = DeepProtoBlock(num_prototypes=4, d_model=8)
        tokens = ag.Tensor(rng.standard_normal((3, 6, 8)))
        segments = ag.Tensor(rng.standard_normal((3, 6, 6)))
        assert block(tokens, _router(rng), segments).shape == (3, 6, 8)

    def test_rejects_bad_token_dim(self, rng):
        block = DeepProtoBlock(4, 8)
        segments = ag.Tensor(rng.standard_normal((3, 6, 6)))
        with pytest.raises(ValueError, match="d=8"):
            block(ag.Tensor(rng.standard_normal((3, 6, 7))), _router(rng), segments)

    def test_rejects_mismatched_routing(self, rng):
        block = DeepProtoBlock(4, 8)
        tokens = ag.Tensor(rng.standard_normal((3, 6, 8)))
        segments = ag.Tensor(rng.standard_normal((3, 6, 6)))
        with pytest.raises(ValueError, match="assignment"):
            block(tokens, _router(rng, k=5), segments)
        with pytest.raises(ValueError, match="assignment"):
            block(tokens, _router(rng), ag.Tensor(rng.standard_normal((3, 5, 6))))

    def test_gradients_flow(self, rng):
        block = DeepProtoBlock(4, 8)
        tokens = ag.Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True)
        segments = ag.Tensor(rng.standard_normal((2, 5, 6)))
        block(tokens, _router(rng), segments).sum().backward()
        assert tokens.grad is not None
        assert block.proto_queries.grad is not None


class TestMultiLayerFOCUS:
    def _config(self, n_layers):
        return FOCUSConfig(
            lookback=24, horizon=6, num_entities=3, segment_length=6,
            num_prototypes=4, d_model=8, num_readout=2, n_layers=n_layers,
        )

    def test_deeper_model_forward(self, rng):
        model = FOCUSForecaster(self._config(3), prototypes=rng.standard_normal((4, 6)))
        out = model(ag.Tensor(rng.standard_normal((2, 24, 3))))
        assert out.shape == (2, 6, 3)

    def test_depth_adds_parameters(self, rng):
        shallow = FOCUSForecaster(self._config(1), prototypes=rng.standard_normal((4, 6)))
        deep = FOCUSForecaster(self._config(2), prototypes=rng.standard_normal((4, 6)))
        assert deep.num_parameters() > shallow.num_parameters()
        assert len(deep.extractor.deep_t) == 1
        assert len(shallow.extractor.deep_t) == 0

    def test_deeper_model_trains(self, rng):
        from repro import optim

        model = FOCUSForecaster(self._config(2), prototypes=rng.standard_normal((4, 6)))
        optimizer = optim.AdamW(model.parameters(), lr=3e-3)
        x = rng.standard_normal((8, 24, 3))
        y = x[:, -6:, :]
        losses = []
        for _ in range(15):
            pred = model(ag.Tensor(x))
            loss = ((pred - ag.Tensor(y)) ** 2.0).mean()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]

    def test_multi_layer_requires_proto_mixer(self, rng):
        with pytest.raises(ValueError, match="proto"):
            DualBranchExtractor(
                rng.standard_normal((4, 6)), 6, 8, mixer="attn", n_layers=2
            )

    def test_invalid_layer_count(self, rng):
        with pytest.raises(ValueError, match="n_layers"):
            DualBranchExtractor(rng.standard_normal((4, 6)), 6, 8, n_layers=0)

    def test_depth_stays_linear_in_length(self, rng):
        """Extra layers must not break the O(k*l) scaling."""
        from repro.profiling import profile_model

        flops = []
        for lookback in (48, 384):
            config = FOCUSConfig(
                lookback=lookback, horizon=6, num_entities=3, segment_length=6,
                num_prototypes=4, d_model=8, num_readout=2, n_layers=3,
            )
            model = FOCUSForecaster(config, prototypes=rng.standard_normal((4, 6)))
            flops.append(profile_model(model, (1, lookback, 3)).flops)
        assert flops[1] / flops[0] < 12.0  # 8x length -> ~linear growth
