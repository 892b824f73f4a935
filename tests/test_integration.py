"""Cross-module integration tests: full pipelines through the public API."""

import numpy as np
import pytest

from repro import autograd as ag
from repro import nn
from repro.analysis import approximate_series, extract_dependencies
from repro.core import (
    ClusteringConfig,
    FOCUSConfig,
    FOCUSForecaster,
    SegmentClusterer,
    make_focus_variant,
)
from repro.data import load_dataset
from repro.profiling import profile_model
from repro.serving import StreamingFOCUS
from repro.training import (
    ExperimentConfig,
    Trainer,
    TrainerConfig,
    rolling_backtest,
    run_experiment,
)

LOOKBACK, HORIZON = 48, 12


@pytest.fixture(scope="module")
def data():
    return load_dataset("ETTh1", scale="smoke", seed=0)


@pytest.fixture(scope="module")
def trained_focus(data):
    nn.init.seed(0)
    config = FOCUSConfig(
        lookback=LOOKBACK, horizon=HORIZON, num_entities=data.num_entities,
        segment_length=12, num_prototypes=4, d_model=16, num_readout=4,
    )
    model = FOCUSForecaster.from_training_data(config, data.train)
    trainer = Trainer(
        model,
        TrainerConfig(epochs=2, batch_size=64, lr=5e-3, patience=99,
                      restore_best=False),
    )
    trainer.fit(
        data.windows("train", LOOKBACK, HORIZON, stride=4),
        data.windows("val", LOOKBACK, HORIZON),
    )
    return model, trainer


class TestEndToEndPipeline:
    def test_offline_then_online_beats_naive(self, data, trained_focus):
        model, trainer = trained_focus
        metrics = trainer.evaluate(
            data.windows("test", LOOKBACK, HORIZON), stride_subsample=8
        )
        # Naive last-value persistence baseline on the same windows.
        test_windows = data.windows("test", LOOKBACK, HORIZON)
        indices = np.arange(0, len(test_windows), 8)
        xs, ys = test_windows.batch(indices)
        naive = np.repeat(xs[:, -1:, :], HORIZON, axis=1)
        naive_mse = float(((naive - ys) ** 2).mean())
        assert metrics["mse"] < naive_mse

    def test_trained_model_survives_serialization(self, data, trained_focus, tmp_path):
        model, _ = trained_focus
        path = str(tmp_path / "focus.npz")
        model.save(path)
        clone = FOCUSForecaster(model.config)
        clone.load(path)
        clone._has_prototypes = True
        x = ag.Tensor(data.test[None, :LOOKBACK])
        model.eval(), clone.eval()
        assert np.allclose(model(x).data, clone(x).data)

    def test_analysis_tools_on_trained_model(self, data, trained_focus):
        model, _ = trained_focus
        window = data.test[:LOOKBACK]
        result = extract_dependencies(model, window)
        assert result.matrix.shape == (LOOKBACK // 12, LOOKBACK // 12)
        assert np.allclose(result.per_entity.sum(axis=-1), 1.0)

    def test_prototype_approximation_on_real_series(self, data):
        clusterer = SegmentClusterer(
            ClusteringConfig(num_prototypes=6, segment_length=12, seed=0)
        ).fit(data.train)
        result = approximate_series(data.test[:240, 0], clusterer, match_moments=True)
        assert result.mse < float(np.var(result.original))

    def test_streaming_matches_offline_inference(self, data, trained_focus):
        model, _ = trained_focus
        stream = StreamingFOCUS(model)
        stream.observe_many(data.test[:LOOKBACK])
        streamed = stream.forecast()
        with ag.no_grad():
            direct = model(ag.Tensor(data.test[None, :LOOKBACK])).data[0]
        assert np.array_equal(streamed, direct)

    def test_backtest_on_trained_model(self, data, trained_focus):
        model, _ = trained_focus
        report = rolling_backtest(model, data.test, LOOKBACK, HORIZON, n_folds=3)
        assert len(report.folds) == 3
        assert np.isfinite(report.mse) and np.isfinite(report.drift)

    def test_profiler_on_trained_model(self, data, trained_focus):
        model, _ = trained_focus
        report = profile_model(model, (1, LOOKBACK, data.num_entities))
        assert report.flops > 0
        assert "proto_assignment" in report.per_op_flops

    def test_experiment_runner_consistency(self, data):
        """run_experiment must produce the same metrics as the manual
        build->train->evaluate pipeline with identical seeds."""
        trainer_cfg = TrainerConfig(
            epochs=1, batch_size=64, lr=5e-3, patience=99, restore_best=False, seed=3
        )
        config = ExperimentConfig(
            model="DLinear", dataset="ETTh1", lookback=LOOKBACK, horizon=HORIZON,
            trainer=trainer_cfg, eval_stride=8, seed=3,
        )
        first = run_experiment(config, data)
        second = run_experiment(config, data)
        assert first.mse == pytest.approx(second.mse)

    def test_nan_loss_guard(self, data):
        nn.init.seed(0)
        model = FOCUSForecaster.from_training_data(
            FOCUSConfig(
                lookback=LOOKBACK, horizon=HORIZON, num_entities=data.num_entities,
                segment_length=12, num_prototypes=4, d_model=8, num_readout=2,
            ),
            data.train,
        )
        # Poison a weight so the first forward produces NaN.
        model.fusion.head.weight.data[0, 0] = np.nan
        trainer = Trainer(model, TrainerConfig(epochs=1, batch_size=32))
        with pytest.raises(RuntimeError, match="non-finite"):
            trainer.fit(data.windows("train", LOOKBACK, HORIZON, stride=8))


class TestVariantsIntegration:
    @pytest.mark.parametrize("variant", ["attn", "lnr_fusion", "all_lnr"])
    def test_variants_train_end_to_end(self, data, variant):
        nn.init.seed(0)
        config = FOCUSConfig(
            lookback=LOOKBACK, horizon=HORIZON, num_entities=data.num_entities,
            segment_length=12, num_prototypes=4, d_model=8, num_readout=2,
        )
        model = make_focus_variant(variant, config)
        if variant == "lnr_fusion":
            model.fit_prototypes(data.train)
        trainer = Trainer(
            model, TrainerConfig(epochs=1, batch_size=64, restore_best=False)
        )
        history = trainer.fit(data.windows("train", LOOKBACK, HORIZON, stride=8))
        assert np.isfinite(history.train_losses[-1])

    def test_deep_and_soft_options_compose(self, data):
        nn.init.seed(0)
        config = FOCUSConfig(
            lookback=LOOKBACK, horizon=HORIZON, num_entities=data.num_entities,
            segment_length=12, num_prototypes=4, d_model=8, num_readout=2,
            n_layers=2, assignment="soft", assignment_temperature=0.5,
        )
        model = FOCUSForecaster.from_training_data(config, data.train)
        out = model(ag.Tensor(data.test[None, :LOOKBACK]))
        assert out.shape == (1, HORIZON, data.num_entities)
