"""The fault-injection harness itself: deterministic schedules."""

import numpy as np
import pytest

from repro import autograd as ag
from repro.baselines import DLinear
from repro.core import FOCUSConfig, FOCUSForecaster
from repro.nn import init
from repro.robustness import ChaosError, ChaosModel, ChaosSpec


def wrapped(spec, seed=0):
    init.seed(seed)
    return ChaosModel(DLinear(12, 4, 2), spec)


def forward(model, rng):
    return model(ag.Tensor(rng.standard_normal((1, 12, 2))))


pytestmark = pytest.mark.chaos


class TestSchedule:
    def test_nan_injection_on_schedule(self, rng):
        model = wrapped(ChaosSpec(nan_every=3))
        for call in range(1, 10):
            out = forward(model, rng)
            if call % 3 == 0:
                assert np.isnan(out.data).all(), f"call {call} should be NaN"
            else:
                assert np.isfinite(out.data).all(), f"call {call} should be clean"
        assert model.injected_nans == 3

    def test_forecast_batch_runs_the_same_schedule(self):
        """The batched serving entry point is faulted too, one schedule
        call per batch, sharing the counter with forward()."""
        config = FOCUSConfig(
            lookback=12, horizon=4, num_entities=2, segment_length=4,
            num_prototypes=3, d_model=8, num_readout=2,
        )
        inner = FOCUSForecaster(config, prototypes=np.eye(3, 4))
        model = ChaosModel(inner, ChaosSpec(nan_every=2, fail_every=3))
        windows = np.random.default_rng(0).standard_normal((5, 12, 2))
        clean = model.forecast_batch(windows)
        assert clean.shape == (5, 4, 2) and np.isfinite(clean).all()
        poisoned = model.forecast_batch(windows)
        assert poisoned.shape == clean.shape and np.isnan(poisoned).all()
        with pytest.raises(ChaosError, match="call 3"):
            model.forecast_batch(windows, engine="eager")
        assert model.calls == 3
        assert (model.injected_nans, model.injected_failures) == (1, 1)
        assert model.injection_log == [(2, "nan"), (3, "fail")]

    def test_failure_injection_raises(self, rng):
        model = wrapped(ChaosSpec(fail_every=2))
        forward(model, rng)
        with pytest.raises(ChaosError, match="call 2"):
            forward(model, rng)
        assert model.injected_failures == 1

    def test_spike_injection_scales_output(self, rng):
        model = wrapped(ChaosSpec(spike_every=1, spike_scale=100.0))
        x = ag.Tensor(rng.standard_normal((1, 12, 2)))
        clean = model.inner(x)
        spiked = model(x)
        np.testing.assert_allclose(spiked.data, clean.data * 100.0)
        assert model.injected_spikes == 1

    def test_injection_window(self, rng):
        model = wrapped(ChaosSpec(nan_every=1, start_after=2, stop_after=4))
        results = [np.isnan(forward(model, rng).data).any() for _ in range(6)]
        assert results == [False, False, True, True, False, False]

    def test_deterministic_across_instances(self, rng):
        spec = ChaosSpec(nan_every=2, fail_every=5)
        a, b = wrapped(spec, seed=1), wrapped(spec, seed=1)
        for model in (a, b):
            stream = np.random.default_rng(9)
            for _ in range(10):
                try:
                    forward(model, stream)
                except ChaosError:
                    pass
        assert a.injection_log == b.injection_log
        assert a.injection_log  # schedule actually fired

    def test_hang_injection_raises_after_sleep(self, rng):
        model = wrapped(ChaosSpec(hang_every=2, hang_seconds=0.0))
        forward(model, rng)
        with pytest.raises(ChaosError, match="injected hang on call 2"):
            forward(model, rng)
        assert model.injected_hangs == 1
        assert (2, "hang") in model.injection_log
        # A hang both stalls AND fails — the caller must treat it like a
        # crashed refit attempt, which is exactly what the maintenance
        # worker's timeout + abandon path exercises.
        forward(model, rng)  # call 3 is clean again
        with pytest.raises(ChaosError, match="hang"):
            forward(model, rng)
        assert model.injected_hangs == 2

    def test_hang_respects_injection_window(self, rng):
        model = wrapped(
            ChaosSpec(hang_every=1, hang_seconds=0.0, start_after=2,
                      stop_after=4)
        )
        fired = []
        for _ in range(6):
            try:
                forward(model, rng)
                fired.append(False)
            except ChaosError:
                fired.append(True)
        assert fired == [False, False, True, True, False, False]
        assert model.injected_hangs == 2

    def test_latency_injection_counts(self, rng):
        model = wrapped(ChaosSpec(latency_every=2, latency_s=0.0))
        for _ in range(4):
            forward(model, rng)
        assert model.injected_latencies == 2


class TestDelegation:
    def test_attributes_and_modes_delegate(self):
        inner_model = DLinear(12, 4, 2)
        model = ChaosModel(inner_model, ChaosSpec())
        assert model.lookback == inner_model.lookback
        model.eval()
        assert inner_model.training is False
        # Parameters are discoverable through the wrapper (Trainer needs it).
        assert model.num_parameters() == inner_model.num_parameters()

    def test_missing_attribute_still_raises(self):
        model = wrapped(ChaosSpec())
        with pytest.raises(AttributeError):
            model.definitely_not_an_attribute
