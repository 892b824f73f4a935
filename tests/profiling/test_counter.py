"""Tests for the op-level FLOPs / activation-memory profiler."""

import numpy as np
import pytest

from repro import autograd as ag
from repro import nn
from repro.profiling import count_ops, profile_model
from repro.profiling.counter import active_counter


class TestOpCounter:
    def test_matmul_flops_exact(self, rng):
        a = ag.Tensor(rng.standard_normal((3, 4)))
        b = ag.Tensor(rng.standard_normal((4, 5)))
        with count_ops() as counter:
            ag.matmul(a, b)
        assert counter.flops == 2 * 3 * 5 * 4

    def test_conv_flops_exact(self, rng):
        from repro.nn.conv import conv1d

        x = ag.Tensor(rng.standard_normal((2, 3, 10)))
        w = ag.Tensor(rng.standard_normal((4, 3, 3)))
        with count_ops() as counter:
            out = conv1d(x, w)
        expected = 2 * out.size * 3 * 3  # 2 * prod(out) * C_in * K
        assert counter.per_op_flops["conv1d"] == expected

    def test_elementwise_flops(self, rng):
        x = ag.Tensor(rng.standard_normal((5, 5)))
        with count_ops() as counter:
            x + x
        assert counter.flops == 25

    def test_data_movement_is_free(self, rng):
        x = ag.Tensor(rng.standard_normal((4, 6)))
        with count_ops() as counter:
            x.reshape(24).reshape(6, 4).transpose()
        assert counter.flops == 0
        assert counter.activation_bytes == 3 * 24 * 8

    def test_activation_bytes(self, rng):
        x = ag.Tensor(rng.standard_normal((10, 10)))
        with count_ops() as counter:
            x * 2.0
        assert counter.activation_bytes == 100 * 8

    def test_counter_uninstalled_after_context(self, rng):
        with count_ops():
            assert active_counter() is not None
        assert active_counter() is None

    def test_nested_counters_restore_outer(self, rng):
        x = ag.Tensor(np.ones((2, 2)))
        with count_ops() as outer:
            x + x
            with count_ops() as inner:
                x + x
            x + x
        assert inner.flops == 4
        assert outer.flops == 8  # inner region not double-counted

    def test_add_flops_manual(self):
        with count_ops() as counter:
            counter.add_flops(1000, label="custom")
        assert counter.flops == 1000
        assert counter.per_op_flops["custom"] == 1000


class TestProfileModel:
    def test_linear_model_flops(self):
        nn.init.seed(0)
        model = nn.Linear(10, 5)
        report = profile_model(model, (4, 10))
        # matmul 2*4*5*10 plus bias add 4*5
        assert report.flops == 2 * 4 * 5 * 10 + 20
        assert report.parameter_count == 55

    def test_report_units(self):
        model = nn.Linear(100, 100)
        report = profile_model(model, (1, 100))
        assert report.mflops == pytest.approx(report.flops / 1e6)
        assert report.activation_mb == pytest.approx(report.activation_bytes / 2**20)
        assert report.parameter_k == pytest.approx(report.parameter_count / 1e3)

    def test_flops_scale_linearly_with_batch(self):
        model = nn.Linear(16, 16)
        small = profile_model(model, (1, 16))
        large = profile_model(model, (8, 16))
        assert large.flops == pytest.approx(8 * small.flops, rel=0.01)

    def test_focus_linear_in_lookback(self, rng):
        """The headline claim: FOCUS inference FLOPs grow linearly in L."""
        from repro.core import FOCUSConfig, FOCUSForecaster

        flops = []
        for lookback in (48, 96, 192):
            cfg = FOCUSConfig(
                lookback=lookback,
                horizon=12,
                num_entities=4,
                segment_length=12,
                num_prototypes=4,
                d_model=16,
                num_readout=2,
            )
            model = FOCUSForecaster(cfg, prototypes=rng.standard_normal((4, 12)))
            flops.append(profile_model(model, (1, lookback, 4)).flops)
        ratio1 = flops[1] / flops[0]
        ratio2 = flops[2] / flops[1]
        # Doubling L should roughly double FLOPs (within overheads), far
        # below the 4x a quadratic model would show.
        assert ratio1 < 2.6 and ratio2 < 2.6

    def test_attention_variant_grows_faster_than_focus(self, rng):
        """FOCUS-Attn (O(l^2)) must grow superlinearly vs FOCUS in L."""
        from repro.core import FOCUSConfig, make_focus_variant

        def flops_for(variant, lookback):
            cfg = FOCUSConfig(
                lookback=lookback,
                horizon=12,
                num_entities=4,
                segment_length=12,
                num_prototypes=4,
                d_model=16,
                num_readout=2,
            )
            model = make_focus_variant(variant, cfg, prototypes=rng.standard_normal((4, 12)))
            return profile_model(model, (1, lookback, 4)).flops

        focus_growth = flops_for("focus", 384) / flops_for("focus", 48)
        attn_growth = flops_for("attn", 384) / flops_for("attn", 48)
        assert attn_growth > focus_growth

    def test_proto_assignment_counted(self, rng):
        from repro.core import FOCUSConfig, FOCUSForecaster

        cfg = FOCUSConfig(
            lookback=48, horizon=12, num_entities=4, segment_length=12,
            num_prototypes=4, d_model=16, num_readout=2,
        )
        model = FOCUSForecaster(cfg, prototypes=rng.standard_normal((4, 12)))
        report = profile_model(model, (1, 48, 4))
        assert report.per_op_flops.get("proto_assignment", 0) > 0


class TestReplayableRouting:
    """ProtoAttn's routing node (``repro.autograd.replayable``) reports to
    the op observer as ``protoattn_route`` and costs 0 FLOPs there: the
    assignment search is charged once, as ``proto_assignment``, and the
    hard routing is a row gather."""

    @staticmethod
    def _model(rng):
        from repro.core import FOCUSConfig, FOCUSForecaster

        cfg = FOCUSConfig(
            lookback=48, horizon=12, num_entities=4, segment_length=12,
            num_prototypes=4, d_model=16, num_readout=2,
        )
        return FOCUSForecaster(cfg, prototypes=rng.standard_normal((4, 12)))

    def test_recording_observer_sees_the_gather(self, rng):
        from repro.autograd.tensor import get_op_observer, set_op_observer

        model = self._model(rng)
        model.eval()
        x = ag.Tensor(rng.standard_normal((2, 48, 4)))
        events = []
        previous = get_op_observer()
        set_op_observer(lambda name, out_shape, *_: events.append((name, out_shape)))
        try:
            with ag.no_grad():
                model(x)
        finally:
            set_op_observer(previous)
        gathers = [shape for name, shape in events if name == "protoattn_route"]
        # One per mixer: temporal (B*N, l, d) and entity (B*l, N, d).
        assert gathers == [(8, 4, 16), (8, 4, 16)]

    def test_profiler_charges_routing_time_to_the_routing_op(self, rng):
        from repro.profiling import profile_ops

        model = self._model(rng)
        model.eval()
        with ag.no_grad(), profile_ops() as prof:
            model(ag.Tensor(rng.standard_normal((1, 48, 4))))
        assert prof.stats["protoattn_route"].calls == 2
        assert prof.stats["protoattn_route"].seconds > 0.0

    def test_flop_totals_unchanged_by_routing_events(self, rng):
        report = profile_model(self._model(rng), (1, 48, 4))
        assert report.per_op_flops["protoattn_route"] == 0
        assert report.per_op_flops["proto_assignment"] == 6144
        # Before the fused ops this forward counted 171076 FLOPs; the four
        # LayerNorms each drop one mean and one subtract over their
        # 1*4*4*16 = 256 elements.  Counted runs then took the one-hot
        # routing matmul, 2*B'*l*k*d = 2*4*4*4*16 = 2048 FLOPs per mixer
        # (temporal B' = B*N = 4 sequences of l = 4 segments, entity
        # B' = B*l = 4 sequences of N = 4 entities); the served gather
        # costs none, so both drop out.  The routing events add nothing.
        assert report.flops == 171076 - 4 * 2 * 256 - 2 * (2 * 4 * 4 * 4 * 16)  # 164932
