"""The fused ``linear`` and ``layer_norm`` ops against their compositions.

The compositions below are what ``nn.Linear`` and ``nn.LayerNorm`` ran
before the fused ops existed.  They are kept here only as oracles: the
fused forwards must match them bit for bit, their gradients must match
to rounding, and their FLOP accounting must match op for op.
"""

import numpy as np
import pytest

from repro import autograd as ag
from repro import nn
from repro.autograd.tensor import get_op_observer, set_op_observer
from repro.profiling import count_ops


def composed_linear(x, weight, bias=None):
    out = ag.matmul(x, weight.T)
    if bias is not None:
        out = out + bias
    return out


def composed_layer_norm(x, weight, bias, axes, eps=1e-5):
    mu = ag.mean(x, axis=axes, keepdims=True)
    sigma2 = ag.var(x, axis=axes, keepdims=True)
    normalized = (x - mu) / ag.sqrt(sigma2 + eps)
    return normalized * weight + bias


def make(shape, rng, dtype=np.float64):
    return ag.Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)


def graph_nodes(fn):
    """The op events ``fn()`` reports to the observer."""
    events = []
    previous = get_op_observer()
    set_op_observer(lambda name, *_: events.append(name))
    try:
        fn()
    finally:
        set_op_observer(previous)
    return events


X_SHAPES = [(5,), (3, 5), (2, 3, 5), (2, 2, 3, 5)]


class TestLinear:
    @pytest.mark.parametrize("shape", X_SHAPES, ids=lambda s: f"{len(s)}d")
    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no_bias"])
    def test_gradcheck(self, shape, with_bias, rng):
        inputs = [make(shape, rng), make((4, 5), rng)]
        if with_bias:
            inputs.append(make((4,), rng))
        ag.gradcheck(ag.linear, inputs)

    @pytest.mark.parametrize("shape", X_SHAPES, ids=lambda s: f"{len(s)}d")
    def test_gradcheck_float32(self, shape, rng):
        inputs = [make(shape, rng, np.float32), make((4, 5), rng, np.float32),
                  make((4,), rng, np.float32)]
        ag.gradcheck(ag.linear, inputs)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", X_SHAPES, ids=lambda s: f"{len(s)}d")
    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no_bias"])
    def test_forward_bitwise_equals_composition(self, dtype, shape, with_bias, rng):
        x, weight = make(shape, rng, dtype), make((4, 5), rng, dtype)
        bias = make((4,), rng, dtype) if with_bias else None
        fused = ag.linear(x, weight, bias).data
        composed = composed_linear(x, weight, bias).data
        assert fused.dtype == composed.dtype
        assert np.array_equal(fused, composed)

    @pytest.mark.parametrize("shape", X_SHAPES, ids=lambda s: f"{len(s)}d")
    def test_gradients_match_composition(self, shape, rng):
        grads = []
        for fn in (ag.linear, composed_linear):
            local = np.random.default_rng(7)
            inputs = [make(shape, local), make((4, 5), local), make((4,), local)]
            upstream = local.standard_normal(shape[:-1] + (4,))
            fn(*inputs).backward(upstream)
            grads.append([t.grad for t in inputs])
        for fused, composed in zip(*grads):
            np.testing.assert_allclose(fused, composed, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no_bias"])
    def test_flops_equal_matmul_plus_add(self, with_bias, rng):
        x, weight = make((2, 3, 5), rng), make((4, 5), rng)
        bias = make((4,), rng) if with_bias else None
        with count_ops() as fused:
            ag.linear(x, weight, bias)
        with count_ops() as composed:
            composed_linear(x, weight, bias)
        assert fused.flops == composed.flops == 2 * 6 * 4 * 5 + (24 if with_bias else 0)


NORM_CASES = [((3, 6), (6,)), ((2, 3, 6), (6,)), ((2, 3, 4), (3, 4)), ((2, 2, 3, 4), (3, 4))]


class TestLayerNorm:
    @staticmethod
    def _inputs(x_shape, norm_shape, rng, dtype=np.float64):
        return [make(x_shape, rng, dtype), make(norm_shape, rng, dtype),
                make(norm_shape, rng, dtype)]

    @staticmethod
    def _axes(x_shape, norm_shape):
        return tuple(range(len(x_shape) - len(norm_shape), len(x_shape)))

    @pytest.mark.parametrize("x_shape,norm_shape", NORM_CASES)
    def test_gradcheck(self, x_shape, norm_shape, rng):
        axes = self._axes(x_shape, norm_shape)
        ag.gradcheck(
            lambda x, w, b: ag.layer_norm(x, w, b, axes),
            self._inputs(x_shape, norm_shape, rng),
        )

    @pytest.mark.parametrize("x_shape,norm_shape", NORM_CASES)
    def test_gradcheck_float32(self, x_shape, norm_shape, rng):
        axes = self._axes(x_shape, norm_shape)
        ag.gradcheck(
            lambda x, w, b: ag.layer_norm(x, w, b, axes),
            self._inputs(x_shape, norm_shape, rng, np.float32),
        )

    def test_gradcheck_weighted_upstream(self, rng):
        """A non-uniform upstream gradient exercises both mean terms of
        the closed form (``sum()`` alone makes ``mean(dn)`` trivial)."""
        upstream = ag.Tensor(rng.standard_normal((2, 3, 6)))
        ag.gradcheck(
            lambda x, w, b: ag.layer_norm(x, w, b, (-1,)) * upstream,
            self._inputs((2, 3, 6), (6,), rng),
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("x_shape,norm_shape", NORM_CASES)
    def test_forward_bitwise_equals_composition(self, dtype, x_shape, norm_shape, rng):
        inputs = self._inputs(x_shape, norm_shape, rng, dtype)
        axes = self._axes(x_shape, norm_shape)
        fused = ag.layer_norm(*inputs, axes).data
        composed = composed_layer_norm(*inputs, axes).data
        assert fused.dtype == composed.dtype
        assert np.array_equal(fused, composed)

    @pytest.mark.parametrize("x_shape,norm_shape", NORM_CASES)
    def test_gradients_match_composition(self, x_shape, norm_shape):
        axes = self._axes(x_shape, norm_shape)
        grads = []
        for fn in (ag.layer_norm, composed_layer_norm):
            local = np.random.default_rng(3)
            inputs = self._inputs(x_shape, norm_shape, local)
            fn(*inputs, axes).backward(local.standard_normal(x_shape))
            grads.append([t.grad for t in inputs])
        for fused, composed in zip(*grads):
            np.testing.assert_allclose(fused, composed, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("x_shape,norm_shape", NORM_CASES)
    def test_flops_drop_the_duplicated_mean_and_subtract(self, x_shape, norm_shape, rng):
        inputs = self._inputs(x_shape, norm_shape, rng)
        axes = self._axes(x_shape, norm_shape)
        with count_ops() as fused:
            ag.layer_norm(*inputs, axes)
        with count_ops() as composed:
            composed_layer_norm(*inputs, axes)
        elements = int(np.prod(x_shape))
        assert fused.flops == composed.flops - 2 * elements
        stats = elements // int(np.prod(norm_shape))
        assert fused.flops == 7 * elements + 4 * stats

    def test_rejects_leading_axes_and_mismatched_affine(self, rng):
        x, w, b = self._inputs((2, 3, 6), (6,), rng)
        with pytest.raises(ValueError, match="trailing"):
            ag.layer_norm(x, w, b, (0,))
        with pytest.raises(ValueError, match="trailing"):
            ag.layer_norm(x, make((3, 6), rng), b, (-1,))


class TestGradientOwnership:
    """Gradient functions return fresh arrays, never views of ``g``, so
    the backward pass may accumulate into them or donate them."""

    def _assert_fresh(self, out):
        g = np.ones(out.shape)
        for parent, grad_fn in out._parents:
            grad = grad_fn(g)
            assert grad.shape == parent.shape
            assert not np.shares_memory(grad, g)

    @pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 3, 4)])
    def test_linear(self, shape, rng):
        x = make(shape[:-1] + (5,), rng)
        self._assert_fresh(ag.linear(x, make((4, 5), rng), make((4,), rng)))

    @pytest.mark.parametrize("x_shape", [(4,), (3, 4), (2, 3, 4)])
    def test_layer_norm(self, x_shape, rng):
        self._assert_fresh(
            ag.layer_norm(make(x_shape, rng), make((4,), rng), make((4,), rng), (-1,))
        )

    def test_leaf_gradients_accumulate_across_backwards(self, rng):
        layer = nn.Linear(5, 4)
        norm = nn.LayerNorm(4)
        x = ag.Tensor(rng.standard_normal((3, 5)))
        norm(layer(x)).sum().backward()
        first = [p.grad.copy() for p in (layer.weight, layer.bias, norm.weight, norm.bias)]
        norm(layer(x)).sum().backward()
        for param, grad in zip((layer.weight, layer.bias, norm.weight, norm.bias), first):
            np.testing.assert_allclose(param.grad, 2 * grad, rtol=1e-12, atol=1e-12)


class TestModules:
    def test_linear_is_one_node(self, rng):
        layer = nn.Linear(5, 4)
        x = ag.Tensor(rng.standard_normal((2, 3, 5)))
        out = layer(x)
        assert out._op_name == "linear"
        assert [p for p, _ in out._parents] == [layer.weight, layer.bias]
        assert graph_nodes(lambda: layer(x)) == ["linear"]

    def test_linear_without_bias_is_one_node(self, rng):
        layer = nn.Linear(5, 4, bias=False)
        x = ag.Tensor(rng.standard_normal((3, 5)))
        assert [p for p, _ in layer(x)._parents] == [layer.weight]
        assert graph_nodes(lambda: layer(x)) == ["linear"]

    @pytest.mark.parametrize("normalized_shape", [4, (3, 4)])
    def test_layer_norm_is_one_node(self, normalized_shape, rng):
        norm = nn.LayerNorm(normalized_shape)
        x = ag.Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        out = norm(x)
        assert out._op_name == "layer_norm"
        assert [p for p, _ in out._parents] == [x, norm.weight, norm.bias]
        assert graph_nodes(lambda: norm(x)) == ["layer_norm"]

    def test_modules_match_compositions_bitwise(self, rng):
        layer, norm = nn.Linear(5, 4), nn.LayerNorm(4)
        x = ag.Tensor(rng.standard_normal((2, 3, 5)))
        hidden = composed_linear(x, layer.weight, layer.bias)
        assert np.array_equal(layer(x).data, hidden.data)
        expected = composed_layer_norm(hidden, norm.weight, norm.bias, (2,), norm.eps)
        assert np.array_equal(norm(layer(x)).data, expected.data)

    def test_one_plan_step_per_module_call(self, rng):
        from repro.engine import trace_function

        layer, norm = nn.Linear(5, 4), nn.LayerNorm(4)
        windows = rng.standard_normal((2, 3, 5))
        plan = trace_function(lambda x: norm(layer(x)), windows)
        assert plan.stats.num_ops == 2
        with ag.no_grad():
            expected = norm(layer(ag.Tensor(windows))).data
        assert np.array_equal(plan.replay(windows), expected)
