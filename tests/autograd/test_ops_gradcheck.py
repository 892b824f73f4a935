"""Gradient checks for every differentiable op, against finite differences."""

import numpy as np
import pytest

from repro import autograd as ag


def make(shape, rng, *, positive=False, spread=False):
    data = rng.standard_normal(shape)
    if positive:
        data = np.abs(data) + 0.5
    if spread:
        # Avoid ties / kinks near non-differentiable points.
        data = data * 3.0 + np.arange(data.size).reshape(shape) * 0.01
    return ag.Tensor(data, requires_grad=True)


class TestMathOps:
    @pytest.mark.parametrize(
        "fn",
        [
            ag.exp,
            ag.tanh,
            ag.sigmoid,
            ag.sin,
            ag.cos,
            ag.erf,
            ag.gelu,
            ag.silu,
            ag.softplus,
            ag.leaky_relu,
        ],
        ids=lambda f: f.__name__,
    )
    def test_smooth_unary(self, fn, rng):
        ag.gradcheck(fn, [make((3, 4), rng)])

    def test_gelu_evaluates_the_pdf_only_for_a_gradient(self, rng, monkeypatch):
        from scipy import special

        x = make((3, 4), rng)
        exp_calls = []
        real_exp = np.exp
        monkeypatch.setattr(
            np, "exp", lambda *a, **k: exp_calls.append(1) or real_exp(*a, **k)
        )
        with ag.no_grad():
            out = ag.gelu(x)
        assert exp_calls == []
        expected = x.data * (0.5 * (1.0 + special.erf(x.data / np.sqrt(2.0))))
        assert np.array_equal(out.data, expected)
        ag.gelu(x).sum().backward()
        assert exp_calls == [1]

    def test_log_sqrt_positive_domain(self, rng):
        ag.gradcheck(ag.log, [make((3, 4), rng, positive=True)])
        ag.gradcheck(ag.sqrt, [make((3, 4), rng, positive=True)])

    def test_relu_away_from_kink(self, rng):
        x = make((3, 4), rng, spread=True)
        ag.gradcheck(ag.relu, [x])

    def test_abs_away_from_zero(self, rng):
        x = ag.Tensor(rng.standard_normal((3, 4)) + 5.0, requires_grad=True)
        ag.gradcheck(ag.abs, [x])

    def test_clip_gradient_masked(self):
        x = ag.tensor([-2.0, 0.0, 2.0], requires_grad=True)
        ag.clip(x, -1.0, 1.0).sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])

    def test_maximum_minimum(self, rng):
        a = make((3, 4), rng, spread=True)
        b = make((3, 4), rng, spread=True)
        ag.gradcheck(ag.maximum, [a, b])
        a.zero_grad(), b.zero_grad()
        ag.gradcheck(ag.minimum, [a, b])

    def test_maximum_tie_goes_to_first(self):
        a = ag.tensor([1.0], requires_grad=True)
        b = ag.tensor([1.0], requires_grad=True)
        ag.maximum(a, b).backward(np.array([1.0]))
        assert a.grad[0] == 1.0 and b.grad[0] == 0.0

    def test_where(self, rng):
        a = make((3, 4), rng)
        b = make((3, 4), rng)
        cond = rng.standard_normal((3, 4)) > 0
        ag.gradcheck(lambda x, y: ag.where(cond, x, y), [a, b])


class TestReduceOps:
    @pytest.mark.parametrize("axis", [None, 0, 1, (0, 2), -1])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_sum_mean(self, axis, keepdims, rng):
        x = make((2, 3, 4), rng)
        ag.gradcheck(lambda t: ag.sum(t, axis=axis, keepdims=keepdims), [x])
        x.zero_grad()
        ag.gradcheck(lambda t: ag.mean(t, axis=axis, keepdims=keepdims), [x])

    @pytest.mark.parametrize("axis", [None, 0, (1, 2)])
    def test_var_std(self, axis, rng):
        x = make((2, 3, 4), rng)
        ag.gradcheck(lambda t: ag.var(t, axis=axis), [x])
        x.zero_grad()
        ag.gradcheck(lambda t: ag.std(t, axis=axis, eps=1e-8), [x])

    def test_var_ddof(self, rng):
        x = make((5,), rng)
        out = ag.var(x, ddof=1)
        assert out.item() == pytest.approx(np.var(x.data, ddof=1))

    @pytest.mark.parametrize("axis", [None, 0, 1, -1])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_max_min(self, axis, keepdims, rng):
        x = make((3, 5), rng, spread=True)
        ag.gradcheck(lambda t: ag.max(t, axis=axis, keepdims=keepdims), [x])
        x.zero_grad()
        ag.gradcheck(lambda t: ag.min(t, axis=axis, keepdims=keepdims), [x])

    def test_max_tie_splits_gradient(self):
        x = ag.tensor([[2.0, 2.0, 1.0]], requires_grad=True)
        ag.max(x, axis=1).backward(np.array([1.0]))
        assert np.allclose(x.grad, [[0.5, 0.5, 0.0]])

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_softmax(self, axis, rng):
        x = make((3, 4, 5), rng)
        ag.gradcheck(lambda t: ag.softmax(t, axis=axis), [x])

    def test_softmax_rows_sum_to_one(self, rng):
        x = make((4, 7), rng)
        out = ag.softmax(x, axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_softmax_is_shift_invariant(self, rng):
        x = rng.standard_normal((3, 4))
        a = ag.softmax(ag.tensor(x)).data
        b = ag.softmax(ag.tensor(x + 1000.0)).data
        assert np.allclose(a, b)

    @pytest.mark.parametrize("axis", [0, -1])
    def test_log_softmax(self, axis, rng):
        x = make((3, 4), rng)
        ag.gradcheck(lambda t: ag.log_softmax(t, axis=axis), [x])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = ag.tensor(rng.standard_normal((3, 4)))
        assert np.allclose(
            ag.log_softmax(x).data, np.log(ag.softmax(x).data)
        )

    @pytest.mark.parametrize("keepdims", [False, True])
    def test_logsumexp(self, keepdims, rng):
        x = make((3, 4), rng)
        ag.gradcheck(lambda t: ag.logsumexp(t, axis=1, keepdims=keepdims), [x])

    def test_logsumexp_stability(self):
        x = ag.tensor([[1000.0, 1000.0]])
        out = ag.logsumexp(x, axis=1)
        assert np.isfinite(out.data).all()
        assert out.data[0] == pytest.approx(1000.0 + np.log(2.0))


class TestShapeOps:
    def test_reshape(self, rng):
        ag.gradcheck(lambda t: ag.reshape(t, (6, 2)), [make((3, 4), rng)])

    def test_reshape_method_variadic(self, rng):
        x = make((3, 4), rng)
        assert x.reshape(2, 6).shape == (2, 6)
        assert x.reshape((2, 6)).shape == (2, 6)

    def test_flatten(self, rng):
        ag.gradcheck(ag.flatten, [make((2, 3, 2), rng)])

    @pytest.mark.parametrize("axes", [None, (1, 0, 2), (2, 0, 1)])
    def test_transpose(self, axes, rng):
        ag.gradcheck(lambda t: ag.transpose(t, axes), [make((2, 3, 4), rng)])

    def test_swapaxes(self, rng):
        ag.gradcheck(lambda t: ag.swapaxes(t, 0, 2), [make((2, 3, 4), rng)])

    def test_squeeze_unsqueeze(self, rng):
        x = make((3, 1, 4), rng)
        ag.gradcheck(lambda t: ag.squeeze(t, axis=1), [x])
        x.zero_grad()
        ag.gradcheck(lambda t: ag.unsqueeze(t, 2), [x])

    def test_broadcast_to(self, rng):
        ag.gradcheck(lambda t: ag.broadcast_to(t, (5, 3, 4)), [make((3, 4), rng)])

    @pytest.mark.parametrize("axis", [0, 1])
    def test_repeat(self, axis, rng):
        ag.gradcheck(lambda t: ag.repeat(t, 3, axis=axis), [make((2, 3), rng)])

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_concat(self, axis, rng):
        a, b = make((2, 3), rng), make((2, 3), rng)
        ag.gradcheck(lambda x, y: ag.concat([x, y], axis=axis), [a, b])

    def test_concat_unequal_sizes(self, rng):
        a, b = make((2, 3), rng), make((5, 3), rng)
        out = ag.concat([a, b], axis=0)
        assert out.shape == (7, 3)
        out.sum().backward()
        assert a.grad.shape == (2, 3) and b.grad.shape == (5, 3)

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_stack(self, axis, rng):
        a, b = make((2, 3), rng), make((2, 3), rng)
        ag.gradcheck(lambda x, y: ag.stack([x, y], axis=axis), [a, b])

    def test_split_roundtrip(self, rng):
        x = make((4, 6), rng)
        parts = ag.split(x, 3, axis=1)
        assert [p.shape for p in parts] == [(4, 2)] * 3
        recombined = ag.concat(parts, axis=1)
        assert np.allclose(recombined.data, x.data)

    def test_split_gradients(self, rng):
        x = make((4, 6), rng)

        def fn(t):
            a, b, c = ag.split(t, 3, axis=1)
            return a + 2.0 * b + 3.0 * c

        ag.gradcheck(fn, [x])

    def test_pad(self, rng):
        ag.gradcheck(lambda t: ag.pad(t, ((1, 0), (2, 1))), [make((2, 3), rng)])

    def test_pad_rejects_non_constant(self, rng):
        with pytest.raises(ValueError, match="constant"):
            ag.pad(make((2, 2), rng), ((1, 1), (1, 1)), mode="edge")

    def test_gather_axis0(self, rng):
        x = make((5, 3), rng)
        idx = np.array([0, 4, 2, 2])
        ag.gradcheck(lambda t: ag.gather(t, idx, axis=0), [x])

    def test_gather_axis1(self, rng):
        x = make((3, 6), rng)
        idx = np.array([1, 1, 5])
        ag.gradcheck(lambda t: ag.gather(t, idx, axis=1), [x])


class TestLinalgOps:
    def test_matmul_2d(self, rng):
        ag.gradcheck(ag.matmul, [make((3, 4), rng), make((4, 5), rng)])

    def test_matmul_batched(self, rng):
        ag.gradcheck(ag.matmul, [make((2, 3, 4), rng), make((2, 4, 5), rng)])

    def test_matmul_broadcast_batch(self, rng):
        ag.gradcheck(ag.matmul, [make((2, 3, 4), rng), make((4, 5), rng)])

    def test_matmul_broadcast_batch_left(self, rng):
        ag.gradcheck(ag.matmul, [make((3, 4), rng), make((2, 4, 5), rng)])

    def test_matmul_4d_by_2d(self, rng):
        ag.gradcheck(ag.matmul, [make((2, 2, 3, 4), rng), make((4, 5), rng)])

    def test_matmul_2d_by_4d(self, rng):
        ag.gradcheck(ag.matmul, [make((3, 4), rng), make((2, 2, 4, 5), rng)])

    @pytest.mark.parametrize(
        "a_shape,b_shape",
        [((3, 4), (2, 4, 5)), ((2, 3, 4), (4, 5)), ((2, 2, 3, 4), (4, 5)),
         ((3, 4), (2, 2, 4, 5))],
    )
    def test_matmul_folded_batch_gradient_matches_batched_sum(self, a_shape, b_shape, rng):
        """The 2-D operand's one-GEMM gradient equals the batched GEMM
        reduced over the batch (the pre-folding formula) to rounding."""
        from repro.autograd.tensor import unbroadcast

        a, b = make(a_shape, rng), make(b_shape, rng)
        out = ag.matmul(a, b)
        g = rng.standard_normal(out.shape)
        out.backward(g)
        expected_a = unbroadcast(g @ np.swapaxes(b.data, -1, -2), a_shape)
        expected_b = unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b_shape)
        np.testing.assert_allclose(a.grad, expected_a, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(b.grad, expected_b, rtol=1e-12, atol=1e-12)

    def test_matmul_vector_vector(self, rng):
        ag.gradcheck(ag.matmul, [make((4,), rng), make((4,), rng)])

    def test_matmul_vector_matrix(self, rng):
        ag.gradcheck(ag.matmul, [make((4,), rng), make((4, 5), rng)])

    def test_matmul_matrix_vector(self, rng):
        ag.gradcheck(ag.matmul, [make((3, 4), rng), make((4,), rng)])

    def test_matmul_batched_matrix_vector(self, rng):
        ag.gradcheck(ag.matmul, [make((2, 3, 4), rng), make((4,), rng)])

    def test_outer(self, rng):
        ag.gradcheck(ag.outer, [make((3,), rng), make((4,), rng)])

    def test_outer_rejects_matrices(self, rng):
        with pytest.raises(ValueError, match="1-D"):
            ag.outer(make((2, 2), rng), make((2,), rng))


class TestGradcheckItself:
    def test_detects_wrong_gradient(self):
        from repro.autograd.tensor import Tensor

        def buggy(x):
            # exp value with a deliberately wrong (halved) backward rule
            out_data = np.exp(x.data)
            return Tensor._make(out_data, [(x, lambda g: 0.5 * g * out_data)], "bad")

        x = ag.tensor([0.3, -0.2], requires_grad=True)
        with pytest.raises(AssertionError, match="mismatch"):
            ag.gradcheck(buggy, [x])

    def test_requires_grad_enforced(self):
        with pytest.raises(ValueError, match="require grad"):
            ag.gradcheck(ag.exp, [ag.tensor([1.0])])
