"""Fused layer ops: ``linear`` and ``layer_norm`` as one graph node each.

``nn.Linear`` and ``nn.LayerNorm`` call these.  Built from primitive ops
they would cost three nodes (``transpose``, ``matmul``, ``add``) and
about twelve; each op here is one node with a closed-form backward.

**Forward bit-identity.**  Each forward runs the numpy ufuncs of the
primitive composition in the same order, so its float64 (and float32)
output is bit-identical to it; the only difference is that
``layer_norm`` keeps its mean and centred tensor instead of computing
them a second time for the variance.

**Gradient ownership.**  Every gradient function returns a fresh array,
never a view of the incoming gradient ``g``, so the backward pass may
accumulate into it in place or donate it to a leaf's ``.grad``.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.reduce_ops import _normalize_axis
from repro.autograd.tensor import Tensor, as_tensor


def _add_into(fresh: np.ndarray, other: np.ndarray) -> np.ndarray:
    """``fresh + other``, written into ``fresh`` (a temporary the op owns)
    when that cannot change the result dtype."""
    if other.dtype == fresh.dtype:
        return np.add(fresh, other, out=fresh)
    return fresh + other


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` over the last axis.

    ``x`` is ``(..., in)``, ``weight`` ``(out, in)`` and ``bias`` ``(out,)``
    or None.  Forward: ``x @ weight.T``, then ``+ bias``.  Backward:
    ``g @ weight`` for ``x``, one 2-D GEMM over the flattened leading
    axes for ``weight`` and a row sum for ``bias``.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    out_features, in_features = weight.shape
    out_data = x.data @ weight.data.T

    def grad_weight(g: np.ndarray) -> np.ndarray:
        return g.reshape(-1, out_features).T @ x.data.reshape(-1, in_features)

    parents = [(x, lambda g: g @ weight.data), (weight, grad_weight)]
    if bias is not None:
        bias = as_tensor(bias)
        out_data = _add_into(out_data, bias.data)
        parents.append((bias, lambda g: g.reshape(-1, out_features).sum(axis=0)))
    return Tensor._make(out_data, parents, "linear")


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, axes, eps: float = 1e-5) -> Tensor:
    """Normalize ``x`` over its trailing ``axes``, then scale and shift.

    ``weight`` and ``bias`` have the shape of the normalized axes.
    Forward: the mean, the centred tensor ``c``, ``sum(c * c) * (1/count)``,
    ``+ eps``, ``sqrt``, the divide, then ``* weight + bias``.  The input
    gradient is the closed form ``(dn - mean(dn) - n * mean(dn * n)) / std``
    with ``dn = g * weight`` and ``n`` the normalized tensor.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    axes = _normalize_axis(axes, x.ndim)
    trailing = x.shape[x.ndim - len(axes):]
    if axes != tuple(range(x.ndim - len(axes), x.ndim)) or not (
        weight.shape == bias.shape == trailing
    ):
        raise ValueError(
            f"layer_norm normalizes trailing axes with a weight and bias of "
            f"their shape; got axes {axes} of {x.shape}, weight "
            f"{weight.shape}, bias {bias.shape}"
        )
    count = max(int(np.prod(trailing)), 1)
    mu = x.data.mean(axis=axes, keepdims=True)
    normalized = x.data - mu
    variance = (normalized * normalized).sum(axis=axes, keepdims=True) * (1.0 / count)
    std = np.sqrt(variance + eps)
    np.true_divide(normalized, std, out=normalized)
    out_data = _add_into(normalized * weight.data, bias.data)

    def grad_x(g: np.ndarray) -> np.ndarray:
        dn = g * weight.data
        projection = (dn * normalized).mean(axis=axes, keepdims=True)
        np.subtract(dn, dn.mean(axis=axes, keepdims=True), out=dn)
        dn -= normalized * projection
        dn /= std
        return dn

    return Tensor._make(
        out_data,
        [
            (x, grad_x),
            (weight, lambda g: (g * normalized).reshape(-1, *trailing).sum(axis=0)),
            (bias, lambda g: g.reshape(-1, *trailing).sum(axis=0)),
        ],
        "layer_norm",
        extras=(axes, eps),
    )
