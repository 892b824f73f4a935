"""Normalization layers: LayerNorm, BatchNorm1d, and RevIN.

RevIN (reversible instance normalization, Kim et al. 2021) is the
per-window normalization used throughout modern long-horizon forecasters
(PatchTST, DLinear variants, FOCUS) to counter distribution shift: each
lookback window is standardized on entry and the statistics are restored
on the forecast before computing the loss.
"""

from __future__ import annotations

from repro.autograd import Tensor, layer_norm, mean, sqrt, var
from repro.nn import init
from repro.nn.module import Module, Parameter


class LayerNorm(Module):
    """Normalize over the trailing ``normalized_shape`` axes with affine."""

    def __init__(self, normalized_shape: int | tuple[int, ...], eps: float = 1e-5):
        super().__init__()
        if isinstance(normalized_shape, int):
            normalized_shape = (normalized_shape,)
        self.normalized_shape = tuple(normalized_shape)
        self.eps = eps
        self.weight = Parameter(init.ones(self.normalized_shape))
        self.bias = Parameter(init.zeros(self.normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        axes = tuple(range(x.ndim - len(self.normalized_shape), x.ndim))
        return layer_norm(x, self.weight, self.bias, axes, self.eps)

    def _extra_repr(self) -> str:
        return f"({self.normalized_shape})"


class BatchNorm1d(Module):
    """Batch normalization over axis 0 (and axis 2 when 3-D input).

    Input is ``(B, C)`` or ``(B, C, L)``; running statistics are tracked
    for eval mode like torch's implementation.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones(num_features))
        self.bias = Parameter(init.zeros(num_features))
        self.register_buffer("running_mean", init.zeros(num_features))
        self.register_buffer("running_var", init.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim not in (2, 3):
            raise ValueError("BatchNorm1d expects (B, C) or (B, C, L) input")
        axes = (0,) if x.ndim == 2 else (0, 2)
        shape = (1, self.num_features) if x.ndim == 2 else (1, self.num_features, 1)
        if self.training:
            mu = mean(x, axis=axes, keepdims=True)
            sigma2 = var(x, axis=axes, keepdims=True)
            # Update running stats outside the graph.
            count = x.size // self.num_features
            unbiased = sigma2.data * count / max(count - 1, 1)
            self.running_mean *= 1.0 - self.momentum
            self.running_mean += self.momentum * mu.data.reshape(-1)
            self.running_var *= 1.0 - self.momentum
            self.running_var += self.momentum * unbiased.reshape(-1)
        else:
            mu = Tensor(self.running_mean.reshape(shape))
            sigma2 = Tensor(self.running_var.reshape(shape))
        normalized = (x - mu) / sqrt(sigma2 + self.eps)
        weight = self.weight.reshape(shape)
        bias = self.bias.reshape(shape)
        return normalized * weight + bias

    def _extra_repr(self) -> str:
        return f"({self.num_features})"


class RevIN(Module):
    """Reversible instance normalization for forecasting windows.

    ``normalize`` standardizes each series of a window ``(B, L, N)`` over
    its time axis and remembers the statistics; ``denormalize`` restores
    them on the model output ``(B, L_f, N)``.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, affine: bool = True):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.affine = affine
        if affine:
            self.weight = Parameter(init.ones(num_features))
            self.bias = Parameter(init.zeros(num_features))
        self._last_mean: Tensor | None = None
        self._last_std: Tensor | None = None

    def normalize(self, x: Tensor) -> Tensor:
        if x.ndim != 3:
            raise ValueError("RevIN expects (B, L, N) input")
        mu = mean(x, axis=1, keepdims=True)
        sigma = sqrt(var(x, axis=1, keepdims=True) + self.eps)
        self._last_mean, self._last_std = mu, sigma
        out = (x - mu) / sigma
        if self.affine:
            out = out * self.weight + self.bias
        return out

    def denormalize(self, y: Tensor) -> Tensor:
        if self._last_mean is None or self._last_std is None:
            raise RuntimeError("denormalize() called before normalize()")
        if self.affine:
            # eps**2 guards an exactly-zero learned weight without visibly
            # perturbing the reconstruction (reference RevIN does the same).
            y = (y - self.bias) / (self.weight + self.eps**2)
        return y * self._last_std + self._last_mean

    def forward(self, x: Tensor, mode: str = "norm") -> Tensor:
        if mode == "norm":
            return self.normalize(x)
        if mode == "denorm":
            return self.denormalize(x)
        raise ValueError(f"unknown RevIN mode {mode!r}")

    def _extra_repr(self) -> str:
        return f"({self.num_features})"
