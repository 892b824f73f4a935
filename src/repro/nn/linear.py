"""Fully-connected layer."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, linear
from repro.nn import init
from repro.nn.module import Module, Parameter


class Linear(Module):
    """Affine map ``y = x W^T + b`` applied to the last axis.

    Accepts inputs of any leading shape ``(..., in_features)``.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features)))
        if bias:
            bound = 1.0 / np.sqrt(in_features)
            self.bias = Parameter(init.uniform((out_features,), -bound, bound))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    def _extra_repr(self) -> str:
        return f"(in={self.in_features}, out={self.out_features})"
