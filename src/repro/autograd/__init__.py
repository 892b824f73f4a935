"""Reverse-mode automatic differentiation engine on numpy.

This subpackage is the deep-learning substrate of the FOCUS reproduction.
The original paper trains its models with PyTorch; PyTorch is not available
in this environment, so an equivalent (if smaller) engine is implemented
from scratch: a :class:`Tensor` that records the computation graph and a
topological-sort backward pass that accumulates gradients, with the same
broadcasting semantics as numpy.

Public surface:

- :class:`Tensor` and the creation helpers (:func:`tensor`, :func:`zeros`,
  :func:`ones`, :func:`randn`, :func:`arange`).
- Functional ops re-exported from the op modules (``matmul``, ``softmax``,
  ``relu``, ``concat`` ...); most are also available as ``Tensor`` methods.
- :func:`no_grad` context manager and :func:`is_grad_enabled`.
- Precision modes: :func:`set_default_dtype`, :func:`get_default_dtype`
  and the :func:`default_dtype` context manager (float32/float64 runs).
- :func:`legacy_accumulation` to benchmark against the historical
  allocate-per-accumulation backward pass.
- :func:`gradcheck` for verifying analytic gradients numerically.
"""

from repro.autograd.tensor import (
    Tensor,
    arange,
    as_tensor,
    default_dtype,
    get_default_dtype,
    is_grad_enabled,
    legacy_accumulation,
    no_grad,
    ones,
    ones_like,
    randn,
    set_default_dtype,
    tensor,
    zeros,
    zeros_like,
)
from repro.autograd.math_ops import (
    abs,  # noqa: A004 - intentional shadow, mirrors numpy's namespace
    clip,
    cos,
    erf,
    exp,
    gelu,
    leaky_relu,
    log,
    maximum,
    minimum,
    relu,
    sigmoid,
    silu,
    sin,
    softplus,
    sqrt,
    tanh,
    where,
)
from repro.autograd.reduce_ops import (
    logsumexp,
    log_softmax,
    max,  # noqa: A004
    mean,
    min,  # noqa: A004
    softmax,
    std,
    sum,  # noqa: A004
    var,
)
from repro.autograd.shape_ops import (
    broadcast_to,
    concat,
    expand_dims,
    flatten,
    gather,
    pad,
    repeat,
    reshape,
    split,
    squeeze,
    stack,
    swapaxes,
    transpose,
    unsqueeze,
)
from repro.autograd.linalg_ops import matmul, outer
from repro.autograd.grad_check import gradcheck
from repro.autograd.capture import GraphCapture, active_capture, capture_graph, replayable

__all__ = [
    "Tensor",
    "tensor",
    "as_tensor",
    "zeros",
    "zeros_like",
    "ones",
    "ones_like",
    "randn",
    "arange",
    "no_grad",
    "is_grad_enabled",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
    "legacy_accumulation",
    "gradcheck",
    "GraphCapture",
    "active_capture",
    "capture_graph",
    "replayable",
    # math
    "abs",
    "clip",
    "cos",
    "erf",
    "exp",
    "gelu",
    "leaky_relu",
    "log",
    "maximum",
    "minimum",
    "relu",
    "sigmoid",
    "silu",
    "sin",
    "softplus",
    "sqrt",
    "tanh",
    "where",
    # reductions
    "logsumexp",
    "log_softmax",
    "max",
    "mean",
    "min",
    "softmax",
    "std",
    "sum",
    "var",
    # shape
    "broadcast_to",
    "concat",
    "expand_dims",
    "flatten",
    "gather",
    "pad",
    "repeat",
    "reshape",
    "split",
    "squeeze",
    "stack",
    "swapaxes",
    "transpose",
    "unsqueeze",
    # linalg
    "matmul",
    "outer",
]
