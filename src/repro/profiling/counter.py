"""Op-level FLOPs and activation-memory counting.

:class:`OpCounter` installs itself as the autograd op observer; every
tensor operation reports its name, output shape, and parent shapes, from
which FLOPs are derived:

- ``matmul``: ``2 * prod(out) * inner_dim`` (multiply-accumulate pairs);
- ``linear``: the same GEMM count, plus one add per output with a bias;
- ``layer_norm``: one FLOP per element for each full-tensor pass it makes
  (mean, centre, square, sum, divide, scale, shift) and four per
  normalized statistic (``1/count``, ``+eps``, ``sqrt``);
- ``conv1d``: ``2 * prod(out) * C_in * K``;
- ``softmax`` and friends: a small constant times the element count;
- elementwise ops: one FLOP per output element.

"Activation memory" sums the bytes of every op output produced during
the observed region.  Because this engine retains all activations for
the backward pass, that sum is the faithful analog of the paper's
inference peak-memory metric (intermediate-result storage).  Assignment
search inside ProtoAttn and other pure-numpy computations report
themselves through :meth:`OpCounter.add_flops`; the replayable routing
node (``protoattn_route``) is therefore charged 0 FLOPs.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import defaultdict

import numpy as np

from repro.autograd.tensor import get_op_observer, set_op_observer
from repro.autograd import Tensor, no_grad

_BYTES_PER_ELEMENT = 8  # fallback when an op reports no dtype (float64)

# Elementwise cost multipliers for transcendental-ish ops; everything not
# listed costs 1 FLOP per output element.
_ELEMENTWISE_COST = {
    "exp": 4,
    "log": 4,
    "sqrt": 2,
    "tanh": 6,
    "sigmoid": 5,
    "gelu": 8,
    "silu": 6,
    "erf": 8,
    "softplus": 6,
    "softmax": 5,
    "log_softmax": 6,
    "logsumexp": 6,
}

# Pure data-movement ops: zero FLOPs (memory is still counted).
_FREE_OPS = {
    "reshape",
    "transpose",
    "swapaxes",
    "squeeze",
    "unsqueeze",
    "broadcast_to",
    "getitem",
    "split",
    "pad",
    "gather",
    "stack",
    "concat",
    "repeat",
    "leaf",
}

# ProtoAttn charges its routing node's work through OpCounter.add_flops.
_SELF_CHARGED_OPS = {"protoattn_route"}


def _op_flops(op_name: str, out_shape: tuple, parent_shapes: list[tuple]) -> int:
    out_elems = int(np.prod(out_shape)) if out_shape else 1
    if op_name == "matmul":
        if len(parent_shapes) >= 1 and parent_shapes[0]:
            inner = parent_shapes[0][-1]
        else:
            inner = 1
        return 2 * out_elems * int(inner)
    if op_name == "linear":
        # parents: x (..., in), weight (out, in)[, bias (out,)]
        bias_adds = out_elems if len(parent_shapes) == 3 else 0
        return 2 * out_elems * int(parent_shapes[1][1]) + bias_adds
    if op_name == "layer_norm":
        # parents: x, weight, bias; weight has the normalized trailing shape
        stats = out_elems // max(int(np.prod(parent_shapes[1])), 1)
        return 7 * out_elems + 4 * stats
    if op_name == "conv1d":
        # parents: x (B, C_in, L), weight (O, C_in, K)[, bias]
        if len(parent_shapes) >= 2 and len(parent_shapes[1]) == 3:
            _, c_in, kernel = parent_shapes[1]
            return 2 * out_elems * int(c_in) * int(kernel)
        return 2 * out_elems
    if op_name == "outer":
        return out_elems
    if op_name in _FREE_OPS or op_name in _SELF_CHARGED_OPS:
        return 0
    if op_name in ("sum", "mean", "max", "min", "var"):
        parent_elems = (
            int(np.prod(parent_shapes[0])) if parent_shapes and parent_shapes[0] else out_elems
        )
        return parent_elems
    return _ELEMENTWISE_COST.get(op_name, 1) * out_elems


@dataclasses.dataclass
class ProfileReport:
    """Efficiency accounting result for one forward pass."""

    flops: int
    activation_bytes: int
    parameter_count: int
    per_op_flops: dict[str, int]

    @property
    def mflops(self) -> float:
        return self.flops / 1e6

    @property
    def activation_mb(self) -> float:
        return self.activation_bytes / 2**20

    @property
    def parameter_k(self) -> float:
        return self.parameter_count / 1e3

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FLOPs {self.mflops:.2f}M | activation {self.activation_mb:.2f}MB | "
            f"params {self.parameter_k:.1f}K"
        )


class OpCounter:
    """Collects FLOPs and activation bytes while installed as observer."""

    def __init__(self):
        self.flops = 0
        self.activation_bytes = 0
        self.per_op_flops: defaultdict[str, int] = defaultdict(int)

    def __call__(
        self, op_name: str, out_shape: tuple, parent_shapes: list[tuple], dtype=None
    ) -> None:
        flops = _op_flops(op_name, out_shape, parent_shapes)
        self.flops += flops
        self.per_op_flops[op_name] += flops
        out_elems = int(np.prod(out_shape)) if out_shape else 1
        itemsize = np.dtype(dtype).itemsize if dtype is not None else _BYTES_PER_ELEMENT
        self.activation_bytes += out_elems * itemsize

    def add_flops(self, amount: int, label: str = "external") -> None:
        """Record FLOPs done outside the autograd graph (numpy code)."""
        self.flops += int(amount)
        self.per_op_flops[label] += int(amount)


@contextlib.contextmanager
def count_ops():
    """Context manager yielding an active :class:`OpCounter`."""
    counter = OpCounter()
    previous = get_op_observer()
    set_op_observer(counter)
    try:
        yield counter
    finally:
        set_op_observer(previous)


def active_counter() -> OpCounter | None:
    """The currently-installed counter, if any (for numpy-side reporting)."""
    observer = get_op_observer()
    return observer if isinstance(observer, OpCounter) else None


def profile_model(model, input_shape: tuple[int, ...], seed: int = 0) -> ProfileReport:
    """Run one no-grad forward pass on random input and account for it.

    ``input_shape`` is the full input shape including the batch axis,
    e.g. ``(1, L, N)`` for forecasters.
    """
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(input_shape))
    model.eval()
    with no_grad():
        with count_ops() as counter:
            model(x)
    return ProfileReport(
        flops=counter.flops,
        activation_bytes=counter.activation_bytes,
        parameter_count=model.num_parameters(),
        per_op_flops=dict(counter.per_op_flops),
    )
