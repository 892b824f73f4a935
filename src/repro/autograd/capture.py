"""Graph capture: record one forward pass as a replayable op trace.

While a :class:`GraphCapture` is active on a thread (via
:func:`capture_graph`), every op built through ``Tensor._make`` is
recorded in construction order — which is already a topological order of
the data-flow graph — together with its parent tensors and the
non-Tensor arguments (``extras``) the op needs to run again.  The
recording is the input to :mod:`repro.engine`, which lowers it to a flat
:class:`~repro.engine.ExecutionPlan` with no Tensor wrappers and no grad
bookkeeping.

Capture also tracks every *leaf* Tensor born while it is active.  A leaf
created mid-forward from raw numpy data is the one thing a trace cannot
replay safely: its value may depend on the traced input (e.g. a hard
assignment matrix), and baking it into the plan would silently freeze
one input's data into every future replay.  Plan compilation therefore
rejects any traced leaf that was born during capture unless it was
explicitly blessed as input-independent (scalar operands are blessed
automatically; model code blesses buffers via :meth:`GraphCapture.constant`
or computes data-dependent values through :func:`replayable`).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

from repro.autograd.tensor import Tensor, _set_capture, active_capture

__all__ = [
    "CapturedNode",
    "GraphCapture",
    "capture_graph",
    "active_capture",
    "replayable",
]


class CapturedNode:
    """One recorded op: output tensor, parent tensors, and replay info.

    ``replay`` is None for ordinary ops (the plan compiler looks the
    kernel up by ``op_name``); :func:`replayable` nodes carry their own
    replay callable ``replay(srcs, out, scratch, extras) -> ndarray``.
    """

    __slots__ = ("index", "tensor", "parents", "op_name", "extras", "replay")

    def __init__(
        self,
        index: int,
        tensor: Tensor,
        parents: Sequence[Tensor],
        op_name: str,
        extras,
        replay: Callable | None = None,
    ):
        self.index = index
        self.tensor = tensor
        self.parents = list(parents)
        self.op_name = op_name
        self.extras = extras
        self.replay = replay

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CapturedNode({self.index}, {self.op_name}, "
            f"out={self.tensor.shape}, parents={len(self.parents)})"
        )


class GraphCapture:
    """Recording of one forward pass, keyed by tensor identity.

    All recorded tensors (op outputs, parents, leaf births) are held by
    strong reference for the lifetime of the capture so ``id()`` keys
    stay unique — a garbage-collected tensor could otherwise hand its
    address to an unrelated later tensor and corrupt the trace.
    """

    def __init__(self):
        self.nodes: dict[int, CapturedNode] = {}
        self.order: list[CapturedNode] = []
        # id -> Tensor for every Tensor born during capture (strong refs).
        self.births: dict[int, Tensor] = {}
        # ids of born leaves that are known input-independent.
        self.blessed: set[int] = set()
        # ids of the traced input tensors (dynamic leaves).
        self.input_ids: set[int] = set()

    # -- hooks called from repro.autograd.tensor ------------------------
    def record_op(
        self,
        out: Tensor,
        parents: Sequence[Tensor],
        op_name: str,
        extras,
        replay: Callable | None = None,
    ):
        node = CapturedNode(len(self.order), out, parents, op_name, extras, replay)
        self.nodes[id(out)] = node
        self.order.append(node)

    def record_birth(self, tensor: Tensor) -> None:
        self.births[id(tensor)] = tensor

    def bless(self, tensor: Tensor) -> None:
        """Mark a born leaf as input-independent (safe to bake into a plan)."""
        self.births[id(tensor)] = tensor
        self.blessed.add(id(tensor))

    # -- model-facing API ------------------------------------------------
    def mark_input(self, tensor: Tensor) -> None:
        """Declare ``tensor`` a traced input (replay substitutes its data)."""
        self.births[id(tensor)] = tensor
        self.input_ids.add(id(tensor))

    def constant(self, array: np.ndarray) -> Tensor:
        """Wrap a live parameter/buffer array as a blessed graph leaf."""
        out = Tensor._wrap(array)
        self.bless(out)
        return out


@contextlib.contextmanager
def capture_graph():
    """Record all ops built on this thread into a fresh GraphCapture."""
    capture = GraphCapture()
    _set_capture(capture)
    try:
        yield capture
    finally:
        _set_capture(None)


def replayable(
    name: str,
    fn: Callable[[list, dict], np.ndarray],
    parents: Sequence[Tensor],
) -> Tensor:
    """Compute a non-differentiable, input-dependent value of ``parents``.

    ``fn(parent_arrays, scratch)`` runs now on the parents' data with a
    fresh ``scratch`` dict; its result comes back as a Tensor without
    gradient.  Under an active capture the same ``fn`` is also recorded
    as the node's replay, so a plan recomputes the value from the
    replayed parents (with one ``scratch`` dict per arena, kept across
    replays) instead of baking in the traced input's value.
    """
    out = Tensor._wrap(fn([parent.data for parent in parents], {}))
    capture = active_capture()
    if capture is not None:
        capture.record_op(
            out, parents, name, None, lambda srcs, _out, scratch, _extras: fn(srcs, scratch)
        )
    return out
