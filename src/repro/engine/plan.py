"""Lower a captured forward graph to a replayable execution plan.

The eager engine pays Python dispatch per op per call: ``Tensor``
wrapping, operand coercion, observer checks, and grad-closure
construction, even under ``no_grad``.  An :class:`ExecutionPlan` strips
all of it away once: a captured forward (see
:mod:`repro.autograd.capture`) is lowered to a flat, topologically
ordered list of ``(kernel, source slots, output slot)`` steps that
replay as plain numpy calls into a preallocated per-thread arena.

The lowering makes three guarantees:

**Bitwise equivalence.**  Every kernel executes the *same* numpy ufuncs
in the *same* order as the eager op it replaces — ``out=`` destinations
and in-place elementwise chaining never change the floating-point
arithmetic, so a float64 replay is bit-identical to the eager forward
(``tests/plan`` pins this, and every compile self-checks against the
traced output before the plan is returned).

**Constant folding with live views.**  Any node whose ancestors are all
input-independent leaves is folded to the value captured at trace time;
pure view nodes over parameters (e.g. ``weight.T``) keep referencing the
live arrays.  Folding is what eliminates the per-call prototype-query
projection and its cache-validation scans.  Mutating parameters in
place without retracing is **not** supported while a plan is cached —
:class:`~repro.core.model.FOCUSForecaster` invalidates its plans on
every sanctioned mutation (``set_prototypes``, ``update_prototype``,
``to_dtype``).

**Arena reuse.**  Output buffers are assigned by liveness (linear-scan
over the flat op list, views extending their root storage's lifetime),
and elementwise ops whose source storage dies at that step write in
place — fusing elementwise chains into a single buffer.  Arenas are
per-thread (``threading.local``), so one shared plan replays
concurrently from many serving threads without torn buffers.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Callable, Sequence

import numpy as np
from scipy import special as _special

from repro.autograd.capture import CapturedNode, GraphCapture
from repro.autograd.tensor import Tensor

_SQRT_2 = float(np.sqrt(2.0))

__all__ = [
    "ExecutionPlan",
    "PlanError",
    "PlanUnsupportedError",
    "PlanStats",
    "compile_plan",
    "trace_function",
]


class PlanError(RuntimeError):
    """A plan could not be compiled or replayed."""


class PlanUnsupportedError(PlanError):
    """The captured graph contains something the plan engine cannot replay."""


# ----------------------------------------------------------------------
# Kernel registry
#
# Kinds:
#   "ew"    elementwise; honors ``out=`` and may alias a dying source
#           buffer (in-place chain fusion) without changing results.
#   "out"   honors ``out=`` but must not alias any source (matmul,
#           reductions, concat).
#   "view"  returns a (possibly lazy-copied) view of its source; no
#           buffer is allocated and the source storage stays live.
#   "fresh" allocates its own result; no buffer is assigned.
#
# Every kernel reproduces the eager op's exact arithmetic: same ufuncs,
# same operand order.  When numpy's operator fast paths could differ
# from an explicit ufunc call (ndarray.__pow__, fancy indexing), the
# kernel evaluates the eager expression verbatim instead of using out=.
# ----------------------------------------------------------------------
_KERNELS: dict[str, tuple[Callable, str]] = {}


def _register(name: str, kind: str):
    def deco(fn):
        _KERNELS[name] = (fn, kind)
        return fn

    return deco


def _unary(name: str, ufunc, kind: str = "ew"):
    def kernel(srcs, out, scratch, extras):
        return ufunc(srcs[0], out=out)

    _KERNELS[name] = (kernel, kind)


def _binary(name: str, ufunc, kind: str = "ew"):
    def kernel(srcs, out, scratch, extras):
        return ufunc(srcs[0], srcs[1], out=out)

    _KERNELS[name] = (kernel, kind)


_binary("add", np.add)
_binary("sub", np.subtract)
_binary("mul", np.multiply)
_binary("div", np.true_divide)
_binary("maximum", np.maximum)
_binary("minimum", np.minimum)
_unary("neg", np.negative)
_unary("exp", np.exp)
_unary("log", np.log)
_unary("sqrt", np.sqrt)
_unary("abs", np.absolute)
_unary("sin", np.sin)
_unary("cos", np.cos)
_unary("tanh", np.tanh)
_unary("sigmoid", _special.expit)
_unary("erf", _special.erf)


@_register("softplus", "ew")
def _k_softplus(srcs, out, scratch, extras):
    return np.logaddexp(0.0, srcs[0], out=out)


def _scratch_like(scratch: dict, key: str, ref: np.ndarray) -> np.ndarray:
    buf = scratch.get(key)
    if buf is None or buf.shape != ref.shape or buf.dtype != ref.dtype:
        buf = scratch[key] = np.empty_like(ref)
    return buf


@_register("gelu", "ew")
def _k_gelu(srcs, out, scratch, extras):
    # Eager: cdf = 0.5 * (1.0 + erf(x / sqrt(2))); out = x * cdf
    x = srcs[0]
    t = _scratch_like(scratch, "t", x)
    np.true_divide(x, _SQRT_2, out=t)
    _special.erf(t, out=t)
    np.add(1.0, t, out=t)
    np.multiply(0.5, t, out=t)
    return np.multiply(x, t, out=out)


@_register("silu", "ew")
def _k_silu(srcs, out, scratch, extras):
    x = srcs[0]
    t = _scratch_like(scratch, "t", x)
    _special.expit(x, out=t)
    return np.multiply(x, t, out=out)


@_register("softmax", "ew")
def _k_softmax(srcs, out, scratch, extras):
    # Eager: shifted = x - max; exped = exp(shifted); exped / sum(exped).
    # Safe in place: once x is consumed by the subtract, only ``out`` is
    # read, so ``out`` may alias a dying x.
    # ndarray.max/.sum delegate to maximum.reduce/add.reduce
    # (numpy/core/_methods.py umr_maximum/umr_sum): same arithmetic,
    # less dispatch.
    x = srcs[0]
    peak = np.maximum.reduce(x, axis=extras, keepdims=True)
    np.subtract(x, peak, out=out)
    np.exp(out, out=out)
    total = np.add.reduce(out, axis=extras, keepdims=True)
    np.true_divide(out, total, out=out)
    return out


@_register("relu", "fresh")
def _k_relu(srcs, out, scratch, extras):
    x = srcs[0]
    return np.where(x > 0, x, 0.0)


@_register("leaky_relu", "fresh")
def _k_leaky_relu(srcs, out, scratch, extras):
    x = srcs[0]
    slope = np.where(x > 0, 1.0, extras)
    return x * slope


@_register("pow_const", "fresh")
def _k_pow_const(srcs, out, scratch, extras):
    return srcs[0] ** extras


@_register("pow", "fresh")
def _k_pow(srcs, out, scratch, extras):
    return srcs[0] ** srcs[1]


@_register("clip", "fresh")
def _k_clip(srcs, out, scratch, extras):
    return np.clip(srcs[0], extras[0], extras[1])


@_register("matmul", "out")
def _k_matmul(srcs, out, scratch, extras):
    return np.matmul(srcs[0], srcs[1], out=out)


@_register("outer", "fresh")
def _k_outer(srcs, out, scratch, extras):
    return np.outer(srcs[0], srcs[1])


@_register("sum", "out")
def _k_sum(srcs, out, scratch, extras):
    # np.sum delegates straight to add.reduce (numpy/core/_methods.py
    # umr_sum); calling the ufunc method skips the dispatch wrapper.
    return np.add.reduce(srcs[0], axis=extras[0], keepdims=extras[1], out=out)


@_register("mean", "out")
def _k_mean(srcs, out, scratch, extras):
    # np.mean is exactly add.reduce followed by an in-place true_divide
    # by the reduced element count (numpy/core/_methods.py _mean), so
    # this is bitwise identical — except float16, where np.mean upcasts
    # internally and therefore keeps the library path.
    x = srcs[0]
    if x.dtype == np.float16:
        return np.mean(x, axis=extras[0], keepdims=extras[1], out=out)
    count = scratch.get("count")
    if count is None:
        axes = extras[0]
        if axes is None:
            count = x.size
        else:
            count = 1
            for axis in axes if isinstance(axes, tuple) else (axes,):
                count *= x.shape[axis]
        scratch["count"] = count
    np.add.reduce(x, axis=extras[0], keepdims=extras[1], out=out)
    return np.true_divide(out, count, out=out)


@_register("max", "fresh")
def _k_max(srcs, out, scratch, extras):
    return np.max(srcs[0], axis=extras[0], keepdims=extras[1])


@_register("min", "fresh")
def _k_min(srcs, out, scratch, extras):
    return np.min(srcs[0], axis=extras[0], keepdims=extras[1])


@_register("log_softmax", "fresh")
def _k_log_softmax(srcs, out, scratch, extras):
    x = srcs[0]
    shifted = x - x.max(axis=extras, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=extras, keepdims=True))
    return shifted - lse


@_register("logsumexp", "fresh")
def _k_logsumexp(srcs, out, scratch, extras):
    x = srcs[0]
    axis, keepdims = extras
    peak = x.max(axis=axis, keepdims=True)
    out_keep = peak + np.log(np.exp(x - peak).sum(axis=axis, keepdims=True))
    return out_keep if keepdims else np.squeeze(out_keep, axis=axis)


@_register("broadcast_to", "out")
def _k_broadcast_to(srcs, out, scratch, extras):
    np.copyto(out, srcs[0])
    return out


@_register("repeat", "fresh")
def _k_repeat(srcs, out, scratch, extras):
    return np.repeat(srcs[0], extras[0], axis=extras[1])


@_register("concat", "out")
def _k_concat(srcs, out, scratch, extras):
    return np.concatenate(srcs, axis=extras, out=out)


@_register("stack", "out")
def _k_stack(srcs, out, scratch, extras):
    return np.stack(srcs, axis=extras, out=out)


@_register("gather", "fresh")
def _k_gather(srcs, out, scratch, extras):
    return np.take(srcs[0], extras[0], axis=extras[1])


@_register("getitem", "fresh")
def _k_getitem(srcs, out, scratch, extras):
    result = srcs[0][extras]
    if not isinstance(result, np.ndarray):
        return np.asarray(result)
    # Basic slicing yields a view into a reusable arena buffer; detach it.
    return result.copy() if result.base is not None else result


# Pure view kernels: ``extras`` is rewritten at compile time to the
# recorded output shape where the original op argument is not enough.
@_register("reshape", "view")
def _k_reshape(srcs, out, scratch, extras):
    return srcs[0].reshape(extras)


_KERNELS["squeeze"] = (_k_reshape, "view")
_KERNELS["unsqueeze"] = (_k_reshape, "view")


@_register("transpose", "view")
def _k_transpose(srcs, out, scratch, extras):
    return srcs[0].transpose(extras)


@_register("swapaxes", "view")
def _k_swapaxes(srcs, out, scratch, extras):
    return srcs[0].swapaxes(extras[0], extras[1])


_RESHAPE_LIKE = ("reshape", "squeeze", "unsqueeze")


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class PlanStats:
    """Compile-time facts about a plan (for benches and tests)."""

    num_captured: int  # ops recorded during the trace
    num_ops: int  # dynamic steps that replay per call
    num_folded: int  # captured ops folded to constants
    num_buffers: int  # arena buffers allocated per thread
    arena_bytes: int  # bytes per per-thread arena


class ExecutionPlan:
    """A compiled forward: flat kernel steps over a per-thread arena.

    ``replay`` returns an array owned by the calling thread's arena; it
    is only valid until that thread's next ``replay`` call.  Callers
    that keep the result (e.g. ``forecast_batch``) copy it out —
    ``astype`` with ``copy=True`` semantics suffices.
    """

    def __init__(
        self,
        ops: list[tuple],
        template_values: list,
        buffer_specs: list[tuple[tuple[int, ...], np.dtype]],
        input_slots: list[int],
        input_specs: list[tuple[tuple[int, ...], np.dtype]],
        output_slot: int,
        stats: PlanStats,
    ):
        self._ops = ops
        self._template = template_values
        self._buffer_specs = buffer_specs
        self._input_slots = input_slots
        self._input_specs = input_specs
        self._output_slot = output_slot
        self.stats = stats
        self._tls = threading.local()

    # -- replay ---------------------------------------------------------
    def _new_arena(self):
        """Per-thread state: value slots plus fully-resolved step tuples.

        Buffers and scratch dicts are bound into the step tuples once,
        so the replay loop does no per-step buffer indexing.  View steps
        whose source is *stable* — the same ndarray object on every
        replay (an arena buffer or a baked constant; ``ew``/``out``
        kernels always return their ``out`` buffer) — are executed once
        here and dropped from the replay loop entirely: a view of a
        fixed array is itself a fixed array, only its contents change.
        A reshape that silently copies is detected (``shares_memory``)
        and kept as a live step so stale contents are never frozen.
        """
        values = list(self._template)
        buffers = [np.empty(shape, dtype) for shape, dtype in self._buffer_specs]
        input_slots = set(self._input_slots)
        stable = {
            slot: value
            for slot, value in enumerate(values)
            if value is not None and slot not in input_slots
        }
        steps = []
        for kernel, srcs, out_slot, buf, extras, kind in self._ops:
            if kind == "view" and len(srcs) == 1 and srcs[0] in stable:
                source = stable[srcs[0]]
                view = kernel((source,), None, {}, extras)
                if np.shares_memory(view, source):
                    values[out_slot] = view
                    stable[out_slot] = view
                    continue
            out_buf = None if buf is None else buffers[buf]
            steps.append((kernel, srcs, out_slot, out_buf, {}, extras))
            if out_buf is not None:
                stable[out_slot] = out_buf
        return (values, tuple(steps))

    def replay(self, *arrays: np.ndarray) -> np.ndarray:
        """Execute the plan on ``arrays`` (one per traced input)."""
        if len(arrays) != len(self._input_slots):
            raise PlanError(
                f"plan expects {len(self._input_slots)} inputs, got {len(arrays)}"
            )
        for array, (shape, dtype) in zip(arrays, self._input_specs):
            if array.shape != shape or array.dtype != dtype:
                raise PlanError(
                    f"plan was traced for input {shape}/{dtype}, "
                    f"got {array.shape}/{array.dtype}; retrace for new signatures"
                )
        arena = getattr(self._tls, "arena", None)
        if arena is None:
            arena = self._tls.arena = self._new_arena()
        values, steps = arena
        for slot, array in zip(self._input_slots, arrays):
            values[slot] = array
        for kernel, srcs, out_slot, out_buf, scratch, extras in steps:
            values[out_slot] = kernel(
                [values[j] for j in srcs], out_buf, scratch, extras
            )
        return values[self._output_slot]


def _node_kind(node: CapturedNode) -> tuple[Callable, str]:
    if node.replay is not None:
        return node.replay, "fresh"
    entry = _KERNELS.get(node.op_name)
    if entry is None:
        raise PlanUnsupportedError(
            f"op {node.op_name!r} has no replay kernel; the plan engine "
            f"cannot lower this forward"
        )
    return entry


def compile_plan(
    capture: GraphCapture,
    inputs: Sequence[Tensor],
    output: Tensor,
    self_check: bool = True,
) -> ExecutionPlan:
    """Lower a capture to an :class:`ExecutionPlan` for ``output``.

    ``inputs`` are the traced input tensors (previously passed to
    :meth:`GraphCapture.mark_input`); replay substitutes fresh arrays of
    the same shape and dtype for them.  With ``self_check`` (default)
    the freshly compiled plan is replayed once on the traced input and
    must reproduce the captured output bit-for-bit.
    """
    for tensor in inputs:
        if id(tensor) not in capture.input_ids:
            raise PlanError("inputs must be marked via GraphCapture.mark_input")
    nodes = capture.nodes

    # Reachable subgraph of the output.
    needed: set[int] = set()
    stack: list[Tensor] = [output]
    while stack:
        tensor = stack.pop()
        if id(tensor) in needed:
            continue
        needed.add(id(tensor))
        node = nodes.get(id(tensor))
        if node is not None:
            stack.extend(node.parents)
    ordered = [n for n in capture.order if id(n.tensor) in needed]

    # Reject data-dependent leaves: a Tensor born mid-capture from raw
    # numpy data (not blessed, not the input) may encode the traced
    # input's values, which a replay would silently freeze.
    for node in ordered:
        for parent in node.parents:
            pid = id(parent)
            if pid in nodes or pid in capture.input_ids:
                continue
            if pid in capture.births and pid not in capture.blessed:
                raise PlanUnsupportedError(
                    f"op {node.op_name!r} consumes a leaf Tensor of shape "
                    f"{parent.shape} created during capture; its value may "
                    f"depend on the traced input and cannot be baked into a "
                    f"plan (compute it with repro.autograd.replayable or bless it)"
                )

    # Dynamic = transitively reachable from an input (replayable nodes
    # are always dynamic: their replay functions read live model state).
    dynamic: set[int] = {tid for tid in capture.input_ids if tid in needed}
    if not dynamic:
        raise PlanError("traced output does not depend on any traced input")
    for node in ordered:
        if node.replay is not None or any(id(p) in dynamic for p in node.parents):
            dynamic.add(id(node.tensor))
    if id(output) not in dynamic:
        raise PlanError("traced output does not depend on any traced input")

    # Value slots: constants (leaves and folded static nodes) are baked
    # into the template; dynamic nodes and inputs get empty slots.
    template: list = []
    slot_of: dict[int, int] = {}

    def add_slot(value) -> int:
        template.append(value)
        return len(template) - 1

    num_folded = 0
    dyn_nodes: list[CapturedNode] = []
    for node in ordered:
        for parent in node.parents:
            pid = id(parent)
            if pid not in slot_of and pid not in nodes:
                # Leaf: live parameter/buffer/scalar (by reference), or a
                # dynamic input (placeholder filled per replay).
                slot_of[pid] = add_slot(None if pid in dynamic else parent.data)
        tid = id(node.tensor)
        if tid in dynamic:
            slot_of[tid] = add_slot(None)
            dyn_nodes.append(node)
        else:
            slot_of[tid] = add_slot(node.tensor.data)
            num_folded += 1
    for tensor in inputs:
        if id(tensor) not in slot_of:
            slot_of[id(tensor)] = add_slot(None)

    # Storage roots: a view shares (and extends the life of) its source's
    # buffer; everything else roots itself.
    kinds = {id(n.tensor): _node_kind(n) for n in dyn_nodes}
    root: dict[int, int] = {id(t): id(t) for t in inputs}
    for node in dyn_nodes:
        tid = id(node.tensor)
        _, kind = kinds[tid]
        pid = id(node.parents[0]) if node.parents else None
        if kind == "view" and pid in root:
            root[tid] = root[pid]
        else:
            root[tid] = tid

    # Last use per root, in dynamic-step order; the output's root is
    # pinned so its buffer survives past the loop.
    last_use: dict[int, int] = {}
    for step, node in enumerate(dyn_nodes):
        for parent in node.parents:
            pid = id(parent)
            if pid in root:
                last_use[root[pid]] = step
    last_use[root[id(output)]] = len(dyn_nodes)

    # Buffer assignment: linear scan with shape/dtype free lists;
    # elementwise steps may steal the buffer of a source dying at that
    # step (in-place chain fusion).  Non-aliasable steps allocate first
    # and release after, so a fresh buffer never aliases a source.
    buffer_specs: list[tuple[tuple[int, ...], np.dtype]] = []
    free: dict[tuple, list[int]] = {}
    buf_of_root: dict[int, int | None] = {id(t): None for t in inputs}
    ops: list[tuple] = []
    for step, node in enumerate(dyn_nodes):
        tid = id(node.tensor)
        kernel, kind = kinds[tid]
        out_data = node.tensor.data
        spec = (out_data.shape, out_data.dtype)
        dying: set[int] = set()
        for parent in node.parents:
            pid = id(parent)
            if pid in root and last_use.get(root[pid]) == step:
                dying.add(root[pid])
        buf: int | None = None
        if kind == "ew":
            for parent in node.parents:
                pid = id(parent)
                if (
                    pid in dying
                    and root.get(pid) == pid
                    and pid != tid
                    and buf_of_root.get(pid) is not None
                    and parent.data.shape == spec[0]
                    and parent.data.dtype == spec[1]
                ):
                    buf = buf_of_root[pid]
                    dying.discard(pid)  # storage transfers to this node
                    break
        if buf is None and kind in ("ew", "out"):
            stash = free.get(spec)
            if stash:
                buf = stash.pop()
            else:
                buffer_specs.append(spec)
                buf = len(buffer_specs) - 1
        if kind in ("ew", "out"):
            buf_of_root[tid] = buf
        elif kind == "view":
            buf_of_root.setdefault(root[tid], None)
        else:
            buf_of_root[tid] = None
        for rid in dying:
            released = buf_of_root.get(rid)
            if released is not None:
                free.setdefault(buffer_specs[released], []).append(released)
                buf_of_root[rid] = None

        extras = node.extras
        if node.replay is None and node.op_name in _RESHAPE_LIKE:
            extras = out_data.shape
        srcs = tuple(slot_of[id(p)] for p in node.parents)
        ops.append((kernel, srcs, slot_of[tid], buf, extras, kind))

    input_slots = [slot_of[id(t)] for t in inputs]
    input_specs = [(t.data.shape, t.data.dtype) for t in inputs]
    arena_bytes = sum(
        int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        for shape, dtype in buffer_specs
    )
    stats = PlanStats(
        num_captured=len(ordered),
        num_ops=len(ops),
        num_folded=num_folded,
        num_buffers=len(buffer_specs),
        arena_bytes=arena_bytes,
    )
    plan = ExecutionPlan(
        ops,
        template,
        buffer_specs,
        input_slots,
        input_specs,
        slot_of[id(output)],
        stats,
    )

    if self_check:
        replayed = plan.replay(*[t.data for t in inputs])
        if not np.array_equal(replayed, output.data, equal_nan=True):
            raise PlanError(
                "compiled plan does not reproduce the traced forward "
                "bit-for-bit; a replay kernel diverged from its eager op"
            )
    return plan


def trace_function(fn: Callable, *arrays: np.ndarray, self_check: bool = True):
    """Capture ``fn(*tensors)`` once and compile it; returns the plan.

    Convenience entry point for the plan unit tests and for compiling
    arbitrary Tensor-level functions; model code uses
    :func:`repro.autograd.capture_graph` directly.
    """
    from repro.autograd import capture_graph, no_grad

    with no_grad(), capture_graph() as capture:
        tensors = [Tensor._wrap(np.asarray(a)) for a in arrays]
        for t in tensors:
            capture.mark_input(t)
        output = fn(*tensors)
    if not isinstance(output, Tensor):
        raise PlanError("traced function must return a single Tensor")
    return compile_plan(capture, tensors, output, self_check=self_check)
