"""ProtoAttn: prototype-attentive dependency modeling (Sec. VI, Alg. 2).

Instead of all-pairs self-attention over the ``l`` input segments
(O(l^2)), ProtoAttn attends from the fixed ``k`` offline prototypes to
the segments and routes the result back through the hard assignment
matrix ``A``:

    ProtoAttn(C_Q, K, V) = A . softmax(C_Q K^T / sqrt(d)) . V   (Eq. 18)

with ``C_Q = C W_E``, ``K = P W_K``, ``V = P W_V`` (Eq. 14).  Since
queries sharing a prototype reuse the same attention row (Eq. 19), the
cost is O(k*l*d) — linear in the number of segments.
"""

from __future__ import annotations

import numpy as np

from repro import autograd as ag
from repro.autograd import Tensor
from repro.autograd.tensor import get_default_dtype
from repro.core.clustering import composite_distance
from repro.nn import Linear, Module
from repro.profiling.counter import active_counter


class ProtoAttn(Module):
    """Prototype-attentive layer over segment tokens.

    Parameters
    ----------
    prototypes:
        ``(k, p)`` array from the offline :class:`SegmentClusterer`.
    d_model:
        Embedding width ``d`` for queries/keys/values.
    alpha:
        Composite-distance correlation weight used for the *online*
        hard assignment (should match the offline clustering setting).
    assignment:
        ``"hard"`` (paper): one-hot routing to the nearest prototype;
        ``"soft"``: a softmax over negative composite distances scaled by
        ``temperature`` — an extension ablated in the benchmarks.
    temperature:
        Softness of the ``"soft"`` assignment (lower = closer to hard).

    Input ``(B, l, p)`` raw segments; output ``(B, l, d_model)``.  After a
    forward pass :attr:`last_assignment_` holds the ``(B, l)`` prototype
    indices and :attr:`last_attention_` the ``(B, k, l)`` attention map
    (both plain ndarrays), which the paper's Fig. 13 analysis multiplies
    together to visualize learned long-range dependencies.
    """

    def __init__(
        self,
        prototypes: np.ndarray,
        d_model: int,
        alpha: float = 0.2,
        assignment: str = "hard",
        temperature: float = 1.0,
    ):
        super().__init__()
        if assignment not in ("hard", "soft"):
            raise ValueError(f"unknown assignment mode {assignment!r}")
        if temperature <= 0.0:
            raise ValueError("temperature must be positive")
        self.assignment_mode = assignment
        self.temperature = temperature
        prototypes = np.asarray(prototypes, dtype=get_default_dtype())
        if prototypes.ndim != 2:
            raise ValueError("prototypes must be (k, p)")
        self.num_prototypes, self.segment_length = prototypes.shape
        self.d_model = d_model
        self.alpha = alpha
        self.register_buffer("prototypes", prototypes.copy())
        p = self.segment_length
        self.w_e = Linear(p, d_model, bias=False)  # prototype embedding W_E
        self.w_k = Linear(p, d_model, bias=False)
        self.w_v = Linear(p, d_model, bias=False)
        self.last_assignment_: np.ndarray | None = None
        self.last_attention_: np.ndarray | None = None
        # (k,) bool mask: segments of a True prototype route zero context.
        self.knockout: np.ndarray | None = None
        # Inference cache for C_Q = W_E(C): prototypes are fixed online, so
        # the projection is recomputed only when W_E or C actually change.
        # Tuple of (W_E snapshot, prototype snapshot, projected queries).
        self._query_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def invalidate_cache(self) -> None:
        """Drop the cached prototype query projection."""
        self._query_cache = None

    def _proto_queries(self) -> Tensor:
        """C_Q = W_E(C), cached between inference forwards.

        Staleness is detected by value comparison against small snapshots
        of W_E and the prototypes (both are mutated in place by the
        optimizer / ``load_state_dict`` / streaming adaptation, so object
        identity cannot be trusted).  Only used with gradients disabled —
        training forwards must build the graph so W_E receives gradients.
        """
        weight = self.w_e.weight.data
        cache = self._query_cache
        if (
            cache is None
            or not np.array_equal(cache[0], weight)
            or not np.array_equal(cache[1], self.prototypes)
        ):
            projected = self.w_e(Tensor(self.prototypes)).data
            cache = (weight.copy(), self.prototypes.copy(), projected)
            self._query_cache = cache
        return Tensor(cache[2])

    def assignment_weights(self, segments: np.ndarray) -> np.ndarray:
        """Assignment matrix ``A``: one-hot (hard) or softmax (soft)."""
        flat = segments.reshape(-1, self.segment_length)
        distances = composite_distance(flat, self.prototypes, self.alpha)
        if self.assignment_mode == "hard":
            weights = np.zeros_like(distances)
            weights[np.arange(len(flat)), distances.argmin(axis=1)] = 1.0
        else:
            logits = -distances / self.temperature
            logits -= logits.max(axis=1, keepdims=True)
            weights = np.exp(logits)
            weights /= weights.sum(axis=1, keepdims=True)
        return weights.reshape(*segments.shape[:-1], self.num_prototypes)

    def forward(self, segments: Tensor) -> Tensor:
        if segments.ndim != 3 or segments.shape[-1] != self.segment_length:
            raise ValueError(
                f"expected (B, l, p={self.segment_length}) segments, got {segments.shape}"
            )
        batch, n_segments, _ = segments.shape
        counter = active_counter()
        if counter is not None:
            # Nearest-prototype search (Sec. VI-B complexity analysis): the
            # squared-Euclidean term is one (B·l, k) GEMM over p-vectors.
            # The Pearson term costs a second GEMM of the same shape, but
            # only when it is actually computed (alpha != 0); charging it
            # unconditionally would inflate Fig. 6-style numbers for the
            # Euclidean-only (Rec Only) configuration.
            unit = batch * n_segments * self.num_prototypes * self.segment_length
            cost = 2 * unit
            if self.alpha != 0.0:
                cost += 2 * unit
            counter.add_flops(cost, label="proto_assignment")

        # Eq. (14): projections.  C_Q is a pure function of parameters:
        # under graph capture the plan compiler constant-folds it; in
        # eager inference it is served from the cache; training and
        # profiled runs recompute it (gradients, deterministic FLOPs).
        capture = ag.active_capture()
        if capture is not None:
            proto_queries = self.w_e(capture.constant(self.prototypes))  # (k, d)
        elif ag.is_grad_enabled() or counter is not None:
            proto_queries = self.w_e(Tensor(self.prototypes))  # (k, d)
        else:
            proto_queries = self._proto_queries()  # (k, d), cached
        keys = self.w_k(segments)  # (B, l, d)
        values = self.w_v(segments)  # (B, l, d)

        # Eq. (16)+(18): prototype-to-segment attention, then route.
        scores = ag.matmul(proto_queries, ag.swapaxes(keys, -1, -2))  # (B, k, l)
        scores = scores * float(1.0 / np.sqrt(self.d_model))
        attention = ag.softmax(scores, axis=-1)
        proto_context = ag.matmul(attention, values)  # (B, k, d)
        return self.route(segments, proto_context, attention)  # (B, l, d)

    def route(
        self, segments: Tensor, context: Tensor, attention: Tensor | None = None
    ) -> Tensor:
        """Eq. (19): ``(B, l, d)`` rows of ``context`` ``(B, k, d)``, one per
        segment of ``segments`` ``(B, l, p)``, picked by its prototype.

        One replayable node with a ``context`` gradient serves every mode.
        Hard routing is a row gather, exactly the one-hot ``A · context``
        for finite values at O(B·l·d); soft routing is the product.
        Prototypes masked in :attr:`knockout` route zero context.  Passing
        ``attention`` records it and the labels (:attr:`last_attention_`,
        :attr:`last_assignment_`).
        """
        counter = active_counter()
        if counter is not None and self.assignment_mode == "soft":
            flops = 2 * segments.shape[1] * int(np.prod(context.shape))
            counter.add_flops(flops, label="protoattn_route")
        parents = (segments, context) if attention is None else (segments, context, attention)
        return ag.replayable("protoattn_route", self._route, parents, (None, self._route_grad))

    def _route(self, arrays: list, scratch: dict) -> np.ndarray:
        segments, context, *attention = arrays
        knockout = self.knockout
        if self.assignment_mode == "hard":
            flat = segments.reshape(-1, self.segment_length)
            distances = composite_distance(flat, self.prototypes, self.alpha, scratch)
            labels = distances.argmin(axis=1).reshape(segments.shape[:-1])
            weights = None
            rows = scratch.get("rows")
            if rows is None or rows.shape[0] != labels.shape[0]:
                rows = scratch["rows"] = np.arange(labels.shape[0])[:, None]
            routed = context[rows, labels]
            if knockout is not None:
                routed[knockout[labels]] = 0.0
        else:
            weights = self.assignment_weights(segments)
            labels = weights.argmax(axis=-1)
            if knockout is not None:
                weights[..., knockout] = 0.0
            routed = weights @ context
        scratch["saved"] = (labels, weights, knockout)
        if attention:
            self.last_assignment_ = labels
            # Copied: under a plan the attention is an arena buffer that
            # later steps of the same replay reuse.
            self.last_attention_ = attention[0].copy()
        return routed

    def _route_grad(self, grad: np.ndarray, saved: tuple) -> np.ndarray:
        """``Aᵀ · grad``; the hard one-hot ``A`` is rebuilt from the labels."""
        labels, weights, knockout = saved
        if weights is None:
            weights = np.zeros((*labels.shape, self.num_prototypes), dtype=grad.dtype)
            np.put_along_axis(weights, labels[..., None], 1.0, axis=-1)
            if knockout is not None:
                weights[..., knockout] = 0.0
        return np.swapaxes(weights, -1, -2) @ grad

    def dependency_matrix(self) -> np.ndarray:
        """``A @ attention`` from the last forward: ``(B, l, l)``.

        Entry ``[b, i, j]`` is how much segment ``i``'s representation
        depends on segment ``j`` — the quantity visualized in Fig. 13.
        """
        if self.last_assignment_ is None or self.last_attention_ is None:
            raise RuntimeError("run a forward pass first")
        # Row i of the result is the attention row of segment i's prototype.
        return np.take_along_axis(
            self.last_attention_, self.last_assignment_[:, :, None], axis=1
        )

    def _extra_repr(self) -> str:
        return f"(k={self.num_prototypes}, p={self.segment_length}, d={self.d_model})"
