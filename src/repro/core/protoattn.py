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

    def assign(self, segments: np.ndarray) -> np.ndarray:
        """Hard-assign ``(..., p)`` segments to nearest prototypes."""
        flat = segments.reshape(-1, self.segment_length)
        labels = composite_distance(flat, self.prototypes, self.alpha).argmin(axis=1)
        return labels.reshape(segments.shape[:-1])

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
        self.last_attention_ = attention.data
        proto_context = ag.matmul(attention, values)  # (B, k, d)
        # The routing (Algorithm 2 l.1-4) depends on the input's values,
        # so it is a replayable node: a compiled plan recomputes it.
        if (
            not ag.is_grad_enabled()
            and counter is None
            and self.assignment_mode == "hard"
            and "assignment_weights" not in self.__dict__
        ):
            # Hard inference routing is a row gather (Eq. 19), O(B·l·d)
            # instead of the one-hot matmul's O(B·l·k·d).  For finite
            # contexts the values are the same: each output row is exactly
            # its prototype's context row (the matmul adds k-1 exact zeros).
            return ag.replayable(
                "protoattn_gather", self._gather, (segments, proto_context)
            )
        # One-hot (or soft) matmul.  Training needs it so the graph flows
        # into proto_context; profiled runs so FLOP accounting stays put;
        # an instance-level assignment_weights override (the knockout
        # attribution patches it) so the patched matrix actually routes.
        assignment = ag.replayable("protoattn_assign", self._assignment, (segments,))
        return ag.matmul(assignment, proto_context)  # (B, l, d)

    def _gather(self, arrays: list, scratch: dict) -> np.ndarray:
        """Nearest prototype per segment, then its ``proto_context`` row."""
        segments, proto_context = arrays
        flat = segments.reshape(-1, self.segment_length)
        distances = composite_distance(flat, self.prototypes, self.alpha, scratch)
        labels = distances.argmin(axis=1).reshape(segments.shape[:-1])
        self.last_assignment_ = labels
        rows = scratch.get("rows")
        if rows is None or rows.shape[0] != labels.shape[0]:
            rows = scratch["rows"] = np.arange(labels.shape[0])[:, None]
        return proto_context[rows, labels]

    def _assignment(self, arrays: list, scratch: dict) -> np.ndarray:
        """Assignment matrix ``A`` through (a possibly patched)
        :meth:`assignment_weights`."""
        weights = self.assignment_weights(arrays[0])
        self.last_assignment_ = weights.argmax(axis=-1)
        return weights

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
