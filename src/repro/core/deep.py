"""Deep (multi-layer) ProtoAttn blocks — an extension beyond the paper.

The paper uses "a single-layer structure for both the Temporal Extractor
and the Entity Extractor" (Sec. VIII-A).  :class:`DeepProtoBlock` lets
FOCUS stack further prototype-attentive layers on top: the hard
assignment computed from the raw segments in layer 1 is *reused*, while
keys/values come from the current d-dimensional hidden tokens, so every
extra layer stays O(k*l) and needs no additional prototype search.
"""

from __future__ import annotations

import numpy as np

from repro import autograd as ag
from repro.autograd import Tensor
from repro.nn import GELU, LayerNorm, Linear, Module


class DeepProtoBlock(Module):
    """One extra prototype-attentive layer over hidden tokens.

    Input: tokens ``(B', l, d)``, the layer-1 ProtoAttn ``router`` and its
    ``(B', l, p)`` segments, by whose assignment ``router.route`` routes
    this layer's context.  Output: tokens of the same shape after prototype
    attention + residual + FFN, all in feature space.
    """

    def __init__(self, num_prototypes: int, d_model: int):
        super().__init__()
        self.num_prototypes = num_prototypes
        self.d_model = d_model
        from repro.nn import Parameter
        from repro.nn import init as nn_init

        # Per-layer learned prototype queries in feature space (seeded from
        # scratch; the p-dimensional prototypes only exist in layer 1).
        self.proto_queries = Parameter(
            nn_init.normal((num_prototypes, d_model), std=0.02)
        )
        self.w_k = Linear(d_model, d_model, bias=False)
        self.w_v = Linear(d_model, d_model, bias=False)
        self.norm1 = LayerNorm(d_model)
        self.ffn1 = Linear(d_model, 2 * d_model)
        self.ffn2 = Linear(2 * d_model, d_model)
        self.act = GELU()
        self.norm2 = LayerNorm(d_model)

    def forward(self, tokens: Tensor, router, segments: Tensor) -> Tensor:
        if tokens.ndim != 3 or tokens.shape[-1] != self.d_model:
            raise ValueError(f"expected (B', l, d={self.d_model}), got {tokens.shape}")
        if segments.shape[:2] != tokens.shape[:2] or router.num_prototypes != self.num_prototypes:
            raise ValueError(
                f"assignment of {segments.shape[:2]} segments to k={router.num_prototypes} "
                f"does not match tokens {tokens.shape[:2]} with k={self.num_prototypes}"
            )
        keys = self.w_k(tokens)
        values = self.w_v(tokens)
        scores = ag.matmul(self.proto_queries, ag.swapaxes(keys, -1, -2))
        scores = scores * float(1.0 / np.sqrt(self.d_model))
        attention = ag.softmax(scores, axis=-1)  # (B', k, l)
        context = ag.matmul(attention, values)  # (B', k, d)
        mixed = router.route(segments, context)  # (B', l, d)
        tokens = self.norm1(tokens + mixed)
        tokens = self.norm2(tokens + self.ffn2(self.act(self.ffn1(tokens))))
        return tokens

    def _extra_repr(self) -> str:
        return f"(k={self.num_prototypes}, d={self.d_model})"
