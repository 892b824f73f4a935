"""Linear-algebra operations with batched-matmul gradients."""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor, as_tensor, unbroadcast


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product following ``numpy.matmul`` semantics.

    Supports 1-D operands (vector dot / matrix-vector) and arbitrary
    broadcast batch dimensions, with gradients reduced back to each
    operand's shape.  A 2-D operand against a batched one gets its
    gradient from a single GEMM over the flattened batch, not a batched
    GEMM summed away by :func:`unbroadcast`.
    """
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data

    def grad_a(g: np.ndarray) -> np.ndarray:
        if a.ndim == 1 and b.ndim == 1:
            return g * b.data
        if a.ndim == 1:
            # (k,) @ (..., k, n) -> (..., n); grad_a = sum over batch of B g
            ga = (b.data @ np.expand_dims(g, -1)).squeeze(-1)
            return unbroadcast(ga, a.shape)
        if b.ndim == 1:
            # (..., m, k) @ (k,) -> (..., m)
            ga = np.expand_dims(g, -1) * b.data
            return unbroadcast(ga, a.shape)
        if a.ndim == 2 and b.ndim > 2:
            # (m, k) @ (..., k, n): contract g (..., m, n) with b over the
            # batch axes and n at once -> (m, k).
            batch = tuple(range(b.ndim - 2))
            return np.tensordot(g, b.data, axes=(batch + (-1,), batch + (-1,)))
        ga = g @ np.swapaxes(b.data, -1, -2)
        return unbroadcast(ga, a.shape)

    def grad_b(g: np.ndarray) -> np.ndarray:
        if a.ndim == 1 and b.ndim == 1:
            return g * a.data
        if a.ndim == 1:
            gb = np.expand_dims(a.data, -1) * np.expand_dims(g, -2)
            return unbroadcast(gb, b.shape)
        if b.ndim == 1:
            gb = np.swapaxes(a.data, -1, -2) @ np.expand_dims(g, -1)
            return unbroadcast(gb.squeeze(-1) if gb.ndim > b.ndim else gb, b.shape)
        if b.ndim == 2 and a.ndim > 2:
            # (..., m, k) @ (k, n): stack the batch into rows -> one
            # (k, B*m) @ (B*m, n) GEMM.
            rows_a = a.data.reshape(-1, a.shape[-1])
            return rows_a.T @ g.reshape(-1, g.shape[-1])
        gb = np.swapaxes(a.data, -1, -2) @ g
        return unbroadcast(gb, b.shape)

    return Tensor._make(out_data, [(a, grad_a), (b, grad_b)], "matmul")


def outer(a: Tensor, b: Tensor) -> Tensor:
    """Outer product of two vectors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("outer() expects 1-D tensors")
    return Tensor._make(
        np.outer(a.data, b.data),
        [(a, lambda g: g @ b.data), (b, lambda g: g.T @ a.data)],
        "outer",
    )
