"""im2col conv1d kernel: K slice-copies into a C-contiguous column buffer,
then one batched sgemm per direction.

The reference kernel's ``np.tensordot`` over a strided
``sliding_window_view`` gathers the ``(N, C_in, L_out, K)`` copy with an
inner loop of only ``K`` contiguous elements.  This kernel builds the same
columns with ``K`` *slice* copies (inner runs of ``L_out`` contiguous
elements), so the materialization is a handful of fat memcpys instead of a
gather, and the contraction becomes plain GEMMs:

* forward:   ``out[n] = W2 @ cols[n]`` with ``W2 = weight.reshape(C_out,
  C_in*K)`` and ``cols[n]`` the ``(C_in*K, L_out)`` column block —
  ``np.matmul`` broadcasts the weight over the batch and writes straight
  into the (possibly pooled) output buffer, so no output transpose is
  needed;
* dW: one ``np.tensordot`` contraction of grad against the saved columns;
* dX: ``d_cols[n] = W2.T @ grad[n]`` followed by a K-slice col2im
  scatter-add (the exact adjoint of the forward copy loop).

Each sample's GEMM has shape ``(C_out, C_in*K) @ (C_in*K, L_out)``
regardless of the batch size, which keeps the kernel **bit-level
batch-size invariant** — scoring a window alone or inside any batch yields
identical float32 bits.  The serving cache's bit-identity contract and the
parallel-training equivalence tests rely on this property.

In inference mode (``keep_ctx=False``) both the column scratch and the
output come from the active :class:`~repro.nn.backend.pool.BufferPool`,
so steady-state scoring re-allocates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import counters
from .pool import scratch

DTYPE = np.float32

NAME = "im2col"


@dataclass
class Ctx:
    """Saved forward state for the backward contractions."""

    cols: np.ndarray  # (N, C_in*K, L_out) C-contiguous column buffer
    weight: np.ndarray  # (C_out, C_in, K)
    stride: int
    l_pad: int


def _fill_cols(cols4: np.ndarray, x_pad: np.ndarray, stride: int) -> None:
    """K slice-copies: cols4[n, c, j, s] = x_pad[n, c, s*stride + j]."""
    k, l_out = cols4.shape[2], cols4.shape[3]
    span = (l_out - 1) * stride + 1
    for j in range(k):
        np.copyto(cols4[:, :, j, :], x_pad[:, :, j : j + span : stride])


def forward(
    x_pad: np.ndarray, weight: np.ndarray, stride: int, keep_ctx: bool
) -> Tuple[np.ndarray, Optional[Ctx]]:
    n, c_in, l_pad = x_pad.shape
    c_out, _, kernel = weight.shape
    l_out = (l_pad - kernel) // stride + 1
    # Training keeps the columns alive in the graph, so they must not come
    # from the (recycling) pool; inference scratch may.
    # repro: waive[HOT001] training-only branch (keep_ctx); the inference path takes `scratch`
    alloc = scratch if not keep_ctx else (lambda s, d=DTYPE: np.empty(s, d))
    cols4 = alloc((n, c_in, kernel, l_out), x_pad.dtype)
    _fill_cols(cols4, x_pad, stride)
    cols = cols4.reshape(n, c_in * kernel, l_out)
    out = alloc((n, c_out, l_out), x_pad.dtype)
    np.matmul(weight.reshape(c_out, c_in * kernel), cols, out=out)
    ctx = Ctx(cols, weight, stride, l_pad) if keep_ctx else None
    return out, ctx


def forward_fused(
    x_pad: np.ndarray,
    weight: np.ndarray,
    stride: int,
    shift: Optional[np.ndarray] = None,
    relu: bool = True,
) -> np.ndarray:
    """Inference-only conv with the folded-BN scale/shift + ReLU epilogue.

    The GEMM is the exact one :func:`forward` issues — ``(C_out, C_in*K) @
    (C_in*K, L_out)`` per sample — so the output bits match conv-then-bias
    -then-ReLU computed separately; the epilogue just lands in the same
    (pooled) output buffer instead of paying an extra pass per stage.  No
    backward context exists on this path by construction.
    """
    n, c_in, l_pad = x_pad.shape
    c_out, _, kernel = weight.shape
    l_out = (l_pad - kernel) // stride + 1
    cols4 = scratch((n, c_in, kernel, l_out), x_pad.dtype)
    _fill_cols(cols4, x_pad, stride)
    cols = cols4.reshape(n, c_in * kernel, l_out)
    out = scratch((n, c_out, l_out), x_pad.dtype)
    np.matmul(weight.reshape(c_out, c_in * kernel), cols, out=out)
    counters.record("fused_conv_calls")
    counters.record("fused_conv_gemms")
    if shift is not None:
        out += shift[None, :, None]
    if relu:
        np.maximum(out, 0, out=out)
    return out


def grad_weight(ctx: Ctx, grad: np.ndarray) -> np.ndarray:
    c_out, c_in, kernel = ctx.weight.shape
    # dW2[o, ck] = sum_{n, s} grad[n, o, s] * cols[n, ck, s]
    d_w2 = np.tensordot(grad, ctx.cols, axes=([0, 2], [0, 2]))
    return d_w2.reshape(c_out, c_in, kernel)


def grad_input(ctx: Ctx, grad: np.ndarray) -> np.ndarray:
    n, _, l_out = grad.shape
    c_out, c_in, kernel = ctx.weight.shape
    w2 = ctx.weight.reshape(c_out, c_in * kernel)
    d_cols = np.matmul(w2.T, grad)  # (N, C_in*K, L_out)
    d4 = d_cols.reshape(n, c_in, kernel, l_out)
    # repro: waive[HOT001] backward pass — training only, never on the serving path
    d_xp = np.zeros((n, c_in, ctx.l_pad), dtype=DTYPE)
    span = (l_out - 1) * ctx.stride + 1
    for j in range(kernel):  # adjoint of the forward copy loop
        d_xp[:, :, j : j + span : ctx.stride] += d4[:, :, j, :]
    return d_xp
