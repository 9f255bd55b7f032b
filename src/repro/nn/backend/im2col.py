"""im2col conv1d kernel: K slice-copies into a channel-major column buffer,
then one sgemm per sample forward and one sgemm per direction backward.

The reference kernel's ``np.tensordot`` over a strided
``sliding_window_view`` gathers the ``(N, C_in, L_out, K)`` copy with an
inner loop of only ``K`` contiguous elements.  This kernel builds the same
columns with ``K`` *slice* copies (inner runs of ``L_out`` contiguous
elements), so the materialization is a handful of fat memcpys instead of a
gather, and the contraction becomes plain GEMMs.

The column buffer is channel-major, ``cols[c*K + j, n*L_out + s] =
x_pad[n, c, s*stride + j]`` — shape ``(C_in*K, N*L_out)`` — on every call:

* forward:   ``out[n] = W2 @ cols[:, n*L_out:(n+1)*L_out]`` with ``W2 =
  weight.reshape(C_out, C_in*K)``.  ``np.matmul`` reads each sample's
  column block in place (row stride ``N*L_out``) and writes straight into
  the ``(N, C_out, L_out)`` output, so neither operand is copied;
* dW: ``G @ cols.T``, one GEMM, where ``G`` is ``grad`` regrouped as
  ``(C_out, N*L_out)`` (one small copy).  The backward context keeps the
  padded input, ``K`` times smaller than the columns, and the columns are
  gathered again from it by the forward's own copy loop, so they carry
  the same bits;
* dX: ``d_cols = W2.T @ G``, one GEMM, followed by a K-slice col2im
  scatter-add (the exact adjoint of the forward copy loop).

Each sample's forward GEMM has shape ``(C_out, C_in*K) @ (C_in*K, L_out)``
regardless of the batch size, which keeps the kernel **bit-level
batch-size invariant** — scoring a window alone or inside any batch yields
identical float32 bits.  The serving cache's bit-identity contract and the
parallel-training equivalence tests rely on this property.

In inference mode (``keep_ctx=False``) both the column scratch and the
output come from the active :class:`~repro.nn.backend.pool.BufferPool`,
so steady-state scoring re-allocates nothing.  Grad-mode buffers are kept
by the autograd graph past the pool's next step, so they come from
:func:`_grad_buffer` instead.
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
    """Saved forward state for the backward contractions.

    ``x_pad`` is the forward's padded input (never a pool buffer), not its
    ``(C_in*K, N*L_out)`` columns: the graph of a training batch holds
    every conv's context until its backward runs, and the columns are
    ``K`` times larger.  :func:`grad_weight` gathers them again.
    """

    x_pad: np.ndarray  # (N, C_in, L_pad)
    weight: np.ndarray  # (C_out, C_in, K)
    stride: int


def _grad_buffer(shape, dtype=DTYPE) -> np.ndarray:
    """A fresh buffer for the grad path: saved columns, outputs and
    gradients outlive the pool's next step, so they must not be pooled."""
    # repro: waive[HOT001] grad path only; the inference path takes `scratch`
    return np.empty(shape, dtype)


def _gather(x_pad: np.ndarray, kernel: int, stride: int, alloc) -> np.ndarray:
    """The channel-major columns ``(C_in, K, N, L_out)`` of ``x_pad``.

    ``alloc`` (``scratch`` or :func:`_grad_buffer`) supplies the buffer.
    """
    n, c_in, l_pad = x_pad.shape
    l_out = (l_pad - kernel) // stride + 1
    cols4 = alloc((c_in, kernel, n, l_out), x_pad.dtype)
    span = (l_out - 1) * stride + 1
    for j in range(kernel):  # cols4[c, j, n, s] = x_pad[n, c, s*stride + j]
        np.copyto(cols4[:, j], x_pad[:, :, j : j + span : stride].transpose(1, 0, 2))
    return cols4


def _conv(x_pad: np.ndarray, weight: np.ndarray, stride: int, alloc) -> np.ndarray:
    """Gather the channel-major columns, then one GEMM per sample.

    ``alloc`` (``scratch`` or :func:`_grad_buffer`) supplies the columns
    and the output.
    """
    c_out, c_in, kernel = weight.shape
    cols4 = _gather(x_pad, kernel, stride, alloc)
    n, l_out = cols4.shape[2:]
    out = alloc((n, c_out, l_out), x_pad.dtype)
    per_sample = cols4.reshape(c_in * kernel, n, l_out).transpose(1, 0, 2)
    if c_out == 1:
        # A one-row weight turns np.matmul into gemv, whose summation order
        # follows the columns' row stride (N*L_out); sample-major copies keep
        # the bits independent of the batch size.
        sample_major = alloc((n, c_in * kernel, l_out), x_pad.dtype)
        np.copyto(sample_major, per_sample)
        per_sample = sample_major
    np.matmul(weight.reshape(c_out, c_in * kernel), per_sample, out=out)
    return out


def forward(
    x_pad: np.ndarray, weight: np.ndarray, stride: int, keep_ctx: bool
) -> Tuple[np.ndarray, Optional[Ctx]]:
    out = _conv(x_pad, weight, stride, _grad_buffer if keep_ctx else scratch)
    return out, Ctx(x_pad, weight, stride) if keep_ctx else None


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
    out = _conv(x_pad, weight, stride, scratch)
    counters.record("fused_conv_calls")
    counters.record("fused_conv_gemms")
    if shift is not None:
        out += shift[None, :, None]
    if relu:
        np.maximum(out, 0, out=out)
    return out


def _grad_matrix(grad: np.ndarray) -> np.ndarray:
    """``grad`` ``(N, C_out, L_out)`` regrouped as ``(C_out, N*L_out)``, the columns' order."""
    n, c_out, l_out = grad.shape
    g = _grad_buffer((c_out, n, l_out))
    np.copyto(g, grad.transpose(1, 0, 2))
    return g.reshape(c_out, n * l_out)


def grad_weight(ctx: Ctx, grad: np.ndarray) -> np.ndarray:
    # dW2[o, ck] = sum_{n, s} grad[n, o, s] * cols[ck, n*L_out + s]
    n, _, l_out = grad.shape
    cols4 = _gather(ctx.x_pad, ctx.weight.shape[2], ctx.stride, _grad_buffer)
    d_w2 = _grad_matrix(grad) @ cols4.reshape(-1, n * l_out).T
    return d_w2.reshape(ctx.weight.shape)


def grad_input(ctx: Ctx, grad: np.ndarray) -> np.ndarray:
    n, _, l_out = grad.shape
    c_out, c_in, kernel = ctx.weight.shape
    w2 = ctx.weight.reshape(c_out, c_in * kernel)
    d_cols = (w2.T @ _grad_matrix(grad)).reshape(c_in, kernel, n, l_out)
    d_xp = _grad_buffer((n, c_in, ctx.x_pad.shape[2]))
    d_xp.fill(0.0)
    span = (l_out - 1) * ctx.stride + 1
    for j in range(kernel):  # adjoint of the forward copy loop
        d_xp[:, :, j : j + span : ctx.stride] += d_cols[:, j].transpose(1, 0, 2)
    return d_xp
