"""Fused neural-network primitives with hand-derived backward passes.

Convolution, pooling, normalization, softmax and the fused losses are
implemented as single graph nodes (rather than compositions of elementwise
ops) for speed and numerical stability.  Every backward pass here is covered
by finite-difference gradient checks in ``tests/test_gradients.py``.

Two execution concerns are factored out of the math:

* **convolution kernels** live in :mod:`repro.nn.backend` (``im2col`` /
  ``reference``, selected per call by the active backend mode) —
  ``conv1d`` here only handles padding, bias and graph bookkeeping;
* **inference mode**: when gradients are off (``nn.no_grad``) or no input
  requires them, every primitive takes an early return that builds *no*
  backward closure and saves *no* forward state (no windows/columns,
  ``x_hat``, argmax indices, ...), and batch norm collapses to a single
  fused per-channel scale/shift.  Combined with the backend buffer pool
  this makes steady-state scoring allocation-free on the conv hot path.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import backend
from .tensor import DEFAULT_DTYPE, Tensor, _unbroadcast, is_grad_enabled


def _needs_grad(*tensors: Optional[Tensor]) -> bool:
    """Whether this op must record the graph (any live parent requires grad)."""
    return is_grad_enabled() and any(
        t is not None and t.requires_grad for t in tensors
    )


# ----------------------------------------------------------------------
# Convolution
# ----------------------------------------------------------------------
def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """1-D cross-correlation over ``x`` of shape ``(N, C_in, L)``.

    ``weight`` has shape ``(C_out, C_in, K)``; the output has shape
    ``(N, C_out, L_out)`` with ``L_out = (L + 2*padding - K) // stride + 1``.

    Execution is delegated to the active :mod:`repro.nn.backend` kernel;
    the backward contractions reuse whichever kernel ran the forward.
    """
    if x.ndim != 3:
        raise ValueError(f"conv1d expects (N, C, L) input, got shape {x.shape}")
    n, c_in, length = x.shape
    c_out, c_in_w, kernel = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input has {c_in}, weight expects {c_in_w}")
    if length + 2 * padding < kernel:
        raise ValueError("input (plus padding) shorter than kernel")

    needs = _needs_grad(x, weight, bias)
    if padding and needs:
        # The backward contractions may retain x_pad (or views of it) in
        # their context, so it must not come from the recycling pool.
        x_pad = np.pad(x.data, ((0, 0), (0, 0), (padding, padding)))
    else:
        x_pad = backend.pad_scratch(x.data, padding) if padding else x.data
    kern = backend.resolve_conv()
    out, ctx = kern.forward(x_pad, weight.data, stride, keep_ctx=needs)
    if bias is not None:
        out += bias.data[None, :, None]
    if not needs:
        return Tensor(out)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)))
        if weight.requires_grad:
            weight._accumulate(kern.grad_weight(ctx, grad))
        if x.requires_grad:
            d_xp = kern.grad_input(ctx, grad)
            if padding:
                d_xp = np.ascontiguousarray(d_xp[:, :, padding : padding + length])
            x._accumulate(d_xp)

    return Tensor._make_from(out, parents, backward, "conv1d")


# ----------------------------------------------------------------------
# Pooling / resampling
# ----------------------------------------------------------------------
def max_pool1d(x: Tensor, kernel: int) -> Tensor:
    """Non-overlapping max pooling (stride == kernel) over the last axis.

    Inputs whose length is not divisible by ``kernel`` are right-padded
    with ``-inf`` (the pad never wins the max).  The argmax bookkeeping
    needed to route gradients is only built when gradients are enabled;
    inference is a plain blockwise ``max``.
    """
    n, c, length = x.shape
    remainder = length % kernel
    pad = kernel - remainder if remainder else 0
    data = np.pad(x.data, ((0, 0), (0, 0), (0, pad)), constant_values=-np.inf) if pad else x.data
    l_out = data.shape[2] // kernel
    blocks = data.reshape(n, c, l_out, kernel)
    if not _needs_grad(x):
        out = backend.scratch((n, c, l_out), x.dtype)
        blocks.max(axis=3, out=out)
        return Tensor(out)

    idx = blocks.argmax(axis=3)
    out = np.take_along_axis(blocks, idx[..., None], axis=3)[..., 0]

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        d_blocks = np.zeros_like(blocks)
        np.put_along_axis(d_blocks, idx[..., None], grad[..., None], axis=3)
        d_x = d_blocks.reshape(n, c, l_out * kernel)
        if pad:
            d_x = d_x[:, :, :length]
        x._accumulate(d_x)

    return Tensor._make_from(out, (x,), backward, "max_pool1d")


def avg_pool1d(x: Tensor, kernel: int) -> Tensor:
    """Non-overlapping average pooling (stride == kernel), zero right-pad.

    When the length is not divisible by ``kernel`` the tail block is
    averaged over the *real* samples it covers (count-exclude-pad): a
    count-include-pad divisor would bias the tail output toward zero, and
    its backward would leak gradient mass onto the padding.
    """
    n, c, length = x.shape
    remainder = length % kernel
    pad = kernel - remainder if remainder else 0
    data = np.pad(x.data, ((0, 0), (0, 0), (0, pad))) if pad else x.data
    l_out = data.shape[2] // kernel
    counts = np.full(l_out, kernel, dtype=DEFAULT_DTYPE)
    if pad:
        counts[-1] = remainder
    out = data.reshape(n, c, l_out, kernel).sum(axis=3) / counts
    if not _needs_grad(x):
        return Tensor(out.astype(DEFAULT_DTYPE))

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        d_x = np.repeat(grad / counts, kernel, axis=2)
        if pad:
            d_x = d_x[:, :, :length]
        x._accumulate(np.ascontiguousarray(d_x))

    return Tensor._make_from(out.astype(DEFAULT_DTYPE), (x,), backward, "avg_pool1d")


def global_avg_pool1d(x: Tensor) -> Tensor:
    """Average over the temporal axis: ``(N, C, L) -> (N, C)``."""
    return x.mean(axis=2)


def upsample_nearest1d(x: Tensor, scale: int) -> Tensor:
    """Nearest-neighbour upsampling of the last axis by integer ``scale``."""
    out = np.repeat(x.data, scale, axis=2)
    n, c, length = x.shape
    if not _needs_grad(x):
        return Tensor(out)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad.reshape(n, c, length, scale).sum(axis=3))

    return Tensor._make_from(out, (x,), backward, "upsample_nearest1d")


def upsample_to1d(x: Tensor, target_length: int) -> Tensor:
    """Nearest-neighbour resize of the last axis to ``target_length``.

    Handles non-integer ratios (used by the temporal-pooling decoders when
    pooled branches do not divide the input length exactly).
    """
    n, c, length = x.shape
    idx = np.minimum((np.arange(target_length) * length) // target_length, length - 1)
    out = x.data[:, :, idx]
    if not _needs_grad(x):
        return Tensor(out)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        # Segment-sum via bincount over a flat index map (row r of the
        # flattened (n*c, target) gradient scatters into row r of
        # (n*c, length)): orders of magnitude faster than np.add.at's
        # per-element ufunc dispatch, and accumulates in float64 (so it is
        # at least as accurate).  The map is built here, not at forward
        # time — the closure retains only the (target,) idx array.
        flat_idx = (np.arange(n * c, dtype=np.int64)[:, None] * length + idx).ravel()
        d_flat = np.bincount(
            flat_idx,
            weights=np.ascontiguousarray(grad).reshape(-1),
            minlength=n * c * length,
        )
        x._accumulate(d_flat.reshape(n, c, length).astype(DEFAULT_DTYPE))

    return Tensor._make_from(out, (x,), backward, "upsample_to1d")


# ----------------------------------------------------------------------
# Normalization
# ----------------------------------------------------------------------
def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over ``(N, C, L)`` (per-channel) or ``(N, C)``.

    ``running_mean``/``running_var`` are updated in place in training mode.
    With gradients disabled the whole op folds into one per-channel
    scale/shift (``scale = gamma * inv_std``, ``shift = beta - mean *
    scale``): a single fused multiply-add over the input instead of the
    four-pass normalize-then-affine, with no saved ``x_hat``.

    Training mode makes seven passes over the activations each way:

    * forward: the mean, one centring subtraction, the squares and their
      mean (the variance, by the same ops ``np.var`` runs, so it is
      bit-identical to it), ``x_hat`` scaled in place over the centred
      copy, and the affine output written over the squares;
    * backward: ``Σg`` and ``Σ(g·x_hat)`` (three passes; they are also
      beta's and gamma's gradients), then the closed form
      ``d_x = gamma·inv_std·(g − Σg/n − x_hat·Σ(g·x_hat)/n)`` in four
      passes over the ``g·x_hat`` buffer.
    """
    if x.ndim == 3:
        axes: Tuple[int, ...] = (0, 2)
        view = (1, -1, 1)
    elif x.ndim == 2:
        axes = (0,)
        view = (1, -1)
    else:
        raise ValueError(f"batch_norm expects 2-D or 3-D input, got {x.ndim}-D")
    count = x.data.size // x.data.shape[1]

    if training:
        mean = x.data.mean(axis=axes)
        centred = x.data - mean.reshape(view)
        squares = centred * centred
        var = squares.mean(axis=axes)
        unbiased = var * count / max(count - 1, 1)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        mean = running_mean
        var = running_var

    inv_std = 1.0 / np.sqrt(var + eps)

    if not _needs_grad(x, gamma, beta):
        scale = (gamma.data * inv_std).astype(DEFAULT_DTYPE)
        shift = (beta.data - mean * scale).astype(DEFAULT_DTYPE)
        out = backend.scratch(x.shape, DEFAULT_DTYPE)
        np.multiply(x.data, scale.reshape(view), out=out)
        out += shift.reshape(view)
        return Tensor(out)

    g = gamma.data.reshape(view)
    if training:
        x_hat = centred
        x_hat *= inv_std.reshape(view)
        out = np.multiply(x_hat, g, out=squares)
    else:
        x_hat = (x.data - mean.reshape(view)) * inv_std.reshape(view)
        out = x_hat * g
    out += beta.data.reshape(view)

    def backward(grad: np.ndarray) -> None:
        d_x = grad * x_hat  # g·x_hat until its sum is taken, then d_x in place
        sum_g, sum_gx = grad.sum(axis=axes), d_x.sum(axis=axes)
        if beta.requires_grad:
            beta._accumulate(sum_g)
        if gamma.requires_grad:
            gamma._accumulate(sum_gx)
        if not x.requires_grad:
            return
        if not training:
            x._accumulate(grad * g * inv_std.reshape(view))
            return
        np.multiply(x_hat, (sum_gx / count).reshape(view), out=d_x)
        np.subtract(grad, d_x, out=d_x)
        d_x -= (sum_g / count).reshape(view)
        d_x *= (gamma.data * inv_std).reshape(view)
        x._accumulate(d_x)

    return Tensor._make_from(out, (x, gamma, beta), backward, "batch_norm")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis of ``x``."""
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mean) * inv_std
    out = gamma.data * x_hat + beta.data
    if not _needs_grad(x, gamma, beta):
        return Tensor(out.astype(DEFAULT_DTYPE))
    dim = x.data.shape[-1]

    def backward(grad: np.ndarray) -> None:
        if beta.requires_grad:
            beta._accumulate(_unbroadcast(grad, beta.shape))
        if gamma.requires_grad:
            gamma._accumulate(_unbroadcast(grad * x_hat, gamma.shape))
        if not x.requires_grad:
            return
        d_xhat = grad * gamma.data
        d_x = (
            d_xhat
            - d_xhat.mean(axis=-1, keepdims=True)
            - x_hat * (d_xhat * x_hat).mean(axis=-1, keepdims=True)
        ) * inv_std
        x._accumulate(d_x.astype(DEFAULT_DTYPE))

    return Tensor._make_from(out.astype(DEFAULT_DTYPE), (x, gamma, beta), backward, "layer_norm")


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out = exp / exp.sum(axis=axis, keepdims=True)
    if not _needs_grad(x):
        return Tensor(out)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            dot = (grad * out).sum(axis=axis, keepdims=True)
            x._accumulate(out * (grad - dot))

    return Tensor._make_from(out, (x,), backward, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_z
    if not _needs_grad(x):
        return Tensor(out)
    soft = np.exp(out)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._make_from(out, (x,), backward, "log_softmax")


# ----------------------------------------------------------------------
# Dropout
# ----------------------------------------------------------------------
def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    mask = (rng.random(x.shape) >= p).astype(DEFAULT_DTYPE) / (1.0 - p)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._make_from(x.data * mask, (x,), backward, "dropout")


# ----------------------------------------------------------------------
# Fused losses
# ----------------------------------------------------------------------
def class_targets(targets, n: int, n_classes: Optional[int] = None) -> np.ndarray:
    """``targets`` as ``(n,)`` int64 class ids, or ``ValueError``.

    Entries must be whole numbers in ``[0, n_classes)`` (only ``>= 0`` when
    ``n_classes`` is ``None``).  Any numeric dtype is accepted, so the
    0.0/1.0 float weak labels of :class:`repro.data.StreamingWindows` stay
    valid, but a fractional, negative or out-of-range id raises instead of
    being truncated or wrapped to another class.
    """
    t = np.asarray(targets)
    if t.shape != (n,):
        raise ValueError(f"class targets must have shape ({n},), got {t.shape}")
    if t.dtype.kind not in "biuf":
        raise ValueError(f"class targets must be numeric, got dtype {t.dtype}")
    if t.dtype.kind == "f" and not np.all(np.mod(t, 1) == 0):
        raise ValueError("class targets must be whole numbers")
    if n and (t.min() < 0 or (n_classes is not None and t.max() >= n_classes)):
        allowed = ">= 0" if n_classes is None else f"in [0, {n_classes})"
        raise ValueError(f"class targets must be {allowed}, got [{t.min()}, {t.max()}]")
    return t.astype(np.int64)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy; ``targets`` are class ids (N,).

    Raises ``ValueError`` for targets :func:`class_targets` rejects.
    """
    n = logits.shape[0]
    targets = class_targets(targets, n, logits.shape[1])
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -log_probs[np.arange(n), targets].mean()
    if not _needs_grad(logits):
        return Tensor(np.asarray(loss, dtype=DEFAULT_DTYPE))
    probs = np.exp(log_probs)

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            d = probs.copy()
            d[np.arange(n), targets] -= 1.0
            logits._accumulate(d * (grad / n))

    return Tensor._make_from(np.asarray(loss, dtype=DEFAULT_DTYPE), (logits,), backward, "ce")


def binary_cross_entropy_with_logits(
    logits: Tensor, targets: np.ndarray, pos_weight: Optional[float] = None
) -> Tensor:
    """Mean BCE on raw logits (numerically stable log-sum-exp form)."""
    t = np.asarray(targets, dtype=DEFAULT_DTYPE)
    z = logits.data
    needs = _needs_grad(logits)
    # loss = max(z, 0) - z*t + log(1 + exp(-|z|)); weighted variant scales the
    # positive term by pos_weight.  The sigmoid clip keeps float32 exp finite
    # for extreme logits (it saturates long before +/-60).
    grad_local = None
    if pos_weight is None:
        per = np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))
        if needs:
            sig = 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))
            grad_local = sig - t
    else:
        w = t * pos_weight + (1.0 - t)
        log_sig = -np.maximum(-z, 0) - np.log1p(np.exp(-np.abs(z)))
        log_one_minus = -np.maximum(z, 0) - np.log1p(np.exp(-np.abs(z)))
        per = -(pos_weight * t * log_sig + (1.0 - t) * log_one_minus)
        if needs:
            sig = 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))
            grad_local = w * sig - pos_weight * t
    loss = per.mean()
    if not needs:
        return Tensor(np.asarray(loss, dtype=DEFAULT_DTYPE))
    count = z.size

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            logits._accumulate(grad_local * (grad / count))

    return Tensor._make_from(np.asarray(loss, dtype=DEFAULT_DTYPE), (logits,), backward, "bce_logits")


def mse_loss(pred: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error against a constant target array."""
    t = np.asarray(targets, dtype=DEFAULT_DTYPE)
    diff = pred.data - t
    loss = np.mean(diff * diff)
    if not _needs_grad(pred):
        return Tensor(np.asarray(loss, dtype=DEFAULT_DTYPE))
    count = diff.size

    def backward(grad: np.ndarray) -> None:
        if pred.requires_grad:
            pred._accumulate(2.0 * diff * (grad / count))

    return Tensor._make_from(np.asarray(loss, dtype=DEFAULT_DTYPE), (pred,), backward, "mse")
