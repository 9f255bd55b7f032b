"""``repro.nn.backend`` — the convolution execution layer.

Every model in the registry (CamAL and all six baselines) compiles down to
the fused primitives of :mod:`repro.nn.functional`; this package decides
*how* the dominant one — ``conv1d`` — executes.  There are exactly two
kernels, each with a fixed role:

``im2col``
    K slice-copies into a C-contiguous column buffer + one batched sgemm
    per direction.  Bit-level batch-size invariant — the **default**, and
    the only kernel the traced ensemble plan (:mod:`repro.core.grouped`)
    compiles.
``reference``
    The original strided-window ``np.tensordot`` path, kept bit-for-bit as
    numerical ground truth and for bit-reproducible training.

Selection:

* process default: the ``REPRO_NN_BACKEND`` environment variable
  (``reference|im2col``), else ``im2col``;
* programmatic: :func:`set_backend` or the :func:`use_backend` context
  manager.

The package also owns the :class:`BufferPool` arena used by inference mode
(:func:`use_pool` / :func:`scratch`): with gradients disabled, conv scratch
and outputs are recycled across micro-batches so steady-state scoring
performs no large allocations.
"""

from __future__ import annotations

import contextlib
import os
from typing import Optional, Tuple

import numpy as np

from ...analysis.markers import hot_path
from . import counters, im2col, reference
from .counters import op_counts, reset_op_counts
from .pool import BufferPool, current_pool, scratch, use_pool

__all__ = [
    "BACKEND_ENV",
    "BufferPool",
    "available_backends",
    "conv1d_fused",
    "current_pool",
    "get_backend",
    "op_counts",
    "pad_scratch",
    "reset_op_counts",
    "resolve_conv",
    "scratch",
    "set_backend",
    "use_backend",
    "use_pool",
]

#: Environment variable selecting the process-wide default kernel.
BACKEND_ENV = "REPRO_NN_BACKEND"

_KERNELS = {
    im2col.NAME: im2col,
    reference.NAME: reference,
}

#: Valid values for :func:`set_backend` / ``REPRO_NN_BACKEND``.
_MODES: Tuple[str, ...] = (reference.NAME, im2col.NAME)

_DEFAULT_MODE = im2col.NAME


def _validated(mode: str) -> str:
    mode = str(mode).strip().lower()
    if mode not in _MODES:
        raise ValueError(f"unknown nn backend {mode!r}; choose from {_MODES}")
    return mode


def _mode_from_env() -> str:
    raw = os.environ.get(BACKEND_ENV)
    if not raw:
        return _DEFAULT_MODE
    return _validated(raw)


_mode: str = _mode_from_env()


def available_backends() -> Tuple[str, ...]:
    """The selectable kernels."""
    return _MODES


def get_backend() -> str:
    """The currently active kernel name."""
    return _mode


def set_backend(mode: str) -> None:
    """Set the process-wide kernel (``reference|im2col``)."""
    global _mode
    _mode = _validated(mode)


@contextlib.contextmanager
def use_backend(mode: Optional[str]):
    """Temporarily switch the kernel; ``None`` is a no-op."""
    if mode is None:
        yield get_backend()
        return
    global _mode
    previous = _mode
    _mode = _validated(mode)
    try:
        yield _mode
    finally:
        _mode = previous


def resolve_conv():
    """The kernel module that executes conv1d calls under the active mode."""
    return _KERNELS[_mode]


@hot_path
def pad_scratch(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the last axis into a pool-aware scratch buffer.

    ``np.pad`` allocates a fresh array on every call; on the inference hot
    path the padded copy can come from the active :class:`BufferPool`
    instead (the pad margins are rewritten to zero each time, so a
    recycled buffer can never leak a previous batch's edges).
    """
    if padding <= 0:
        return x
    n, c, length = x.shape
    x_pad = scratch((n, c, length + 2 * padding), x.dtype)
    x_pad[:, :, :padding] = 0.0
    x_pad[:, :, padding + length :] = 0.0
    np.copyto(x_pad[:, :, padding : padding + length], x)
    return x_pad


@hot_path
def conv1d_fused(
    x: np.ndarray,
    weight: np.ndarray,
    shift: Optional[np.ndarray] = None,
    stride: int = 1,
    padding: int = 0,
    relu: bool = True,
) -> np.ndarray:
    """Fused conv -> per-channel shift -> ReLU on raw arrays (inference only).

    The backend entry point behind the folded eval-mode ConvBlock
    (:class:`repro.core.resnet.ConvBlock`): one kernel call computes the
    convolution and applies the already-folded batch-norm shift and the
    ReLU in its epilogue, writing into a pooled output buffer.  Callers
    must guarantee gradients are off — no backward context exists on this
    path.
    """
    x_pad = pad_scratch(x, padding)
    return resolve_conv().forward_fused(x_pad, weight, stride, shift=shift, relu=relu)
