"""Class Activation Maps for the ResNet classifier (Definition II.1).

For a classifier with a GAP layer between the final convolution and the
linear classification head, the CAM for class ``c`` at timestep ``t`` is

    CAM_c(t) = sum_k  w_c^k * f_k(t)

where ``f_k`` is the k-th feature map of the last conv layer and ``w_c^k``
the head weight connecting filter ``k`` to class ``c``.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn.tensor import Tensor
from .resnet import ResNetTSC


def cam_from_features(feats: np.ndarray, class_weights: np.ndarray) -> np.ndarray:
    """Raw CAM from precomputed feature maps ``(N, C, L)`` and head weights.

    This is the shared kernel behind :func:`compute_cam` and the fused
    single-forward path (:meth:`repro.core.ensemble.ResNetEnsemble.forward_fused`):
    once the last conv feature maps exist, the CAM is just a contraction
    with the classification head's weights for the target class.

    The contraction is a two-row GEMM (the class row twice) over the
    ``N*L`` window columns: a one-row product runs as gemv, whose summation
    order depends on the batch size.  The traced plan contracts the same
    way, so a window's CAM bits match it and do not depend on its batch.
    """
    feats = np.asarray(feats, dtype=np.float32)
    n, channels, length = feats.shape
    rows = np.empty((2, channels), dtype=np.float32)
    rows[:] = class_weights
    cols = np.ascontiguousarray(feats.transpose(1, 0, 2)).reshape(channels, n * length)
    return (rows @ cols)[0].reshape(n, length)


def compute_cam(model: ResNetTSC, x: np.ndarray, class_index: int = 1) -> np.ndarray:
    """Raw CAM of ``model`` for ``class_index`` over inputs ``(N, L)``.

    Returns an array of shape ``(N, L_feat)``.  With same-padded stride-1
    convolutions ``L_feat == L``, so the map aligns with input timestamps.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 2:
        raise ValueError(f"expected (N, L) windows, got shape {x.shape}")
    with nn.no_grad():
        feats = model.features(Tensor(x[:, None, :])).data  # (N, C, L)
    return cam_from_features(feats, model.head.weight.data[class_index])


def normalize_cam(cam: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Normalize each CAM to ``[0, 1]`` by dividing by its per-window max.

    The paper divides each CAM by its maximum value.  When the maximum is
    not positive (appliance absent or a degenerate map), dividing would
    flip signs, so we return zeros for those windows instead.
    Values below zero after scaling are kept (they encode "evidence
    against" and are suppressed by the downstream sigmoid attention).
    """
    cam = np.asarray(cam, dtype=np.float32)
    maxima = cam.max(axis=-1, keepdims=True)
    positive = maxima > eps
    safe = np.where(positive, maxima, 1.0)
    out = cam / safe
    return np.where(positive, out, 0.0).astype(np.float32)


def ensemble_cam(models, x: np.ndarray, class_index: int = 1) -> np.ndarray:
    """Average of the normalized CAMs of all ensemble members (step 4).

    ``CAM_ens(t) = (1/n) * sum_i  norm(CAM_i(t))``
    """
    models = list(models)
    if not models:
        raise ValueError("ensemble_cam needs at least one model")
    total = None
    for model in models:
        normalized = normalize_cam(compute_cam(model, x, class_index))
        total = normalized if total is None else total + normalized
    return (total / len(models)).astype(np.float32)
