"""ResNet time-series classifier — the CamAL ensemble backbone (Fig. 4).

Architecture (Wang et al. 2016, as adapted by the paper):

* three stacked residual units with ``{64, 128, 128}`` filters;
* each unit contains three ConvBlocks (Conv1d -> BatchNorm -> ReLU) with
  kernel sizes ``{k_p, 5, 3}`` — ``k_p`` is the ensemble-member-specific
  kernel that diversifies receptive fields;
* a residual (shortcut) connection around each unit, with a 1x1 conv when
  the channel count changes;
* Global Average Pooling over time, then a linear layer to 2 classes.

The GAP + linear head is exactly the structure required for CAM
(Definition II.1): the CAM for class ``c`` is the linear layer's weights
applied to the last conv feature maps before pooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..analysis import hot_path
from ..nn.tensor import Tensor, is_grad_enabled

#: Kernel sizes k_p used by the CamAL ensemble (paper §IV-A1).
DEFAULT_KERNEL_SET: Tuple[int, ...] = (5, 7, 9, 15, 25)

#: Filters of the three residual units (paper: {64, 128, 128}).
DEFAULT_FILTERS: Tuple[int, int, int] = (64, 128, 128)


@dataclass(frozen=True)
class ResNetConfig:
    """Hyper-parameters of one ensemble member."""

    kernel_size: int = 7  # k_p
    filters: Tuple[int, int, int] = DEFAULT_FILTERS
    in_channels: int = 1
    n_classes: int = 2
    seed: int = 0


def fold_batch_norm(conv, norm) -> Tuple[np.ndarray, np.ndarray]:
    """Per-output-channel ``(scale, shift)`` folding ``norm`` into ``conv``.

    Convolving with ``conv.weight * scale`` and adding ``shift`` gives
    ``norm(conv(x))`` under the running statistics, bias included.  The
    member loop (:meth:`ConvBlock._forward_folded`) and the traced plan
    (``repro.core.grouped``) both fold through here, so their bits agree.
    """
    scale = norm.gamma.data * (1.0 / np.sqrt(norm.running_var + norm.eps))
    shift = norm.beta.data - norm.running_mean * scale
    if conv.bias is not None:
        shift = shift + conv.bias.data * scale
    return scale, shift


class ConvBlock(nn.Module):
    """Conv1d -> BatchNorm -> ReLU (the paper's ConvBlock).

    In inference mode (``eval()`` + gradients disabled) the batch norm is
    folded into the convolution weights — ``w' = w * gamma * inv_std`` and
    ``b' = beta - running_mean * scale (+ b * scale)`` — so the block runs
    as a single conv + ReLU with no separate normalization pass over the
    feature maps.  The fold is recomputed from the live parameters on each
    call (it is O(C_out * C_in * K), negligible next to the conv itself),
    so it can never serve stale statistics after ``load_state_dict`` or a
    train/eval round-trip.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, seed: int):
        super().__init__()
        self.conv = nn.Conv1d(in_channels, out_channels, kernel_size, seed=seed)
        self.norm = nn.BatchNorm1d(out_channels)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training and not is_grad_enabled():
            return self._forward_folded(x)
        return self.norm(self.conv(x)).relu()

    @hot_path
    def _forward_folded(self, x: Tensor) -> Tensor:
        conv = self.conv
        scale, shift = fold_batch_norm(conv, self.norm)
        # The folded weight is only read inside the conv call, so it can
        # come from the active buffer pool like the conv scratch does —
        # steady-state fused serving re-folds into a recycled buffer.
        folded = nn.backend.scratch(conv.weight.shape, conv.weight.dtype)
        np.multiply(conv.weight.data, scale[:, None, None], out=folded)
        # Single fused backend call: the conv GEMM applies the folded
        # scale/shift and the ReLU in its epilogue, in the pooled output
        # buffer — same bits as conv + bias + relu staged separately.
        out = nn.backend.conv1d_fused(
            x.data, folded, shift=shift, stride=conv.stride, padding=conv.padding
        )
        return Tensor(out)


class ResUnit(nn.Module):
    """Residual unit: three ConvBlocks with kernels (k_p, 5, 3) + shortcut."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, seed: int):
        super().__init__()
        self.block1 = ConvBlock(in_channels, out_channels, kernel_size, seed)
        self.block2 = ConvBlock(out_channels, out_channels, 5, seed + 1)
        self.block3 = ConvBlock(out_channels, out_channels, 3, seed + 2)
        if in_channels != out_channels:
            self.shortcut: Optional[nn.Conv1d] = nn.Conv1d(
                in_channels, out_channels, 1, seed=seed + 3
            )
        else:
            self.shortcut = None

    def forward(self, x: Tensor) -> Tensor:
        out = self.block3(self.block2(self.block1(x)))
        residual = self.shortcut(x) if self.shortcut is not None else x
        return (out + residual).relu()


class ResNetTSC(nn.Module):
    """The full classifier: 3 residual units -> GAP -> linear -> logits.

    :meth:`features` exposes the pre-GAP feature maps so that
    :mod:`repro.core.cam` can compute class activation maps.
    """

    def __init__(self, config: ResNetConfig = ResNetConfig()):
        super().__init__()
        self.config = config
        f1, f2, f3 = config.filters
        base = config.seed * 100
        self.unit1 = ResUnit(config.in_channels, f1, config.kernel_size, base + 10)
        self.unit2 = ResUnit(f1, f2, config.kernel_size, base + 20)
        self.unit3 = ResUnit(f2, f3, config.kernel_size, base + 30)
        self.head = nn.Linear(f3, config.n_classes, seed=base + 40)

    @property
    def kernel_size(self) -> int:
        return self.config.kernel_size

    def features(self, x: Tensor) -> Tensor:
        """Last conv feature maps, shape ``(N, C, L)``."""
        return self.unit3(self.unit2(self.unit1(x)))

    def forward(self, x: Tensor) -> Tensor:
        """Class logits ``(N, n_classes)`` from input ``(N, 1, L)``."""
        logits, _ = self.forward_with_features(x)
        return logits

    def forward_with_features(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        """Return ``(logits, feature_maps)`` in one pass.

        This is the fused entry point of the serving hot path: the feature
        maps feed the CAM (Definition II.1) while the logits feed the
        detection probability, so localization never has to run the conv
        stack twice per window.
        """
        feats = self.features(x)
        pooled = nn.functional.global_avg_pool1d(feats)
        return self.head(pooled), feats


def ensemble_conv_shapes(
    filters: Sequence[int] = DEFAULT_FILTERS,
    kernel_set: Sequence[int] = DEFAULT_KERNEL_SET,
    in_channels: int = 1,
) -> List[Tuple[int, int, int]]:
    """Distinct ``(C_in, C_out, K)`` conv signatures of an Algorithm-1 ensemble.

    Enumerates every convolution executed by a CamAL ensemble built from
    ``kernel_set`` members with the given residual-unit ``filters`` — the
    member-specific ``k_p`` blocks, the fixed kernel-5/kernel-3 blocks and
    the 1x1 shortcuts.  ``benchmarks/bench_nn_ops.py`` uses the paper
    preset's inventory as its Table-II workload.
    """
    f1, f2, f3 = filters
    shapes = set()
    for k_p in kernel_set:
        for c_in, c_out in ((in_channels, f1), (f1, f2), (f2, f3)):
            shapes.add((c_in, c_out, k_p))  # block1 of each unit
            shapes.add((c_out, c_out, 5))  # block2
            shapes.add((c_out, c_out, 3))  # block3
            if c_in != c_out:
                shapes.add((c_in, c_out, 1))  # shortcut
    return sorted(shapes)
