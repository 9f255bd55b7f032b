"""Slicing long series into windows and stitching window scores back.

The paper evaluates CamAL on pre-cut windows; deployment sees one long
aggregate series per household.  The bridge has two halves:

* **slicing** — a :class:`SlidingWindowPlan` describes how a series of
  ``series_length`` samples is covered by windows of length ``window``
  taken every ``stride`` samples.  The tail is never dropped: the series
  is edge-padded so the final window still ends on real data repeated at
  the boundary, and every timestamp is covered by at least one window.
  Slicing itself is a zero-copy ``sliding_window_view`` over the padded
  buffer.

* **stitching** — per-window, per-timestamp scores (soft status, CAM)
  come back as ``(n_windows, window)`` arrays.  With ``stride < window``
  a timestamp is scored by several windows; one stitcher averages those
  votes (:func:`stitch_mean` over a whole batch, the store path chunk by
  chunk), which removes the hard artifacts a localization exhibits
  at window boundaries (a window that cuts an activation in half sees
  only part of its signature).  Thresholding the stitched *soft* score —
  rather than voting on per-window *binary* statuses — is what the ADF
  framing of TransApp (Petralia et al., 2024) calls score-level
  recomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class SlidingWindowPlan:
    """How a 1-D series is covered by (possibly overlapping) windows."""

    series_length: int  # real samples in the input series
    window: int  # window length L
    stride: int  # hop between consecutive window starts
    n_windows: int  # number of windows covering the padded series
    pad_right: int  # edge-padding samples appended to the series

    @property
    def padded_length(self) -> int:
        return self.series_length + self.pad_right

    def window_start(self, index: int) -> int:
        """Start sample (within the padded series) of window ``index``."""
        return index * self.stride

    def coverage_counts(self) -> np.ndarray:
        """How many windows cover each *real* timestamp, shape ``(T,)``."""
        counts = np.zeros(self.padded_length, dtype=np.int64)
        for i in range(self.n_windows):
            start = self.window_start(i)
            counts[start : start + self.window] += 1
        return counts[: self.series_length]


def plan_windows(
    series_length: int, window: int, stride: int | None = None
) -> SlidingWindowPlan:
    """Build the :class:`SlidingWindowPlan` for a series.

    Args:
        series_length: number of samples in the series (must be positive).
        window: window length; series shorter than this are padded up to
            one full window.
        stride: hop between window starts; defaults to ``window``
            (non-overlapping).  Must satisfy ``1 <= stride <= window`` or
            some timestamps would be covered by no window at all.
    """
    stride = window if stride is None else stride
    if series_length <= 0:
        raise ValueError(f"series_length must be positive, got {series_length}")
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if not 1 <= stride <= window:
        raise ValueError(
            f"stride must be in [1, window={window}] for full coverage, got {stride}"
        )
    if series_length <= window:
        n_windows = 1
    else:
        n_windows = int(np.ceil((series_length - window) / stride)) + 1
    padded_length = (n_windows - 1) * stride + window
    return SlidingWindowPlan(
        series_length=series_length,
        window=window,
        stride=stride,
        n_windows=n_windows,
        pad_right=padded_length - series_length,
    )


def slice_windows(series: np.ndarray, plan: SlidingWindowPlan) -> np.ndarray:
    """Cut ``series`` into ``(n_windows, window)`` following ``plan``.

    The tail is edge-padded (last real sample repeated) rather than
    dropped, so the result covers every input timestamp.  Slicing is a
    strided view — windows share the padded buffer, no per-window copies.
    """
    series = np.asarray(series, dtype=np.float32)
    if series.ndim != 1:
        raise ValueError(f"expected a 1-D series, got shape {series.shape}")
    if len(series) != plan.series_length:
        raise ValueError(
            f"series has {len(series)} samples but plan expects {plan.series_length}"
        )
    if plan.pad_right:
        series = np.pad(series, (0, plan.pad_right), mode="edge")
    return sliding_window_view(series, plan.window)[:: plan.stride]


class _Stitcher:
    """The overlap-mean stitcher, fed window chunks in window order.

    :func:`stitch_mean` feeds it a whole batch at once and
    ``InferenceEngine.score_store`` one chunk at a time; either way the
    bits are the same.  With ``stride == window`` it concatenates float32
    rows; otherwise it accumulates float64 sums in window order and
    divides once by the coverage counts.
    """

    def __init__(self, plan: SlidingWindowPlan):
        self.plan = plan
        self._flat = self._sums = None
        if plan.stride == plan.window:
            self._flat = np.zeros(plan.padded_length, dtype=np.float32)
        else:
            self._sums = np.zeros(plan.padded_length, dtype=np.float64)

    def add(self, first_window: int, values: np.ndarray) -> None:
        """Fold in the scores of windows ``first_window, first_window + 1, ...``."""
        start = self.plan.window_start(first_window)
        if self._flat is not None:
            self._flat[start : start + values.size] = values.reshape(-1)
            return
        for row in values:
            self._sums[start : start + self.plan.window] += row
            start += self.plan.stride

    def finalize(self) -> np.ndarray:
        """The stitched ``(T,)`` float32 series; padded samples dropped."""
        n = self.plan.series_length
        if self._flat is not None:
            return self._flat[:n].copy()
        return (self._sums[:n] / self.plan.coverage_counts()).astype(np.float32)


def stitch_mean(values: np.ndarray, plan: SlidingWindowPlan) -> np.ndarray:
    """Average per-window scores back onto the series, shape ``(T,)``.

    Each real timestamp receives the mean of the scores of every window
    covering it; padded samples are discarded.  For ``stride == window``
    this is a plain concatenation crop.
    """
    values = np.asarray(values, dtype=np.float32)
    if values.shape != (plan.n_windows, plan.window):
        raise ValueError(
            f"expected scores of shape {(plan.n_windows, plan.window)}, "
            f"got {values.shape}"
        )
    stitcher = _Stitcher(plan)
    stitcher.add(0, values)
    return stitcher.finalize()
