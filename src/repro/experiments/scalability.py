"""Fig. 7: training-time and inference-throughput comparisons.

* 7(a): total training time per method, averaged over cases.
* 7(b): per-epoch training time versus the number of households, using the
  paper's protocol — white-noise consumption series of length 17520
  (30-minute sampling for one year), strongly supervised methods sliced
  into w-length windows, weakly supervised ones trained per window too.
* 7(c): single-CPU inference throughput (windows/second) versus input
  length.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..nn.tensor import Tensor
from ..training import predict_status_seq2seq
from .config import Preset
from .reporting import render_series, render_table
from .. import api
from .runner import run_model, case_windows, build_corpus


# ----------------------------------------------------------------------
# 7(a) average training time — reuses CaseResult.train_seconds
# ----------------------------------------------------------------------
@dataclass
class TrainingTimeResult:
    seconds_per_method: Dict[str, float]

    def render(self) -> str:
        rows = sorted(self.seconds_per_method.items(), key=lambda kv: kv[1])
        return render_table(
            ["Method", "Train time (s)"],
            [[name, seconds] for name, seconds in rows],
            title="Fig. 7a — average training time",
        )


def run_training_times(
    preset: Preset,
    cases: Sequence[Tuple[str, str]],
    methods: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> TrainingTimeResult:
    """Average wall-clock training time of each method over ``cases``.

    Every method trains confined to one CPU, as each baseline trains on
    one: CamAL would otherwise train two Algorithm-1 candidates at a time
    (:func:`repro.core.train_ensemble`'s lanes).
    """
    methods = list(
        methods
        or ["CamAL", "CRNN-weak", "CRNN", "BiGRU", "UNet-NILM", "TPNILM", "TransNILM"]
    )
    corpora = {}
    times: Dict[str, List[float]] = {m: [] for m in methods}
    with _on_one_cpu():
        for corpus_name, appliance in cases:
            if corpus_name not in corpora:
                corpora[corpus_name] = build_corpus(corpus_name, preset, seed)
            case = case_windows(corpora[corpus_name], appliance, preset.window, split_seed=seed)
            for method in methods:
                result = run_model(method, case, preset, seed=seed)
                times[method].append(result.train_seconds)
    return TrainingTimeResult(
        seconds_per_method={m: float(np.mean(ts)) for m, ts in times.items()}
    )


# ----------------------------------------------------------------------
# 7(b) per-epoch time vs number of households (white-noise protocol)
# ----------------------------------------------------------------------
def white_noise_households(
    n_households: int, series_length: int = 17_520, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """The paper's synthetic scalability workload: random consumption data
    with per-timestamp ground truth, one series of ``series_length`` per
    household (length 17520 = one year at 30-minute sampling)."""
    rng = np.random.default_rng(seed)
    x = rng.random((n_households, series_length)).astype(np.float32)
    s = (rng.random((n_households, series_length)) > 0.5).astype(np.float32)
    return x, s


@dataclass
class EpochTimeResult:
    window: int
    series: Dict[str, List[Tuple[int, float]]]  # method -> [(households, s/epoch)]

    def render(self) -> str:
        lines = ["Fig. 7b — per-epoch training time vs households"]
        for method, points in self.series.items():
            lines.append(
                render_series(
                    f"  {method}", [p[0] for p in points], [round(p[1], 3) for p in points]
                )
            )
        return "\n".join(lines)


def run_epoch_times(
    preset: Preset,
    household_counts: Sequence[int],
    methods: Optional[Sequence[str]] = None,
    series_length: int = 17_520,
    batch_size: int = 64,
    seed: int = 0,
) -> EpochTimeResult:
    """Measure one training epoch per method and household count (7b)."""
    from ..core.resnet import ResNetConfig, ResNetTSC
    from ..nn import functional as F

    methods = list(
        methods or ["CamAL", "CRNN-weak", "CRNN", "BiGRU", "UNet-NILM", "TPNILM", "TransNILM"]
    )
    window = preset.window
    series: Dict[str, List[Tuple[int, float]]] = {m: [] for m in methods}
    for count in household_counts:
        x_raw, s_raw = white_noise_households(count, series_length, seed)
        n_windows = series_length // window
        x = x_raw[:, : n_windows * window].reshape(-1, window)
        s = s_raw[:, : n_windows * window].reshape(-1, window)
        y = (s.max(axis=1) > 0).astype(np.float32)
        for method in methods:
            if method == "CamAL":
                model = ResNetTSC(
                    ResNetConfig(
                        kernel_size=preset.kernel_set[0], filters=preset.resnet_filters
                    )
                )
            else:
                model = api.create(
                    method, scale=preset.baseline_scale, seed=seed
                ).network
            optimizer = nn.Adam(model.parameters(), lr=1e-3)
            start = time.perf_counter()
            for begin in range(0, len(x), batch_size):
                xb = Tensor(x[begin : begin + batch_size][:, None, :])
                if method == "CamAL":
                    loss = F.cross_entropy(model(xb), y[begin : begin + batch_size].astype(np.int64))
                elif method == "CRNN-weak":
                    loss = F.binary_cross_entropy_with_logits(
                        model.forward_weak(xb), y[begin : begin + batch_size]
                    )
                else:
                    loss = F.binary_cross_entropy_with_logits(
                        model(xb), s[begin : begin + batch_size]
                    )
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
            elapsed = time.perf_counter() - start
            if method == "CamAL":
                # Algorithm 1 trains |kernel_set| x n_trials networks.
                elapsed *= len(preset.kernel_set) * preset.n_trials
            series[method].append((count, elapsed))
    return EpochTimeResult(window=window, series=series)


# ----------------------------------------------------------------------
# 7(c) inference throughput vs input length
# ----------------------------------------------------------------------
@dataclass
class ThroughputResult:
    series: Dict[str, List[Tuple[int, float]]]  # method -> [(length, windows/s)]

    def render(self) -> str:
        lines = ["Fig. 7c — inference throughput (windows/s) vs input length"]
        for method, points in self.series.items():
            lines.append(
                render_series(
                    f"  {method}", [p[0] for p in points], [round(p[1], 1) for p in points]
                )
            )
        return "\n".join(lines)


#: Timed calls per method and input length; the fastest one counts.
_THROUGHPUT_REPEATS = 5


def _inference_call(method: str, preset: Preset, seed: int):
    """``method``'s full inference path as a ``fn(windows)`` callable.

    CamAL's includes the ensemble forward passes plus CAM extraction and
    the attention module (every window counts as detected).
    """
    from ..core import CamAL, ResNetEnsemble
    from ..core.resnet import ResNetConfig, ResNetTSC

    if method == "CamAL":
        models = [
            ResNetTSC(ResNetConfig(kernel_size=k, filters=preset.resnet_filters))
            for k in preset.kernel_set[: preset.n_models]
        ]
        for model in models:
            model.eval()
        return CamAL(ResNetEnsemble(models), detection_threshold=-1.0).localize
    model = api.create(method, scale=preset.baseline_scale, seed=seed).network
    model.eval()
    return lambda x: predict_status_seq2seq(model, x)


@contextlib.contextmanager
def _on_one_cpu():
    """Confine the calling thread to one of its CPUs for the block."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def run_throughput(
    preset: Preset,
    input_lengths: Sequence[int],
    methods: Optional[Sequence[str]] = None,
    n_windows: int = 32,
    seed: int = 0,
) -> ThroughputResult:
    """Measure warm inference throughput per method and input length (7c).

    Each method first gets one untimed call, which is where CamAL traces
    and validates its execution plan; then the fastest of
    ``_THROUGHPUT_REPEATS`` calls counts, with the methods interleaved so
    machine drift hits them alike.  The paper's Fig. 7c is single-CPU, so
    the calling thread is confined to one CPU throughout, the tracing
    call included: CamAL's plans then run on one lane
    (:func:`repro.nn.plan.plan_lanes`).
    """
    methods = list(
        methods or ["CamAL", "CRNN-weak", "CRNN", "BiGRU", "UNet-NILM", "TPNILM", "TransNILM"]
    )
    rng = np.random.default_rng(seed)
    series: Dict[str, List[Tuple[int, float]]] = {m: [] for m in methods}
    with _on_one_cpu():
        for length in input_lengths:
            x = rng.random((n_windows, length)).astype(np.float32)
            calls = {method: _inference_call(method, preset, seed) for method in methods}
            for call in calls.values():
                call(x)
            best = dict.fromkeys(methods, float("inf"))
            for _ in range(_THROUGHPUT_REPEATS):
                for method, call in calls.items():
                    start = time.perf_counter()
                    call(x)
                    best[method] = min(best[method], time.perf_counter() - start)
            for method in methods:
                series[method].append((length, n_windows / max(best[method], 1e-9)))
    return ThroughputResult(series=series)
