"""train-small: Algorithm 1 (``train_ensemble``, serial) at the registry's small scale.

Why this workload: it runs the same conv and BN layers as the serving
workloads, but in grad mode with backward passes and optimizer steps.
A serving change that taxes training shows up here as a regression --
a BN-fold version counter bumped on every step, say, or a deleted kernel
path that training still uses.

Scale: the ``small`` CamAL preset -- kernels 3/5/9, filters 32/64/64,
one trial each, three models kept.  Data: weakly labelled windows of 128
samples read through ``StreamingWindows`` from a seeded, ingested
UK-DALE-like store; a seeded draw of a fixed number of training and
validation windows, so every seed trains the same amount.  Schedule: a
fixed number of epochs, patience 0.  One operation is one
``train_ensemble`` run; runs repeat until the time is up.  Each run must
give finite losses and parameters, an ensemble of the configured size,
and the same validation losses as the first run.
"""

from __future__ import annotations

import importlib
import math
import os
import shutil
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro import simdata as sd
from repro.core import EnsembleConfig
from repro.data import StreamingWindows, ingest_corpus
from repro.training import TrainConfig

from . import common, probes
from .spans import Tracer, named

APPLIANCE = "kettle"
KERNELS = (3, 5, 9)
FILTERS = (32, 64, 64)
N_MODELS = 3
WINDOW = 128
BATCH = 16
HOUSES = 3
#: Set-ups per run; setup_s is the median of their fastest quarter.  Each
#: takes tens of milliseconds, so many are needed to steady it.
SETUPS = 15
#: Store days per needed window: gaps drop some windows, so ask for half again.
_DAYS_PER_WINDOW = 1.5 * WINDOW / (HOUSES * 1440)


@dataclass
class Setup:
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    seconds: float
    ingest_samples_per_s: float
    streaming_windows_per_s: float


def set_up(seed: int, n_train: int, n_val: int, work: str) -> Setup:
    """Corpus, ingest, ``StreamingWindows`` and a seeded draw of windows."""
    start = time.perf_counter()
    days = max(1.0, (n_train + n_val) * _DAYS_PER_WINDOW)
    corpus = sd.ukdale_like(days=days, n_houses=HOUSES, seed=seed)
    ingest_start = time.perf_counter()
    store = ingest_corpus(corpus, os.path.join(work, "store"))
    ingest_s = time.perf_counter() - ingest_start
    stream_start = time.perf_counter()
    windows = StreamingWindows(store, APPLIANCE, window=WINDOW)
    inputs, weak = windows.inputs, windows.weak
    stream_s = time.perf_counter() - stream_start
    if len(windows) < n_train + n_val:
        raise RuntimeError(f"store yields {len(windows)} windows, need {n_train + n_val}")
    order = windows.shuffled_indices(seed)
    train, val = order[:n_train], order[n_train : n_train + n_val]
    return Setup(
        inputs[train], weak[train], inputs[val], weak[val],
        time.perf_counter() - start,
        store.total_samples() / ingest_s,
        len(windows) / stream_s,
    )


def config(seed: int, epochs: int) -> EnsembleConfig:
    return EnsembleConfig(
        kernel_set=KERNELS,
        n_trials=1,
        n_models=N_MODELS,
        filters=FILTERS,
        train=TrainConfig(epochs=epochs, batch_size=BATCH, patience=0, seed=seed),
        seed=seed,
    )


def _run_is_sound(ensemble, candidates, first_losses) -> bool:
    losses = [c.val_loss for c in candidates]
    finite = all(math.isfinite(loss) for loss in losses) and all(
        np.isfinite(p.data).all() for model in ensemble.models for p in model.parameters()
    )
    return finite and len(ensemble) == N_MODELS and losses == first_losses


def span_metrics(spans, runs: int, candidates: List[float]) -> Dict[str, float]:
    grad_forward = [s for s in named(spans, "training.forward") if s.attrs["grad"]]
    total = sum(s.duration for s in named(spans, "training.train_ensemble"))
    return {
        "training.forward_ms": common.mean([s.duration for s in grad_forward]) * 1e3,
        "training.backward_ms": common.mean(
            [s.duration for s in named(spans, "training.backward")]
        ) * 1e3,
        "training.step_ms": common.mean([s.duration for s in named(spans, "training.step")]) * 1e3,
        "training.select_s": (total - sum(candidates)) / runs,
    }


def run(args, work: str, trace: bool, setups: int, peak_gflops: float) -> common.Outcome:
    """One measured phase: a set-up, then ``args.seconds`` of training.

    The other ``setups - 1`` set-ups run one after each timed Algorithm-1
    run, outside its timing.  Each takes tens of milliseconds, so set-ups
    made back to back would all see the same few moments of a shared box;
    spread over the run, their fastest quarter falls where the run's does.
    """
    algorithm1 = importlib.import_module("repro.core.ensemble")
    tracer = Tracer() if trace else None

    def fresh_setup() -> Setup:
        i = len(setup_times)
        shutil.rmtree(os.path.join(work, f"setup{i - 1}"), ignore_errors=True)
        made = set_up(args.seed, args.train_windows, args.val_windows, os.path.join(work, f"setup{i}"))
        setup_times.append(made.seconds)
        return made

    setup_times: List[float] = []
    if tracer is not None:
        probes.install_store_probes(tracer)
    setup = fresh_setup()
    if tracer is not None:
        tracer.restore()
        reads = named(tracer.spans, "store.read_channel")
        store_layers = {
            "store.read_ms": sum(s.duration for s in reads) * 1e3,
            "store.read_mb": sum(s.attrs["bytes"] for s in reads) / 2**20,
        }
        tracer.spans.clear()
        probes.install_training_probes(tracer)

    ensemble_config = config(args.seed, args.epochs)
    # Windows one Algorithm-1 run trains: candidates x training windows x epochs.
    per_run = len(KERNELS) * len(setup.x_train) * args.epochs
    durations, candidate_s, failed = [], [], 0
    first_losses = None
    deadline = time.perf_counter() + args.seconds
    try:
        while time.perf_counter() < deadline:
            begin = time.perf_counter()
            ensemble, candidates = algorithm1.train_ensemble(
                setup.x_train, setup.y_train, setup.x_val, setup.y_val, ensemble_config
            )
            durations.append(time.perf_counter() - begin)
            candidate_s += [c.wall_time_seconds for c in candidates]
            if first_losses is None:
                first_losses = [c.val_loss for c in candidates]
            failed += not _run_is_sound(ensemble, candidates, first_losses)
            if len(setup_times) < setups:
                fresh_setup()
    finally:
        if tracer is not None:
            tracer.restore()

    # Each Algorithm-1 run is a slice of its own: the set-ups between runs stay out.
    figures, notes = common.fast_figures([(per_run / s, [s * 1e3]) for s in durations])
    outcome = common.Outcome(
        end_to_end={
            **figures,
            "setup_s": common.fast_median(setup_times),
            "peak_rss_mb": common.own_peak_rss_mib(),
        },
        attempted=len(durations),
        failed=failed,
        mismatches=failed,
        notes={**notes, "setup_samples": setup_times},
    )
    outcome.layers = {
        "training.candidate_s": common.mean(candidate_s),
        "ingest.samples_per_s": setup.ingest_samples_per_s,
        "streaming.windows_per_s": setup.streaming_windows_per_s,
        "plan.gflop_per_window": common.conv_flops_per_window(FILTERS, KERNELS, WINDOW) / 1e9,
        "backend.sgemm_peak_gflops": peak_gflops,
    }
    if tracer is not None:
        outcome.spans = tracer.spans
        outcome.layers.update(store_layers)
        outcome.layers.update(span_metrics(tracer.spans, len(durations), candidate_s))
    return outcome
