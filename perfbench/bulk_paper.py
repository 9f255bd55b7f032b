"""bulk-paper: in-process ``InferenceEngine.score_store`` at the paper's width.

Why this workload: the traced plan replay (GEMM plus im2col gather) is
about 99.9% of the time here, at the width the paper reports (Table II:
five members, kernels 5/7/9/15/25, filters 64/128/128).  Forward-kernel
and buffer work shows here, while server-layer changes should leave it
unchanged.

Store: a seeded UK-DALE-like corpus (1-minute sampling) ingested with
``ingest_corpus``.  Every household holds 0.75 days, 1080 samples: 16
windows of 128 at stride 64.  Engine: window 128, stride 64 and an
explicit 16-window micro-batch (the default of 256 does not fit in
memory at this width), so every chunk replays the plan warm-up traced.
One operation is one household out of ``score_store``; passes over the
store repeat until the time is up.  Each household's output is checked
bit for bit against ``InferenceEngine.run`` on its materialized series.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass
from hashlib import blake2b
from typing import Dict, List, Tuple

import numpy as np

from repro import simdata as sd
from repro.core import CamAL, ResNetConfig, ResNetEnsemble, ResNetTSC
from repro.data import MeterStore, ingest_corpus
from repro.serving import EngineConfig, InferenceEngine

from . import common, probes
from .spans import Tracer, named, self_times

APPLIANCE = "kettle"
KERNELS = (5, 7, 9, 15, 25)
FILTERS = (64, 128, 128)
WINDOW = 128
STRIDE = 64
MICRO_BATCH = 16
HOUSE_DAYS = 0.75
#: Set-ups per run; setup_s is the median of their fastest quarter.
SETUPS = 5


@dataclass
class Setup:
    store: MeterStore
    engine: InferenceEngine
    seconds: float
    ingest_samples_per_s: float


def set_up(seed: int, houses: int, work: str) -> Setup:
    """Corpus, ingest, paper-width fleet, engine warm-up (traces the plan)."""
    start = time.perf_counter()
    corpus = sd.ukdale_like(days=HOUSE_DAYS, n_houses=houses, seed=seed)
    ingest_start = time.perf_counter()
    store = ingest_corpus(corpus, os.path.join(work, "store"))
    ingest_s = time.perf_counter() - ingest_start
    models = [
        ResNetTSC(ResNetConfig(kernel_size=k, filters=FILTERS, seed=seed * 100 + i))
        for i, k in enumerate(KERNELS)
    ]
    camal = CamAL(
        ResNetEnsemble(models).eval(),
        detection_threshold=0.0,
        power_gate_watts=sd.get_spec(APPLIANCE).on_threshold_watts,
    )
    engine = InferenceEngine(EngineConfig(window=WINDOW, stride=STRIDE, batch_size=MICRO_BATCH))
    engine.register(APPLIANCE, camal)
    engine.warmup()
    return Setup(store, engine, time.perf_counter() - start, store.total_samples() / ingest_s)


def _digest(scores) -> bytes:
    out = scores.per_appliance[APPLIANCE]
    return blake2b(out.soft_status.tobytes() + out.status.tobytes(), digest_size=16).digest()


def score(setup: Setup, seconds: float) -> Tuple[List[Tuple[str, bytes, int, float, float]], float]:
    """Households out of ``score_store`` until ``seconds`` have passed.

    Returns ``(house_id, digest, windows, began, ended)`` per household and
    the loop's start time.
    """
    done = []
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        households = setup.engine.score_store(setup.store)
        while time.perf_counter() < deadline:
            began = time.perf_counter()
            item = next(households, None)
            if item is None:
                break
            ended = time.perf_counter()
            house_id, scores = item
            done.append((house_id, _digest(scores), scores.plan.n_windows, began, ended))
        households.close()
    return done, start


def reference(setup: Setup) -> Dict[str, bytes]:
    """``run`` on each household's materialized series (gaps read as 0 W)."""
    expected = {}
    for house_id in setup.store.house_ids:
        series = np.array(setup.store.read_channel(house_id, "aggregate"))
        expected[house_id] = _digest(setup.engine.run(series))
    return expected


def _engine_counters(engine: InferenceEngine) -> Dict[str, int]:
    plan = engine.plan_stats().values()
    pools = engine.buffer_pool_stats().values()
    return {
        "traces": sum(p["traces"] for p in plan),
        "fallbacks": sum(p["fallbacks"] for p in plan),
        "fresh_allocations": sum(p["fresh_allocations"] for p in pools),
    }


def span_metrics(spans, households: int, windows: int, peak_gflops: float) -> Dict[str, float]:
    own = self_times(spans)
    camal = named(spans, "localization.localize")
    forward = named(spans, "ensemble.forward_fused")
    reads = named(spans, "store.read_channel")
    layers = common.forward_layers(
        forward_s=sum(s.duration for s in forward),
        forward_rows=sum(s.attrs["rows"] for s in forward),
        gemms=sum(s.attrs["gemms"] for s in camal),
        windows=windows,
        flops_per_window=common.conv_flops_per_window(FILTERS, KERNELS, WINDOW),
        peak_gflops=peak_gflops,
    )
    layers.update({
        "engine.lock_ms": common.mean([own[s.id] for s in named(spans, "engine.localize_windows")]) * 1e3,
        "engine.store_other_ms": common.mean([own[s.id] for s in named(spans, "engine.score_store")]) * 1e3,
        "localization.post_ms": common.mean([own[s.id] for s in camal]) * 1e3,
        "store.read_ms": sum(s.duration for s in reads) / households * 1e3,
        "store.read_mb": sum(s.attrs["bytes"] for s in reads) / households / 2**20,
    })
    return layers


def run(args, work: str, trace: bool, setups: int, peak_gflops: float) -> common.Outcome:
    """One measured phase: ``setups`` set-ups, then ``args.seconds`` of scoring."""
    setup_times = []
    setup = None
    for i in range(setups):
        setup = None  # release the previous engine before building the next
        target = os.path.join(work, f"setup{i}")
        shutil.rmtree(os.path.join(work, f"setup{i - 1}"), ignore_errors=True)
        setup = set_up(args.seed, args.houses, target)
        setup_times.append(setup.seconds)

    before = _engine_counters(setup.engine)
    tracer = Tracer() if trace else None
    if tracer is not None:
        probes.install_engine_probes(tracer)
        probes.install_store_probes(tracer)
    try:
        done, start = score(setup, args.seconds)
    finally:
        if tracer is not None:
            tracer.restore()
    after = _engine_counters(setup.engine)
    peak_rss = common.own_peak_rss_mib()

    expected = reference(setup)
    mismatches = sum(1 for house_id, digest, *_ in done if digest != expected[house_id])
    windows = sum(n for _, _, n, _, _ in done)
    figures, notes = common.fast_figures(common.slices(
        start, [(ended, n, (ended - began) * 1e3) for _, _, n, began, ended in done]
    ))
    outcome = common.Outcome(
        end_to_end={
            **figures,
            "setup_s": common.fast_median(setup_times),
            "peak_rss_mb": peak_rss,
        },
        attempted=len(done),
        failed=mismatches,
        mismatches=mismatches,
        notes={**notes, "setup_samples": setup_times},
    )
    outcome.layers = {
        "plan.traces_timed": after["traces"] - before["traces"],
        "plan.fallbacks": after["fallbacks"] - before["fallbacks"],
        "backend.pool_fresh_allocs": after["fresh_allocations"] - before["fresh_allocations"],
        "ingest.samples_per_s": setup.ingest_samples_per_s,
    }
    if tracer is not None:
        outcome.spans = tracer.spans
        outcome.layers.update(span_metrics(tracer.spans, len(done), windows, peak_gflops))
    return outcome
