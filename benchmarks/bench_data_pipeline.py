"""Data-pipeline benchmark: ingest throughput, streamed vs. in-memory
windows, and the bounded-memory store-serving contract.

Three stories, one JSON report with per-stage ``rows``:

* **ingest** — corpus -> sharded store (``repro.data.ingest_corpus``),
  measured in samples/second, plus the bit-identical round-trip check
  (store reads == in-memory ``resample`` + ``forward_fill``);
* **windows** — iterating every training window through a ``DataLoader``
  from :class:`~repro.data.StreamingWindows` (memory-mapped shards)
  vs. the in-memory pipeline (slice + ``TensorDataset``), in windows/s;
* **scoring** — :meth:`InferenceEngine.score_store` vs.
  :meth:`InferenceEngine.run` on the materialized series: outputs must be
  bit-identical while the streamed path's peak memory (``tracemalloc``)
  stays bounded by shard-sized chunks instead of the full
  ``(n_windows, window)`` batch the run path materializes.

Run standalone for the JSON report::

    PYTHONPATH=src python benchmarks/bench_data_pipeline.py

``--smoke`` shrinks the config for CI and additionally asserts the
peak-memory bound; ``--store DIR`` reuses an already-ingested store (the
cached CI fixture) for the windows/scoring stages instead of ingesting a
fresh corpus.  Through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_data_pipeline.py -s
"""

import json
import os
import sys
import tempfile
import time
import tracemalloc

import numpy as np

from repro import simdata as sd
from repro.core import CamAL, ResNetConfig, ResNetEnsemble, ResNetTSC
from repro.data import IngestConfig, MeterStore, StreamingWindows, ingest_corpus
from repro.experiments.runner import house_windows
from repro.nn.data import DataLoader, TensorDataset
from repro.serving import EngineConfig, InferenceEngine

WINDOW = 128
STRIDE = WINDOW // 16  # heavy overlap: the regime where run() batches balloon
SHARD_LENGTH = 2048
BATCH_SIZE = 16


def _corpus(smoke: bool) -> sd.Corpus:
    if smoke:
        return sd.ukdale_like(days=6.0, n_houses=3, seed=0)
    return sd.ukdale_like(days=21.0, n_houses=5, seed=0)


def _tiny_camal() -> CamAL:
    models = [
        ResNetTSC(ResNetConfig(kernel_size=k, filters=(4, 8, 8), seed=k))
        for k in (3, 5)
    ]
    return CamAL(ResNetEnsemble(models).eval(), power_gate_watts=100.0)


def _round_trip_identical(store: MeterStore, corpus: sd.Corpus) -> bool:
    for house in corpus.houses:
        expected = sd.forward_fill(house.aggregate, corpus.max_ffill_samples)
        if not np.array_equal(expected, store.aggregate(house.house_id), equal_nan=True):
            return False
    return True


def _bench_ingest(corpus: sd.Corpus, store_dir: str) -> dict:
    start = time.perf_counter()
    store = ingest_corpus(
        corpus, store_dir, IngestConfig(shard_length=SHARD_LENGTH)
    )
    seconds = time.perf_counter() - start
    total = store.total_samples()
    return {
        "stage": "ingest",
        "households": len(store),
        "samples": total,
        "seconds": seconds,
        "samples_per_second": total / seconds,
        "round_trip_identical": _round_trip_identical(store, corpus),
    }


def _drain(loader: DataLoader) -> int:
    count = 0
    for batch in loader:
        count += len(batch[0])
    return count


def _bench_windows(store: MeterStore, corpus: sd.Corpus) -> dict:
    streamed = StreamingWindows(store, "kettle", window=WINDOW)
    start = time.perf_counter()
    n_streamed = _drain(DataLoader(streamed, batch_size=64, shuffle=True, seed=0))
    streamed_seconds = time.perf_counter() - start

    # In-memory pipeline: preprocess + slice + iterate (what every run
    # re-paid before the store existed).
    start = time.perf_counter()
    pool = sd.concat_window_sets(
        [house_windows(corpus, "kettle", hid, WINDOW) for hid in corpus.house_ids]
    )
    dataset = TensorDataset(pool.inputs, pool.strong, pool.weak)
    n_memory = _drain(DataLoader(dataset, batch_size=64, shuffle=True, seed=0))
    memory_seconds = time.perf_counter() - start

    return {
        "stage": "windows",
        "n_windows": n_streamed,
        "streamed_seconds": streamed_seconds,
        "streamed_windows_per_second": n_streamed / streamed_seconds,
        "in_memory_seconds": memory_seconds,
        "in_memory_windows_per_second": n_memory / memory_seconds,
        "counts_match": n_streamed == n_memory,
    }


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _bench_scoring(store: MeterStore, smoke: bool) -> dict:
    def build_engine() -> InferenceEngine:
        engine = InferenceEngine(
            EngineConfig(window=WINDOW, stride=STRIDE, batch_size=BATCH_SIZE)
        )
        return engine.register("kettle", _tiny_camal())

    house_id = max(store.house_ids, key=store.n_samples)
    n = store.n_samples(house_id)
    series = np.array(store.read_channel(house_id, "aggregate"))  # gaps as 0 W

    engine = build_engine()
    streamed = {}

    def run_streamed():
        streamed["scores"] = dict(engine.score_store(store, house_ids=[house_id]))

    peak_streamed = _peak_bytes(run_streamed)

    full_engine = build_engine()
    materialized = {}

    def run_full():
        materialized["result"] = full_engine.run(series)

    peak_full = _peak_bytes(run_full)

    got = streamed["scores"][house_id].per_appliance["kettle"]
    ref = materialized["result"].per_appliance["kettle"]
    plan = materialized["result"].plan
    matches = bool(
        np.array_equal(ref.soft_status, got.soft_status)
        and np.array_equal(ref.status, got.status)
        and int(ref.windows.detected.sum()) == got.n_detected
    )

    # What score_store may legitimately hold at once: the float64
    # stitch accumulators + float32 outputs (24 B/sample), one chunk of
    # windows with the engine's working copies (chunk is shard-sized),
    # and interpreter/model slack.  Crucially independent of n_windows.
    chunk_windows = engine._chunk_windows_default(plan, store.shard_length)
    chunk_bytes = chunk_windows * WINDOW * 4
    full_batch_bytes = plan.n_windows * WINDOW * 4
    memory_bound = 24 * n + 16 * chunk_bytes + (8 << 20)
    row = {
        "stage": "scoring",
        "house_id": house_id,
        "n_samples": n,
        "n_windows": plan.n_windows,
        "stride": STRIDE,
        "shard_bytes": store.shard_length * 4,
        "full_window_batch_bytes": full_batch_bytes,
        "peak_streamed_bytes": peak_streamed,
        "peak_full_bytes": peak_full,
        "peak_ratio": peak_streamed / peak_full,
        "memory_bound_bytes": memory_bound,
        "scores_match_run": matches,
        "peak_bounded_by_chunks": peak_streamed <= memory_bound,
        "streamed_below_full": peak_streamed < peak_full,
    }
    return row


def run_benchmark(smoke: bool = False, store_dir: str = None) -> dict:
    corpus = _corpus(smoke)
    with tempfile.TemporaryDirectory() as tmp:
        if store_dir and os.path.exists(os.path.join(store_dir, "manifest.json")):
            # Cached CI fixture: cheap open, but it must describe this
            # benchmark's corpus for the equivalence checks to hold.
            store = MeterStore(store_dir)
            reused = store.shard_length == SHARD_LENGTH and store.house_ids == [
                h.house_id for h in corpus.houses
            ]
            if not reused:
                store = None
        else:
            store, reused = None, False
        if store is None:
            target = store_dir or os.path.join(tmp, "store")
            ingest_row = _bench_ingest(corpus, target)
            store = MeterStore(target)
        else:
            ingest_row = {
                "stage": "ingest",
                "reused_store": store.path,
                "households": len(store),
                "samples": store.total_samples(),
                "round_trip_identical": _round_trip_identical(store, corpus),
            }
        rows = [
            ingest_row,
            _bench_windows(store, corpus),
            _bench_scoring(store, smoke),
        ]
    report = {
        "benchmark": "data_pipeline",
        "smoke": smoke,
        "window": WINDOW,
        "shard_length": SHARD_LENGTH,
        "rows": rows,
    }
    report["ok"] = bool(
        rows[0]["round_trip_identical"]
        and rows[1]["counts_match"]
        and rows[2]["scores_match_run"]
        and rows[2]["streamed_below_full"]
        and (not smoke or rows[2]["peak_bounded_by_chunks"])
    )
    return report


def test_data_pipeline():
    report = run_benchmark(smoke=True)
    print()
    print(json.dumps(report, indent=2))
    ingest, windows, scoring = report["rows"]
    assert ingest["round_trip_identical"]
    assert windows["counts_match"]
    assert scoring["scores_match_run"]
    # The bounded-memory contract of score_store: streamed peak sits
    # under both the chunk-based bound and the materialized run path.
    assert scoring["peak_bounded_by_chunks"]
    assert scoring["streamed_below_full"]


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    store_dir = None
    if "--store" in sys.argv:
        store_dir = sys.argv[sys.argv.index("--store") + 1]
    report = run_benchmark(smoke=smoke, store_dir=store_dir)
    print(json.dumps(report, indent=2))
    # Exit non-zero when a correctness invariant breaks so CI pipelines
    # gate on the run itself, not just on the uploaded artifact.
    if not report["ok"]:
        sys.exit(1)
