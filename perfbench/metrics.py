"""Names and units of every metric the benchmark prints.

``BENCHMARK.json`` lists the same names; ``perfbench/selftest.py`` checks
that both agree and that every run emits all of them.  A layer that a
workload does not exercise reports 0 (server metrics on bulk-paper,
training metrics on the serving workloads, ...).
"""

#: Measured with tracing off; every workload emits all of them.  A run is
#: cut into one-second slices (train-small: one per Algorithm-1 run, each
#: about a second) and the figures are taken over its fastest quarter
#: (``common.FAST_SHARE``): the host slows this box for seconds at a time.
#: ``windows_per_s`` is the median of those slices' windows per second.
#: ``latency_*`` time one operation completed in them: a request
#: (serve-compact), one household out of ``score_store`` (bulk-paper), one
#: Algorithm-1 run (train-small); only serve-compact has ten samples
#: beyond p99, elsewhere p99 reads near the slowest operation kept.
#: ``setup_s`` is the median of the fastest quarter of the run's set-ups.
#: ``peak_rss_mb`` is the peak of the process doing the work: the daemon,
#: or the bulk or train process itself.  ``error_rate`` is not among them
#: because a healthy run reads 0; it is printed, and the result line
#: carries it as ``failed`` / ``attempted``.
END_TO_END = {
    "windows_per_s": "windows/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: From the traced run, per layer (module) of the program.
PER_LAYER = {
    # serving.protocol -- timed on the workload's own frames
    "protocol.decode_us": "us",
    "protocol.encode_us": "us",
    "protocol.frame_bytes": "bytes",
    # serving.server
    "server.server_ms_p50": "ms",
    "server.client_ms_p50": "ms",
    "server.wait_ms_p50": "ms",
    "server.batch_requests_mean": "requests",
    "server.pad_frac": "fraction",
    "server.rejected": "count",
    "server.isolations": "count",
    # serving.engine, serving.windowing
    "engine.window_us": "us",
    "engine.stitch_us": "us",
    "engine.lock_ms": "ms",
    "engine.store_other_ms": "ms",
    # core.localization
    "localization.post_ms": "ms",
    # core.grouped, nn.plan (FLOPs computed from conv shapes)
    "plan.replay_ms_per_window": "ms",
    "plan.gflops": "GFLOP/s",
    "plan.roofline_frac": "fraction",
    "plan.gflop_per_window": "GFLOP",
    "plan.traces_timed": "count",
    "plan.fallbacks": "count",
    # nn.backend
    "backend.gemm_calls_per_window": "calls",
    "backend.pool_fresh_allocs": "count",
    "backend.sgemm_peak_gflops": "GFLOP/s",
    # data: store, ingest, streaming
    "store.read_ms": "ms",
    "store.read_mb": "MiB",
    "ingest.samples_per_s": "samples/s",
    "streaming.windows_per_s": "windows/s",
    # training, core.ensemble
    "training.candidate_s": "s",
    "training.forward_ms": "ms",
    "training.backward_ms": "ms",
    "training.step_ms": "ms",
    "training.select_s": "s",
    # the tracing itself
    "trace.overhead_frac": "fraction",
}
