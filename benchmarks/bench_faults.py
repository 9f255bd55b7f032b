"""Fault-injection guard overhead + chaos recovery digest equality.

Two claims, both load-bearing for shipping the harness enabled-by-default
in every build:

1. **The disabled guard is free.**  Every injection point costs one
   module-attribute load + ``is None`` branch when ``REPRO_FAULTS`` is
   unset.  This benchmark times that exact pattern in a tight loop,
   scales it by a generous per-request check count, and compares against
   the measured p50 request latency of a real daemon — the overhead must
   stay under **1%**.

2. **Recovery is bit-identical.**  With chaos on (every fused forward
   poisoned, a quarter of socket reads dropped), a retrying client must
   receive byte-for-byte the same status series a fault-free
   ``engine.run`` produces — the self-healing paths may cost latency,
   never correctness.

Run standalone for the JSON report::

    PYTHONPATH=src python benchmarks/bench_faults.py [--smoke]

or through pytest alongside the other paper benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_faults.py -s
"""

import argparse
import json
import os
import sys
import threading
import time
from hashlib import blake2b

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

from repro.analysis import faults
from repro.core import CamAL, ResNetConfig, ResNetEnsemble, ResNetTSC
from repro.serving import (
    EngineConfig,
    InferenceEngine,
    ServeConfig,
    ServingClient,
    ServingDaemon,
)

WINDOW = 128
STRIDE = 64
N_MODELS = 3
SERIES_LENGTH = WINDOW + STRIDE

#: Iterations of the guard micro-loop; per-check cost is tens of ns, so
#: this finishes in milliseconds while drowning timer granularity.
GUARD_ITERS = 200_000
#: Generous bound on guard checks per scored request (client recv loop +
#: coalescer + a margin for future points on the request path).
CHECKS_PER_REQUEST = 8

LATENCY_REQUESTS = 30
CHAOS_CLIENTS = 3
CHAOS_REQUESTS_PER_CLIENT = 6
#: Chaos spec for the recovery cell: every fused forward throws (forcing
#: solo-replay isolation), and a quarter of client socket reads raise
#: (forcing reconnect + resend).  Seeded, so the run is reproducible.
CHAOS_SPEC = "serve.coalesce:1.0:exception:5,serve.socket_recv:0.25:exception:9"
CHAOS_MAX_ATTEMPTS = 8


def _build_camal() -> CamAL:
    models = [
        ResNetTSC(ResNetConfig(kernel_size=k, filters=(8, 16, 16), seed=i))
        for i, k in enumerate((5, 7, 9)[:N_MODELS])
    ]
    for model in models:
        model.eval()
    return CamAL(ResNetEnsemble(models), detection_threshold=0.0)


def _build_engine() -> InferenceEngine:
    engine = InferenceEngine(EngineConfig(window=WINDOW, stride=STRIDE))
    engine.register("kettle", _build_camal())
    engine.warmup()
    return engine


def _guard_loop(n: int) -> int:
    """The exact disabled-guard pattern every injection point pays."""
    hits = 0
    for _ in range(n):
        if faults.ACTIVE is not None:
            hits += 1
    return hits


def _measure_guard_ns() -> float:
    """Per-check cost of the disabled guard, in nanoseconds.

    The loop overhead is *included*, making this an upper bound — the
    honest direction for a "this is free" claim.
    """
    assert faults.ACTIVE is None, "guard benchmark requires injection off"
    _guard_loop(GUARD_ITERS)  # warm the bytecode/attribute caches
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        hits = _guard_loop(GUARD_ITERS)
        elapsed = time.perf_counter() - start
        assert hits == 0
        best = min(best, elapsed)
    return best / GUARD_ITERS * 1e9


def _measure_request_latency_ms(engine: InferenceEngine) -> float:
    """p50 client-observed latency of a real daemon, fault injection off."""
    series = np.random.default_rng(0).random(SERIES_LENGTH).astype(np.float32)
    series *= 2000.0
    latencies = []
    with ServingDaemon(engine, ServeConfig(port=0)) as daemon:
        with ServingClient(daemon.host, daemon.port) as client:
            client.score_series("kettle", series)  # warm the serving path
            for _ in range(LATENCY_REQUESTS):
                start = time.perf_counter()
                client.score_series("kettle", series)
                latencies.append(time.perf_counter() - start)
    return float(np.percentile(np.asarray(latencies) * 1e3, 50))


def _digest(status: np.ndarray) -> str:
    return blake2b(status.tobytes(), digest_size=16).hexdigest()


def _run_chaos_cell(engine: InferenceEngine) -> dict:
    """Concurrent retrying clients under chaos vs. fault-free digests."""
    all_series = [
        (np.random.default_rng(40 + i).random(SERIES_LENGTH).astype(np.float32)
         * 2000.0)
        for i in range(CHAOS_CLIENTS)
    ]
    expected = [_digest(engine.run(s).per_appliance["kettle"].status)
                for s in all_series]
    config = ServeConfig(port=0, max_wait_us=50_000, max_batch_windows=512)
    digests = [[None] * CHAOS_REQUESTS_PER_CLIENT for _ in range(CHAOS_CLIENTS)]
    errors = []
    with faults.active(CHAOS_SPEC) as plan:
        with ServingDaemon(engine, config) as daemon:
            barrier = threading.Barrier(CHAOS_CLIENTS)

            def worker(i):
                try:
                    with ServingClient(daemon.host, daemon.port) as client:
                        barrier.wait()
                        for r in range(CHAOS_REQUESTS_PER_CLIENT):
                            result = client.score_with_retry(
                                "kettle",
                                all_series[i],
                                max_attempts=CHAOS_MAX_ATTEMPTS,
                                seed=i,
                            )
                            digests[i][r] = _digest(result.status)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(f"client {i}: {type(exc).__name__}: {exc}")

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(CHAOS_CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            snapshot = daemon.metrics.snapshot()
        stats = plan.stats()
    if errors:
        raise RuntimeError("; ".join(errors))
    all_equal = all(
        digest == expected[i]
        for i, per_client in enumerate(digests)
        for digest in per_client
    )
    return {
        "spec": CHAOS_SPEC,
        "clients": CHAOS_CLIENTS,
        "requests": CHAOS_CLIENTS * CHAOS_REQUESTS_PER_CLIENT,
        "all_digests_equal_fault_free": all_equal,
        "coalesce_isolations": snapshot["recovery"]["coalesce_isolations"],
        "socket_faults_fired": stats["serve.socket_recv"]["fired"],
        "forward_faults_fired": stats["serve.coalesce"]["fired"],
    }


def run_report(smoke: bool = False) -> dict:
    engine = _build_engine()
    guard_ns = _measure_guard_ns()
    p50_ms = _measure_request_latency_ms(engine)
    overhead_fraction = (guard_ns * CHECKS_PER_REQUEST) / (p50_ms * 1e6)
    return {
        "benchmark": "faults",
        "smoke": smoke,
        "guard": {
            "per_check_ns": guard_ns,
            "checks_per_request": CHECKS_PER_REQUEST,
            "request_p50_ms": p50_ms,
            "overhead_fraction": overhead_fraction,
        },
        "chaos": _run_chaos_cell(engine),
    }


def check_smoke(report: dict) -> None:
    guard = report["guard"]
    assert guard["overhead_fraction"] < 0.01, (
        f"disabled fault guard must cost < 1% of request latency, measured "
        f"{guard['overhead_fraction']:.2%} ({guard['per_check_ns']:.0f} ns/check "
        f"x {guard['checks_per_request']} vs {guard['request_p50_ms']:.2f} ms p50)"
    )
    chaos = report["chaos"]
    assert chaos["all_digests_equal_fault_free"], (
        "chaos recovery returned different bytes than a fault-free run"
    )
    assert chaos["forward_faults_fired"] >= 1, "no fused forward was poisoned"
    assert chaos["socket_faults_fired"] >= 1, "no socket read was dropped"
    assert chaos["coalesce_isolations"] >= 1, (
        "isolation replay never ran — the chaos cell is vacuous"
    )


def test_fault_guard_and_chaos_recovery():
    report = run_report(smoke=True)
    print()
    print(json.dumps(report, indent=2))
    check_smoke(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="assert guard overhead < 1% and chaos digest equality",
    )
    args = parser.parse_args(argv)
    report = run_report(smoke=args.smoke)
    print(json.dumps(report, indent=2))
    if args.smoke:
        check_smoke(report)
        print("smoke checks passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
