"""Serving-daemon throughput: cross-request coalescing on vs. off.

Boots a real :class:`~repro.serving.server.ServingDaemon` (in-process,
ephemeral port) and drives it with N synchronous clients, each scoring
series after series over its own TCP connection.  The engine lock
serializes forwards, so daemon throughput is decided by how many
requests share each forward: with coalescing the cohort of concurrent
requests stacks into one fused call per cycle, without it every request
pays its own serialized forward.  The benchmark measures that directly —
aggregate windows/s and client-observed p50/p99 latency per
(client count, coalesce) cell, plus the daemon's own coalesced-batch
histogram.

``--smoke`` runs the 8-client A/B only and asserts the load-bearing
claim: coalesced aggregate throughput is at least **1.3x** the
uncoalesced baseline at 8 clients.  A single cell
lasts a fraction of a second, so one off/on pair is at the mercy of a
slow moment on a shared box; the smoke run times the two cells in
``SMOKE_PAIRS`` alternating pairs and gates on the median pair ratio
(every ratio is in the JSON).

Run standalone for the JSON report::

    PYTHONPATH=src python benchmarks/bench_serving_daemon.py [--smoke]

or through pytest alongside the other paper benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_serving_daemon.py -s
"""

import argparse
import ctypes
import json
import os
import sys
import threading
import time

# Layer 1 of BLAS pinning: only effective when this module is the entry
# point (env is read once, at BLAS load).  Layer 2 below handles the
# pytest case where numpy is already imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

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
#: Series length giving 2 windows per request — small requests are the
#: regime where coalescing matters (per-forward overhead dominates).
SERIES_LENGTH = WINDOW + STRIDE
WINDOWS_PER_REQUEST = 2
#: Coalescer linger; generous so a full client cohort always merges.
MAX_WAIT_US = 5000

CLIENT_COUNTS = (1, 4, 8)
REQUESTS_PER_CLIENT = 20
SMOKE_CLIENTS = 8
SMOKE_REQUESTS_PER_CLIENT = 30
#: Off/on pairs the smoke gate takes the median ratio of; the order
#: alternates so drift on the box favours neither cell.
SMOKE_PAIRS = 7


def _pin_blas_single_thread() -> bool:
    """Pin the loaded BLAS to one thread, like a serving deployment would.

    Multithreaded GEMM only kicks in above a size threshold, so on a
    small CI box it inflates exactly the *coalesced* batches this
    benchmark measures: the big stacked GEMM fans out worker threads
    that oversubscribe the cores the handler/coalescer threads need,
    while the uncoalesced baseline's tiny GEMMs stay single-threaded.
    Pinning removes that asymmetry (and is standard practice for
    thread-per-connection servers).  Returns whether a knob was found.
    """
    symbols = (
        "scipy_openblas_set_num_threads64_",
        "scipy_openblas_set_num_threads",
        "openblas_set_num_threads64_",
        "openblas_set_num_threads",
    )
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted(
                {
                    line.split()[-1]
                    for line in fh
                    if "openblas" in line.lower() and ".so" in line.split()[-1]
                }
            )
    except OSError:
        return False
    pinned = False
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in symbols:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn(1)
                pinned = True
                break
    return pinned


def _build_camal() -> CamAL:
    models = [
        ResNetTSC(ResNetConfig(kernel_size=k, filters=(8, 16, 16), seed=i))
        for i, k in enumerate((5, 7, 9)[:N_MODELS])
    ]
    for model in models:
        model.eval()
    # detection_threshold=0 keeps every window on the fused CAM path —
    # the detected-heavy regime serving cost stories are about.
    return CamAL(ResNetEnsemble(models), detection_threshold=0.0)


def _build_engine() -> InferenceEngine:
    engine = InferenceEngine(EngineConfig(window=WINDOW, stride=STRIDE))
    engine.register("kettle", _build_camal())
    engine.warmup()
    return engine


def _run_cell(engine, n_clients: int, coalesce: bool, requests_per_client: int):
    """One (client count, coalesce) cell: fresh daemon, N looping clients."""
    config = ServeConfig(
        port=0,
        coalesce=coalesce,
        max_wait_us=MAX_WAIT_US,
        queue_depth=max(64, 4 * n_clients),
    )
    rng = np.random.default_rng(0)
    all_series = [
        (rng.random(SERIES_LENGTH).astype(np.float32) * 2000.0)
        for _ in range(n_clients)
    ]
    latencies = [[] for _ in range(n_clients)]
    coalesced = [[] for _ in range(n_clients)]
    errors = []
    with ServingDaemon(engine, config) as daemon:
        barrier = threading.Barrier(n_clients + 1)

        def worker(i):
            try:
                with ServingClient(daemon.host, daemon.port) as client:
                    client.ping()
                    barrier.wait()
                    for _ in range(requests_per_client):
                        start = time.perf_counter()
                        result = client.score_series("kettle", all_series[i])
                        latencies[i].append(time.perf_counter() - start)
                        coalesced[i].append(result.coalesced_requests)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(f"client {i}: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_clients)
        ]
        for t in threads:
            t.start()
        barrier.wait()
        wall_start = time.perf_counter()
        for t in threads:
            t.join()
        wall = time.perf_counter() - wall_start
        hist = daemon.metrics.snapshot()["coalesce"]["hist"]
    if errors:
        raise RuntimeError("; ".join(errors))
    flat_ms = np.sort(np.concatenate(latencies)) * 1e3
    merged = np.concatenate(coalesced)
    n_requests = n_clients * requests_per_client
    return {
        "clients": n_clients,
        "coalesce": coalesce,
        "requests": n_requests,
        "windows_per_request": WINDOWS_PER_REQUEST,
        "wall_s": wall,
        "agg_windows_per_sec": n_requests * WINDOWS_PER_REQUEST / wall,
        "requests_per_sec": n_requests / wall,
        "latency_ms": {
            "p50": float(np.percentile(flat_ms, 50)),
            "p99": float(np.percentile(flat_ms, 99)),
            "mean": float(flat_ms.mean()),
        },
        "mean_coalesced_requests": float(merged.mean()),
        "max_coalesced_requests": int(merged.max()),
        "coalesce_hist": hist,
    }


def _smoke_pairs(engine) -> list:
    """``SMOKE_PAIRS`` off/on pairs at 8 clients, alternating which runs first."""
    pairs = []
    for i in range(SMOKE_PAIRS):
        order = (False, True) if i % 2 == 0 else (True, False)
        cells = {
            coalesce: _run_cell(engine, SMOKE_CLIENTS, coalesce, SMOKE_REQUESTS_PER_CLIENT)
            for coalesce in order
        }
        pairs.append((cells[False], cells[True]))
    return pairs


def run_report(smoke: bool = False) -> dict:
    blas_pinned = _pin_blas_single_thread()
    engine = _build_engine()
    if smoke:
        pairs = _smoke_pairs(engine)
        rows = [row for pair in pairs for row in pair]
    else:
        cells = {
            (n, mode): _run_cell(engine, n, mode, REQUESTS_PER_CLIENT)
            for n in CLIENT_COUNTS
            for mode in (False, True)
        }
        rows = list(cells.values())
        pairs = [(cells[(SMOKE_CLIENTS, False)], cells[(SMOKE_CLIENTS, True)])]
    ratios = [on["agg_windows_per_sec"] / off["agg_windows_per_sec"] for off, on in pairs]
    return {
        "benchmark": "serving_daemon",
        "window": WINDOW,
        "stride": STRIDE,
        "n_models": N_MODELS,
        "max_wait_us": MAX_WAIT_US,
        "blas_pinned": blas_pinned,
        "smoke": smoke,
        "rows": rows,
        "pair_ratios_at_8_clients": ratios,
        "coalescing_gain_at_8_clients": float(np.median(ratios)),
    }


def check_smoke(report: dict) -> None:
    gain = report["coalescing_gain_at_8_clients"]
    merged = [
        row
        for row in report["rows"]
        if row["coalesce"] and row["clients"] == SMOKE_CLIENTS
    ]
    for row in merged:
        assert row["max_coalesced_requests"] >= 2, (
            "coalescing never merged concurrent requests — the A/B is vacuous"
        )
        assert row["latency_ms"]["p99"] > 0
    assert gain >= 1.3, (
        f"coalesced aggregate throughput must be >= 1.3x uncoalesced at "
        f"{SMOKE_CLIENTS} clients, measured a median {gain:.2f}x over pair ratios "
        f"{[round(r, 2) for r in report['pair_ratios_at_8_clients']]}"
    )


def test_daemon_coalescing_gain():
    report = run_report(smoke=True)
    print()
    print(json.dumps(report, indent=2))
    check_smoke(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="8-client A/B pairs only; assert the median >=1.3x coalescing gain",
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
