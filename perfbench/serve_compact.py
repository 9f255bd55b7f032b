"""serve-compact: the serving daemon in its own process under a closed loop.

Why this workload: its forwards are small, so the server layer is more
than half of each request -- decode, queue wait, linger, hand-offs, the
engine lock, bucket padding and encode.  Daemon changes show here and
almost nowhere else.

Fleet: two appliances, each a seeded, untrained CamAL of three ResNets
(kernels 5/7/9, filters 8/16/16 -- the ``repro serve --demo`` shape),
saved with ``save_pipelines``.  The daemon is booted the way
``repro serve --fleet`` boots it, with the shipped ``ServeConfig``
defaults (coalescing, pow2 bucketing and warm start on; window 128,
stride 64), through :mod:`perfbench.daemon`.

Load: this process, two threads (the main one and one helper), two
connections, closed loop.  Each request is one series of 1-8 windows
whose appliance and length come from the seed; the request pool holds
every window count equally often, so all seeds offer the same work.
Every response is checked bit for bit against an in-process
``InferenceEngine.run`` of the same saved fleet on the same series.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api import load_pipelines, save_pipelines
from repro.core import CamAL, ResNetConfig, ResNetEnsemble, ResNetTSC
from repro.serving import EngineConfig, InferenceEngine, ServerError, ServingClient
from repro.serving.protocol import (
    decode_frame,
    decode_series,
    encode_frame,
    encode_series,
    ok_response,
)
from repro.serving.windowing import plan_windows

from . import common
from .spans import Span, named, read_spans, self_times

APPLIANCES = ("kettle", "dishwasher")
KERNELS = (5, 7, 9)
FILTERS = (8, 16, 16)
WINDOW = 128
STRIDE = 64
MAX_WINDOWS = 8
#: Boots per run; setup_s is the median of their fastest quarter.
SETUPS = 3
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
REFUSED = ("overloaded", "draining")


def build_fleet(seed: int) -> Dict[str, CamAL]:
    """The seeded, untrained ``--demo``-shaped fleet."""
    fleet = {}
    for offset, appliance in enumerate(APPLIANCES):
        models = [
            ResNetTSC(
                ResNetConfig(kernel_size=k, filters=FILTERS, seed=seed * 100 + 10 * offset + i)
            )
            for i, k in enumerate(KERNELS)
        ]
        fleet[appliance] = CamAL(ResNetEnsemble(models).eval(), detection_threshold=0.0)
    return fleet


def request_pool(seed: int, size: int) -> List[Tuple[str, np.ndarray]]:
    """``size`` requests of 1..8 windows, each window count equally often."""
    rng = np.random.default_rng([seed, 1])
    counts = np.resize(np.arange(1, MAX_WINDOWS + 1), size)
    rng.shuffle(counts)
    pool = []
    for n in counts:
        low = STRIDE + 1 if n == 1 else WINDOW + (n - 2) * STRIDE + 1
        length = int(rng.integers(low, WINDOW + (n - 1) * STRIDE + 1))
        if plan_windows(length, WINDOW, STRIDE).n_windows != n:
            raise RuntimeError(f"length {length} does not give {n} windows")
        appliance = APPLIANCES[int(rng.integers(len(APPLIANCES)))]
        series = (rng.random(length) * 3000.0).astype(np.float32)
        pool.append((appliance, series))
    return pool


class Daemon:
    """One daemon process started through the benchmark-side launcher."""

    def __init__(self, fleet_dir: str, work: str, trace: bool):
        self.fleet_dir = fleet_dir
        self.trace = trace
        self.ready_path = os.path.join(work, "ready.json")
        self.info_path = os.path.join(work, "info.json")
        self.spans_path = os.path.join(work, "spans.json")
        self.log_path = os.path.join(work, "daemon.log")
        self.proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    def start(self) -> None:
        """Launch and block until the daemon listens (warm-up and pre-tracing done)."""
        command = [
            sys.executable, "-m", "perfbench.daemon",
            "--trace", "1" if self.trace else "0",
            "--info", self.info_path, "--spans", self.spans_path, "--",
            "--fleet", self.fleet_dir, "--port", "0", "--ready-file", self.ready_path,
        ]
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                command, cwd=common.ROOT, env=common.child_env(),
                stdout=log, stderr=subprocess.STDOUT,
            )
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while not os.path.exists(self.ready_path):
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}:\n{self.log()}")
            if time.perf_counter() > deadline:
                raise RuntimeError(f"daemon not ready after {READY_TIMEOUT_S}s:\n{self.log()}")
            time.sleep(0.002)
        with open(self.ready_path, encoding="utf-8") as fh:
            ready = json.load(fh)
        self.host, self.port = ready["host"], int(ready["port"])

    def log(self) -> str:
        with open(self.log_path, encoding="utf-8") as fh:
            return fh.read()

    @property
    def blas_threads(self) -> Optional[int]:
        with open(self.info_path, encoding="utf-8") as fh:
            return json.load(fh)["blas_threads"]

    def peak_rss_mib(self) -> float:
        return common.process_peak_rss_mib(self.proc.pid)

    def stop(self) -> int:
        """SIGTERM (graceful drain), wait; kill if it does not exit in time."""
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=STOP_TIMEOUT_S)
        return self.proc.returncode


@dataclass
class Attempt:
    """One request as the client saw it."""

    index: int  # into the request pool
    start: float
    end: float = 0.0
    result: Optional[object] = None  # ScoreResult on success
    error: Optional[str] = None  # server error code, or "connection"


@dataclass
class Served:
    """A booted daemon with its two connected clients."""

    daemon: Daemon
    clients: List[ServingClient] = field(default_factory=list)

    def close(self) -> int:
        for client in self.clients:
            client.close()
        return self.daemon.stop()


def boot(seed: int, work: str, trace: bool) -> Tuple[Served, float]:
    """Fleet build and save, daemon launch and warm-up, two connections.

    Connections open one after the other, so the daemon's handler threads
    are created in connection order.  Returns the set-up and its seconds.
    """
    os.makedirs(work, exist_ok=True)
    start = time.perf_counter()
    fleet_dir = os.path.join(work, "fleet")
    save_pipelines(build_fleet(seed), fleet_dir)
    served = Served(Daemon(fleet_dir, work, trace))
    try:
        served.daemon.start()
        for _ in range(2):
            client = ServingClient(served.daemon.host, served.daemon.port)
            served.clients.append(client)
            client.ping()
    except BaseException:
        served.close()
        raise
    return served, time.perf_counter() - start


def drive(client: ServingClient, pool, first: int, seconds: float, out: List[Attempt]) -> None:
    """Closed loop on one connection until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    i = first
    while time.perf_counter() < deadline:
        index = i % len(pool)
        i += 1
        appliance, series = pool[index]
        attempt = Attempt(index, time.perf_counter())
        out.append(attempt)
        try:
            attempt.result = client.score_series(appliance, series)
        except ServerError as exc:
            attempt.error = exc.code
        except (ConnectionError, OSError):
            attempt.error = "connection"
            return
        attempt.end = time.perf_counter()


def _counters(snapshot: Dict) -> Dict[str, float]:
    plan = snapshot.get("plan", {}).values()
    pools = snapshot.get("buffer_pool", {}).values()
    return {
        "batches": snapshot["coalesce"]["batches"],
        "batched_requests": snapshot["coalesce"]["requests"],
        "rejected": snapshot["rejected"],
        "isolations": snapshot["recovery"]["coalesce_isolations"],
        "traces": sum(p["traces"] for p in plan),
        "fallbacks": sum(p["fallbacks"] for p in plan),
        "fresh_allocations": sum(p["fresh_allocations"] for p in pools),
    }


def check(fleet_dir: str, pool, attempts: List[Attempt]) -> int:
    """Responses that are not bit-identical to an in-process ``run``."""
    engine = InferenceEngine(EngineConfig(window=WINDOW, stride=STRIDE))
    for name, estimator in load_pipelines(fleet_dir).items():
        engine.register(name, estimator)
    expected = {}
    for index in sorted({a.index for a in attempts if a.result is not None}):
        appliance, series = pool[index]
        out = engine.run(series, [appliance]).per_appliance[appliance]
        expected[index] = out.soft_status.tobytes() + out.status.tobytes()
    return sum(
        1
        for a in attempts
        if a.result is not None
        and a.result.soft_status.tobytes() + a.result.status.tobytes() != expected[a.index]
    )


def protocol_costs(pool, attempts: List[Attempt], repeats: int = 5) -> Dict[str, float]:
    """Decode and encode time per request, timed on this run's own frames.

    Decode is what the daemon does to a request line (frame, then series);
    encode is what it does to build the response line.
    """
    decode, encode, sizes = [], [], []
    done = {}
    for a in attempts:
        if a.result is not None:
            done.setdefault(a.index, a.result)
    for index, result in done.items():
        appliance, series = pool[index]
        request = {"op": "score", "appliance": appliance, "series": encode_series(series), "id": 1}
        line = encode_frame(request)
        for _ in range(repeats):
            start = time.perf_counter()
            frame = decode_frame(line[:-1])
            decode_series(frame["series"])
            decode.append(time.perf_counter() - start)
        for _ in range(repeats):
            start = time.perf_counter()
            reply = encode_frame(
                ok_response(
                    request,
                    {
                        "appliance": appliance,
                        "n_samples": int(series.size),
                        "n_windows": result.n_windows,
                        "window": WINDOW,
                        "stride": STRIDE,
                        "detection_rate": result.detection_rate,
                        "cache_hits": result.cache_hits,
                        "coalesced_requests": result.coalesced_requests,
                        "coalesced_windows": result.coalesced_windows,
                        "server_ms": result.server_ms,
                        "soft_status": encode_series(result.soft_status),
                        "status": encode_series(result.status),
                    },
                )
            )
            encode.append(time.perf_counter() - start)
        sizes.append(len(line) + len(reply))
    return {
        "protocol.decode_us": common.percentile(decode, 50) * 1e6,
        "protocol.encode_us": common.percentile(encode, 50) * 1e6,
        "protocol.frame_bytes": common.mean(sizes),
    }


def _handler_rank(thread: str) -> int:
    match = re.search(r"Thread-(\d+)", thread)
    return int(match.group(1)) if match else sys.maxsize


def span_metrics(
    spans: List[Span], per_connection: List[List[Attempt]], peak_gflops: float
) -> Dict[str, float]:
    """Per-layer numbers from the daemon's spans, joined to the client's requests."""
    own = self_times(spans)
    on_coalescer = lambda thread: thread.startswith("coalescer-")  # noqa: E731
    windowing = named(spans, "engine.window_series")
    handlers = sorted({s.thread for s in windowing}, key=_handler_rank)
    per_request: Dict[str, Dict[str, float]] = {
        s.request: {"window": s.duration} for s in windowing
    }
    batch: Dict[str, Span] = {}
    forwarded = stitched = 0
    for s in sorted((s for s in spans if on_coalescer(s.thread)), key=lambda s: s.start):
        if s.name == "engine.localize_windows":
            batch[s.thread] = s
            forwarded += s.attrs["rows"]
        elif s.name == "engine.stitch_result" and s.request is not None:
            stitched += s.attrs["windows"]
            row = per_request.setdefault(s.request, {})
            row["stitch"] = s.duration
            row["localize"] = batch[s.thread].duration

    server, client, wait = [], [], []
    for handler, attempts in zip(handlers, per_connection):
        for k, a in enumerate(attempts, start=1):
            if a.result is None:
                continue
            server.append(a.result.server_ms)
            client.append((a.end - a.start) * 1e3 - a.result.server_ms)
            row = per_request.get(f"{handler}#{k}", {})
            if {"window", "stitch", "localize"} <= set(row):
                busy = row["window"] + row["localize"] + row["stitch"]
                wait.append(a.result.server_ms - busy * 1e3)

    localize = named(spans, "engine.localize_windows", on_coalescer)
    camal = named(spans, "localization.localize", on_coalescer)
    forward = named(spans, "ensemble.forward_fused", on_coalescer)
    layers = common.forward_layers(
        forward_s=sum(s.duration for s in forward),
        forward_rows=sum(s.attrs["rows"] for s in forward),
        gemms=sum(s.attrs["gemms"] for s in camal),
        windows=stitched,
        flops_per_window=common.conv_flops_per_window(FILTERS, KERNELS, WINDOW),
        peak_gflops=peak_gflops,
    )
    layers.update({
        "server.server_ms_p50": common.percentile(server, 50),
        "server.client_ms_p50": common.percentile(client, 50),
        "server.wait_ms_p50": common.percentile(wait, 50),
        "server.pad_frac": 1.0 - stitched / forwarded if forwarded else 0.0,
        "engine.window_us": common.percentile([s.duration for s in windowing], 50) * 1e6,
        "engine.stitch_us": common.percentile(
            [s.duration for s in named(spans, "engine.stitch_result", on_coalescer)], 50
        ) * 1e6,
        "engine.lock_ms": common.mean([own[s.id] for s in localize]) * 1e3,
        "localization.post_ms": common.mean([own[s.id] for s in camal]) * 1e3,
    })
    return layers


def run(args, work: str, trace: bool, setups: int, peak_gflops: float) -> common.Outcome:
    """One measured phase: ``setups`` boots, then ``args.seconds`` of load."""
    pool = request_pool(args.seed, args.pool)
    setup_times = []
    served = None
    code = 0
    try:
        for i in range(setups):
            if served is not None:
                served.close()
                served = None
            served, seconds = boot(args.seed, os.path.join(work, f"setup{i}"), trace)
            setup_times.append(seconds)
        before = _counters(served.clients[0].metrics())
        per_connection: List[List[Attempt]] = [[], []]
        barrier = threading.Barrier(2)

        def helper() -> None:
            barrier.wait()
            drive(served.clients[1], pool, len(pool) // 2, args.seconds, per_connection[1])

        thread = threading.Thread(target=helper, name="load-1")
        thread.start()
        barrier.wait()
        drive(served.clients[0], pool, 0, args.seconds, per_connection[0])
        thread.join()
        after = _counters(served.clients[0].metrics())
        peak_rss = served.daemon.peak_rss_mib()
        daemon_threads = served.daemon.blas_threads
    finally:
        if served is not None:
            code = served.close()
    if code != 0:
        raise RuntimeError(f"daemon exited with {code} after draining:\n{served.daemon.log()}")

    attempts = [a for conn in per_connection for a in conn]
    ok = [a for a in attempts if a.result is not None]
    refused = sum(1 for a in attempts if a.error in REFUSED)
    errors = sum(1 for a in attempts if a.result is None and a.error not in REFUSED)
    mismatches = check(served.daemon.fleet_dir, pool, attempts)
    if not ok:
        raise RuntimeError(f"no request succeeded: {refused} refused, {errors} failed")
    figures, notes = common.fast_figures(common.slices(
        min(a.start for a in attempts),
        [(a.end, a.result.n_windows, (a.end - a.start) * 1e3) for a in ok],
    ))
    outcome = common.Outcome(
        end_to_end={
            **figures,
            "setup_s": common.fast_median(setup_times),
            "peak_rss_mb": peak_rss,
        },
        attempted=len(attempts),
        failed=refused + errors + mismatches,
        mismatches=mismatches,
        notes={
            **notes,
            "requests_ok": len(ok),
            "setup_samples": setup_times,
            "refused": refused,
            "errors": errors,
            "daemon_blas_threads": daemon_threads,
            "windows_per_request_mean": common.mean([a.result.n_windows for a in ok]),
        },
    )
    delta = {key: after[key] - before[key] for key in after}
    outcome.layers = {
        "server.batch_requests_mean": (
            delta["batched_requests"] / delta["batches"] if delta["batches"] else 0.0
        ),
        "server.rejected": delta["rejected"],
        "server.isolations": delta["isolations"],
        "plan.traces_timed": delta["traces"],
        "plan.fallbacks": delta["fallbacks"],
        "backend.pool_fresh_allocs": delta["fresh_allocations"],
    }
    if trace:
        spans = read_spans(served.daemon.spans_path)
        outcome.spans = spans
        outcome.layers.update(span_metrics(spans, per_connection, peak_gflops))
        outcome.layers.update(protocol_costs(pool, attempts))
    return outcome
