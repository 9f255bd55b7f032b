"""`repro serve` — the fleet-scale serving daemon.

Everything below this module is one-shot and one-process; this is the
long-lived layer that makes the fast paths pay off under real traffic.
A :class:`ServingDaemon` owns a warm :class:`~repro.serving.engine.
InferenceEngine` (model fleet + traced plans) and
serves concurrent scoring requests over the newline-delimited-JSON TCP
protocol of :mod:`repro.serving.protocol`.

Architecture — four kinds of threads:

* **acceptor** — accepts TCP connections, one handler thread each
  (thread-per-connection is the right shape here: the GIL is released
  inside the BLAS calls doing the actual work, and fleet-bench scale is
  tens of connections, not tens of thousands);
* **connection handlers** — parse frames, validate, *window the series*
  (request-local, lock-free), enqueue the window batch on the target
  appliance's coalescer, and block until the result is ready;
* **per-appliance coalescers** — the heart of the daemon.  Each drains
  its bounded queue and stacks windows from many concurrent requests
  into **one** fused forward call, flushing when ``max_batch_windows``
  accumulate, when every open connection is awaiting a result (so no
  request can arrive to join), or ``max_wait_us`` after the first
  request.  This is provably safe: the im2col backend and the grouped
  ensemble plans are bit-level batch-size invariant, so a request's rows
  in a stacked batch are identical to the rows of a solo call (asserted
  end-to-end in ``tests/test_serving_daemon.py``).  Under synchronous
  clients the cadence is self-organizing — responses release a cohort of
  clients at once, whose next requests arrive together, merge again and
  flush as soon as the last of them is admitted;
* **bulk jobs** — a ``store`` request fans a :meth:`InferenceEngine.
  score_store` run over household shards in a ``spawn`` process pool
  (each worker reloads the fleet from ``fleet_dir``), returning compact
  per-household summaries instead of full series.

**Backpressure**: every coalescer queue is bounded
(``queue_depth``).  A request arriving at a full queue is rejected
*before* any scoring work with an ``overloaded`` error carrying a
``retry_after_ms`` hint (queue depth × recent mean service latency) —
shedding load early keeps p99 of the admitted traffic flat.

**Graceful drain**: ``SIGTERM`` (wired by the CLI) or a ``shutdown``
request stops the acceptor, lets every queued request finish scoring,
waits for in-flight responses to hit the wire, then closes.  Requests
arriving mid-drain get a ``draining`` rejection with a retry hint; none
are silently dropped.

:class:`ServeConfig` holds the daemon's settings; ``repro serve`` builds
it from its flags.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from hashlib import blake2b
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..analysis import faults
from ..core.localization import LocalizationOutput
from .engine import ApplianceSeriesResult, InferenceEngine
from .metrics import ServerMetrics
from .protocol import (
    DEFAULT_PORT,
    FrameError,
    FrameReader,
    FrameTooLarge,
    decode_series,
    encode_frame,
    encode_series,
    error_response,
    ok_response,
)
from .windowing import SlidingWindowPlan

__all__ = ["ServeConfig", "ServingDaemon"]

#: How long a graceful shutdown waits for queued and in-flight work,
#: unless :meth:`ServingDaemon.shutdown` is given a ``timeout``.
DRAIN_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class ServeConfig:
    """Daemon knobs: socket, coalescing flush policy, admission control."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT  # 0 binds an ephemeral port
    #: Coalescer flush threshold: stop stacking once this many windows
    #: are queued for one fused call (requests are never split, so one
    #: oversized request forms its own batch).
    max_batch_windows: int = 256
    #: Coalescer linger bound: after the first request of a batch arrives,
    #: wait at most this long for co-travellers before flushing.  The
    #: wait ends early once every open connection is awaiting a result:
    #: the daemon reads a connection's next request only after answering
    #: its last one, so nothing more can join the batch.
    max_wait_us: int = 2000
    #: Bounded pending-request queue per appliance; arrivals beyond it
    #: are fast-rejected with ``overloaded`` + ``retry_after_ms``.
    queue_depth: int = 64
    #: Master switch for cross-request micro-batch coalescing; off means
    #: every request is its own forward call (the A/B the benchmark runs).
    coalesce: bool = True
    #: Pre-trace the bucket ladder (1, 2, 4, ... up to
    #: ``max_batch_windows``) for every appliance at :meth:`ServingDaemon.
    #: start`, so no live request ever pays a first-trace stall.  Off is
    #: mainly for tests with stub pipelines.
    warm_start: bool = True
    #: Handler-side cap on waiting for a coalescer result.
    request_timeout_s: float = 60.0
    #: Whether a client ``shutdown`` request may drain the daemon (keep
    #: on for CI and local fleets; front it with real auth before
    #: exposing beyond localhost).
    allow_shutdown: bool = True

    def __post_init__(self):
        if self.max_batch_windows <= 0:
            raise ValueError(
                f"max_batch_windows must be positive, got {self.max_batch_windows}"
            )
        if self.max_wait_us < 0:
            raise ValueError(f"max_wait_us must be >= 0, got {self.max_wait_us}")
        if self.queue_depth <= 0:
            raise ValueError(f"queue_depth must be positive, got {self.queue_depth}")


class _PendingScore:
    """One admitted ``score`` request, in flight between handler and coalescer."""

    __slots__ = (
        "appliance",
        "aggregate",
        "plan",
        "windows",
        "done",
        "result",
        "error",
        "batch_requests",
        "batch_windows",
        "cache_hits",
        "deadline",
    )

    def __init__(
        self,
        appliance: str,
        aggregate: np.ndarray,
        plan: SlidingWindowPlan,
        windows: np.ndarray,
    ):
        self.appliance = appliance
        self.aggregate = aggregate
        self.plan = plan
        self.windows = windows
        self.done = threading.Event()
        self.result: Optional[ApplianceSeriesResult] = None
        self.error: Optional[Tuple[str, str]] = None
        self.batch_requests = 1  # requests merged into this item's forward
        self.batch_windows = windows.shape[0]
        self.cache_hits = 0
        #: Absolute ``perf_counter`` deadline set at admission.  The
        #: coalescer refuses to spend forward time on an item whose
        #: handler has already given up waiting.
        self.deadline = float("inf")

    def fail(self, code: str, message: str) -> None:
        self.error = (code, message)
        self.done.set()


class _Coalescer(threading.Thread):
    """One appliance's scoring loop: drain its deque, stack, forward, split."""

    def __init__(self, appliance: str, server: "ServingDaemon"):
        super().__init__(name=f"coalescer-{appliance}", daemon=True)
        self.appliance = appliance
        self.server = server
        self.engine = server.engine
        self.config = server.config
        self.metrics = server.metrics
        #: Admitted requests not yet taken into a batch, guarded by the
        #: daemon's ``_cv``; admission caps it at ``config.queue_depth``.
        self.pending: Deque[_PendingScore] = deque()
        self._stop_requested = False

    def run(self) -> None:
        config = self.config
        cv = self.server._cv
        while True:
            with cv:
                while not self.pending:
                    if self._stop_requested:
                        return  # drained: stop was requested and the deque is dry
                    cv.wait()
                item = self.pending.popleft()
                batch = [item]
                n_windows = item.windows.shape[0]
                reason = None
                deadline = time.perf_counter() + config.max_wait_us / 1e6
                while config.coalesce and reason is None:
                    while self.pending and n_windows < config.max_batch_windows:
                        item = self.pending.popleft()
                        batch.append(item)
                        n_windows += item.windows.shape[0]
                    remaining = deadline - time.perf_counter()
                    if n_windows >= config.max_batch_windows:
                        reason = "full"
                    elif not self.server._can_send_request():
                        reason = "waiting"
                    elif remaining <= 0:
                        reason = "linger"
                    else:
                        # Woken by any admission and any connection exit.
                        cv.wait(remaining)
            if reason is not None:
                self.metrics.record_flush(reason)
            self._serve_batch(batch, n_windows)
            # Counted down here, where the batch is answered, not as each
            # handler wakes: handlers that have not woken yet would leave
            # the count stale, and the next cohort's first request would
            # see no idle connection and flush alone.
            with cv:
                self.server._unanswered -= len(batch)

    def _serve_batch(self, batch: List[_PendingScore], n_windows: int) -> None:
        # Per-request deadline: an item that sat in the queue past its
        # handler's patience gets a typed (retryable) failure instead of
        # a share of an expensive forward nobody is waiting for.
        now = time.perf_counter()
        expired = [item for item in batch if item.deadline <= now]
        if expired:
            for item in expired:
                item.fail(
                    "deadline_exceeded",
                    f"request exceeded its {self.config.request_timeout_s}s "
                    f"deadline while queued",
                )
            batch = [item for item in batch if item.deadline > now]
            if not batch:
                return
            n_windows = sum(item.windows.shape[0] for item in batch)
        if len(batch) == 1:
            stacked = batch[0].windows
        else:
            stacked = np.concatenate([item.windows for item in batch], axis=0)
        # Zero-pad to the next power of two.  Traced eval plans are keyed
        # on batch signature and pay a trace on first sight; coalescing
        # produces a different row count per cohort, so without buckets a
        # daemon keeps re-tracing instead of replaying.  Bit-exact: rows
        # are independent through the whole stack, and pad rows are
        # sliced off before stitching.
        bucket = 1 << (n_windows - 1).bit_length()
        if bucket > n_windows:
            stacked = np.concatenate(
                [
                    stacked,
                    np.zeros((bucket - n_windows, stacked.shape[1]), dtype=np.float32),
                ],
                axis=0,
            )
        try:
            if len(batch) > 1 and faults.ACTIVE is not None:
                faults.ACTIVE.fire("serve.coalesce")
            output, hits = self.engine.localize_windows(self.appliance, stacked)
        except Exception as exc:  # noqa: BLE001 — every waiter must be answered
            if len(batch) > 1:
                # Exception isolation: replay the cohort item by item so
                # one poisoned request fails alone.  Batch-size
                # invariance makes each survivor's solo result
                # bit-identical to its share of the fused forward.
                self.metrics.record_isolation()
                for item in batch:
                    self._serve_batch([item], item.windows.shape[0])
                return
            item = batch[0]
            item.fail("internal", f"{type(exc).__name__}: {exc}")
            return
        row = 0
        for item in batch:
            k = item.windows.shape[0]
            # Row slices of the stacked output ARE the solo-call outputs:
            # the backend is batch-size invariant, bit for bit.
            sub = LocalizationOutput(
                detection_proba=output.detection_proba[row : row + k],
                detected=output.detected[row : row + k],
                cam=output.cam[row : row + k],
                soft_status=output.soft_status[row : row + k],
                status=output.status[row : row + k],
            )
            row += k
            try:
                item.result = self.engine.stitch_result(
                    item.appliance,
                    item.plan,
                    sub,
                    item.aggregate,
                    cache_hits=hits if len(batch) == 1 else 0,
                )
                item.cache_hits = hits if len(batch) == 1 else 0
                item.batch_requests = len(batch)
                item.batch_windows = n_windows
                item.done.set()
            except Exception as exc:  # noqa: BLE001
                item.fail("internal", f"{type(exc).__name__}: {exc}")
        self.metrics.record_batch(len(batch), n_windows)

    # -- shutdown ---------------------------------------------------------
    def stop(self) -> None:
        """Ask the loop to exit once its deque is drained."""
        with self.server._cv:
            self._stop_requested = True
            self.server._cv.notify_all()

    def flush_pending(self, code: str, message: str) -> int:
        """Fail whatever is still queued (post-join stragglers); count them."""
        with self.server._cv:
            failed = len(self.pending)
            while self.pending:
                self.pending.popleft().fail(code, message)
            self.server._unanswered -= failed
        return failed


def _summarize_household(house_id: str, scores) -> Dict[str, object]:
    """Compact JSON row for one scored household of a bulk store job.

    Full per-timestamp series stay out of the response on purpose (a
    portfolio job covers months × thousands of homes); the blake2b
    digest of the status bytes lets callers verify equivalence against
    an in-process :meth:`InferenceEngine.score_store` run exactly.
    """
    appliances = {}
    for name, result in scores:
        appliances[name] = {
            "n_windows": int(result.n_windows),
            "n_detected": int(result.n_detected),
            "detection_rate": float(result.detection_rate),
            "on_fraction": float(result.status.mean()),
            "status_blake2b": blake2b(
                result.status.tobytes(), digest_size=16
            ).hexdigest(),
        }
    return {
        "house_id": house_id,
        "n_samples": int(scores.n_samples),
        "appliances": appliances,
    }


#: How many times a bulk job's broken process pool is rebuilt before the
#: job fails: a crash-looping fleet (bad model file, OOM on every load)
#: should error out, not spin forever.
_MAX_POOL_REBUILDS = 2


def _cpu_shares(workers: int) -> List[List[int]]:
    """The CPUs of this thread dealt to ``workers`` store-job workers.

    Round robin, so shares differ by at most one CPU; with more workers
    than CPUs, each worker gets one CPU and some share it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return [cpus[i::workers] or [cpus[i % len(cpus)]] for i in range(workers)]


def _score_store_shard(
    fleet_dir: str,
    engine_config: Dict[str, object],
    store_path: str,
    house_ids: List[str],
    appliances: Optional[List[str]],
    attempt: int = 0,
    cpus: Optional[List[int]] = None,
) -> List[Dict[str, object]]:
    """Worker-process entry of the bulk fan-out: score one household shard.

    Runs in a ``spawn`` process pool, so it rebuilds its own engine from
    the persisted fleet — the daemon's in-memory pipelines never cross
    the process boundary.  ``attempt`` is the parent's retry round for
    this shard; it keys the ``serve.worker`` fault decision, so a seeded
    chaos run can kill attempt 0 deterministically and let the retry
    after the pool rebuild survive (spawn re-imports this module, so the
    child's fault plan comes from the inherited ``REPRO_FAULTS``).
    ``cpus`` is this worker's share of the daemon's CPUs.  With a
    one-thread BLAS the worker runs on it, so its plans trace with the
    lanes the share allows (:func:`repro.nn.plan.plan_lanes`) and sibling
    workers' lanes do not crowd one CPU.  A multi-threaded BLAS already
    keeps plans on one lane and is left to spread over every CPU.
    """
    from ..api.persistence import load_pipelines
    from ..data.store import MeterStore
    from ..nn.plan import blas_threads
    from .engine import EngineConfig

    if faults.ACTIVE is not None:
        faults.ACTIVE.fire("serve.worker", token=attempt)
    if cpus is not None and blas_threads() == 1:
        os.sched_setaffinity(0, cpus)
    engine = InferenceEngine(EngineConfig(**engine_config))
    for name, estimator in load_pipelines(fleet_dir).items():
        engine.register(name, estimator)
    store = MeterStore(store_path)
    return [
        _summarize_household(house_id, scores)
        for house_id, scores in engine.score_store(store, house_ids, appliances)
    ]


class ServingDaemon:
    """Long-lived TCP daemon serving a warm :class:`InferenceEngine`.

    Typical use::

        engine = InferenceEngine(EngineConfig(window=256, stride=128))
        engine.load("kettle", "models/kettle", warm=True)
        daemon = ServingDaemon(engine, ServeConfig(port=0))
        host, port = daemon.start()
        ...                       # clients connect (repro.serving.client)
        daemon.shutdown()         # graceful drain

    ``fleet_dir`` (the ``save_pipelines`` root the models were loaded
    from) enables shard-parallel ``store`` jobs: worker processes reload
    the fleet from disk.  Without it bulk jobs still run, in-process.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        config: Optional[ServeConfig] = None,
        fleet_dir: Optional[str] = None,
    ):
        self.engine = engine
        self.config = config or ServeConfig()
        self.fleet_dir = fleet_dir
        self.metrics = ServerMetrics()
        self._sock: Optional[socket.socket] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._coalescers: Dict[str, _Coalescer] = {}
        #: The daemon's one state condition.  It guards ``_coalescers``,
        #: ``_connections``, every coalescer's deque and ``_unanswered``;
        #: admissions and connection exits notify it.
        self._cv = threading.Condition()
        self._connections: Dict[socket.socket, threading.Thread] = {}
        #: Admitted score requests not yet answered by their coalescer.
        self._unanswered = 0
        self._acceptor: Optional[threading.Thread] = None
        self._draining = False
        self._closed = False
        self._done = threading.Event()
        self._inflight = 0
        self._inflight_cv = threading.Condition()

    # -- lifecycle --------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind, listen, spawn the acceptor; returns ``(host, port)``."""
        if self._sock is not None:
            raise RuntimeError("daemon already started")
        if not self.engine.pipelines:
            raise RuntimeError("refusing to serve an engine with no pipelines")
        if self.config.warm_start:
            self._warm_buckets()
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.config.host, self.config.port))
        sock.listen(128)
        self._sock = sock
        self.host, self.port = sock.getsockname()[:2]
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="serve-acceptor", daemon=True
        )
        self._acceptor.start()
        return self.host, self.port

    def _warm_buckets(self) -> None:
        """Trace every bucket-sized plan signature before going live.

        Tracing an eval plan costs orders of magnitude more than
        replaying it; with bucketing the signature space is the small
        power-of-two ladder, so paying all of it at startup keeps live
        p99 flat from the very first request.  The ladder is traced
        largest first: an ensemble's plans share arena chunks, and
        sizing them by the biggest plan lets the smaller ones fit in them.
        """
        window = self.engine.config.window
        bucket = 1 << (self.config.max_batch_windows - 1).bit_length()
        while bucket >= 1:
            windows = np.zeros((bucket, window), dtype=np.float32)
            for appliance in list(self.engine.pipelines):
                self.engine.localize_windows(appliance, windows)
            bucket >>= 1

    def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes (SIGTERM-friendly wait)."""
        while not self._done.wait(timeout=0.2):
            pass

    def __enter__(self) -> "ServingDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    @property
    def draining(self) -> bool:
        return self._draining

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the daemon; with ``drain`` (default) finish queued work first.

        Ordering matters: stop admissions (``draining`` flag + closed
        listener) → let every coalescer empty its queue → wait for
        handler threads to write the in-flight responses → only then tear
        the sockets down.  No admitted request is ever silently dropped;
        whatever a hard (non-drain or timed-out) stop leaves queued is
        failed with a ``draining`` error rather than abandoned.
        """
        with self._cv:
            if self._closed:
                return
            self._draining = True
        deadline = time.monotonic() + (DRAIN_TIMEOUT_S if timeout is None else timeout)
        if self._sock is not None:
            try:
                self._sock.close()  # acceptor's accept() raises OSError -> exits
            except OSError:  # pragma: no cover - close is best-effort
                pass
        coalescers = list(self._coalescers.values())
        if drain:
            for coalescer in coalescers:
                coalescer.stop()
            for coalescer in coalescers:
                coalescer.join(timeout=max(0.0, deadline - time.monotonic()))
            with self._inflight_cv:
                self._inflight_cv.wait_for(
                    lambda: self._inflight == 0,
                    timeout=max(0.0, deadline - time.monotonic()),
                )
        self._closed = True
        for coalescer in coalescers:
            if not drain:
                coalescer.stop()
            coalescer.flush_pending(
                "draining", "daemon shut down before the request was served"
            )
        for conn in list(self._connections):
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        for thread in list(self._connections.values()):
            thread.join(timeout=1.0)
        if self._acceptor is not None:
            self._acceptor.join(timeout=1.0)
        self._done.set()

    # -- socket plumbing --------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._sock is not None
        while True:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return  # listener closed by shutdown()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            handler = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            with self._cv:
                if self._closed:
                    conn.close()
                    return
                # Started before it is published: shutdown() joins every
                # published handler, and joining an unstarted thread
                # raises.  The handler unregisters under this same lock,
                # so it cannot do so before the publish.
                handler.start()
                self._connections[conn] = handler

    def _serve_connection(self, conn: socket.socket) -> None:
        reader = FrameReader()
        try:
            while True:
                try:
                    chunk = conn.recv(65536)
                except OSError:
                    return
                if not chunk:
                    return
                pending = True
                first = True
                while pending:
                    pending = False
                    try:
                        # After a bad line, drain() resumes with the valid
                        # frames that arrived in the same chunk behind it.
                        for request in reader.feed(chunk) if first else reader.drain():
                            self._dispatch(conn, request)
                    except FrameTooLarge as exc:
                        # No resync is possible inside an oversized line:
                        # answer once, then drop the connection.
                        self.metrics.record_error("frame_too_large")
                        self._send(
                            conn, error_response(None, "frame_too_large", str(exc))
                        )
                        return
                    except FrameError as exc:
                        # The bad line was consumed; the connection survives.
                        self.metrics.record_error("bad_frame")
                        self._send(conn, error_response(None, "bad_frame", str(exc)))
                        pending = True
                        first = False
        finally:
            with self._cv:
                self._connections.pop(conn, None)
                self._cv.notify_all()  # a lingering coalescer may flush now
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def _can_send_request(self) -> bool:
        """Whether some open connection could still send a score request.

        Call with ``_cv`` held.  A handler serves its connection's frames
        one at a time and blocks until its request is answered, so once
        every open connection has an unanswered request, no request can
        arrive before one of them is answered.
        """
        return len(self._connections) > self._unanswered

    def _send(self, conn: socket.socket, response: Dict[str, object]) -> bool:
        try:
            conn.sendall(encode_frame(response))
            return True
        except (OSError, ValueError):
            return False  # client went away; nothing left to tell it

    # -- dispatch ---------------------------------------------------------
    def _dispatch(self, conn: socket.socket, request: Dict[str, object]) -> None:
        op = request.get("op")
        self.metrics.record_request(str(op))
        with self._inflight_cv:
            self._inflight += 1
        try:
            if op == "ping":
                self._send(conn, ok_response(request, {"pong": True}))
            elif op == "metrics":
                self._send(conn, ok_response(request, self._metrics_snapshot()))
            elif op == "score":
                self._handle_score(conn, request)
            elif op == "store":
                self._handle_store(conn, request)
            elif op == "shutdown":
                self._handle_shutdown(conn, request)
            else:
                self._fail(conn, request, "unknown_op", f"unknown op {op!r}")
        finally:
            with self._inflight_cv:
                self._inflight -= 1
                self._inflight_cv.notify_all()

    def _fail(
        self,
        conn: socket.socket,
        request: Dict[str, object],
        code: str,
        message: str,
        retry_after_ms: Optional[int] = None,
    ) -> None:
        self.metrics.record_error(code)
        self._send(conn, error_response(request, code, message, retry_after_ms))

    # -- score ------------------------------------------------------------
    def _handle_score(self, conn: socket.socket, request: Dict[str, object]) -> None:
        t_start = time.perf_counter()
        appliance = request.get("appliance")
        if not isinstance(appliance, str):
            return self._fail(conn, request, "bad_request", "missing 'appliance'")
        if appliance not in self.engine.pipelines:
            return self._fail(
                conn,
                request,
                "unknown_appliance",
                f"no pipeline registered for {appliance!r}; "
                f"serving {sorted(self.engine.pipelines)}",
            )
        if "series" not in request:
            return self._fail(conn, request, "bad_request", "missing 'series'")
        try:
            series = decode_series(request["series"])
        except FrameError as exc:
            return self._fail(conn, request, "bad_request", str(exc))
        if series.size == 0:
            return self._fail(conn, request, "bad_request", "series is empty")
        try:
            aggregate, plan, windows = self.engine.window_series(series)
        except ValueError as exc:
            return self._fail(conn, request, "bad_request", str(exc))
        if self._draining:
            return self._fail(
                conn,
                request,
                "draining",
                "daemon is draining; retry against another replica",
                retry_after_ms=self.metrics.retry_after_ms(self.config.queue_depth),
            )

        item = _PendingScore(appliance, aggregate, plan, windows)
        item.deadline = t_start + self.config.request_timeout_s
        coalescer = self._coalescer_for(appliance)
        with self._cv:
            admitted = len(coalescer.pending) < self.config.queue_depth
            if admitted:
                coalescer.pending.append(item)
                self._unanswered += 1
                self._cv.notify_all()
        if not admitted:
            return self._fail(
                conn,
                request,
                "overloaded",
                f"appliance {appliance!r} queue is full "
                f"({self.config.queue_depth} pending requests)",
                retry_after_ms=self.metrics.retry_after_ms(self.config.queue_depth),
            )
        if not item.done.wait(timeout=self.config.request_timeout_s):
            return self._fail(
                conn,
                request,
                "deadline_exceeded",
                f"request exceeded its {self.config.request_timeout_s}s deadline",
                retry_after_ms=self.metrics.retry_after_ms(self.config.queue_depth),
            )
        if item.error is not None:
            code, message = item.error
            retry = (
                self.metrics.retry_after_ms(self.config.queue_depth)
                if code in ("overloaded", "draining", "deadline_exceeded")
                else None
            )
            return self._fail(conn, request, code, message, retry)

        result = item.result
        assert result is not None
        latency = time.perf_counter() - t_start
        self.metrics.record_latency(latency)
        # Mirror the request's series encoding in the response.
        compact = isinstance(request["series"], str)
        payload: Dict[str, object] = {
            "appliance": appliance,
            "n_samples": plan.series_length,
            "n_windows": plan.n_windows,
            "window": plan.window,
            "stride": plan.stride,
            "detection_rate": result.detection_rate,
            "cache_hits": item.cache_hits,
            "coalesced_requests": item.batch_requests,
            "coalesced_windows": item.batch_windows,
            "server_ms": latency * 1e3,
            "soft_status": (
                encode_series(result.soft_status)
                if compact
                else [float(v) for v in result.soft_status]
            ),
            "status": (
                encode_series(result.status)
                if compact
                else [float(v) for v in result.status]
            ),
        }
        self._send(conn, ok_response(request, payload))

    def _coalescer_for(self, appliance: str) -> _Coalescer:
        """The appliance's coalescer thread, created lazily on first use."""
        coalescer = self._coalescers.get(appliance)
        if coalescer is not None:
            return coalescer
        with self._cv:
            coalescer = self._coalescers.get(appliance)
            if coalescer is None:
                coalescer = _Coalescer(appliance, self)
                self._coalescers[appliance] = coalescer
                coalescer.start()
        return coalescer

    # -- bulk store jobs --------------------------------------------------
    def _handle_store(self, conn: socket.socket, request: Dict[str, object]) -> None:
        store_path = request.get("store")
        if not isinstance(store_path, str):
            return self._fail(conn, request, "bad_request", "missing 'store'")
        appliances = request.get("appliances")
        house_ids = request.get("house_ids")
        for field_name, value in (("appliances", appliances), ("house_ids", house_ids)):
            if value is not None and not (
                isinstance(value, list) and all(isinstance(v, str) for v in value)
            ):
                return self._fail(
                    conn, request, "bad_request", f"{field_name!r} must be a string list"
                )
        try:
            workers = int(request.get("workers", 1))
        except (TypeError, ValueError):
            return self._fail(conn, request, "bad_request", "'workers' must be an int")
        if self._draining:
            return self._fail(
                conn, request, "draining", "daemon is draining; bulk job refused"
            )
        t_start = time.perf_counter()
        try:
            rows, workers_used, pool_rebuilds = self._run_store_job(
                store_path, house_ids, appliances, workers
            )
        except KeyError as exc:
            return self._fail(conn, request, "bad_request", str(exc))
        except (OSError, ValueError) as exc:
            return self._fail(
                conn, request, "bad_request", f"{type(exc).__name__}: {exc}"
            )
        except RuntimeError as exc:
            # Worker crashes that survived every pool rebuild.
            return self._fail(conn, request, "internal", str(exc))
        self._send(
            conn,
            ok_response(
                request,
                {
                    "store": store_path,
                    "n_households": len(rows),
                    "workers": workers_used,
                    "pool_rebuilds": pool_rebuilds,
                    "job_ms": (time.perf_counter() - t_start) * 1e3,
                    "rows": rows,
                },
            ),
        )

    def _run_store_job(
        self,
        store_path: str,
        house_ids: Optional[List[str]],
        appliances: Optional[List[str]],
        workers: int,
    ) -> Tuple[List[Dict[str, object]], int, int]:
        from ..data.store import MeterStore

        store = MeterStore(store_path)
        houses = list(store.house_ids if house_ids is None else house_ids)
        workers = max(1, min(workers, len(houses)))
        if workers == 1 or self.fleet_dir is None:
            # In-process path: shares the warm engine (and its result
            # cache) with interactive traffic, serialized by the engine
            # lock like everything else.
            rows = [
                _summarize_household(house_id, scores)
                for house_id, scores in self.engine.score_store(
                    store, houses, appliances
                )
            ]
            return rows, 1, 0
        for name in appliances or []:
            if name not in self.engine.pipelines:
                raise KeyError(f"no pipeline registered for appliance {name!r}")
        # Contiguous shards keep the output in input order after a plain
        # concatenation; `spawn` (not fork) because the daemon is
        # multithreaded and a forked child could inherit a held lock.
        import multiprocessing

        shards = [list(part) for part in np.array_split(houses, workers) if len(part)]
        cpus: List[Optional[List[int]]] = (
            _cpu_shares(len(shards)) if hasattr(os, "sched_setaffinity")
            else [None] * len(shards)
        )
        engine_config = asdict(self.engine.config)
        spawn_ctx = multiprocessing.get_context("spawn")
        # Worker-crash recovery: a killed worker (OOM, chaos `kill`)
        # breaks the whole pool, losing even shards whose futures had not
        # started.  Rebuild the pool and resubmit only the shards without
        # results, bumping `attempt` so seeded fault decisions can change
        # between rounds.  Completed shard rows are never recomputed, and
        # input order is preserved by reassembling in shard order.
        results: List[Optional[List[Dict[str, object]]]] = [None] * len(shards)
        pending = list(range(len(shards)))
        rebuilds = 0
        pool = ProcessPoolExecutor(max_workers=len(shards), mp_context=spawn_ctx)
        try:
            for attempt in range(_MAX_POOL_REBUILDS + 1):
                futures = {
                    index: pool.submit(
                        _score_store_shard,
                        self.fleet_dir,
                        engine_config,
                        store_path,
                        shards[index],
                        appliances,
                        attempt,
                        cpus[index],
                    )
                    for index in pending
                }
                failed = []
                for index, future in futures.items():
                    try:
                        results[index] = future.result()
                    except BrokenProcessPool:
                        failed.append(index)
                if not failed:
                    break
                pending = failed
                if attempt == _MAX_POOL_REBUILDS:
                    raise RuntimeError(
                        f"store job workers for {len(pending)} shard(s) kept "
                        f"crashing after {rebuilds} pool rebuild(s); giving up"
                    )
                pool.shutdown(wait=False)
                pool = ProcessPoolExecutor(
                    max_workers=len(pending), mp_context=spawn_ctx
                )
                rebuilds += 1
                self.metrics.record_pool_rebuild()
        finally:
            pool.shutdown(wait=False)
        rows = [row for shard_rows in results for row in shard_rows]
        return rows, len(shards), rebuilds

    # -- metrics / shutdown ops -------------------------------------------
    def _metrics_snapshot(self) -> Dict[str, object]:
        with self._cv:
            queues = {
                name: len(coalescer.pending)
                for name, coalescer in self._coalescers.items()
            }
        return self.metrics.snapshot(
            extra={
                "appliances": sorted(self.engine.pipelines),
                "queue_depth": queues,
                "draining": self._draining,
                "config": {
                    "coalesce": self.config.coalesce,
                    "max_batch_windows": self.config.max_batch_windows,
                    "max_wait_us": self.config.max_wait_us,
                    "queue_limit": self.config.queue_depth,
                    "window": self.engine.config.window,
                    "stride": self.engine.config.stride
                    or self.engine.config.window,
                    "batch_size": self.engine.config.batch_size,
                },
                "buffer_pool": self.engine.buffer_pool_stats(),
                "plan": self.engine.plan_stats(),
            }
        )

    def _handle_shutdown(self, conn: socket.socket, request: Dict[str, object]) -> None:
        if not self.config.allow_shutdown:
            return self._fail(
                conn, request, "bad_request", "shutdown is disabled on this daemon"
            )
        self._send(conn, ok_response(request, {"draining": True}))
        # Drain from a fresh thread: this handler IS one of the threads
        # shutdown() waits on, so doing it inline would self-deadlock.
        threading.Thread(
            target=self.shutdown, kwargs={"drain": True}, daemon=True
        ).start()
