"""Serving-daemon metrics: counters, latency quantiles, batch histogram.

The daemon (:mod:`repro.serving.server`) answers a ``metrics`` request
with one JSON snapshot assembled here.  Everything is cheap enough to
update on every request from many threads:

* **counters** — requests per op, errors per code, fast-rejects;
* **latency** — a fixed-capacity ring buffer of the most recent
  end-to-end request latencies (enqueue → response ready); p50/p99 are
  exact over that window, not sketch estimates;
* **coalescing** — a histogram of how many requests each fused forward
  call merged, plus windows-per-batch totals and why each batch stopped
  gathering.  A serving fleet that never coalesces shows a histogram
  concentrated at 1; if its batches mostly flush on ``linger``,
  ``max_wait_us`` is too small for the arrival rate, and if they mostly
  flush on ``waiting``, no request could have joined anyway.

Wall-clock time is banned repo-wide (lint rule ``DET002``); uptime and
latency both come from ``time.monotonic`` / ``time.perf_counter``.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Sequence

import numpy as np

__all__ = ["LatencyWindow", "ServerMetrics"]


class LatencyWindow:
    """Ring buffer over the most recent ``capacity`` latencies (seconds).

    Exact quantiles over a bounded window beat streaming sketches at this
    scale: 4096 float64 samples cost 32 KiB and one ``np.percentile``
    call, and "recent" is the operationally useful horizon anyway — a
    latency regression should not be averaged away by last week's
    traffic.
    """

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._buf = np.zeros(capacity, dtype=np.float64)
        self._next = 0  # write cursor
        self._count = 0  # lifetime observations (may exceed capacity)
        self._lock = threading.Lock()

    def add(self, seconds: float) -> None:
        with self._lock:
            self._buf[self._next] = seconds
            self._next = (self._next + 1) % len(self._buf)
            self._count += 1

    @property
    def count(self) -> int:
        """Lifetime number of observations."""
        with self._lock:
            return self._count

    def quantiles(self, qs: Sequence[float]) -> Dict[str, float]:
        """``{"p50": ..., "p99": ...}`` in **milliseconds** over the window."""
        with self._lock:
            filled = self._buf[: min(self._count, len(self._buf))].copy()
        if filled.size == 0:
            return {f"p{int(q)}": 0.0 for q in qs}
        values = np.percentile(filled, list(qs)) * 1e3
        return {f"p{int(q)}": float(v) for q, v in zip(qs, values)}

    def mean_ms(self) -> float:
        """Mean latency over the window, in milliseconds (0.0 when empty)."""
        with self._lock:
            filled = self._buf[: min(self._count, len(self._buf))]
            return float(filled.mean() * 1e3) if filled.size else 0.0


class ServerMetrics:
    """All counters the daemon's ``metrics`` endpoint reports."""

    def __init__(self, latency_capacity: int = 4096):
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._requests: Dict[str, int] = {}
        self._errors: Dict[str, int] = {}
        self._rejected = 0
        self._windows_total = 0
        self._batches = 0
        self._batched_requests = 0
        self._coalesce_hist: Dict[int, int] = {}
        self._flushes = {"full": 0, "waiting": 0, "linger": 0}
        self._isolations = 0
        self._pool_rebuilds = 0
        self.latency = LatencyWindow(latency_capacity)

    # -- recording --------------------------------------------------------
    def record_request(self, op: str) -> None:
        with self._lock:
            self._requests[op] = self._requests.get(op, 0) + 1

    def record_error(self, code: str) -> None:
        with self._lock:
            self._errors[code] = self._errors.get(code, 0) + 1
            if code in ("overloaded", "draining"):
                self._rejected += 1

    def record_batch(self, n_requests: int, n_windows: int) -> None:
        """One fused forward call merging ``n_requests`` requests."""
        with self._lock:
            self._batches += 1
            self._batched_requests += n_requests
            self._windows_total += n_windows
            self._coalesce_hist[n_requests] = (
                self._coalesce_hist.get(n_requests, 0) + 1
            )

    def record_flush(self, reason: str) -> None:
        """Why a coalesced batch stopped gathering requests.

        ``full``: it reached ``max_batch_windows``; ``waiting``: every open
        connection was awaiting a result; ``linger``: ``max_wait_us``
        expired.
        """
        with self._lock:
            self._flushes[reason] += 1

    def record_latency(self, seconds: float) -> None:
        self.latency.add(seconds)

    def record_isolation(self) -> None:
        """A coalesced batch failed and was replayed item-by-item."""
        with self._lock:
            self._isolations += 1

    def record_pool_rebuild(self) -> None:
        """A bulk-job process pool broke and was rebuilt."""
        with self._lock:
            self._pool_rebuilds += 1

    # -- reading ----------------------------------------------------------
    def retry_after_ms(self, queue_depth: int) -> int:
        """Backpressure hint: how long a rejected client should back off.

        Roughly the time to drain the queue ahead of the client — queue
        depth times the recent mean service latency — floored at one
        millisecond so the hint is never "retry immediately" while the
        server is shedding load.
        """
        mean = self.latency.mean_ms() or 10.0
        return max(1, int(queue_depth * mean))

    def snapshot(self, extra: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """One JSON-ready dict with every counter; ``extra`` is merged in."""
        uptime = time.monotonic() - self._started
        with self._lock:
            hist = {str(k): v for k, v in sorted(self._coalesce_hist.items())}
            flushes = dict(self._flushes)
            batches = self._batches
            batched_requests = self._batched_requests
            windows_total = self._windows_total
            snap: Dict[str, object] = {
                "uptime_s": uptime,
                "requests": dict(self._requests),
                "errors": dict(self._errors),
                "rejected": self._rejected,
                "recovery": {
                    "coalesce_isolations": self._isolations,
                    "pool_rebuilds": self._pool_rebuilds,
                },
            }
        snap["windows_total"] = windows_total
        snap["windows_per_sec"] = windows_total / uptime if uptime > 0 else 0.0
        latency = self.latency.quantiles((50.0, 99.0))
        latency["count"] = self.latency.count
        snap["latency_ms"] = latency
        snap["coalesce"] = {
            "batches": batches,
            "requests": batched_requests,
            "mean_requests_per_batch": (
                batched_requests / batches if batches else 0.0
            ),
            "hist": hist,
            "flushes": flushes,
        }
        if extra:
            snap.update(extra)
        return snap
