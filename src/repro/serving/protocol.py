"""Wire protocol of the serving daemon: newline-delimited JSON frames.

One frame is one UTF-8 JSON object terminated by ``\\n`` — trivially
debuggable with ``nc`` and implementable from any language in a dozen
lines, which is the point: the daemon is the reference server and
:mod:`repro.serving.client` the reference client, but neither is
privileged.

**Requests** carry ``op`` plus op-specific fields and an optional
``id`` the server echoes back verbatim (clients pipelining requests use
it to match responses):

========  ============================================================
op        fields
========  ============================================================
score     ``appliance`` (str), ``series`` (float list **or** base64 of
          little-endian float32 bytes — the compact form the reference
          client sends)
store     ``store`` (path), optional ``appliances`` / ``house_ids``
          (lists), ``workers`` (int ≥ 1: shard-parallel fan-out)
metrics   —
ping      —
shutdown  — (graceful drain; rejected when the daemon disables it)
========  ============================================================

**Responses** are ``{"id": ..., "ok": true, "result": {...}}`` or
``{"id": ..., "ok": false, "error": {"code": ..., "message": ...}}``;
backpressure rejections add ``retry_after_ms``, the server's estimate of
when capacity frees up (a ``Retry-After`` header in spirit).

Error codes: ``bad_frame`` (unparseable JSON — the offending line is
skipped, the connection survives), ``frame_too_large`` (the connection
is closed: there is no way to resync inside an oversized line),
``bad_request``, ``unknown_op``, ``unknown_appliance``, ``overloaded``
(queue full — fast reject), ``draining`` (daemon is shutting down),
``deadline_exceeded`` (the request outlived its server-side deadline —
retryable, with a ``retry_after_ms`` hint), ``internal``.

Float fidelity: a float32 value widened to float64 and printed by
``json`` round-trips exactly (shortest-repr), so even list-encoded
series and scores are **bit-identical** after ``np.float32`` narrowing
on the far side; base64 encoding is exact by construction.
"""

from __future__ import annotations

import base64
import binascii
import json
from typing import Dict, Iterator, List, Optional, Union

import numpy as np

__all__ = [
    "DEFAULT_PORT",
    "MAX_FRAME_BYTES",
    "FrameError",
    "FrameTooLarge",
    "FrameReader",
    "encode_frame",
    "decode_frame",
    "encode_series",
    "decode_series",
    "error_response",
    "ok_response",
]

#: Default TCP port of `repro serve` (``--port`` picks another).
DEFAULT_PORT = 7733

#: Default per-frame byte budget.  8 MiB of JSON floats is ~half a
#: million samples — a month of 6-second data in one request; anything
#: larger belongs in a meter store scored via the ``store`` op.
MAX_FRAME_BYTES = 8 * 1024 * 1024


class FrameError(ValueError):
    """A frame violated the protocol (bad JSON, not an object, ...)."""


class FrameTooLarge(FrameError):
    """A line exceeded the frame byte budget; the stream cannot resync."""


def encode_frame(obj: Dict[str, object]) -> bytes:
    """Serialize one frame: compact JSON + the terminating newline."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> Dict[str, object]:
    """Parse one newline-stripped frame into a dict (:class:`FrameError`)."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"malformed frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise FrameError(f"frame must be a JSON object, got {type(obj).__name__}")
    return obj


class FrameReader:
    """Incremental frame decoder tolerating arbitrary packetization.

    TCP delivers byte soup: one ``recv`` may hold half a frame or three
    and a half.  Feed every chunk in; complete frames come out::

        reader = FrameReader()
        for chunk in socket_chunks:
            for frame in reader.feed(chunk):
                handle(frame)

    ``feed`` raises :class:`FrameTooLarge` as soon as the unterminated
    buffer exceeds ``max_frame_bytes`` — the caller must close the
    connection, since skipping to the next newline inside a partially
    received oversized line could splice two frames together.
    Malformed JSON in a *complete* line raises :class:`FrameError` from
    the iterator; the bad line is consumed, later lines from the same
    chunk stay queued, and :meth:`drain` resumes yielding them — so one
    garbage line never swallows the valid frames packed behind it.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._lines: List[bytes] = []

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered for a not-yet-complete frame."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> Iterator[Dict[str, object]]:
        """Buffer ``chunk`` and yield every frame it completes, in order."""
        self._buffer.extend(chunk)
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                break
            self._lines.append(bytes(self._buffer[:newline]))
            del self._buffer[: newline + 1]
        if len(self._buffer) > self.max_frame_bytes:
            raise FrameTooLarge(
                f"frame exceeds {self.max_frame_bytes} bytes without a newline"
            )
        return self.drain()

    def drain(self) -> Iterator[Dict[str, object]]:
        """Yield the already-split lines still queued (post-error resume)."""
        while self._lines:
            raw = self._lines.pop(0)
            if len(raw) > self.max_frame_bytes:
                raise FrameTooLarge(
                    f"frame of {len(raw)} bytes exceeds {self.max_frame_bytes}"
                )
            if not raw.strip():
                continue  # blank keep-alive line
            yield decode_frame(raw)


# -- series encoding ------------------------------------------------------
def encode_series(values: np.ndarray) -> str:
    """Base64 of the little-endian float32 bytes — compact and exact."""
    return base64.b64encode(
        np.ascontiguousarray(values, dtype="<f4").tobytes()
    ).decode("ascii")


def decode_series(value: Union[str, List[float]]) -> np.ndarray:
    """Decode a request/response series field to a 1-D float32 array.

    Accepts the base64-float32 compact form (str) or a plain JSON list
    of numbers; raises :class:`FrameError` on anything else.
    """
    if isinstance(value, str):
        try:
            raw = base64.b64decode(value.encode("ascii"), validate=True)
        except (binascii.Error, UnicodeEncodeError) as exc:
            raise FrameError(f"series is not valid base64: {exc}") from exc
        if len(raw) % 4:
            raise FrameError(
                f"base64 series decodes to {len(raw)} bytes, not a float32 multiple"
            )
        return np.frombuffer(raw, dtype="<f4").astype(np.float32)
    if isinstance(value, list):
        try:
            return np.asarray(value, dtype=np.float32)
        except (TypeError, ValueError) as exc:
            raise FrameError(f"series list is not numeric: {exc}") from exc
    raise FrameError(
        f"series must be a float list or base64 string, got {type(value).__name__}"
    )


# -- response builders ----------------------------------------------------
def ok_response(
    request: Dict[str, object], result: Dict[str, object]
) -> Dict[str, object]:
    """Success envelope echoing the request's ``id`` (when present)."""
    response: Dict[str, object] = {"ok": True, "result": result}
    if "id" in request:
        response["id"] = request["id"]
    return response


def error_response(
    request: Optional[Dict[str, object]],
    code: str,
    message: str,
    retry_after_ms: Optional[int] = None,
) -> Dict[str, object]:
    """Error envelope; ``retry_after_ms`` rides on backpressure codes."""
    error: Dict[str, object] = {"code": code, "message": message}
    if retry_after_ms is not None:
        error["retry_after_ms"] = int(retry_after_ms)
    response: Dict[str, object] = {"ok": False, "error": error}
    if request and "id" in request:
        response["id"] = request["id"]
    return response
