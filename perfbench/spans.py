"""Span recording around public calls, kept in memory, and self-time arithmetic.

A :class:`Tracer` swaps a public function or method for a wrapper that
records one :class:`Span` per call: name, start, end, parent span, thread
and, where the wrapper can infer it, the request the call served.  Spans
stay in memory until :meth:`Tracer.write` dumps them when the run ends.
A layer's self time is its span minus its children (:func:`self_times`).

This module imports nothing from the program, so it is safe to import
before BLAS is pinned.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_DONE = object()


@dataclass
class Span:
    """One recorded call; times are ``time.perf_counter()`` seconds."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]  # enclosing span on the same thread
    thread: str
    request: Optional[str] = None
    attrs: Optional[Dict[str, float]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from every thread of one process into one list."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> Tuple[int, Optional[int], float]:
        """Open a span on this thread; :meth:`end` closes it."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def end(
        self,
        token: Tuple[int, Optional[int], float],
        name: str,
        request: Optional[str] = None,
        attrs: Optional[Dict[str, float]] = None,
    ) -> None:
        end = time.perf_counter()
        span_id, parent, start = token
        self._stack().pop()
        self.spans.append(
            Span(span_id, name, start, end, parent, threading.current_thread().name, request, attrs)
        )

    def cancel(self) -> None:
        """Drop this thread's innermost open span without recording it."""
        self._stack().pop()

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        pre: Optional[Callable[[tuple, dict], object]] = None,
        post: Optional[Callable[[tuple, dict, object, object], tuple]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``pre(args, kwargs)`` runs before the span opens; its value reaches
        ``post(args, kwargs, result, pre_value)``, which returns the span's
        ``(request, attrs)``.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def recorded(*args, **kwargs):
            state = pre(args, kwargs) if pre is not None else None
            token = tracer.begin()
            request = attrs = None
            try:
                result = original(*args, **kwargs)
                if post is not None:
                    request, attrs = post(args, kwargs, result, state)
                return result
            finally:
                tracer.end(token, name, request, attrs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, recorded)

    def wrap_iterator(
        self,
        owner: object,
        attr: str,
        name: str,
        post: Optional[Callable[[object], tuple]] = None,
    ) -> None:
        """Like :meth:`wrap` for a call returning an iterator: one span per item."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def recorded(*args, **kwargs):
            items = iter(original(*args, **kwargs))

            def produce():
                while True:
                    token = tracer.begin()
                    try:
                        item = next(items, _DONE)
                    except BaseException:
                        tracer.cancel()
                        raise
                    if item is _DONE:
                        tracer.cancel()
                        return
                    request, attrs = post(item) if post is not None else (None, None)
                    tracer.end(token, name, request, attrs)
                    yield item

            return produce()

        self._patched.append((owner, attr, original))
        setattr(owner, attr, recorded)

    def restore(self) -> None:
        """Put every wrapped callable back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(span) for span in self.spans], fh)


def read_spans(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**row) for row in json.load(fh)]


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its direct children cover.

    Children run on their parent's thread, inside its interval and one
    after another, so the part they cover is the sum of their durations.
    """
    spans = list(spans)
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
    return {span.id: span.duration - covered.get(span.id, 0.0) for span in spans}


def named(
    spans: Iterable[Span], name: str, thread: Optional[Callable[[str], bool]] = None
) -> List[Span]:
    """Spans called ``name`` (on threads ``thread`` accepts), in start order."""
    picked = [s for s in spans if s.name == name and (thread is None or thread(s.thread))]
    return sorted(picked, key=lambda s: s.start)
