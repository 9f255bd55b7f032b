"""Runtime sanitizer for the serving invariants (``REPRO_NN_SANITIZE=1``).

PRs 5-6 made steady-state serving fast by imposing invariants the type
system cannot see: pooled buffers are *fully rewritten* before every read,
plan buffers are never read after the trace released them, and memory-mapped
store windows are never written by a kernel.  This module makes violating
any of them fail loudly instead of silently corrupting a score:

* **buffer-pool poison + generation tags** — when sanitizing, every buffer
  a :class:`~repro.nn.backend.pool.BufferPool` recycles at ``step()`` is
  poison-filled (NaN for floats) and its generation tag bumped, so a
  consumer that reads a released micro-batch buffer propagates NaN into
  its outputs (caught by the first comparison or finiteness check) rather
  than reading a stale-but-plausible activation;
* **plan buffer tracking** — :class:`PlanTracker` rides along the second
  pass of a :class:`~repro.nn.plan.PlanBuilder` trace: every emitted step
  declares the buffers it reads/writes, and the tracker raises
  :class:`PlanSanitizeError` *naming the offending step* when a step reads
  a buffer after its release (use-after-release), reads a buffer no step
  has written since it was handed out (read before write), or writes a
  released buffer (cross-buffer aliasing), and when a buffer is handed
  out over bytes of a buffer still live (an overlapping layout).
  Released buffers are poison-filled too;
* **read-only store views** — :func:`freeze` flips the writeable flag off
  on windows served by :mod:`repro.data`, so a kernel writing into a store
  view raises ``ValueError`` at the offending statement.

The instrumentation is built to be *free when off*: ``BufferPool`` and
``PlanBuilder`` resolve the flag once at construction to a single
``is None`` branch per operation, and :func:`freeze` is one truthiness
check.  ``benchmarks/bench_nn_ops.py --smoke`` measures and asserts the
disabled-mode overhead (< 5 % on a raw take/step loop).

Enable with ``REPRO_NN_SANITIZE=1`` (see ``docs/config.md``) or, in tests,
with the :func:`force` context manager — note that pools and builders
snapshot the flag when constructed.
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SANITIZE_ENV",
    "PlanSanitizeError",
    "PlanTracker",
    "PoolTracker",
    "enabled",
    "force",
    "freeze",
    "plan_tracker",
    "poison_fill",
    "pool_tracker",
    "reset_stats",
    "stats",
]

#: Environment variable enabling the sanitizer (``1``/``true``/``on``/``yes``).
SANITIZE_ENV = "REPRO_NN_SANITIZE"

#: Test override installed by :func:`force` (``None`` = follow the env var).
_FORCED: Optional[bool] = None

#: Process-wide instrumentation counters (surfaced in the benchmark JSON).
_STATS: Dict[str, int] = {
    "poison_fills": 0,
    "generation_bumps": 0,
    "frozen_views": 0,
    "tracked_slots": 0,
    "plan_checks": 0,
}


class PlanSanitizeError(RuntimeError):
    """A traced plan step violated the buffer lifetime discipline."""


def enabled() -> bool:
    """Whether sanitizing is on (env var, unless :func:`force` overrides)."""
    if _FORCED is not None:
        return _FORCED
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in (
        "1",
        "true",
        "on",
        "yes",
    )


@contextlib.contextmanager
def force(value: Optional[bool]) -> Iterator[None]:
    """Override the env-var gate for the duration of the block (tests).

    Pools and plan builders read the flag at *construction*, so construct
    them inside the block.
    """
    global _FORCED
    previous = _FORCED
    _FORCED = value
    try:
        yield
    finally:
        _FORCED = previous


def stats() -> Dict[str, int]:
    """Snapshot of the instrumentation counters."""
    return dict(_STATS)


def reset_stats() -> None:
    """Zero the counters (tests and benchmarks call this around a region)."""
    for key in _STATS:
        _STATS[key] = 0


def poison_fill(arr: np.ndarray) -> None:
    """Overwrite ``arr`` with an unmistakably-wrong value, in place.

    NaN for floats (it propagates through any arithmetic that reads it),
    the dtype's minimum for integers, ``True`` for booleans.
    """
    if arr.dtype.kind == "f":
        arr.fill(np.nan)
    elif arr.dtype.kind == "c":
        arr.fill(complex(np.nan, np.nan))
    elif arr.dtype.kind in "iu":
        arr.fill(np.iinfo(arr.dtype).min if arr.dtype.kind == "i" else np.iinfo(arr.dtype).max)
    else:
        arr.fill(True)
    _STATS["poison_fills"] += 1


def freeze(arr: np.ndarray) -> np.ndarray:
    """Return ``arr`` read-only when sanitizing (no-op — and free — when off).

    Applied by :mod:`repro.data` to every window/mask it serves, so a
    kernel that writes into a store view raises ``ValueError`` instead of
    corrupting (or appearing to corrupt) the on-disk recording.  Memmap
    views opened ``mode="r"`` are read-only already; this extends the
    guarantee to the copies made for shard-straddling ranges and
    unsubmetered channels.
    """
    if enabled() and arr.flags.writeable:
        arr.setflags(write=False)
        _STATS["frozen_views"] += 1
    return arr


# ----------------------------------------------------------------------
# Buffer-pool instrumentation
# ----------------------------------------------------------------------
class PoolTracker:
    """Generation tags + poison-fill for one :class:`BufferPool`.

    ``on_take`` tags the handed-out buffer with its current generation;
    ``on_release`` (called from ``BufferPool.step``) poison-fills every
    buffer being recycled and bumps its generation.  A consumer holding a
    buffer across a ``step()`` — the use-after-release the pool's contract
    forbids — therefore reads NaN, and the generation counters make the
    recycling visible in :meth:`summary`.
    """

    def __init__(self) -> None:
        self._generation: Dict[int, int] = {}

    def on_take(self, arr: np.ndarray) -> None:
        if id(arr) not in self._generation:
            self._generation[id(arr)] = 0
            _STATS["tracked_slots"] += 1

    def on_release(self, taken: Sequence[np.ndarray]) -> None:
        for arr in taken:
            poison_fill(arr)
            self._generation[id(arr)] = self._generation.get(id(arr), 0) + 1
            _STATS["generation_bumps"] += 1

    def generation(self, arr: np.ndarray) -> int:
        """Current generation tag of a pooled buffer (0 = never recycled)."""
        return self._generation.get(id(arr), 0)

    def summary(self) -> Dict[str, int]:
        return {
            "tracked_buffers": len(self._generation),
            "generations": sum(self._generation.values()),
        }


def pool_tracker() -> Optional[PoolTracker]:
    """A fresh tracker when sanitizing, else ``None`` (the one-branch gate)."""
    return PoolTracker() if enabled() else None


# ----------------------------------------------------------------------
# Plan-trace instrumentation
# ----------------------------------------------------------------------
class _BufferState:
    __slots__ = ("lo", "hi", "free", "written", "released_by")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo = lo
        self.hi = hi
        self.free = False
        self.written = False
        self.released_by: Optional[str] = None


class PlanTracker:
    """Trace-time buffer lifetime checker for a :class:`PlanBuilder` trace.

    The second pass of a trace registers every buffer it hands out, every
    release, and — through ``emit(..., reads=..., writes=...)`` — which
    buffers each recorded step touches, so every violation is caught
    before a single replay:

    * a step reading a released buffer is a **use-after-release** (a later
      buffer placed over its bytes may clobber them first);
    * a step reading a buffer no step has written since it was handed out
      is a **read before write**: its bytes hold what a buffer placed
      there earlier, or another plan, left.  Buffers the caller fills
      before every run (``PlanBuilder.input``) count as written;
    * a step writing a released buffer is **cross-buffer aliasing**;
    * a buffer handed out over bytes of a live buffer is an **overlap**.

    Views resolve to their buffer through ``.base``, so reads and writes
    may be declared with the exact array the step closure uses.
    """

    def __init__(self) -> None:
        #: id of each tracked buffer -> (the buffer, held so its id stays
        #: its own, and its state).
        self._buffers: Dict[int, Tuple[np.ndarray, _BufferState]] = {}
        self._live: Dict[int, _BufferState] = {}

    # -- builder hooks -----------------------------------------------------
    def on_buffer(self, arr: np.ndarray, at_step: Optional[str] = None) -> None:
        """Register a buffer handed out after step ``at_step``; ``arr`` is
        the array views of it resolve to."""
        lo = arr.__array_interface__["data"][0]
        state = _BufferState(lo, lo + arr.nbytes)
        for other in self._live.values():
            if state.lo < other.hi and other.lo < state.hi:
                raise PlanSanitizeError(
                    "a buffer handed out after plan step "
                    f"{at_step!r} shares bytes with a buffer still live"
                    " — overlapping layout (each would clobber the other)"
                )
        self._buffers[id(arr)] = (arr, state)
        self._live[id(arr)] = state
        _STATS["tracked_slots"] += 1

    def on_input(self, arr: np.ndarray) -> None:
        """Count ``arr``'s buffer as written: the caller fills it before a run."""
        state = self._resolve(arr)
        if state is not None:
            state.written = True

    def on_release(self, arr: np.ndarray, at_step: Optional[str] = None) -> None:
        """Mark a registered buffer released and poison-fill it."""
        state = self._live.pop(id(arr))
        state.free = True
        state.released_by = at_step
        poison_fill(arr)

    def on_emit(
        self,
        label: str,
        reads: Sequence[np.ndarray],
        writes: Sequence[np.ndarray],
    ) -> None:
        _STATS["plan_checks"] += 1
        for arr in reads:
            state = self._resolve(arr)
            if state is None:
                continue  # parameter/external array, not a plan buffer
            if state.free:
                raise PlanSanitizeError(
                    f"plan step {label!r} reads a buffer released"
                    f"{' by step ' + repr(state.released_by) if state.released_by else ''}"
                    " — use-after-release (a later buffer may be placed over "
                    "it and clobber it before this step runs)"
                )
            if not state.written:
                raise PlanSanitizeError(
                    f"plan step {label!r} reads a buffer no step has written "
                    "since it was handed out — read before write"
                )
        for arr in writes:
            state = self._resolve(arr)
            if state is None:
                continue
            if state.free:
                raise PlanSanitizeError(
                    f"plan step {label!r} writes a buffer already released"
                    f"{' by step ' + repr(state.released_by) if state.released_by else ''}"
                    " — cross-buffer aliasing (the write would corrupt "
                    "whatever buffer is placed over its bytes)"
                )
            state.written = True

    # -- internals ---------------------------------------------------------
    def _resolve(self, arr: np.ndarray) -> Optional[_BufferState]:
        node: Optional[np.ndarray] = arr
        while node is not None:
            if id(node) in self._buffers:
                return self._buffers[id(node)][1]
            node = node.base if isinstance(node.base, np.ndarray) else None
        return None


def plan_tracker() -> Optional[PlanTracker]:
    """A fresh tracker when sanitizing, else ``None`` (the one-branch gate)."""
    return PlanTracker() if enabled() else None
