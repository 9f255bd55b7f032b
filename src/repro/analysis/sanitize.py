"""Runtime sanitizer for the serving invariants (``REPRO_NN_SANITIZE=1``).

PRs 5-6 made steady-state serving fast by imposing invariants the type
system cannot see: pooled buffers are *fully rewritten* before every read,
plan slots are never read after the trace released them, and memory-mapped
store windows are never written by a kernel.  This module makes violating
any of them fail loudly instead of silently corrupting a score:

* **buffer-pool poison + generation tags** — when sanitizing, every buffer
  a :class:`~repro.nn.backend.pool.BufferPool` recycles at ``step()`` is
  poison-filled (NaN for floats) and its generation tag bumped, so a
  consumer that reads a released micro-batch buffer propagates NaN into
  its outputs (caught by the first comparison or finiteness check) rather
  than reading a stale-but-plausible activation;
* **plan slot tracking** — :class:`PlanTracker` rides along a
  :class:`~repro.nn.plan.PlanBuilder` trace: every emitted step declares
  the slots it reads/writes, and the tracker raises
  :class:`PlanSanitizeError` *naming the offending step* when a step reads
  a slot after its release (use-after-release), reads a slot no step has
  written since it was handed out (read before write), or writes a
  released slot (cross-slot aliasing), and when the two lanes of a lane
  step touch the same memory with at least one writing it (a race).
  Released slots are poison-filled too;
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
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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
    """A traced plan step violated the slot lifetime discipline."""


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
class _SlotState:
    __slots__ = ("generation", "free", "writer_generation", "released_by")

    def __init__(self) -> None:
        self.generation = 0
        self.free = False
        self.writer_generation = -1
        self.released_by: Optional[str] = None


class PlanTracker:
    """Trace-time slot lifetime checker for :class:`PlanBuilder`.

    The builder registers every slot it hands out, every release, and —
    through ``emit(..., reads=..., writes=...)`` — which slots each
    recorded step touches.  Because the builder *is* the scheduler, every
    violation is detectable at trace time, before a single replay:

    * a step reading a slot that sits in the free list is a
      **use-after-release** (its value may be clobbered by whoever recycles
      the slot);
    * a step reading a slot that no step has written since the builder
      handed it out is a **read before write**: a recycled slot still
      holds some other buffer's bytes (possibly another shape or dtype),
      and a fresh one holds whatever the allocator left.  Slots the caller
      fills before every run (``PlanBuilder.input``) count as written;
    * a step writing a slot in the free list is **cross-slot aliasing**
      (the write will corrupt whatever logical buffer recycles the slot);
    * in a lane step (``PlanBuilder.emit_lanes``), a lane writing memory
      the other lane reads or writes is a **race between lanes**: the
      lanes run at the same time, so the bits depend on the timing.

    Views are resolved to their owning slot through ``.base``, so reads
    and writes may be declared with the exact (possibly reshaped/sliced)
    array the step closure uses.
    """

    def __init__(self) -> None:
        self._slots: Dict[int, _SlotState] = {}
        self._arrays: Dict[int, np.ndarray] = {}

    # -- builder hooks -----------------------------------------------------
    def on_buffer(self, arr: np.ndarray, recycled: bool) -> None:
        """Register a slot handed out; ``arr`` is the slot, not a view of it."""
        state = self._slots.get(id(arr))
        if state is None:
            state = _SlotState()
            self._slots[id(arr)] = state
            self._arrays[id(arr)] = arr
            _STATS["tracked_slots"] += 1
        if recycled:
            state.generation += 1
            _STATS["generation_bumps"] += 1
        state.free = False
        state.released_by = None

    def on_input(self, arr: np.ndarray) -> None:
        """Count ``arr``'s slot as written: the caller fills it before a run."""
        state = self._resolve(arr)
        if state is not None:
            state.writer_generation = state.generation

    def on_release(self, arr: np.ndarray, at_step: Optional[str] = None) -> None:
        """Mark a registered slot free and poison-fill it."""
        state = self._slots[id(arr)]
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
        self._check_reads(label, reads)
        self._check_writes(label, writes)

    def on_emit_lanes(
        self,
        label: str,
        reads: Tuple[Sequence[np.ndarray], Sequence[np.ndarray]],
        writes: Tuple[Sequence[np.ndarray], Sequence[np.ndarray]],
    ) -> None:
        """Check a lane step: each of its two lanes as :meth:`on_emit`
        checks a step, then each lane's writes against the other lane's
        reads and writes (exact overlap of the bytes, not just of the
        owning slot)."""
        _STATS["plan_checks"] += 1
        for lane_reads in reads:
            self._check_reads(label, lane_reads)
        for i, kind, others in (
            (0, "writes", writes[1]), (0, "reads", reads[1]), (1, "reads", reads[0]),
        ):
            if any(np.shares_memory(a, b) for a in writes[i] for b in others):
                raise PlanSanitizeError(
                    f"plan step {label!r}: lane {i} writes memory lane {1 - i} "
                    f"{kind} — the lanes run at the same time, so they race"
                )
        for lane_writes in writes:
            self._check_writes(label, lane_writes)

    # -- internals ---------------------------------------------------------
    def _check_reads(self, label: str, reads: Sequence[np.ndarray]) -> None:
        for arr in reads:
            state = self._resolve(arr)
            if state is None:
                continue  # parameter/external array, not a plan slot
            if state.free:
                raise PlanSanitizeError(
                    f"plan step {label!r} reads a slot released"
                    f"{' by step ' + repr(state.released_by) if state.released_by else ''}"
                    " — use-after-release (the slot may be recycled and "
                    "clobbered before this step runs)"
                )
            if state.writer_generation != state.generation:
                raise PlanSanitizeError(
                    f"plan step {label!r} reads a slot no step has written "
                    f"since it was handed out at generation {state.generation}"
                    " — read before write"
                    + (" (stale read through a recycled slot)" if state.generation else "")
                )

    def _check_writes(self, label: str, writes: Sequence[np.ndarray]) -> None:
        """Flag writes to released slots; mark every written slot written."""
        for arr in writes:
            state = self._resolve(arr)
            if state is None:
                continue
            if state.free:
                raise PlanSanitizeError(
                    f"plan step {label!r} writes a slot already released"
                    f"{' by step ' + repr(state.released_by) if state.released_by else ''}"
                    " — cross-slot aliasing (the write would corrupt "
                    "whatever logical buffer recycles the slot)"
                )
            state.writer_generation = state.generation

    def _resolve(self, arr: np.ndarray) -> Optional[_SlotState]:
        node: Optional[np.ndarray] = arr
        while node is not None:
            state = self._slots.get(id(node))
            if state is not None:
                return state
            node = node.base if isinstance(node.base, np.ndarray) else None
        return None

    def summary(self) -> Dict[str, int]:
        free = sum(1 for s in self._slots.values() if s.free)
        return {
            "tracked_slots": len(self._slots),
            "free_slots": free,
            "generations": sum(s.generation for s in self._slots.values()),
        }


def plan_tracker() -> Optional[PlanTracker]:
    """A fresh tracker when sanitizing, else ``None`` (the one-branch gate)."""
    return PlanTracker() if enabled() else None
