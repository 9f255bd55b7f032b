"""``repro.nn.plan`` — traced eval plans: record once, replay flat.

The eval-mode forward of a fixed model on a fixed batch shape always
executes the same backend calls on the same buffer shapes, yet the module
path re-pays the interpreter for that discovery on every call: attribute
walks through ``nn.Module.__call__``, graph-node checks in every
primitive, Tensor wrappers around every intermediate, and a pool
transaction per scratch buffer.  This module removes all of it:

* a **trace** runs once per input signature.  It records the forward as
  a flat list of step closures, each closed over *pre-resolved* buffers
  (views of :class:`SlotArena` slots, which the arena takes from the
  owning :class:`~repro.nn.backend.BufferPool` via ``take_persistent``)
  and the live parameter objects it reads;
* a **replay** is ``for step in steps: step()`` — zero
  ``nn.Module.__call__`` dispatch, zero graph-node checks, zero
  allocations.

Plans are cached per signature — the shapes that determine the call
sequence (batch size, window length, backend mode, ...) — in a
:class:`PlanCache` owned by the traced object (the CamAL ensemble keeps
one next to its buffer pool).  Every plan of one cache draws its slots
from the cache's one :class:`SlotArena`, so a ladder of plans costs about
its largest plan, not the sum of them.
Anything the tracer does not support falls back to the untraced path and
is counted, so regressions show up in ``engine.plan_stats()`` and the
benchmark JSON rather than as silent slowdowns.

A :class:`LaneStep` runs independent tasks on two **lanes** at once: the
replaying thread and one helper thread per process.  A trace uses lanes
only where :func:`plan_lanes` (read once per trace) allows two: this
thread may run on two or more CPUs and the loaded OpenBLAS runs one
thread, so each lane's GEMMs get a core of their own.

Set ``REPRO_NN_PLAN=off`` to disable tracing entirely (every call takes
the fallback path); see ``docs/nn.md``.
"""

from __future__ import annotations

import functools
import math
import os
import queue
import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..analysis import sanitize
from ..analysis.markers import hot_path
from .backend.pool import BufferPool

__all__ = [
    "PLAN_ENV",
    "ExecutionPlan",
    "LaneStep",
    "PlanBuilder",
    "PlanCache",
    "SlotArena",
    "blas_threads",
    "plan_enabled",
    "plan_lanes",
]

#: Environment variable disabling the plan layer (``off``/``0``/``false``).
PLAN_ENV = "REPRO_NN_PLAN"

#: A plan cache key: the shape tuple that fixes the traced call sequence.
Signature = Hashable
#: One lane of a :class:`LaneStep`: tasks run in order on one thread.
Lane = Sequence[Callable[[], None]]


def plan_enabled() -> bool:
    """Whether tracing is allowed (checked per call, so tests can flip it)."""
    return os.environ.get(PLAN_ENV, "").strip().lower() not in (
        "off",
        "0",
        "false",
        "no",
    )


#: Symbols reporting OpenBLAS's thread count, in the builds NumPy ships.
_OPENBLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


@functools.lru_cache(maxsize=None)
def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS runs, or ``None`` when none is found.

    Asked once per process through ctypes: OpenBLAS fixes its thread
    count when it loads (``OPENBLAS_NUM_THREADS``).  Another BLAS, or a
    system without ``/proc/self/maps``, reads as ``None``.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({
                line.split()[-1]
                for line in fh
                if "openblas" in line.lower() and ".so" in line.split()[-1]
            })
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _OPENBLAS_THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def plan_lanes() -> int:
    """Lanes a plan traced now may spread its tiled conv groups over: 2 or 1.

    Two when the calling thread may run on at least two CPUs and the
    loaded OpenBLAS runs one thread.  A multi-threaded BLAS already
    spreads each GEMM over the cores, and a second lane only contends
    with it: under ``OPENBLAS_NUM_THREADS=2`` two lanes replayed the
    paper-width 16-window plan 1.4x slower than one (2-vCPU VM).  Read
    once per trace, so a thread confined to one CPU traces one-lane plans.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return 2 if cpus >= 2 and blas_threads() == 1 else 1


class LaneStep:
    """One plan step whose two lanes of tasks run at the same time.

    ``lanes[0]`` runs on the replaying thread and ``lanes[1]`` on the
    process's lane helper thread; each lane runs its tasks in order, and
    the step returns once both lanes are done, even when an interrupt
    (``KeyboardInterrupt``) lands while it waits: it keeps waiting for
    lane 1 and raises the interrupt after, so no replay leaves lane 1
    still writing plan memory.  The lanes must touch disjoint memory —
    :meth:`PlanBuilder.emit_lanes` declares each lane's reads and writes
    and the sanitizer checks them at trace time — and a task must never
    submit further work.  An exception in lane 1 is raised here, on the
    replaying thread, once lane 0 has ended; the helper thread survives it.
    """

    __slots__ = ("lanes", "_done", "_error")

    def __init__(self, lanes: Tuple[Lane, Lane]):
        lane0, lane1 = lanes
        self.lanes = (tuple(lane0), tuple(lane1))
        #: Set by the helper once lane 1 has ended; cleared by each call.
        self._done = threading.Event()
        self._error: Optional[BaseException] = None

    @hot_path
    def __call__(self) -> None:
        done = self._done
        done.clear()
        _lane_helper().submit(self)
        try:
            for task in self.lanes[0]:
                task()
        finally:
            # Wait for lane 1 even through an interrupt, raised after it.
            # The wait is inline (no call to enter first) and asked again
            # after each interrupt, so it cannot end early.
            interrupt = None
            while True:
                try:
                    done.wait()
                    break
                except BaseException as exc:
                    interrupt = exc
            error, self._error = self._error, None
            if interrupt is not None:
                raise interrupt
        if error is not None:
            raise error

    def run_helper_lane(self) -> None:
        """Lane 1's tasks; runs on the helper thread."""
        try:
            for task in self.lanes[1]:
                task()
        except BaseException as exc:  # re-raised on the replaying thread
            self._error = exc
        finally:
            self._done.set()


class _LaneHelper:
    """The daemon thread that runs lane 1 of every :class:`LaneStep`."""

    def __init__(self) -> None:
        self._todo: "queue.SimpleQueue[LaneStep]" = queue.SimpleQueue()
        self.thread = threading.Thread(
            target=self._serve, name="repro-plan-lane", daemon=True
        )
        self.thread.start()

    def submit(self, step: LaneStep) -> None:
        self._todo.put(step)

    def _serve(self) -> None:
        while True:
            self._todo.get().run_helper_lane()


_helper: Optional[_LaneHelper] = None
_helper_lock = threading.Lock()


def _lane_helper() -> _LaneHelper:
    """The process's lane helper, started on first use."""
    global _helper
    helper = _helper
    if helper is None:
        with _helper_lock:
            if _helper is None:
                _helper = _LaneHelper()
            helper = _helper
    return helper


def _forget_lane_helper() -> None:
    """In a forked child: the parent's helper thread does not exist there."""
    global _helper, _helper_lock
    _helper = None
    _helper_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_lane_helper)


class ExecutionPlan:
    """One traced forward: bound buffers plus a flat list of step closures.

    ``inputs`` and ``outputs`` name the pre-resolved buffers the caller
    copies into before :meth:`run` and reads after it.  The caller must
    copy inputs in just before :meth:`run` and outputs *out* just after
    it: every slot is rewritten by this replay, and by any other replay
    of a plan sharing its :class:`SlotArena`.

    The step closures hold views of arena slots, which other plans traced
    through the same arena reuse, so replays of plans sharing an arena
    must never overlap in time (the owner serializes them).  Each replay
    writes every slot before reading it — the sanitizer checks that at
    trace time — so what another plan left in a slot never leaks in.
    ``slot_bytes`` is what the slots this plan uses hold,
    ``peak_live_bytes`` the largest total of the plan's buffers live at
    once during the trace — the floor any slot layout needs.  ``lanes``
    is 2 when some step is a :class:`LaneStep`, else 1.
    """

    __slots__ = (
        "signature", "steps", "inputs", "outputs", "labels", "replays",
        "slot_bytes", "peak_live_bytes", "lanes",
    )

    def __init__(
        self,
        signature: Signature,
        steps: List[Callable[[], None]],
        inputs: Dict[str, np.ndarray],
        outputs: Dict[str, np.ndarray],
        labels: Optional[List[str]] = None,
        slot_bytes: int = 0,
        peak_live_bytes: int = 0,
        lanes: int = 1,
    ):
        self.signature = signature
        self.steps: Tuple[Callable[[], None], ...] = tuple(steps)
        self.inputs = dict(inputs)
        self.outputs = dict(outputs)
        #: Human-readable step names, parallel to ``steps`` (sanitizer
        #: diagnostics and ``plan_stats`` introspection).
        self.labels: Tuple[str, ...] = tuple(
            labels if labels is not None else (f"step[{i}]" for i in range(len(steps)))
        )
        self.replays = 0
        self.slot_bytes = slot_bytes
        self.peak_live_bytes = peak_live_bytes
        self.lanes = lanes

    @hot_path
    def run(self) -> None:
        """Replay the recorded calls — nothing else happens on this path."""
        for step in self.steps:
            step()
        self.replays += 1

    def __len__(self) -> int:
        return len(self.steps)


class SlotArena:
    """Flat ``uint8`` slots shared by every plan traced through it.

    The arena only grows and never moves a slot, so a cached plan's views
    stay valid however many plans are traced after it.  A
    :class:`PlanBuilder` starts with every arena slot free and asks for a
    new one only when none fits, so an arena first sized by its largest
    plan serves the smaller ones from the same bytes.  Slots come from
    ``pool.take_persistent`` when a pool is given, so the pool's
    ``bytes_allocated`` counts them.
    """

    def __init__(self, pool: Optional[BufferPool] = None):
        self._pool = pool
        self.slots: List[np.ndarray] = []
        self.nbytes = 0

    def grow(self, nbytes: int) -> np.ndarray:
        """A new ``nbytes`` slot, owned by the arena from now on."""
        if self._pool is not None:
            slot = self._pool.take_persistent((nbytes,), np.uint8)
        else:
            # repro: waive[HOT001] pool-less trace-time slot acquisition — this IS the allocator the ban steers hot code toward
            slot = np.empty(nbytes, dtype=np.uint8)
        self.slots.append(slot)
        self.nbytes += nbytes
        return slot


class PlanBuilder:
    """Collects steps and hands out pre-resolved buffer slots during a trace.

    A slot is a flat ``uint8`` array of the builder's :class:`SlotArena`
    (a private one unless the caller shares one); :meth:`buffer` hands out
    a shaped view of one, and :meth:`release` gives the slot back once the
    buffer's last consumer has been recorded.  Slots are reused by size: a
    request is served from the smallest free slot with enough bytes,
    whatever shape or dtype it held before, and grows the arena only when
    none fits.  The tracer knows every lifetime exactly — it is writing
    the schedule — so the plan's slot bytes stay within a small factor of
    its peak live bytes (both recorded on the :class:`ExecutionPlan`).

    Under ``REPRO_NN_SANITIZE=1`` the builder carries a
    :class:`repro.analysis.sanitize.PlanTracker`: slots get generation
    tags, releases poison-fill the slot, and every :meth:`emit` may
    declare the arrays the step ``reads``/``writes`` so use-after-release,
    reads before any write and cross-slot aliasing are caught *at trace
    time* with the offending step's label — before a single replay runs.

    ``lanes`` is :func:`plan_lanes` read when the builder is made: 2 when
    the tracer may use :meth:`emit_lanes` in this trace, else 1.
    """

    def __init__(self, arena: Optional[SlotArena] = None):
        self._arena = arena if arena is not None else SlotArena()
        self.lanes = plan_lanes()
        self._lanes_used = 1
        self._steps: List[Callable[[], None]] = []
        self._labels: List[str] = []
        #: Free slots, reusable by any later request that fits: the whole
        #: arena at first, then every released slot.
        self._free: List[np.ndarray] = list(self._arena.slots)
        #: ids of the arena slots this plan has used.
        self._used: Set[int] = set()
        #: id of each array :meth:`buffer` handed out -> (that array, its
        #: slot).  Holding the array keeps its id from being reused by an
        #: unrelated array once the caller drops it.
        self._handed: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        #: ids of handed-out arrays not yet released.
        self._live: Set[int] = set()
        self._live_bytes = 0
        self._peak_live_bytes = 0
        self._slot_bytes = 0
        self._tracker = sanitize.plan_tracker()

    def buffer(self, shape, dtype=np.float32) -> np.ndarray:
        """A plan-owned ``shape``/``dtype`` view of a (possibly reused) slot."""
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        slot = self._slot(nbytes)
        arr = slot[:nbytes].view(dtype).reshape(shape)
        self._handed[id(arr)] = (arr, slot)
        self._live.add(id(arr))
        self._live_bytes += nbytes
        self._peak_live_bytes = max(self._peak_live_bytes, self._live_bytes)
        return arr

    def input(self, shape, dtype=np.float32) -> np.ndarray:
        """A :meth:`buffer` the caller fills before every :meth:`ExecutionPlan.run`.

        The sanitizer counts it as written, so steps may read it before
        any recorded step writes it.
        """
        arr = self.buffer(shape, dtype)
        if self._tracker is not None:
            self._tracker.on_input(arr)
        return arr

    def _slot(self, nbytes: int) -> np.ndarray:
        """The smallest free slot of at least ``nbytes``, else a new one."""
        best = -1
        for i, slot in enumerate(self._free):
            if slot.nbytes >= nbytes and (
                best < 0 or slot.nbytes <= self._free[best].nbytes
            ):
                best = i
        slot = self._free.pop(best) if best >= 0 else self._arena.grow(nbytes)
        recycled = id(slot) in self._used
        if not recycled:
            self._used.add(id(slot))
            self._slot_bytes += slot.nbytes
        if self._tracker is not None:
            # A slot another plan used is new to this trace: its bytes are
            # that plan's, so it too must be written before it is read.
            self._tracker.on_buffer(slot, recycled=recycled)
        return slot

    def release(self, arr: np.ndarray) -> None:
        """Give the slot behind ``arr`` back for later :meth:`buffer` requests.

        ``arr`` must be an array :meth:`buffer` returned, released once:
        a view of it, an array this builder did not hand out, or a second
        release raises ``ValueError`` — each would put a live slot's
        memory back in circulation.
        """
        entry = self._handed.get(id(arr))
        if entry is None:
            raise ValueError(
                "release() takes an array buffer() returned, not a view of "
                "one or an array this builder did not hand out"
            )
        if id(arr) not in self._live:
            raise ValueError("buffer released twice")
        self._live.discard(id(arr))
        self._live_bytes -= arr.nbytes
        slot = entry[1]
        self._free.append(slot)
        if self._tracker is not None:
            last = self._labels[-1] if self._labels else None
            self._tracker.on_release(slot, at_step=last)

    def emit(
        self,
        step: Callable[[], None],
        label: Optional[str] = None,
        reads: Tuple[np.ndarray, ...] = (),
        writes: Tuple[np.ndarray, ...] = (),
    ) -> None:
        """Append one recorded backend call to the plan.

        ``label`` names the step in sanitizer diagnostics; ``reads`` and
        ``writes`` declare the plan slots (or views into them) the closure
        touches.  The declarations are advisory when the sanitizer is off
        and checked immediately when it is on — a step reading a released
        slot raises :class:`repro.analysis.sanitize.PlanSanitizeError`
        naming ``label``.
        """
        name = label if label is not None else f"step[{len(self._steps)}]"
        if self._tracker is not None:
            self._tracker.on_emit(name, reads, writes)
        self._steps.append(step)
        self._labels.append(name)

    def emit_lanes(
        self,
        lanes: Tuple[Lane, Lane],
        label: str,
        reads: Tuple[Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]],
        writes: Tuple[Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]],
    ) -> None:
        """Append one :class:`LaneStep` running ``lanes[0]`` and ``lanes[1]``.

        ``reads[i]`` and ``writes[i]`` declare the plan memory lane ``i``
        reads from earlier steps and writes.  With the sanitizer on, each
        lane is checked as :meth:`emit` checks a step, and a lane writing
        memory the other lane reads or writes raises
        :class:`repro.analysis.sanitize.PlanSanitizeError` naming
        ``label``: the lanes run at the same time.
        """
        if self._tracker is not None:
            self._tracker.on_emit_lanes(label, reads, writes)
        self._steps.append(LaneStep(lanes))
        self._labels.append(label)
        self._lanes_used = 2

    def build(
        self,
        signature: Signature,
        inputs: Dict[str, np.ndarray],
        outputs: Dict[str, np.ndarray],
    ) -> ExecutionPlan:
        return ExecutionPlan(
            signature, self._steps, inputs, outputs, self._labels,
            slot_bytes=self._slot_bytes, peak_live_bytes=self._peak_live_bytes,
            lanes=self._lanes_used,
        )


class PlanCache:
    """LRU cache of :class:`ExecutionPlan` per signature, with counters.

    ``traces`` counts plan recordings, ``replays`` counts plan executions,
    ``fallbacks`` counts calls that ran the untraced path (plan layer
    disabled, unsupported structure, or a failed trace-time validation).
    Every plan of the cache is traced through its one :attr:`arena`:
    ``slot_bytes`` reports the arena's bytes (evicted plans' slots stay
    in it for the next trace), ``peak_live_bytes`` the largest cached
    plan's figure and ``lanes`` the most lanes a cached plan replays on
    (see :class:`ExecutionPlan`).  The serving engine
    surfaces these via ``plan_stats()`` next to ``buffer_pool_stats()``.
    """

    def __init__(self, max_plans: int = 16, arena: Optional[SlotArena] = None):
        if max_plans < 1:
            raise ValueError(f"max_plans must be >= 1, got {max_plans}")
        self.max_plans = max_plans
        self.arena = arena if arena is not None else SlotArena()
        self._plans: "OrderedDict[Signature, ExecutionPlan]" = OrderedDict()
        self.traces = 0
        self.replays = 0
        self.fallbacks = 0

    def get(self, signature: Signature) -> Optional[ExecutionPlan]:
        plan = self._plans.get(signature)
        if plan is not None:
            self._plans.move_to_end(signature)
        return plan

    def put(self, signature: Signature, plan: ExecutionPlan) -> ExecutionPlan:
        self._plans[signature] = plan
        self._plans.move_to_end(signature)
        self.traces += 1
        while len(self._plans) > self.max_plans:
            self._plans.popitem(last=False)
        return plan

    def record_replay(self, n: int = 1) -> None:
        self.replays += n

    def record_fallback(self, n: int = 1) -> None:
        self.fallbacks += n

    def clear(self) -> None:
        """Drop every cached plan (counters and arena slots are kept)."""
        self._plans.clear()

    def __len__(self) -> int:
        return len(self._plans)

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "plans": len(self._plans),
            "traces": self.traces,
            "replays": self.replays,
            "fallbacks": self.fallbacks,
            "slot_bytes": self.arena.nbytes,
            "peak_live_bytes": max(
                (p.peak_live_bytes for p in self._plans.values()), default=0
            ),
            "lanes": max((p.lanes for p in self._plans.values()), default=0),
        }
