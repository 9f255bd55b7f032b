"""``repro.nn.plan`` — traced eval plans: record once, replay flat.

The eval-mode forward of a fixed model on a fixed batch shape always
executes the same backend calls on the same buffer shapes, yet the module
path re-pays the interpreter for that discovery on every call: attribute
walks through ``nn.Module.__call__``, graph-node checks in every
primitive, Tensor wrappers around every intermediate, and a pool
transaction per scratch buffer.  This module removes all of it:

* a **trace** (:func:`trace`) runs once per input signature.  It records
  the forward as a flat list of step closures, each closed over
  *pre-resolved* buffers and the live parameter objects it reads.  Its
  first pass learns every buffer's bytes and lifetime; the second places
  each buffer at a planned offset in a :class:`SlotArena` chunk, so a
  plan spans about its peak live bytes;
* a **replay** is ``for step in steps: step()`` — zero
  ``nn.Module.__call__`` dispatch, zero graph-node checks, zero
  allocations.

Plans are cached per signature — the shapes that determine the call
sequence (batch size, window length, backend mode, ...) — in a
:class:`PlanCache` owned by the traced object (the CamAL ensemble keeps
one next to its buffer pool).  The plans of one cache share its
:class:`SlotArena`, so a ladder of plans costs about its largest plan.
Anything the tracer does not support falls back to the untraced path and
is counted, so regressions show up in ``engine.plan_stats()`` and the
benchmark JSON rather than as silent slowdowns.

:func:`run_on_lanes` runs chains of steps on two **lanes**, the calling
thread and one helper thread per process, each lane claiming one step at
a time.  Where :func:`plan_lanes` allows two lanes, the CamAL ensemble
replays the two halves of a batch that way (each half a one-step chain),
and Algorithm 1 trains its candidates (one optimizer step a step).

Set ``REPRO_NN_PLAN=off`` to disable tracing entirely (every call takes
the fallback path); see ``docs/nn.md``.
"""

from __future__ import annotations

import functools
import math
import os
import queue
import threading
from collections import OrderedDict, deque
from typing import (
    Any, Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Set, Tuple, Union,
)

import numpy as np

from ..analysis import sanitize
from ..analysis.markers import hot_path
from .backend.pool import BufferPool

__all__ = [
    "PLAN_ENV",
    "ExecutionPlan",
    "Layout",
    "PlanBuilder",
    "PlanCache",
    "SlotArena",
    "blas_threads",
    "plan_enabled",
    "plan_lanes",
    "run_chain",
    "run_on_lanes",
    "trace",
]

#: Environment variable disabling the plan layer (``off``/``0``/``false``).
PLAN_ENV = "REPRO_NN_PLAN"

#: Every plan buffer starts at a multiple of this many bytes of its chunk.
ALIGN = 64

#: A plan cache key: the shape tuple that fixes the traced call sequence.
Signature = Hashable


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
    """Lanes work started now may spread over: 2 or 1.

    Two when the calling thread may run on at least two CPUs and the
    loaded OpenBLAS runs one thread.  A multi-threaded BLAS already
    spreads each GEMM over the cores, and a second lane only contends
    with it: under ``OPENBLAS_NUM_THREADS=2`` two lanes replayed the
    paper-width 16-window plan 1.4x slower than one (2-vCPU VM).  Read
    per call, so a thread confined to one CPU works on one lane.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return 2 if cpus >= 2 and blas_threads() == 1 else 1


#: Chains a :func:`run_on_lanes` call keeps open at once: one per lane,
#: plus one ready for whichever lane ends its step first.
OPEN_CHAINS = 3
#: Longest the caller waits for the helper before a pending signal handler runs.
WAIT_SLICE_S = 0.05
#: A callable is a one-step chain; an iterator runs one step per ``next()``.
Chain = Union[Callable[[], Any], Iterator[Any]]


def _step(chain: Chain) -> Tuple[bool, Any]:
    """Run one step of ``chain``: whether it ended, and then its value
    (what the callable or the iterator returns)."""
    if callable(chain):
        return True, chain()
    try:
        next(chain)
    except StopIteration as end:
        return True, end.value
    return False, None


def run_chain(chain: Chain) -> Any:
    """Run every step of ``chain`` on this thread; its value."""
    while True:
        ended, value = _step(chain)
        if ended:
            return value


class _LaneRun:
    """One :func:`run_on_lanes` call: chains the two lanes step in turn."""

    def __init__(self, chains: Tuple[Chain, ...]):
        self.chains = chains
        self.values: List[Any] = [None] * len(chains)
        self.unopened = deque(range(len(chains)))
        self.open = 0  # opened and not ended
        self.idle: "deque[int]" = deque()  # open, stepped least recently first
        self.stopped = False
        self.helper_claimed = False  # the caller then waits for ``done``
        self.error: Optional[BaseException] = None
        self.done = threading.Event()  # set once the helper's share ended
        self.lock = threading.Lock()

    def claim(self, helper: bool, stepped: Optional[int] = None, ended: bool = False,
              value: Any = None) -> Optional[int]:
        """Hand back chain ``stepped`` after one step of it, then claim the
        next chain to step: a new one while fewer than :data:`OPEN_CHAINS`
        are open, else the idle one stepped least recently.  ``None`` once
        the run stopped, or when every chain has ended or is claimed."""
        with self.lock:
            if ended:
                self.values[stepped] = value
                self.open -= 1
            elif stepped is not None:
                self.idle.append(stepped)
            if self.stopped:
                return None
            if self.open < OPEN_CHAINS and self.unopened:
                index = self.unopened.popleft()
                self.open += 1
            elif self.idle:
                index = self.idle.popleft()
            else:
                return None
            self.helper_claimed |= helper
            return index

    def stop(self) -> None:
        """Let no further step start."""
        with self.lock:
            self.stopped = True

    def run_lane(self, helper: bool) -> None:
        """Step the chains this lane claims until it can claim none."""
        index = self.claim(helper)
        while index is not None:
            ended, value = _step(self.chains[index])
            index = self.claim(helper, index, ended, value)

    def run_on_helper(self) -> None:
        try:
            self.run_lane(helper=True)
        except BaseException as exc:  # re-raised on the calling thread
            self.error = exc
            self.stop()
        finally:
            self.done.set()

    def close(self) -> None:
        """Close every iterator chain: those a failure or an interrupt left
        unfinished."""
        for chain in self.chains:
            if not callable(chain) and hasattr(chain, "close"):
                chain.close()


@hot_path
def run_on_lanes(chains: Sequence[Chain]) -> List[Any]:
    """Run ``chains`` on this thread and the process's lane helper thread;
    their values, in list order.

    A lone chain runs here.  Each lane claims one step at a time (see
    :meth:`_LaneRun.claim`), so both lanes stay busy while two chains are
    left, and a chain may resume on the other lane: no thread-local
    context may span its steps.  While the helper is busy with another
    call's chains, this thread steps every chain itself.  After a failure
    or an interrupt no further step starts; it is raised here once the
    other lane's step has ended (this thread's own first) and the chains
    are closed, and the helper survives it.  Chains must touch disjoint
    memory and never call :func:`run_on_lanes`.
    """
    if len(chains) == 1:
        return [run_chain(chains[0])]
    run = _LaneRun(tuple(chains))
    failure: Optional[BaseException] = None
    try:
        _lane_helper().submit(run)
        run.run_lane(helper=False)
    except BaseException as exc:  # raised below, once the helper's step ended
        failure = exc
    # The wait is inline (no call to enter first) and asked again after
    # each interrupt, so it cannot end early.  It runs in slices: a signal
    # that lands just before a wait blocks is handled only when it ends.
    while True:
        try:
            if failure is not None:
                run.stop()
            while run.helper_claimed and not run.done.wait(WAIT_SLICE_S):
                pass
            break
        except BaseException as exc:
            if failure is None:
                failure = exc
    run.close()
    failure = failure or run.error
    if failure is not None:
        raise failure
    return run.values


class _LaneHelper:
    """The daemon thread that steps the helper's share of every
    :func:`run_on_lanes` call."""

    def __init__(self) -> None:
        self._todo: "queue.SimpleQueue[_LaneRun]" = queue.SimpleQueue()
        self.thread = threading.Thread(
            target=self._serve, name="repro-plan-lane", daemon=True
        )
        self.thread.start()

    def submit(self, run: _LaneRun) -> None:
        self._todo.put(run)

    def _serve(self) -> None:
        while True:
            self._todo.get().run_on_helper()


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


def _unpooled(nbytes: int) -> np.ndarray:
    # repro: waive[HOT001] pool-less trace-time memory — this IS the allocator the ban steers hot code toward
    return np.empty(nbytes, dtype=np.uint8)


class ExecutionPlan:
    """One traced forward: bound buffers plus a flat list of step closures.

    The caller copies into ``inputs`` just before :meth:`run` and out of
    ``outputs`` just after it: the plan's bytes are shared with the other
    plans of its :class:`SlotArena` chunk, whose replays the owner keeps
    from overlapping.  Each replay writes every buffer before reading it
    (the sanitizer checks that at trace time), so nothing another plan
    left leaks in.  ``layout`` places the buffers; ``slot_bytes`` is the
    chunk bytes it spans and ``peak_live_bytes`` the largest total of the
    plan's buffers live at once, the floor any layout needs.
    """

    __slots__ = (
        "signature", "steps", "inputs", "outputs", "labels", "layout", "slot_bytes",
        "peak_live_bytes",
    )

    def __init__(self, signature: Signature, steps: List[Callable[[], None]],
                 inputs: Dict[str, np.ndarray], outputs: Dict[str, np.ndarray],
                 labels: List[str], layout: Optional["Layout"], peak_live_bytes: int):
        self.signature = signature
        self.steps: Tuple[Callable[[], None], ...] = tuple(steps)
        self.inputs = dict(inputs)
        self.outputs = dict(outputs)
        #: Step names, parallel to ``steps`` (sanitizer diagnostics).
        self.labels: Tuple[str, ...] = tuple(labels)
        self.layout = layout
        self.slot_bytes = layout.nbytes if layout is not None else 0
        self.peak_live_bytes = peak_live_bytes

    @hot_path
    def run(self) -> None:
        """Replay the recorded calls — nothing else happens on this path."""
        for step in self.steps:
            step()


class SlotArena:
    """Flat ``uint8`` chunks shared by every plan traced through it.

    A plan goes in the first chunk its :class:`Layout` fits, else in a new
    chunk of its size.  Chunks never move, so cached plans stay valid, and
    an arena whose first plan is its largest serves the others from the
    same bytes.  Chunks come from ``pool.take_persistent`` when a pool is
    given, so the pool's ``bytes_allocated`` counts them.
    """

    def __init__(self, pool: Optional[BufferPool] = None):
        self._pool = pool
        self.chunks: List[np.ndarray] = []
        self.nbytes = 0

    def place(self, nbytes: int) -> np.ndarray:
        for chunk in self.chunks:
            if chunk.nbytes >= nbytes:
                return chunk
        if self._pool is not None:
            chunk = self._pool.take_persistent((nbytes,), np.uint8)
        else:
            chunk = _unpooled(nbytes)
        self.chunks.append(chunk)
        self.nbytes += nbytes
        return chunk


#: Buffer orders :func:`_place` tries, by weight of (bytes, lifetime):
#: largest first alone left the compact 32- and 64-window plans 20% and
#: 15% above their peak live bytes.
_ORDERS: Tuple[Callable[[int, int], Tuple[float, ...]], ...] = (
    lambda size, life: (size,),
    lambda size, life: (size * life,),
    lambda size, life: (size * math.sqrt(life),),
    lambda size, life: (life, size),
)


def _place(sizes: Sequence[int], spans: Sequence[Tuple[int, int]]) -> Tuple[List[int], int]:
    """Offsets for buffers of ``sizes`` bytes live over ``spans``, and the
    bytes they span.  Greedy in each of :data:`_ORDERS` until one reaches
    the peak live bytes (no layout spans fewer), keeping the smallest:
    each buffer goes at the lowest offset clear of every buffer placed
    before it whose span overlaps its own."""
    peak = max((sum(z for z, (s, e) in zip(sizes, spans) if s <= t < e) for t, _ in spans),
               default=0)
    best: Tuple[List[int], float] = ([], math.inf)
    for weigh in _ORDERS:
        order = sorted(range(len(sizes)), reverse=True,
                       key=lambda k: (weigh(sizes[k], spans[k][1] - spans[k][0]), -k))
        offsets = [0] * len(sizes)
        for i, k in enumerate(order):
            start, end = spans[k]
            for lo, hi in sorted((offsets[j], offsets[j] + sizes[j]) for j in order[:i]
                                 if spans[j][0] < end and start < spans[j][1]):
                if lo - offsets[k] >= sizes[k]:
                    break
                offsets[k] = max(offsets[k], hi)
        nbytes = max((o + z for o, z in zip(offsets, sizes)), default=0)
        if nbytes < best[1]:
            best = (offsets, nbytes)
        if nbytes <= peak:
            break
    return best[0], int(best[1])


class Layout:
    """Where the buffers of one plan go: the first pass's record, placed.

    ``requests[k]`` is the ``(shape, dtype)`` of the k-th
    :meth:`PlanBuilder.buffer` request, and ``spans[k]`` the trace
    positions (counted over ``buffer`` and ``release`` calls; ``end`` of
    them in all) between which it is live.  ``offsets[k]`` is its byte
    offset in the chunk, a multiple of :data:`ALIGN`, such that no two
    buffers live at once share a byte; ``nbytes`` the bytes they span.
    """

    def __init__(self, requests: Sequence[Tuple[Tuple[int, ...], np.dtype]],
                 spans: Sequence[Tuple[int, int]], end: int):
        self.requests = tuple(requests)
        self.spans = tuple(spans)
        self.end = end
        sizes = [-(-math.prod(shape) * dtype.itemsize // ALIGN) * ALIGN
                 for shape, dtype in self.requests]
        self.offsets, self.nbytes = _place(sizes, self.spans)


class PlanBuilder:
    """Collects steps and hands out pre-resolved buffers during a trace.

    :func:`trace` runs the recording code through two builders.  The
    first, made without a ``layout``, records each :meth:`buffer`
    request and the trace positions where it is handed out and released
    (:meth:`layout`); its buffers are views of one scratch array no step
    writes, so they never become resident.  The second hands each buffer
    out at its planned offset in a chunk of ``arena`` (a private one
    unless the caller shares one), and raises ``RuntimeError`` where its
    requests or releases differ from the first pass's.

    Under ``REPRO_NN_SANITIZE=1`` the second builder carries a
    :class:`repro.analysis.sanitize.PlanTracker`: released buffers are
    poison-filled, and every :meth:`emit` may declare the arrays the step
    ``reads``/``writes``, so use-after-release, reads before any write,
    writes after release and live buffers sharing bytes raise *at trace
    time*, naming the offending step.
    """

    def __init__(self, arena: Optional[SlotArena] = None, layout: Optional[Layout] = None):
        self._layout = layout
        self._steps: List[Callable[[], None]] = []
        self._labels: List[str] = []
        self._requests: List[Tuple[Tuple[int, ...], np.dtype]] = []
        #: [handed, released or None] per request, in trace positions.
        self._spans: List[List[Optional[int]]] = []
        self._clock = 0
        #: id of each array :meth:`buffer` handed out -> (that array, its
        #: request index, the array views of it resolve to).  Holding the
        #: array keeps its id from being reused by an unrelated array.
        self._handed: Dict[int, Tuple[np.ndarray, int, Optional[np.ndarray]]] = {}
        self._live: Set[int] = set()
        self._live_bytes = 0
        self._peak_live_bytes = 0
        self._scratch = _unpooled(0)
        self._tracker = None
        if layout is not None:
            arena = arena if arena is not None else SlotArena()
            self._chunk = memoryview(arena.place(layout.nbytes))
            self._tracker = sanitize.plan_tracker()

    def _check(self, same: bool, what: str) -> None:
        if not same:
            raise RuntimeError(f"the second trace pass's {what} differs from the first's")

    def _last_label(self) -> Optional[str]:
        return self._labels[-1] if self._labels else None

    def buffer(self, shape, dtype=np.float32) -> np.ndarray:
        """A plan-owned ``shape``/``dtype`` buffer (see the class docstring)."""
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        k = len(self._requests)
        anchor = None
        if self._layout is None:
            if self._scratch.nbytes < nbytes:
                self._scratch = _unpooled(nbytes)
            arr = self._scratch[:nbytes].view(dtype).reshape(shape)
        else:
            layout = self._layout
            self._check(k < len(layout.requests) and layout.requests[k] == (shape, dtype)
                        and layout.spans[k][0] == self._clock, f"buffer request {k}")
            offset = layout.offsets[k]
            # An array over its own memoryview, so views of it resolve to it.
            anchor = np.frombuffer(self._chunk[offset : offset + nbytes], dtype)
            arr = anchor.reshape(shape)
            if self._tracker is not None:
                self._tracker.on_buffer(anchor, at_step=self._last_label())
        self._requests.append((shape, dtype))
        self._spans.append([self._clock, None])
        self._clock += 1
        self._handed[id(arr)] = (arr, k, anchor)
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

    def release(self, arr: np.ndarray) -> None:
        """Let later :meth:`buffer` requests be placed over ``arr``'s bytes.

        ``arr`` must be an array :meth:`buffer` returned, released once:
        a view of it, an array this builder did not hand out, or a second
        release raises ``ValueError`` — each would put a live buffer's
        bytes back in circulation.
        """
        entry = self._handed.get(id(arr))
        if entry is None:
            raise ValueError(
                "release() takes an array buffer() returned, not a view of "
                "one or an array this builder did not hand out"
            )
        if id(arr) not in self._live:
            raise ValueError("buffer released twice")
        _, k, anchor = entry
        if self._layout is not None:
            self._check(self._layout.spans[k][1] == self._clock, f"release of buffer {k}")
        self._live.discard(id(arr))
        self._live_bytes -= arr.nbytes
        self._spans[k][1] = self._clock
        self._clock += 1
        if self._tracker is not None:
            self._tracker.on_release(anchor, at_step=self._last_label())

    def emit(
        self,
        step: Callable[[], None],
        label: Optional[str] = None,
        reads: Tuple[np.ndarray, ...] = (),
        writes: Tuple[np.ndarray, ...] = (),
    ) -> None:
        """Append one recorded backend call to the plan.

        ``label`` names the step in sanitizer diagnostics; ``reads`` and
        ``writes`` declare the plan buffers (or views into them) the
        closure touches.  The declarations are advisory when the sanitizer
        is off and checked immediately when it is on — a step reading a
        released buffer raises
        :class:`repro.analysis.sanitize.PlanSanitizeError` naming ``label``.
        """
        name = label if label is not None else f"step[{len(self._steps)}]"
        if self._tracker is not None:
            self._tracker.on_emit(name, reads, writes)
        self._steps.append(step)
        self._labels.append(name)

    def layout(self) -> Layout:
        """The first pass's record, placed."""
        spans = [(start, self._clock if end is None else end) for start, end in self._spans]
        return Layout(self._requests, spans, self._clock)

    def build(
        self,
        signature: Signature,
        inputs: Dict[str, np.ndarray],
        outputs: Dict[str, np.ndarray],
    ) -> ExecutionPlan:
        if self._layout is not None:
            self._check(self._clock == self._layout.end, "count of requests and releases")
        return ExecutionPlan(
            signature, self._steps, inputs, outputs, self._labels,
            self._layout, self._peak_live_bytes,
        )


def trace(
    record: Callable[[PlanBuilder], ExecutionPlan], arena: Optional[SlotArena] = None
) -> ExecutionPlan:
    """Run ``record`` (which emits into the builder it is given and returns
    ``builder.build(...)``) twice: once to learn every buffer's bytes and
    lifetime, once to place the plan in a chunk of ``arena`` (a private
    one when ``None``) at the offsets planned from the first."""
    first = PlanBuilder()
    record(first)
    return record(PlanBuilder(arena, first.layout()))


class PlanCache:
    """LRU cache of :class:`ExecutionPlan` per signature, with counters.

    ``traces`` counts plan recordings, ``replays`` counts plan executions,
    ``fallbacks`` counts calls that ran the untraced path (plan layer
    disabled, unsupported structure, or a failed trace-time validation).
    Every plan of the cache is traced through its one :attr:`arena`:
    ``slot_bytes`` reports the arena's bytes (evicted plans' chunks stay
    in it for the next trace) and ``peak_live_bytes`` the largest cached
    plan's figure (see :class:`ExecutionPlan`).  The serving engine
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
        }
