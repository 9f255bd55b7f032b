"""``repro.nn.plan`` — traced eval plans: record once, replay flat.

The eval-mode forward of a fixed model on a fixed batch shape always
executes the same backend calls on the same buffer shapes, yet the module
path re-pays the interpreter for that discovery on every call: attribute
walks through ``nn.Module.__call__``, graph-node checks in every
primitive, Tensor wrappers around every intermediate, and a pool
transaction per scratch buffer.  This module removes all of it:

* a **trace** runs once per input signature.  It executes the forward
  eagerly while recording it as a flat list of step closures, each closed
  over *pre-resolved* buffers (taken from the owning
  :class:`~repro.nn.backend.BufferPool` via ``take_persistent``) and the
  live parameter objects it reads;
* a **replay** is ``for step in steps: step()`` — zero
  ``nn.Module.__call__`` dispatch, zero graph-node checks, zero
  allocations.

Plans are cached per signature — the shapes that determine the call
sequence (batch size, window length, backend mode, ...) — in a
:class:`PlanCache` owned by the traced object (the CamAL ensemble keeps
one next to its buffer pool).
Anything the tracer does not support falls back to the untraced path and
is counted, so regressions show up in ``engine.plan_stats()`` and the
benchmark JSON rather than as silent slowdowns.

Set ``REPRO_NN_PLAN=off`` to disable tracing entirely (every call takes
the fallback path); see ``docs/nn.md``.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..analysis import sanitize
from ..analysis.markers import hot_path
from .backend.pool import BufferPool

__all__ = [
    "PLAN_ENV",
    "ExecutionPlan",
    "PlanBuilder",
    "PlanCache",
    "plan_enabled",
]

#: Environment variable disabling the plan layer (``off``/``0``/``false``).
PLAN_ENV = "REPRO_NN_PLAN"

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


class ExecutionPlan:
    """One traced forward: bound buffers plus a flat list of step closures.

    ``inputs`` and ``outputs`` name the pre-resolved buffers the caller
    copies into before :meth:`run` and reads after it.  The caller must
    copy outputs *out* before the next replay — every slot is rewritten.
    """

    __slots__ = ("signature", "steps", "inputs", "outputs", "labels", "replays")

    def __init__(
        self,
        signature: Signature,
        steps: List[Callable[[], None]],
        inputs: Dict[str, np.ndarray],
        outputs: Dict[str, np.ndarray],
        labels: Optional[List[str]] = None,
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

    @hot_path
    def run(self) -> None:
        """Replay the recorded calls — nothing else happens on this path."""
        for step in self.steps:
            step()
        self.replays += 1

    def __len__(self) -> int:
        return len(self.steps)


class PlanBuilder:
    """Collects steps and hands out pre-resolved buffer slots during a trace.

    Slot allocation is arena-style with explicit reuse: :meth:`buffer`
    serves a slot (recycling a released one of the same shape/dtype when
    available), :meth:`release` returns a slot whose last consumer has
    been recorded.  The tracer knows every lifetime exactly — it is
    writing the schedule — so peak plan memory stays near the live set of
    the forward instead of one buffer per recorded value.

    Under ``REPRO_NN_SANITIZE=1`` the builder carries a
    :class:`repro.analysis.sanitize.PlanTracker`: slots get generation
    tags, releases poison-fill the slot, and every :meth:`emit` may
    declare the arrays the step ``reads``/``writes`` so use-after-release
    and cross-slot aliasing are caught *at trace time* with the offending
    step's label — before a single replay runs.
    """

    def __init__(self, pool: Optional[BufferPool] = None):
        self._pool = pool
        self._steps: List[Callable[[], None]] = []
        self._labels: List[str] = []
        self._free: Dict[Tuple[Tuple[int, ...], str], List[np.ndarray]] = {}
        self._tracker = sanitize.plan_tracker()

    def buffer(self, shape, dtype=np.float32) -> np.ndarray:
        """A plan-owned slot of ``shape``/``dtype`` (recycled when possible)."""
        key = (tuple(int(s) for s in shape), np.dtype(dtype).str)
        free = self._free.get(key)
        if free:
            arr = free.pop()
            if self._tracker is not None:
                self._tracker.on_buffer(arr, recycled=True)
            return arr
        if self._pool is not None:
            arr = self._pool.take_persistent(key[0], dtype)
        else:
            # repro: waive[HOT001] pool-less trace-time slot acquisition — this IS the allocator the ban steers hot code toward
            arr = np.empty(key[0], dtype=dtype)
        if self._tracker is not None:
            self._tracker.on_buffer(arr, recycled=False)
        return arr

    def release(self, arr: np.ndarray) -> None:
        """Mark a slot reusable for later :meth:`buffer` requests.

        Only whole slots obtained from :meth:`buffer` may be released —
        releasing a view would alias two live recorded values.
        """
        key = (tuple(arr.shape), arr.dtype.str)
        self._free.setdefault(key, []).append(arr)
        if self._tracker is not None:
            last = self._labels[-1] if self._labels else None
            self._tracker.on_release(arr, at_step=last)

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

    def build(
        self,
        signature: Signature,
        inputs: Dict[str, np.ndarray],
        outputs: Dict[str, np.ndarray],
    ) -> ExecutionPlan:
        return ExecutionPlan(signature, self._steps, inputs, outputs, self._labels)


class PlanCache:
    """LRU cache of :class:`ExecutionPlan` per signature, with counters.

    ``traces`` counts plan recordings, ``replays`` counts plan executions,
    ``fallbacks`` counts calls that ran the untraced path (plan layer
    disabled, unsupported structure, or a failed trace-time validation).
    The serving engine surfaces these via ``plan_stats()`` next to
    ``buffer_pool_stats()``.
    """

    def __init__(self, max_plans: int = 16):
        if max_plans < 1:
            raise ValueError(f"max_plans must be >= 1, got {max_plans}")
        self.max_plans = max_plans
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
        """Drop every cached plan (counters are kept, like BufferPool)."""
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
        }
