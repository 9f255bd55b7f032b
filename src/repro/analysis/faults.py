"""Deterministic, seeded fault injection for chaos testing.

Production failures — torn shard writes, bit rot, crashed pool workers,
dropped sockets — are rare and non-reproducible in the wild, which makes
the recovery paths that handle them the least-tested code in the system.
This module turns those failures into a deterministic input: named
**injection points** planted in the hot code fire seeded faults when (and
only when) the ``REPRO_FAULTS`` environment variable asks for them.

Spec grammar (comma-separated entries)::

    REPRO_FAULTS="point:prob:kind[:seed]"

    REPRO_FAULTS="store.shard_write:1.0:torn_write:7"
    REPRO_FAULTS="serve.worker:0.5:kill:3,serve.socket_recv:0.5:exception:11"

* ``point`` — one of :data:`KNOWN_POINTS` (unknown names are an error, so
  typos fail loudly instead of silently injecting nothing);
* ``prob`` — per-check firing probability in ``[0, 1]``;
* ``kind`` — one of :data:`KINDS`:

  - ``exception``  raise :class:`InjectedFault` (an ``OSError``);
  - ``torn_write`` truncate the byte payload being written (simulates a
    partial flush surviving a crash);
  - ``bitflip``    flip one bit of the payload (simulates silent media
    corruption);
  - ``delay``      sleep :data:`DELAY_SECONDS` (simulates a stall);
  - ``kill``       ``os._exit(1)`` the current process (simulates a
    worker crash — only meaningful in pool workers);

* ``seed`` — integer stream seed (default 0).

Determinism comes in two flavors.  Checks without a ``token`` consume one
draw from a per-point sequential stream seeded by ``seed`` — the n-th
check of a point always makes the same decision for a given spec.  Checks
*with* a ``token`` derive the decision from ``(seed, token)`` alone via
``np.random.SeedSequence``, so the decision is reproducible **across
processes** — a spawn-pool worker that re-parses ``REPRO_FAULTS`` in a
fresh interpreter reaches the same verdict for the same token.  Retry
loops pass their attempt number as the token, which lets a test pick a
seed where attempt 0 fires and attempt 1 does not: the crash *and* the
recovery are both deterministic.

Guard pattern (same contract as :mod:`repro.analysis.sanitize`): the hot
code guards every call with one ``None`` check::

    from ..analysis import faults

    if faults.ACTIVE is not None:
        payload = faults.ACTIVE.fire("store.shard_write", payload=payload)

With ``REPRO_FAULTS`` unset, :data:`ACTIVE` is ``None`` and the cost per
check is a single attribute load + ``is None`` branch — measured against
the serving hot path by ``benchmarks/bench_faults.py`` (< 1% of request
latency).  Tests install plans directly via :func:`install` /
:func:`uninstall` or the :func:`active` context manager.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

__all__ = [
    "FAULTS_ENV",
    "KNOWN_POINTS",
    "KINDS",
    "DELAY_SECONDS",
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "ACTIVE",
    "parse_spec",
    "install",
    "uninstall",
    "active",
    "fire",
    "stats",
]

#: Environment variable holding the fault spec.
FAULTS_ENV = "REPRO_FAULTS"

#: Injection points planted in the codebase.  The registry is the single
#: source of truth: specs naming an unknown point are rejected at parse
#: time, and ``docs/robustness.md`` documents this table.
KNOWN_POINTS: Dict[str, str] = {
    "store.shard_write": "shard byte payloads written by data.store (not its manifest)",
    "store.shard_read": "memmap open in data.store.MeterStore.shard",
    "serve.socket_recv": "client-side frame read in serving.client.ServingClient",
    "serve.coalesce": "stacked multi-request forward in the serving coalescer",
    "serve.worker": "spawn-pool worker entry for daemon store jobs",
    "train.checkpoint_write": "checkpoint archive bytes in training.save_checkpoint",
}

#: Fault kinds a spec may request.
KINDS = ("exception", "torn_write", "bitflip", "delay", "kill")

#: Sleep injected by the ``delay`` kind.
DELAY_SECONDS = 0.01

#: Payload-corrupting kinds leave the payload alone unless it is bytes.
_PAYLOAD_KINDS = ("torn_write", "bitflip")


class InjectedFault(OSError):
    """The exception raised by ``exception``-kind faults.

    An ``OSError`` subclass so injected failures travel the same recovery
    paths (retries, checksum verification, quarantine) as real I/O
    errors — recovery code never special-cases injection.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``point:prob:kind[:seed]`` entry."""

    point: str
    prob: float
    kind: str
    seed: int = 0


def parse_spec(text: str) -> Tuple[FaultSpec, ...]:
    """Parse a ``REPRO_FAULTS`` spec string; raises ``ValueError`` on typos."""
    specs = []
    for raw in text.split(","):
        entry = raw.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(
                f"bad {FAULTS_ENV} entry {entry!r}: expected point:prob:kind[:seed]"
            )
        point, prob_text, kind = parts[0], parts[1], parts[2]
        if point not in KNOWN_POINTS:
            raise ValueError(
                f"unknown fault point {point!r}; known: {sorted(KNOWN_POINTS)}"
            )
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; known: {list(KINDS)}")
        try:
            prob = float(prob_text)
        except ValueError:
            raise ValueError(f"bad fault probability {prob_text!r} in {entry!r}") from None
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"fault probability must be in [0, 1], got {prob}")
        try:
            seed = int(parts[3]) if len(parts) == 4 else 0
        except ValueError:
            raise ValueError(f"bad fault seed {parts[3]!r} in {entry!r}") from None
        specs.append(FaultSpec(point=point, prob=prob, kind=kind, seed=seed))
    return tuple(specs)


def _token_hash(token: object) -> int:
    """Stable 64-bit hash of a token (``hash()`` is salted per process)."""
    digest = hashlib.blake2b(repr(token).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class FaultPlan:
    """A parsed spec plus its per-point RNG streams and fire counters."""

    def __init__(self, specs: Tuple[FaultSpec, ...]):
        self.specs: Dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.point in self.specs:
                raise ValueError(f"duplicate fault point {spec.point!r} in spec")
            self.specs[spec.point] = spec
        self._rngs = {
            point: np.random.default_rng(spec.seed)
            for point, spec in self.specs.items()
        }
        self._checks = {point: 0 for point in self.specs}
        self._fired = {point: 0 for point in self.specs}
        self._lock = threading.Lock()

    def would_fire(self, point: str, token: object) -> bool:
        """The (pure) token-keyed decision; does not touch counters.

        Lets tests scan for a seed where e.g. attempt 0 fires and
        attempt 1 does not, making crash-then-recover fully deterministic.
        """
        spec = self.specs.get(point)
        if spec is None:
            return False
        draw = np.random.default_rng(
            np.random.SeedSequence([spec.seed, _token_hash(token)])
        ).random()
        return bool(draw < spec.prob)

    def fire(
        self,
        point: str,
        token: object = None,
        payload: Optional[bytes] = None,
    ) -> Optional[bytes]:
        """Check one injection point; enact its fault if the draw fires.

        Returns ``payload`` (corrupted for ``torn_write`` / ``bitflip``
        when the fault fires, verbatim otherwise).  ``exception`` raises
        :class:`InjectedFault`; ``kill`` does not return.
        """
        if point not in KNOWN_POINTS:
            raise ValueError(f"unknown fault point {point!r}")
        spec = self.specs.get(point)
        if spec is None:
            return payload
        if token is not None:
            fired = self.would_fire(point, token)
            with self._lock:
                self._checks[point] += 1
                if fired:
                    self._fired[point] += 1
        else:
            with self._lock:
                self._checks[point] += 1
                fired = bool(self._rngs[point].random() < spec.prob)
                if fired:
                    self._fired[point] += 1
        if not fired:
            return payload
        if spec.kind == "exception":
            raise InjectedFault(
                f"injected fault at {point} (seed={spec.seed}, token={token!r})"
            )
        if spec.kind == "delay":
            time.sleep(DELAY_SECONDS)
            return payload
        if spec.kind == "kill":
            os._exit(1)
        if payload is None or spec.kind not in _PAYLOAD_KINDS:
            return payload
        if spec.kind == "torn_write":
            # Keep at least one byte missing; an empty payload stays empty.
            return payload[: max(0, len(payload) - max(1, len(payload) // 2))]
        flipped = bytearray(payload)
        if flipped:
            position = _token_hash((spec.seed, token)) % len(flipped)
            flipped[position] ^= 0x01
        return bytes(flipped)

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-point ``{"checks": n, "fired": n}`` counters."""
        with self._lock:
            return {
                point: {"checks": self._checks[point], "fired": self._fired[point]}
                for point in self.specs
            }


def _plan_from_env() -> Optional[FaultPlan]:
    text = os.environ.get(FAULTS_ENV, "").strip()
    if not text:
        return None
    specs = parse_spec(text)
    return FaultPlan(specs) if specs else None


#: The installed plan, or ``None`` when fault injection is off.  Hot code
#: guards every injection point with ``if faults.ACTIVE is not None`` —
#: the entire disabled-mode cost.  Snapshotted from the environment at
#: import time (so spawn-pool children activate automatically) and
#: overridable in-process via :func:`install` / :func:`active`.
ACTIVE: Optional[FaultPlan] = _plan_from_env()


def install(spec: str | Tuple[FaultSpec, ...] | FaultPlan) -> FaultPlan:
    """Install a fault plan for this process (tests; overrides the env)."""
    global ACTIVE
    if isinstance(spec, FaultPlan):
        plan = spec
    elif isinstance(spec, str):
        plan = FaultPlan(parse_spec(spec))
    else:
        plan = FaultPlan(spec)
    ACTIVE = plan
    return plan


def uninstall() -> None:
    """Deactivate fault injection for this process."""
    global ACTIVE
    ACTIVE = None


@contextmanager
def active(spec: str) -> Iterator[FaultPlan]:
    """Context manager: install ``spec``, restore the previous plan after."""
    global ACTIVE
    previous = ACTIVE
    plan = install(spec)
    try:
        yield plan
    finally:
        ACTIVE = previous


def fire(
    point: str, token: object = None, payload: Optional[bytes] = None
) -> Optional[bytes]:
    """Module-level convenience: fire on the active plan, if any.

    Call sites on hot paths should check ``faults.ACTIVE is not None``
    themselves before calling (one branch when off); cold paths may call
    this directly.
    """
    plan = ACTIVE
    if plan is None:
        return payload
    return plan.fire(point, token=token, payload=payload)


def stats() -> Dict[str, Dict[str, int]]:
    """Counters of the active plan (empty when injection is off)."""
    plan = ACTIVE
    return plan.stats() if plan is not None else {}
