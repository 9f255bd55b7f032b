"""Central registry of every ``REPRO_*`` environment variable.

The escape hatches and CI toggles of this codebase are environment
variables (``REPRO_NN_PLAN=off``, ``REPRO_SMOKE=1``, ...).  Before this
registry they were documented — if at all — inside the docstring of
whichever module happened to read them, so a contributor had no single
place to learn what knobs exist, and nothing stopped a new ``os.environ``
read from shipping undocumented.

Two lint rules (:mod:`repro.analysis.lint`) close that loop:

* ``ENV001`` — every ``REPRO_*`` string literal in ``src/`` and
  ``benchmarks/`` must name an entry registered here;
* ``ENV002`` — every entry registered here must be referenced in at least
  one page under ``docs/`` (the user-facing table lives in
  ``docs/config.md``), and every ``REPRO_*`` name a docs page mentions
  must be registered here.

Registering a variable therefore *is* the act of declaring it public, and
forgetting either half (registry or docs) — or leaving a deleted variable
documented — blocks CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet


@dataclass(frozen=True)
class EnvVar:
    """One registered environment variable."""

    name: str
    #: The value space, human-readable (e.g. ``"off|0|false|no"``).
    values: str
    #: What reads it and what it changes — one sentence.
    description: str
    #: Dotted module that owns the read (where the behaviour lives).
    owner: str


_ENTRIES = (
    EnvVar(
        name="REPRO_NN_BACKEND",
        values="reference|im2col (default: im2col)",
        description=(
            "Process-wide default conv1d kernel; `reference` reproduces the "
            "pre-backend float32 bits and runs ensembles untraced."
        ),
        owner="repro.nn.backend",
    ),
    EnvVar(
        name="REPRO_NN_PLAN",
        values="off|0|false|no (default: on)",
        description=(
            "Escape hatch disabling traced eval plans; every ensemble "
            "forward takes the untraced per-member loop."
        ),
        owner="repro.nn.plan",
    ),
    EnvVar(
        name="REPRO_NN_SANITIZE",
        values="1|true|on|yes (default: off)",
        description=(
            "Runtime sanitizer: buffer-pool generation tags + poison-fill "
            "on release, trace-time plan slot checks, and read-only "
            "meter-store views (see docs/analysis.md)."
        ),
        owner="repro.analysis.sanitize",
    ),
    EnvVar(
        name="REPRO_FAULTS",
        values="point:prob:kind[:seed], comma-separated (default: off)",
        description=(
            "Deterministic fault injection at named points (e.g. "
            "`store.shard_write:0.5:torn_write:7`); kinds are exception, "
            "torn_write, bitflip, delay, kill — see docs/robustness.md."
        ),
        owner="repro.analysis.faults",
    ),
    EnvVar(
        name="REPRO_CKPT_KEEP",
        values="int >= 1 (default: 2)",
        description=(
            "How many checkpoint generations `save_checkpoint` keeps per "
            "path (newest first); resume falls back to the newest intact "
            "one when the latest is torn."
        ),
        owner="repro.training.checkpoint",
    ),
    EnvVar(
        name="REPRO_SMOKE",
        values="1 (default: off)",
        description=(
            "Shrinks every example script to CI scale (same code paths, "
            "seconds of wall time)."
        ),
        owner="examples/*",
    ),
)

#: name -> :class:`EnvVar`, in declaration order.
ENV_VARS: Dict[str, EnvVar] = {entry.name: entry for entry in _ENTRIES}


def registered() -> FrozenSet[str]:
    """The set of registered variable names (lint rule ``ENV001``)."""
    return frozenset(ENV_VARS)


def get(name: str) -> EnvVar:
    """Look up one registered variable; raises ``KeyError`` if unknown."""
    return ENV_VARS[name]


def render_table() -> str:
    """Plain-text table of every registered variable (``repro lint --envvars``)."""
    width = max(len(name) for name in ENV_VARS)
    lines = []
    for entry in ENV_VARS.values():
        lines.append(f"{entry.name:<{width}}  [{entry.values}]")
        lines.append(f"{'':<{width}}  {entry.description} ({entry.owner})")
    return "\n".join(lines)
