"""Checkpoint/resume for the training loops — bit-for-bit reproducible.

A :class:`TrainingCheckpoint` captures *everything* the epoch loop needs
to continue as if it had never stopped:

* model parameters and buffers (the live state, not just the best one);
* optimizer state (Adam/AdamW moments and step count, SGD velocity, LR);
* LR-scheduler counters;
* RNG state — both the loop's batch-shuffling generator and the private
  generator of every ``Dropout`` module in the model;
* the loss histories and the early-stopping bookkeeping (best state,
  best epoch, bad-epoch counter).

Checkpoints are single ``.npz`` archives written atomically
(:func:`repro.nn.serialization.write_atomic`), so a run killed mid-write
still leaves the previous checkpoint intact.  Array payloads live as npz
entries; scalar state, histories and RNG states travel in one JSON
header entry.

Durability on top of atomicity: every save keeps the last *k* snapshots
(``path``, ``path.1``, …, newest first; ``k`` from ``REPRO_CKPT_KEEP``,
default 2) and writes a blake2b checksum sidecar (``path.sum``) next to
each.  :func:`load_checkpoint` proves integrity before deserializing —
a torn or bit-flipped archive raises :class:`CheckpointCorruptionError`
instead of resuming from garbage — and :func:`load_latest_checkpoint`
walks newest → oldest to resume from the newest *intact* snapshot, so a
crash mid-checkpoint-write costs at most one epoch of progress, never
the run.
"""

from __future__ import annotations

import io
import json
import os
import zipfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis import faults
from ..nn.modules import Module
from ..nn.serialization import checksum, write_atomic

CHECKPOINT_FORMAT_VERSION = 1

_META_KEY = "__meta__"
_MODEL_PREFIX = "model."
_BEST_PREFIX = "best."
_OPT_PREFIX = "opt."

#: How many checkpoint generations to keep (newest first); overridable
#: per save via the ``keep`` argument.
CKPT_KEEP_ENV = "REPRO_CKPT_KEEP"
DEFAULT_CKPT_KEEP = 2

_CHECKSUM_SUFFIX = ".sum"


class CheckpointCorruptionError(RuntimeError):
    """A checkpoint archive fails its checksum or cannot be deserialized."""


def _resolve_keep(keep: Optional[int]) -> int:
    if keep is None:
        keep = int(os.environ.get(CKPT_KEEP_ENV, DEFAULT_CKPT_KEEP))
    if keep < 1:
        raise ValueError(f"checkpoint keep count must be >= 1, got {keep}")
    return keep


def _rotated_path(path: str, generation: int) -> str:
    """``path`` for the newest snapshot, ``path.N`` for older generations."""
    return path if generation == 0 else f"{path}.{generation}"


@dataclass
class TrainingCheckpoint:
    """Complete snapshot of a training run at an epoch boundary."""

    epoch: int  # number of completed epochs
    model_state: Dict[str, np.ndarray]
    optimizer_state: Dict[str, object]
    rng_state: Dict[str, object]
    scheduler_state: Optional[Dict[str, float]] = None
    train_losses: List[float] = field(default_factory=list)
    val_losses: List[float] = field(default_factory=list)
    epoch_times: List[float] = field(default_factory=list)
    best_val_loss: float = float("inf")
    best_epoch: int = -1
    bad_epochs: int = 0
    best_model_state: Optional[Dict[str, np.ndarray]] = None
    stopped_early: bool = False
    #: Trajectory-defining config (optimizer, LR, schedule, …) captured at
    #: save time; resume refuses to continue under a different config.
    config_fingerprint: Optional[Dict[str, object]] = None


def state_dicts_equal(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]) -> bool:
    """True iff two module state dicts are bit-for-bit identical.

    The equality contract behind every resume/parallel guarantee in this
    package — shared so tests, benchmarks and examples assert the same
    thing.
    """
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


# ----------------------------------------------------------------------
# RNG capture
# ----------------------------------------------------------------------
def _dropout_generators(model: Module) -> List[np.random.Generator]:
    """The private generators of every Dropout-like module, in walk order."""
    return [
        module._rng
        for module in model.modules()
        if isinstance(getattr(module, "_rng", None), np.random.Generator)
    ]


def capture_rng_state(loop_rng: np.random.Generator, model: Module) -> Dict[str, object]:
    """Snapshot the loop generator and every model-owned dropout generator."""
    return {
        "loop": loop_rng.bit_generator.state,
        "dropout": [g.bit_generator.state for g in _dropout_generators(model)],
    }


def restore_rng_state(
    state: Dict[str, object], loop_rng: np.random.Generator, model: Module
) -> None:
    """Restore a snapshot taken by :func:`capture_rng_state`."""
    loop_rng.bit_generator.state = state["loop"]
    generators = _dropout_generators(model)
    saved = state["dropout"]
    if len(saved) != len(generators):
        raise ValueError(
            f"checkpoint has {len(saved)} dropout RNG states but the model "
            f"owns {len(generators)} dropout generators"
        )
    for generator, rng_state in zip(generators, saved):
        generator.bit_generator.state = rng_state


# ----------------------------------------------------------------------
# (De)serialization
# ----------------------------------------------------------------------
def _flatten_optimizer_state(
    state: Dict[str, object], payload: Dict[str, np.ndarray]
) -> Dict[str, object]:
    """Split optimizer state into npz arrays + a JSON-able descriptor."""
    scalars: Dict[str, object] = {}
    lists: Dict[str, int] = {}
    arrays: List[str] = []
    for key, value in state.items():
        if isinstance(value, list):
            lists[key] = len(value)
            for i, item in enumerate(value):
                payload[f"{_OPT_PREFIX}{key}.{i}"] = np.asarray(item)
        elif isinstance(value, np.ndarray):
            arrays.append(key)
            payload[f"{_OPT_PREFIX}{key}"] = value
        else:
            scalars[key] = value
    return {"scalars": scalars, "lists": lists, "arrays": arrays}


def _rebuild_optimizer_state(
    descriptor: Dict[str, object], archive
) -> Dict[str, object]:
    state: Dict[str, object] = dict(descriptor["scalars"])
    for key in descriptor["arrays"]:
        state[key] = archive[f"{_OPT_PREFIX}{key}"]
    for key, length in descriptor["lists"].items():
        state[key] = [archive[f"{_OPT_PREFIX}{key}.{i}"] for i in range(length)]
    return state


def save_checkpoint(
    path: str, checkpoint: TrainingCheckpoint, keep: Optional[int] = None
) -> None:
    """Write ``checkpoint`` to ``path`` (a ``.npz`` archive), atomically.

    Keeps the last ``keep`` generations (default ``REPRO_CKPT_KEEP``,
    falling back to 2): before the new archive lands on ``path``, the
    previous one rotates to ``path.1`` (and so on), each with its
    checksum sidecar, so resume always has an older intact snapshot to
    fall back to if the newest write was torn.
    """
    payload: Dict[str, np.ndarray] = {}
    for name, value in checkpoint.model_state.items():
        payload[_MODEL_PREFIX + name] = value
    if checkpoint.best_model_state is not None:
        for name, value in checkpoint.best_model_state.items():
            payload[_BEST_PREFIX + name] = value
    optimizer_descriptor = _flatten_optimizer_state(
        checkpoint.optimizer_state, payload
    )
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "epoch": checkpoint.epoch,
        "stopped_early": checkpoint.stopped_early,
        "train_losses": checkpoint.train_losses,
        "val_losses": checkpoint.val_losses,
        "epoch_times": checkpoint.epoch_times,
        "best_val_loss": checkpoint.best_val_loss,
        "best_epoch": checkpoint.best_epoch,
        "bad_epochs": checkpoint.bad_epochs,
        "has_best": checkpoint.best_model_state is not None,
        "rng_state": checkpoint.rng_state,
        "optimizer": optimizer_descriptor,
        "scheduler_state": checkpoint.scheduler_state,
        "config_fingerprint": checkpoint.config_fingerprint,
    }
    payload[_META_KEY] = np.asarray(json.dumps(meta))

    buffer = io.BytesIO()
    np.savez(buffer, **payload)
    data = buffer.getvalue()
    # The sidecar records the digest of the *intended* bytes, so a torn
    # or bit-flipped write (injected below, or real) is provable on load.
    # The fault fires before rotation: an injected exception leaves every
    # older generation where it was.
    digest = checksum(data)
    if faults.ACTIVE is not None:
        data = faults.ACTIVE.fire(
            "train.checkpoint_write", token=os.path.basename(path), payload=data
        )

    keep = _resolve_keep(keep)
    # Rotate newest -> oldest so generation N-1 lands on N; archives and
    # sidecars move together.  Stale generations beyond ``keep`` (from an
    # earlier run with a larger keep) are pruned.
    for generation in range(keep - 1, 0, -1):
        source = _rotated_path(path, generation - 1)
        if os.path.exists(source):
            os.replace(source, _rotated_path(path, generation))
            source_sum = source + _CHECKSUM_SUFFIX
            if os.path.exists(source_sum):
                os.replace(
                    source_sum, _rotated_path(path, generation) + _CHECKSUM_SUFFIX
                )
    generation = keep
    while os.path.exists(_rotated_path(path, generation)):
        os.unlink(_rotated_path(path, generation))
        stale_sum = _rotated_path(path, generation) + _CHECKSUM_SUFFIX
        if os.path.exists(stale_sum):
            os.unlink(stale_sum)
        generation += 1

    write_atomic(path, data)
    write_atomic(path + _CHECKSUM_SUFFIX, (digest + "\n").encode())


def checkpoint_exists(path: Optional[str]) -> bool:
    return path is not None and os.path.exists(path)


def _verify_checkpoint_bytes(path: str) -> None:
    """Raise :class:`CheckpointCorruptionError` if ``path`` fails its sidecar.

    Archives without a sidecar (written before checksums existed, or
    whose sidecar was lost) skip straight to deserialization — the npz
    container's own structure still catches gross truncation there.
    """
    sum_path = path + _CHECKSUM_SUFFIX
    if not os.path.exists(sum_path):
        return
    with open(sum_path) as handle:
        expected = handle.read().strip()
    with open(path, "rb") as handle:
        actual = checksum(handle.read())
    if actual != expected:
        raise CheckpointCorruptionError(
            f"{path}: checkpoint bytes hash to {actual}, sidecar records "
            f"{expected} — the archive is torn or bit-rotted"
        )


def load_checkpoint(path: str) -> TrainingCheckpoint:
    """Reload an archive written by :func:`save_checkpoint`.

    Integrity failures — sidecar checksum mismatch, torn/unparseable
    archive — raise :class:`CheckpointCorruptionError`; a missing file
    stays ``FileNotFoundError`` and an honest format-version mismatch
    stays ``ValueError``.  Corrupt archives never deserialize.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"no checkpoint at {path}")
    _verify_checkpoint_bytes(path)
    try:
        archive_ctx = np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, OSError, ValueError, EOFError) as exc:
        raise CheckpointCorruptionError(
            f"{path}: cannot open checkpoint archive ({exc})"
        ) from exc
    with archive_ctx as archive:
        try:
            meta = json.loads(str(archive[_META_KEY]))
        except (KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise CheckpointCorruptionError(
                f"{path}: checkpoint metadata unreadable ({exc})"
            ) from exc
        version = meta.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format_version {version!r}")
        model_state = {
            name[len(_MODEL_PREFIX) :]: archive[name]
            for name in archive.files
            if name.startswith(_MODEL_PREFIX)
        }
        best_model_state = None
        if meta["has_best"]:
            best_model_state = {
                name[len(_BEST_PREFIX) :]: archive[name]
                for name in archive.files
                if name.startswith(_BEST_PREFIX)
            }
        optimizer_state = _rebuild_optimizer_state(meta["optimizer"], archive)
    return TrainingCheckpoint(
        epoch=int(meta["epoch"]),
        model_state=model_state,
        optimizer_state=optimizer_state,
        rng_state=meta["rng_state"],
        scheduler_state=meta["scheduler_state"],
        train_losses=[float(v) for v in meta["train_losses"]],
        val_losses=[float(v) for v in meta["val_losses"]],
        epoch_times=[float(v) for v in meta["epoch_times"]],
        best_val_loss=float(meta["best_val_loss"]),
        best_epoch=int(meta["best_epoch"]),
        bad_epochs=int(meta["bad_epochs"]),
        best_model_state=best_model_state,
        stopped_early=bool(meta["stopped_early"]),
        config_fingerprint=meta.get("config_fingerprint"),
    )


def load_latest_checkpoint(
    path: Optional[str],
) -> Optional[Tuple[TrainingCheckpoint, str]]:
    """Resume helper: the newest *intact* snapshot in the rotation.

    Walks ``path``, ``path.1``, ``path.2``, … (newest first), skipping
    generations that fail their checksum or cannot be deserialized, and
    returns ``(checkpoint, loaded_path)`` for the first one that loads —
    or ``None`` when no generation exists or every one is corrupt (the
    caller starts from scratch rather than crashing on a torn archive).
    Honest config errors (format-version mismatch) still raise.
    """
    if path is None:
        return None
    generation = 0
    while True:
        candidate = _rotated_path(path, generation)
        if not os.path.exists(candidate):
            if generation == 0:
                generation += 1
                continue  # path may be gone but a rotation may survive
            return None
        try:
            return load_checkpoint(candidate), candidate
        except CheckpointCorruptionError:
            generation += 1
