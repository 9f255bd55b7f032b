"""Persisting bytes and module state: one checksum, one atomic writer.

Every file the project persists — meter-store shards and manifests,
training checkpoints and their ``.sum`` sidecars, model archives and
model manifests — goes through :func:`write_atomic`, and every recorded
digest comes from :func:`checksum`.  Store and model manifests sign
their own fields with :func:`manifest_checksum`.  Module state dicts
travel as ``.npz`` archives (:func:`save_state` / :func:`load_state`).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
from typing import Dict, Optional

import numpy as np

from ..analysis import faults
from .modules import Module


def checksum(payload: bytes) -> str:
    """The digest recorded for every persisted payload (blake2b-128 hex)."""
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def manifest_checksum(fields: Dict) -> str:
    """The :func:`checksum` of manifest fields as canonical JSON.

    Canonical means sorted keys and no whitespace, so a manifest
    re-indented on disk still matches; an edited value does not.
    """
    return checksum(json.dumps(fields, sort_keys=True, separators=(",", ":")).encode())


def write_atomic(path: str, payload: bytes, fault_point: Optional[str] = None) -> str:
    """Write ``payload`` to ``path`` atomically; return its :func:`checksum`.

    The bytes land in a temp file beside ``path`` (its directory is
    created if needed) that is then renamed over it, so a reader sees the
    old file or the new one, never a partial write.  The checksum is of
    the *intended* bytes: when ``fault_point`` names an active injection
    point (token: the file's basename), a torn or bit-flipped write
    still records the digest the reader will fail to match.
    """
    digest = checksum(payload)
    if fault_point is not None and faults.ACTIVE is not None:
        payload = faults.ACTIVE.fire(
            fault_point, token=os.path.basename(path), payload=payload
        )
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return digest


def _npz_path(path: str) -> str:
    return path if path.endswith(".npz") else path + ".npz"


def save_state(module: Module, path: str) -> str:
    """Serialize ``module.state_dict()`` to ``path`` (npz archive).

    ``.npz`` is appended when missing.  Returns the archive's
    :func:`checksum`.
    """
    buffer = io.BytesIO()
    np.savez(buffer, **module.state_dict())
    return write_atomic(_npz_path(path), buffer.getvalue())


def load_state(module: Module, source) -> None:
    """Load an archive produced by :func:`save_state` into ``module``.

    ``source`` is a path (``.npz`` appended when missing) or the
    archive's bytes.
    """
    source = io.BytesIO(source) if isinstance(source, bytes) else _npz_path(source)
    with np.load(source) as archive:
        state: Dict[str, np.ndarray] = {k: archive[k] for k in archive.files}
    module.load_state_dict(state)
