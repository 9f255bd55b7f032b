"""Estimator persistence: one manifest format for every registered model.

A saved estimator is a directory holding ``manifest.json`` plus one or
more ``.npz`` weight archives::

    {
      "format_version": 4,
      "model": "crnn",            # registry name -> class + config type
      "supervision": "strong",
      "config": {...},            # the model's config-dataclass fields
      "detection_threshold": 0.5,
      "status_threshold": 0.5,
      "power_gate_watts": null,
      "n_labels": 1280,
      "files": {"network.npz": "<blake2b-128 hex>"},
      "checksum": "<blake2b-128 hex>"   # of every other field
    }

CamAL's ``config`` holds ``use_attention`` and the ensemble's
``members`` (one :class:`~repro.core.ResNetConfig` per
``member_<i>.npz``): Algorithm 1's search space is spent once training
ends, and the members are what a reload rebuilds.

Every file goes through :func:`repro.nn.serialization.write_atomic`, the
manifest last.  The manifest's ``checksum`` covers its other fields as
canonical JSON (sorted keys, no whitespace), and each archive's entry in
``files`` covers that archive.  :func:`load_estimator` checks both before
building anything, so an edited manifest field or a missing, torn or
flipped archive raises :class:`ModelIntegrityError`;
:func:`load_pipelines` skips and reports such a directory and loads the
rest of the fleet.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import asdict, fields
from typing import Dict, Tuple

from ..core.ensemble import ResNetEnsemble
from ..core.localization import CamAL
from ..core.resnet import ResNetConfig, ResNetTSC
from ..nn.modules import Module
from ..nn.serialization import checksum, load_state, manifest_checksum, save_state, write_atomic
from .adapters import CamALLocalizer, Seq2SeqLocalizer
from .base import NotFittedError, WeakLocalizer
from .registry import get_entry

MODEL_FORMAT_VERSION = 4
MANIFEST_NAME = "manifest.json"
_WEIGHTS_NAME = "network.npz"


class ModelIntegrityError(RuntimeError):
    """A saved model's manifest or archive fails its checksum, or an
    archive is missing."""


def _config_from_fields(config_cls: type, stored: Dict) -> object:
    """Rebuild a config dataclass from manifest fields (lists -> tuples)."""
    kwargs = {}
    for spec in fields(config_cls):
        if spec.name not in stored:
            continue
        value = stored[spec.name]
        kwargs[spec.name] = tuple(value) if isinstance(value, list) else value
    return config_cls(**kwargs)


def _archives(estimator) -> Tuple[Dict, Dict[str, Module]]:
    """An estimator's manifest ``config`` and its modules by archive name."""
    if isinstance(estimator, CamALLocalizer):
        models = estimator.pipeline.ensemble.models
        config = {
            "use_attention": bool(estimator.use_attention),
            "members": [asdict(model.config) for model in models],
        }
        return config, {f"member_{i}.npz": model for i, model in enumerate(models)}
    return asdict(estimator.config), {_WEIGHTS_NAME: estimator.network}


def save_estimator(estimator, directory: str) -> None:
    """Persist any registered estimator (or a raw :class:`CamAL`)."""
    if isinstance(estimator, CamAL):
        estimator = CamALLocalizer(pipeline=estimator)
    if not isinstance(estimator, (CamALLocalizer, Seq2SeqLocalizer)):
        raise TypeError(
            f"don't know how to persist {type(estimator).__name__}; expected "
            f"a registered WeakLocalizer or a CamAL pipeline"
        )
    if not estimator.is_fitted:
        raise NotFittedError(f"cannot save an unfitted {estimator.name!r} estimator")

    config, modules = _archives(estimator)
    gate = estimator.power_gate_watts
    manifest = {
        "format_version": MODEL_FORMAT_VERSION,
        "model": estimator.name,
        "supervision": estimator.supervision,
        "config": config,
        "detection_threshold": float(estimator.detection_threshold),
        "status_threshold": float(estimator.status_threshold),
        "power_gate_watts": None if gate is None else float(gate),
        "n_labels": int(estimator.n_labels_),
        "files": {
            name: save_state(module, os.path.join(directory, name))
            for name, module in modules.items()
        },
    }
    manifest["checksum"] = manifest_checksum(manifest)
    payload = json.dumps(manifest, indent=2).encode()
    write_atomic(os.path.join(directory, MANIFEST_NAME), payload)


def _read_archive(directory: str, name: str, expected: str) -> bytes:
    """The bytes of archive ``name``, proven against its manifest checksum."""
    path = os.path.join(directory, name)
    try:
        with open(path, "rb") as handle:
            payload = handle.read()
    except FileNotFoundError:
        raise ModelIntegrityError(f"{path}: archive missing") from None
    digest = checksum(payload)
    if digest != expected:
        raise ModelIntegrityError(
            f"{path}: checksum mismatch: manifest records {expected}, "
            f"file hashes to {digest}"
        )
    return payload


def load_estimator(directory: str) -> WeakLocalizer:
    """Reload any estimator saved by :func:`save_estimator` / ``.save()``.

    Dispatches on the manifest's ``model`` key through the registry.
    """
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {directory!r}")
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    version = manifest.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"unsupported manifest format_version {version!r} "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    recorded = manifest.pop("checksum", None)
    digest = manifest_checksum(manifest)
    if digest != recorded:
        raise ModelIntegrityError(
            f"{manifest_path}: checksum mismatch: manifest records {recorded}, "
            f"its fields hash to {digest}"
        )

    entry = get_entry(manifest["model"])
    config = manifest["config"]
    gate = manifest["power_gate_watts"]
    knobs = dict(
        detection_threshold=float(manifest["detection_threshold"]),
        status_threshold=float(manifest["status_threshold"]),
        power_gate_watts=None if gate is None else float(gate),
    )
    if entry.name == "camal":
        models = [
            ResNetTSC(_config_from_fields(ResNetConfig, member))
            for member in config["members"]
        ]
        pipeline = CamAL(
            ResNetEnsemble(models), use_attention=bool(config["use_attention"]), **knobs
        )
        estimator = CamALLocalizer(pipeline=pipeline)
    else:
        estimator = entry.factory(
            _config_from_fields(entry.config_cls, config), train=None, **knobs
        )
    for name, module in _archives(estimator)[1].items():
        load_state(module, _read_archive(directory, name, manifest["files"][name]))
    estimator.eval()
    estimator._mark_fitted(int(manifest["n_labels"]), 0.0)
    return estimator


def save_pipelines(pipelines: Dict[str, object], root: str) -> None:
    """Persist a fleet of per-appliance estimators under ``root/<name>/``.

    Values may be any registered :class:`WeakLocalizer` or raw
    :class:`CamAL` pipelines — model types can be mixed freely.
    """
    for appliance, estimator in pipelines.items():
        save_estimator(estimator, os.path.join(root, appliance))


def load_pipelines(root: str) -> Dict[str, WeakLocalizer]:
    """Load every estimator directory under ``root``, keyed by its name.

    This is the deployment layout consumed by
    :meth:`repro.serving.InferenceEngine.load`: one subdirectory per
    appliance, each holding a ``manifest.json``.  Stray files,
    manifest-less directories and models that fail to load (unknown
    model or format, corrupt manifest, :class:`ModelIntegrityError`) are
    skipped and reported with a single ``UserWarning`` instead of
    aborting the load mid-way.
    """
    if not os.path.isdir(root):
        raise FileNotFoundError(f"no pipeline directory at {root!r}")
    pipelines: Dict[str, WeakLocalizer] = {}
    skipped = []
    for name in sorted(os.listdir(root)):
        directory = os.path.join(root, name)
        if not os.path.isdir(directory):
            skipped.append(f"{name} (not a directory)")
        elif not os.path.isfile(os.path.join(directory, MANIFEST_NAME)):
            skipped.append(f"{name} (no {MANIFEST_NAME})")
        else:
            try:
                pipelines[name] = load_estimator(directory)
            except (KeyError, ValueError, OSError, ModelIntegrityError) as exc:
                skipped.append(f"{name} ({exc})")
    if skipped:
        warnings.warn(
            f"load_pipelines skipped {len(skipped)} "
            f"entr{'y' if len(skipped) == 1 else 'ies'} under {root!r}: "
            + ", ".join(skipped),
            UserWarning,
            stacklevel=2,
        )
    return pipelines
