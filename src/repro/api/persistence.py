"""Generic estimator persistence: one manifest format for every model.

Layout: a saved estimator is a directory holding ``manifest.json`` plus
one or more ``.npz`` weight archives.  Two manifest flavours coexist:

* **format_version 1** — the original CamAL layout (``members`` list, one
  archive per ensemble ResNet).  Written by :class:`CamALLocalizer.save`
  and :func:`repro.core.save_pipelines`; directories that predate the
  ``model`` key load as CamAL.
* **format_version 2** — the generic network-estimator layout::

      {
        "format_version": 2,
        "model": "crnn",            # registry name -> class + config type
        "supervision": "strong",
        "config": {...},            # the model's config-dataclass fields
        "detection_threshold": 0.5,
        "status_threshold": 0.5,
        "power_gate_watts": null,
        "n_labels": 1280,
        "weights": "network.npz"
      }

:func:`load_estimator` dispatches on the manifest's ``model`` key through
the registry, so ``load_estimator(d)`` round-trips *any* registered
estimator; :func:`load_pipelines` discovers a fleet of per-appliance
directories (mixed model types welcome) and reports anything it skips.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, fields
from typing import Dict

from ..core.localization import CamAL
from ..core.persistence import (
    MANIFEST_NAME,
    _read_camal,
    _write_camal,
    scan_pipeline_root,
    warn_skipped_pipelines,
)
from ..nn.serialization import load_state, save_state
from .adapters import CamALLocalizer, Seq2SeqLocalizer
from .base import NotFittedError, WeakLocalizer
from .registry import canonical_name, get_entry

GENERIC_FORMAT_VERSION = 2
_WEIGHTS_NAME = "network.npz"


def _config_from_fields(config_cls: type, stored: Dict) -> object:
    """Rebuild a config dataclass from manifest fields (lists -> tuples)."""
    kwargs = {}
    for spec in fields(config_cls):
        if spec.name not in stored:
            continue
        value = stored[spec.name]
        kwargs[spec.name] = tuple(value) if isinstance(value, list) else value
    return config_cls(**kwargs)


def save_estimator(estimator, directory: str) -> None:
    """Persist any registered estimator (or a raw :class:`CamAL`).

    CamAL pipelines keep the original member-per-file layout (format 1,
    still readable by the legacy loader); network estimators write the
    generic format-2 manifest plus one weights archive.
    """
    if isinstance(estimator, CamAL):
        _write_camal(estimator, directory)
        return
    if isinstance(estimator, CamALLocalizer):
        if estimator.pipeline is None:
            raise NotFittedError("cannot save an unfitted CamALLocalizer")
        _write_camal(estimator.pipeline, directory, n_labels=estimator.n_labels_)
        return
    if not isinstance(estimator, Seq2SeqLocalizer):
        raise TypeError(
            f"don't know how to persist {type(estimator).__name__}; expected "
            f"a registered WeakLocalizer or a CamAL pipeline"
        )
    if not estimator.is_fitted:
        raise NotFittedError(f"cannot save an unfitted {estimator.name!r} estimator")

    os.makedirs(directory, exist_ok=True)
    save_state(estimator.network, os.path.join(directory, _WEIGHTS_NAME))
    gate = estimator.power_gate_watts
    manifest = {
        "format_version": GENERIC_FORMAT_VERSION,
        "model": estimator.name,
        "supervision": estimator.supervision,
        "config": asdict(estimator.config),
        "detection_threshold": float(estimator.detection_threshold),
        "status_threshold": float(estimator.status_threshold),
        "power_gate_watts": None if gate is None else float(gate),
        "n_labels": int(estimator.n_labels_),
        "weights": _WEIGHTS_NAME,
    }
    with open(os.path.join(directory, MANIFEST_NAME), "w") as handle:
        json.dump(manifest, handle, indent=2)


def load_estimator(directory: str) -> WeakLocalizer:
    """Reload any estimator saved by :func:`save_estimator` / ``.save()``.

    Dispatches on the manifest's ``model`` key; manifests without one
    (pre-registry CamAL directories) load as CamAL.
    """
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {directory!r}")
    with open(manifest_path) as handle:
        manifest = json.load(handle)

    model = manifest.get("model")
    if model is None or canonical_name(model) == "camal":
        estimator = CamALLocalizer(pipeline=_read_camal(directory))
        estimator.n_labels_ = int(manifest.get("n_labels", 0))
        return estimator

    version = manifest.get("format_version")
    if version != GENERIC_FORMAT_VERSION:
        raise ValueError(
            f"unsupported manifest format_version {version!r} for model "
            f"{model!r} (expected {GENERIC_FORMAT_VERSION})"
        )
    entry = get_entry(model)
    config = _config_from_fields(entry.config_cls, manifest.get("config", {}))
    gate = manifest.get("power_gate_watts")
    estimator = entry.factory(
        config,
        train=None,
        detection_threshold=float(manifest.get("detection_threshold", 0.5)),
        status_threshold=float(manifest.get("status_threshold", 0.5)),
        power_gate_watts=None if gate is None else float(gate),
    )
    load_state(estimator.network, os.path.join(directory, manifest["weights"]))
    estimator.network.eval()
    estimator._mark_fitted(int(manifest.get("n_labels", 0)), 0.0)
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
    appliance, each holding a ``manifest.json``.  Stray files and
    manifest-less directories are skipped and reported with a single
    ``UserWarning`` instead of aborting the load mid-way.
    """
    entries, skipped = scan_pipeline_root(root)
    pipelines: Dict[str, WeakLocalizer] = {}
    for name, directory in entries:
        try:
            pipelines[name] = load_estimator(directory)
        except (KeyError, ValueError, OSError) as exc:
            # Unknown model, unsupported format, corrupt manifest/archive:
            # report and keep loading the rest of the fleet.
            skipped.append(f"{name} ({exc})")
    warn_skipped_pipelines(root, skipped)
    return pipelines
