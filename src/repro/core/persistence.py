"""Saving and loading trained CamAL pipelines.

A trained pipeline is a directory containing one ``member_<i>.npz`` state
archive per ensemble ResNet plus a ``manifest.json`` describing each
member's architecture and the pipeline's localization settings, so a
pipeline can be reloaded without re-running Algorithm 1.  This is
format 1 of :mod:`repro.api.persistence`, whose ``save_estimator`` /
``load_estimator`` are the public entry points for CamAL *and* every
registered baseline.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Dict, List, Optional, Tuple

from ..nn.serialization import load_state, save_state
from .ensemble import ResNetEnsemble
from .localization import CamAL
from .resnet import ResNetConfig, ResNetTSC

MANIFEST_NAME = "manifest.json"
_FORMAT_VERSION = 1


def _write_camal(camal: CamAL, directory: str, n_labels: int = 0) -> None:
    """Persist a trained CamAL pipeline into ``directory``.

    Writes ``manifest.json`` plus one ``member_<i>.npz`` per ensemble
    member.  The directory is created if needed; existing member files are
    overwritten.  The manifest carries ``model: "camal"`` so the generic
    :func:`repro.api.persistence.load_estimator` can dispatch on it, while
    ``format_version`` stays 1 for the legacy loader; ``n_labels`` records
    the estimator's label consumption so a reloaded pipeline keeps its
    annotation accounting.
    """
    os.makedirs(directory, exist_ok=True)
    members = []
    for i, model in enumerate(camal.ensemble.models):
        filename = f"member_{i}.npz"
        save_state(model, os.path.join(directory, filename))
        config = model.config
        members.append(
            {
                "file": filename,
                "kernel_size": config.kernel_size,
                "filters": list(config.filters),
                "in_channels": config.in_channels,
                "n_classes": config.n_classes,
                "seed": config.seed,
            }
        )
    manifest = {
        "format_version": _FORMAT_VERSION,
        "model": "camal",
        "detection_threshold": camal.detection_threshold,
        "use_attention": camal.use_attention,
        "power_gate_watts": camal.power_gate_watts,
        "status_threshold": camal.status_threshold,
        "n_labels": int(n_labels),
        "members": members,
    }
    with open(os.path.join(directory, MANIFEST_NAME), "w") as handle:
        json.dump(manifest, handle, indent=2)


def _read_camal(directory: str) -> CamAL:
    """Reload a pipeline saved by :func:`_write_camal`."""
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {directory!r}")
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    version = manifest.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported manifest format_version {version!r}")

    models = []
    for member in manifest["members"]:
        config = ResNetConfig(
            kernel_size=int(member["kernel_size"]),
            filters=tuple(member["filters"]),
            in_channels=int(member["in_channels"]),
            n_classes=int(member["n_classes"]),
            seed=int(member["seed"]),
        )
        model = ResNetTSC(config)
        load_state(model, os.path.join(directory, member["file"]))
        model.eval()
        models.append(model)

    gate: Optional[float] = manifest["power_gate_watts"]
    return CamAL(
        ResNetEnsemble(models),
        detection_threshold=float(manifest["detection_threshold"]),
        use_attention=bool(manifest["use_attention"]),
        power_gate_watts=None if gate is None else float(gate),
        # Older manifests predate per-pipeline soft-status thresholds.
        status_threshold=float(manifest.get("status_threshold", 0.5)),
    )


def save_pipelines(pipelines: Dict[str, CamAL], root: str) -> None:
    """Persist a fleet of per-appliance pipelines under ``root/<appliance>/``.

    Accepts raw :class:`CamAL` pipelines; for mixed-model fleets use the
    generic :func:`repro.api.persistence.save_pipelines`.
    """
    for appliance, camal in pipelines.items():
        _write_camal(camal, os.path.join(root, appliance))


def scan_pipeline_root(root: str) -> Tuple[List[Tuple[str, str]], List[str]]:
    """Find the loadable estimator directories under a fleet root.

    Returns ``(entries, skipped)`` where ``entries`` is a sorted list of
    ``(name, directory)`` pairs holding a ``manifest.json`` and
    ``skipped`` describes every stray file or manifest-less directory.
    Shared by this module's :func:`load_pipelines` and the generic
    :func:`repro.api.persistence.load_pipelines`.
    """
    if not os.path.isdir(root):
        raise FileNotFoundError(f"no pipeline directory at {root!r}")
    entries: List[Tuple[str, str]] = []
    skipped: List[str] = []
    for name in sorted(os.listdir(root)):
        directory = os.path.join(root, name)
        if not os.path.isdir(directory):
            skipped.append(f"{name} (not a directory)")
            continue
        if not os.path.isfile(os.path.join(directory, MANIFEST_NAME)):
            skipped.append(f"{name} (no {MANIFEST_NAME})")
            continue
        entries.append((name, directory))
    return entries, skipped


def warn_skipped_pipelines(root: str, skipped: List[str]) -> None:
    """Report (once) what :func:`scan_pipeline_root` refused to load."""
    if skipped:
        warnings.warn(
            f"load_pipelines skipped {len(skipped)} non-pipeline "
            f"entr{'y' if len(skipped) == 1 else 'ies'} under {root!r}: "
            + ", ".join(skipped),
            UserWarning,
            stacklevel=3,
        )


def load_pipelines(root: str) -> Dict[str, CamAL]:
    """Load every CamAL directory under ``root`` keyed by its name.

    This is the deployment layout consumed by
    :meth:`repro.serving.InferenceEngine.load`: one subdirectory per
    appliance, each holding a ``manifest.json`` plus member archives.
    Stray files and manifest-less directories are skipped and reported
    with a single ``UserWarning`` instead of aborting mid-load.  Fleets
    that mix in non-CamAL estimators load through the generic
    :func:`repro.api.persistence.load_pipelines` instead.
    """
    entries, skipped = scan_pipeline_root(root)
    pipelines: Dict[str, CamAL] = {}
    for name, directory in entries:
        try:
            pipelines[name] = _read_camal(directory)
        except (KeyError, ValueError, OSError) as exc:
            # Unsupported format, corrupt manifest/archive: report and
            # keep loading the rest of the fleet.
            skipped.append(f"{name} ({exc})")
    warn_skipped_pipelines(root, skipped)
    return pipelines
