"""Tests for model persistence: round trips, the manifest, integrity.

The entry points are the generic :func:`repro.api.save_estimator` /
:func:`repro.api.load_estimator`.
"""

import json
import os

import numpy as np
import pytest

from repro import api
from repro.api import (
    CamALLocalizer,
    ModelIntegrityError,
    load_estimator,
    load_pipelines,
    save_estimator,
    save_pipelines,
)
from repro.core import CamAL, ResNetConfig, ResNetEnsemble, ResNetTSC
from repro.nn.serialization import checksum
from repro.training import TrainConfig


@pytest.fixture()
def camal():
    models = [
        ResNetTSC(ResNetConfig(kernel_size=k, filters=(4, 8, 8), seed=i))
        for i, k in enumerate((3, 5))
    ]
    for model in models:
        model.eval()
    return CamAL(
        ResNetEnsemble(models),
        detection_threshold=0.4,
        use_attention=True,
        power_gate_watts=500.0,
    )


class TestRoundTrip:
    def test_predictions_identical(self, camal, tmp_path):
        x = np.random.default_rng(0).random((6, 32)).astype(np.float32)
        before = camal.localize(x)
        save_estimator(camal, str(tmp_path))
        reloaded = load_estimator(str(tmp_path))
        assert isinstance(reloaded, CamALLocalizer)
        after = reloaded.localize(x)
        assert np.allclose(before.detection_proba, after.detection_proba, atol=1e-6)
        assert np.array_equal(before.status, after.status)

    def test_settings_preserved(self, camal, tmp_path):
        save_estimator(camal, str(tmp_path))
        reloaded = load_estimator(str(tmp_path))
        assert reloaded.detection_threshold == pytest.approx(0.4)
        assert reloaded.use_attention is True
        assert reloaded.power_gate_watts == pytest.approx(500.0)
        assert reloaded.pipeline.ensemble.kernel_sizes == camal.ensemble.kernel_sizes

    def test_none_power_gate_preserved(self, camal, tmp_path):
        camal.power_gate_watts = None
        save_estimator(camal, str(tmp_path))
        assert load_estimator(str(tmp_path)).power_gate_watts is None

    def test_directory_contents(self, camal, tmp_path):
        save_estimator(camal, str(tmp_path))
        files = set(os.listdir(tmp_path))
        assert "manifest.json" in files
        assert "member_0.npz" in files and "member_1.npz" in files

    def test_manifest_schema(self, camal, tmp_path):
        save_estimator(camal, str(tmp_path))
        with open(tmp_path / "manifest.json") as handle:
            manifest = json.load(handle)
        assert manifest["format_version"] == 4
        assert manifest["model"] == "camal"
        assert manifest["config"]["use_attention"] is True
        members = manifest["config"]["members"]
        assert len(members) == 2
        assert members[0]["kernel_size"] == 3
        assert set(manifest["files"]) == {"member_0.npz", "member_1.npz"}
        for name, digest in manifest["files"].items():
            assert checksum((tmp_path / name).read_bytes()) == digest
        recorded = manifest.pop("checksum")
        canonical = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
        assert checksum(canonical.encode()) == recorded


class TestErrors:
    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_estimator(str(tmp_path))

    def test_bad_version_raises(self, camal, tmp_path):
        save_estimator(camal, str(tmp_path))
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["format_version"] = 99
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format_version"):
            load_estimator(str(tmp_path))

    def test_creates_directory(self, camal, tmp_path):
        target = tmp_path / "nested" / "dir"
        save_estimator(camal, str(target))
        assert load_estimator(str(target)) is not None


def _flip_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


class TestIntegrity:
    """Every archive is checked against its manifest checksum before it
    is deserialized; the bytes are corrupted on disk after saving."""

    def test_flipped_camal_member_raises(self, camal, tmp_path):
        save_estimator(camal, str(tmp_path))
        _flip_byte(tmp_path / "member_1.npz")
        with pytest.raises(ModelIntegrityError, match="member_1.npz"):
            load_estimator(str(tmp_path))

    def test_flipped_baseline_archive_raises(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.random((8, 32)).astype(np.float32)
        status = (rng.random((8, 32)) > 0.5).astype(np.float32)
        est = api.create(
            "tpnilm", scale="tiny", train=TrainConfig(epochs=1, batch_size=8)
        ).fit(x, status)
        save_estimator(est, str(tmp_path))
        _flip_byte(tmp_path / "network.npz")
        with pytest.raises(ModelIntegrityError, match="network.npz"):
            load_estimator(str(tmp_path))

    def test_truncated_archive_raises(self, camal, tmp_path):
        save_estimator(camal, str(tmp_path))
        path = tmp_path / "member_0.npz"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(ModelIntegrityError, match="member_0.npz"):
            load_estimator(str(tmp_path))

    def test_deleted_archive_raises(self, camal, tmp_path):
        save_estimator(camal, str(tmp_path))
        (tmp_path / "member_0.npz").unlink()
        with pytest.raises(ModelIntegrityError, match="member_0.npz: archive missing"):
            load_estimator(str(tmp_path))

    @staticmethod
    def _edit_manifest(directory, **changes):
        path = directory / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest.update(changes)
        path.write_text(json.dumps(manifest, indent=2))

    def test_edited_manifest_field_raises(self, camal, tmp_path):
        """An edited threshold used to load silently with the new value."""
        save_estimator(camal, str(tmp_path))
        assert load_estimator(str(tmp_path)).detection_threshold != 0.9
        self._edit_manifest(tmp_path, detection_threshold=0.9)
        with pytest.raises(ModelIntegrityError, match="manifest.json: checksum mismatch"):
            load_estimator(str(tmp_path))

    def test_manifest_without_its_checksum_raises(self, camal, tmp_path):
        save_estimator(camal, str(tmp_path))
        self._edit_manifest(tmp_path, checksum=None)
        with pytest.raises(ModelIntegrityError, match="manifest records None"):
            load_estimator(str(tmp_path))

    def test_reformatted_manifest_still_loads(self, camal, tmp_path):
        """The checksum covers the fields, not the file's bytes."""
        save_estimator(camal, str(tmp_path))
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(json.loads(path.read_text()), indent=None))
        assert load_estimator(str(tmp_path)).detection_threshold == camal.detection_threshold

    def test_fleet_skips_and_reports_an_edited_manifest(self, camal, tmp_path):
        save_pipelines({"kettle": camal, "oven": camal}, str(tmp_path))
        self._edit_manifest(tmp_path / "oven", detection_threshold=0.9)
        with pytest.warns(UserWarning, match=r"skipped 1 .*oven .*checksum mismatch"):
            loaded = load_pipelines(str(tmp_path))
        assert set(loaded) == {"kettle"}

    def test_fleet_skips_and_reports_the_corrupt_model(self, camal, tmp_path):
        save_pipelines({"kettle": camal, "oven": camal}, str(tmp_path))
        _flip_byte(tmp_path / "oven" / "member_1.npz")
        with pytest.warns(UserWarning, match=r"skipped 1 .*oven .*member_1\.npz"):
            loaded = load_pipelines(str(tmp_path))
        assert set(loaded) == {"kettle"}
        x = np.random.default_rng(1).random((3, 32)).astype(np.float32)
        assert np.array_equal(loaded["kettle"].localize(x).status, camal.localize(x).status)
