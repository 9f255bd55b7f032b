"""Tests for CamAL pipeline persistence (save/load round trips).

The entry points are the generic :func:`repro.api.save_estimator` /
:func:`repro.api.load_estimator`.
"""

import json
import os

import numpy as np
import pytest

from repro.api import CamALLocalizer, load_estimator, save_estimator
from repro.core import CamAL, ResNetConfig, ResNetEnsemble, ResNetTSC


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
        assert manifest["format_version"] == 1
        assert manifest["model"] == "camal"
        assert len(manifest["members"]) == 2
        assert manifest["members"][0]["kernel_size"] == 3

    def test_manifest_without_model_key_still_loads(self, camal, tmp_path):
        """Directories written before the registry (no ``model`` key) load
        as CamAL."""
        save_estimator(camal, str(tmp_path))
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["model"]
        path.write_text(json.dumps(manifest))
        assert isinstance(load_estimator(str(tmp_path)), CamALLocalizer)


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
