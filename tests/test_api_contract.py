"""The shared estimator contract, enforced for every registered model.

One parameterized suite proves that CamAL and all six baselines speak the
same :class:`repro.api.WeakLocalizer` language: fit on a tiny case,
predict with the right shapes/dtypes, round-trip through save/load with
bit-identical predictions, and serve end-to-end through the
:class:`repro.serving.InferenceEngine`.
"""

import os

import numpy as np
import pytest

from repro import api
from repro.serving import EngineConfig, InferenceEngine
from repro.training import TrainConfig

WINDOW = 64
ALL_MODELS = api.available_models()


def _tiny_case(seed: int = 0, n_train: int = 24, n_val: int = 8):
    """Deterministic toy windows with square-pulse 'activations'."""
    rng = np.random.default_rng(seed)

    def windows(n):
        x = rng.normal(0.3, 0.05, size=(n, WINDOW)).astype(np.float32)
        strong = np.zeros((n, WINDOW), dtype=np.float32)
        weak = np.zeros(n, dtype=np.float32)
        for i in range(0, n, 2):  # every other window holds an activation
            start = int(rng.integers(4, WINDOW - 12))
            x[i, start : start + 8] += 2.0
            strong[i, start : start + 8] = 1.0
            weak[i] = 1.0
        return x, weak, strong

    return windows(n_train), windows(n_val), windows(6)


class _WindowSet:
    """Minimal ``WindowSet``-like carrier for ``labels_for``."""

    def __init__(self, weak, strong):
        self.weak = weak
        self.strong = strong


def _fitted(name: str) -> api.WeakLocalizer:
    (x_tr, w_tr, s_tr), (x_va, w_va, s_va), _ = _tiny_case()
    est = api.create(
        name,
        scale="tiny",
        seed=0,
        train=TrainConfig(epochs=1, batch_size=8, seed=0),
    )
    est.fit(
        x_tr,
        est.labels_for(_WindowSet(w_tr, s_tr)),
        x_va,
        est.labels_for(_WindowSet(w_va, s_va)),
    )
    return est


@pytest.fixture(scope="module", params=ALL_MODELS)
def fitted(request):
    return request.param, _fitted(request.param)


class TestContract:
    def test_registry_covers_camal_and_six_baselines(self):
        assert set(ALL_MODELS) == {
            "camal",
            "crnn",
            "crnn-weak",
            "bigru",
            "unet-nilm",
            "tpnilm",
            "transnilm",
        }

    def test_every_model_has_all_scales(self):
        for name in ALL_MODELS:
            assert set(api.get_entry(name).scales) == set(api.SCALE_NAMES)

    def test_scales_grow_parameter_count(self):
        counts = [
            api.create("tpnilm", scale=scale).network.num_parameters()
            for scale in ("tiny", "small", "paper")
        ]
        assert counts[0] < counts[1] < counts[2]

    def test_fit_bookkeeping(self, fitted):
        name, est = fitted
        (x_tr, w_tr, s_tr), _, _ = _tiny_case()
        assert est.is_fitted
        assert est.train_seconds_ > 0
        expected = len(w_tr) if est.supervision == "weak" else s_tr.size
        assert est.n_labels_ == expected

    def test_detect_shapes_and_range(self, fitted):
        _, est = fitted
        _, _, (x_te, _, _) = _tiny_case()
        proba = est.detect(x_te)
        assert proba.shape == (len(x_te),)
        assert proba.dtype == np.float32
        assert np.all((proba >= 0.0) & (proba <= 1.0))

    def test_localize_output_shapes_and_dtypes(self, fitted):
        _, est = fitted
        _, _, (x_te, _, _) = _tiny_case()
        out = est.localize(x_te)
        n, length = x_te.shape
        assert out.detection_proba.shape == (n,)
        assert out.detected.shape == (n,)
        assert out.detected.dtype == bool
        for arr in (out.cam, out.soft_status, out.status):
            assert arr.shape == (n, length)
            assert arr.dtype == np.float32
        assert set(np.unique(out.status)).issubset({0.0, 1.0})
        assert np.all((out.soft_status >= 0.0) & (out.soft_status <= 1.0))

    def test_predict_status_matches_localize(self, fitted):
        _, est = fitted
        _, _, (x_te, _, _) = _tiny_case()
        assert np.array_equal(est.predict_status(x_te), est.localize(x_te).status)

    def test_save_load_roundtrip_bit_identical(self, fitted, tmp_path):
        name, est = fitted
        _, _, (x_te, _, _) = _tiny_case()
        before = est.localize(x_te)
        est.save(str(tmp_path))
        assert os.path.exists(tmp_path / "manifest.json")

        reloaded = api.load_estimator(str(tmp_path))
        assert reloaded.name == name
        assert reloaded.supervision == est.supervision
        assert reloaded.is_fitted
        assert reloaded.n_labels_ == est.n_labels_
        after = reloaded.localize(x_te)
        assert np.array_equal(before.detection_proba, after.detection_proba)
        assert np.array_equal(before.detected, after.detected)
        assert np.array_equal(before.soft_status, after.soft_status)
        assert np.array_equal(before.status, after.status)

    def test_weaklocalizer_load_classmethod(self, fitted, tmp_path):
        _, est = fitted
        est.save(str(tmp_path))
        reloaded = api.WeakLocalizer.load(str(tmp_path))
        assert isinstance(reloaded, api.WeakLocalizer)

    def test_plan_replay_equivalent_across_backends(self, fitted, monkeypatch):
        """Traced-plan serving must match the untraced module loop on every
        conv backend — and repeated planned calls must be bit-identical,
        or the engine's LRU window cache would drift from fresh compute."""
        from repro import nn

        _, est = fitted
        _, _, (x_te, _, _) = _tiny_case()
        for backend_name in ("reference", "im2col"):
            with nn.backend.use_backend(backend_name):
                monkeypatch.delenv("REPRO_NN_PLAN", raising=False)
                planned = est.localize(x_te)  # traces (then validates) a plan
                replayed = est.localize(x_te)  # replays it
                monkeypatch.setenv("REPRO_NN_PLAN", "off")
                loop = est.localize(x_te)  # untraced module dispatch
                monkeypatch.delenv("REPRO_NN_PLAN")
            assert np.array_equal(planned.detection_proba, replayed.detection_proba)
            assert np.array_equal(planned.soft_status, replayed.soft_status)
            assert np.array_equal(planned.status, replayed.status)
            np.testing.assert_allclose(
                planned.detection_proba, loop.detection_proba, atol=1e-5
            )
            np.testing.assert_allclose(
                planned.soft_status, loop.soft_status, atol=1e-5
            )
            # Binary status may only differ where the soft score sits within
            # float tolerance of the 0.5 threshold.
            disagree = planned.status != loop.status
            assert np.all(np.abs(loop.soft_status[disagree] - 0.5) < 1e-4)

    def test_serves_through_inference_engine(self, fitted):
        name, est = fitted
        series = (
            np.random.default_rng(5).random(200).astype(np.float32) * 2500.0
        )
        engine = InferenceEngine(EngineConfig(window=WINDOW, stride=WINDOW // 2))
        engine.register(name, est)
        result = engine.run(series)
        status = result.status(name)
        assert status.shape == series.shape
        assert set(np.unique(status)).issubset({0.0, 1.0})

    def test_engine_load_roundtrip(self, fitted, tmp_path):
        name, est = fitted
        est.save(str(tmp_path))
        series = np.random.default_rng(6).random(160).astype(np.float32) * 2000.0
        direct = InferenceEngine(EngineConfig(window=WINDOW)).register(name, est)
        loaded = InferenceEngine(EngineConfig(window=WINDOW)).load(name, str(tmp_path))
        assert np.array_equal(
            direct.run(series).status(name), loaded.run(series).status(name)
        )


class TestRegistryErrors:
    def test_unknown_model(self):
        with pytest.raises(KeyError, match="unknown model"):
            api.create("lstm")

    def test_unknown_scale(self):
        with pytest.raises(KeyError, match="unknown scale"):
            api.create("crnn", scale="huge")

    def test_duplicate_registration_rejected(self):
        entry = api.get_entry("crnn")
        with pytest.raises(ValueError, match="already registered"):
            api.register(
                "crnn",
                config_cls=entry.config_cls,
                factory=entry.factory,
                scales=entry.scales,
                supervision=entry.supervision,
            )

    def test_legacy_spellings_canonicalize(self):
        for legacy, canonical in api.LEGACY_NAMES.items():
            assert api.canonical_name(legacy) == canonical
            assert api.get_entry(legacy).name == canonical

    def test_unfitted_camal_raises_on_predict(self):
        est = api.create("camal", scale="tiny")
        with pytest.raises(api.NotFittedError):
            est.detect(np.zeros((2, WINDOW), dtype=np.float32))

    def test_unfitted_seq2seq_save_raises(self, tmp_path):
        est = api.create("bigru", scale="tiny")
        with pytest.raises(api.NotFittedError):
            est.save(str(tmp_path))

    def test_camal_knobs_write_through_to_pipeline(self):
        """Mutating a fitted CamALLocalizer's serving knobs must reach the
        wrapped pipeline, or engine stitching and window status diverge."""
        est = _fitted("camal")
        est.status_threshold = 0.9
        est.power_gate_watts = 123.0
        assert est.pipeline.status_threshold == 0.9
        assert est.pipeline.power_gate_watts == 123.0


class TestGenericPipelines:
    def test_mixed_fleet_roundtrip(self, tmp_path):
        fleet = {"kettle": _fitted("camal"), "dishwasher": _fitted("tpnilm")}
        api.save_pipelines(fleet, str(tmp_path))
        loaded = api.load_pipelines(str(tmp_path))
        assert set(loaded) == {"kettle", "dishwasher"}
        assert isinstance(loaded["kettle"], api.CamALLocalizer)
        assert isinstance(loaded["dishwasher"], api.Seq2SeqLocalizer)

    def test_strays_skipped_and_reported(self, tmp_path):
        api.save_pipelines({"kettle": _fitted("crnn-weak")}, str(tmp_path))
        (tmp_path / "notes.txt").write_text("not a pipeline")
        (tmp_path / "empty_dir").mkdir()
        with pytest.warns(UserWarning, match="skipped 2"):
            loaded = api.load_pipelines(str(tmp_path))
        assert set(loaded) == {"kettle"}

    def test_corrupt_manifest_skipped_and_reported(self, tmp_path):
        api.save_pipelines(
            {"kettle": _fitted("bigru"), "oven": _fitted("tpnilm")}, str(tmp_path)
        )
        (tmp_path / "oven" / "manifest.json").write_text("{ not json")
        with pytest.warns(UserWarning, match="skipped 1"):
            loaded = api.load_pipelines(str(tmp_path))
        assert set(loaded) == {"kettle"}
