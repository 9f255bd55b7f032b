"""Tests for the serving subsystem: windowing, stitching, engine, fusion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import load_pipelines, save_estimator, save_pipelines
from repro.core import (
    CamAL,
    ResNetConfig,
    ResNetEnsemble,
    ResNetTSC,
    localize_double_forward,
)
from repro.core.resnet import ResNetTSC as _ResNetTSC
from repro.serving import (
    EngineConfig,
    InferenceEngine,
    plan_windows,
    slice_windows,
    stitch_mean,
)

TINY = ResNetConfig(kernel_size=3, filters=(4, 8, 8), seed=0)


def _camal(n_models=2, **kwargs):
    models = [
        ResNetTSC(ResNetConfig(kernel_size=k, filters=(4, 8, 8), seed=i))
        for i, k in enumerate((3, 5, 7)[:n_models])
    ]
    for model in models:
        model.eval()
    return CamAL(ResNetEnsemble(models), **kwargs)


def _windows(n=6, length=32, seed=0, scale=2.0):
    return (np.random.default_rng(seed).random((n, length)) * scale).astype(
        np.float32
    )


class _PointwisePipeline:
    """CamAL stand-in whose scores depend only on each sample's value.

    Real ResNet CAMs vary near window edges (conv zero-padding), so exact
    stride invariance is a property of the *stitching* layer, checked here
    with a pointwise scorer rather than a trained conv stack.
    """

    detection_threshold = 0.5
    power_gate_watts = None
    use_attention = True

    class _Ensemble:
        def eval(self):
            return self

    def __init__(self):
        self.ensemble = self._Ensemble()

    def localize(self, x, batch_size=256):
        from repro.core import LocalizationOutput

        x = np.asarray(x, dtype=np.float32)
        proba = np.clip(x.mean(axis=1), 0.0, 1.0)
        detected = proba > self.detection_threshold
        soft = 1.0 / (1.0 + np.exp(-(x - 0.5)))
        soft = np.where(detected[:, None], soft, 0.0).astype(np.float32)
        status = (soft >= 0.5).astype(np.float32)
        return LocalizationOutput(
            detection_proba=proba.astype(np.float32),
            detected=detected,
            cam=soft.copy(),
            soft_status=soft,
            status=status,
        )


class TestSlidingWindowPlan:
    def test_non_overlapping_exact_fit(self):
        plan = plan_windows(128, 32)
        assert plan.n_windows == 4
        assert plan.pad_right == 0
        assert plan.stride == 32

    def test_tail_is_padded_not_dropped(self):
        plan = plan_windows(100, 32)
        assert plan.n_windows == 4  # ceil((100-32)/32)+1
        assert plan.padded_length == 128
        assert plan.pad_right == 28

    def test_series_shorter_than_window(self):
        plan = plan_windows(10, 32)
        assert plan.n_windows == 1
        assert plan.pad_right == 22

    def test_full_coverage_any_stride(self):
        for stride in (1, 3, 16, 32):
            plan = plan_windows(101, 32, stride)
            assert plan.coverage_counts().min() >= 1

    def test_invalid_args_raise(self):
        with pytest.raises(ValueError):
            plan_windows(0, 32)
        with pytest.raises(ValueError):
            plan_windows(100, 0)
        with pytest.raises(ValueError):
            plan_windows(100, 32, 0)
        with pytest.raises(ValueError):
            plan_windows(100, 32, 33)  # gaps

    def test_slice_windows_values(self):
        series = np.arange(9, dtype=np.float32)
        plan = plan_windows(9, 4, 2)
        windows = slice_windows(series, plan)
        assert windows.shape == (plan.n_windows, 4)
        assert np.array_equal(windows[0], [0, 1, 2, 3])
        assert np.array_equal(windows[1], [2, 3, 4, 5])
        # Tail window is edge-padded with the last real sample.
        assert plan.pad_right == 1
        assert np.array_equal(windows[-1], [6, 7, 8, 8])

    def test_slice_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            slice_windows(np.zeros(5), plan_windows(10, 4))

    def test_stitch_mean_non_overlapping_is_concat(self):
        series = np.random.default_rng(0).random(96).astype(np.float32)
        plan = plan_windows(96, 32)
        windows = slice_windows(series, plan)
        assert np.allclose(stitch_mean(windows, plan), series)

    def test_stitch_mean_averages_overlaps(self):
        plan = plan_windows(6, 4, 2)
        values = np.zeros((plan.n_windows, 4), dtype=np.float32)
        values[0] = 1.0  # covers samples 0..3
        stitched = stitch_mean(values, plan)
        assert stitched[0] == pytest.approx(1.0)  # only window 0
        assert stitched[2] == pytest.approx(0.5)  # windows 0 and 1
        assert stitched[4] == pytest.approx(0.0)

    def test_stitch_identity_roundtrip_overlapping(self):
        """Stitching windows cut from a series recovers the series."""
        series = np.random.default_rng(1).random(50).astype(np.float32)
        plan = plan_windows(50, 16, 8)
        assert np.allclose(
            stitch_mean(slice_windows(series, plan), plan), series, atol=1e-6
        )


class TestStrideInvariance:
    @given(
        length=st.integers(min_value=8, max_value=200),
        stride=st.integers(min_value=1, max_value=16),
        value=st.floats(min_value=0.0, max_value=5.0, allow_nan=False, width=32),
    )
    @settings(max_examples=40, deadline=None)
    def test_constant_series_stitch_invariant_to_stride(self, length, stride, value):
        """Windows of a constant series all score alike, so the stitched
        score equals the per-window score regardless of stride/overlap."""
        window = 16
        stride = min(stride, window)
        series = np.full(length, value, dtype=np.float32)
        plan = plan_windows(length, window, stride)
        windows = slice_windows(series, plan)
        # A deterministic per-timestamp "model": score = tanh(x).
        scores = np.tanh(windows)
        stitched = stitch_mean(scores, plan)
        assert stitched.shape == (length,)
        assert np.allclose(stitched, np.tanh(value), atol=1e-6)

    @given(
        stride=st.integers(min_value=1, max_value=32),
        value=st.floats(min_value=0.0, max_value=3000.0, allow_nan=False, width=32),
        length=st.integers(min_value=8, max_value=150),
    )
    @settings(max_examples=30, deadline=None)
    def test_engine_status_invariant_to_stride_on_constant_series(
        self, stride, value, length
    ):
        """Every window of a constant series is identical, so the stitched
        engine status cannot depend on the stride/overlap choice."""
        camal = _PointwisePipeline()
        series = np.full(length, value, dtype=np.float32)
        engine = InferenceEngine(EngineConfig(window=32, stride=stride))
        engine.register("kettle", camal)
        status = engine.run(series).status("kettle")
        reference = (
            InferenceEngine(EngineConfig(window=32, stride=32))
            .register("kettle", camal)
            .run(series)
            .status("kettle")
        )
        assert status.shape == (length,)
        assert np.array_equal(status, reference)


class TestFusedLocalization:
    def test_fused_matches_double_forward(self):
        for gate, attention in [(None, True), (500.0, True), (None, False)]:
            camal = _camal(power_gate_watts=gate, use_attention=attention)
            x = _windows(seed=3)
            fused = camal.localize(x)
            legacy = localize_double_forward(camal, x)
            assert np.allclose(
                fused.detection_proba, legacy.detection_proba, atol=1e-5
            )
            assert np.array_equal(fused.detected, legacy.detected)
            assert np.allclose(fused.cam, legacy.cam, atol=1e-5)
            assert np.allclose(fused.soft_status, legacy.soft_status, atol=1e-5)
            assert np.array_equal(fused.status, legacy.status)

    def test_localize_single_forward_per_member_per_batch(self, monkeypatch):
        """The untraced conv stack (``features``) runs exactly once per member
        per micro-batch — no separate recomputation for the CAM.  Plans are
        disabled: the traced path never dispatches ``features`` at all (see
        ``test_planned_localize_skips_module_dispatch``)."""
        monkeypatch.setenv("REPRO_NN_PLAN", "off")
        camal = _camal(n_models=2, detection_threshold=0.0)  # all detected
        x = _windows(n=10, length=24)
        calls = {"features": 0}
        original = _ResNetTSC.features

        def counting_features(self, inputs):
            calls["features"] += 1
            return original(self, inputs)

        _ResNetTSC.features = counting_features
        try:
            camal.localize(x, batch_size=4)
        finally:
            _ResNetTSC.features = original
        n_batches = 3  # ceil(10 / 4)
        assert calls["features"] == len(camal.ensemble) * n_batches

    def test_planned_localize_skips_module_dispatch(self):
        """After the one-time trace, a planned localize replays without a
        single ``nn.Module.__call__`` — the whole point of the plan layer."""
        from repro import nn as _nn

        camal = _camal(n_models=2, detection_threshold=0.0)
        x = _windows(n=8, length=24)
        first = camal.localize(x, batch_size=8)  # traces + validates
        cache = camal.ensemble.plan_cache
        assert cache.traces >= 1
        before = _nn.module_calls()
        second = camal.localize(x, batch_size=8)  # pure replay
        assert _nn.module_calls() == before
        assert cache.replays >= 1
        # Replays are bit-identical to the traced first call (the serving
        # LRU cache's bit-identity contract rides on this).
        assert np.array_equal(first.detection_proba, second.detection_proba)
        assert np.array_equal(first.cam, second.cam)
        assert np.array_equal(first.status, second.status)

    def test_plan_off_env_matches_planned_outputs(self, monkeypatch):
        """`REPRO_NN_PLAN=off` falls back to the member loop with equal
        results (proba/CAM within 1e-5; conv GEMMs are bit-identical, the
        CAM contraction may reassociate)."""
        camal = _camal(n_models=3, detection_threshold=0.0)
        x = _windows(n=6, length=24)
        planned = camal.localize(x, batch_size=8)
        monkeypatch.setenv("REPRO_NN_PLAN", "off")
        loop = camal.localize(x, batch_size=8)
        assert camal.ensemble.plan_cache.fallbacks >= 1
        assert np.allclose(planned.detection_proba, loop.detection_proba, atol=1e-5)
        assert np.allclose(planned.cam, loop.cam, atol=1e-5)

    def test_double_forward_costs_twice_as_many_passes(self):
        camal = _camal(n_models=2, detection_threshold=0.0)
        x = _windows(n=8, length=24)
        calls = {"features": 0}
        original = _ResNetTSC.features

        def counting_features(self, inputs):
            calls["features"] += 1
            return original(self, inputs)

        _ResNetTSC.features = counting_features
        try:
            localize_double_forward(camal, x, batch_size=8)
        finally:
            _ResNetTSC.features = original
        assert calls["features"] == 2 * len(camal.ensemble)

    def test_detected_is_bool(self):
        camal = _camal()
        out = camal.localize(_windows())
        assert out.detected.dtype == np.bool_
        assert out.detected_float.dtype == np.float32

    def test_predict_detection_forwards_batch_size(self):
        ens = _camal().ensemble
        x = _windows(n=5)
        full = ens.predict_detection(x, batch_size=256)
        batched = ens.predict_detection(x, batch_size=2)
        assert batched.dtype == np.bool_
        assert np.array_equal(full, batched)

    def test_forward_fused_matches_separate_calls(self):
        from repro.core import ensemble_cam

        ens = _camal(n_models=3).ensemble
        x = _windows(n=4)
        fused = ens.forward_fused(x, batch_size=3)
        assert np.allclose(fused.proba, ens.predict_proba(x), atol=1e-5)
        assert np.allclose(fused.cam, ensemble_cam(ens.models, x), atol=1e-5)


class TestInferenceEngine:
    def _series(self, n=300, seed=0, scale=2000.0):
        return (np.random.default_rng(seed).random(n) * scale).astype(np.float32)

    def test_multi_appliance_full_coverage(self):
        engine = InferenceEngine(EngineConfig(window=32, stride=16))
        engine.register("kettle", _camal(n_models=1))
        engine.register("dishwasher", _camal(n_models=2))
        series = self._series(n=317)  # not a multiple of the window
        result = engine.run(series)
        assert set(dict(result)) == {"kettle", "dishwasher"}
        for _, appliance_result in result:
            assert appliance_result.status.shape == (317,)
            assert appliance_result.soft_status.shape == (317,)
            assert set(np.unique(appliance_result.status)) <= {0.0, 1.0}

    def test_run_subset_of_appliances(self):
        engine = InferenceEngine(EngineConfig(window=32))
        engine.register("kettle", _camal())
        engine.register("dishwasher", _camal())
        result = engine.run(self._series(), appliances=["kettle"])
        assert list(dict(result)) == ["kettle"]

    def test_unknown_appliance_raises(self):
        engine = InferenceEngine(EngineConfig(window=32))
        with pytest.raises(KeyError):
            engine.run(self._series(), appliances=["toaster"])

    def test_rejects_nan_and_2d(self):
        engine = InferenceEngine(EngineConfig(window=32))
        engine.register("kettle", _camal())
        with pytest.raises(ValueError, match="1-D"):
            engine.run(np.zeros((4, 8)))
        bad = self._series()
        bad[7] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            engine.run(bad)

    def test_cache_hits_on_repeat_and_results_identical(self):
        engine = InferenceEngine(EngineConfig(window=32, cache_size=1024))
        engine.register("kettle", _camal())
        series = self._series()
        first = engine.run(series)
        second = engine.run(series)
        assert first.per_appliance["kettle"].cache_hits == 0
        n_windows = first.plan.n_windows
        assert second.per_appliance["kettle"].cache_hits == n_windows
        assert np.array_equal(first.status("kettle"), second.status("kettle"))
        assert np.allclose(
            first.per_appliance["kettle"].windows.detection_proba,
            second.per_appliance["kettle"].windows.detection_proba,
        )

    def test_cache_is_per_appliance(self):
        engine = InferenceEngine(EngineConfig(window=32, cache_size=1024))
        engine.register("a", _camal(n_models=1))
        engine.register("b", _camal(n_models=2))
        series = self._series()
        engine.run(series)
        result = engine.run(series)
        # Both appliances hit their own entries; outputs differ because the
        # ensembles differ.
        assert result.per_appliance["a"].cache_hits == result.plan.n_windows
        assert result.per_appliance["b"].cache_hits == result.plan.n_windows

    def test_reregister_invalidates_appliance_cache(self):
        """A retrained pipeline must not be served the old model's scores."""
        engine = InferenceEngine(EngineConfig(window=32, cache_size=1024))
        engine.register("kettle", _camal(n_models=1))
        series = self._series()
        engine.run(series)
        assert engine.cache_entries > 0
        engine.register("kettle", _camal(n_models=2))
        result = engine.run(series)
        assert result.per_appliance["kettle"].cache_hits == 0

    def test_cache_eviction_respects_capacity(self):
        engine = InferenceEngine(EngineConfig(window=32, cache_size=4))
        engine.register("kettle", _camal(n_models=1))
        engine.run(self._series(n=320))  # 10 distinct windows
        assert engine.cache_entries <= 4

    def test_cached_equals_uncached(self):
        series = self._series(n=640, seed=5)
        camal = _camal()
        cached = InferenceEngine(EngineConfig(window=32, cache_size=1024))
        cached.register("kettle", camal)
        plain = InferenceEngine(EngineConfig(window=32))
        plain.register("kettle", camal)
        cached.run(series)  # warm the cache
        a = cached.run(series).status("kettle")
        b = plain.run(series).status("kettle")
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("detection_threshold", [0.4, 0.5, 0.55])
    def test_cached_run_bit_identical_to_uncached(self, detection_threshold):
        """Regression: every output array — including ``detected`` — of a
        cached run must be *bit-identical* to an uncached run, on the cold
        pass and on the all-hits pass.  The cache rows therefore carry the
        detection decision instead of recomputing it from the cached
        probability against whatever threshold the pipeline has later."""
        series = self._series(n=640, seed=11)
        camal = _camal(
            power_gate_watts=500.0, detection_threshold=detection_threshold
        )
        cached = InferenceEngine(EngineConfig(window=32, stride=16, cache_size=4096))
        cached.register("kettle", camal)
        plain = InferenceEngine(EngineConfig(window=32, stride=16))
        plain.register("kettle", camal)

        reference = plain.run(series).per_appliance["kettle"]
        cold = cached.run(series).per_appliance["kettle"]
        warm = cached.run(series).per_appliance["kettle"]
        assert cold.cache_hits == 0
        assert warm.cache_hits == cached.run(series).plan.n_windows

        for run in (cold, warm):
            assert run.windows.detected.dtype == reference.windows.detected.dtype
            assert np.array_equal(run.windows.detected, reference.windows.detected)
            assert np.array_equal(
                run.windows.detection_proba, reference.windows.detection_proba
            )
            assert np.array_equal(run.windows.cam, reference.windows.cam)
            assert np.array_equal(run.windows.soft_status, reference.windows.soft_status)
            assert np.array_equal(run.windows.status, reference.windows.status)
            assert np.array_equal(run.soft_status, reference.soft_status)
            assert np.array_equal(run.status, reference.status)

    def test_engine_defaults_to_pipeline_status_threshold(self):
        """A pipeline trained with a non-0.5 soft-status threshold must be
        stitched at *its* threshold, not a global engine default."""
        series = self._series(n=320, seed=9)
        engine = InferenceEngine(EngineConfig(window=32, stride=16))
        engine.register("kettle", _camal(detection_threshold=0.0, status_threshold=0.7))
        engine.register("at_half", _camal(detection_threshold=0.0, status_threshold=0.5))
        result = engine.run(series)
        kettle, at_half = result.per_appliance["kettle"], result.per_appliance["at_half"]
        # Same weights, same soft scores: only the pipelines' thresholds differ.
        assert np.array_equal(kettle.soft_status, at_half.soft_status)
        assert np.array_equal(kettle.status, (kettle.soft_status >= 0.7).astype(np.float32))
        # The soft scores straddle 0.7, so a 0.5 threshold genuinely
        # changes the answer.
        assert not np.array_equal(kettle.status, at_half.status)

    def test_matches_direct_localize_when_aligned(self):
        """Non-overlapping stride on an exact-multiple series reproduces
        CamAL.localize + reshape exactly."""
        camal = _camal(power_gate_watts=500.0)
        series = self._series(n=320, seed=7)
        engine = InferenceEngine(EngineConfig(window=32))
        engine.register("kettle", camal)
        engine_status = engine.run(series).status("kettle")
        from repro.simdata.preprocessing import SCALE_DIVISOR

        direct = camal.predict_status(
            series.reshape(-1, 32) / SCALE_DIVISOR
        ).reshape(-1)
        assert np.array_equal(engine_status, direct)


class TestEnginePersistence:
    def test_save_load_roundtrip_identical_outputs(self, tmp_path):
        camal = _camal(power_gate_watts=500.0, detection_threshold=0.4)
        series = (
            np.random.default_rng(3).random(200).astype(np.float32) * 2500.0
        )
        direct = InferenceEngine(EngineConfig(window=32, stride=16))
        direct.register("kettle", camal)
        expected = direct.run(series)

        save_estimator(camal, str(tmp_path / "kettle"))
        loaded = InferenceEngine(EngineConfig(window=32, stride=16))
        loaded.load("kettle", str(tmp_path / "kettle"))
        got = loaded.run(series)

        assert np.allclose(
            expected.per_appliance["kettle"].soft_status,
            got.per_appliance["kettle"].soft_status,
            atol=1e-6,
        )
        assert np.array_equal(expected.status("kettle"), got.status("kettle"))

    def test_save_load_pipelines_fleet(self, tmp_path):
        pipelines = {"kettle": _camal(n_models=1), "dishwasher": _camal(n_models=2)}
        save_pipelines(pipelines, str(tmp_path))
        loaded = load_pipelines(str(tmp_path))
        assert set(loaded) == {"kettle", "dishwasher"}
        series = np.random.default_rng(4).random(96).astype(np.float32) * 2000
        engine = InferenceEngine(EngineConfig(window=32))
        for name, camal in loaded.items():
            engine.register(name, camal)
        result = engine.run(series)
        for name in pipelines:
            assert result.status(name).shape == (96,)

    def test_load_pipelines_missing_root_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_pipelines(str(tmp_path / "nope"))


class TestEngineThreadSafety:
    """Concurrent `run` calls must match serial runs bit for bit.

    The engine serializes forwards on an internal lock because the
    buffer pool and traced plans are per-ensemble single-writer; this is
    the regression test keeping that contract honest (the serving daemon
    depends on it from many connection threads at once).
    """

    def test_concurrent_run_bit_identical_to_serial(self):
        import threading

        camal = _camal(n_models=2)
        shared = InferenceEngine(EngineConfig(window=32, stride=16, cache_size=16))
        shared.register("kettle", camal)
        serial = InferenceEngine(EngineConfig(window=32, stride=16, cache_size=0))
        serial.register("kettle", camal)

        n_threads = 8
        rng = np.random.default_rng(11)
        series = [
            (rng.random(96 + 16 * i).astype(np.float32) * 2000)
            for i in range(n_threads)
        ]
        expected = [serial.run(s).per_appliance["kettle"] for s in series]

        results = [None] * n_threads
        errors = []
        barrier = threading.Barrier(n_threads)

        def worker(i):
            try:
                barrier.wait()
                for _ in range(3):  # repeats exercise the shared LRU cache
                    results[i] = shared.run(series[i]).per_appliance["kettle"]
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((i, exc))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        for i in range(n_threads):
            assert results[i] is not None
            assert np.array_equal(results[i].soft_status, expected[i].soft_status)
            assert np.array_equal(results[i].status, expected[i].status)
