"""End-to-end integration tests: full pipelines at miniature scale.

These train real models on simulated corpora; each is kept tiny so the
whole module runs in about a minute.
"""

import numpy as np
import pytest

import repro.experiments as ex
from repro import simdata as sd
from repro.experiments import scaled
from repro.metrics import f1_score


@pytest.fixture(scope="module")
def preset():
    # Even smaller than "bench" to keep integration tests quick.
    return scaled(
        ex.get_preset("bench"),
        corpus_days={"ukdale": 4.0, "refit": 2.0, "ideal": 2.0, "edf_ev": 20.0, "edf_weak": 15.0},
        seq2seq_epochs=4,
    )


@pytest.fixture(scope="module")
def kettle_case(preset):
    corpus = ex.build_corpus("ukdale", preset)
    return ex.case_windows(corpus, "kettle", preset.window, split_seed=0)


class TestCamALEndToEnd:
    def test_trains_and_localizes_above_chance(self, kettle_case, preset):
        result, camal = ex.run_camal(kettle_case, preset, seed=0)
        assert result.f1 > 0.3  # chance level for ~1% duty cycle is ~0.02
        assert result.balanced_accuracy > 0.7
        assert result.n_labels == len(kettle_case.train.weak)
        assert result.train_seconds > 0

    def test_energy_metrics_populated(self, kettle_case, preset):
        result, _ = ex.run_camal(kettle_case, preset, seed=1)
        assert np.isfinite(result.mae_watts)
        assert np.isfinite(result.rmse_watts)
        assert 0.0 <= result.matching_ratio <= 1.0

    def test_power_gate_improves_precision(self, kettle_case, preset):
        gated, _ = ex.run_camal(kettle_case, preset, seed=0, power_gate=True)
        literal, _ = ex.run_camal(kettle_case, preset, seed=0, power_gate=False)
        assert gated.precision >= literal.precision

    def test_localization_output_consistency(self, kettle_case, preset):
        _, camal = ex.run_camal(kettle_case, preset, seed=0)
        out = camal.localize(kettle_case.test.inputs)
        # Detection probability gates localization: undetected -> all zero.
        undetected = out.detected == 0
        assert out.status[undetected].sum() == 0
        # Soft scores bounded.
        assert np.all((out.soft_status >= 0) & (out.soft_status <= 1))


class TestBaselinesEndToEnd:
    @pytest.mark.parametrize("name", ["TPNILM", "CRNN-weak"])
    def test_baseline_runs_and_scores(self, kettle_case, preset, name):
        result = ex.run_model(name, kettle_case, preset, seed=0)
        assert 0.0 <= result.f1 <= 1.0
        expected_labels = (
            len(kettle_case.train.weak)
            if name == "CRNN-weak"
            else kettle_case.train.strong.size
        )
        assert result.n_labels == expected_labels

    def test_strong_labels_count_is_w_per_window(self, kettle_case, preset):
        result = ex.run_model("UNet-NILM", kettle_case, preset, seed=0)
        assert result.n_labels == len(kettle_case.train) * preset.window


class TestWeakTableEndToEnd:
    def test_camal_beats_crnn_weak_on_average(self, preset):
        table = ex.run_weak_table(preset, cases=[("ukdale", "kettle")], seed=0)
        avg = table.averages()
        assert avg["CamAL"]["F1"] > avg["CRNN-weak"]["F1"]
        text = table.render()
        assert "kettle" in text

    def test_result_rows_aligned(self, preset):
        table = ex.run_weak_table(preset, cases=[("ukdale", "dishwasher")], seed=0)
        assert len(table.camal) == len(table.crnn_weak) == 1
        assert table.camal[0].appliance == table.crnn_weak[0].appliance


class TestLabelSweepEndToEnd:
    def test_curves_and_factors(self, preset):
        sweep = ex.run_label_sweep(
            "ukdale", "kettle", preset, methods=["CamAL", "TPNILM"], n_points=2, seed=0
        )
        assert set(sweep.curves) == {"CamAL", "TPNILM"}
        camal_curve = sweep.curves["CamAL"]
        tp_curve = sweep.curves["TPNILM"]
        # Strong supervision consumes w labels per window.
        assert tp_curve[0].n_labels == camal_curve[0].n_labels * preset.window
        factors = sweep.label_factor_to_match_camal()
        assert "TPNILM" in factors


class TestPossessionEndToEnd:
    def test_ev_possession_pipeline(self, preset):
        weak_corpus = ex.build_corpus("edf_weak", preset)
        ev_corpus = ex.build_corpus("edf_ev", preset)
        result = ex.run_possession_pipeline(
            weak_corpus, ev_corpus, "electric_vehicle", preset,
            window_candidates=(preset.window,), seed=0,
        )
        assert result.localization.f1 > 0.3
        assert result.localization.n_labels < 50  # households, not windows!
        assert result.camal is not None

    def test_soft_label_augmentation(self, preset):
        weak_corpus = ex.build_corpus("edf_weak", preset)
        ev_corpus = ex.build_corpus("edf_ev", preset)
        poss = ex.run_possession_pipeline(
            weak_corpus, ev_corpus, "electric_vehicle", preset,
            window_candidates=(preset.window,), seed=0,
        )
        fig10 = ex.run_figure10(
            poss.camal, ev_corpus, preset, methods=["TPNILM"], mixes=((0, 4), (2, 2)),
        )
        points = fig10.curves[0].points
        assert len(points) == 2
        assert all(np.isfinite(p[2]) for p in points)


class TestAblationsEndToEnd:
    def test_attention_ablation_direction(self, preset):
        result = ex.run_design_ablation(
            preset, corpus_name="ukdale", appliances=["kettle"], seed=0
        )
        by_name = {r.variant: r for r in result.rows}
        assert by_name["CamAL"].f1 >= by_name["w/o Attention module"].f1 - 0.05

    def test_ensemble_size_sweep(self, preset):
        result = ex.run_ensemble_size(
            preset, corpus_name="ukdale", appliances=["kettle"], sizes=(1, 2), seed=0
        )
        assert len(result.points) == 2
        assert all(0 <= f1 <= 1 for _, f1, _ in result.points)

    def test_window_length_sweep(self, preset):
        result = ex.run_window_length(
            "ukdale", "kettle", preset, train_windows=(32, 64), seed=0
        )
        assert len(result.points) == 2


class TestScalabilityEndToEnd:
    def test_throughput_measures_all_methods(self, preset):
        result = ex.run_throughput(
            preset, input_lengths=(64,), methods=["CamAL", "TPNILM"], n_windows=4
        )
        assert result.series["CamAL"][0][1] > 0
        assert result.series["TPNILM"][0][1] > 0

    def test_epoch_times_scale_with_households(self, preset):
        result = ex.run_epoch_times(
            preset,
            household_counts=(1, 2),
            methods=["TPNILM"],
            series_length=preset.window * 4,
            seed=0,
        )
        points = result.series["TPNILM"]
        assert len(points) == 2
        assert points[1][1] > 0
