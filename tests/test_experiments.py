"""Tests for the experiment harness (presets, runner plumbing, analytics)."""

import os

import numpy as np
import pytest

import repro.experiments as ex
from repro import simdata as sd


class TestPresets:
    def test_registry(self):
        assert set(ex.PRESETS) == {"paper", "fast", "bench"}
        assert ex.get_preset("fast").name == "fast"

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            ex.get_preset("turbo")

    def test_paper_preset_faithful(self):
        p = ex.get_preset("paper")
        assert p.window == 510
        assert p.kernel_set == (5, 7, 9, 15, 25)
        assert p.n_trials == 3
        assert p.n_models == 5
        assert p.resnet_filters == (64, 128, 128)

    def test_scaled_override(self):
        p = ex.scaled(ex.get_preset("bench"), clf_epochs=1)
        assert p.clf_epochs == 1
        assert p.window == ex.get_preset("bench").window

    def test_ensemble_config_roundtrip(self):
        p = ex.get_preset("bench")
        cfg = p.ensemble_config(seed=7)
        assert cfg.kernel_set == p.kernel_set
        assert cfg.train.epochs == p.clf_epochs
        assert cfg.seed == 7

    def test_table3_cases_count(self):
        assert len(ex.TABLE3_CASES) == 11  # the paper's 11 rows


class TestRunnerPlumbing:
    @pytest.fixture(scope="class")
    def corpus(self):
        return ex.build_corpus("ukdale", ex.get_preset("bench"))

    def test_build_corpus_names(self):
        preset = ex.get_preset("bench")
        for name in ("ukdale", "refit", "edf_ev"):
            assert ex.build_corpus(name, preset).name == name
        with pytest.raises(KeyError):
            ex.build_corpus("dred", preset)

    def test_case_windows_splits_houses(self, corpus):
        case = ex.case_windows(corpus, "kettle", 64, split_seed=0)
        train_houses = set(case.train.house_id.split("+"))
        test_houses = set(case.test.house_id.split("+"))
        assert not train_houses & test_houses

    def test_case_spec(self, corpus):
        case = ex.case_windows(corpus, "kettle", 64)
        assert case.spec.avg_power_watts == 2000.0

    def test_evaluate_status_uses_clipping(self, corpus):
        case = ex.case_windows(corpus, "kettle", 64)
        ones = np.ones_like(case.test.strong)
        result = ex.evaluate_status("always-on", case, ones, 0.0, 0)
        # With everything predicted ON the recall is 1.
        assert result.recall == pytest.approx(1.0)
        assert result.method == "always-on"
        assert result.n_labels == 0


class TestComplexityTable:
    def test_rows_cover_all_models(self):
        result = ex.run_complexity_table()
        models = {r.model for r in result.rows}
        assert len(models) == 6
        for row in result.rows:
            assert row.relative_error < 0.10  # within 10% of Table II

    def test_render_contains_values(self):
        text = ex.run_complexity_table().render()
        assert "TransNILM" in text and "Table II" in text


class TestCostAnalysis:
    def test_ordering_matches_figure9(self):
        result = ex.run_cost_analysis(n_households=1000)
        dollars = [c.dollars_per_household for c in result.per_household]
        assert dollars[0] > dollars[1] > dollars[2]
        assert result.storage_ratio == pytest.approx(6.0, rel=0.01)

    def test_storage_curve_monotone(self):
        result = ex.run_cost_analysis()
        strong_tb = [s for _, s, _ in result.storage_curve]
        assert strong_tb == sorted(strong_tb)

    def test_render(self):
        assert "Fig. 9" in ex.run_cost_analysis().render()


class TestReporting:
    def test_render_table_alignment(self):
        text = ex.render_table(["a", "bb"], [[1, 2.5], ["x", float("nan")]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "-" in lines[1]
        assert "-" in lines[3].split("|")[1]  # NaN renders as dash

    def test_render_table_row_mismatch(self):
        with pytest.raises(ValueError):
            ex.render_table(["a"], [[1, 2]])

    def test_render_series(self):
        text = ex.render_series("curve", [1, 2], [0.5, 0.25])
        assert "(1, 0.500)" in text

    def test_render_dict(self):
        text = ex.render_dict("title", {"key": 1.0})
        assert "title" in text and "key" in text


class TestWhiteNoiseWorkload:
    def test_shapes_match_paper_protocol(self):
        x, s = ex.white_noise_households(3, series_length=17_520)
        assert x.shape == (3, 17_520)
        assert s.shape == (3, 17_520)
        assert set(np.unique(s)) <= {0.0, 1.0}

    def test_deterministic(self):
        x1, _ = ex.white_noise_households(2, 100, seed=5)
        x2, _ = ex.white_noise_households(2, 100, seed=5)
        assert np.array_equal(x1, x2)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
class TestThroughputIsSingleCpu:
    def test_every_call_runs_confined_to_one_cpu(self, monkeypatch):
        """Fig. 7c is single-CPU: the tracing call and the timed ones all see
        one CPU, so CamAL's plans trace with one lane; the affinity comes back
        afterwards."""
        from repro import nn
        from repro.experiments import scalability

        before = os.sched_getaffinity(0)
        seen = []

        def fake_call(method, preset, seed):
            return lambda x: seen.append((len(os.sched_getaffinity(0)), nn.plan.plan_lanes()))

        monkeypatch.setattr(scalability, "_inference_call", fake_call)
        result = ex.run_throughput(ex.get_preset("bench"), [16], methods=["CamAL"], n_windows=2)
        assert len(seen) == 1 + scalability._THROUGHPUT_REPEATS
        assert set(seen) == {(1, 1)}
        assert os.sched_getaffinity(0) == before
        assert [length for length, _ in result.series["CamAL"]] == [16]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
class TestTrainingTimesAreSingleCpu:
    def test_every_method_trains_confined_to_one_cpu(self, monkeypatch):
        """Fig. 7a compares methods on one CPU each: CamAL's Algorithm 1
        sees one lane; the affinity comes back afterwards."""
        import types

        from repro import nn
        from repro.experiments import scalability

        before = os.sched_getaffinity(0)
        seen = []

        def fake_run_model(method, case, preset, seed):
            seen.append((method, len(os.sched_getaffinity(0)), nn.plan.plan_lanes()))
            return types.SimpleNamespace(train_seconds=1.0)

        monkeypatch.setattr(scalability, "build_corpus", lambda *args: None)
        monkeypatch.setattr(scalability, "case_windows", lambda *args, **kwargs: None)
        monkeypatch.setattr(scalability, "run_model", fake_run_model)
        result = ex.run_training_times(
            ex.get_preset("bench"), [("ukdale", "kettle")], methods=["CamAL", "TPNILM"]
        )
        assert seen == [("CamAL", 1, 1), ("TPNILM", 1, 1)]
        assert os.sched_getaffinity(0) == before
        assert result.seconds_per_method == {"CamAL": 1.0, "TPNILM": 1.0}
