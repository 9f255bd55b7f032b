"""Tests for the command-line interface."""

import pytest

from repro.cli import (
    COMMANDS,
    build_data_parser,
    build_parser,
    build_serve_parser,
    build_train_parser,
    main,
)
from repro.serving import ServeConfig


class TestParser:
    def test_known_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["table2"])
        assert args.experiment == "table2"
        assert args.preset == "bench"

    def test_all_subcommand_accepted(self):
        args = build_parser().parse_args(["all", "--preset", "fast"])
        assert args.experiment == "all"
        assert args.preset == "fast"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--preset", "huge"])

    def test_seed_parsed(self):
        args = build_parser().parse_args(["fig9", "--seed", "7"])
        assert args.seed == 7

    def test_commands_cover_all_tables_and_figures(self):
        expected = {
            "table2", "table3", "table4",
            "fig5", "fig6a", "fig6b", "fig6c", "fig7", "fig8", "fig9", "fig10",
            "report",
        }
        assert set(COMMANDS) == expected


class TestTrainParser:
    def test_defaults(self):
        args = build_train_parser().parse_args([])
        assert args.corpus == "ukdale"
        assert args.appliance == "kettle"
        assert args.workers == 1
        assert args.scheduler == "none"
        assert args.checkpoint_dir is None
        assert args.out is None
        assert not args.no_resume
        assert not args.progress

    def test_all_flags_parsed(self):
        args = build_train_parser().parse_args(
            [
                "--corpus", "refit", "--appliance", "dishwasher",
                "--preset", "fast", "--seed", "3", "--workers", "4",
                "--epochs", "7", "--scheduler", "warmup_cosine",
                "--warmup-epochs", "2", "--checkpoint-dir", "ckpts",
                "--no-resume", "--out", "models/dw", "--progress",
            ]
        )
        assert args.corpus == "refit"
        assert args.appliance == "dishwasher"
        assert args.preset == "fast"
        assert args.seed == 3
        assert args.workers == 4
        assert args.epochs == 7
        assert args.scheduler == "warmup_cosine"
        assert args.warmup_epochs == 2
        assert args.checkpoint_dir == "ckpts"
        assert args.no_resume
        assert args.out == "models/dw"
        assert args.progress

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            build_train_parser().parse_args(["--scheduler", "linear"])

    def test_train_not_in_experiment_commands(self):
        """'train' routes through its own parser, not the experiment table."""
        assert "train" not in COMMANDS
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train"])

    def test_model_spec_parsed(self):
        args = build_train_parser().parse_args(["--model", "crnn@small"])
        assert args.model == "crnn@small"
        args = build_parser().parse_args(["report", "--model", "tpnilm@tiny"])
        assert args.model == "tpnilm@tiny"


class TestModelsCommand:
    def test_models_lists_every_registered_estimator(self, capsys):
        from repro import api

        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in api.available_models():
            assert name in out
        assert "Supervision" in out
        assert "paper/small/tiny" in out

    def test_models_not_in_experiment_commands(self):
        assert "models" not in COMMANDS


class TestServeParser:
    def test_defaults_are_serve_config_defaults(self):
        """The flags are the daemon's only settings source, so bare
        ``repro serve`` must serve with ``ServeConfig()``."""
        args = build_serve_parser().parse_args(["--demo"])
        defaults = ServeConfig()
        assert args.host == defaults.host
        assert args.port == defaults.port
        assert args.max_batch == defaults.max_batch_windows
        assert args.max_wait_us == defaults.max_wait_us
        assert args.queue_depth == defaults.queue_depth
        assert (not args.no_coalesce) == defaults.coalesce
        assert (not args.no_warm) == defaults.warm_start


class TestDataParser:
    def test_ingest_flags_parsed(self):
        args = build_data_parser().parse_args(
            [
                "ingest", "--corpus", "refit", "--out", "stores/refit",
                "--days", "3.5", "--houses", "6", "--seed", "2",
                "--resample", "2", "--max-ffill", "5", "--shard-length", "4096",
                "--workers", "3", "--drop-tail",
            ]
        )
        assert args.action == "ingest"
        assert args.corpus == "refit"
        assert args.out == "stores/refit"
        assert args.days == 3.5
        assert args.houses == 6
        assert args.resample == 2
        assert args.max_ffill == 5
        assert args.shard_length == 4096
        assert args.workers == 3
        assert args.drop_tail

    def test_ingest_requires_one_source(self):
        with pytest.raises(SystemExit):
            build_data_parser().parse_args(["ingest", "--out", "x"])
        with pytest.raises(SystemExit):
            build_data_parser().parse_args(
                ["ingest", "--corpus", "ukdale", "--csv", "d", "--out", "x"]
            )

    def test_info_and_windows_parsed(self):
        args = build_data_parser().parse_args(["info", "stores/ukdale"])
        assert args.action == "info" and args.store == "stores/ukdale"
        args = build_data_parser().parse_args(
            ["windows", "stores/ukdale", "--appliance", "kettle", "--window", "64"]
        )
        assert args.action == "windows"
        assert args.appliance == "kettle"
        assert args.window == 64

    def test_unknown_corpus_rejected(self):
        with pytest.raises(SystemExit):
            build_data_parser().parse_args(
                ["ingest", "--corpus", "nope", "--out", "x"]
            )

    def test_data_not_in_experiment_commands(self):
        assert "data" not in COMMANDS
        with pytest.raises(SystemExit):
            build_parser().parse_args(["data"])


class TestDataExecution:
    def test_ingest_info_windows_end_to_end(self, capsys, tmp_path):
        """`repro data` builds a store that info/windows can read back."""
        store_dir = str(tmp_path / "store")
        argv = [
            "data", "ingest", "--corpus", "ukdale", "--days", "1",
            "--houses", "3", "--out", store_dir, "--shard-length", "512",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Ingested 'ukdale'" in out
        assert "samples/s" in out

        assert main(["data", "info", store_dir]) == 0
        out = capsys.readouterr().out
        assert "Store 'ukdale'" in out
        assert "ukdale_h1" in out
        assert "preprocessing" in out

        argv = ["data", "windows", store_dir, "--appliance", "kettle", "--window", "64"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Streamable windows" in out
        assert "pooled:" in out

        from repro.data import MeterStore

        store = MeterStore(store_dir)
        assert len(store) == 3
        assert store.shard_length == 512

    def test_csv_ingest_requires_dt_and_ffill(self, tmp_path):
        (tmp_path / "csv" / "h1").mkdir(parents=True)
        (tmp_path / "csv" / "h1" / "aggregate.csv").write_text("1.0\n2.0\n")
        with pytest.raises(SystemExit, match="--dt-seconds"):
            main(["data", "ingest", "--csv", str(tmp_path / "csv"),
                  "--out", str(tmp_path / "s")])


class TestExecution:
    def test_fig9_runs_fast(self, capsys):
        """fig9 is analytic (no training) so it can run in the test suite."""
        assert main(["fig9"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 9" in out
        assert "strong/weak storage ratio" in out

    def test_table2_runs_fast(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "TransNILM" in out

    def test_train_end_to_end(self, capsys, tmp_path):
        """`repro train` trains, checkpoints and persists a loadable pipeline."""
        import os

        argv = [
            "train", "--preset", "bench", "--epochs", "1",
            "--checkpoint-dir", str(tmp_path / "ckpts"),
            "--out", str(tmp_path / "pipeline"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Trained camal for kettle on ukdale" in out
        assert "pipeline saved to" in out
        assert os.path.exists(tmp_path / "pipeline" / "manifest.json")
        assert len(list((tmp_path / "ckpts").iterdir())) > 0

        from repro.api import CamALLocalizer, load_estimator

        estimator = load_estimator(str(tmp_path / "pipeline"))
        assert isinstance(estimator, CamALLocalizer)
        assert len(estimator.pipeline.ensemble) >= 1
