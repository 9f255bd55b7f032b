"""Tests for :mod:`repro.data`: the sharded meter store, the ingestors,
the streaming window pipeline, and the serving bulk path built on it.

The load-bearing contracts:

* an ingested store round-trips **bit-identically** against the in-memory
  preprocessing of the same corpus;
* :class:`StreamingWindows` produces arrays bit-identical to
  ``concat_window_sets(house_windows(...))``, so training on the store
  reproduces the in-memory run's final weights;
* :meth:`InferenceEngine.score_store` matches :meth:`InferenceEngine.run`
  on every household;
* NaN gaps longer than the fill bound never reach a loss value.
"""

import json
import os

import numpy as np
import pytest

import repro.experiments as ex
from repro import simdata as sd
from repro.core import CamAL, EnsembleConfig, ResNetConfig, ResNetEnsemble, ResNetTSC, train_ensemble
from repro.data import (
    AGGREGATE_CHANNEL,
    STORE_FORMAT_VERSION,
    IngestConfig,
    MeterStore,
    StreamingWindows,
    ingest_corpus,
    ingest_csv_dir,
)
from repro.nn.data import DataLoader
from repro.serving import EngineConfig, InferenceEngine
from repro.training import TrainConfig, state_dicts_equal, train_classifier

WINDOW = 128
SHARD = 1000  # deliberately misaligned with WINDOW to exercise boundary reads


@pytest.fixture(scope="module")
def corpus():
    # 5 houses: the minimum the fixed UK-DALE house split supports.
    return sd.ukdale_like(days=1.5, n_houses=5, seed=0)


@pytest.fixture(scope="module")
def store(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("store")
    return ingest_corpus(corpus, str(out), IngestConfig(shard_length=SHARD))


def _in_memory_pool(corpus, appliance, house_ids, window=WINDOW):
    return sd.concat_window_sets(
        [ex.house_windows(corpus, appliance, hid, window) for hid in house_ids]
    )


class TestShardFormat:
    def test_layout_and_memmap(self, store, corpus):
        house = corpus.house_ids[0]
        meta = store.house_meta(house)
        assert meta.channels[0] == AGGREGATE_CHANNEL
        assert meta.n_shards == -(-meta.n_samples // SHARD)
        shard = store.shard(house, 0)
        assert isinstance(shard, np.memmap)
        assert shard.shape == (len(meta.channels) + 1, SHARD)
        assert shard.dtype == np.dtype("<f4")

    def test_mask_row_padding_zero(self, store, corpus):
        """Tail padding of the final shard is masked out and zero-valued."""
        house = corpus.house_ids[0]
        meta = store.house_meta(house)
        tail = meta.n_samples - (meta.n_shards - 1) * SHARD
        last = store.shard(house, meta.n_shards - 1)
        assert not last[meta.mask_row, tail:].any()
        assert not last[:, tail:].any()

    def test_manifest_written_last(self, corpus, tmp_path):
        store = ingest_corpus(corpus, str(tmp_path / "s"), IngestConfig(shard_length=SHARD))
        with open(os.path.join(store.path, "manifest.json")) as handle:
            manifest = json.load(handle)
        assert manifest["format"] == STORE_FORMAT_VERSION == 2
        assert manifest["preprocessing"]["source"] == "corpus:ukdale"
        for hid, entry in manifest["households"].items():
            for k in range(entry["n_shards"]):
                assert os.path.exists(store.shard_path(hid, k))

    def test_open_non_store_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not a meter store"):
            MeterStore(str(tmp_path))

    def test_unsupported_format_raises(self, store, tmp_path):
        bad = dict(store.manifest, format=99)
        (tmp_path / "manifest.json").write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="unsupported store format"):
            MeterStore(str(tmp_path))

    def test_unknown_channel_and_ranges(self, store, corpus):
        house = corpus.house_ids[0]
        with pytest.raises(KeyError, match="no channel"):
            store.read_channel(house, "toaster")
        with pytest.raises(IndexError):
            store.read_channel(house, AGGREGATE_CHANNEL, 0, store.n_samples(house) + 1)
        with pytest.raises(IndexError):
            store.shard(house, 99)
        with pytest.raises(KeyError, match="no house"):
            store.n_samples("nope")

    def test_empty_range_reads(self, store, corpus):
        """Empty ranges are empty arrays — including at exact shard
        boundaries and at the end of the series."""
        house = corpus.house_ids[0]
        for pos in (0, SHARD, store.n_samples(house)):
            got = store.read_channel(house, AGGREGATE_CHANNEL, pos, pos)
            assert got.shape == (0,) and got.dtype == np.float32

    def test_empty_range_at_shard_aligned_series_end(self, corpus, tmp_path):
        """Regression: [n, n) must not probe a shard past the last when
        the series length is an exact multiple of the shard length."""
        house = corpus.houses[0]
        store = ingest_corpus(
            corpus, str(tmp_path / "s"),
            IngestConfig(shard_length=house.n_samples // 2),
        )
        got = store.read_channel(
            house.house_id, AGGREGATE_CHANNEL, house.n_samples, house.n_samples
        )
        assert got.shape == (0,)

    def test_cross_shard_read_matches_full(self, store, corpus):
        house = corpus.house_ids[0]
        full = store.read_channel(house, AGGREGATE_CHANNEL)
        lo, hi = SHARD - 7, SHARD + 13  # straddles the first boundary
        assert np.array_equal(full[lo:hi], store.read_channel(house, AGGREGATE_CHANNEL, lo, hi))

    def test_in_shard_read_is_zero_copy(self, store, corpus):
        view = store.read_channel(corpus.house_ids[0], AGGREGATE_CHANNEL, 10, 20)
        base = view
        while isinstance(base, np.ndarray) and base.base is not None:
            base = base.base
        import mmap

        assert isinstance(base, (np.memmap, mmap.mmap))


class TestRoundTrip:
    def test_aggregate_bit_identical(self, store, corpus):
        """ingest -> read == in-memory preprocessing, including NaN gaps."""
        for house in corpus.houses:
            expected = sd.forward_fill(house.aggregate, corpus.max_ffill_samples)
            got = store.aggregate(house.house_id)
            assert got.dtype == np.float32
            assert np.array_equal(expected, got, equal_nan=True)

    def test_power_channels_round_trip(self, store, corpus):
        """Submeter channels round-trip in full — aggregate gaps do not
        discard ground-truth readings."""
        for house in corpus.houses:
            for name, series in house.appliance_power.items():
                got = store.read_channel(house.house_id, name)
                assert np.array_equal(np.nan_to_num(series, nan=0.0), got)

    def test_possession_and_split_compatibility(self, store, corpus):
        assert store.possession_labels("kettle") == corpus.possession_labels("kettle")
        assert store.submetered_house_ids == corpus.submetered_house_ids
        assert sd.split_houses(store, seed=3) == sd.split_houses(corpus, seed=3)

    def test_metadata(self, store, corpus):
        assert store.name == corpus.name
        assert store.dt_seconds == corpus.dt_seconds
        assert store.target_appliances == corpus.target_appliances
        assert store.house_ids == corpus.house_ids
        assert store.total_samples() == sum(h.n_samples for h in corpus.houses)

    def test_resampled_ingest_matches_manual_chain(self, corpus, tmp_path):
        factor = 3
        store = ingest_corpus(
            corpus, str(tmp_path / "s"),
            IngestConfig(shard_length=SHARD, resample_factor=factor),
        )
        house = corpus.houses[0]
        manual = sd.forward_fill(
            sd.resample_average(house.aggregate, factor, keep_tail=True),
            corpus.max_ffill_samples,
        )
        assert np.array_equal(manual, store.aggregate(house.house_id), equal_nan=True)
        assert store.dt_seconds == corpus.dt_seconds * factor
        assert store.preprocessing["resample_factor"] == factor
        # keep_tail: no recorded sample is lost to the resample grid.
        assert store.n_samples(house.house_id) == -(-house.n_samples // factor)

    def test_parallel_ingest_byte_identical(self, corpus, tmp_path):
        serial = ingest_corpus(corpus, str(tmp_path / "a"), IngestConfig(shard_length=SHARD))
        parallel = ingest_corpus(
            corpus, str(tmp_path / "b"), IngestConfig(shard_length=SHARD, n_workers=2)
        )
        assert serial.manifest["households"] == parallel.manifest["households"]
        for hid, meta in serial.households.items():
            for k in range(meta.n_shards):
                with open(serial.shard_path(hid, k), "rb") as fa, open(
                    parallel.shard_path(hid, k), "rb"
                ) as fb:
                    assert fa.read() == fb.read()

    def test_invalid_worker_count(self, corpus, tmp_path):
        with pytest.raises(ValueError, match="n_workers"):
            ingest_corpus(corpus, str(tmp_path / "s"), IngestConfig(n_workers=0))


class TestCSVIngest:
    def _write_csv_layout(self, root):
        h1 = root / "house_1"
        h1.mkdir(parents=True)
        # timestamp,value rows with a header and a NaN gap
        (h1 / "aggregate.csv").write_text(
            "timestamp,power\n"
            + "\n".join(f"{i},{100.0 + i}" for i in range(5))
            + "\n5,\n6,nan\n7,207.0\n"
        )
        (h1 / "kettle.csv").write_text("\n".join(["0.0"] * 6 + ["2000.0", "0.0"]))
        (h1 / "possession.json").write_text('{"kettle": true, "dishwasher": false}')
        h2 = root / "house_2"
        h2.mkdir()
        (h2 / "aggregate.csv").write_text("\n".join(str(50.0 + i) for i in range(8)))
        return root

    def test_csv_round_trip(self, tmp_path):
        src = self._write_csv_layout(tmp_path / "csv")
        store = ingest_csv_dir(
            str(src), str(tmp_path / "store"), dt_seconds=60.0, max_ffill_samples=2,
            config=IngestConfig(shard_length=4),
        )
        assert store.house_ids == ["house_1", "house_2"]
        agg = store.aggregate("house_1")
        # the 2-sample gap at positions 5-6 is inside the fill budget
        assert np.allclose(agg, [100, 101, 102, 103, 104, 104, 104, 207])
        assert np.array_equal(store.read_channel("house_1", "kettle")[6:], [2000.0, 0.0])
        assert store.possession_labels("kettle") == {"house_1": True, "house_2": False}
        assert store.possession_labels("dishwasher") == {"house_1": False, "house_2": False}
        assert store.submetered_house_ids == ["house_1"]
        assert store.target_appliances == ["kettle"]
        assert store.preprocessing["source"].startswith("csv:")

    def test_missing_aggregate_raises(self, tmp_path):
        (tmp_path / "csv" / "house_1").mkdir(parents=True)
        (tmp_path / "csv" / "house_1" / "kettle.csv").write_text("1.0\n")
        with pytest.raises(FileNotFoundError, match="aggregate.csv"):
            ingest_csv_dir(str(tmp_path / "csv"), str(tmp_path / "s"), 60.0, 2)

    def test_bad_value_raises(self, tmp_path):
        house = tmp_path / "csv" / "house_1"
        house.mkdir(parents=True)
        (house / "aggregate.csv").write_text("power\n1.0\nbogus\n")
        with pytest.raises(ValueError, match="not a number"):
            ingest_csv_dir(str(tmp_path / "csv"), str(tmp_path / "s"), 60.0, 2)

    def test_empty_dir_raises(self, tmp_path):
        (tmp_path / "csv").mkdir()
        with pytest.raises(ValueError, match="no household sub-directories"):
            ingest_csv_dir(str(tmp_path / "csv"), str(tmp_path / "s"), 60.0, 2)


class TestStreamingWindows:
    def test_bit_identical_to_in_memory_pool(self, store, corpus):
        for appliance in ("kettle", "dishwasher"):
            streamed = StreamingWindows(store, appliance, window=WINDOW)
            pooled = _in_memory_pool(corpus, appliance, corpus.house_ids)
            assert len(streamed) == len(pooled)
            assert np.array_equal(streamed.inputs, pooled.inputs)
            assert np.array_equal(streamed.strong, pooled.strong)
            assert np.array_equal(streamed.weak, pooled.weak)
            assert np.array_equal(streamed.aggregate_watts, pooled.aggregate_watts)
            assert np.array_equal(streamed.power_watts, pooled.power_watts)
            assert streamed.house_id == pooled.house_id

    def test_getitem_matches_materialized(self, store):
        ws = StreamingWindows(store, "kettle", window=WINDOW)
        for i in (0, len(ws) // 2, len(ws) - 1):
            x, strong, weak = ws[i]
            assert np.array_equal(x, ws.inputs[i])
            assert np.array_equal(strong, ws.strong[i])
            assert weak == ws.weak[i]

    def test_dataloader_batches(self, store):
        ws = StreamingWindows(store, "kettle", window=WINDOW)
        loader = DataLoader(ws, batch_size=8, shuffle=True, seed=0)
        x, strong, weak = next(iter(loader))
        assert x.shape == (8, WINDOW) and x.dtype == np.float32
        assert strong.shape == (8, WINDOW)
        assert weak.shape == (8,)
        total = sum(len(batch[0]) for batch in DataLoader(ws, batch_size=8))
        assert total == len(ws)

    def test_raw_window_zero_copy(self, store):
        import mmap

        ws = StreamingWindows(store, "kettle", window=WINDOW)
        base = ws.raw_window(0)
        while isinstance(base, np.ndarray) and base.base is not None:
            base = base.base
        assert isinstance(base, (np.memmap, mmap.mmap))

    def test_shuffled_indices_deterministic(self, store):
        ws = StreamingWindows(store, "kettle", window=WINDOW)
        a, b = ws.shuffled_indices(7), ws.shuffled_indices(7)
        assert np.array_equal(a, b)
        assert sorted(a) == list(range(len(ws)))
        assert not np.array_equal(a, ws.shuffled_indices(8))

    def test_house_subset_and_order(self, store, corpus):
        ids = [corpus.house_ids[1], corpus.house_ids[0]]
        streamed = StreamingWindows(store, "kettle", house_ids=ids, window=WINDOW)
        pooled = _in_memory_pool(corpus, "kettle", ids)
        assert np.array_equal(streamed.inputs, pooled.inputs)
        assert streamed.window_house(0) == ids[0]

    def test_unsubmetered_appliance_all_off(self, store, corpus):
        """No submeter channel -> zero labels, like the in-memory path."""
        assert all("shower" not in h.appliance_power for h in corpus.houses)
        ws = StreamingWindows(store, "shower", window=WINDOW)
        assert len(ws) > 0
        assert ws.weak.sum() == 0
        assert ws.strong.sum() == 0
        pooled = _in_memory_pool(corpus, "shower", corpus.house_ids)
        assert np.array_equal(ws.strong, pooled.strong)

    def test_label_counts(self, store):
        ws = StreamingWindows(store, "kettle", window=WINDOW)
        assert ws.n_weak_labels == len(ws)
        assert ws.n_strong_labels == len(ws) * WINDOW

    def test_index_errors_and_validation(self, store):
        ws = StreamingWindows(store, "kettle", window=WINDOW)
        with pytest.raises(IndexError):
            ws[len(ws)]
        assert np.array_equal(ws[-1][0], ws[len(ws) - 1][0])
        with pytest.raises(ValueError, match="window must be positive"):
            StreamingWindows(store, "kettle", window=0)


class TestCaseAndTraining:
    def test_case_from_store_bit_identical(self, store, corpus):
        case = ex.case_windows(corpus, "kettle", WINDOW, split_seed=0)
        scase = ex.case_windows_from_store(store, "kettle", WINDOW, split_seed=0)
        assert scase.corpus == case.corpus
        for split in ("train", "val", "test"):
            mem, streamed = getattr(case, split), getattr(scase, split)
            assert np.array_equal(mem.inputs, streamed.inputs)
            assert np.array_equal(mem.strong, streamed.strong)
            assert np.array_equal(mem.weak, streamed.weak)

    def test_labels_for_routes_on_streaming_windows(self, store):
        from repro import api

        scase = ex.case_windows_from_store(store, "kettle", WINDOW, split_seed=0)
        weak_est = api.create("camal", scale="tiny")
        strong_est = api.create("tpnilm", scale="tiny")
        assert weak_est.labels_for(scase.train).shape == (len(scase.train),)
        assert strong_est.labels_for(scase.train).shape == (len(scase.train), WINDOW)

    def test_train_ensemble_reproduces_in_memory_weights(self, store, corpus):
        """Acceptance: training from the store == training in memory."""
        case = ex.case_windows(corpus, "kettle", WINDOW, split_seed=0)
        scase = ex.case_windows_from_store(store, "kettle", WINDOW, split_seed=0)
        config = EnsembleConfig(
            kernel_set=(3,), n_trials=1, n_models=1, filters=(4, 8, 8),
            train=TrainConfig(epochs=2, batch_size=16, patience=0), seed=0,
        )
        mem_ens, _ = train_ensemble(
            case.train.inputs, case.train.weak, case.val.inputs, case.val.weak, config
        )
        store_ens, _ = train_ensemble(
            scase.train.inputs, scase.train.weak, scase.val.inputs, scase.val.weak, config
        )
        assert all(
            state_dicts_equal(a.state_dict(), b.state_dict())
            for a, b in zip(mem_ens.models, store_ens.models)
        )


def _tiny_camal(gate=None):
    models = [
        ResNetTSC(ResNetConfig(kernel_size=k, filters=(4, 8, 8), seed=k)) for k in (3, 5)
    ]
    return CamAL(ResNetEnsemble(models).eval(), power_gate_watts=gate)


class TestScoreStore:
    @pytest.mark.parametrize("stride,cache", [(None, 0), (64, 0), (64, 256), (100, 0)])
    def test_matches_run_on_every_household(self, store, stride, cache):
        def build():
            engine = InferenceEngine(
                EngineConfig(window=WINDOW, stride=stride, batch_size=32, cache_size=cache)
            )
            engine.register("kettle", _tiny_camal(gate=100.0))
            return engine

        streamed = dict(build().score_store(store))
        assert list(streamed) == store.house_ids
        engine = build()
        for hid in store.house_ids:
            series = store.read_channel(hid, AGGREGATE_CHANNEL)  # gaps read as 0 W
            ref = engine.run(np.asarray(series)).per_appliance["kettle"]
            got = streamed[hid].per_appliance["kettle"]
            assert np.array_equal(ref.soft_status, got.soft_status)
            assert np.array_equal(ref.status, got.status)
            assert int(ref.windows.detected.sum()) == got.n_detected
            assert got.n_windows == streamed[hid].plan.n_windows

    def test_explicit_chunking_matches(self, store):
        # Chunked == run at any chunk size is a contract in test_contracts.py.
        engine = InferenceEngine(EngineConfig(window=WINDOW, stride=64, batch_size=16))
        engine.register("kettle", _tiny_camal())
        with pytest.raises(ValueError, match="chunk_windows"):
            next(engine.score_store(store, chunk_windows=0))

    def test_unknown_appliance_raises(self, store):
        engine = InferenceEngine(EngineConfig(window=WINDOW))
        engine.register("kettle", _tiny_camal())
        with pytest.raises(KeyError, match="no pipeline registered"):
            next(engine.score_store(store, appliances=["toaster"]))

    def test_result_surface(self, store):
        engine = InferenceEngine(EngineConfig(window=WINDOW, cache_size=128))
        engine.register("kettle", _tiny_camal())
        hid, scores = next(iter(engine.score_store(store)))
        assert scores.house_id == hid
        assert scores.n_samples == store.n_samples(hid)
        appliances = dict(scores)
        assert set(appliances) == {"kettle"}
        result = appliances["kettle"]
        assert 0.0 <= result.detection_rate <= 1.0
        assert result.status.shape == (scores.n_samples,)
        # Second pass over the same household is served from the cache.
        _, again = next(iter(engine.score_store(store)))
        assert again.per_appliance["kettle"].cache_hits > 0


class TestNaNEndToEnd:
    """Satellite: gaps longer than the fill bound never reach a loss."""

    @pytest.fixture()
    def gappy_store(self, tmp_path):
        corpus = sd.ukdale_like(days=1.0, n_houses=5, seed=1)
        rng = np.random.default_rng(0)
        for house in corpus.houses:
            # NaN runs far beyond the 3-sample fill budget.
            for _ in range(4):
                start = int(rng.integers(0, house.n_samples - 60))
                house.aggregate[start : start + 50] = np.nan
        store = ingest_corpus(corpus, str(tmp_path / "s"), IngestConfig(shard_length=SHARD))
        return corpus, store

    def test_long_gaps_survive_as_mask_zeros(self, gappy_store):
        corpus, store = gappy_store
        for house in corpus.houses:
            stored = store.aggregate(house.house_id)
            assert np.isnan(stored).any()  # the long runs were not filled
            assert not store.read_mask(house.house_id).all()

    def test_submeter_readings_survive_aggregate_gaps(self, gappy_store):
        """An aggregate dropout must not blank the submeter ground truth."""
        corpus, store = gappy_store
        for house in corpus.houses:
            mask = store.read_mask(house.house_id)
            for name, series in house.appliance_power.items():
                got = store.read_channel(house.house_id, name)
                assert np.array_equal(series[~mask], got[~mask])

    def test_windows_never_contain_nan(self, gappy_store):
        _, store = gappy_store
        ws = StreamingWindows(store, "kettle", window=WINDOW)
        assert len(ws) > 0
        assert not np.isnan(ws.inputs).any()
        for i in range(len(ws)):
            x, strong, weak = ws[i]
            assert not np.isnan(x).any()
            assert not np.isnan(strong).any()
            assert np.isfinite(weak)

    def test_training_losses_stay_finite(self, gappy_store):
        _, store = gappy_store
        scase = ex.case_windows_from_store(store, "kettle", WINDOW, split_seed=0)
        model = ResNetTSC(ResNetConfig(kernel_size=3, filters=(4, 8, 8), seed=0))
        result = train_classifier(
            model,
            scase.train.inputs,
            scase.train.weak,
            scase.val.inputs,
            scase.val.weak,
            TrainConfig(epochs=2, batch_size=16, patience=0),
        )
        assert np.isfinite(result.train_losses).all()
        assert np.isfinite(result.val_losses).all()
