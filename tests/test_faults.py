"""Tests for the fault-injection harness and the self-healing layers.

Three contracts under test:

* **determinism** — a ``REPRO_FAULTS`` spec makes the same decisions on
  every run (and across processes, for token-keyed checks), so a chaos
  failure found in CI reproduces locally byte for byte;
* **detection** — corrupt bytes (torn shard, bitflip, torn checkpoint,
  malformed manifest) surface as typed errors, never as silent wrong
  data;
* **recovery** — the healing paths (shard repair, checkpoint fallback,
  client retry, coalescer isolation, pool rebuild) restore results
  **bit-identical** to a fault-free run.
"""

import json
import os
import threading

import numpy as np
import pytest

from repro import simdata as sd
from repro.analysis import faults
from repro.analysis.faults import FaultPlan, FaultSpec, InjectedFault, parse_spec
from repro.core import (
    CamAL,
    LocalizationOutput,
    ResNetConfig,
    ResNetEnsemble,
    ResNetTSC,
)
from repro.api import load_pipelines, save_pipelines
from repro.data import (
    STORE_FORMAT_VERSION,
    IngestConfig,
    ManifestError,
    MeterStore,
    ShardCorruptionError,
    ingest_corpus,
    repair_household_from_source,
    write_manifest,
)
from repro.nn.serialization import checksum as shard_checksum
from repro.serving import (
    EngineConfig,
    InferenceEngine,
    ServeConfig,
    ServerError,
    ServingClient,
    ServingDaemon,
)
from repro.training.checkpoint import (
    CheckpointCorruptionError,
    TrainingCheckpoint,
    load_checkpoint,
    load_latest_checkpoint,
    save_checkpoint,
)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _camal(n_models=2, **kwargs):
    models = [
        ResNetTSC(ResNetConfig(kernel_size=k, filters=(4, 8, 8), seed=i))
        for i, k in enumerate((3, 5, 7)[:n_models])
    ]
    for model in models:
        model.eval()
    return CamAL(ResNetEnsemble(models), **kwargs)


def _series(n=96, seed=0):
    return np.random.default_rng(seed).random(n).astype(np.float32) * 2000.0


def _engine(**kwargs):
    defaults = dict(window=32, stride=16)
    defaults.update(kwargs)
    engine = InferenceEngine(EngineConfig(**defaults))
    engine.register("kettle", _camal(n_models=2))
    return engine


def _sequential_seed(prob, n_safe=8, limit=5000):
    """A stream seed whose first draw fires and the next ``n_safe`` don't."""
    for seed in range(limit):
        draws = np.random.default_rng(seed).random(1 + n_safe)
        if draws[0] < prob and (draws[1:] >= prob).all():
            return seed
    raise AssertionError("no sequential seed found — widen the scan")


def _token_seed(point, kind, prob, fire, safe, limit=5000):
    """A seed whose token decisions fire for ``fire`` and not for ``safe``."""
    for seed in range(limit):
        plan = FaultPlan((FaultSpec(point, prob, kind, seed),))
        if all(plan.would_fire(point, t) for t in fire) and not any(
            plan.would_fire(point, t) for t in safe
        ):
            return seed
    raise AssertionError("no token seed found — widen the scan")


def _rewrite_file(path, mutate):
    """Replace ``path``'s bytes with ``mutate(bytes)`` via a fresh inode."""
    with open(path, "rb") as handle:
        data = handle.read()
    tmp = path + ".mut"
    with open(tmp, "wb") as handle:
        handle.write(mutate(data))
    os.replace(tmp, path)


def _flip_byte(path, offset=100):
    _rewrite_file(path, lambda data: bytes(
        data[:offset] + bytes([data[offset] ^ 0xFF]) + data[offset + 1 :]
    ))


class _SlowPipeline:
    """Minimal WeakLocalizer surface with a controlled forward latency."""

    status_threshold = 0.5
    power_gate_watts = None

    def __init__(self, delay_s=0.3):
        self.delay_s = delay_s

    def eval(self):
        return self

    def localize(self, windows, batch_size=256):
        import time

        time.sleep(self.delay_s)
        windows = np.asarray(windows, dtype=np.float32)
        soft = np.clip(windows, 0.0, 1.0)
        return LocalizationOutput(
            detection_proba=windows.mean(axis=1),
            detected=np.ones(windows.shape[0], dtype=bool),
            cam=soft.copy(),
            soft_status=soft,
            status=(soft >= 0.5).astype(np.float32),
        )


@pytest.fixture(scope="module")
def corpus():
    return sd.ukdale_like(days=0.5, n_houses=3, seed=0)


@pytest.fixture()
def store_dir(corpus, tmp_path):
    out = str(tmp_path / "store")
    # 720 samples / 256 per shard -> 3 shards per house, so corruption
    # tests can damage one shard and read its healthy neighbours.
    ingest_corpus(corpus, out, IngestConfig(shard_length=256))
    return out


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with fault injection off."""
    faults.uninstall()
    yield
    faults.uninstall()


# ----------------------------------------------------------------------
# The harness itself
# ----------------------------------------------------------------------
class TestSpecParsing:
    def test_roundtrip_with_and_without_seed(self):
        specs = parse_spec(
            "store.shard_write:1.0:torn_write:7, serve.worker:0.25:kill"
        )
        assert specs == (
            FaultSpec("store.shard_write", 1.0, "torn_write", 7),
            FaultSpec("serve.worker", 0.25, "kill", 0),
        )

    def test_typos_fail_loudly(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            parse_spec("store.shard_wirte:1.0:torn_write")
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_spec("store.shard_write:1.0:shred")
        with pytest.raises(ValueError, match="probability"):
            parse_spec("store.shard_write:lots:torn_write")
        with pytest.raises(ValueError, match="probability"):
            parse_spec("store.shard_write:1.5:torn_write")
        with pytest.raises(ValueError, match="seed"):
            parse_spec("store.shard_write:1.0:torn_write:x")
        with pytest.raises(ValueError, match="point:prob:kind"):
            parse_spec("store.shard_write:1.0")
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan(parse_spec(
                "serve.worker:0.5:kill,serve.worker:0.5:delay"
            ))

    def test_unknown_point_at_fire_time_is_an_error(self):
        plan = FaultPlan(parse_spec("serve.worker:0.0:kill"))
        with pytest.raises(ValueError, match="unknown fault point"):
            plan.fire("serve.wroker")


class TestDeterminism:
    def test_sequential_stream_replays_identically(self):
        decisions = []
        for _ in range(2):
            plan = FaultPlan(parse_spec("store.shard_read:0.5:exception:11"))
            run = []
            for _ in range(32):
                try:
                    plan.fire("store.shard_read")
                    run.append(False)
                except InjectedFault:
                    run.append(True)
            decisions.append(run)
        assert decisions[0] == decisions[1]
        assert any(decisions[0]) and not all(decisions[0])

    def test_token_decisions_are_cross_instance_stable(self):
        # Two independent plans (standing in for two processes that each
        # re-parsed REPRO_FAULTS) agree on every token.
        a = FaultPlan(parse_spec("serve.worker:0.5:kill:3"))
        b = FaultPlan(parse_spec("serve.worker:0.5:kill:3"))
        tokens = list(range(16)) + ["shard-0", ("house_1", 2)]
        assert [a.would_fire("serve.worker", t) for t in tokens] == [
            b.would_fire("serve.worker", t) for t in tokens
        ]

    def test_payload_kinds_corrupt_detectably(self):
        payload = bytes(range(256)) * 4
        plan = FaultPlan(parse_spec("store.shard_write:1.0:torn_write"))
        torn = plan.fire("store.shard_write", payload=payload)
        assert 0 < len(torn) < len(payload)
        plan = FaultPlan(parse_spec("store.shard_write:1.0:bitflip"))
        flipped = plan.fire("store.shard_write", token="t", payload=payload)
        assert len(flipped) == len(payload) and flipped != payload
        assert shard_checksum(flipped) != shard_checksum(payload)

    def test_stats_and_guard_off(self):
        plan = faults.install("serve.coalesce:0.0:delay")
        plan.fire("serve.coalesce")
        assert faults.stats() == {"serve.coalesce": {"checks": 1, "fired": 0}}
        faults.uninstall()
        assert faults.ACTIVE is None
        assert faults.stats() == {}
        # Module-level fire with no plan is a passthrough.
        assert faults.fire("serve.coalesce", payload=b"x") == b"x"

    def test_active_context_restores_previous_plan(self):
        outer = faults.install("serve.coalesce:0.0:delay")
        with faults.active("serve.worker:1.0:delay") as inner:
            assert faults.ACTIVE is inner
        assert faults.ACTIVE is outer


# ----------------------------------------------------------------------
# Data layer: checksums, quarantine, repair
# ----------------------------------------------------------------------
class TestStoreSelfHealing:
    def test_bitflip_detected_on_first_open(self, corpus, store_dir):
        house = corpus.house_ids[0]
        _flip_byte(MeterStore(store_dir).shard_path(house, 0))
        store = MeterStore(store_dir)
        with pytest.raises(ShardCorruptionError, match="checksum"):
            store.shard(house, 0)
        # Healthy shards of the same household still serve.
        assert store.shard(house, 1).shape[1] == store.shard_length

    def test_truncated_shard_detected(self, corpus, store_dir):
        house = corpus.house_ids[0]
        store = MeterStore(store_dir)
        _rewrite_file(store.shard_path(house, 0), lambda data: data[: len(data) // 2])
        fresh = MeterStore(store_dir)
        with pytest.raises(ShardCorruptionError, match="bytes"):
            fresh.shard(house, 0)

    def test_missing_shard_is_typed(self, corpus, store_dir):
        house = corpus.house_ids[0]
        store = MeterStore(store_dir)
        os.unlink(store.shard_path(house, 0))
        with pytest.raises(ShardCorruptionError, match="missing"):
            MeterStore(store_dir).shard(house, 0)

    def test_verify_quarantines_and_repair_is_bit_identical(self, corpus, store_dir):
        house = corpus.house_ids[0]
        store = MeterStore(store_dir)
        original_checksum = store.house_meta(house).checksums[0]
        shard_file = store.shard_path(house, 0)
        _flip_byte(shard_file)

        store = MeterStore(store_dir)
        report = store.verify()
        assert list(report) == [house] and 0 in report[house]

        quarantined = store.verify(quarantine=True)
        assert 0 in quarantined[house]
        assert not os.path.exists(shard_file)
        with pytest.raises(ShardCorruptionError, match="quarantined"):
            store.shard(house, 0)
        # The annotation survives a fresh manifest load.
        with pytest.raises(ShardCorruptionError, match="quarantined"):
            MeterStore(store_dir).shard(house, 0)

        source = next(h for h in corpus.houses if h.house_id == house)
        repaired = repair_household_from_source(
            store, house, source.aggregate, dict(source.appliance_power)
        )
        assert repaired == [0]
        with open(shard_file, "rb") as handle:
            assert shard_checksum(handle.read()) == original_checksum
        assert store.verify() == {}
        assert MeterStore(store_dir).shard(house, 0) is not None

    def test_memmap_cache_revalidates_replaced_file(self, corpus, store_dir):
        house = corpus.house_ids[0]
        store = MeterStore(store_dir)
        first = store.shard(house, 0)
        # Warm hit: the unchanged file is served from the memmap cache.
        assert store.shard(house, 0) is first
        _flip_byte(store.shard_path(house, 0))
        # Same store instance, warm cache: the stat signature changed, so
        # the hit is evicted and the reopened file fails verification.
        with pytest.raises(ShardCorruptionError, match="checksum"):
            store.shard(house, 0)

    def test_malformed_manifest_is_typed(self, store_dir):
        manifest_path = os.path.join(store_dir, "manifest.json")
        with open(manifest_path, "w") as handle:
            handle.write("{not json")
        with pytest.raises(ManifestError, match="not valid JSON"):
            MeterStore(store_dir)
        # Signed, so the load gets past the checksum to the missing table.
        write_manifest(store_dir, {"format": STORE_FORMAT_VERSION})
        with pytest.raises(ManifestError, match="households"):
            MeterStore(store_dir)
        # An honest format-version mismatch stays a ValueError, like the
        # checkpoint loader's contract.
        with open(manifest_path, "w") as handle:
            handle.write("{}")
        with pytest.raises(ValueError, match="format"):
            MeterStore(store_dir)
        with open(manifest_path, "w") as handle:
            handle.write("[]")
        with pytest.raises(ManifestError):
            MeterStore(store_dir)

    def test_checksum_count_mismatch_is_typed(self, store_dir):
        manifest_path = os.path.join(store_dir, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        first = next(iter(manifest["households"]))
        manifest["households"][first]["checksums"] = ["00" * 16]
        manifest["households"][first]["n_shards"] = 3
        write_manifest(store_dir, manifest)  # re-signed: reach the count check
        with pytest.raises(ManifestError, match="1 checksums for 3 shards"):
            MeterStore(store_dir)

    def test_edited_manifest_raises(self, store_dir):
        """Hand-edited weak labels or sample counts never load silently."""
        from repro.cli import main

        manifest_path = os.path.join(store_dir, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        entry = next(iter(manifest["households"].values()))
        entry["possession"] = {name: not owned for name, owned in entry["possession"].items()}
        entry["n_samples"] -= 1
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle, indent=2)
        with pytest.raises(ManifestError, match="checksum mismatch"):
            MeterStore(store_dir)
        with pytest.raises(SystemExit, match="checksum mismatch"):
            main(["data", "verify", store_dir])
        # So does a manifest that lost its checksum.
        del manifest["checksum"]
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ManifestError, match="records None"):
            MeterStore(store_dir)
        # A format-1 store (no manifest checksum) is refused by name.
        write_manifest(store_dir, dict(manifest, format=1))
        with pytest.raises(SystemExit, match="unsupported store format 1"):
            main(["data", "verify", store_dir])

    def test_ingest_under_torn_writes_is_never_silent(self, corpus, tmp_path):
        out = str(tmp_path / "torn")
        with faults.active("store.shard_write:1.0:torn_write:7"):
            store = ingest_corpus(corpus, out, IngestConfig(shard_length=1000))
        # The manifest itself is exempt from shard faults, so the store
        # loads — and every torn shard is detectable, not silently wrong.
        report = store.verify()
        assert set(report) == set(store.house_ids)
        with pytest.raises(ShardCorruptionError):
            store.shard(corpus.house_ids[0], 0)

    def test_cli_verify_exit_codes(self, corpus, store_dir, capsys):
        from repro.cli import main

        assert main(["data", "verify", store_dir]) == 0
        assert "all checksums match" in capsys.readouterr().out
        _flip_byte(MeterStore(store_dir).shard_path(corpus.house_ids[0], 0))
        with pytest.raises(SystemExit):
            main(["data", "verify", store_dir])


# ----------------------------------------------------------------------
# Training layer: durable checkpoints
# ----------------------------------------------------------------------
def _checkpoint(epoch):
    rng = np.random.default_rng(epoch)
    return TrainingCheckpoint(
        epoch=epoch,
        model_state={"w": rng.random(8).astype(np.float32)},
        optimizer_state={"lr": 0.01, "m": rng.random(8).astype(np.float32)},
        rng_state={"loop": np.random.default_rng(epoch).bit_generator.state,
                   "dropout": []},
    )


class TestCheckpointDurability:
    def test_sidecar_roundtrip_and_bitflip_detection(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, _checkpoint(1))
        assert os.path.exists(path + ".sum")
        assert load_checkpoint(path).epoch == 1
        _flip_byte(path, offset=40)
        with pytest.raises(CheckpointCorruptionError, match="hash"):
            load_checkpoint(path)

    def test_rotation_keeps_last_k(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CKPT_KEEP", "3")
        path = str(tmp_path / "ckpt.npz")
        for epoch in range(1, 5):
            save_checkpoint(path, _checkpoint(epoch))
        assert load_checkpoint(path).epoch == 4
        assert load_checkpoint(path + ".1").epoch == 3
        assert load_checkpoint(path + ".2").epoch == 2
        assert not os.path.exists(path + ".3")

    def test_torn_write_falls_back_to_previous_generation(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, _checkpoint(1), keep=2)
        with faults.active("train.checkpoint_write:1.0:torn_write:3"):
            save_checkpoint(path, _checkpoint(2), keep=2)
        # The torn newest generation is provably corrupt...
        with pytest.raises(CheckpointCorruptionError):
            load_checkpoint(path)
        # ...and resume lands on the previous intact one.
        loaded = load_latest_checkpoint(path)
        assert loaded is not None
        checkpoint, loaded_path = loaded
        assert checkpoint.epoch == 1 and loaded_path == path + ".1"

    def test_every_generation_corrupt_returns_none(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, _checkpoint(1), keep=2)
        save_checkpoint(path, _checkpoint(2), keep=2)
        _flip_byte(path, offset=40)
        _flip_byte(path + ".1", offset=40)
        assert load_latest_checkpoint(path) is None

    def test_missing_newest_still_tries_rotations(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, _checkpoint(1), keep=2)
        save_checkpoint(path, _checkpoint(2), keep=2)
        os.unlink(path)
        loaded = load_latest_checkpoint(path)
        assert loaded is not None and loaded[0].epoch == 1

    def test_keep_must_be_positive(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ckpt.npz")
        with pytest.raises(ValueError, match="keep"):
            save_checkpoint(path, _checkpoint(1), keep=0)
        monkeypatch.setenv("REPRO_CKPT_KEEP", "0")
        with pytest.raises(ValueError, match="keep"):
            save_checkpoint(path, _checkpoint(1))


# ----------------------------------------------------------------------
# Serving layer: client retries, deadlines, isolation, pool recovery
# ----------------------------------------------------------------------
class TestClientResilience:
    def test_close_is_idempotent_and_closed_client_is_clear(self):
        engine = _engine()
        with ServingDaemon(engine, ServeConfig(port=0)) as daemon:
            client = ServingClient(daemon.host, daemon.port)
            assert client.ping()
            client.close()
            client.close()  # second close is a no-op, not an error
            with pytest.raises(ConnectionError, match="closed"):
                client.ping()

    def test_daemon_gone_mid_request_raises_connection_error(self):
        engine = _engine()
        daemon = ServingDaemon(engine, ServeConfig(port=0))
        host, port = daemon.start()
        client = ServingClient(host, port)
        try:
            assert client.ping()
            daemon.shutdown(drain=True)
            with pytest.raises(ConnectionError):
                client.score_series("kettle", _series(64, seed=1))
        finally:
            client.close()

    def test_score_with_retry_survives_injected_socket_drops(self):
        engine = _engine()
        series = _series(64, seed=2)
        expected = engine.run(series).per_appliance["kettle"]
        seed = _sequential_seed(prob=0.4)
        with ServingDaemon(engine, ServeConfig(port=0)) as daemon:
            with ServingClient(daemon.host, daemon.port) as client:
                with faults.active(f"serve.socket_recv:0.4:exception:{seed}"):
                    result = client.score_with_retry("kettle", series, seed=5)
                    stats = faults.stats()
        assert stats["serve.socket_recv"]["fired"] >= 1
        assert np.array_equal(result.status, expected.status)
        assert np.array_equal(result.soft_status, expected.soft_status)

    def test_retry_does_not_mask_non_retryable_errors(self):
        engine = _engine()
        with ServingDaemon(engine, ServeConfig(port=0)) as daemon:
            with ServingClient(daemon.host, daemon.port) as client:
                with pytest.raises(ServerError) as err:
                    client.score_with_retry("toaster", _series(64))
                assert err.value.code == "unknown_appliance"

    def test_retry_validates_attempts(self):
        engine = _engine()
        with ServingDaemon(engine, ServeConfig(port=0)) as daemon:
            with ServingClient(daemon.host, daemon.port) as client:
                with pytest.raises(ValueError, match="max_attempts"):
                    client.score_with_retry("kettle", _series(64), max_attempts=0)


class TestServerResilience:
    def test_deadline_exceeded_is_typed_and_retryable(self):
        engine = InferenceEngine(EngineConfig(window=32, stride=16))
        engine.register("kettle", _SlowPipeline(delay_s=0.6))
        config = ServeConfig(
            port=0, coalesce=False, warm_start=False, request_timeout_s=0.1
        )
        with ServingDaemon(engine, config) as daemon:
            with ServingClient(daemon.host, daemon.port) as client:
                with pytest.raises(ServerError) as err:
                    client.score_series("kettle", _series(64, seed=3))
        assert err.value.code == "deadline_exceeded"
        assert err.value.retry_after_ms is not None and err.value.retry_after_ms >= 1

    def test_coalescer_isolation_keeps_survivors_bit_identical(self):
        engine = _engine()
        n_clients = 3
        all_series = [_series(100 + 16 * i, seed=20 + i) for i in range(n_clients)]
        expected = [engine.run(s).per_appliance["kettle"] for s in all_series]
        config = ServeConfig(port=0, max_wait_us=150_000, max_batch_windows=512)
        results = [None] * n_clients
        errors = []
        # Every *fused* forward throws; the solo replays (batch of one
        # never checks the point) must still answer every waiter.
        with faults.active("serve.coalesce:1.0:exception"):
            with ServingDaemon(engine, config) as daemon:
                barrier = threading.Barrier(n_clients)

                def worker(i):
                    try:
                        with ServingClient(daemon.host, daemon.port) as client:
                            barrier.wait()
                            results[i] = client.score_series(
                                "kettle", all_series[i]
                            )
                    except Exception as exc:  # noqa: BLE001 - surfaced below
                        errors.append((i, exc))

                threads = [
                    threading.Thread(target=worker, args=(i,))
                    for i in range(n_clients)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                with ServingClient(daemon.host, daemon.port) as client:
                    snapshot = client.metrics()
        assert not errors, errors
        for i in range(n_clients):
            assert results[i] is not None
            assert np.array_equal(results[i].soft_status, expected[i].soft_status)
            assert np.array_equal(results[i].status, expected[i].status)
        assert snapshot["recovery"]["coalesce_isolations"] >= 1

    def test_store_job_survives_worker_kill_with_equal_digests(
        self, corpus, store_dir, tmp_path, monkeypatch
    ):
        fleet_dir = str(tmp_path / "fleet")
        save_pipelines({"kettle": _camal(n_models=1)}, fleet_dir)
        engine = InferenceEngine(EngineConfig(window=32, stride=16))
        for name, estimator in load_pipelines(fleet_dir).items():
            engine.register(name, estimator)
        from hashlib import blake2b

        expected = {
            house_id: {
                name: blake2b(result.status.tobytes(), digest_size=16).hexdigest()
                for name, result in scores
            }
            for house_id, scores in engine.score_store(MeterStore(store_dir))
        }
        # Attempt 0 is killed in every worker, attempt 1 survives — the
        # spawn children re-parse REPRO_FAULTS and reach this decision
        # deterministically on their own.
        seed = _token_seed("serve.worker", "kill", 0.5, fire=[0], safe=[1, 2])
        monkeypatch.setenv("REPRO_FAULTS", f"serve.worker:0.5:kill:{seed}")
        daemon = ServingDaemon(engine, ServeConfig(port=0), fleet_dir=fleet_dir)
        with daemon:
            with ServingClient(daemon.host, daemon.port, timeout=300.0) as client:
                job = client.submit_store_job(store_dir, workers=2)
                snapshot = client.metrics()
        assert job["pool_rebuilds"] >= 1
        assert snapshot["recovery"]["pool_rebuilds"] >= 1
        assert {row["house_id"] for row in job["rows"]} == set(expected)
        for row in job["rows"]:
            for name, summary in row["appliances"].items():
                assert summary["status_blake2b"] == expected[row["house_id"]][name]
