"""Tests for the serving daemon: protocol, coalescing, backpressure, drain."""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from hashlib import blake2b

import numpy as np
import pytest

from repro import simdata as sd
from repro.core import (
    CamAL,
    LocalizationOutput,
    ResNetConfig,
    ResNetEnsemble,
    ResNetTSC,
)
from repro.api import load_pipelines, save_pipelines
from repro.data import IngestConfig, ingest_corpus
from repro.serving import (
    EngineConfig,
    InferenceEngine,
    ServeConfig,
    ServerError,
    ServingClient,
    ServingDaemon,
)
from repro.serving.protocol import (
    MAX_FRAME_BYTES,
    FrameError,
    FrameReader,
    FrameTooLarge,
    decode_frame,
    decode_series,
    encode_frame,
    encode_series,
)


def _camal(n_models=2, **kwargs):
    models = [
        ResNetTSC(ResNetConfig(kernel_size=k, filters=(4, 8, 8), seed=i))
        for i, k in enumerate((3, 5, 7)[:n_models])
    ]
    for model in models:
        model.eval()
    return CamAL(ResNetEnsemble(models), **kwargs)


def _series(n=96, seed=0):
    return (np.random.default_rng(seed).random(n).astype(np.float32) * 2000.0)


def _engine(**kwargs):
    defaults = dict(window=32, stride=16)
    defaults.update(kwargs)
    engine = InferenceEngine(EngineConfig(**defaults))
    engine.register("kettle", _camal(n_models=2))
    return engine


class _SlowPipeline:
    """Minimal WeakLocalizer surface whose forward takes a known time.

    Lets backpressure/drain tests control service latency without
    depending on machine speed.
    """

    status_threshold = 0.5
    power_gate_watts = None

    def __init__(self, delay_s=0.3):
        self.delay_s = delay_s
        self.calls = 0

    def eval(self):
        return self

    def localize(self, windows, batch_size=256):
        time.sleep(self.delay_s)
        self.calls += 1
        windows = np.asarray(windows, dtype=np.float32)
        soft = np.clip(windows, 0.0, 1.0)
        return LocalizationOutput(
            detection_proba=windows.mean(axis=1),
            detected=np.ones(windows.shape[0], dtype=bool),
            cam=soft.copy(),
            soft_status=soft,
            status=(soft >= 0.5).astype(np.float32),
        )


class TestProtocolUnits:
    def test_frame_roundtrip_chunked(self):
        frames = [{"op": "ping", "id": 1}, {"op": "score", "x": [1.5, 2.5]}]
        wire = b"".join(encode_frame(f) for f in frames)
        reader = FrameReader()
        decoded = []
        for i in range(0, len(wire), 3):  # worst-case packetization
            decoded.extend(reader.feed(wire[i : i + 3]))
        assert decoded == frames
        assert reader.pending_bytes == 0

    def test_blank_lines_skipped(self):
        reader = FrameReader()
        assert list(reader.feed(b"\n \n" + encode_frame({"op": "ping"}))) == [
            {"op": "ping"}
        ]

    def test_malformed_line_raises_but_reader_survives(self):
        reader = FrameReader()
        with pytest.raises(FrameError):
            list(reader.feed(b"{not json}\n"))
        assert list(reader.feed(encode_frame({"op": "ping"}))) == [{"op": "ping"}]

    def test_non_object_frame_rejected(self):
        with pytest.raises(FrameError):
            decode_frame(b"[1,2,3]")

    def test_oversized_unterminated_buffer_raises(self):
        reader = FrameReader(max_frame_bytes=64)
        with pytest.raises(FrameTooLarge):
            list(reader.feed(b"x" * 65))

    def test_oversized_complete_line_raises(self):
        reader = FrameReader(max_frame_bytes=64)
        with pytest.raises(FrameTooLarge):
            list(reader.feed(b'{"pad":"' + b"x" * 80 + b'"}\n'))

    def test_series_base64_roundtrip_exact(self):
        values = _series(257, seed=3)
        decoded = decode_series(encode_series(values))
        assert decoded.dtype == np.float32
        assert np.array_equal(decoded, values)

    def test_series_list_roundtrip_exact(self):
        values = _series(64, seed=4)
        via_json = json.loads(json.dumps([float(v) for v in values]))
        assert np.array_equal(decode_series(via_json), values)

    def test_series_rejects_garbage(self):
        with pytest.raises(FrameError):
            decode_series("not-base64!!")
        with pytest.raises(FrameError):
            decode_series("YWJj")  # 3 bytes: not a float32 multiple
        with pytest.raises(FrameError):
            decode_series({"nope": 1})
        with pytest.raises(FrameError):
            decode_series(["a", "b"])


class TestServeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(queue_depth=0)
        with pytest.raises(ValueError):
            ServeConfig(max_batch_windows=0)
        with pytest.raises(ValueError):
            ServeConfig(max_wait_us=-1)


class TestDaemonScoring:
    def test_score_bit_identical_to_engine_run(self):
        engine = _engine()
        series = _series(100, seed=1)
        expected = engine.run(series).per_appliance["kettle"]
        with ServingDaemon(engine, ServeConfig(port=0)) as daemon:
            for compact in (True, False):
                with ServingClient(
                    daemon.host, daemon.port, compact=compact
                ) as client:
                    result = client.score_series("kettle", series)
            assert np.array_equal(result.soft_status, expected.soft_status)
            assert np.array_equal(result.status, expected.status)
            assert result.n_windows == len(expected.windows.detected)
            assert result.detection_rate == expected.detection_rate
            assert result.coalesced_requests >= 1

    def test_error_codes(self):
        engine = _engine()
        with ServingDaemon(engine, ServeConfig(port=0)) as daemon:
            with ServingClient(daemon.host, daemon.port) as client:
                assert client.ping()
                with pytest.raises(ServerError) as err:
                    client.score_series("toaster", _series(64))
                assert err.value.code == "unknown_appliance"
                with pytest.raises(ServerError) as err:
                    client._call({"op": "score", "appliance": "kettle"})
                assert err.value.code == "bad_request"
                with pytest.raises(ServerError) as err:
                    client._call(
                        {"op": "score", "appliance": "kettle", "series": []}
                    )
                assert err.value.code == "bad_request"
                with pytest.raises(ServerError) as err:
                    client._call({"op": "warp"})
                assert err.value.code == "unknown_op"

    def test_malformed_frame_connection_survives(self):
        engine = _engine()
        with ServingDaemon(engine, ServeConfig(port=0)) as daemon:
            sock = socket.create_connection((daemon.host, daemon.port), timeout=30)
            reader = FrameReader()
            try:
                sock.sendall(b"this is not json\n")
                sock.sendall(encode_frame({"op": "ping", "id": 7}))
                frames = []
                while len(frames) < 2:
                    chunk = sock.recv(65536)
                    assert chunk, "server closed early"
                    frames.extend(reader.feed(chunk))
                assert frames[0]["ok"] is False
                assert frames[0]["error"]["code"] == "bad_frame"
                assert frames[1] == {"ok": True, "result": {"pong": True}, "id": 7}
            finally:
                sock.close()

    def test_oversized_frame_closes_connection(self):
        engine = _engine()
        with ServingDaemon(engine, ServeConfig(port=0)) as daemon:
            sock = socket.create_connection((daemon.host, daemon.port), timeout=30)
            reader = FrameReader()
            try:
                sock.sendall(b"x" * (MAX_FRAME_BYTES + 1))  # no newline: unrecoverable
                frames = []
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break  # server closed, as specified
                    frames.extend(reader.feed(chunk))
                assert len(frames) == 1
                assert frames[0]["error"]["code"] == "frame_too_large"
            finally:
                sock.close()

    def test_metrics_snapshot(self):
        engine = _engine()
        with ServingDaemon(engine, ServeConfig(port=0)) as daemon:
            with ServingClient(daemon.host, daemon.port) as client:
                client.score_series("kettle", _series(100, seed=2))
                snapshot = client.metrics()
        assert snapshot["requests"]["score"] == 1
        assert snapshot["windows_total"] > 0
        assert snapshot["latency_ms"]["count"] == 1
        assert snapshot["latency_ms"]["p99"] >= snapshot["latency_ms"]["p50"] > 0
        assert snapshot["coalesce"]["batches"] >= 1
        assert snapshot["appliances"] == ["kettle"]
        assert snapshot["config"]["coalesce"] is True
        assert "kettle" in snapshot["buffer_pool"]
        assert snapshot["draining"] is False

    def test_warm_ladder_pool_holds_only_plan_slots(self):
        """After warm-up and the bucket ladder each pool holds exactly its
        cached plans' slots: trace-time validation leaves no scratch."""
        engine = _engine(batch_size=16)
        engine.register("dishwasher", _camal(n_models=3))
        engine.warmup()
        config = ServeConfig(port=0, max_batch_windows=8)  # ladder 1, 2, 4, 8
        with ServingDaemon(engine, config) as daemon:
            with ServingClient(daemon.host, daemon.port) as client:
                snapshot = client.metrics()
        for appliance in ("kettle", "dishwasher"):
            pool = snapshot["buffer_pool"][appliance]
            plan = snapshot["plan"][appliance]
            assert plan["plans"] == 5
            assert pool["free_buffers"] == 0
            assert pool["bytes_allocated"] == plan["slot_bytes"]
            assert plan["peak_live_bytes"] <= plan["slot_bytes"]


class TestCoalescing:
    def test_concurrent_requests_coalesce_and_stay_bit_identical(self):
        engine = _engine()
        n_clients = 4
        all_series = [_series(100 + 16 * i, seed=10 + i) for i in range(n_clients)]
        expected = [engine.run(s).per_appliance["kettle"] for s in all_series]
        # A generous linger makes the merge deterministic under any
        # scheduler: every request admitted within 150 ms shares a batch.
        config = ServeConfig(port=0, max_wait_us=150_000, max_batch_windows=512)
        results = [None] * n_clients
        errors = []
        with ServingDaemon(engine, config) as daemon:
            barrier = threading.Barrier(n_clients)

            def worker(i):
                try:
                    with ServingClient(daemon.host, daemon.port) as client:
                        barrier.wait()
                        results[i] = client.score_series("kettle", all_series[i])
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
        assert not errors, errors
        for i in range(n_clients):
            assert results[i] is not None, f"client {i} got no response"
            assert np.array_equal(
                results[i].soft_status, expected[i].soft_status
            ), f"client {i}: coalesced soft_status diverged from engine.run"
            assert np.array_equal(results[i].status, expected[i].status)
        # The point of the linger: concurrent requests shared a forward.
        assert max(r.coalesced_requests for r in results) >= 2

    def test_coalesce_off_serves_every_request_alone(self):
        engine = _engine()
        config = ServeConfig(port=0, coalesce=False)
        series = _series(100, seed=5)
        expected = engine.run(series).per_appliance["kettle"]
        with ServingDaemon(engine, config) as daemon:
            with ServingClient(daemon.host, daemon.port) as client:
                result = client.score_series("kettle", series)
        assert result.coalesced_requests == 1
        assert np.array_equal(result.status, expected.status)


class TestFlushRule:
    """A batch stops gathering when full, when no open connection can add
    a request, or when ``max_wait_us`` expires -- and in no other case."""

    def test_lone_connection_is_answered_without_the_linger(self):
        engine = _engine()
        config = ServeConfig(port=0, max_wait_us=300_000, max_batch_windows=4)
        with ServingDaemon(engine, config) as daemon:
            with ServingClient(daemon.host, daemon.port) as client:
                big = client.score_series("kettle", _series(100, seed=6))
                small = client.score_series("kettle", _series(48, seed=7))
                flushes = client.metrics()["coalesce"]["flushes"]
        assert big.n_windows >= 4 and small.n_windows < 4
        # The only open connection awaits the small request's result, so
        # nothing can join its batch and lingering would only add latency.
        assert small.server_ms < 100
        assert flushes == {"full": 1, "waiting": 1, "linger": 0}

    def test_connections_scoring_two_appliances_skip_the_linger(self):
        engine = _engine()
        engine.register("fridge", _camal(n_models=1))
        config = ServeConfig(port=0, max_wait_us=300_000)
        appliances = ("kettle", "fridge")
        results = [None, None]
        errors = []
        with ServingDaemon(engine, config) as daemon:
            barrier = threading.Barrier(2)

            def worker(i):
                try:
                    with ServingClient(daemon.host, daemon.port) as client:
                        client.ping()  # the daemon now counts this connection
                        barrier.wait()
                        results[i] = client.score_series(
                            appliances[i], _series(100, seed=30 + i)
                        )
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append((i, exc))

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            with ServingClient(daemon.host, daemon.port) as client:
                flushes = client.metrics()["coalesce"]["flushes"]
        assert not errors, errors
        for result in results:
            assert result is not None and result.coalesced_requests == 1
            assert result.server_ms < 100
        assert flushes == {"full": 0, "waiting": 2, "linger": 0}

    def test_linger_holds_while_another_connection_is_idle(self):
        engine = _engine()
        config = ServeConfig(port=0, max_wait_us=300_000)
        with ServingDaemon(engine, config) as daemon:
            with ServingClient(daemon.host, daemon.port) as busy, ServingClient(
                daemon.host, daemon.port
            ) as idle:
                assert idle.ping()  # open, and free to send at any moment
                alone = busy.score_series("kettle", _series(100, seed=8))
                holder = {}
                thread = threading.Thread(
                    target=lambda: holder.update(
                        first=busy.score_series("kettle", _series(100, seed=9))
                    )
                )
                thread.start()
                time.sleep(0.05)  # well inside the first request's linger
                late = idle.score_series("kettle", _series(64, seed=10))
                thread.join(timeout=30)
                assert not thread.is_alive()
                flushes = idle.metrics()["coalesce"]["flushes"]
        assert alone.coalesced_requests == 1
        assert alone.server_ms >= 300  # waited out max_wait_us
        assert holder["first"].coalesced_requests == 2
        assert late.coalesced_requests == 2
        assert flushes == {"full": 0, "waiting": 1, "linger": 1}


class TestBackpressure:
    def test_full_queue_fast_rejects_with_retry_hint(self):
        engine = InferenceEngine(EngineConfig(window=32, stride=16))
        engine.register("kettle", _SlowPipeline(delay_s=0.4))
        config = ServeConfig(port=0, queue_depth=1, coalesce=False, warm_start=False)
        n_clients = 6
        outcomes = [None] * n_clients
        with ServingDaemon(engine, config) as daemon:
            barrier = threading.Barrier(n_clients)

            def worker(i):
                try:
                    with ServingClient(daemon.host, daemon.port) as client:
                        barrier.wait()
                        outcomes[i] = client.score_series(
                            "kettle", _series(64, seed=i)
                        )
                except ServerError as exc:
                    outcomes[i] = exc

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        rejected = [o for o in outcomes if isinstance(o, ServerError)]
        served = [o for o in outcomes if not isinstance(o, (ServerError, type(None)))]
        assert served, "at least one request must be admitted and served"
        assert rejected, "a 1-deep queue under 6 concurrent clients must shed load"
        for err in rejected:
            assert err.code == "overloaded"
            assert err.retry_after_ms is not None and err.retry_after_ms >= 1


class TestGracefulDrain:
    def test_inflight_request_survives_shutdown(self):
        engine = InferenceEngine(EngineConfig(window=32, stride=16))
        engine.register("kettle", _SlowPipeline(delay_s=0.5))
        config = ServeConfig(port=0, coalesce=False, warm_start=False)
        daemon = ServingDaemon(engine, config)
        host, port = daemon.start()
        holder = {}

        def worker():
            with ServingClient(host, port) as client:
                holder["result"] = client.score_series("kettle", _series(64, seed=9))

        thread = threading.Thread(target=worker)
        thread.start()
        time.sleep(0.15)  # request is admitted and mid-forward by now
        daemon.shutdown(drain=True)
        thread.join(timeout=30)
        assert not thread.is_alive()
        result = holder.get("result")
        assert result is not None, "in-flight response was lost during drain"
        assert result.status.shape == (64,)
        # The listener is gone.  Some network stacks still complete the
        # TCP handshake against a just-closed port (and loopback can even
        # self-connect), so assert the *semantic* contract: no late
        # client can extract a response from the stopped daemon.
        try:
            probe = socket.create_connection((host, port), timeout=2)
        except OSError:
            pass  # refused outright — also fine
        else:
            try:
                probe.settimeout(2)
                probe.sendall(encode_frame({"op": "ping"}))
                assert probe.recv(65536) == b"", "stopped daemon answered a ping"
            except OSError:
                pass  # reset mid-exchange — also a refusal
            finally:
                probe.close()

    def test_shutdown_while_a_handler_is_being_started(self, monkeypatch):
        daemon = ServingDaemon(_engine(), ServeConfig(port=0))
        host, port = daemon.start()
        start = threading.Thread.start
        starting = threading.Event()

        def slow_start(thread):
            # Widen the acceptor's gap between creating a connection
            # handler and starting it, and shut down inside that gap.
            if threading.current_thread().name == "serve-acceptor":
                starting.set()
                time.sleep(0.3)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", slow_start)
        sock = socket.create_connection((host, port), timeout=30)
        try:
            assert starting.wait(timeout=30)
            # Must not join the handler before it is started.
            daemon.shutdown(drain=True)
        finally:
            sock.close()
        waiter = threading.Thread(target=daemon.serve_forever)
        waiter.start()
        waiter.join(timeout=5)
        assert not waiter.is_alive()

    def test_shutdown_op_drains_and_unblocks_serve_forever(self):
        engine = _engine()
        daemon = ServingDaemon(engine, ServeConfig(port=0))
        host, port = daemon.start()
        waiter = threading.Thread(target=daemon.serve_forever)
        waiter.start()
        with ServingClient(host, port) as client:
            client.score_series("kettle", _series(64, seed=3))
            assert client.shutdown_server() is True
        waiter.join(timeout=30)
        assert not waiter.is_alive()

    def test_shutdown_can_be_disabled(self):
        engine = _engine()
        config = ServeConfig(port=0, allow_shutdown=False)
        with ServingDaemon(engine, config) as daemon:
            with ServingClient(daemon.host, daemon.port) as client:
                with pytest.raises(ServerError) as err:
                    client.shutdown_server()
                assert err.value.code == "bad_request"
                assert client.ping()  # daemon is still up


@pytest.fixture(scope="module")
def tiny_store(tmp_path_factory):
    corpus = sd.ukdale_like(days=0.5, n_houses=3, seed=0)
    out = tmp_path_factory.mktemp("daemon_store") / "store"
    ingest_corpus(corpus, str(out), IngestConfig(shard_length=1000))
    return str(out)


class TestStoreJobs:
    def _fleet(self, tmp_path):
        fleet_dir = str(tmp_path / "fleet")
        save_pipelines(
            {"kettle": _camal(n_models=1), "dishwasher": _camal(n_models=2)},
            fleet_dir,
        )
        return fleet_dir

    def _digests(self, engine, store_path):
        from repro.data import MeterStore

        return {
            house_id: {
                name: blake2b(result.status.tobytes(), digest_size=16).hexdigest()
                for name, result in scores
            }
            for house_id, scores in engine.score_store(MeterStore(store_path))
        }

    def test_in_process_job_matches_direct_scoring(self, tiny_store, tmp_path):
        fleet_dir = self._fleet(tmp_path)
        engine = InferenceEngine(EngineConfig(window=32, stride=16))
        for name, estimator in load_pipelines(fleet_dir).items():
            engine.register(name, estimator)
        expected = self._digests(engine, tiny_store)
        with ServingDaemon(engine, ServeConfig(port=0)) as daemon:
            with ServingClient(daemon.host, daemon.port) as client:
                job = client.submit_store_job(tiny_store, workers=1)
        assert job["workers"] == 1
        assert job["n_households"] == len(expected)
        for row in job["rows"]:
            house = expected[row["house_id"]]
            for name, summary in row["appliances"].items():
                assert summary["status_blake2b"] == house[name]
                assert 0.0 <= summary["on_fraction"] <= 1.0

    def test_shard_parallel_job_matches_direct_scoring(self, tiny_store, tmp_path):
        fleet_dir = self._fleet(tmp_path)
        engine = InferenceEngine(EngineConfig(window=32, stride=16))
        for name, estimator in load_pipelines(fleet_dir).items():
            engine.register(name, estimator)
        expected = self._digests(engine, tiny_store)
        daemon = ServingDaemon(engine, ServeConfig(port=0), fleet_dir=fleet_dir)
        with daemon:
            with ServingClient(daemon.host, daemon.port, timeout=300.0) as client:
                job = client.submit_store_job(tiny_store, workers=2)
        assert job["workers"] == 2
        assert {row["house_id"] for row in job["rows"]} == set(expected)
        for row in job["rows"]:
            house = expected[row["house_id"]]
            for name, summary in row["appliances"].items():
                assert summary["status_blake2b"] == house[name]

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
    def test_workers_share_the_cpus(self, monkeypatch):
        """Each store-job worker runs on its share of the daemon's CPUs, so
        its plans trace with the lanes that share allows."""
        from repro.serving import server

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert server._cpu_shares(1) == [[0, 1, 2]]
        assert server._cpu_shares(2) == [[0, 2], [1]]
        assert server._cpu_shares(4) == [[0], [1], [2], [0]]

    def test_bad_store_path_is_a_request_error(self, tmp_path):
        engine = _engine()
        with ServingDaemon(engine, ServeConfig(port=0)) as daemon:
            with ServingClient(daemon.host, daemon.port) as client:
                with pytest.raises(ServerError) as err:
                    client.submit_store_job(str(tmp_path / "missing"))
                assert err.value.code == "bad_request"


class TestServeCLI:
    def test_demo_daemon_sigterm_drains_and_exits_zero(self, tmp_path):
        ready_path = tmp_path / "ready.json"
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--demo",
                "--port",
                "0",
                "--no-warm",
                "--ready-file",
                str(ready_path),
            ],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            deadline = time.monotonic() + 120
            while not ready_path.exists():
                if proc.poll() is not None:
                    pytest.fail(f"daemon died early:\n{proc.stdout.read()}")
                if time.monotonic() > deadline:
                    pytest.fail("daemon never wrote the ready file")
                time.sleep(0.1)
            info = json.loads(ready_path.read_text())
            assert info["pid"] == proc.pid
            with ServingClient(info["host"], info["port"]) as client:
                assert client.ping()
                result = client.score_series("kettle", _series(300, seed=6))
                assert result.status.shape == (300,)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            output = proc.stdout.read()
            assert "draining" in output
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
