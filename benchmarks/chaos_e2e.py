"""Chaos end to end: the serving paths under ``REPRO_FAULTS``, one cell per run.

Each cell is a subcommand, run in its own process so that the fault plan
comes from the environment exactly as a deployment would set it:

* ``reference`` (fault-free) saves a small seeded fleet and records the
  blake2b status digests of a fault-free run: one series through
  ``InferenceEngine.run`` and every household of the meter store through
  ``score_store``;
* ``socket-drop`` (``serve.socket_recv``) scores that series eight times
  through a retrying client against an in-process daemon while the
  client's receives are dropped;
* ``worker-kill`` (``serve.worker`` with ``kill``) submits a two-worker
  store job whose spawn workers are killed, so the daemon must rebuild
  its process pool.

Both fault cells assert that the recovered results are bit-identical to
the reference digests and that their fault actually fired: a chaos cell
that injects nothing is vacuously green.  Seeds in the fault specs are
pinned so attempt 0 fails and the retry succeeds deterministically.  Run
from the repository root, after ingesting a store::

    PYTHONPATH=src python benchmarks/chaos_e2e.py reference --store STORE
    REPRO_FAULTS="serve.socket_recv:0.25:exception:32" \\
        PYTHONPATH=src python benchmarks/chaos_e2e.py socket-drop
    REPRO_FAULTS="serve.worker:0.5:kill:0" \\
        PYTHONPATH=src python benchmarks/chaos_e2e.py worker-kill --store STORE

The worker-kill cell needs this file to be a real script: spawn workers
re-import ``__main__``.
"""

import argparse
import json
import os
import sys
from hashlib import blake2b

import numpy as np

from repro.analysis import faults
from repro.api import load_pipelines, save_pipelines
from repro.core import CamAL, ResNetConfig, ResNetEnsemble, ResNetTSC
from repro.data import MeterStore
from repro.serving import (
    EngineConfig,
    InferenceEngine,
    ServeConfig,
    ServingClient,
    ServingDaemon,
)

WINDOW = 128
STRIDE = 64
SERIES_LENGTH = 640
SOCKET_DROP_REQUESTS = 8


def _digest(status: np.ndarray) -> str:
    return blake2b(status.tobytes(), digest_size=16).hexdigest()


def _series() -> np.ndarray:
    rng = np.random.default_rng(0)
    return (rng.random(SERIES_LENGTH) * 2000.0).astype(np.float32)


def _fleet_dir(args) -> str:
    return os.path.join(args.work, "fleet")


def _expected_path(args) -> str:
    return os.path.join(args.work, "expected.json")


def _engine(args) -> InferenceEngine:
    engine = InferenceEngine(EngineConfig(window=WINDOW, stride=STRIDE))
    for name, estimator in load_pipelines(_fleet_dir(args)).items():
        engine.register(name, estimator)
    return engine


def _expected(args, key: str):
    with open(_expected_path(args)) as handle:
        return json.load(handle)[key]


def reference(args) -> None:
    assert faults.ACTIVE is None, "the reference cell must run fault-free"
    models = [
        ResNetTSC(ResNetConfig(kernel_size=k, filters=(8, 16, 16), seed=i))
        for i, k in enumerate((5, 7))
    ]
    for model in models:
        model.eval()
    save_pipelines(
        {"kettle": CamAL(ResNetEnsemble(models), detection_threshold=0.0)},
        _fleet_dir(args),
    )
    engine = _engine(args)
    expected = {
        "series": _digest(engine.run(_series()).per_appliance["kettle"].status),
        "store": {
            house_id: {name: _digest(result.status) for name, result in scores}
            for house_id, scores in engine.score_store(MeterStore(args.store))
        },
    }
    with open(_expected_path(args), "w") as handle:
        json.dump(expected, handle)
    print("reference digests:", len(expected["store"]), "household(s)")


def socket_drop(args) -> None:
    assert faults.ACTIVE is not None, "REPRO_FAULTS did not activate"
    engine = _engine(args)
    expected = _expected(args, "series")
    series = _series()
    with ServingDaemon(engine, ServeConfig(port=0)) as daemon:
        with ServingClient(daemon.host, daemon.port) as client:
            for _ in range(SOCKET_DROP_REQUESTS):
                result = client.score_with_retry("kettle", series, max_attempts=8)
                assert _digest(result.status) == expected, (
                    "recovered result differs from fault-free run"
                )
    fired = faults.ACTIVE.stats()["serve.socket_recv"]["fired"]
    assert fired >= 1, "no socket fault fired - the chaos cell is vacuous"
    print(
        f"socket-drop cell: {SOCKET_DROP_REQUESTS} requests recovered, "
        f"{fired} fault(s) fired"
    )


def worker_kill(args) -> None:
    assert faults.ACTIVE is not None, "REPRO_FAULTS did not activate"
    engine = _engine(args)
    expected = _expected(args, "store")
    daemon = ServingDaemon(engine, ServeConfig(port=0), fleet_dir=_fleet_dir(args))
    with daemon:
        with ServingClient(daemon.host, daemon.port, timeout=600.0) as client:
            job = client.submit_store_job(args.store, workers=2)
            snapshot = client.metrics()
    assert job["pool_rebuilds"] >= 1, "no pool rebuild - the chaos cell is vacuous"
    assert snapshot["recovery"]["pool_rebuilds"] >= 1
    assert {row["house_id"] for row in job["rows"]} == set(expected)
    for row in job["rows"]:
        for name, summary in row["appliances"].items():
            assert summary["status_blake2b"] == expected[row["house_id"]][name], (
                f"digest mismatch for {row['house_id']}/{name}"
            )
    print(f"worker-kill cell: {job['pool_rebuilds']} pool rebuild(s), digests equal")


CELLS = {"reference": reference, "socket-drop": socket_drop, "worker-kill": worker_kill}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("cell", choices=sorted(CELLS))
    parser.add_argument(
        "--work", default="chaos-e2e", help="fleet and reference digests (default: %(default)s)"
    )
    parser.add_argument(
        "--store", default=".ci-store/ukdale", help="ingested meter store (default: %(default)s)"
    )
    args = parser.parse_args(argv)
    os.makedirs(args.work, exist_ok=True)
    CELLS[args.cell](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
