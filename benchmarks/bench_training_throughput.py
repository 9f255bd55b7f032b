"""Training throughput: process-parallel ensemble training vs. serial.

Algorithm 1 trains ``|kernel_set| * n_trials`` independent ResNet
candidates; :func:`repro.core.train_ensemble` with ``n_workers > 1`` fans
them out over a ``ProcessPoolExecutor``.  Because every candidate derives its own seed,
the parallel run must select a bit-identical ensemble — this benchmark
measures the wall-clock win *and* verifies that equivalence, plus the
checkpoint/resume contract (a resumed run reproduces the uninterrupted
loss history exactly).

The serial run is confined to one CPU, so it trains one candidate at a
time.  A third run takes :func:`repro.core.train_ensemble`'s defaults,
which step the candidates in turn on two lanes in-process when
:func:`repro.nn.plan.plan_lanes` gives two lanes (OpenBLAS on one thread,
two or more CPUs): ``lanes_seconds`` times it, ``lanes_speedup`` is
``serial_seconds / lanes_seconds``, and it must select the serial run's
ensemble too.

Run standalone for the JSON report::

    PYTHONPATH=src python benchmarks/bench_training_throughput.py

``--smoke`` shrinks the config for CI.
Through pytest alongside the other paper benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_training_throughput.py -s
"""

import json
import os
import sys
import tempfile
import time

import numpy as np

from repro import nn
from repro.core import EnsembleConfig, ResNetConfig, ResNetTSC, train_ensemble
from repro.experiments.scalability import _on_one_cpu
from repro.training import TrainConfig, state_dicts_equal, train_classifier

N_WORKERS = 2


def _config(smoke: bool) -> EnsembleConfig:
    if smoke:
        train = TrainConfig(epochs=2, batch_size=32, patience=0)
        return EnsembleConfig(
            kernel_set=(3, 5), n_trials=1, n_models=2, filters=(4, 8, 8), train=train
        )
    # Sized so each candidate trains for long enough that pool startup and
    # result pickling are noise — the regime the speedup gate applies to.
    train = TrainConfig(epochs=6, batch_size=32, patience=0)
    return EnsembleConfig(
        kernel_set=(3, 5, 7, 9), n_trials=1, n_models=3, filters=(8, 16, 16), train=train
    )


def _spike_windows(n: int, w: int, seed: int = 0):
    """Synthetic weakly-labeled windows (appliance = additive spike)."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, w)).astype(np.float32) * 0.2
    y = (rng.random(n) > 0.5).astype(np.int64)
    for i in np.flatnonzero(y == 1):
        start = rng.integers(0, w - 5)
        x[i, start : start + 4] += 2.0
    return x, y


def _ensembles_identical(a, b) -> bool:
    return len(a) == len(b) and all(
        state_dicts_equal(model_a.state_dict(), model_b.state_dict())
        for model_a, model_b in zip(a.models, b.models)
    )


def _check_resume(x, y, filters) -> bool:
    """Interrupted-then-resumed training must replay the full-run history."""
    train_full = TrainConfig(epochs=4, batch_size=32, patience=0, seed=0)
    model_full = ResNetTSC(ResNetConfig(kernel_size=3, filters=filters, seed=0))
    full = train_classifier(model_full, x, y, x, y, train_full)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "candidate.npz")
        model_half = ResNetTSC(ResNetConfig(kernel_size=3, filters=filters, seed=0))
        train_classifier(
            model_half, x, y, x, y,
            TrainConfig(epochs=2, batch_size=32, patience=0, seed=0, checkpoint_path=path),
        )
        model_resumed = ResNetTSC(ResNetConfig(kernel_size=3, filters=filters, seed=0))
        resumed = train_classifier(
            model_resumed, x, y, x, y,
            TrainConfig(epochs=4, batch_size=32, patience=0, seed=0, checkpoint_path=path),
        )
    histories_match = (
        resumed.train_losses == full.train_losses
        and resumed.val_losses == full.val_losses
    )
    return histories_match and state_dicts_equal(
        model_full.state_dict(), model_resumed.state_dict()
    )


def run_benchmark(smoke: bool = False, n_workers: int = N_WORKERS) -> dict:
    config = _config(smoke)
    x, y = _spike_windows(n=96 if smoke else 192, w=32 if smoke else 64)

    with _on_one_cpu():
        start = time.perf_counter()
        serial_ensemble, candidates = train_ensemble(x, y, x, y, config)
        serial_seconds = time.perf_counter() - start

    lanes = nn.plan.plan_lanes()
    start = time.perf_counter()
    lanes_ensemble, _ = train_ensemble(x, y, x, y, config)
    lanes_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel_ensemble, _ = train_ensemble(x, y, x, y, config, n_workers=n_workers)
    parallel_seconds = time.perf_counter() - start

    return {
        "benchmark": "training_throughput",
        "smoke": smoke,
        "n_candidates": len(candidates),
        "n_train_windows": len(x),
        "epochs": config.train.epochs,
        "n_workers": n_workers,
        "cpu_count": os.cpu_count() or 1,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / parallel_seconds,
        "parallel_matches_serial": _ensembles_identical(
            serial_ensemble, parallel_ensemble
        ),
        "lanes": lanes,
        "lanes_seconds": lanes_seconds,
        "lanes_speedup": serial_seconds / lanes_seconds,
        "lanes_match_serial": _ensembles_identical(serial_ensemble, lanes_ensemble),
        "resume_matches_uninterrupted": _check_resume(x, y, config.filters),
    }


def test_training_throughput():
    # The speedup gate needs real cores *and* a workload large enough that
    # per-candidate training dominates pool startup, so multi-core machines
    # run the full config; single-CPU runners (where a pool can only add
    # overhead and the gate is moot) keep the fast smoke config.
    multi_core = (os.cpu_count() or 1) >= 2
    result = run_benchmark(smoke=not multi_core)
    print()
    print(json.dumps(result, indent=2))
    # Correctness is asserted unconditionally: worker fan-out, candidate
    # lanes and checkpoint/resume must never change the trained ensemble.
    assert result["parallel_matches_serial"]
    assert result["lanes_match_serial"]
    assert result["resume_matches_uninterrupted"]
    if multi_core:
        assert result["speedup"] >= 1.5


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    report = run_benchmark(smoke=smoke)
    print(json.dumps(report, indent=2))
    # Exit non-zero when a correctness invariant breaks so CI pipelines
    # gate on the run itself, not just on the uploaded artifact.
    if not (
        report["parallel_matches_serial"]
        and report["lanes_match_serial"]
        and report["resume_matches_uninterrupted"]
    ):
        sys.exit(1)
