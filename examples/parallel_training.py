"""Parallel ensemble training with resumable checkpoints.

Run:  python examples/parallel_training.py     (~1 minute on a laptop CPU)

Steps shown:
 1. build a simulated UK-DALE-like corpus and weakly labeled windows;
 2. train the CamAL ensemble serially, then again with worker processes
    (`train_ensemble(n_workers=...)`) — and verify the ensembles are identical;
 3. interrupt a training run, resume it from its checkpoint, and verify
    the resumed loss history matches the uninterrupted one bit-for-bit;
 4. persist the pipeline for `InferenceEngine.load`.
"""

import os
import tempfile
import time

import repro.experiments as ex
from repro.api import save_estimator
from repro.core import CamAL, ResNetConfig, ResNetTSC, train_ensemble
from repro.training import TrainConfig, state_dicts_equal, train_classifier

APPLIANCE = "kettle"

#: REPRO_SMOKE=1 shrinks the run to CI scale (same code paths, seconds).
SMOKE = bool(os.environ.get("REPRO_SMOKE"))


def main():
    preset = ex.smoke_preset() if SMOKE else ex.get_preset("bench")
    print(f"Building UK-DALE-like corpus ({preset.corpus_days['ukdale']:.0f} days/house)...")
    corpus = ex.build_corpus("ukdale", preset)
    case = ex.case_windows(corpus, APPLIANCE, preset.window, split_seed=0)
    config = preset.ensemble_config(seed=0)
    print(
        f"  {len(case.train)} train windows, "
        f"{len(config.kernel_set) * config.n_trials} ensemble candidates"
    )

    # -- serial vs. parallel ------------------------------------------------
    start = time.perf_counter()
    serial, _ = train_ensemble(
        case.train.inputs, case.train.weak, case.val.inputs, case.val.weak, config
    )
    serial_s = time.perf_counter() - start

    workers = min(os.cpu_count() or 1, len(config.kernel_set) * config.n_trials)
    start = time.perf_counter()
    parallel, _ = train_ensemble(
        case.train.inputs, case.train.weak, case.val.inputs, case.val.weak,
        config, n_workers=workers,
    )
    parallel_s = time.perf_counter() - start

    identical = all(
        state_dicts_equal(ma.state_dict(), mb.state_dict())
        for ma, mb in zip(serial.models, parallel.models)
    )
    print(f"\nSerial   : {serial_s:.1f}s")
    print(f"Parallel : {parallel_s:.1f}s with {workers} worker(s) "
          f"(speedup {serial_s / parallel_s:.2f}x)")
    print(f"Ensembles bit-identical: {identical}")

    # -- checkpoint / resume ------------------------------------------------
    x, y = case.train.inputs, case.train.weak
    model_cfg = ResNetConfig(
        kernel_size=config.kernel_set[0], filters=config.filters, seed=0
    )
    full_model = ResNetTSC(model_cfg)
    loop_cfg = TrainConfig(epochs=4, batch_size=32, patience=0, seed=0)
    full = train_classifier(full_model, x, y, x, y, loop_cfg)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "candidate.npz")
        # "Interrupt" after 2 of 4 epochs, checkpointing as we go...
        train_classifier(
            ResNetTSC(model_cfg), x, y, x, y,
            TrainConfig(epochs=2, batch_size=32, patience=0, seed=0,
                        checkpoint_path=path),
        )
        # ...then resume in a fresh model, as a restarted process would.
        resumed_model = ResNetTSC(model_cfg)
        resumed = train_classifier(
            resumed_model, x, y, x, y,
            TrainConfig(epochs=4, batch_size=32, patience=0, seed=0,
                        checkpoint_path=path),
        )
    print(f"\nResumed from epoch {resumed.resumed_from_epoch}:")
    print(f"  loss history matches uninterrupted run: "
          f"{resumed.train_losses == full.train_losses}")
    same_weights = state_dicts_equal(
        full_model.state_dict(), resumed_model.state_dict()
    )
    print(f"  final weights bit-identical            : {same_weights}")

    # -- persist for serving ------------------------------------------------
    camal = CamAL(parallel, power_gate_watts=case.spec.on_threshold_watts)
    out_dir = os.path.join(tempfile.gettempdir(), "camal_kettle_pipeline")
    save_estimator(camal, out_dir)
    print(f"\nPipeline saved to {out_dir} (load with InferenceEngine.load)")


if __name__ == "__main__":
    main()
