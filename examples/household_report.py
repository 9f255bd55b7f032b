"""DeviceScope-style household report: train, save, serve, analyze.

Run:  python examples/household_report.py     (~2 minutes)

Demonstrates the consumer-facing layer of the paper's companion demo
(DeviceScope, ICDE 2025): given a household's aggregate series and a
trained CamAL per appliance, produce per-appliance usage summaries —
number of activations, total ON hours, estimated kWh and peak usage hour
— plus the refined (baseline-subtracted) energy estimate the paper's
§V-I calls for.  The pipelines are persisted with ``save_pipelines`` and
served by a :class:`repro.serving.InferenceEngine` that windows the
aggregate once for all appliances (overlapping windows, stitched status,
no dropped tail).
"""

import os
import tempfile

import numpy as np

import repro.experiments as ex
from repro import simdata as sd
from repro.api import save_pipelines
from repro.core import estimate_power, estimate_power_adaptive, report_from_status
from repro.metrics import mae
from repro.serving import EngineConfig, InferenceEngine

#: REPRO_SMOKE=1 shrinks the run to CI scale (same code paths, seconds).
SMOKE = bool(os.environ.get("REPRO_SMOKE"))


def main():
    if SMOKE:
        preset = ex.smoke_preset()
    else:
        preset = ex.scaled(ex.get_preset("fast"), corpus_days={"ukdale": 6.0, "refit": 4.0,
                           "ideal": 4.0, "edf_ev": 30.0, "edf_weak": 20.0})
    corpus = ex.build_corpus("ukdale", preset)
    split = sd.split_houses(corpus, seed=0)
    target_house = corpus.house(split.test[0])
    print(f"Analyzing unseen household {target_house.house_id} "
          f"({target_house.duration_days:.0f} days at "
          f"{target_house.dt_seconds / 60:.0f}-minute sampling)\n")

    pipelines = {}
    for appliance in ("kettle", "dishwasher"):
        print(f"Training CamAL for {appliance}...")
        case = ex.case_windows(corpus, appliance, preset.window, split_seed=0)
        _, camal = ex.run_camal(case, preset, seed=0)
        pipelines[appliance] = camal

    aggregate = sd.forward_fill(target_house.aggregate, corpus.max_ffill_samples)
    aggregate = np.nan_to_num(aggregate, nan=0.0)

    # Persist the fleet and serve it from disk, as a deployment would: the
    # engine windows the aggregate once and every appliance shares the batch.
    engine = InferenceEngine(
        EngineConfig(
            window=preset.window,
            stride=max(1, preset.window // 2),
            cache_size=4096,
        )
    )
    with tempfile.TemporaryDirectory() as tmp:
        save_pipelines(pipelines, tmp)
        for appliance in pipelines:
            engine.load(appliance, os.path.join(tmp, appliance))
    inference = engine.run(aggregate)

    print()
    for appliance, result in inference:
        report = report_from_status(
            appliance, result.status, aggregate,
            dt_seconds=target_house.dt_seconds,
            min_activation_samples=2, merge_gap_samples=2,
        )
        print(report.render())
        print(f"  windows detected          : {result.detection_rate:.0%}")

        # §V-I refinement: adaptive vs constant-P_a energy estimation,
        # computed on the full stitched status (tail included).  The
        # adaptive estimator's baseline is per-window, so feed it windowed
        # views (plus the partial tail as one final short window).
        spec = sd.get_spec(appliance)
        truth = target_house.appliance_power.get(appliance)
        if truth is not None:
            status = result.status
            constant = estimate_power(status, spec.avg_power_watts, aggregate)
            ceiling = 3 * spec.avg_power_watts
            n_full = (len(aggregate) // preset.window) * preset.window
            adaptive = np.empty_like(aggregate)
            adaptive[:n_full] = estimate_power_adaptive(
                status[:n_full].reshape(-1, preset.window),
                aggregate[:n_full].reshape(-1, preset.window),
                ceiling,
            ).reshape(-1)
            if n_full < len(aggregate):
                adaptive[n_full:] = estimate_power_adaptive(
                    status[n_full:], aggregate[n_full:], ceiling
                )
            print(f"  energy MAE (constant P_a) : {mae(truth, constant):.1f} W")
            print(f"  energy MAE (adaptive)     : {mae(truth, adaptive):.1f} W")
        print()


if __name__ == "__main__":
    main()
