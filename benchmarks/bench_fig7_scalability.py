"""Fig. 7: training-time and inference-throughput comparisons.

Paper shapes: (a) CamAL among the fastest to train, far faster than
CRNN-weak; (b) per-epoch time grows with household count, weakly
supervised methods stay cheaper; (c) CamAL's throughput beats CRNN-weak.
"""

import repro.experiments as ex


def test_fig7a_training_times(benchmark, preset):
    result = benchmark.pedantic(
        ex.run_training_times,
        args=(preset, [("ukdale", "kettle")]),
        kwargs={"methods": ["CamAL", "CRNN-weak", "TPNILM"]},
        rounds=1,
        iterations=1,
    )
    print()
    print(result.render())
    assert all(seconds > 0 for seconds in result.seconds_per_method.values())


def test_fig7b_epoch_time_vs_households(benchmark, preset):
    result = benchmark.pedantic(
        ex.run_epoch_times,
        args=(preset, (1, 2)),
        kwargs={
            "methods": ["CamAL", "CRNN-weak", "TPNILM", "UNet-NILM"],
            # Scaled-down white-noise series (paper: 17520 = 1 year @ 30 min).
            "series_length": preset.window * 8,
        },
        rounds=1,
        iterations=1,
    )
    print()
    print(result.render())
    for method, points in result.series.items():
        counts = [c for c, _ in points]
        assert counts == sorted(counts)
        assert all(t > 0 for _, t in points)


def test_fig7c_throughput(benchmark, preset):
    result = benchmark.pedantic(
        ex.run_throughput,
        args=(preset, (64, 128)),
        kwargs={"methods": ["CamAL", "CRNN-weak", "TPNILM", "UNet-NILM"], "n_windows": 8},
        rounds=1,
        iterations=1,
    )
    print()
    print(result.render())
    # Paper shape that survives down-scaling: the purely convolutional
    # baselines (TPNILM, UNet-NILM) are the fastest at inference ("the only
    # two more efficient" than CamAL in Fig. 7c).  The CamAL-vs-CRNN-weak
    # ordering only emerges at paper scale, where the CRNN's 350-unit GRU
    # over 510-step windows dominates.
    camal = dict(result.series["CamAL"])
    assert dict(result.series["TPNILM"])[128] > camal[128]
    assert dict(result.series["UNet-NILM"])[128] > camal[128]
    assert all(tps > 0 for _, tps in result.series["CRNN-weak"])
