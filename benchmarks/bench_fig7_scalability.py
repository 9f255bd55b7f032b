"""Fig. 7: training-time and inference-throughput comparisons.

Paper shapes: (a) CamAL among the fastest to train, far faster than
CRNN-weak; (b) per-epoch time grows with household count, weakly
supervised methods stay cheaper; (c) CamAL's throughput beats CRNN-weak
and trails only TPNILM and UNet-NILM, timed warm at the bench and paper
widths.
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


FIG7C_METHODS = ["CamAL", "CRNN-weak", "TPNILM", "UNet-NILM"]


def _assert_fig7c_ordering(result):
    """The paper's Fig. 7c ordering at every input length: the purely
    convolutional baselines (TPNILM, UNet-NILM) are "the only two more
    efficient" than CamAL, and CamAL is faster than CRNN-weak."""
    windows_per_s = {method: dict(points) for method, points in result.series.items()}
    for length, camal in windows_per_s["CamAL"].items():
        assert windows_per_s["TPNILM"][length] > camal
        assert windows_per_s["UNet-NILM"][length] > camal
        assert camal > windows_per_s["CRNN-weak"][length]


def test_fig7c_throughput(benchmark, preset):
    result = benchmark.pedantic(
        ex.run_throughput,
        args=(preset, (64, 128)),
        kwargs={"methods": FIG7C_METHODS, "n_windows": 8},
        rounds=1,
        iterations=1,
    )
    print()
    print(result.render())
    _assert_fig7c_ordering(result)
    # The same ordering at the paper's Table II widths.
    paper = ex.run_throughput(
        ex.get_preset("paper"), (64, 128), methods=FIG7C_METHODS, n_windows=8
    )
    print(paper.render())
    _assert_fig7c_ordering(paper)
