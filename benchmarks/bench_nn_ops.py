"""NN-op microbenchmarks: conv kernels, inference mode, buffer pool.

Emits one JSON row per conv shape over the paper's Table-II
ResNet-ensemble inventory (``repro.api.conv_shapes("camal", "paper")``) —
forward and forward+backward throughput of the ``reference`` and
``im2col`` kernels — plus an end-to-end serving-engine row (windows/s and
the buffer pool's steady-state allocation counters) and a
training-determinism block (loss trajectories per kernel).

The speedup structure is shape-dependent by design:

* the ``C_in = 1`` *entry* convolutions (one per member kernel ``k_p``)
  are where the reference gather-copy loses worst — im2col wins several
  fold there;
* the wide mid-stack shapes are GEMM-bound, so both kernels converge to
  BLAS throughput and the margin is thinner.

``--smoke`` asserts the load-bearing claims cheaply for CI:

* im2col beats reference at every paper shape in aggregate (geometric
  mean), and by >= 2x on the entry convolutions;
* the grouped execution plan (traced eval, batched per-layer-group GEMMs)
  beats the per-member module loop >= 1.5x over the paper's five-member
  kernel set at the compact filter preset — the graph-level-fusion
  claim; the BLAS-saturated full-width row rides along unasserted;
* steady-state fused inference performs **zero** fresh pool allocations
  per micro-batch after warm-up;
* training loss trajectories are bit-identical run-to-run under
  ``reference``;
* the sanitizer instrumentation costs < 5% when off, and the tree lints
  clean.

Run standalone for the JSON report::

    PYTHONPATH=src python benchmarks/bench_nn_ops.py [--smoke]
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from repro import api
from repro.nn import backend
from repro.nn import functional as F
from repro.nn.tensor import Tensor

N_WINDOWS = 16  # batch size per conv timing
WINDOW_LENGTH = 128  # Table-II window length for the shape rows
REPEATS = 3

#: Kernels timed per shape.
KERNEL_BACKENDS = ("reference", "im2col")


def _time(fn, repeats=REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def paper_conv_shapes():
    """The distinct Table-II conv signatures of the CamAL paper ensemble."""
    return api.conv_shapes("camal", scale="paper")


def bench_conv_shapes(shapes=None, n=N_WINDOWS, length=WINDOW_LENGTH):
    """Per-kernel forward / forward+backward timings for each conv shape."""
    rng = np.random.default_rng(0)
    rows = []
    for c_in, c_out, kernel in shapes or paper_conv_shapes():
        pad = (kernel - 1) // 2
        x_data = rng.normal(size=(n, c_in, length)).astype(np.float32)
        w_data = rng.normal(size=(c_out, c_in, kernel)).astype(np.float32) * 0.1
        row = {
            "c_in": c_in,
            "c_out": c_out,
            "kernel": kernel,
            "n": n,
            "length": length,
        }
        for name in KERNEL_BACKENDS:
            with backend.use_backend(name):
                x = Tensor(x_data)
                w = Tensor(w_data)
                F.conv1d(x, w, padding=pad)  # warm-up
                fwd = _time(lambda: F.conv1d(x, w, padding=pad))

                xg = Tensor(x_data, requires_grad=True)
                wg = Tensor(w_data, requires_grad=True)

                def fwd_bwd():
                    xg.grad = wg.grad = None
                    F.conv1d(xg, wg, padding=pad).sum().backward()

                fwd_bwd()  # warm-up
                row[f"{name}_fwd_s"] = fwd
                row[f"{name}_fwd_bwd_s"] = _time(fwd_bwd)
        row["im2col_speedup"] = row["reference_fwd_s"] / row["im2col_fwd_s"]
        rows.append(row)
    return rows


def _geomean(values):
    values = np.asarray(list(values), dtype=np.float64)
    return float(np.exp(np.log(values).mean())) if len(values) else float("nan")


def summarize_conv(rows):
    entry = [r for r in rows if r["c_in"] == 1 and r["kernel"] > 1]
    return {
        "entry_geomean_speedup_im2col": _geomean(r["im2col_speedup"] for r in entry),
        "geomean_speedup_im2col": _geomean(r["im2col_speedup"] for r in rows),
    }


def bench_fused_ensemble(n=8, length=128, filters=(4, 8, 8), repeats=7):
    """Traced grouped-GEMM plan vs the per-member module loop.

    Builds the paper's five-member kernel set ``{5,7,9,15,25}`` at the
    given filter widths and times ``forward_fused`` two ways over the same
    batch: with ``REPRO_NN_PLAN=off`` (the per-member loop with the fused
    conv epilogue) and through the traced plan whose conv layers run as
    one batched GEMM per shape group.  The loop/plan timings are
    interleaved and each reported as a min-of-``repeats`` so a scheduler
    stall on a shared box cannot skew the ratio in either direction.

    The headline ``fused_speedup`` (plan vs fused per-member loop) is
    asserted ``>= 1.5x`` in ``--smoke`` at the *compact* filter preset
    ``(4, 8, 8)``, where the per-member loop is dispatch-bound and the
    plan's zero-dispatch replay is a structural win.  At the full paper
    width ``(64, 128, 128)`` both paths are BLAS-saturated and the
    margin shrinks to ~1.2-1.4x — that row is reported in the JSON for
    the record but not asserted.
    """
    import os

    from repro.core import DEFAULT_KERNEL_SET, ResNetConfig, ResNetEnsemble, ResNetTSC

    models = [
        ResNetTSC(ResNetConfig(kernel_size=k, filters=filters, seed=i)).eval()
        for i, k in enumerate(DEFAULT_KERNEL_SET)
    ]
    ensemble = ResNetEnsemble(models)
    x = (np.random.default_rng(3).random((n, length)) * 2.0).astype(np.float32)

    saved = os.environ.get("REPRO_NN_PLAN")

    def run(plan: bool):
        os.environ.pop("REPRO_NN_PLAN", None) if plan else os.environ.update(
            REPRO_NN_PLAN="off"
        )
        return ensemble.forward_fused(x, batch_size=n)

    try:
        run(plan=False)  # warm the pool
        run(plan=True)  # traces + validates the plan
        backend.reset_op_counts()
        run(plan=True)  # one pure replay for the count
        gemms_per_batch = backend.op_counts()["fused_conv_gemms"]
        mins = {"loop": float("inf"), "plan": float("inf")}
        for _ in range(repeats):
            for key, plan in (("loop", False), ("plan", True)):
                start = time.perf_counter()
                run(plan)
                mins[key] = min(mins[key], time.perf_counter() - start)
    finally:
        if saved is None:
            os.environ.pop("REPRO_NN_PLAN", None)
        else:
            os.environ["REPRO_NN_PLAN"] = saved
    return {
        "n_members": len(models),
        "n": n,
        "length": length,
        "filters": list(filters),
        "member_loop_s": mins["loop"],
        "fused_plan_s": mins["plan"],
        "fused_speedup": mins["loop"] / mins["plan"],
        "grouped_gemms_per_batch": gemms_per_batch,
        "plan": ensemble.plan_cache.stats,
    }


def summarize_fused_ensemble(rows):
    """Batch-size sweep of the plan-vs-loop ratio, summarized by geomean.

    The smoke assertion targets the geometric mean across batch sizes so
    one noisy sample on a busy box cannot flip the verdict either way.
    """
    return {
        "rows": rows,
        "geomean_fused_speedup": _geomean(r["fused_speedup"] for r in rows),
        "grouped_gemms_per_batch": rows[0]["grouped_gemms_per_batch"],
        "plan": rows[-1]["plan"],
    }


def bench_engine(series_length=6000):
    """End-to-end serving windows/s + the pool's steady-state counters."""
    from repro.core import CamAL, ResNetConfig, ResNetEnsemble, ResNetTSC
    from repro.serving import EngineConfig, InferenceEngine
    from repro.serving.windowing import plan_windows

    models = [
        ResNetTSC(ResNetConfig(kernel_size=k, filters=(8, 16, 16), seed=i))
        for i, k in enumerate((5, 7, 9))
    ]
    camal = CamAL(ResNetEnsemble(models), detection_threshold=0.0)
    engine = InferenceEngine(EngineConfig(window=128, stride=64, batch_size=64))
    engine.register("appliance", camal)
    series = (np.random.default_rng(1).random(series_length) * 2000.0).astype(
        np.float32
    )

    engine.run(series)  # warm-up: populates the buffer pool, traces plans
    warm_allocations = camal.ensemble.buffer_pool.fresh_allocations
    seconds = _time(lambda: engine.run(series), repeats=2)
    stats = camal.ensemble.buffer_pool.stats
    n_windows = plan_windows(series_length, 128, 64).n_windows
    return {
        "series_length": series_length,
        "n_windows": n_windows,
        "windows_per_sec": n_windows / seconds,
        "steady_state_fresh_allocations": stats["fresh_allocations"]
        - warm_allocations,
        "pool": stats,
        "plan": engine.plan_stats().get("appliance", {}),
    }


def bench_training_determinism(epochs=3):
    """Loss trajectories per kernel: reference bit-identity, im2col deviation."""
    from repro.core import ResNetConfig, ResNetTSC
    from repro.training import TrainConfig, train_classifier

    rng = np.random.default_rng(2)
    x = rng.normal(size=(48, 64)).astype(np.float32)
    y = (rng.random(48) > 0.5).astype(np.int64)
    cfg = TrainConfig(epochs=epochs, batch_size=16, patience=0, lr=1e-3, seed=0)

    def trajectory(mode):
        with backend.use_backend(mode):
            model = ResNetTSC(
                ResNetConfig(kernel_size=5, filters=(4, 8, 8), seed=0)
            )
            return train_classifier(model, x, y, x, y, cfg).train_losses

    ref_a = trajectory("reference")
    ref_b = trajectory("reference")
    im2col = trajectory("im2col")
    return {
        "epochs": epochs,
        "reference_losses": ref_a,
        "im2col_losses": im2col,
        "reference_bit_identical": ref_a == ref_b,
        "im2col_max_rel_dev": float(
            np.max(np.abs(np.array(im2col) - ref_a) / np.abs(ref_a))
        ),
    }


class _RawPool:
    """The pre-instrumentation BufferPool take/step loop, replicated.

    The sanitizer claim is "free when off": the instrumented pool with
    ``_tracker is None`` must time the same as the pool as it was before
    the tracker existed.  There is no pre-instrumentation class left to
    import, so this replica *is* the baseline — same dict layout, same
    allocation counters, same branch structure minus the tracker checks.
    """

    def __init__(self):
        self._free = {}
        self._taken = []
        self.fresh_allocations = 0
        self.reuses = 0
        self.bytes_allocated = 0

    def take(self, shape, dtype=np.float32):
        key = (tuple(int(s) for s in shape), np.dtype(dtype).str)
        free = self._free.get(key)
        if free:
            arr = free.pop()
            self.reuses += 1
        else:
            arr = np.empty(key[0], dtype=dtype)
            self.fresh_allocations += 1
            self.bytes_allocated += arr.nbytes
        self._taken.append((key, arr))
        return arr

    def step(self):
        for key, arr in self._taken:
            self._free.setdefault(key, []).append(arr)
        self._taken.clear()


def bench_sanitizer(iters=600, repeats=31):
    """Pool take/step throughput: raw replica vs instrumented (off and on).

    ``disabled_overhead`` is the contract number: the instrumented pool
    with the sanitizer off vs the pre-instrumentation replica, on the
    steady-state (all-reuse) loop.  The two are timed as pairs — one run
    of each per repeat, back to back in alternating order — and the
    overhead is the median of the per-pair ratios, so a slow spell on a
    shared host lands on both sides of a ratio instead of skewing one
    side's best time.  The enabled row is informational — poison-filling
    every released buffer is the point, not a regression.
    """
    from repro.analysis import sanitize
    from repro.nn.backend.pool import BufferPool

    shapes = ((8, 128), (8, 16, 128), (8, 16 * 5, 128), (16, 8, 128))

    def loop(pool):
        def run():
            for _ in range(iters):
                for shape in shapes:
                    pool.take(shape)
                pool.step()
        run()  # populate the free lists: timed runs are all-reuse
        return run

    with sanitize.force(False):  # pools read the flag at construction
        runs = {"raw": loop(_RawPool()), "disabled": loop(BufferPool())}
    times = {key: [] for key in runs}
    for rep in range(repeats):
        for key in sorted(runs, reverse=rep % 2 == 1):
            times[key].append(_time(runs[key], repeats=1))
    ratios = np.array(times["disabled"]) / np.array(times["raw"])
    raw_s = min(times["raw"])
    sanitize.reset_stats()
    with sanitize.force(True):
        enabled_s = _time(loop(BufferPool()), repeats=repeats)
    enabled_stats = sanitize.stats()
    return {
        "iters": iters,
        "raw_pool_s": raw_s,
        "disabled_s": min(times["disabled"]),
        "enabled_s": enabled_s,
        "disabled_overhead": float(np.median(ratios)) - 1.0,
        "enabled_overhead": enabled_s / raw_s - 1.0,
        "enabled_poison_fills": enabled_stats["poison_fills"],
        "enabled_generation_bumps": enabled_stats["generation_bumps"],
    }


def bench_lint():
    """Self-lint of src/ + benchmarks/ (the CI gate, timed and counted)."""
    from repro.analysis.lint import run_lint

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    start = time.perf_counter()
    report = run_lint(["src", "benchmarks"], root=root)
    elapsed = time.perf_counter() - start
    counts = report.counts()
    counts["lint_s"] = elapsed
    counts["rules_violated"] = sorted({v.rule for v in report.errors})
    return counts


def run_report(smoke=False):
    conv_rows = bench_conv_shapes()
    report = {
        "benchmark": "nn_ops",
        "default_backend": backend.get_backend(),
        "conv_shapes": conv_rows,
        "summary": summarize_conv(conv_rows),
        "fused_ensemble": summarize_fused_ensemble(
            [bench_fused_ensemble(n=n) for n in (4, 8, 16)]
        ),
        "fused_ensemble_paper_width": bench_fused_ensemble(
            n=16, filters=(64, 128, 128), repeats=2 if smoke else 4
        ),
        "engine": bench_engine(series_length=3000 if smoke else 6000),
        "training": bench_training_determinism(),
        "analysis": {
            "sanitizer": bench_sanitizer(),
            "lint": bench_lint(),
        },
    }
    return report


def check_smoke(report):
    """The CI assertions; raises AssertionError with the offending numbers."""
    summary = report["summary"]
    assert summary["entry_geomean_speedup_im2col"] >= 2.0, (
        "im2col must beat reference >=2x on the paper's entry convs: "
        f"{summary['entry_geomean_speedup_im2col']:.2f}x"
    )
    assert summary["geomean_speedup_im2col"] > 1.0, (
        "im2col must beat reference across the Table-II inventory: "
        f"{summary['geomean_speedup_im2col']:.2f}x"
    )
    fused = report["fused_ensemble"]
    assert fused["geomean_fused_speedup"] >= 1.5, (
        "the grouped execution plan must beat the per-member loop >=1.5x "
        "(geomean over batch sizes) over the paper kernel set: "
        f"{fused['geomean_fused_speedup']:.2f}x"
    )
    engine = report["engine"]
    assert engine["steady_state_fresh_allocations"] == 0, (
        "steady-state fused inference must allocate nothing from the pool: "
        f"{engine['steady_state_fresh_allocations']} fresh allocations"
    )
    training = report["training"]
    assert training["reference_bit_identical"], (
        "reference-backend training must be bit-deterministic"
    )
    analysis = report["analysis"]
    assert analysis["sanitizer"]["disabled_overhead"] < 0.05, (
        "sanitizer instrumentation must be free when off (<5% on the raw "
        f"pool loop): {analysis['sanitizer']['disabled_overhead']:.1%}"
    )
    assert analysis["sanitizer"]["enabled_poison_fills"] > 0, (
        "the enabled sanitizer run must actually poison released buffers"
    )
    assert analysis["lint"]["errors"] == 0, (
        "the tree must lint clean: "
        f"{analysis['lint']['errors']} errors in rules "
        f"{analysis['lint']['rules_violated']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="assert the speedup / zero-allocation / determinism contracts",
    )
    args = parser.parse_args(argv)
    report = run_report(smoke=args.smoke)
    print(json.dumps(report, indent=2))
    if args.smoke:
        check_smoke(report)
        print("smoke checks passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
