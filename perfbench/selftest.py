"""Self-test of the benchmark at tiny sizes.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

It checks the self-time arithmetic on a synthetic nested trace and on a
live :class:`~perfbench.spans.Tracer`; the fastest-quarter figures on a
synthetic run; that ``BENCHMARK.json`` and
:mod:`perfbench.metrics` name the same workloads, metrics and units;
that every workload runs end to end, untraced and traced, printing every
metric with its unit, checking its outputs and failing nothing; and that
the benchmark exits non-zero without a result in a directory holding
only ``BENCHMARK.json`` and ``perfbench``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import common  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.spans import Span, Tracer, self_times  # noqa: E402

WORKLOADS = ("serve-compact", "bulk-paper", "train-small")
TINY = [
    "--seconds", "1", "--setups", "1", "--pool", "16", "--houses", "1",
    "--train-windows", "16", "--val-windows", "8", "--epochs", "1",
]
RUN_TIMEOUT_S = 300


class SelfTestError(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SelfTestError(what)


def check_self_times() -> None:
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7].
    spans = [
        Span(1, "a", 0.0, 10.0, None, "t"),
        Span(2, "b", 1.0, 4.0, 1, "t"),
        Span(3, "c", 5.0, 9.0, 1, "t"),
        Span(4, "d", 6.0, 7.0, 3, "t"),
    ]
    expect(self_times(spans) == {1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0}, "synthetic self times")

    class Layer:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    original = Layer.outer
    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    expect(Layer().outer() == 2, "wrapped calls return their results")
    tracer.restore()
    expect(Layer.outer is original, "restore puts the original back")
    (outer,) = [s for s in tracer.spans if s.name == "outer"]
    inner = [s for s in tracer.spans if s.name == "inner"]
    expect(len(inner) == 2 and all(s.parent == outer.id for s in inner), "nesting recorded")
    own = self_times(tracer.spans)[outer.id]
    expect(abs(own - (outer.duration - sum(s.duration for s in inner))) < 1e-12, "live self time")
    expect(0.0 <= own <= outer.duration, "self time within the span")


def check_fast_figures() -> None:
    # Six one-second slices at 10 windows/s and 5 ms, then two slow ones.
    ops = [(float(t), 10.0, 5.0) for t in range(1, 7)] + [(8.0, 10.0, 9.0), (10.0, 10.0, 9.0)]
    run = common.slices(0.0, ops)
    expect([rate for rate, _ in run] == [10.0] * 6 + [5.0] * 2, "slice rates")
    figures, notes = common.fast_figures(run)
    expect(figures == {"windows_per_s": 10.0, "latency_p50_ms": 5.0, "latency_p99_ms": 5.0},
           "figures over the fastest quarter")
    expect(notes["latency_samples"] == 2, "latencies of the kept slices only")
    expect(common.fast_median([4.0, 1.0, 3.0, 2.0, 8.0, 7.0, 6.0, 5.0]) == 1.5, "fast median")


def check_catalog() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS), "workload names")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END, "end-to-end metrics")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER, "per-layer metrics")


def run_benchmark(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--trace", str(trace), *TINY],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )


def check_workload(workload: str, trace: int) -> None:
    done = run_benchmark(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    expect(done.returncode == 0, f"{label} exited {done.returncode}:\n{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} result keys")
    expect(result["correct"] and result["failed"] == 0, f"{label} failed operations")
    expect(result["attempted"] >= 1, f"{label} attempted nothing")
    catalog = PER_LAYER if trace else END_TO_END
    units = {name: cell["unit"] for name, cell in result["metrics"].items()}
    expect(units == catalog, f"{label} metrics/units differ: {sorted(set(units) ^ set(catalog))}")
    values = [cell["value"] for cell in result["metrics"].values()]
    expect(all(math.isfinite(v) for v in values), f"{label} non-finite metric")
    if not trace:
        expect(all(v > 0 for v in values), f"{label} an end-to-end metric read 0")
    print(f"ok  {label}: {result['attempted']} operations")


def check_bare_directory() -> None:
    """Without the program next to it, the benchmark must fail and print no result."""
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_benchmark(bare, "bulk-paper", 0)
        expect(done.returncode != 0, "benchmark succeeded without the program")
        expect('"correct"' not in done.stdout, "benchmark printed a result without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory fails without a result")


def main() -> int:
    check_self_times()
    print("ok  self-time arithmetic")
    check_fast_figures()
    print("ok  figures over the fastest quarter of a run")
    check_catalog()
    print("ok  BENCHMARK.json matches perfbench/metrics.py")
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_workload(workload, trace)
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
