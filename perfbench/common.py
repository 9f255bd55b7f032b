"""Process set-up and measurement helpers shared by every benchmark process.

Each process the benchmark starts calls :func:`pin_blas` before anything
imports NumPy, because OpenBLAS reads its thread count once, when the
library loads; :func:`check_blas_pinned` then asks the loaded library
whether the pin took.  :func:`env_block` names the box a result came
from, including a measured single-thread float32 GEMM peak that
``plan.roofline_frac`` divides by.

This module imports NumPy only inside functions.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for fleets, stores, logs and results.  It sits inside the
#: checkout so that a run reads and writes nothing outside it.
WORK = os.path.join(ROOT, ".perfbench")

#: Thread-count variables of the BLAS and OpenMP runtimes NumPy may load.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

_OPENBLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)

#: Ensemble shapes of the three widths the workloads run, for the FLOP table.
WIDTHS: Dict[str, Tuple[Tuple[int, int, int], Tuple[int, ...]]] = {
    "compact": ((8, 16, 16), (5, 7, 9)),
    "small": ((32, 64, 64), (3, 5, 9)),
    "paper": ((64, 128, 128), (5, 7, 9, 15, 25)),
}
FLOPS_SOURCE = "computed from conv shapes (2*C_out*C_in*K*L_out per conv), not counted by hardware"


def pin_blas() -> None:
    """Pin BLAS/OpenMP to one thread and make ``src`` importable.

    Must run before NumPy is imported.  Inherited ``REPRO_*`` variables are
    dropped so that every run measures the program's shipped defaults.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas() must run before NumPy is imported")
    os.environ.update(BLAS_ENV)
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment of a process the benchmark starts (run it with ``cwd=ROOT``)."""
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = SRC
    return env


def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, or ``None`` if none is loaded."""
    import ctypes

    import numpy  # noqa: F401 - maps the BLAS library into this process

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted(
            {
                line.split()[-1]
                for line in fh
                if "openblas" in line.lower() and ".so" in line.split()[-1]
            }
        )
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _OPENBLAS_THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def check_blas_pinned() -> Optional[int]:
    """Verify the one-thread pin took; returns the thread count it read."""
    threads = blas_threads()
    if threads is not None and threads != 1:
        raise RuntimeError(f"BLAS runs {threads} threads: the one-thread pin did not take")
    return threads


def sgemm_peak_gflops(n: int = 1024, repeats: int = 7) -> float:
    """Best-of-``repeats`` single-thread float32 GEMM rate on ``n x n`` operands."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    out = np.empty((n, n), dtype=np.float32)
    np.matmul(a, b, out=out)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, time.perf_counter() - start)
    return 2.0 * n**3 / best / 1e9


def conv_flops_per_window(
    filters: Sequence[int], kernels: Sequence[int], window: int
) -> float:
    """FLOPs of every convolution of an ensemble on one window.

    Sums ``2 * C_out * C_in * K * L_out`` over the ``Conv1d`` modules of
    each member ResNet built from ``ResNetConfig`` -- one multiply and one
    add per weight tap and output sample.  Batch norm, ReLU, pooling and
    the head are left out.  A count from shapes, not from hardware.
    """
    from repro import nn
    from repro.core import ResNetConfig, ResNetTSC

    total = 0
    for kernel in kernels:
        model = ResNetTSC(ResNetConfig(kernel_size=kernel, filters=tuple(filters)))
        for module in model.modules():
            if isinstance(module, nn.Conv1d):
                c_out, c_in, taps = module.weight.shape
                l_out = (window + 2 * module.padding - taps) // module.stride + 1
                total += 2 * c_out * c_in * taps * l_out
    return float(total)


def flops_table(window: int) -> Dict[str, object]:
    """GFLOP per window at the compact, small and paper widths."""
    table: Dict[str, object] = {
        name: conv_flops_per_window(filters, kernels, window) / 1e9
        for name, (filters, kernels) in WIDTHS.items()
    }
    table["window"] = window
    table["source"] = FLOPS_SOURCE
    return table


def _cpu_model() -> str:
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def git_sha() -> str:
    """Commit of the checkout, or ``"unknown"`` outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    if not os.path.isfile(os.path.join(git, "HEAD")):
        return "unknown"
    with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: ") :]
    loose = os.path.join(git, ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(git, "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return "unknown"


def env_block(threads: Optional[int], sgemm_gflops: float) -> Dict[str, object]:
    """Where a result came from: box, BLAS and its threads, versions, commit."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "sgemm_peak_gflops": sgemm_gflops,
    }


def own_peak_rss_mib() -> float:
    """Peak resident set of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for no values."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if len(values) else 0.0


#: Share of a run, its fastest slices or set-ups, that the end-to-end
#: figures are taken over.  A shared host slows this box by up to half for
#: seconds at a time; how much of a run that covers varies from run to
#: run, so a median over the whole run swings with it.  The fastest
#: quarter is the program on an uncontended box.  The price: a stall that
#: hits only some slices is not seen.
FAST_SHARE = 0.25
#: Shortest slice of a run, in seconds.
SLICE_S = 1.0


def fastest(values: Sequence, key=None) -> list:
    """The ``FAST_SHARE`` of ``values`` (at least one) with the smallest ``key``."""
    return sorted(values, key=key)[: max(1, math.ceil(len(values) * FAST_SHARE))]


def fast_median(durations: Sequence[float]) -> float:
    """Median of the fastest quarter of ``durations``."""
    return float(statistics.median(fastest(durations)))


Slice = Tuple[float, List[float]]  # (work per second, latencies of its operations)


def slices(start: float, ops: Sequence[Tuple[float, float, float]]) -> List[Slice]:
    """Cut a run into slices of at least ``SLICE_S`` seconds.

    ``ops`` are ``(end time, amount, latency)`` per completed operation.  A
    slice opens where the previous one closed and closes at the first
    completion ``SLICE_S`` or more later, so every slice ends on a
    completion; the unfinished tail after the last slice is left out.  A
    run shorter than one slice is one slice up to its last completion.
    """
    out: List[Slice] = []
    opened, amount, latencies = start, 0.0, []
    for end, done, latency in sorted(ops):
        amount += done
        latencies.append(latency)
        if end - opened >= SLICE_S:
            out.append((amount / (end - opened), latencies))
            opened, amount, latencies = end, 0.0, []
    if not out:
        last = max(end for end, _, _ in ops)
        out.append((sum(done for _, done, _ in ops) / (last - start), [lat for *_, lat in ops]))
    return out


def fast_figures(run: Sequence[Slice]) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Rate and latency over the fastest quarter of a run's slices.

    ``windows_per_s`` is the median rate of those slices; the latency
    percentiles are over the operations that completed in them.  Returns
    the figures and notes: that latency sample count and every slice's rate.
    """
    kept = fastest(run, key=lambda s: -s[0])
    latencies = [latency for _, lats in kept for latency in lats]
    figures = {
        "windows_per_s": float(statistics.median(rate for rate, _ in kept)),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p99_ms": percentile(latencies, 99),
    }
    return figures, {"latency_samples": len(latencies), "slice_rates": [r for r, _ in run]}


def forward_layers(
    forward_s: float,
    forward_rows: int,
    gemms: int,
    windows: int,
    flops_per_window: float,
    peak_gflops: float,
) -> Dict[str, float]:
    """Plan and backend metrics from fused-forward time, rows and GEMM calls.

    ``forward_rows`` counts windows through ``forward_fused`` (bucket
    padding included); ``windows`` counts the windows users asked for.
    """
    gflops = flops_per_window * forward_rows / forward_s / 1e9 if forward_s else 0.0
    return {
        "plan.replay_ms_per_window": forward_s / forward_rows * 1e3 if forward_rows else 0.0,
        "plan.gflops": gflops,
        "plan.roofline_frac": gflops / peak_gflops,
        "plan.gflop_per_window": flops_per_window / 1e9,
        "backend.gemm_calls_per_window": gemms / windows if windows else 0.0,
        "backend.sgemm_peak_gflops": peak_gflops,
    }


@dataclass
class Outcome:
    """What one run of a workload measured.

    ``failed`` counts every operation that did not yield a checked result:
    errors, refusals and output-check mismatches alike.
    """

    end_to_end: Dict[str, float]
    attempted: int
    failed: int
    mismatches: int
    layers: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    spans: List[object] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.mismatches == 0 and self.attempted > self.failed

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]
) -> str:
    """The benchmark's last output line."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
