"""Span recorders around the public calls into each layer of the program.

They are installed from the benchmark's own files only: in-process for
bulk-paper and train-small, and inside the benchmark-side daemon
launcher (:mod:`perfbench.daemon`) for serve-compact.  Every probe wraps
a public function or method; the program itself is unchanged.
"""

from __future__ import annotations

import importlib
import threading
from typing import Dict

from .spans import Tracer


def _gemms() -> int:
    from repro.nn import backend

    return backend.op_counts().get("fused_conv_gemms", 0)


def _rows(args, kwargs, result, state):
    """Windows passed to a ``(self, x, ...)`` method."""
    x = args[1] if len(args) > 1 else kwargs["x"]
    return None, {"rows": int(len(x))}


def install_engine_probes(tracer: Tracer) -> None:
    """Windowing, engine scoring, stitching, localization and the fused forward.

    In the daemon, ``window_series`` runs on the connection's handler
    thread and ``stitch_result`` on the appliance's coalescer thread.
    Both see the same aggregate array, which ties a stitch span to the
    request it served: ``<handler thread>#<n-th request on it>``.
    ``CamAL.localize`` runs inside the engine lock, so the GEMM count read
    around it belongs to that call alone.
    """
    from repro.core import CamAL, ResNetEnsemble
    from repro.serving import InferenceEngine

    lock = threading.Lock()
    seen: Dict[str, int] = {}
    pending: Dict[int, str] = {}

    def window_post(args, kwargs, result, state):
        thread = threading.current_thread().name
        with lock:
            seen[thread] = seen.get(thread, 0) + 1
            request = f"{thread}#{seen[thread]}"
            pending[id(result[0])] = request
        return request, {"rows": int(result[2].shape[0])}

    def engine_rows(args, kwargs, result, state):
        windows = args[2] if len(args) > 2 else kwargs["windows"]
        return None, {"rows": int(windows.shape[0])}

    def stitch_post(args, kwargs, result, state):
        plan = args[2] if len(args) > 2 else kwargs["plan"]
        aggregate = args[4] if len(args) > 4 else kwargs["aggregate_watts"]
        with lock:
            request = pending.pop(id(aggregate), None)
        return request, {"windows": int(plan.n_windows)}

    def localize_post(args, kwargs, result, gemms_before):
        attrs = _rows(args, kwargs, result, None)[1]
        attrs["gemms"] = _gemms() - gemms_before
        return None, attrs

    tracer.wrap(InferenceEngine, "window_series", "engine.window_series", post=window_post)
    tracer.wrap(InferenceEngine, "localize_windows", "engine.localize_windows", post=engine_rows)
    tracer.wrap(InferenceEngine, "stitch_result", "engine.stitch_result", post=stitch_post)
    tracer.wrap(
        CamAL, "localize", "localization.localize", pre=lambda a, k: _gemms(), post=localize_post
    )
    tracer.wrap(ResNetEnsemble, "forward_fused", "ensemble.forward_fused", post=_rows)


def install_store_probes(tracer: Tracer) -> None:
    """Store reads, and one span per household ``score_store`` yields."""
    from repro.data import MeterStore
    from repro.serving import InferenceEngine

    def read_post(args, kwargs, result, state):
        return None, {"bytes": int(result.nbytes)}

    def household_post(item):
        house_id, scores = item
        return house_id, {"windows": int(scores.plan.n_windows)}

    tracer.wrap(MeterStore, "read_channel", "store.read_channel", post=read_post)
    tracer.wrap_iterator(InferenceEngine, "score_store", "engine.score_store", post=household_post)


def install_training_probes(tracer: Tracer) -> None:
    """Algorithm 1 and its per-batch steps: forward, backward, optimizer step.

    Callers must reach ``train_ensemble`` through the
    ``repro.core.ensemble`` module for its span to be recorded.
    """
    from repro import nn
    from repro.core import ResNetTSC
    from repro.nn.tensor import is_grad_enabled

    algorithm1 = importlib.import_module("repro.core.ensemble")

    def grad_mode(args, kwargs, result, grad):
        return None, {"grad": float(grad)}

    tracer.wrap(algorithm1, "train_ensemble", "training.train_ensemble")
    tracer.wrap(algorithm1, "train_classifier", "training.train_classifier")
    tracer.wrap(
        ResNetTSC, "forward", "training.forward", pre=lambda a, k: is_grad_enabled(), post=grad_mode
    )
    tracer.wrap(nn.Tensor, "backward", "training.backward")
    tracer.wrap(nn.Adam, "step", "training.step")
