"""``repro.serving`` — batched, long-series, multi-appliance inference.

The training-side packages (:mod:`repro.core`, :mod:`repro.experiments`)
operate on pre-cut windows.  Serving a household means the opposite
direction: one long aggregate series, many appliances, and a latency
budget.  This package provides that layer:

* :mod:`repro.serving.windowing` — :class:`SlidingWindowPlan`: configurable
  stride/overlap slicing with edge padding (no dropped tail) and
  overlap-aware stitching of per-window scores back onto the series;
* :mod:`repro.serving.engine` — :class:`InferenceEngine`: registers many
  per-appliance :class:`~repro.core.CamAL` pipelines, windows the
  aggregate once, runs all appliances over the shared window batch with
  micro-batching and an optional LRU result cache, and returns stitched
  per-timestamp status covering 100 % of the input.  Its
  :meth:`~InferenceEngine.score_store` bulk path streams every household
  of an ingested :class:`repro.data.MeterStore` in shard-sized chunks;
* :mod:`repro.serving.server` — :class:`ServingDaemon`: the long-lived
  fleet-scale layer (``repro serve``).  Serves concurrent scoring
  requests over a newline-delimited-JSON TCP protocol
  (:mod:`repro.serving.protocol`) with cross-request micro-batch
  coalescing, per-appliance admission control/backpressure, graceful
  SIGTERM drain, shard-parallel bulk store jobs, and a metrics endpoint;
* :mod:`repro.serving.client` — :class:`ServingClient`: the blocking
  reference client (``score_series`` / ``submit_store_job`` /
  ``metrics``).

See ``docs/serving.md`` for the windowing/stitching semantics, the
daemon's protocol/metrics specification, and ``docs/data.md`` for the
store-backed bulk path.
"""

from .client import RETRYABLE_CODES, ScoreResult, ServerError, ServingClient
from .engine import (
    ApplianceSeriesResult,
    ApplianceStoreScores,
    EngineConfig,
    HouseholdInference,
    HouseholdScores,
    InferenceEngine,
)
from .server import ServeConfig, ServingDaemon
from .windowing import SlidingWindowPlan, plan_windows, slice_windows, stitch_mean

__all__ = [
    "SlidingWindowPlan",
    "plan_windows",
    "slice_windows",
    "stitch_mean",
    "EngineConfig",
    "InferenceEngine",
    "ApplianceSeriesResult",
    "HouseholdInference",
    "ApplianceStoreScores",
    "HouseholdScores",
    "ServeConfig",
    "ServingDaemon",
    "ServingClient",
    "ScoreResult",
    "ServerError",
    "RETRYABLE_CODES",
]
