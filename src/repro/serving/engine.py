"""The serving engine: many appliances, one pass over the aggregate.

``household_report`` used to re-window the aggregate once per appliance
and drop the trailing partial window.  :class:`InferenceEngine` fixes the
workload shape for deployment:

* the aggregate is scaled and windowed **once** (a
  :class:`~repro.serving.windowing.SlidingWindowPlan`), and every
  registered appliance pipeline runs over that shared window batch;
* a pipeline is anything speaking the :class:`repro.api.WeakLocalizer`
  serving surface — ``eval()``, ``localize(windows, batch_size)`` and the
  ``status_threshold`` / ``power_gate_watts`` knobs.  Raw
  :class:`~repro.core.CamAL` pipelines, registry estimators
  (``repro.api.create``) and every §V-C baseline adapter all qualify, so
  baselines get windowed long-series multi-appliance serving for free;
* each pipeline runs its localization in micro-batches of ``batch_size``
  windows (CamAL's is the fused single-forward path);
* an optional LRU cache keyed on ``(appliance, window-content hash)``
  short-circuits windows already scored — flat overnight stretches and
  re-analyzed days hit the cache instead of the conv stack;
* per-window soft scores are stitched (overlap mean, then the
  pipeline's ON rule) into a per-timestamp status covering 100 % of the
  input, including the tail;
* :meth:`InferenceEngine.score_store` is the bulk path over an ingested
  :class:`repro.data.MeterStore`: households stream shard-sized window
  chunks through the same pipelines and stitcher, so scoring a long
  recording never materializes its full window batch — peak memory is
  bounded by the chunk (≈ one shard), not the series.

**Thread safety.**  The engine may be driven from many threads at once
(the serving daemon's connection handlers and per-appliance coalescers
do exactly that).  Scoring is serialized behind one engine-wide lock:
the fused CamAL path runs through per-ensemble ``BufferPool`` arenas and
traced plans that are inherently single-writer, and the LRU result cache
is one ``OrderedDict`` shared across appliances.  Windowing and
stitching (:meth:`InferenceEngine.window_series` /
:meth:`InferenceEngine.stitch_result`) touch only request-local arrays
and run lock-free, so concurrent callers overlap everything except the
forward pass itself.  Concurrent :meth:`InferenceEngine.run` calls are
bit-identical to serial ones (regression-tested from 8 threads in
``tests/test_serving.py``).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..core.localization import LocalizationOutput, on_status
from ..simdata.preprocessing import SCALE_DIVISOR
from .windowing import SlidingWindowPlan, _Stitcher, plan_windows, slice_windows, stitch_mean

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..data.store import MeterStore

#: Cached per-window result: (probability, detected flag, cam row, soft
#: row, status row) — the *complete* ``LocalizationOutput`` row, so a
#: cache hit replays exactly what the pipeline produced rather than
#: recomputing any part of it (recomputing ``detected`` from the cached
#: probability is how cached and uncached runs drift apart).
_CacheRow = Tuple[float, bool, np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class EngineConfig:
    """Serving knobs of the :class:`InferenceEngine`."""

    window: int  # window length fed to the pipelines
    stride: Optional[int] = None  # hop between windows; None = window
    batch_size: int = 256  # micro-batch size per forward pass
    cache_size: int = 0  # LRU entries across appliances; 0 disables


@dataclass
class ApplianceSeriesResult:
    """One appliance's output over a full series."""

    appliance: str
    windows: LocalizationOutput  # per-window batch output
    soft_status: np.ndarray  # (T,) stitched soft score
    status: np.ndarray  # (T,) stitched binary status
    cache_hits: int = 0

    @property
    def detection_rate(self) -> float:
        """Fraction of windows where the appliance was detected."""
        n = len(self.windows.detected)
        return float(self.windows.detected.sum()) / n if n else 0.0


@dataclass
class HouseholdInference:
    """Everything the engine produces for one aggregate series."""

    plan: SlidingWindowPlan
    per_appliance: Dict[str, ApplianceSeriesResult] = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return self.plan.series_length

    def status(self, appliance: str) -> np.ndarray:
        return self.per_appliance[appliance].status

    def __iter__(self):
        return iter(self.per_appliance.items())


@dataclass
class ApplianceStoreScores:
    """One appliance's stitched output for one stored household.

    The bulk path keeps the per-timestamp series but **not** the
    ``(n_windows, window)`` batch arrays — retaining those would defeat
    the bounded-memory contract of :meth:`InferenceEngine.score_store`.
    """

    appliance: str
    soft_status: np.ndarray  # (T,) stitched soft score
    status: np.ndarray  # (T,) stitched binary status
    n_windows: int
    n_detected: int
    cache_hits: int = 0

    @property
    def detection_rate(self) -> float:
        """Fraction of windows where the appliance was detected."""
        return self.n_detected / self.n_windows if self.n_windows else 0.0


@dataclass
class HouseholdScores:
    """Everything :meth:`InferenceEngine.score_store` yields per household."""

    house_id: str
    plan: SlidingWindowPlan
    per_appliance: Dict[str, ApplianceStoreScores] = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return self.plan.series_length

    def status(self, appliance: str) -> np.ndarray:
        return self.per_appliance[appliance].status

    def __iter__(self):
        return iter(self.per_appliance.items())


def _series_status(pipeline, soft: np.ndarray, watts: np.ndarray) -> np.ndarray:
    """The pipeline's ON rule over stitched scores, power-gated in Watts."""
    return on_status(
        soft,
        float(getattr(pipeline, "status_threshold", 0.5)),
        watts,
        getattr(pipeline, "power_gate_watts", None),
    )


class InferenceEngine:
    """Batched multi-appliance inference over long aggregate series.

    Serves any estimator implementing the :class:`repro.api.WeakLocalizer`
    serving surface — the CamAL pipeline and every registered baseline
    adapter alike.  Typical use::

        engine = InferenceEngine(EngineConfig(window=256, stride=128))
        engine.register("kettle", kettle_camal)       # CamAL or estimator
        engine.load("dishwasher", "models/dishwasher")  # any saved model
        result = engine.run(aggregate_watts)
        status = result.status("kettle")  # (len(aggregate_watts),)
    """

    def __init__(self, config: EngineConfig):
        if config.window <= 0:
            raise ValueError(f"window must be positive, got {config.window}")
        if config.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {config.batch_size}")
        self.config = config
        self.pipelines: Dict[str, object] = {}
        self._cache: "OrderedDict[Tuple[str, bytes], _CacheRow]" = OrderedDict()
        #: Serializes every forward pass plus the LRU-cache bookkeeping
        #: around it.  Reentrant so ``run`` / ``warmup`` may compose the
        #: locked primitives freely.
        self._lock = threading.RLock()

    # -- pipeline registry ------------------------------------------------
    def register(self, appliance: str, pipeline) -> "InferenceEngine":
        """Attach a trained pipeline under ``appliance`` (replaces any).

        ``pipeline`` is a :class:`~repro.core.CamAL` or any
        :class:`repro.api.WeakLocalizer`.  Replacing a pipeline drops the
        appliance's cached window results, so a retrained model is never
        served the old model's scores.
        """
        if not callable(getattr(pipeline, "localize", None)):
            raise TypeError(
                f"pipeline for {appliance!r} must implement localize(); got "
                f"{type(pipeline).__name__}"
            )
        # Switch to inference mode through whichever hook the pipeline has
        # (estimators/CamAL expose eval(); bare ensembles their .ensemble).
        if callable(getattr(pipeline, "eval", None)):
            pipeline.eval()
        elif hasattr(pipeline, "ensemble"):
            pipeline.ensemble.eval()
        with self._lock:
            if appliance in self.pipelines:
                for key in [k for k in self._cache if k[0] == appliance]:
                    del self._cache[key]
            self.pipelines[appliance] = pipeline
        return self

    def load(
        self, appliance: str, directory: str, warm: bool = True
    ) -> "InferenceEngine":
        """Load any persisted estimator directory and register it.

        Dispatches through :func:`repro.api.persistence.load_estimator`,
        so CamAL and every baseline adapter serve alike.  With ``warm`` (the
        default) the engine immediately pushes one batch of zeros through
        the new pipeline so the plan layer traces its execution plan
        *now*, not on the first real request.
        """
        from ..api.persistence import load_estimator

        self.register(appliance, load_estimator(directory))
        if warm:
            self.warmup(appliance)
        return self

    def warmup(self, appliance: Optional[str] = None) -> "InferenceEngine":
        """Prime the execution-plan caches with a dummy batch.

        Runs ``(batch_size, window)`` zeros through each selected
        pipeline — the same shapes real serving uses, so every plan
        signature the tracer would record is warm before the first
        request.
        """
        names = list(self.pipelines) if appliance is None else [appliance]
        windows = np.zeros((self.config.batch_size, self.config.window), np.float32)
        with self._lock:
            for name in names:
                self.pipelines[name].localize(windows, self.config.batch_size)
        return self

    @property
    def appliances(self) -> List[str]:
        return list(self.pipelines)

    # -- cache ------------------------------------------------------------
    @property
    def cache_entries(self) -> int:
        with self._lock:
            return len(self._cache)

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()

    @staticmethod
    def _window_key(appliance: str, window: np.ndarray) -> Tuple[str, bytes]:
        return appliance, hashlib.blake2b(window.tobytes(), digest_size=16).digest()

    def _cache_put(self, key: Tuple[str, bytes], row: _CacheRow) -> None:
        self._cache[key] = row
        self._cache.move_to_end(key)
        while len(self._cache) > self.config.cache_size:
            self._cache.popitem(last=False)

    # -- inference --------------------------------------------------------
    def window_series(
        self, aggregate_watts: np.ndarray
    ) -> Tuple[np.ndarray, SlidingWindowPlan, np.ndarray]:
        """Validate, scale and window a raw aggregate series **once**.

        Returns ``(aggregate, plan, windows)`` where ``aggregate`` is the
        float32 Watt series, ``plan`` the sliding-window layout and
        ``windows`` the contiguous ``(n_windows, window)`` scaled batch
        every pipeline shares.  Touches only request-local arrays, so
        concurrent callers (the serving daemon's connection handlers)
        need no lock.
        """
        aggregate_watts = np.asarray(aggregate_watts, dtype=np.float32)
        if aggregate_watts.ndim != 1:
            raise ValueError("InferenceEngine.run expects a 1-D aggregate series")
        if np.isnan(aggregate_watts).any():
            raise ValueError("aggregate contains NaNs; forward-fill it first")
        plan = plan_windows(
            len(aggregate_watts), self.config.window, self.config.stride
        )
        windows = np.ascontiguousarray(
            slice_windows(aggregate_watts / SCALE_DIVISOR, plan)
        )
        return aggregate_watts, plan, windows

    def localize_windows(
        self, appliance: str, windows: np.ndarray
    ) -> Tuple[LocalizationOutput, int]:
        """Score a scaled window batch with one registered pipeline.

        The thread-safe scoring primitive: consults/updates the LRU
        result cache and runs the forward pass — both behind the engine
        lock, because the fused path's buffer pools and traced plans are
        single-writer and the cache is shared across appliances.  Returns
        ``(LocalizationOutput, cache_hits)``.

        This is also the serving daemon's coalescing point: windows
        stacked from many concurrent requests score in one call, and the
        im2col/grouped-plan backend's bit-level batch-size invariance
        makes the stacked rows identical to per-request calls.
        """
        pipeline = self.pipelines.get(appliance)
        if pipeline is None:
            raise KeyError(f"no pipeline registered for appliance {appliance!r}")
        with self._lock:
            return self._localize_cached(appliance, pipeline, windows)

    def stitch_result(
        self,
        appliance: str,
        plan: SlidingWindowPlan,
        output: LocalizationOutput,
        aggregate_watts: np.ndarray,
        cache_hits: int = 0,
    ) -> ApplianceSeriesResult:
        """Stitch per-window scores back onto the series for one appliance.

        Overlap-mean stitch, then the pipeline's ON rule on the series:
        its threshold, and its power gate in Watts, so stitching can never
        turn a below-gate timestamp ON.  Lock-free: reads only immutable
        pipeline knobs.
        """
        soft = stitch_mean(output.soft_status, plan)
        return ApplianceSeriesResult(
            appliance=appliance,
            windows=output,
            soft_status=soft,
            status=_series_status(self.pipelines[appliance], soft, aggregate_watts),
            cache_hits=cache_hits,
        )

    def run(
        self,
        aggregate_watts: np.ndarray,
        appliances: Optional[Iterable[str]] = None,
    ) -> HouseholdInference:
        """Analyze a raw (Watt) aggregate series with every registered pipeline.

        Args:
            aggregate_watts: 1-D NaN-free aggregate series.
            appliances: subset of registered appliances (default: all).

        Returns:
            A :class:`HouseholdInference` whose per-appliance stitched
            ``status``/``soft_status`` cover every input timestamp.
        """
        names = self._names(appliances)
        # Scale once, window once; every appliance shares this batch.
        aggregate_watts, plan, windows = self.window_series(aggregate_watts)

        result = HouseholdInference(plan=plan)
        for name in names:
            output, hits = self.localize_windows(name, windows)
            result.per_appliance[name] = self.stitch_result(
                name, plan, output, aggregate_watts, cache_hits=hits
            )
        return result

    def _names(self, appliances: Optional[Iterable[str]]) -> List[str]:
        """The selected appliances (default: all); an unregistered one raises."""
        names = list(self.pipelines) if appliances is None else list(appliances)
        for name in names:
            if name not in self.pipelines:
                raise KeyError(f"no pipeline registered for appliance {name!r}")
        return names

    def _ensemble_stats(self, attr: str) -> Dict[str, Dict[str, int]]:
        """``.stats`` of each fused ensemble's ``attr`` (its pool), or what
        ``attr`` returns when it is a method (``plan_stats``).

        Covers pipelines whose serving path runs through the fused
        ensemble (CamAL and its estimator adapter); other estimators, and
        ensembles that have not created ``attr`` yet, report nothing.
        """
        stats: Dict[str, Dict[str, int]] = {}
        for name, pipeline in self.pipelines.items():
            ensemble = getattr(pipeline, "ensemble", None)
            if ensemble is None:  # estimator adapter wrapping a CamAL
                ensemble = getattr(
                    getattr(pipeline, "pipeline", None), "ensemble", None
                )
            owner = getattr(ensemble, attr, None)
            found = owner() if callable(owner) else getattr(owner, "stats", None)
            if found:
                stats[name] = found
        return stats

    def buffer_pool_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-appliance :class:`repro.nn.backend.BufferPool` counters.

        ``fresh_allocations`` staying flat across runs is the
        allocation-free steady-state guarantee the benchmark asserts.
        """
        return self._ensemble_stats("_pool")

    def plan_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-appliance execution-plan cache counters (repro.nn.plan).

        Pipelines serving through the fused ensemble report ``plans`` /
        ``traces`` / ``replays`` / ``fallbacks``, summed over both plan
        caches (``ResNetEnsemble.plan_stats``).  In steady state ``replays``
        grows while ``traces`` stays flat — every batch reuses a recorded
        plan instead of re-dispatching through the module graph.
        """
        return self._ensemble_stats("plan_stats")

    def _localize_cached(
        self, appliance: str, pipeline, windows: np.ndarray
    ) -> Tuple[LocalizationOutput, int]:
        """Localize a window batch, serving repeats from the LRU cache."""
        if self.config.cache_size <= 0:
            return pipeline.localize(windows, self.config.batch_size), 0

        n, length = windows.shape
        proba = np.zeros(n, dtype=np.float32)
        detected = np.zeros(n, dtype=bool)
        cam = np.zeros((n, length), dtype=np.float32)
        soft = np.zeros((n, length), dtype=np.float32)
        status = np.zeros((n, length), dtype=np.float32)

        keys = [self._window_key(appliance, windows[i]) for i in range(n)]
        misses: List[int] = []
        hits = 0
        for i, key in enumerate(keys):
            row = self._cache.get(key)
            if row is None:
                misses.append(i)
                continue
            self._cache.move_to_end(key)
            hits += 1
            proba[i], detected[i], cam[i], soft[i], status[i] = row
        if misses:
            miss_idx = np.asarray(misses)
            fresh = pipeline.localize(windows[miss_idx], self.config.batch_size)
            proba[miss_idx] = fresh.detection_proba
            detected[miss_idx] = fresh.detected
            cam[miss_idx] = fresh.cam
            soft[miss_idx] = fresh.soft_status
            status[miss_idx] = fresh.status
            for j, i in enumerate(misses):
                # Copy the rows: caching views would pin the whole batch's
                # arrays in memory for as long as any one row survives.
                self._cache_put(
                    keys[i],
                    (
                        float(fresh.detection_proba[j]),
                        bool(fresh.detected[j]),
                        fresh.cam[j].copy(),
                        fresh.soft_status[j].copy(),
                        fresh.status[j].copy(),
                    ),
                )
        output = LocalizationOutput(
            detection_proba=proba,
            detected=detected,
            cam=cam,
            soft_status=soft,
            status=status,
        )
        return output, hits

    # -- bulk path over an ingested store ---------------------------------
    def score_store(
        self,
        store: "MeterStore",
        house_ids: Optional[Iterable[str]] = None,
        appliances: Optional[Iterable[str]] = None,
        chunk_windows: Optional[int] = None,
    ) -> Iterator[Tuple[str, HouseholdScores]]:
        """Stream every household of a :class:`repro.data.MeterStore`.

        Generator yielding ``(house_id, HouseholdScores)`` — results are
        bit-identical to :meth:`run` on the household's materialized
        series (gaps beyond the ingest fill bound read as 0 W, exactly as
        the reporting path serves them), but the aggregate is consumed in
        shard-sized window chunks: at no point does the engine hold a
        household's full ``(n_windows, window)`` batch, so peak memory is
        bounded by the chunk size plus the per-timestamp outputs.

        Args:
            store: an ingested meter store.
            house_ids: subset of households (default: every house).
            appliances: subset of registered appliances (default: all).
            chunk_windows: windows scored per chunk; defaults to roughly
                one shard's worth, rounded up to a whole number of
                ``batch_size`` micro-batches.
        """
        # Validate eagerly (this is not the generator) so a bad appliance
        # name raises at the call site, exactly like run().
        names = self._names(appliances)
        houses = list(store.house_ids if house_ids is None else house_ids)
        if chunk_windows is not None and chunk_windows <= 0:
            raise ValueError(f"chunk_windows must be positive, got {chunk_windows}")

        def scores() -> Iterator[Tuple[str, HouseholdScores]]:
            for house_id in houses:
                yield house_id, self._score_household(
                    store, house_id, names, chunk_windows
                )

        return scores()

    def _chunk_windows_default(self, plan: SlidingWindowPlan, shard_length: int) -> int:
        """Shard-sized chunking, aligned to whole ``batch_size`` batches."""
        per_shard = max(1, shard_length // plan.stride)
        batch = self.config.batch_size
        return max(batch, -(-per_shard // batch) * batch)

    def _score_household(
        self,
        store: "MeterStore",
        house_id: str,
        names: List[str],
        chunk_windows: Optional[int],
    ) -> HouseholdScores:
        from ..data.store import AGGREGATE_CHANNEL

        n = store.n_samples(house_id)
        plan = plan_windows(n, self.config.window, self.config.stride)
        chunk = chunk_windows or self._chunk_windows_default(plan, store.shard_length)

        stitchers = {name: _Stitcher(plan) for name in names}
        detected = {name: 0 for name in names}
        hits = {name: 0 for name in names}
        for first in range(0, plan.n_windows, chunk):
            last = min(first + chunk, plan.n_windows)
            start = plan.window_start(first)
            stop = min(plan.window_start(last - 1) + plan.window, n)
            raw = store.read_channel(house_id, AGGREGATE_CHANNEL, start, stop)
            # The chunk's own plan covers windows first..last-1, tail
            # padding included, so it slices them as window_series does.
            chunk_plan = plan_windows(stop - start, plan.window, plan.stride)
            windows = np.ascontiguousarray(
                slice_windows(raw / SCALE_DIVISOR, chunk_plan)
            )
            for name in names:
                output, chunk_hits = self.localize_windows(name, windows)
                stitchers[name].add(first, output.soft_status)
                detected[name] += int(output.detected.sum())
                hits[name] += chunk_hits

        result = HouseholdScores(house_id=house_id, plan=plan)
        for name in names:
            soft = stitchers[name].finalize()
            status = np.empty_like(soft)
            # run()'s ON rule, one shard of Watts at a time.
            for lo, hi in store.iter_sample_ranges(house_id):
                watts = store.read_channel(house_id, AGGREGATE_CHANNEL, lo, hi)
                status[lo:hi] = _series_status(self.pipelines[name], soft[lo:hi], watts)
            result.per_appliance[name] = ApplianceStoreScores(
                appliance=name,
                soft_status=soft,
                status=status,
                n_windows=plan.n_windows,
                n_detected=detected[name],
                cache_hits=hits[name],
            )
        return result
