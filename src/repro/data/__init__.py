"""``repro.data`` — the persistent data layer: sharded on-disk meter
store plus a streaming window pipeline feeding training and serving.

The paper preprocesses each corpus once (resample to round timestamps,
bounded forward-fill, discard windows with residual gaps) and every
method reads the repaired series.  This package makes that recipe a
first-class, persistent artifact instead of a per-run generator:

* :mod:`repro.data.store` — the shard format: per-household float32
  power channels + validity mask in fixed-length memory-mapped shards,
  described by an atomic JSON manifest recording sampling rate,
  appliances, possession labels and preprocessing provenance;
* :mod:`repro.data.ingest` — :func:`ingest_corpus` (hermetic, from any
  :class:`repro.simdata.Corpus`) and :func:`ingest_csv_dir`
  (UK-DALE/REFIT-shaped CSV layouts), preprocessing once at ingest,
  optionally across worker processes;
* :mod:`repro.data.streaming` — :class:`StreamingWindows`, a zero-copy
  window reader that is both an :class:`repro.nn.data.Dataset` and a
  :class:`repro.simdata.WindowSet` drop-in.

Quickstart::

    from repro import data, simdata as sd

    store = data.ingest_corpus(sd.ukdale_like(days=7.0), "stores/ukdale")
    train = data.StreamingWindows(store, "kettle", window=510)
    # feeds DataLoader / train_ensemble / fit_on_case unchanged

Serving reads the same shards through
:meth:`repro.serving.InferenceEngine.score_store`; see ``docs/data.md``.
"""

from .ingest import (
    IngestConfig,
    ingest_corpus,
    ingest_csv_dir,
    preprocess_household,
    repair_household_from_source,
)
from .store import (
    AGGREGATE_CHANNEL,
    DEFAULT_SHARD_LENGTH,
    HouseholdMeta,
    ManifestError,
    MeterStore,
    STORE_FORMAT_VERSION,
    ShardCorruptionError,
    StoreIntegrityError,
    write_household_shards,
    write_manifest,
)
from .streaming import StreamingWindows

__all__ = [
    "MeterStore",
    "HouseholdMeta",
    "StreamingWindows",
    "IngestConfig",
    "ingest_corpus",
    "ingest_csv_dir",
    "preprocess_household",
    "repair_household_from_source",
    "write_household_shards",
    "write_manifest",
    "StoreIntegrityError",
    "ManifestError",
    "ShardCorruptionError",
    "AGGREGATE_CHANNEL",
    "DEFAULT_SHARD_LENGTH",
    "STORE_FORMAT_VERSION",
]
