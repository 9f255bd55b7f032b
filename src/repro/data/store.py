"""The on-disk meter store: sharded, memory-mapped household recordings.

A store is a directory holding one JSON manifest plus fixed-length raw
float32 shards per household::

    store/
      manifest.json
      shards/
        ukdale_h1/
          00000.f32
          00001.f32
        ukdale_h2/
          ...

Every shard file is a little-endian float32 matrix of shape
``(n_channels + 1, shard_length)`` written atomically (tmp file +
``os.replace``) and read back as an ``np.memmap`` — opening a store costs
one JSON parse, and reading a window touches only the pages it covers.
Row layout:

* rows ``0 .. n_channels-1`` — the household's power channels in manifest
  order (``aggregate`` first, then the submetered appliances);
* the **last row** is the validity mask: ``1.0`` where the aggregate
  sample was recorded (or repaired by the bounded forward-fill at
  ingest), ``0.0`` where it is missing beyond the fill bound or is tail
  padding of the final shard.  NaN values are stored as ``0.0`` — raw
  reads are always NaN-free — and :meth:`MeterStore.read_channel`
  reconstructs the aggregate's gaps on demand for exact round-trips.
  Submeter channels keep their recorded values even where the aggregate
  has a gap: ground truth is never discarded.

The manifest records the sampling rate, target appliances, per-household
possession answers, and the full preprocessing provenance (resample
factor, fill bound, tail policy) so a store is self-describing: training
and serving never need the original corpus again.  It also records each
shard's checksum and a ``checksum`` of its own other fields
(:func:`repro.nn.serialization.manifest_checksum`), so an edited label
or sample count raises :class:`ManifestError` on open.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis import faults, sanitize
from ..nn.serialization import checksum, manifest_checksum, write_atomic

#: On-disk manifest schema version.
STORE_FORMAT_VERSION = 2

#: Default samples per shard (float32 rows; one channel row is 256 KiB).
DEFAULT_SHARD_LENGTH = 65536

#: Name of the mandatory first channel of every household.
AGGREGATE_CHANNEL = "aggregate"

MANIFEST_NAME = "manifest.json"
_SHARDS_DIR = "shards"
_QUARANTINE_DIR = "quarantine"

#: Open memmaps kept per store (LRU).  A memmap costs an open+mmap pair
#: of syscalls; window reads hit the same shard thousands of times, so
#: re-opening per read would dominate the streaming hot path.  Kept well
#: under typical fd limits — a store may hold millions of shards.
_MMAP_CACHE_SIZE = 32


class StoreIntegrityError(RuntimeError):
    """Base class for store corruption the reader can prove."""


class ManifestError(StoreIntegrityError):
    """The manifest is unreadable, malformed, or self-inconsistent."""


class ShardCorruptionError(StoreIntegrityError):
    """A shard file fails its size or checksum contract (or is quarantined)."""

    def __init__(self, house_id: str, shard: int, reason: str):
        super().__init__(f"house {house_id!r} shard {shard}: {reason}")
        self.house_id = house_id
        self.shard = shard
        self.reason = reason


def write_manifest(store_dir: str, manifest: Dict) -> None:
    """Atomically persist the store manifest, signed with its checksum.

    The ``checksum`` entry is (re)computed over every other field, so
    quarantine and repair re-sign what they change.

    The manifest is written **last** during ingest, so a directory with a
    readable manifest always describes a complete set of shards — a
    crashed ingest leaves no half-valid store behind.  That is also why
    the ``store.shard_write`` fault point covers shards only: a torn
    manifest is a crashed ingest, while a torn shard under an intact
    manifest is the silent corruption the checksums exist to catch.
    """
    fields = {key: value for key, value in manifest.items() if key != "checksum"}
    payload = json.dumps(dict(fields, checksum=manifest_checksum(fields)), indent=2)
    write_atomic(os.path.join(store_dir, MANIFEST_NAME), payload.encode())


def write_household_shards(
    store_dir: str,
    house_id: str,
    channels: Dict[str, np.ndarray],
    mask: np.ndarray,
    shard_length: int,
) -> List[str]:
    """Write one household's channels+mask as fixed-length shards.

    ``channels`` maps channel name -> float32 series; all series and the
    boolean ``mask`` must share one length.  NaN values are stored as
    ``0.0`` (the mask records which aggregate samples were actually
    recorded); non-NaN values are kept verbatim, so submeter readings
    survive aggregate gaps.  Returns the per-shard blake2b checksums in
    shard order (so ``len(...)`` is the shard count); the manifest records
    them for lazy/eager verification on the read side.
    """
    if AGGREGATE_CHANNEL not in channels:
        raise ValueError(f"{house_id}: channels must include {AGGREGATE_CHANNEL!r}")
    if shard_length <= 0:
        raise ValueError(f"shard_length must be positive, got {shard_length}")
    names = channel_order(channels)
    n = len(mask)
    for name in names:
        if len(channels[name]) != n:
            raise ValueError(
                f"{house_id}: channel {name!r} has {len(channels[name])} samples, "
                f"mask has {n}"
            )
    matrix = _stack_household_matrix(names, channels, mask)

    house_dir = os.path.join(store_dir, _SHARDS_DIR, house_id)
    n_shards = max(1, -(-n // shard_length))  # ceil; at least one shard
    return [
        write_atomic(
            os.path.join(house_dir, f"{k:05d}.f32"),
            _shard_payload(matrix, k, shard_length, n),
            fault_point="store.shard_write",
        )
        for k in range(n_shards)
    ]


def _stack_household_matrix(
    names: Sequence[str], channels: Dict[str, np.ndarray], mask: np.ndarray
) -> np.ndarray:
    """Stack channels + mask into the ``(n_channels + 1, n)`` shard layout."""
    rows = [
        np.nan_to_num(np.asarray(channels[name], dtype=np.float32), nan=0.0)
        for name in names
    ]
    rows.append(np.asarray(mask, dtype=bool).astype(np.float32))
    return np.stack(rows)


def _shard_payload(matrix: np.ndarray, k: int, shard_length: int, n: int) -> bytes:
    """Bytes of shard ``k``: the sliced matrix, zero-padded to full length."""
    start, stop = k * shard_length, min((k + 1) * shard_length, n)
    shard = np.zeros((matrix.shape[0], shard_length), dtype="<f4")
    shard[:, : stop - start] = matrix[:, start:stop]
    return shard.tobytes()


def channel_order(channels: Dict[str, np.ndarray] | Sequence[str]) -> List[str]:
    """Canonical row order: ``aggregate`` first, appliances sorted."""
    names = list(channels)
    if AGGREGATE_CHANNEL not in names:
        raise ValueError(f"channels must include {AGGREGATE_CHANNEL!r}")
    return [AGGREGATE_CHANNEL] + sorted(n for n in names if n != AGGREGATE_CHANNEL)


@dataclass(frozen=True)
class HouseholdMeta:
    """Manifest entry for one household."""

    house_id: str
    n_samples: int
    n_shards: int
    channels: Tuple[str, ...]  # shard row order; the mask row is implicit
    possession: Dict[str, bool]
    submetered: Tuple[str, ...]
    checksums: Tuple[str, ...]  # per-shard blake2b hex digests
    #: Shards moved aside by :meth:`MeterStore.verify` — shard index ->
    #: corruption reason.  Reads of a quarantined shard raise instead of
    #: returning bytes known to be wrong.
    quarantined: Dict[int, str] = field(default_factory=dict)

    def channel_row(self, channel: str) -> int:
        try:
            return self.channels.index(channel)
        except ValueError:
            raise KeyError(
                f"house {self.house_id!r} has no channel {channel!r}; "
                f"available: {list(self.channels)}"
            ) from None

    @property
    def mask_row(self) -> int:
        return len(self.channels)


class MeterStore:
    """Read-side handle on an ingested store directory.

    Duck-compatible with :class:`repro.simdata.Corpus` where the rest of
    the system needs it: exposes ``name``, ``house_ids``,
    ``submetered_house_ids``, ``target_appliances``, ``dt_seconds`` and
    ``possession_labels``, so house-level splitting
    (:func:`repro.simdata.split_houses`) works on a store unchanged.
    """

    def __init__(self, path: str):
        self.path = path
        manifest_path = os.path.join(path, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise FileNotFoundError(
                f"{path!r} is not a meter store (missing {MANIFEST_NAME}); "
                f"ingest one with repro.data.ingest_corpus or 'repro data ingest'"
            )
        try:
            with open(manifest_path) as handle:
                self.manifest: Dict = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ManifestError(
                f"{path!r}: {MANIFEST_NAME} is not valid JSON ({exc}); the "
                f"store is unreadable — re-ingest it"
            ) from exc
        if not isinstance(self.manifest, dict):
            raise ManifestError(
                f"{path!r}: {MANIFEST_NAME} must hold a JSON object, "
                f"got {type(self.manifest).__name__}"
            )
        version = self.manifest.get("format")
        if version != STORE_FORMAT_VERSION:
            raise ValueError(
                f"{path!r}: unsupported store format {version!r} "
                f"(this build reads format {STORE_FORMAT_VERSION})"
            )
        recorded = self.manifest.pop("checksum", None)
        digest = manifest_checksum(self.manifest)
        if digest != recorded:
            raise ManifestError(
                f"{path!r}: {MANIFEST_NAME} checksum mismatch: it records "
                f"{recorded}, its fields hash to {digest}"
            )
        # Cached memmaps carry the stat signature seen at open, so a file
        # deleted or replaced underneath the LRU is detected on the next
        # hit instead of serving a stale (or SIGBUS-prone) mapping.
        self._mmaps: "OrderedDict[Tuple[str, int], Tuple[np.ndarray, Tuple[int, int, int]]]" = (
            OrderedDict()
        )
        #: ``(house_id, shard)`` -> stat signature at verification time.
        #: A shard is re-hashed whenever the file identity on disk no
        #: longer matches the signature it was verified under.
        self._verified: Dict[Tuple[str, int], Tuple[int, int, int]] = {}
        self.households: Dict[str, HouseholdMeta] = {}
        try:
            entries = self.manifest["households"].items()
        except (KeyError, AttributeError) as exc:
            raise ManifestError(
                f"{path!r}: {MANIFEST_NAME} has no 'households' table"
            ) from exc
        for house_id, entry in entries:
            try:
                self.households[house_id] = self._meta_from_entry(house_id, entry)
            except (KeyError, TypeError, ValueError) as exc:
                raise ManifestError(
                    f"{path!r}: malformed manifest entry for house "
                    f"{house_id!r}: {exc}"
                ) from exc

    @staticmethod
    def _meta_from_entry(house_id: str, entry: Dict) -> HouseholdMeta:
        checksums = tuple(entry["checksums"])
        n_shards = int(entry["n_shards"])
        if len(checksums) != n_shards:
            raise ValueError(f"{len(checksums)} checksums for {n_shards} shards")
        return HouseholdMeta(
            house_id=house_id,
            n_samples=int(entry["n_samples"]),
            n_shards=n_shards,
            channels=tuple(entry["channels"]),
            possession={k: bool(v) for k, v in entry["possession"].items()},
            submetered=tuple(entry["submetered"]),
            checksums=checksums,
            quarantined={
                int(k): str(v) for k, v in entry.get("quarantined", {}).items()
            },
        )

    # -- corpus-compatible metadata ---------------------------------------
    @property
    def name(self) -> str:
        return self.manifest["name"]

    @property
    def dt_seconds(self) -> float:
        return float(self.manifest["dt_seconds"])

    @property
    def shard_length(self) -> int:
        return int(self.manifest["shard_length"])

    @property
    def target_appliances(self) -> List[str]:
        return list(self.manifest["target_appliances"])

    @property
    def preprocessing(self) -> Dict:
        """Provenance recorded at ingest (resample factor, fill bound, ...)."""
        return dict(self.manifest["preprocessing"])

    @property
    def house_ids(self) -> List[str]:
        return list(self.households)

    @property
    def submetered_house_ids(self) -> List[str]:
        return list(self.manifest["submetered_house_ids"])

    def possession_labels(self, appliance: str) -> Dict[str, bool]:
        """Per-household ownership answers for one appliance."""
        return {
            hid: meta.possession.get(appliance, False)
            for hid, meta in self.households.items()
        }

    def __len__(self) -> int:
        return len(self.households)

    def house_meta(self, house_id: str) -> HouseholdMeta:
        try:
            return self.households[house_id]
        except KeyError:
            raise KeyError(f"{self.name}: no house {house_id!r}") from None

    def n_samples(self, house_id: str) -> int:
        return self.house_meta(house_id).n_samples

    def total_samples(self) -> int:
        return sum(meta.n_samples for meta in self.households.values())

    # -- shard access ------------------------------------------------------
    def shard_path(self, house_id: str, shard: int) -> str:
        return os.path.join(self.path, _SHARDS_DIR, house_id, f"{shard:05d}.f32")

    def _stat_signature(self, path: str) -> Optional[Tuple[int, int, int]]:
        """File identity used to validate cached memmaps (None = gone)."""
        try:
            st = os.stat(path)
        except OSError:
            return None
        return (st.st_ino, st.st_size, st.st_mtime_ns)

    def _expected_shard_bytes(self, meta: HouseholdMeta) -> int:
        return (len(meta.channels) + 1) * self.shard_length * 4

    def shard(self, house_id: str, shard: int) -> np.ndarray:
        """Memory-map one shard, shape ``(n_channels + 1, shard_length)``.

        Maps are read-only and cached in a small LRU, so streaming many
        windows out of one shard opens its file once.  Cache hits are
        stat-validated: a shard file deleted or replaced underneath the
        LRU evicts the stale mapping and reopens (re-verifying the
        checksum) instead of serving bytes from a vanished file.  The
        first open of each shard verifies its manifest checksum; failures
        raise :class:`ShardCorruptionError` rather than returning data
        known to be wrong.
        """
        meta = self.house_meta(house_id)
        if not 0 <= shard < meta.n_shards:
            raise IndexError(
                f"house {house_id!r} has {meta.n_shards} shards, asked for {shard}"
            )
        key = (house_id, shard)
        path = self.shard_path(house_id, shard)
        cached = self._mmaps.get(key)
        if cached is not None:
            mapped, signature = cached
            if self._stat_signature(path) == signature:
                self._mmaps.move_to_end(key)
                return mapped
            del self._mmaps[key]
            self._verified.pop(key, None)
        if shard in meta.quarantined:
            raise ShardCorruptionError(
                house_id, shard,
                f"quarantined ({meta.quarantined[shard]}); repair it with "
                f"MeterStore.repair_shard or re-ingest the household",
            )
        if faults.ACTIVE is not None:
            faults.ACTIVE.fire("store.shard_read", token=key)
        signature = self._stat_signature(path)
        if signature is None or self._verified.get(key) != signature:
            reason = self._shard_fault_reason(house_id, meta, shard)
            if reason is not None:
                raise ShardCorruptionError(house_id, shard, reason)
            signature = self._verified[key]
        mapped = np.memmap(
            path,
            dtype="<f4",
            mode="r",
            shape=(len(meta.channels) + 1, self.shard_length),
        )
        self._mmaps[key] = (mapped, signature)
        while len(self._mmaps) > _MMAP_CACHE_SIZE:
            self._mmaps.popitem(last=False)
        return mapped

    def _read_row(self, house_id: str, row: int, start: int, stop: int) -> np.ndarray:
        """Assemble one shard row over ``[start, stop)`` sample positions.

        Returns a zero-copy memmap view when the range lies inside a
        single shard; ranges crossing a shard boundary are concatenated
        (one copy of exactly the requested samples).
        """
        meta = self.house_meta(house_id)
        if not 0 <= start <= stop <= meta.n_samples:
            raise IndexError(
                f"range [{start}, {stop}) outside house {house_id!r} "
                f"({meta.n_samples} samples)"
            )
        if start == stop:
            return sanitize.freeze(np.zeros(0, dtype=np.float32))
        length = self.shard_length
        first, last = start // length, (stop - 1) // length
        if first == last:
            return self.shard(house_id, first)[row, start - first * length : stop - first * length]
        pieces = []
        for k in range(first, last + 1):
            lo = max(start, k * length) - k * length
            hi = min(stop, (k + 1) * length) - k * length
            pieces.append(self.shard(house_id, k)[row, lo:hi])
        # In-shard views above are read-only already (mode="r" memmaps);
        # freezing the concatenated copy extends the same no-write
        # guarantee to shard-straddling reads under REPRO_NN_SANITIZE=1.
        return sanitize.freeze(np.concatenate(pieces))

    def read_mask(
        self, house_id: str, start: int = 0, stop: Optional[int] = None
    ) -> np.ndarray:
        """Validity mask over ``[start, stop)`` as a boolean array."""
        meta = self.house_meta(house_id)
        stop = meta.n_samples if stop is None else stop
        return sanitize.freeze(
            self._read_row(house_id, meta.mask_row, start, stop) > 0.0
        )

    def read_channel(
        self,
        house_id: str,
        channel: str,
        start: int = 0,
        stop: Optional[int] = None,
        nan_gaps: bool = False,
    ) -> np.ndarray:
        """Read one channel over ``[start, stop)`` as float32 Watts.

        With ``nan_gaps=False`` (the default) the stored values come back
        NaN-free (aggregate gaps read as ``0.0``) and in-shard ranges are
        zero-copy memmap views.  ``nan_gaps=True`` writes NaN over masked
        positions — for the aggregate this reconstructs the
        post-preprocessing gaps exactly (a copy is made only when the
        range contains one); submeter channels keep real readings at
        masked positions, so leave it off for them.
        """
        meta = self.house_meta(house_id)
        stop = meta.n_samples if stop is None else stop
        values = self._read_row(house_id, meta.channel_row(channel), start, stop)
        if not nan_gaps:
            return values
        mask = self.read_mask(house_id, start, stop)
        if mask.all():
            return values
        values = np.array(values, dtype=np.float32)
        values[~mask] = np.nan  # written before the view is frozen
        return sanitize.freeze(values)

    def aggregate(self, house_id: str, nan_gaps: bool = True) -> np.ndarray:
        """The household's full aggregate series (gaps as NaN by default)."""
        return self.read_channel(house_id, AGGREGATE_CHANNEL, nan_gaps=nan_gaps)

    def iter_sample_ranges(
        self, house_id: str
    ) -> Iterator[Tuple[int, int]]:
        """Shard-aligned ``(start, stop)`` sample ranges covering the house."""
        n = self.n_samples(house_id)
        for start in range(0, n, self.shard_length):
            yield start, min(start + self.shard_length, n)

    # -- integrity: verify / quarantine / repair ---------------------------
    def _shard_fault_reason(
        self, house_id: str, meta: HouseholdMeta, shard: int
    ) -> Optional[str]:
        """Reason shard ``shard`` fails its integrity contract, or None.

        A shard that passes is marked verified under its stat signature.
        """
        path = self.shard_path(house_id, shard)
        signature = self._stat_signature(path)
        if signature is None:
            return f"shard file missing: {path}"
        expected = self._expected_shard_bytes(meta)
        if signature[1] != expected:
            return f"truncated: {signature[1]} bytes on disk, expected {expected}"
        with open(path, "rb") as handle:
            digest = checksum(handle.read())
        if digest != meta.checksums[shard]:
            return (
                f"checksum mismatch: manifest records "
                f"{meta.checksums[shard]}, file hashes to {digest}"
            )
        self._verified[(house_id, shard)] = signature
        return None

    def verify(self, quarantine: bool = False) -> Dict[str, Dict[int, str]]:
        """Eagerly check every shard; returns corrupt shards per household.

        The result maps ``house_id -> {shard_index: reason}`` and is empty
        for a healthy store.  Shards that pass are marked verified, so
        subsequent memmap opens skip the lazy re-hash.  With
        ``quarantine=True`` every newly found corrupt shard is moved to
        ``<store>/quarantine/<house>/`` and annotated in the manifest —
        later reads raise :class:`ShardCorruptionError` instead of mapping
        a file known to be bad, and :meth:`repair_shard` can rebuild it.
        """
        findings: Dict[str, Dict[int, str]] = {}
        for house_id, meta in self.households.items():
            for k in range(meta.n_shards):
                if k in meta.quarantined:
                    findings.setdefault(house_id, {})[k] = (
                        f"quarantined ({meta.quarantined[k]})"
                    )
                    continue
                reason = self._shard_fault_reason(house_id, meta, k)
                if reason is not None:
                    findings.setdefault(house_id, {})[k] = reason
                    if quarantine:
                        self._quarantine_shard(house_id, k, reason)
        return findings

    def _quarantine_shard(self, house_id: str, shard: int, reason: str) -> None:
        """Move one corrupt shard aside and annotate the manifest."""
        quarantine_dir = os.path.join(self.path, _QUARANTINE_DIR, house_id)
        os.makedirs(quarantine_dir, exist_ok=True)
        source = self.shard_path(house_id, shard)
        if os.path.exists(source):
            os.replace(source, os.path.join(quarantine_dir, f"{shard:05d}.f32"))
        entry = self.manifest["households"][house_id]
        quarantined = dict(entry.get("quarantined", {}))
        quarantined[str(shard)] = reason
        entry["quarantined"] = quarantined
        write_manifest(self.path, self.manifest)
        self.households[house_id] = self._meta_from_entry(house_id, entry)
        self._mmaps.pop((house_id, shard), None)
        self._verified.pop((house_id, shard), None)

    def repair_shard(
        self,
        house_id: str,
        shard: int,
        channels: Dict[str, np.ndarray],
        mask: np.ndarray,
    ) -> str:
        """Rewrite one shard from full-length household data; returns its digest.

        ``channels``/``mask`` are the household's complete preprocessed
        series (what :func:`repro.data.ingest.preprocess_household`
        produces — preprocessing is deterministic, so a re-ingest of the
        raw corpus reproduces the original bytes).  The shard's slice is
        rewritten atomically, its manifest checksum refreshed, and any
        quarantine annotation (and quarantined copy) cleared.
        """
        meta = self.house_meta(house_id)
        if not 0 <= shard < meta.n_shards:
            raise IndexError(
                f"house {house_id!r} has {meta.n_shards} shards, asked for {shard}"
            )
        names = channel_order(channels)
        if tuple(names) != meta.channels:
            raise ValueError(
                f"house {house_id!r}: repair channels {names} do not match "
                f"manifest channels {list(meta.channels)}"
            )
        n = meta.n_samples
        if len(mask) != n:
            raise ValueError(
                f"house {house_id!r}: repair mask has {len(mask)} samples, "
                f"manifest records {n}"
            )
        for name in names:
            if len(channels[name]) != n:
                raise ValueError(
                    f"house {house_id!r}: repair channel {name!r} has "
                    f"{len(channels[name])} samples, manifest records {n}"
                )
        length = self.shard_length
        start, stop = shard * length, min((shard + 1) * length, n)
        sliced = {
            name: np.asarray(channels[name])[start:stop] for name in names
        }
        matrix = _stack_household_matrix(
            names, sliced, np.asarray(mask, dtype=bool)[start:stop]
        )
        payload = _shard_payload(matrix, 0, length, stop - start)
        digest = write_atomic(
            self.shard_path(house_id, shard), payload, fault_point="store.shard_write"
        )
        entry = self.manifest["households"][house_id]
        entry["checksums"][shard] = digest
        quarantined = dict(entry.get("quarantined", {}))
        quarantined.pop(str(shard), None)
        if quarantined:
            entry["quarantined"] = quarantined
        else:
            entry.pop("quarantined", None)
        write_manifest(self.path, self.manifest)
        self.households[house_id] = self._meta_from_entry(house_id, entry)
        self._mmaps.pop((house_id, shard), None)
        self._verified.pop((house_id, shard), None)
        quarantine_copy = os.path.join(
            self.path, _QUARANTINE_DIR, house_id, f"{shard:05d}.f32"
        )
        if os.path.exists(quarantine_copy):
            os.unlink(quarantine_copy)
        return digest

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MeterStore {self.name!r} at {self.path!r}: "
            f"{len(self)} households, {self.total_samples()} samples>"
        )
