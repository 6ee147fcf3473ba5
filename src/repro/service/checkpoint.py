"""Config-cache persistence: versioned on-disk snapshots of configured regions.

The shared configuration cache is the service's asset — the ROADMAP's
"millions of users" story fails if a routine restart throws away every
configuration and the fleet pays the full translate → map → configure
pipeline all over again.  This module serializes what the cache actually
needs to survive a restart: the region records that
:meth:`~repro.core.configure.ConfigCache.export_regions` writes and
:meth:`~repro.core.configure.ConfigCache.restore_regions` reads back.
A cache entry and its record hold the same thing, so a warm hit on a
restored entry is cycle-identical to a warm hit before the restart.  This
module stores and ships records; it never decodes them.

Design rules:

* **Atomic writes.**  Snapshots are written to a sibling temp file and
  :func:`os.replace`'d into place, so a crash mid-save leaves the previous
  snapshot intact, never a torn file.
* **Tolerant reads.**  :func:`load_snapshot` *never raises*: a missing,
  corrupt, wrong-magic, or future-version file yields ``(None, reason)``
  and the server boots cold.  A stale snapshot must never be able to take
  the service down.
* **Versioned.**  ``version`` gates the schema; readers skip snapshots
  newer than they understand instead of misparsing them.

:class:`RegionStore` is the service's in-memory accumulator: every
execute reports the regions it configured (exported records) and the
keys of those that hit, the store keeps the most recently used ones per
chip, and both checkpoints and worker seeding read from it.
"""

from __future__ import annotations

import json
import logging
import os
import time
from threading import Lock

from ..core.configure import REGION_RECORD_FIELDS, RegionKey

__all__ = ["SNAPSHOT_MAGIC", "SNAPSHOT_VERSION", "RegionStore",
           "save_snapshot", "load_snapshot"]

log = logging.getLogger("repro.service")

SNAPSHOT_MAGIC = "mesa-config-snapshot"
SNAPSHOT_VERSION = 1


class RegionStore:
    """Thread-safe, deduplicating accumulator of exported region records.

    Keyed the same way as a :class:`ConfigCache` entry — by
    :meth:`RegionKey.of` — and kept in use order per chip: a re-reported
    or :meth:`touch`-ed key moves to the end, and each chip keeps at most
    ``capacity`` records (the least recently used go first), so a restore
    into a capacity-N LRU cache gets the N most recently used regions.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._chips: dict[str, dict[RegionKey, dict]] = {}
        self._lock = Lock()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(chip) for chip in self._chips.values())

    def add_many(self, records: list[dict]) -> int:
        """Merge records; returns how many were new."""
        new = 0
        with self._lock:
            for record in records:
                key = RegionKey.of(record)
                chip = self._chips.setdefault(key.config, {})
                if chip.pop(key, None) is None:
                    new += 1
                chip[key] = record
                if len(chip) > self.capacity:
                    del chip[next(iter(chip))]
        return new

    def touch(self, keys) -> None:
        """Move the held records among ``keys`` (:class:`RegionKey`) to
        the end (a cache hit on them)."""
        with self._lock:
            for key in keys:
                chip = self._chips.get(key.config)
                if chip is not None and key in chip:
                    chip[key] = chip.pop(key)

    def records(self) -> list[dict]:
        with self._lock:
            return [record for chip in self._chips.values()
                    for record in chip.values()]


def save_snapshot(path: str, records: list[dict]) -> int:
    """Atomically write a versioned snapshot; returns the record count."""
    payload = {
        "magic": SNAPSHOT_MAGIC,
        "version": SNAPSHOT_VERSION,
        "saved_at": time.time(),
        "records": records,
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)
    return len(records)


def _well_formed(record) -> bool:
    """Whether ``record`` has every field of the codec and a usable key."""
    return (isinstance(record, dict)
            and all(field in record for field in REGION_RECORD_FIELDS)
            and isinstance(record["config"], str)
            and isinstance(record["digest"], str)
            and isinstance(record["start"], int)
            and isinstance(record["end"], int))


def load_snapshot(path: str) -> tuple[list[dict] | None, str]:
    """Read a snapshot tolerantly: ``(records, "")`` or ``(None, reason)``.

    Never raises — every failure mode (missing file, unreadable,
    malformed JSON, wrong magic, future version, bad shape) becomes a
    logged reason so the caller can boot cold.  Malformed records are
    dropped individually (the count is logged): those that are not dicts,
    miss one of the codec's ``REGION_RECORD_FIELDS``, or hold a key field
    that cannot key a region (``config`` or ``digest`` not a ``str``,
    ``start`` or ``end`` not an ``int``).  Per-record bitstream corruption
    is caught later by ``decode_bitstream`` during restore.
    """
    if not os.path.exists(path):
        return None, f"no snapshot at {path}"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        reason = f"unreadable snapshot {path}: {type(exc).__name__}: {exc}"
        log.warning("%s", reason)
        return None, reason
    if not isinstance(payload, dict) or payload.get("magic") != SNAPSHOT_MAGIC:
        reason = f"not a config snapshot: {path}"
        log.warning("%s", reason)
        return None, reason
    version = payload.get("version")
    if not isinstance(version, int) or version > SNAPSHOT_VERSION:
        reason = (f"snapshot {path} has version {version!r}; this build "
                  f"reads up to {SNAPSHOT_VERSION}")
        log.warning("%s", reason)
        return None, reason
    raw = payload.get("records")
    if not isinstance(raw, list):
        reason = f"snapshot {path} carries no record list"
        log.warning("%s", reason)
        return None, reason
    records = [record for record in raw if _well_formed(record)]
    dropped = len(raw) - len(records)
    if dropped:
        log.warning("snapshot %s: dropped %d malformed record(s)",
                    path, dropped)
    return records, ""
