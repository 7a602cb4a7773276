"""Persistent on-disk evaluation cache for the DSE.

HLS estimation dominates the wall clock of every benchmark run, yet its
results are pure functions of (kernel, design point, device).  This module
gives the evaluator a durable memo: a JSON-lines store keyed by kernel
digest + canonicalized design point, so repeated benchmark runs skip
re-estimation entirely.

Design constraints (and how they are met):

* **Canonical keys** — a point is a plain ``{param: value}`` dict and two
  logically equal points may arrive with different key insertion orders
  (or with ``True`` where another tuner used ``1``).  :func:`canonical_key`
  sorts the parameters and serializes values through JSON, which keeps
  ``True``/``1``/``1.0`` distinct (they serialize to ``true``/``1``/``1.0``).
* **Atomic, durable append** — each record is one synced
  :class:`~repro.durable.AppendLog` append: concurrent appenders lose no
  records, and an acknowledged record survives a crash.
* **Torn-write repair** — a crash mid-append leaves a final line without
  its newline terminator.  On load the store runs
  :meth:`~repro.durable.AppendLog.recover`; every complete record before
  the tear still loads.  Garbage lines elsewhere are skipped and counted
  in ``corrupt_lines`` (as is a truncated tear).
* **Versioned records** — every record carries the store format version
  (``"v"``).  Records from another version are *skipped with a warning*
  (counted in ``stale_records``) instead of mis-parsed; bumping
  :data:`FORMAT_VERSION` also changes the kernel digest, so new runs get
  fresh files.
* **Virtual-clock neutrality** — the store keeps the original
  ``synthesis_minutes`` of every result, so a warm-cache run charges the
  same virtual time as a cold run: persistence accelerates the *real*
  clock only and cannot change the science.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from pathlib import Path
from typing import Optional

from ..durable import AppendLog
from ..hls.device import Device
from ..hls.result import HLSResult
from ..hlsc.ast import CKernel
from ..hlsc.printer import kernel_to_c

LOGGER = logging.getLogger("repro.dse.cache")

#: Store format version; bumping it invalidates old stores (both through
#: the per-record ``"v"`` field and through the kernel digest).
#: v3: the digest incorporates the cost-model identity, so evaluations
#: produced under different cost models (or estimator versions) can
#: never poison each other.
FORMAT_VERSION = 3


def canonical_key(point: dict) -> str:
    """Order-independent, type-preserving key for a design point.

    Parameters are sorted by name; values keep their JSON spelling, so
    ``1``, ``1.0`` and ``True`` produce distinct keys.  NaN/Infinity
    values are rejected (they would not round-trip).
    """
    return json.dumps([[name, point[name]] for name in sorted(point)],
                      separators=(",", ":"), allow_nan=False)


def point_from_key(key: str) -> dict:
    """Inverse of :func:`canonical_key`."""
    return {name: value for name, value in json.loads(key)}


def kernel_digest(kernel: CKernel, device: Device,
                  cost_model: str = "") -> str:
    """Identity of an estimation context: C + batch + device + model.

    The digest is over the printed HLS C (which pins the full loop/op
    structure), the kernel metadata, the device's *full envelope
    identity* (:meth:`~repro.hls.device.Device.identity` — not just the
    name, so two scaled devices sharing a name can never collide), and
    the identity of the cost model that produced the numbers —
    everything that can change what an evaluation returns.
    ``cost_model`` is the model's ``identity()`` string; the empty
    default means "the analytical model, version unpinned" and exists
    for callers that only need a kernel identity, not a cache namespace.
    """
    hasher = hashlib.sha256()
    hasher.update(kernel_to_c(kernel).encode())
    hasher.update(json.dumps(kernel.metadata, sort_keys=True,
                             default=str).encode())
    hasher.update(device.identity().encode())
    hasher.update(str(FORMAT_VERSION).encode())
    if cost_model:
        hasher.update(cost_model.encode())
    return hasher.hexdigest()[:24]


class CacheStore:
    """JSON-lines persistent store of HLS evaluations.

    One file per kernel digest (``<dir>/<digest>.jsonl``); each line is
    ``{"v": <format>, "key": <canonical point>, "minutes": <float>,
    "result": {...}}``.  Later records win, so re-appending a key is
    harmless.
    """

    def __init__(self, directory: os.PathLike | str):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._tables: dict[str, dict[str, dict]] = {}
        self.hits = 0
        self.misses = 0
        self.appends = 0
        self.corrupt_lines = 0
        self.stale_records = 0

    # ------------------------------------------------------------------

    def _path(self, digest: str) -> Path:
        return self.directory / f"{digest}.jsonl"

    def _table(self, digest: str) -> dict[str, dict]:
        table = self._tables.get(digest)
        if table is None:
            table = self._load(digest)
            self._tables[digest] = table
        return table

    def _load(self, digest: str) -> dict[str, dict]:
        table: dict[str, dict] = {}
        path = self._path(digest)
        if not path.exists():
            return table
        dropped = AppendLog.recover(path)
        if dropped:
            self.corrupt_lines += 1
            LOGGER.warning(
                "cache %s: truncating torn final record (%d bytes)",
                path.name, dropped)
        try:
            raw = path.read_bytes()
        except OSError:
            return table
        stale_before = self.stale_records
        for line in raw.split(b"\n"):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except (ValueError, UnicodeDecodeError):
                self.corrupt_lines += 1
                continue
            if (not isinstance(record, dict)
                    or not isinstance(record.get("key"), str)
                    or not isinstance(record.get("minutes"), (int, float))
                    or not isinstance(record.get("result"), dict)):
                self.corrupt_lines += 1
                continue
            if record.get("v") != FORMAT_VERSION:
                self.stale_records += 1
                continue
            table[record["key"]] = record
        if self.stale_records > stale_before:
            LOGGER.warning(
                "cache %s: skipped %d record(s) from another store format "
                "(this build writes v%d); they will be re-estimated",
                path.name, self.stale_records - stale_before,
                FORMAT_VERSION)
        return table

    # ------------------------------------------------------------------

    def size(self, digest: str) -> int:
        return len(self._table(digest))

    def get(self, digest: str, key: str
            ) -> Optional[tuple[float, HLSResult]]:
        """Stored ``(synthesis_minutes, result)`` for a point, if any."""
        record = self._table(digest).get(key)
        if record is None:
            self.misses += 1
            return None
        try:
            result = HLSResult.from_dict(record["result"])
        except (KeyError, TypeError, ValueError):
            # Schema drift in an old store: treat as absent.
            self.corrupt_lines += 1
            del self._table(digest)[key]
            self.misses += 1
            return None
        self.hits += 1
        return float(record["minutes"]), result

    def put(self, digest: str, key: str, minutes: float,
            result: HLSResult) -> None:
        """Append one record atomically+durably; update the in-memory table."""
        table = self._table(digest)   # load (and repair) before appending
        record = {"v": FORMAT_VERSION, "key": key, "minutes": minutes,
                  "result": result.to_dict()}
        data = (json.dumps(record, separators=(",", ":")) + "\n").encode()
        with AppendLog(self._path(digest)) as log:
            log.append(data)
            log.sync()
        table[key] = record
        self.appends += 1

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "directory": str(self.directory),
            "hits": self.hits,
            "misses": self.misses,
            "appends": self.appends,
            "corrupt_lines": self.corrupt_lines,
            "stale_records": self.stale_records,
        }
