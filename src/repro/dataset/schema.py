"""Versioned JSONL schema of the QoR dataset.

One record per (kernel, design point) pair: the extracted feature
vector, the analytical QoR, and enough provenance (kernel digest,
feature-schema and estimator versions) to detect stale data.  Records
are stored one JSON object per line so the factory can append
incrementally and a torn tail from a killed build never poisons the
file — :func:`read_records` skips lines it cannot parse (and records
whose schema version it does not know) unless asked to be strict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..durable import AppendLog
from ..errors import DatasetError

#: Bump when a record field changes meaning.  Readers skip (or, in
#: strict mode, reject) records from other versions.
DATASET_SCHEMA_VERSION = 1

_REQUIRED = ("v", "kernel", "digest", "point", "features", "fs",
             "feasible", "cycles", "minutes", "estimator")


@dataclass(frozen=True)
class DatasetRecord:
    """One (kernel, design point) sample of the QoR dataset."""

    #: Kernel name (app name or generated-kernel name).
    kernel: str
    #: Cache digest of the kernel/device context (see
    #: :func:`repro.dse.cache.kernel_digest`).
    digest: str
    #: The flat design point the features were extracted from.
    point: dict
    #: Feature values, in :data:`repro.cost.FEATURE_NAMES` order.
    features: tuple
    #: :data:`repro.cost.FEATURE_SCHEMA_VERSION` at extraction time.
    feature_schema: int
    #: Whether the analytical estimator found the design feasible.
    feasible: bool
    #: Normalized cycles (the DSE's QoR); ``None`` when infeasible.
    qor: Optional[float]
    #: Raw cycle count (0 when infeasible).
    cycles: float
    #: Virtual synthesis minutes the evaluation cost.
    minutes: float
    #: :data:`repro.hls.estimator.ESTIMATOR_VERSION` that scored it.
    estimator_version: int

    def key(self) -> tuple:
        """Identity of the sample (digest + canonicalized point)."""
        from ..dse.cache import canonical_key

        return (self.digest, canonical_key(self.point))

    def to_json(self) -> dict:
        return {
            "v": DATASET_SCHEMA_VERSION,
            "kernel": self.kernel,
            "digest": self.digest,
            "point": self.point,
            "features": list(self.features),
            "fs": self.feature_schema,
            "feasible": self.feasible,
            "qor": self.qor,
            "cycles": self.cycles,
            "minutes": self.minutes,
            "estimator": self.estimator_version,
        }

    @staticmethod
    def from_json(data: dict) -> "DatasetRecord":
        """Parse one record; raises :class:`DatasetError` on bad shape."""
        if not isinstance(data, dict):
            raise DatasetError(f"record is not an object: {data!r}")
        missing = [k for k in _REQUIRED if k not in data]
        if missing:
            raise DatasetError(f"record is missing {missing}")
        if data["v"] != DATASET_SCHEMA_VERSION:
            raise DatasetError(
                f"unknown dataset schema version {data['v']!r} "
                f"(this reader knows v{DATASET_SCHEMA_VERSION})")
        features = data["features"]
        if not isinstance(features, list) or not all(
                isinstance(x, (int, float)) for x in features):
            raise DatasetError(f"bad feature vector: {features!r}")
        if not isinstance(data["point"], dict):
            raise DatasetError(f"bad point: {data['point']!r}")
        qor = data.get("qor")
        return DatasetRecord(
            kernel=str(data["kernel"]),
            digest=str(data["digest"]),
            point=data["point"],
            features=tuple(float(x) for x in features),
            feature_schema=int(data["fs"]),
            feasible=bool(data["feasible"]),
            qor=None if qor is None else float(qor),
            cycles=float(data["cycles"]),
            minutes=float(data["minutes"]),
            estimator_version=int(data["estimator"]))


class DatasetWriter:
    """Append-only JSONL writer with per-record durability.

    Each record is one synced :class:`~repro.durable.AppendLog` line, so
    a killed build loses at most the line being written.  Append mode
    recovers that torn tail before writing, so the first new record
    never glues onto it.
    """

    def __init__(self, path, *, append: bool = False):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if append:
            AppendLog.recover(self.path)
        else:
            self.path.unlink(missing_ok=True)       # a fresh build
        self._log = AppendLog(self.path)
        self.written = 0

    def write(self, record: DatasetRecord) -> None:
        self._log.append(
            (json.dumps(record.to_json(), sort_keys=True) + "\n").encode())
        self._log.sync()
        self.written += 1

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "DatasetWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_records(path, *, strict: bool = False
                 ) -> tuple[list[DatasetRecord], int]:
    """Read a dataset file; returns ``(records, skipped_lines)``.

    Corrupt lines (torn tails, hand-edits) and records from unknown
    schema versions are counted and skipped; with ``strict=True`` they
    raise :class:`DatasetError` instead.  A missing file raises either
    way — that is a caller error, not corruption.
    """
    source = Path(path)
    if not source.exists():
        raise DatasetError(f"no such dataset file: {path}")
    records: list[DatasetRecord] = []
    skipped = 0
    for lineno, line in enumerate(
            source.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(DatasetRecord.from_json(json.loads(line)))
        except (json.JSONDecodeError, DatasetError, ValueError) as exc:
            if strict:
                raise DatasetError(
                    f"{path}:{lineno}: bad record: {exc}") from None
            skipped += 1
    return records, skipped
