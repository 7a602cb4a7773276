"""Idempotent micro-batch sinks keyed by ``(batch_id, partition)``.

The sink is the durable half of the exactly-once contract.  The stream
context emits every micro-batch's output *before* checkpointing it, so a
crash between the two leaves the sink one batch ahead of the checkpoint;
on resume that batch is recomputed (deterministically — see
:mod:`repro.streaming.source`) and re-emitted.  The sink absorbs the
replay by refusing to write a ``(batch_id, partition)`` key twice: the
file bytes after recovery equal the bytes of an uninterrupted run.

:class:`JSONLSink` appends one canonical-JSON line per key to a
:class:`~repro.durable.AppendLog` and syncs it at batch boundaries.
Opening an existing file recovers a *torn tail* (an unterminated final
line from a crash mid-``write``): an unparsable one is dropped — only
unacknowledged bytes, because the checkpoint that would acknowledge them
was never written — and a whole row that merely lost its newline is
kept, its replay skipped like any other.  A complete line that fails to
parse is corruption of acknowledged data and raises
:class:`~repro.errors.StreamError` instead of being silently skipped.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..durable import AppendLog
from ..errors import StreamError
from .codec import canonical_json, encode


class MemorySink:
    """In-process sink for tests and the default ``session.stream``."""

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self._keys: set[tuple[int, int]] = set()
        self.duplicates_skipped = 0

    def emit(self, batch_id: int, partition: int, seq: int,
             records: list) -> bool:
        if (batch_id, partition) in self._keys:
            self.duplicates_skipped += 1
            return False
        self._keys.add((batch_id, partition))
        self.rows.append({"batch": batch_id, "part": partition,
                          "seq": seq, "records": records})
        return True

    def flush_batch(self) -> None:
        pass

    def close(self) -> None:
        pass

    def keys(self) -> set[tuple[int, int]]:
        return set(self._keys)


class JSONLSink:
    """Append-only JSONL file sink with replay-proof keys."""

    def __init__(self, path: os.PathLike | str):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._keys: set[tuple[int, int]] = set()
        self.duplicates_skipped = 0
        AppendLog.recover(self.path)
        self._index()
        self._log = AppendLog(self.path)

    def _index(self) -> None:
        if not self.path.exists():
            return
        for lineno, line in enumerate(
                self.path.read_bytes().splitlines(), start=1):
            try:
                row = json.loads(line)
                key = (int(row["batch"]), int(row["part"]))
            except (ValueError, KeyError, TypeError) as exc:
                raise StreamError(
                    f"corrupt sink line {lineno} in {self.path}: "
                    f"{exc}") from exc
            if key in self._keys:
                raise StreamError(
                    f"duplicate sink key {key} in {self.path}: the "
                    f"exactly-once invariant is already broken")
            self._keys.add(key)

    def emit(self, batch_id: int, partition: int, seq: int,
             records: list) -> bool:
        """Append one row; ``False`` when the key was already emitted."""
        if (batch_id, partition) in self._keys:
            self.duplicates_skipped += 1
            return False
        line = canonical_json({"batch": batch_id, "part": partition,
                               "seq": seq, "records": encode(records)})
        self._log.append(line.encode() + b"\n")
        self._keys.add((batch_id, partition))
        return True

    def flush_batch(self) -> None:
        """Make every emitted row of the batch durable."""
        self._log.sync()

    def close(self) -> None:
        self._log.close()

    def keys(self) -> set[tuple[int, int]]:
        return set(self._keys)
