"""Atomic, versioned streaming checkpoints.

One checkpoint file per stream name, saved through the same
:class:`~repro.durable.SnapshotStore` as the DSE journal: a crash at any
instant leaves either the previous or the new checkpoint, never a torn
file.  The payload pins the run identity (app, seeds, batch geometry,
fault schedule, engine) so a resume against a *different* configuration
is rejected instead of silently diverging — the bit-identity guarantee
only holds when the replayed batches recompute the original stream.

The context saves a checkpoint **after** the batch's sink rows are
durable, recording ``next_batch``: a crash between emit and save
replays exactly one batch, whose rows the idempotent sink skips.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from ..durable import SnapshotStore
from ..errors import StreamError

#: Checkpoint format version; bumping it invalidates old checkpoints.
STREAM_CHECKPOINT_VERSION = 1

#: ``kind`` marker distinguishing a stream checkpoint from other JSON.
STREAM_CHECKPOINT_KIND = "s2fa-stream-checkpoint"


class StreamCheckpointStore(SnapshotStore):
    """One atomic checkpoint file per stream name in a directory."""

    suffix = ".stream.ckpt.json"
    error = StreamError
    label = "stream checkpoint"

    def save(self, name: str, payload: dict) -> Path:
        """Atomically persist ``payload`` (stamped with kind/version)."""
        return super().save(name, {
            "kind": STREAM_CHECKPOINT_KIND,
            "version": STREAM_CHECKPOINT_VERSION, **payload})

    def load(self, name: str, identity: Optional[dict] = None) -> dict:
        """Validated checkpoint payload; pins ``identity`` when given."""
        path = self.path(name)
        payload = super().load(name)
        if not isinstance(payload, dict) \
                or payload.get("kind") != STREAM_CHECKPOINT_KIND:
            raise StreamError(
                f"{path} is not a stream checkpoint")
        if payload.get("version") != STREAM_CHECKPOINT_VERSION:
            raise StreamError(
                f"stream checkpoint {path} has version "
                f"{payload.get('version')!r}, expected "
                f"{STREAM_CHECKPOINT_VERSION} (delete it to start fresh)")
        for field in ("identity", "next_batch", "seq", "operators"):
            if field not in payload:
                raise StreamError(
                    f"stream checkpoint {path} is missing {field!r}")
        if identity is not None and payload["identity"] != identity:
            theirs, ours = payload["identity"], identity
            diff = sorted(k for k in set(theirs) | set(ours)
                          if theirs.get(k) != ours.get(k))
            raise StreamError(
                f"stream checkpoint {path} was written by a different "
                f"run configuration (mismatched: {', '.join(diff)}); "
                f"refusing to resume into a diverging stream")
        return payload
