"""Batch-boundary progress markers for an exploration.

An interrupted exploration is resumed by *replay*: rerun it over the
same persistent :class:`~repro.dse.cache.CacheStore`.  The search is a
deterministic function of the seed and the configuration, and every
point the killed run estimated is answered from the store with its
original synthesis minutes, so the rerun reproduces the uninterrupted
run's report with zero duplicate estimates.  No explorer state needs
journalling.

What remains here is the seam an engine given a ``checkpoint_store``
writes at each batch boundary — ``{kind, identity, rounds}``, saved
atomically through :class:`~repro.durable.SnapshotStore` and discarded
when the run completes.  Nothing reads it back to resume.
"""

from __future__ import annotations

from ..durable import SnapshotStore
from ..errors import DSEError

#: ``kind`` marker distinguishing a checkpoint from other JSON files.
CHECKPOINT_KIND = "s2fa-dse-checkpoint"


class CheckpointStore(SnapshotStore):
    """One checkpoint file per kernel digest in a directory."""

    suffix = ".ckpt.json"
    error = DSEError
    label = "checkpoint"
