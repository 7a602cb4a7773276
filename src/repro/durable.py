"""The one durable-state substrate under every crash-safe feature.

HLS time is the scarce resource (minutes to an hour per design point),
so the DSE cache, the stream sink, the stream checkpoint, the dataset
files and the serve drain snapshot must all survive a kill at any
instant (the DSE cache is also how an exploration resumes: a rerun over
it replays the killed run).  They share exactly three mechanisms,
and this module is the only place in ``src/repro`` that calls
``os.fsync``, ``os.replace``, ``flock`` or ``ftruncate``:

* :class:`AppendLog` — a JSON-lines file appended one record per
  ``os.write`` on an ``O_APPEND`` descriptor under a shared ``flock``,
  so concurrent appenders lose no record; :meth:`AppendLog.sync` makes
  the appended records survive a crash; :meth:`AppendLog.recover`
  repairs the final line a crash tore, under an exclusive lock.
* :func:`atomic_write` and :class:`SnapshotStore` — temp file, fsync,
  ``os.replace``, directory fsync: a crash leaves either the previous
  snapshot or the new one, never a torn file.
* :class:`ChaosKill` — the ``S2FA_CHAOS_KILL`` fault-injection hook the
  kill/resume harnesses drive.

Policy stays with the caller: what a corrupt *complete* line means
(the cache skips it, the sink refuses to open, the dataset reader is
tolerant or strict) and what a valid snapshot payload looks like.
"""

from __future__ import annotations

import errno
import json
import os
import signal
from pathlib import Path
from typing import Callable, Optional

from .errors import S2FAError

try:
    from fcntl import LOCK_EX, LOCK_SH, LOCK_UN, flock
except ImportError:             # pragma: no cover - non-POSIX platform
    LOCK_EX = LOCK_SH = LOCK_UN = 0

    def flock(fd: int, operation: int) -> None:
        """No advisory locks here: single-writer use only."""


# ----------------------------------------------------------------------
# Append log
# ----------------------------------------------------------------------

class AppendLog:
    """Append handle on a file of newline-terminated JSON records."""

    def __init__(self, path: os.PathLike | str):
        self.path = Path(path)
        self._fd: Optional[int] = os.open(
            self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)

    def append(self, record: bytes) -> None:
        """Append one newline-terminated record as a single write.

        A short write (disk full) raises instead of letting the next
        record glue onto the torn one; :meth:`recover` drops the tear
        when the log is next opened.
        """
        flock(self._fd, LOCK_SH)
        try:
            written = os.write(self._fd, record)
        finally:
            flock(self._fd, LOCK_UN)
        if written != len(record):
            raise OSError(errno.EIO,
                          f"short append to {self.path} "
                          f"({written} of {len(record)} bytes)")

    def sync(self) -> None:
        """Make every record appended so far survive a crash."""
        os.fsync(self._fd)

    def close(self) -> None:
        fd, self._fd = self._fd, None
        if fd is not None:
            os.close(fd)

    def __enter__(self) -> "AppendLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def recover(path: os.PathLike | str) -> int:
        """Repair a crash-torn final line; returns the bytes dropped.

        A record is one ``content + newline`` write, so a file that
        does not end in a newline was torn mid-append.  A tail that
        parses merely lost its terminator and gets it back; one that
        does not never fully landed and is truncated away.  Every
        complete record before the tear is untouched.  The exclusive
        lock waits out any append in flight, so a concurrent writer's
        record is never mistaken for a tear.  A missing file is clean.
        """
        try:
            fd = os.open(path, os.O_RDWR | os.O_APPEND)
        except OSError:             # missing or read-only: nothing to fix
            return 0
        try:
            flock(fd, LOCK_EX)
            size = os.fstat(fd).st_size
            if size == 0 or os.pread(fd, 1, size - 1) == b"\n":
                return 0
            raw = Path(path).read_bytes()
            cut = raw.rfind(b"\n") + 1
            try:
                json.loads(raw[cut:])
            except ValueError:      # includes UnicodeDecodeError
                os.ftruncate(fd, cut)
                return len(raw) - cut
            os.write(fd, b"\n")
            return 0
        finally:
            flock(fd, LOCK_UN)
            os.close(fd)


# ----------------------------------------------------------------------
# Atomic snapshots
# ----------------------------------------------------------------------

def atomic_write(path: os.PathLike | str, data: bytes) -> None:
    """Replace ``path`` with ``data`` so a crash leaves old or new."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class SnapshotStore:
    """A directory of atomically replaced JSON snapshots, one per name.

    Subclasses name their file ``suffix``, the ``error`` type and the
    ``label`` their messages use, and layer payload validation on
    :meth:`load`.
    """

    suffix = ".json"
    error: type[S2FAError] = S2FAError
    label = "snapshot"

    def __init__(self, directory: os.PathLike | str):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        slug = "".join(ch if ch.isalnum() or ch in "-_" else "_"
                       for ch in name)
        return self.directory / f"{slug}{self.suffix}"

    def has(self, name: str) -> bool:
        return self.path(name).exists()

    def save(self, name: str, payload: dict) -> Path:
        """Atomically replace the snapshot for ``name``."""
        target = self.path(name)
        atomic_write(
            target, json.dumps(payload, separators=(",", ":")).encode())
        return target

    def load(self, name: str):
        """The parsed snapshot, or ``None`` when there is none."""
        target = self.path(name)
        try:
            return json.loads(target.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            raise self.error(
                f"{self.label} {target} is corrupt and cannot be resumed "
                f"({exc}); delete it to start over") from exc

    def discard(self, name: str) -> None:
        """Remove the snapshot (idempotent)."""
        self.path(name).unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Chaos hook
# ----------------------------------------------------------------------

#: Fault-injection hook for the chaos harnesses: ``boundary:N``
#: hard-kills the process at the end of batch N (a stream has flushed
#: checkpoint N; an exploration has merged the batch, whose estimates
#: are already in its cache), ``mid:N`` hard-kills after batch N is
#: computed but *before* that point, and ``stop:N`` requests a graceful
#: stop after batch N (exercising the SIGINT/SIGTERM path
#: deterministically).
CHAOS_KILL_ENV = "S2FA_CHAOS_KILL"


class ChaosKill:
    """``S2FA_CHAOS_KILL`` parsed once, fired at the loop's hook points."""

    def __init__(self, request_stop: Callable[[], None]):
        self._request_stop = request_stop
        spec = os.environ.get(CHAOS_KILL_ENV)
        self.armed: Optional[tuple[str, int]] = None
        if spec:
            kind, _, value = spec.partition(":")
            if kind not in ("boundary", "mid", "stop") \
                    or not value.isdigit():
                raise S2FAError(
                    f"bad {CHAOS_KILL_ENV} spec {spec!r}; expected "
                    f"'boundary:N', 'mid:N', or 'stop:N'")
            self.armed = (kind, int(value))

    def fire(self, kind: str, index: int) -> None:
        """SIGKILL self (``stop``: request a stop) if ``kind:index`` is armed."""
        if self.armed != (kind, index):
            return
        if kind == "stop":
            self._request_stop()
            return
        os.kill(os.getpid(), signal.SIGKILL)
