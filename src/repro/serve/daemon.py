"""The threaded unix-socket serve daemon (``s2fa serve``).

Thread layout::

    accept thread ──> one handler thread per connection
                          │  read JSON line, parse, submit()
                          │  (immediate rejections answered inline)
                          ▼
                      mailboxes (request_id -> Event + slot)
                          ▲
    executor thread ──────┘  the ONE thread pumping ServeCore.step()

Admission happens on handler threads (cheap, lock-protected); execution
is single-dispatcher by design — the board fleet lives on one virtual
timeline.  Every admitted request gets exactly one response, delivered
through its mailbox.

**Graceful drain:** SIGTERM/SIGINT flip the daemon into draining mode:
the listener closes (no new connections), admission rejects with
``SHUTTING_DOWN``, every *queued* request is answered with a clean
retryable ``SHUTTING_DOWN`` rejection, the in-flight request (if any)
runs to completion and its response is delivered, the final state
snapshot is flushed to ``state_path``, and the process exits with the
pinned interruption code (``EXIT_INTERRUPTED = 75`` — same contract as
an interrupted exploration: progress flushed, safe to restart).
"""

from __future__ import annotations

import json
import os
import socket
import threading
from typing import Optional

from ..config import ServeConfig
from ..durable import atomic_write
from ..errors import ServeError
from .core import ServeCore
from .request import (
    ERROR,
    INVALID,
    ServeResponse,
    decode_line,
    encode_line,
    request_from_wire,
)

#: Exit code of a drained daemon (see ``repro.cli``): the pinned
#: "interrupted after flushing state" contract.
DRAIN_EXIT_CODE = 75

#: Real seconds a drain waits for the in-flight request to finish
#: before the daemon gives up on it and exits anyway.
DRAIN_GRACE_SECONDS = 10.0


class _Mailbox:
    """Rendezvous between a handler thread and the executor thread."""

    __slots__ = ("event", "response")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: Optional[ServeResponse] = None

    def deliver(self, response: ServeResponse) -> None:
        self.response = response
        self.event.set()


class ServeDaemon:
    """Threaded daemon multiplexing one :class:`ServeCore`."""

    def __init__(self, socket_path: str,
                 config: Optional[ServeConfig] = None, *,
                 core: Optional[ServeCore] = None,
                 state_path: Optional[str] = None):
        self.socket_path = socket_path
        self.core = core if core is not None else ServeCore(config)
        self.state_path = state_path
        self._listener: Optional[socket.socket] = None
        self._threads: list[threading.Thread] = []
        self._mailboxes: dict[str, _Mailbox] = {}
        self._mail_lock = threading.Lock()
        #: Signals the executor that work (or shutdown) is pending.
        self._work = threading.Condition()
        self._stopping = threading.Event()
        self._drained = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Bind the socket and start the accept + executor threads."""
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        self._listener = socket.socket(socket.AF_UNIX,
                                       socket.SOCK_STREAM)
        self._listener.bind(self.socket_path)
        self._listener.listen(64)
        for target, name in ((self._executor_loop, "serve-executor"),
                             (self._accept_loop, "serve-accept")):
            thread = threading.Thread(target=target, name=name,
                                      daemon=True)
            thread.start()
            self._threads.append(thread)

    def shutdown(self) -> None:
        """Graceful drain (idempotent; see the module docstring)."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:                       # pragma: no cover
                pass
        # Reject everything still queued — each queued request has a
        # handler thread blocked on its mailbox.
        for response in self.core.drain():
            self._deliver(response)
        with self._work:
            self._work.notify_all()
        self._drained.wait(timeout=DRAIN_GRACE_SECONDS)
        self._flush_state()
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass

    def _flush_state(self) -> None:
        if not self.state_path:
            return
        snapshot = self.core.state_snapshot()
        snapshot["drained"] = True
        atomic_write(self.state_path, json.dumps(
            snapshot, indent=2, sort_keys=True).encode())

    # ------------------------------------------------------------------
    # Executor (the single dispatch thread)
    # ------------------------------------------------------------------

    def _executor_loop(self) -> None:
        core = self.core
        while True:
            response = core.step()
            if response is not None:
                self._deliver(response)
                continue
            if self._stopping.is_set():
                break
            with self._work:
                if core.queued() == 0 and not self._stopping.is_set():
                    self._work.wait(timeout=0.05)
        # Drain epilogue: the queue was emptied by shutdown(), but a
        # race may slip one last request in — answer it, never drop it.
        for response in core.drain():
            self._deliver(response)
        self._drained.set()

    def _deliver(self, response: ServeResponse) -> None:
        with self._mail_lock:
            mailbox = self._mailboxes.pop(response.request_id, None)
        if mailbox is not None:
            mailbox.deliver(response)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopping.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                break                     # listener closed: draining
            thread = threading.Thread(
                target=self._handle_connection, args=(conn,),
                name="serve-conn", daemon=True)
            thread.start()

    def _handle_connection(self, conn: socket.socket) -> None:
        try:
            with conn, conn.makefile("rb") as reader:
                for line in reader:
                    if not line.strip():
                        continue
                    response = self._serve_line(line)
                    conn.sendall(encode_line(response.to_wire()))
        except (OSError, ValueError):     # client went away mid-write
            pass

    def _serve_line(self, line: bytes) -> ServeResponse:
        try:
            request = request_from_wire(decode_line(line))
        except ServeError as exc:
            return ServeResponse(request_id="", status=exc.status,
                                 error=str(exc))
        mailbox = _Mailbox()
        with self._mail_lock:
            if request.request_id in self._mailboxes:
                return ServeResponse(
                    request_id=request.request_id, status=INVALID,
                    error=f"request_id {request.request_id!r} is "
                          f"already in flight on this daemon")
            self._mailboxes[request.request_id] = mailbox
        rejection = self.core.submit(request)
        if rejection is not None:
            with self._mail_lock:
                self._mailboxes.pop(request.request_id, None)
            return rejection
        with self._work:
            self._work.notify()
        mailbox.event.wait()
        response = mailbox.response
        if response is None:              # pragma: no cover — backstop
            response = ServeResponse(
                request_id=request.request_id, status=ERROR,
                error="executor delivered no response")
        return response


def run_daemon(socket_path: str, config: Optional[ServeConfig] = None,
               *, state_path: Optional[str] = None,
               ready_path: Optional[str] = None) -> int:
    """Blocking entry point used by ``s2fa serve``.

    ``ready_path`` (when given) is touched once the socket is
    listening — test harnesses wait on it instead of polling the
    socket.  Returns the process exit code.
    """
    daemon = ServeDaemon(socket_path, config, state_path=state_path)
    import signal as _signal

    stop = threading.Event()
    for signum in (_signal.SIGTERM, _signal.SIGINT):
        _signal.signal(signum, lambda *_: stop.set())
    daemon.start()
    if ready_path:
        with open(ready_path, "w") as fh:
            fh.write(f"{os.getpid()}\n")
    stop.wait()
    daemon.shutdown()
    return DRAIN_EXIT_CODE


__all__ = ["ServeDaemon", "run_daemon", "DRAIN_EXIT_CODE"]
