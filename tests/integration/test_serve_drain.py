"""Graceful-drain chaos harness for ``s2fa serve`` (subprocess level).

Boots the real daemon as a subprocess, drives it with concurrent client
threads, then delivers SIGTERM mid-traffic and asserts the drain
contract end to end:

1. the daemon exits with the pinned resumable code (75, shared with the
   explore interrupt/rerun contract),
2. every request admitted before the signal completes normally; queued
   or late requests get a clean, *retryable* ``SHUTTING_DOWN``
   rejection — nothing hangs, nothing is lost,
3. the state snapshot is flushed (``drained: true`` + final counters)
   and the socket file is removed.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ServeError
from repro.serve.client import ServeClient
from repro.serve.request import OK, RETRYABLE_STATUSES, SHUTTING_DOWN

REPO = Path(__file__).resolve().parents[2]
BOOT_TIMEOUT_S = 60


@pytest.fixture
def paths(tmp_path):
    return {"socket": str(tmp_path / "s2fa.sock"),
            "state": str(tmp_path / "state.json"),
            "ready": str(tmp_path / "ready")}


def _spawn(paths, *extra):
    cmd = [sys.executable, "-m", "repro.cli", "serve",
           "--socket", paths["socket"],
           "--state", paths["state"],
           "--ready", paths["ready"],
           "--replicas", "1", *extra]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.Popen(cmd, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)


def _wait_ready(proc, paths):
    deadline = time.time() + BOOT_TIMEOUT_S
    while time.time() < deadline:
        if os.path.exists(paths["ready"]) \
                and os.path.exists(paths["socket"]):
            return
        if proc.poll() is not None:      # died during boot
            raise AssertionError(
                f"daemon exited early ({proc.returncode}): "
                f"{proc.stderr.read()}")
        time.sleep(0.02)
    proc.kill()
    raise AssertionError("daemon never became ready")


def _finish(proc):
    try:
        return proc.wait(timeout=BOOT_TIMEOUT_S)
    except subprocess.TimeoutExpired:    # pragma: no cover
        proc.kill()
        raise AssertionError("daemon did not exit after SIGTERM")


class TestGracefulDrain:
    def test_sigterm_mid_traffic_drains_cleanly(self, paths):
        proc = _spawn(paths)
        _wait_ready(proc, paths)

        statuses = []
        errors = []
        lock = threading.Lock()
        stop = threading.Event()

        def client_loop(i):
            try:
                with ServeClient(paths["socket"],
                                 tenant=f"t{i % 2}") as client:
                    while not stop.is_set():
                        response = client.offload("KMeans", n_tasks=4)
                        with lock:
                            statuses.append(response.status)
                        if response.status == SHUTTING_DOWN:
                            return
            except (ConnectionError, OSError, ServeError):
                # The daemon closed the socket after drain: also a
                # clean outcome for a client that raced the shutdown.
                return

        threads = [threading.Thread(target=client_loop, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()

        # Let real traffic flow, then pull the plug mid-stream.
        deadline = time.time() + BOOT_TIMEOUT_S
        while time.time() < deadline:
            with lock:
                if statuses.count(OK) >= 4:
                    break
            time.sleep(0.02)
        proc.send_signal(signal.SIGTERM)
        code = _finish(proc)
        stop.set()
        for t in threads:
            t.join(timeout=30)

        assert code == 75                         # pinned drain code
        # In-flight work completed; rejections were clean + retryable.
        assert statuses.count(OK) >= 4
        bad = [s for s in statuses
               if s != OK and s not in RETRYABLE_STATUSES]
        assert not bad, f"non-clean statuses during drain: {bad}"
        # State flushed with final counters; socket removed.
        snapshot = json.load(open(paths["state"]))
        assert snapshot["drained"] is True
        assert snapshot["metrics"]["counters"]["serve.completed"] \
            >= statuses.count(OK)
        assert not os.path.exists(paths["socket"])

    def test_idle_daemon_sigterm_exits_75_and_flushes(self, paths):
        proc = _spawn(paths)
        _wait_ready(proc, paths)
        with ServeClient(paths["socket"]) as client:
            assert client.ping().ok
        proc.send_signal(signal.SIGTERM)
        assert _finish(proc) == 75
        snapshot = json.load(open(paths["state"]))
        assert snapshot["drained"] is True
        assert not os.path.exists(paths["socket"])

    def test_sigint_drains_identically(self, paths):
        proc = _spawn(paths)
        _wait_ready(proc, paths)
        proc.send_signal(signal.SIGINT)
        assert _finish(proc) == 75
        assert json.load(open(paths["state"]))["drained"] is True
