"""The durable-state substrate, black-box, plus its structural guard.

Two-process appends are exercised through ``CacheStore`` in
``tests/dse/test_cache.py::TestConcurrentAppends``; the SIGKILL paths of
the chaos hook in the ``tests/integration`` resume harnesses.
"""

import os
import stat
from pathlib import Path

import pytest

import repro
from repro.durable import (
    CHAOS_KILL_ENV,
    AppendLog,
    ChaosKill,
    atomic_write,
)
from repro.errors import S2FAError


class TestAtomicWrite:
    def test_fsync_file_then_replace_then_fsync_dir(self, tmp_path,
                                                    monkeypatch):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
            calls.append("fsync-dir" if is_dir else "fsync-file")
            real_fsync(fd)

        def replace(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        target = tmp_path / "snap.json"
        atomic_write(target, b"new")
        assert calls == ["fsync-file", "replace", "fsync-dir"]
        assert target.read_bytes() == b"new"

    @pytest.mark.parametrize("failing", ["fsync", "replace"])
    def test_error_before_rename_keeps_previous_file(
            self, tmp_path, monkeypatch, failing):
        target = tmp_path / "snap.json"
        atomic_write(target, b"old")

        def boom(*_args):
            raise OSError("injected")

        monkeypatch.setattr(os, failing, boom)
        with pytest.raises(OSError, match="injected"):
            atomic_write(target, b"new, much longer than the old one")
        assert target.read_bytes() == b"old"


class TestAppendLog:
    def test_recover_heals_a_parsable_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a":1}\n{"a":2}')
        assert AppendLog.recover(path) == 0
        assert path.read_bytes() == b'{"a":1}\n{"a":2}\n'

    def test_recover_truncates_an_unparsable_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a":1}\n{"a":')
        assert AppendLog.recover(path) == len(b'{"a":')
        assert path.read_bytes() == b'{"a":1}\n'

    def test_recover_leaves_clean_and_missing_files_alone(self, tmp_path):
        path = tmp_path / "log.jsonl"
        assert AppendLog.recover(path) == 0 and not path.exists()
        # A corrupt *complete* line is the caller's policy, not a tear.
        path.write_bytes(b'garbage\n{"a":1}\n')
        assert AppendLog.recover(path) == 0
        assert path.read_bytes() == b'garbage\n{"a":1}\n'

    def test_append_after_recover_never_glues_onto_the_tear(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a":1}\n{"a":')
        AppendLog.recover(path)
        with AppendLog(path) as log:
            log.append(b'{"a":2}\n')
            log.sync()
        assert path.read_bytes() == b'{"a":1}\n{"a":2}\n'

    def test_short_write_raises(self, tmp_path, monkeypatch):
        real_write = os.write
        monkeypatch.setattr(os, "write",
                            lambda fd, data: real_write(fd, data[:3]))
        with AppendLog(tmp_path / "log.jsonl") as log:
            with pytest.raises(OSError, match="short append"):
                log.append(b'{"a":1}\n')


class TestChaosKill:
    def test_unset_never_fires(self, monkeypatch):
        monkeypatch.delenv(CHAOS_KILL_ENV, raising=False)
        stops = []
        chaos = ChaosKill(lambda: stops.append(1))
        chaos.fire("stop", 1)
        assert chaos.armed is None and stops == []

    def test_stop_fires_only_at_the_armed_point(self, monkeypatch):
        monkeypatch.setenv(CHAOS_KILL_ENV, "stop:2")
        stops = []
        chaos = ChaosKill(lambda: stops.append(1))
        chaos.fire("stop", 1)
        chaos.fire("boundary", 2)
        assert stops == []
        chaos.fire("stop", 2)
        assert stops == [1]

    @pytest.mark.parametrize("spec", ["stop", "stop:x", "later:1", ":3"])
    def test_bad_spec_is_a_typed_error(self, monkeypatch, spec):
        monkeypatch.setenv(CHAOS_KILL_ENV, spec)
        with pytest.raises(S2FAError, match=CHAOS_KILL_ENV):
            ChaosKill(lambda: None)


def test_durability_primitives_live_only_in_the_substrate():
    """A sixth hand-rolled copy cannot reappear unnoticed."""
    root = Path(repro.__file__).parent
    primitives = ("os.fsync(", "os.replace(", "flock(", "truncate(")
    offenders = sorted(
        f"{path.relative_to(root)}: {token}"
        for path in root.rglob("*.py") if path.name != "durable.py"
        for token in primitives if token in path.read_text())
    assert offenders == []
    substrate = (root / "durable.py").read_text()
    assert all(token in substrate for token in primitives)
