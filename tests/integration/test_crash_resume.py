"""Kill/resume chaos harness (subprocess level).

Each scenario SIGKILLs a real ``s2fa explore --cache-dir`` process at a
deterministic point (``S2FA_CHAOS_KILL``), resumes it by running the
same command again over the same cache, and asserts the three
crash-safety guarantees end to end:

1. the rerun's exported report is byte-identical to an uninterrupted
   baseline's,
2. no design point was estimated twice across the kill (every key
   appears exactly once in the persistent store),
3. a graceful interrupt exits with the pinned resumable code (75).
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
KERNEL = """
class Inc extends Accelerator[Int, Int] {
  val id: String = "inc"
  def call(in: Int): Int = in + 1
}
"""
SEEDS = [3, 7, 12]
TIME_LIMIT = "40"


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "inc.scala"
    path.write_text(KERNEL)
    return str(path)


def _explore(kernel_file, tmp_path, seed, *, chaos=None, cache=True,
             json_name=None):
    """Run ``s2fa explore`` in a subprocess; return (returncode, stderr)."""
    cmd = [sys.executable, "-m", "repro.cli", "explore", kernel_file,
           "--seed", str(seed), "--time-limit", TIME_LIMIT]
    if cache:
        cmd += ["--cache-dir", str(tmp_path / "cache")]
    if json_name:
        cmd += ["--json", str(tmp_path / json_name)]
    env = dict(os.environ,
               PYTHONPATH=str(REPO / "src"))
    env.pop("S2FA_CHAOS_KILL", None)
    if chaos:
        env["S2FA_CHAOS_KILL"] = chaos
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=600)
    return proc.returncode, proc.stderr


def _report(tmp_path, name):
    data = json.loads((tmp_path / name).read_text())
    # Real-clock evaluator statistics legitimately differ across a kill
    # (the rerun answers from the store); everything scientific must
    # not.
    data.pop("evaluator_stats", None)
    return json.dumps(data, sort_keys=True)


def _store_keys(tmp_path):
    keys = []
    for path in (tmp_path / "cache").glob("*.jsonl"):
        for line in path.read_text().splitlines():
            if line:
                keys.append(json.loads(line)["key"])
    return keys


def _assert_resume_matches_baseline(kernel_file, tmp_path, seed, kills):
    code, _ = _explore(kernel_file, tmp_path, seed, cache=False,
                       json_name="baseline.json")
    assert code == 0

    for chaos in kills:
        code, _ = _explore(kernel_file, tmp_path, seed, chaos=chaos)
        assert code == -signal.SIGKILL, \
            f"chaos {chaos} did not SIGKILL the explorer (rc={code})"

    code, _ = _explore(kernel_file, tmp_path, seed,
                       json_name="resumed.json")
    assert code == 0
    assert _report(tmp_path, "resumed.json") \
        == _report(tmp_path, "baseline.json")

    keys = _store_keys(tmp_path)
    assert len(keys) == len(set(keys)), \
        "a design point was estimated twice across the kill"


class TestKillResume:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_kill_at_batch_boundary(self, kernel_file, tmp_path, seed):
        _assert_resume_matches_baseline(kernel_file, tmp_path, seed,
                                        kills=["boundary:2"])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_kill_mid_batch(self, kernel_file, tmp_path, seed):
        # The process dies after the batch is evaluated (results are in
        # the persistent cache) but before they are merged.
        _assert_resume_matches_baseline(kernel_file, tmp_path, seed,
                                        kills=["mid:3"])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_double_kill(self, kernel_file, tmp_path, seed):
        _assert_resume_matches_baseline(kernel_file, tmp_path, seed,
                                        kills=["boundary:1",
                                               "boundary:3"])

    def test_kill_before_first_checkpoint(self, kernel_file, tmp_path):
        # Killed before the first batch boundary: the rerun finds only
        # the first batch's store records and replays from there.
        _assert_resume_matches_baseline(kernel_file, tmp_path, SEEDS[0],
                                        kills=["mid:1"])


class TestGracefulInterrupt:
    def test_interrupt_exits_75_then_resumes(self, kernel_file, tmp_path):
        code, _ = _explore(kernel_file, tmp_path, SEEDS[0],
                           cache=False, json_name="baseline.json")
        assert code == 0

        code, stderr = _explore(kernel_file, tmp_path, SEEDS[0],
                                chaos="stop:2")
        assert code == 75
        assert "interrupted:" in stderr
        assert "rerun with the same --cache-dir" in stderr

        code, _ = _explore(kernel_file, tmp_path, SEEDS[0],
                           json_name="resumed.json")
        assert code == 0
        assert _report(tmp_path, "resumed.json") \
            == _report(tmp_path, "baseline.json")

    def test_sigterm_flushes_checkpoint_and_exits_75(self, kernel_file,
                                                     tmp_path):
        # A real signal (not the chaos hook): SIGTERM mid-run must finish
        # the in-flight batch and exit 75 with its estimates in the
        # cache, and a rerun over that cache must finish the run.
        cmd = [sys.executable, "-m", "repro.cli", "explore", kernel_file,
               "--seed", str(SEEDS[0]), "--time-limit", "400"]
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        env.pop("S2FA_CHAOS_KILL", None)
        proc = subprocess.run(
            cmd + ["--json", str(tmp_path / "baseline.json")],
            capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr

        cache = ["--cache-dir", str(tmp_path / "cache")]
        proc = subprocess.Popen(cmd + cache, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                env=env)
        # Wait until the run has demonstrably started (first cache
        # records appear), then deliver the signal.
        import time
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if list((tmp_path / "cache").glob("*.jsonl")):
                break
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=600)
        assert proc.returncode == 75, stderr
        assert "interrupted:" in stderr
        assert _store_keys(tmp_path), "no estimate reached the cache"

        proc = subprocess.run(
            cmd + cache + ["--json", str(tmp_path / "resumed.json")],
            capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert _report(tmp_path, "resumed.json") \
            == _report(tmp_path, "baseline.json")
