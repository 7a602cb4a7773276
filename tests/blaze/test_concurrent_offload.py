"""Concurrent callers sharing one BlazeRuntime.

The serve daemon multiplexes many client threads over a single runtime,
so the offload path must stay correct under contention: the virtual
clock never loses time, batch metrics stay consistent, quarantine
probes/re-admissions interleave cleanly, and a permanently dead board
degrades every caller to the (bit-identical) fallback path instead of
corrupting any.
"""

import threading

import pytest

from repro.blaze import BlazeRuntime, OffloadPolicy
from repro.blaze.manager import ACTIVE, LOST
from repro.blaze.runtime import VirtualClock
from repro.compiler import compile_kernel
from repro.errors import BlazeError
from repro.spark import SparkContext

from .test_resilience import (
    DOUBLER,
    FAST_POLICY,
    ScriptedFaults,
    _deploy_config,
)


def _runtime(policy=FAST_POLICY):
    sc = SparkContext(default_parallelism=1)
    runtime = BlazeRuntime(sc, policy=policy)
    compiled = compile_kernel(DOUBLER)
    entry = runtime.register(compiled, _deploy_config(compiled))
    return runtime, entry


def _hammer(n_threads, fn):
    """Run ``fn(i)`` from ``n_threads`` threads; re-raise any failure."""
    errors = []

    def wrapped(i):
        try:
            fn(i)
        except Exception as exc:      # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,))
               for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


class TestVirtualClock:
    def test_concurrent_advance_loses_no_time(self):
        clock = VirtualClock()
        per_thread, advances = 200, 0.001

        def advance(_i):
            for _ in range(per_thread):
                clock.advance(advances)

        _hammer(8, advance)
        assert clock.now == pytest.approx(8 * per_thread * advances)

    def test_advance_returns_a_consistent_reading(self):
        clock = VirtualClock()
        readings = []
        lock = threading.Lock()

        def advance(_i):
            for _ in range(100):
                reading = clock.advance(1.0)
                with lock:
                    readings.append(reading)

        _hammer(4, advance)
        # Each locked read-modify-write yields a distinct total.
        assert len(set(readings)) == len(readings) == 400
        assert max(readings) == clock.now == 400.0

    def test_negative_rejected(self):
        clock = VirtualClock()
        with pytest.raises(BlazeError):
            clock.advance(-1.0)
        assert clock.now == 0.0


class TestConcurrentOffload:
    def test_shared_runtime_metrics_stay_consistent(self):
        runtime, entry = _runtime()
        n_threads, batches, tasks = 8, 5, 10
        data = list(range(tasks))
        want = [x * 2 for x in data]
        outputs = []
        lock = threading.Lock()

        def offload(_i):
            for _ in range(batches):
                got = runtime.offload_batch(entry, list(data))
                with lock:
                    outputs.append(got)

        _hammer(n_threads, offload)
        assert len(outputs) == n_threads * batches
        assert all(got == want for got in outputs)
        m = runtime.metrics
        assert m.accel_tasks == n_threads * batches * tasks
        assert m.fallback_tasks == 0
        # Every accelerated second is on the clock, none lost.
        assert runtime.clock.now == pytest.approx(m.accel_seconds)

    def test_quarantine_probe_readmit_under_contention(self):
        runtime, entry = _runtime()
        # Three straight transients quarantine the board once; every
        # invocation after that is clean.
        entry.board.faults = ScriptedFaults(["transient"] * 3)
        data = list(range(6))
        want = [x * 2 for x in data]

        def offload(_i):
            for _ in range(4):
                got = runtime.offload_batch(entry, list(data))
                if got is None:
                    # Degraded path: compute on the JVM and charge the
                    # clock so the quarantine can expire.
                    runtime.record_fallback(len(data), 0.01)
                    got = [x * 2 for x in data]
                assert got == want

        _hammer(6, offload)
        m = runtime.metrics
        assert entry.state == ACTIVE              # probed and readmitted
        assert m.quarantines == 1
        assert m.probes >= 1
        assert m.readmissions >= 1
        assert m.transient_faults == 3
        # Conservation: every batch either accelerated or fell back.
        total = m.accel_tasks + m.fallback_tasks
        assert total == 6 * 4 * len(data)

    def test_dead_board_degrades_every_caller_identically(self):
        runtime, entry = _runtime()
        entry.board.faults = ScriptedFaults(["lost"])
        data = list(range(8))
        want = [x * 2 for x in data]
        served = []
        lock = threading.Lock()

        def offload(i):
            for _ in range(3):
                got = runtime.offload_batch(entry, list(data))
                if got is None:
                    runtime.record_fallback(len(data), 0.001)
                    got = [x * 2 for x in data]
                with lock:
                    served.append(got)

        _hammer(8, offload)
        # All requests completed, all bit-identical, none on hardware.
        assert len(served) == 8 * 3
        assert all(got == want for got in served)
        assert entry.state == LOST
        m = runtime.metrics
        assert m.devices_lost == 1                # counted exactly once
        assert m.accel_tasks == 0
        assert m.fallback_tasks == 8 * 3 * len(data)
        assert m.fault_fallback_batches == 8 * 3

    def test_concurrent_callers_on_distinct_entries(self):
        sc = SparkContext(default_parallelism=1)
        runtime = BlazeRuntime(sc, policy=FAST_POLICY)
        compiled = compile_kernel(DOUBLER)
        entries = [
            runtime.manager.register(compiled, _deploy_config(compiled),
                                     accel_id=f"doubler#{i}")
            for i in range(4)
        ]
        data = list(range(5))
        want = [x * 2 for x in data]

        def offload(i):
            for _ in range(10):
                assert runtime.offload_batch(
                    entries[i % 4], list(data)) == want

        _hammer(8, offload)
        assert runtime.metrics.accel_tasks == 8 * 10 * len(data)
