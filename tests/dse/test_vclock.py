"""Worker pool tests."""

import pytest

from repro.dse import WorkerPool
from repro.errors import DSEError


class TestWorkerPool:
    def test_sequential_chain_on_one_worker(self):
        pool = WorkerPool(1)
        finished = []

        def make_job(index):
            def job():
                def on_done(now):
                    finished.append((index, now))
                    if index < 2:
                        pool.submit(make_job(index + 1))
                return 10.0, on_done
            return job

        pool.submit(make_job(0))
        end = pool.run()
        assert finished == [(0, 10.0), (1, 20.0), (2, 30.0)]
        assert end == 30.0

    def test_parallel_workers_overlap(self):
        pool = WorkerPool(4)
        finished = []
        for i in range(4):
            duration = float(i + 1)
            pool.submit(lambda d=duration: (d, lambda now: finished.append(now)))
        end = pool.run()
        assert sorted(finished) == [1.0, 2.0, 3.0, 4.0]
        assert end == 4.0  # not 10: the four jobs ran concurrently

    def test_queueing_when_workers_busy(self):
        pool = WorkerPool(2)
        finished = []
        for _ in range(4):
            pool.submit(lambda: (10.0, lambda now: finished.append(now)))
        end = pool.run()
        # Two waves of two jobs.
        assert finished == [10.0, 10.0, 20.0, 20.0]
        assert end == 20.0

    def test_until_limit_pauses(self):
        pool = WorkerPool(1)
        finished = []
        pool.submit(lambda: (100.0, lambda now: finished.append(now)))
        end = pool.run(until=50.0)
        assert end == 50.0
        assert finished == []  # event still pending beyond the horizon

    def test_zero_workers_rejected(self):
        with pytest.raises(DSEError):
            WorkerPool(0)

    def test_fifo_dispatch_order(self):
        pool = WorkerPool(1)
        order = []
        for name in "abc":
            pool.submit(lambda n=name: (1.0, lambda now: order.append(n)))
        pool.run()
        assert order == ["a", "b", "c"]
