"""Virtual time for the DSE process.

The paper's numbers (Impediment 1, Fig. 3's hours axis) are dominated by
HLS runtime: minutes to an hour per design point.  Reproducing the DSE
behaviour does not require actually waiting; evaluations charge simulated
minutes and an 8-worker discrete-event scheduler replays the parallel
exploration exactly as the paper's 8-core host would.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional

from ..errors import DSEError


@dataclass(order=True)
class _Event:
    time: float
    order: int
    worker: int = field(compare=False)
    job: object = field(compare=False)


class WorkerPool:
    """Discrete-event simulation of N parallel workers.

    Jobs are callables returning their duration in minutes; completion
    callbacks may enqueue more work (that is how a partition's sequential
    tuner keeps one worker busy).
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise DSEError("worker pool needs at least one worker")
        self.workers = workers
        self._free: list[int] = list(range(workers))
        self._events: list[_Event] = []
        self._queue: list = []
        self._counter = 0
        self.now = 0.0

    def submit(self, job) -> None:
        """Queue a job: ``job()`` must return (duration_minutes, on_done).

        ``on_done(finish_time)`` runs at completion and may submit more
        jobs.
        """
        self._queue.append(job)
        self._dispatch()

    def _dispatch(self) -> None:
        while self._free and self._queue:
            worker = self._free.pop()
            job = self._queue.pop(0)
            duration, on_done = job()
            self._counter += 1
            heapq.heappush(self._events, _Event(
                time=self.now + duration, order=self._counter,
                worker=worker, job=on_done))

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains (or ``until`` minutes)."""
        while self._events:
            event = heapq.heappop(self._events)
            if until is not None and event.time > until:
                heapq.heappush(self._events, event)
                self.now = until
                return self.now
            self.now = event.time
            self._free.append(event.worker)
            if event.job is not None:
                event.job(self.now)
            self._dispatch()
        return self.now
