"""Admission control and per-tenant fair-share scheduling.

The daemon front door is a set of **bounded** per-tenant FIFO queues: a
request either takes a queue slot at admission time or is shed with an
explicit ``OVERLOADED`` rejection — queues can never grow without bound,
so a flood degrades into load shedding, not memory growth and collapse.

Dispatch order is **weighted round-robin** over the tenant queues: the
scheduler cycles tenants in first-seen order and serves up to ``weight``
requests from each before moving on (a tenant that ``tenant_weights``
does not list has weight 1).  A hot tenant with a full queue
therefore gets at most ``weight / sum(weights)`` of the dispatch slots
while others have work queued — one tenant cannot starve the rest.
Everything is deterministic: same admission order in, same dispatch
order out, no randomness and no wall-clock reads.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..errors import ServeError
from .request import ServeRequest


class TenantQueue:
    """One tenant's bounded FIFO of admitted-but-not-started requests."""

    __slots__ = ("tenant", "weight", "max_depth", "items")

    def __init__(self, tenant: str, weight: int, max_depth: int):
        if weight < 1:
            raise ServeError(
                f"tenant {tenant!r}: weight must be >= 1, got {weight}")
        if max_depth < 1:
            raise ServeError(
                f"tenant {tenant!r}: max_depth must be >= 1, "
                f"got {max_depth}")
        self.tenant = tenant
        self.weight = weight
        self.max_depth = max_depth
        self.items: deque[ServeRequest] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def full(self) -> bool:
        return len(self.items) >= self.max_depth


class FairScheduler:
    """Weighted round-robin dispatcher over bounded tenant queues.

    Not internally locked: the serve core serializes all access under
    its own lock (admission and dispatch must be atomic *together* with
    the rest of the core's state anyway).
    """

    def __init__(self, *, queue_depth: int = 64,
                 tenant_weights: Optional[dict[str, int]] = None):
        if queue_depth < 1:
            raise ServeError(
                f"queue_depth must be >= 1, got {queue_depth}")
        self.queue_depth = queue_depth
        self._weights = dict(tenant_weights or {})
        #: Tenant queues in first-seen order (the round-robin ring).
        self._queues: dict[str, TenantQueue] = {}
        #: Index of the tenant currently holding the dispatch turn.
        self._turn = 0
        #: Dispatches left in the turn-holder's burst (None: refill from
        #: its weight on the next dispatch).
        self._remaining: Optional[int] = None

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def queue_for(self, tenant: str) -> TenantQueue:
        """The tenant's queue, created on first sight."""
        queue = self._queues.get(tenant)
        if queue is None:
            weight = self._weights.get(tenant, 1)
            queue = TenantQueue(tenant, weight, self.queue_depth)
            self._queues[tenant] = queue
        return queue

    def offer(self, request: ServeRequest) -> bool:
        """Admit ``request`` into its tenant's queue.

        Returns ``False`` — shed — when the queue is full.  Never
        blocks, never grows a queue past its bound.
        """
        queue = self.queue_for(request.tenant)
        if queue.full:
            return False
        queue.items.append(request)
        return True

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def next(self) -> Optional[ServeRequest]:
        """The next request under weighted round-robin (None if idle).

        The current tenant keeps the turn for up to ``weight``
        consecutive dispatches while it has work; then (or when its
        queue is empty) the turn passes to the next tenant in
        first-seen order.
        """
        ring = list(self._queues.values())
        if not ring:
            return None
        n = len(ring)
        if self._turn >= n:
            self._turn, self._remaining = 0, None
        for _ in range(n):
            queue = ring[self._turn]
            if self._remaining is None:
                self._remaining = queue.weight
            if queue.items and self._remaining > 0:
                self._remaining -= 1
                request = queue.items.popleft()
                if self._remaining == 0:
                    self._pass_turn(n)
                return request
            self._pass_turn(n)
        return None

    def _pass_turn(self, n: int) -> None:
        self._turn = (self._turn + 1) % n
        self._remaining = None

    def drain(self) -> list[ServeRequest]:
        """Remove and return every queued request (daemon shutdown)."""
        drained: list[ServeRequest] = []
        for queue in self._queues.values():
            drained.extend(queue.items)
            queue.items.clear()
        return drained

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def depth(self, tenant: Optional[str] = None) -> int:
        """Queued requests for one tenant (or all tenants)."""
        if tenant is not None:
            queue = self._queues.get(tenant)
            return len(queue) if queue else 0
        return sum(len(q) for q in self._queues.values())

    def tenants(self) -> list[str]:
        """Tenants seen so far, in ring (first-seen) order."""
        return list(self._queues)
