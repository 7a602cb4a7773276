"""Admission control and weighted-round-robin fairness."""

import pytest

from repro.errors import ServeError
from repro.serve.request import OP_PING, ServeRequest
from repro.serve.scheduler import FairScheduler, TenantQueue


def _req(rid, tenant="default"):
    return ServeRequest(request_id=rid, op=OP_PING, tenant=tenant)


def _drain_order(scheduler):
    order = []
    while True:
        request = scheduler.next()
        if request is None:
            return order
        order.append(request.request_id)


class TestAdmission:
    def test_fifo_within_one_tenant(self):
        s = FairScheduler(queue_depth=8)
        for i in range(5):
            assert s.offer(_req(f"r{i}"))
        assert _drain_order(s) == [f"r{i}" for i in range(5)]

    def test_full_queue_sheds_never_grows(self):
        s = FairScheduler(queue_depth=3)
        assert all(s.offer(_req(f"r{i}")) for i in range(3))
        assert not s.offer(_req("r3"))          # shed, not queued
        assert s.depth() == 3
        assert not s.offer(_req("r4"))
        assert s.depth() == 3                   # bound holds

    def test_bounds_are_per_tenant(self):
        s = FairScheduler(queue_depth=2)
        assert s.offer(_req("a0", "a")) and s.offer(_req("a1", "a"))
        assert not s.offer(_req("a2", "a"))     # a is full
        assert s.offer(_req("b0", "b"))         # b is not

    def test_rejects_bad_bounds(self):
        with pytest.raises(ServeError):
            FairScheduler(queue_depth=0)
        with pytest.raises(ServeError):
            TenantQueue("t", weight=0, max_depth=4)


class TestWeightedRoundRobin:
    def test_equal_weights_interleave(self):
        s = FairScheduler(queue_depth=8)
        for i in range(3):
            s.offer(_req(f"a{i}", "a"))
            s.offer(_req(f"b{i}", "b"))
        assert _drain_order(s) == ["a0", "b0", "a1", "b1", "a2", "b2"]

    def test_weighted_tenant_gets_burst(self):
        s = FairScheduler(queue_depth=8,
                          tenant_weights={"heavy": 2})
        for i in range(4):
            s.offer(_req(f"h{i}", "heavy"))
            s.offer(_req(f"l{i}", "light"))
        # heavy serves two per turn, light one.
        assert _drain_order(s) == [
            "h0", "h1", "l0", "h2", "h3", "l1", "l2", "l3"]

    def test_hot_tenant_cannot_starve_others(self):
        s = FairScheduler(queue_depth=64)
        for i in range(60):
            s.offer(_req(f"hot{i}", "hot"))
        s.offer(_req("cold0", "cold"))
        order = _drain_order(s)
        # The cold request is dispatched after at most one hot burst
        # (weight 1), never behind the whole hot backlog.
        assert order.index("cold0") <= 1

    def test_empty_queue_passes_turn_without_stalling(self):
        s = FairScheduler(queue_depth=8)
        s.offer(_req("a0", "a"))
        assert s.next().request_id == "a0"
        # "a" seen but empty; "b" arrives later and must be served.
        s.offer(_req("b0", "b"))
        assert s.next().request_id == "b0"
        assert s.next() is None

    def test_deterministic_given_same_offers(self):
        def build():
            s = FairScheduler(queue_depth=16,
                              tenant_weights={"a": 3, "b": 1})
            for i in range(6):
                s.offer(_req(f"a{i}", "a"))
                s.offer(_req(f"b{i}", "b"))
                s.offer(_req(f"c{i}", "c"))
            return _drain_order(s)

        assert build() == build()


class TestDrainAndIntrospection:
    def test_drain_empties_everything(self):
        s = FairScheduler(queue_depth=8)
        for tenant in ("a", "b"):
            for i in range(3):
                s.offer(_req(f"{tenant}{i}", tenant))
        drained = s.drain()
        assert len(drained) == 6
        assert s.depth() == 0
        assert s.next() is None

    def test_depth_and_tenants(self):
        s = FairScheduler(queue_depth=8)
        s.offer(_req("a0", "a"))
        s.offer(_req("a1", "a"))
        s.offer(_req("b0", "b"))
        assert s.depth("a") == 2
        assert s.depth("b") == 1
        assert s.depth("missing") == 0
        assert s.depth() == 3
        assert s.tenants() == ["a", "b"]
