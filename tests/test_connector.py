"""Connector transport semantics: policies, fan-out, latency, migration."""

import pytest
from hypothesis import given, strategies as st

from adaptsim.connector import (ConnectorInstance, Endpoint, FlowPolicy,
                                FlowSync, LossKind, PushResult)
from adaptsim.errors import BindingError, ValidationError

SRC = Endpoint("a", "out")
SNK = Endpoint("b", "in")


def conn(policy=None, sinks=None, transit=None, cid="k"):
    return ConnectorInstance(cid, SRC, sinks or [SNK],
                             policy or FlowPolicy(), transit=transit)


class TestPushPull:
    def test_accept_then_deliver_fifo(self):
        c = conn()
        for i in range(5):
            assert c.push("a", "out", i * 10, now=0) is PushResult.ACCEPTED
        got = [c.pull("b", "in", now=0) for _ in range(6)]
        assert got == [0, 10, 20, 30, 40, None]

    def test_wrong_source_rejected(self):
        c = conn()
        with pytest.raises(BindingError):
            c.push("x", "out", 1, now=0)

    def test_wrong_sink_rejected(self):
        c = conn()
        with pytest.raises(BindingError):
            c.pull("nobody", "in", now=0)

    def test_lossless_blocks_at_capacity(self):
        c = conn(FlowPolicy(capacity=3))
        for i in range(3):
            assert c.push("a", "out", i, now=0) is PushResult.ACCEPTED
        assert c.push("a", "out", 99, now=0) is PushResult.BLOCKED
        # blocked push consumes no sequence number
        assert c.pushed_count == 3
        assert c.pull("b", "in", now=0) == 0
        assert c.push("a", "out", 99, now=0) is PushResult.ACCEPTED

    def test_unsynchronized_lossless_blocks_but_never_stalls(self):
        c = conn(FlowPolicy(sync=FlowSync.UNSYNCHRONIZED, capacity=1))
        assert c.push("a", "out", 1, now=0) is PushResult.ACCEPTED
        assert c.would_block() is False
        assert c.push("a", "out", 2, now=0) is PushResult.BLOCKED

    def test_synchronized_lossless_stalls_producer(self):
        c = conn(FlowPolicy(capacity=1))
        assert c.would_block() is False
        c.push("a", "out", 1, now=0)
        assert c.would_block() is True

    def test_keep_latest_overwrites(self):
        c = conn(FlowPolicy(loss=LossKind.KEEP_LATEST))
        assert c.push("a", "out", "old", now=0) is PushResult.ACCEPTED
        assert c.push("a", "out", "new", now=1) is PushResult.OVERWROTE
        assert c.would_block() is False
        assert c.pull("b", "in", now=1) == "new"
        assert c.pull("b", "in", now=1) is None

    def test_capacity_validation(self):
        with pytest.raises(ValidationError):
            FlowPolicy(capacity=0)
        with pytest.raises(ValidationError):
            ConnectorInstance("k", SRC, [], FlowPolicy())


class TestFanOut:
    def test_each_sink_gets_a_copy(self):
        s1, s2 = Endpoint("b", "in"), Endpoint("c", "in")
        c = conn(sinks=[s1, s2])
        c.push("a", "out", {"v": 1}, now=0)
        got1 = c.pull("b", "in", now=0)
        got2 = c.pull("c", "in", now=0)
        assert got1 == got2 == {"v": 1}

    def test_lossless_blocks_on_slowest_sink(self):
        s1, s2 = Endpoint("b", "in"), Endpoint("c", "in")
        c = conn(FlowPolicy(capacity=1), sinks=[s1, s2])
        c.push("a", "out", 1, now=0)
        c.pull("b", "in", now=0)           # s2 still holds its copy
        assert c.push("a", "out", 2, now=0) is PushResult.BLOCKED


class TestLatency:
    def test_cross_host_delay_is_route_latency(self):
        # three-tick route: pushed at 10, deliverable from 13 (10 + 3)
        c = conn(transit=lambda sink: (3, ("h1", "h2", "h3")))
        c.push("a", "out", "x", now=10)
        assert c.pull("b", "in", now=12) is None
        assert c.pull("b", "in", now=13) == "x"

    def test_unroutable_sample_waits_for_route(self):
        routes = {"up": False}
        c = conn(transit=lambda sink: (2, ("h1", "h2")) if routes["up"]
                 else None)
        c.push("a", "out", "x", now=0)
        assert c.pull("b", "in", now=5) is None
        routes["up"] = True
        assert c.pull("b", "in", now=5) is None   # re-priced at 5 + 2
        assert c.pull("b", "in", now=7) == "x"

    def test_reroute_on_link_failure_lossless(self):
        c = conn(transit=lambda sink: (4, ("h1", "h3", "h2")))
        c.push("a", "out", "x", now=0)
        c.reroute_check(now=1, link_up=lambda a, b: (a, b) != ("h1", "h3"))
        assert c.pull("b", "in", now=4) is None
        assert c.pull("b", "in", now=5) == "x"    # re-routed at 1, lat 4

    def test_reroute_on_link_failure_keep_latest_drops(self):
        c = conn(FlowPolicy(loss=LossKind.KEEP_LATEST),
                 transit=lambda sink: (4, ("h1", "h3", "h2")))
        c.push("a", "out", "x", now=0)
        c.reroute_check(now=1, link_up=lambda a, b: (a, b) != ("h1", "h3"))
        assert c.pull("b", "in", now=100) is None


class TestControl:
    def test_drain_rebind_refill_preserves_residue(self):
        c = conn()
        for i in range(4):
            c.push("a", "out", i, now=0)
        c.pull("b", "in", now=0)
        residue = c.drain()[SNK]
        assert [s.payload for s in residue] == [1, 2, 3]
        c.refill(SNK, residue, now=5)
        assert [c.pull("b", "in", now=5) for _ in range(3)] == [1, 2, 3]

    def test_refill_precedes_new_traffic(self):
        c = conn()
        c.push("a", "out", "old", now=0)
        residue = c.drain()[SNK]
        c.push("a", "out", "new", now=1)
        c.refill(SNK, residue, now=1)
        assert c.pull("b", "in", now=1) == "old"
        assert c.pull("b", "in", now=1) == "new"


class TestReporting:
    def test_depth_and_rate(self):
        c = conn()
        for i in range(3):
            c.push("a", "out", i, now=0)
        assert c.depth() == 3
        c.pull("b", "in", now=0)
        c.pull("b", "in", now=0)
        assert c.take_rate() == 2
        assert c.take_rate() == 0      # window resets


@given(st.lists(st.integers(), min_size=1, max_size=60),
       st.integers(min_value=1, max_value=8))
def test_lossless_delivery_matches_acceptance(payloads, capacity):
    """Whatever gets Accepted comes out, in order, with nothing else."""
    c = conn(FlowPolicy(capacity=capacity))
    accepted = []
    for p in payloads:
        r = c.push("a", "out", p, now=0)
        if r is PushResult.ACCEPTED:
            accepted.append(p)
        if c.would_block():
            while c.pull("b", "in", now=0) is not None:
                pass
    rest = []
    while True:
        got = c.pull("b", "in", now=0)
        if got is None:
            break
        rest.append(got)
    drained = accepted[:len(accepted) - len(rest)]
    assert drained + rest == accepted
