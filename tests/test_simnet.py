"""Tick loop, scripted events, battery drain and determinism."""

import dataclasses
import os

import pytest

from adaptsim import behaviors, kernel
from adaptsim.connector import Endpoint, FlowPolicy, FlowSync, LossKind
from adaptsim.container import ComponentDescriptor, Variant
from adaptsim.context import (ContextInformation, ContextNature, Location,
                              Quantity, stamp)
from adaptsim.errors import ScheduleError
from adaptsim.kernel import (Add, Battery, Connect, HostDescriptor, HostTier,
                             Move)
from adaptsim.simnet import SimEventKind, World, sim_event


def desc(cid, in_ports=(), out_ports=(), behavior="identity"):
    return ComponentDescriptor(
        id=cid, in_ports=tuple(in_ports), out_ports=tuple(out_ports),
        variants=(Variant("Full", 1.0, 1.0, behavior),))


def two_hosts(latency=1, battery=None):
    w = World(seed=0)
    w.add_host(HostDescriptor(id="h1", tier=HostTier.FULL,
                              cpu_capacity=8, mem_capacity=8))
    w.add_host(HostDescriptor(id="h2", tier=HostTier.FULL,
                              cpu_capacity=8, mem_capacity=8,
                              power=battery))
    w.add_link("h1", "h2", latency=latency)
    return w


class TestScheduling:
    def test_past_events_are_rejected(self):
        w = two_hosts()
        w.now = 5
        with pytest.raises(ScheduleError):
            w.schedule(sim_event(4, SimEventKind.HOST_LEAVE, host="h2"))

    @pytest.mark.parametrize("kind, args, named", [
        (SimEventKind.HOST_JOIN, {"host": "h9"}, "host 'h9'"),
        (SimEventKind.HOST_LEAVE, {"host": "h9"}, "host 'h9'"),
        (SimEventKind.SENSOR_READING, {"host": "h9", "key": "temp"},
         "host 'h9'"),
        (SimEventKind.USER_PROFILE, {"host": "h9", "key": "user.mode"},
         "host 'h9'"),
        (SimEventKind.BATTERY_SET, {"host": "h9", "level": 0.5},
         "host 'h9'"),
        (SimEventKind.LINK_DOWN, {"endpoints": ("h1", "h9")}, "link h1-h9"),
        (SimEventKind.LINK_UP, {"endpoints": ("h1", "h1")}, "link h1-h1"),
    ])
    def test_an_event_on_no_host_or_link_of_the_world_is_rejected(
            self, kind, args, named):
        """Each used to be queued, counted as fired and traced as
        nothing."""
        w = two_hosts()
        with pytest.raises(ScheduleError, match=f"^{named} is not in the "
                                                f"net$"):
            w.schedule(sim_event(0, kind, **args))
        assert w.step() == {"tick": 0, "events": 0, "faults": 0}
        assert w.trace_lines == []

    @pytest.mark.parametrize("kind, args, missing", [
        (SimEventKind.LINK_DOWN, {}, "LinkDown event at 0 is missing "
                                     "'endpoints'"),
        (SimEventKind.LINK_UP, {}, "LinkUp event at 0 is missing "
                                   "'endpoints'"),
        (SimEventKind.HOST_LEAVE, {}, "HostLeave event at 0 is missing "
                                      "'host'"),
        (SimEventKind.SENSOR_READING, {"key": "temp"},
         "SensorReading event at 0 is missing 'host'"),
    ])
    def test_an_event_lacking_its_host_or_link_is_rejected(
            self, kind, args, missing):
        """A link event without endpoints raised a TypeError, and a host
        event without a host was refused as `host None`."""
        w = two_hosts()
        with pytest.raises(ScheduleError, match=f"^{missing}$"):
            w.schedule(sim_event(0, kind, **args))
        assert w.step() == {"tick": 0, "events": 0, "faults": 0}

    def test_same_tick_events_run_in_kind_order(self):
        # LinkDown is ordered before HostJoin regardless of insertion order
        w = two_hosts()
        w.hosts["h2"].desc.up = False
        w.schedule(sim_event(0, SimEventKind.HOST_JOIN, host="h2"))
        w.schedule(sim_event(0, SimEventKind.LINK_DOWN,
                             endpoints=("h1", "h2")))
        w.step()
        lines = [l for l in w.trace_lines if "op=" in l]
        assert lines.index(next(l for l in lines if "linkdown" in l)) \
            < lines.index(next(l for l in lines if "op=join" in l))
        assert w.hosts["h2"].desc.up is True

    def test_events_fire_by_tick_then_kind_then_schedule_order(self):
        w = two_hosts()
        fired = []
        fire = w._fire
        w._fire = lambda e: (fired.append((w.now, e.arg("value"))), fire(e))
        for at, value in ((2, "c"), (1, "b"), (2, "d"), (0, "a")):
            w.schedule(sim_event(at, SimEventKind.USER_PROFILE, host="h1",
                                 key="k", value=value))
        w.schedule(sim_event(2, SimEventKind.LINK_DOWN, value="down",
                             endpoints=("h1", "h2")))
        assert [w.step()["events"] for _ in range(3)] == [1, 1, 3]
        assert fired == [(0, "a"), (1, "b"), (2, "down"), (2, "c"), (2, "d")]

    def test_sensor_reading_lands_in_the_store(self):
        w = two_hosts()
        w.schedule(sim_event(0, SimEventKind.SENSOR_READING, host="h1",
                             key="temp", value=21.5, unit="C"))
        w.step()
        [obj] = w.hosts["h1"].store.history("temp")
        assert obj.info.value.value == 21.5
        assert any("kind=CTX key=temp" in l for l in w.trace_lines)


class TestBattery:
    def test_drain_forces_leave_on_the_expected_tick(self):
        # 0.25 at 0.1/tick: 0.15, 0.05, 0.0 after ticks 0-2; leaves tick 3
        w = two_hosts(battery=Battery(level=0.25, drain_per_tick=0.1))
        for _ in range(3):
            w.step()
            assert w.hosts["h2"].desc.up
        w.step()
        assert not w.hosts["h2"].desc.up
        assert any(l.startswith("tick=3") and "op=leave" in l
                   for l in w.trace_lines)

    def test_battery_set_event_overrides_level(self):
        w = two_hosts(battery=Battery(level=0.9))
        w.schedule(sim_event(0, SimEventKind.BATTERY_SET, host="h2",
                             level=0.2))
        w.step()
        assert w.hosts["h2"].desc.power.level == pytest.approx(0.2)


class TestHostPhase:
    def deployed(self, **kw):
        w = two_hosts(**kw)
        kernel.apply_now(w, Add(desc("src", out_ports=("o",),
                                     behavior="source"), "h1"))
        kernel.apply_now(w, Add(desc("snk", in_ports=("i",),
                                     behavior="sink"), "h2"))
        kernel.apply_now(w, Connect("k1", Endpoint("src", "o"),
                                    (Endpoint("snk", "i"),), FlowPolicy()))
        w._tick_buffer.clear()
        return w

    def test_samples_cross_the_link_after_latency(self):
        w = self.deployed(latency=3)
        for _ in range(6):
            w.step()
        snk = w.hosts["h2"].containers["snk"]
        # pushes start at tick 0; deliveries start at tick 3, one per tick
        assert snk.state == 3
        assert any(l.startswith("tick=3") and "op=deliver" in l
                   for l in w.trace_lines)

    def test_heartbeats_and_flow_reports_on_the_interval(self):
        w = self.deployed()
        for _ in range(6):
            w.step()
        beats = [l for l in w.trace_lines if "component.alive" in l]
        assert any(l.startswith("tick=0") for l in beats)
        assert any(l.startswith("tick=5") for l in beats)
        assert not any(l.startswith("tick=2") for l in beats)
        assert any("key=flow.rate conn=k1" in l for l in w.trace_lines)

    def test_a_firing_may_move_a_later_container_of_its_host(self):
        # `a` moves `b`, which comes after it on h1, to h2 while it fires:
        # the tick skips b on h1 and fires it once, on h2
        def mover(state, inputs, events, now, api):
            if state is None:
                assert api.submit_command(Move("b", "h2")).applied
            return 1, {}

        def tally(state, inputs, events, now, api):
            return (state or 0) + 1, {}
        behaviors.register("mover", mover)
        behaviors.register("tally", tally)
        w = two_hosts()
        for cid, behavior in (("a", "mover"), ("b", "tally")):
            kernel.apply_now(w, Add(desc(cid, behavior=behavior), "h1"))
        w.step()
        assert w.host_of("b") == "h2"
        assert w.hosts["h2"].containers["b"].state == 1

    def test_a_producer_that_moves_while_it_fires_keeps_its_capacity(self):
        """`src` tests its capacity-2 connector's queues before it fires
        and pushes after; in between it moves its sink (ticks 4 and 8,
        a drain and a refill of the queue it tested) and itself (tick 12,
        after which it fires again on h3 in the same tick).  The queue
        never passes its capacity, and every push and delivery is
        pinned."""
        moves = {4: Move("snk", "h3"), 8: Move("snk", "h2"),
                 12: Move("src", "h3")}

        def shuffler(state, inputs, events, now, api):
            if now in moves:
                assert api.submit_command(moves[now]).applied
            return (state or 0) + 1, {"o": (state or 0) + 1}
        behaviors.register("shuffler", shuffler)
        w = two_hosts(latency=3)
        w.add_host(HostDescriptor(id="h3", tier=HostTier.FULL,
                                  cpu_capacity=8, mem_capacity=8))
        w.add_link("h1", "h3")
        for d, hid in ((desc("src", out_ports=("o",), behavior="shuffler"),
                        "h1"),
                       (desc("snk", in_ports=("i",), behavior="sink"), "h2")):
            assert kernel.apply_now(w, Add(d, hid)).applied
        assert kernel.apply_now(w, Connect(
            "k1", Endpoint("src", "o"), (Endpoint("snk", "i"),),
            FlowPolicy(capacity=2))).applied
        depths = []
        for _ in range(18):
            w.step()
            depths.append(w.connectors["k1"].depth())
        assert depths == [1, 2, 2, 1, 1, 1, 1, 1, 1, 2, 2, 1, 2, 2, 2, 2, 2,
                          2]
        flows = [(int(f["tick"]), f["host"], f["op"], int(f["seq"]))
                 for f in (dict(p.split("=", 1) for p in line.split()
                                if "=" in p)
                           for line in w.trace_lines if "kind=FLOW" in line)]
        pushed = [(1, "h1", 0), (2, "h1", 1), (3, "h1", 4), (4, "h1", 5),
                  (5, "h1", 6), (6, "h1", 7), (7, "h1", 8), (8, "h1", 9),
                  (9, "h3", 12), (10, "h3", 12), (11, "h3", 16),
                  (12, "h3", 17)]
        delivered = [(1, "h2", 3), (2, "h3", 4), (3, "h3", 5), (4, "h3", 6),
                     (5, "h3", 7), (6, "h2", 8), (7, "h2", 11),
                     (8, "h2", 12), (9, "h2", 16), (10, "h2", 17)]
        assert sorted(flows) == sorted(
            [(t, h, "push", s) for s, h, t in pushed]
            + [(t, h, "deliver", s) for s, h, t in delivered])

    def test_trace_lines_sorted_within_a_tick(self):
        w = self.deployed()
        for _ in range(3):
            w.step()
        by_tick = {}
        for l in w.trace_lines:
            fields = dict(f.split("=", 1) for f in l.split()
                          if "=" in f and f.index("=") > 0)
            by_tick.setdefault(fields["tick"], []).append(
                (fields["host"], fields["kind"]))
        for keys in by_tick.values():
            assert keys == sorted(keys)


class TestDeterminism:
    def scripted(self, seed):
        w = two_hosts()
        w.schedule(sim_event(0, SimEventKind.SENSOR_READING, host="h1",
                             key="temp", value=20.0, noise=0.5))
        w.schedule(sim_event(2, SimEventKind.SENSOR_READING, host="h2",
                             key="temp", value=21.0, noise=0.5))
        return w

    def run_lines(self, seed):
        w = self.scripted(seed)
        w.rng.seed(seed)
        w.run(4)
        return list(w.trace_lines)

    def test_same_seed_same_trace(self):
        assert self.run_lines(42) == self.run_lines(42)

    def test_different_seed_changes_noisy_readings(self):
        a, b = self.run_lines(1), self.run_lines(2)
        assert a != b
        diff = [x for x, y in zip(a, b) if x != y]
        assert all("key=temp" in x for x in diff)


DATAPLANE_GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                                "golden_dataplane.trace")


def dataplane_world():
    """Four battery-powered hosts in a square (h1-h2-h3 and h1-h4-h3) with
    every kind of flow the data plane carries.

    - `src` (h1) has two out ports.  `a` feeds a two-sink KeepLatest
      connector: its local sink `x` takes every sample, and its sink `y`
      (h3), two hops away, loses each sample to the next push.  `b` feeds
      an Unsynchronized Lossless connector of capacity 1, which refuses
      pushes while its one sample is in flight.
    - `gen` (h1) feeds a Synchronized Lossless connector of capacity 2,
      which stalls `gen` while full.
    - At tick 3 the h2-h3 link goes down under samples in flight to h3,
      which re-route over h1-h4-h3; it comes back at tick 9.
    """
    w = World(seed=0)
    for hid, power in (("h1", None),
                       ("h2", Battery(level=1.0, drain_per_tick=0.01)),
                       ("h3", Battery(level=0.5, drain_per_tick=0.02)),
                       ("h4", Battery(level=0.8, drain_per_tick=0.03))):
        w.add_host(HostDescriptor(id=hid, tier=HostTier.FULL,
                                  cpu_capacity=8, mem_capacity=8,
                                  power=power))
    w.add_link("h1", "h2", latency=2)
    w.add_link("h2", "h3", latency=2)
    w.add_link("h1", "h4", latency=1)
    w.add_link("h3", "h4", latency=3)
    for d, hid in ((desc("src", out_ports=("a", "b"), behavior="source"),
                    "h1"),
                   (desc("gen", out_ports=("o",), behavior="source"), "h1"),
                   (desc("x", in_ports=("in",), behavior="sink"), "h1"),
                   (desc("y", in_ports=("in",), behavior="sink"), "h3"),
                   (desc("u", in_ports=("in",), behavior="sink"), "h3"),
                   (desc("s", in_ports=("in",), behavior="sink"), "h3")):
        assert kernel.apply_now(w, Add(d, hid)).applied
    for kid, source, sinks, policy in (
            ("keep", Endpoint("src", "a"),
             (Endpoint("x", "in"), Endpoint("y", "in")),
             FlowPolicy(loss=LossKind.KEEP_LATEST)),
            ("refuse", Endpoint("src", "b"), (Endpoint("u", "in"),),
             FlowPolicy(sync=FlowSync.UNSYNCHRONIZED, capacity=1)),
            ("stall", Endpoint("gen", "o"), (Endpoint("s", "in"),),
             FlowPolicy(capacity=2))):
        assert kernel.apply_now(w, Connect(kid, source, sinks,
                                           policy)).applied
    w.schedule(sim_event(3, SimEventKind.LINK_DOWN, endpoints=("h2", "h3")))
    w.schedule(sim_event(9, SimEventKind.LINK_UP, endpoints=("h2", "h3")))
    w._tick_buffer.clear()
    w._trace_seq = 0
    return w


def test_the_data_plane_trace_is_pinned():
    w = dataplane_world()
    w.run(17)                       # reporting ticks 0, 5, 10 and 15
    with open(DATAPLANE_GOLDEN) as fh:
        assert "\n".join(w.trace_lines) + "\n" == fh.read()


class TestReports:
    def reported(self):
        """Every (host, object) the data-plane world stores in 11 ticks:
        all of it from the reporting ticks 0, 5 and 10."""
        w = dataplane_world()
        w.run(11)
        return [(hid, obj) for hid in sorted(w.hosts)
                for obj in w.hosts[hid].store.all_objects()]

    def test_a_stored_report_equals_a_freshly_stamped_object(self):
        reported = self.reported()
        assert {obj.info.key for _, obj in reported} == {
            "component.alive", "battery.level", "flow.rate", "flow.depth"}
        assert {obj.validity.timestamp for _, obj in reported} == {0, 5, 10}
        for hid, obj in reported:
            assert obj == stamp(obj.info, obj.validity.timestamp,
                                Location(host=hid), "platform", 1.0)

    def test_every_field_of_a_stored_report_is_frozen(self):
        for _, obj in self.reported():
            for part in (obj, obj.info, obj.validity,
                         obj.validity.location, Endpoint("x", "in")):
                for f in dataclasses.fields(part):
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        setattr(part, f.name, None)

    def test_alternating_flow_reports_are_stored_as_traced(self):
        """`pulse` emits in every other reporting interval, so the rate and
        depth of its connector alternate between reports, and the store
        holds each report's values as its trace line gave them."""
        def pulse(state, inputs, events, now, api):
            n = (state or 0) + 1
            return n, ({"__all__": n} if now // 5 % 2 == 0 else {})
        behaviors.register("pulse", pulse)
        w = two_hosts(latency=2)
        for d, hid in ((desc("p", out_ports=("o",), behavior="pulse"), "h1"),
                       (desc("q", in_ports=("in",), behavior="sink"), "h2")):
            assert kernel.apply_now(w, Add(d, hid)).applied
        assert kernel.apply_now(w, Connect("k", Endpoint("p", "o"),
                                           (Endpoint("q", "in"),),
                                           FlowPolicy())).applied
        w.run(41)
        reported = {}                   # tick -> (rate, depth) of the trace
        for line in w.trace_lines:
            if "key=flow.rate conn=k " in line:
                fields = dict(f.split("=") for f in line.split())
                reported[int(fields["tick"])] = (int(fields["rate"]),
                                                 int(fields["depth"]))
        rates = [rate for rate, _ in reported.values()]
        depths = [depth for _, depth in reported.values()]
        assert rates == [0, 3, 2, 3, 2, 3, 2, 3, 2]
        assert depths == [1, 2, 1, 2, 1, 2, 1, 2, 1]
        for index, key in enumerate(("flow.rate", "flow.depth")):
            stored = w.hosts["h1"].store.history(key)
            assert [obj.validity.timestamp for obj in stored] \
                == list(reported)
            for obj in stored:
                t = obj.validity.timestamp
                value = reported[t][index]
                fresh = ContextInformation(
                    nature=ContextNature.HARDWARE, key=key,
                    value=Quantity(float(value), ""), producer="k")
                assert obj == stamp(fresh, t, Location(host="h1"),
                                    "platform", 1.0)
