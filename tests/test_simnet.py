"""Tick loop, scripted events, battery drain and determinism."""

import pytest

from adaptsim import kernel
from adaptsim.connector import Endpoint, FlowPolicy
from adaptsim.container import ComponentDescriptor, Variant
from adaptsim.errors import ScheduleError
from adaptsim.kernel import (Add, Battery, Connect, HostDescriptor, HostTier)
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
        obj = w.hosts["h1"].store.latest("temp")
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
