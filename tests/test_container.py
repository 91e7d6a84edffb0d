import random

import pytest

from adaptsim import behaviors, descriptors, kernel
from adaptsim.connector import (ConnectorInstance, Endpoint, FlowPolicy,
                                FlowSync)
from adaptsim.container import (ComponentDescriptor, ContainerInstance,
                                EventKind, Lifecycle, LEGAL_EDGES,
                                PlatformEvent, Variant)
from adaptsim.errors import ComponentFault, LifecycleError
from adaptsim.kernel import Add, HostDescriptor, HostTier
from adaptsim.simnet import World


def descriptor(id="c", in_ports=(), out_ports=(), behavior="identity",
               listener=False, tiers=("Full",)):
    return ComponentDescriptor(
        id=id, in_ports=tuple(in_ports), out_ports=tuple(out_ports),
        variants=tuple(Variant(t, 1.0, 1.0, behavior) for t in tiers),
        listener=listener, initial_host="h1")


def running(desc, tier="Full"):
    c = ContainerInstance(desc, desc.variant_for(tier))
    c.transition(Lifecycle.CONNECTED)
    return c


def start(*containers):
    for c in containers:
        if c.lifecycle is Lifecycle.CONNECTED:
            c.transition(Lifecycle.RUNNING)


def wire(src, dst, policy=None, conn_id="k"):
    k = ConnectorInstance(
        conn_id, Endpoint(src.descriptor.id, src.descriptor.out_ports[0]),
        [Endpoint(dst.descriptor.id, dst.descriptor.in_ports[0])],
        policy or FlowPolicy())
    src.output_bindings[src.descriptor.out_ports[0]] = k
    dst.input_bindings[dst.descriptor.in_ports[0]] = k
    return k


@pytest.mark.parametrize("cpu, mem", [(-0.5, 1.0), (1.0, -1e-9),
                                      (float("nan"), 1.0)])
def test_a_variant_rejects_a_demand_that_gives_capacity(cpu, mem):
    # the app table holds the rule, so no Variant is built with the demand
    variant = {"tier": "Full", "cpu_demand": cpu, "mem_demand": mem,
               "behavior": "identity"}
    app, diags = descriptors.parse_app({"components": [
        {"id": "c", "variants": [variant], "initial_host": "h1"}]})
    [diag] = diags
    assert diag.startswith("components[0].variants[0]: ")
    assert "demand must be >= 0" in diag
    assert app.components == []


class TestLifecycle:
    def test_legal_chain(self):
        desc = descriptor()
        c = ContainerInstance(desc, desc.variants[0])
        c.transition(Lifecycle.CONNECTED)
        c.transition(Lifecycle.RUNNING)
        assert c.lifecycle is Lifecycle.RUNNING

    def test_illegal_direct_running(self):
        desc = descriptor()
        c = ContainerInstance(desc, desc.variants[0])
        with pytest.raises(LifecycleError):
            c.transition(Lifecycle.RUNNING)

    def test_migration_path(self):
        c = running(descriptor())
        start(c)
        for target in (Lifecycle.STOPPED, Lifecycle.MIGRATING,
                       Lifecycle.CONNECTED, Lifecycle.RUNNING):
            c.transition(target)
        assert c.lifecycle is Lifecycle.RUNNING

    def test_random_fuzz_only_legal_edges_accepted(self):
        rng = random.Random(42)
        desc = descriptor()
        c = ContainerInstance(desc, desc.variants[0])
        states = list(Lifecycle)
        for _ in range(500):
            target = rng.choice(states)
            before = c.lifecycle
            try:
                c.transition(target)
            except LifecycleError:
                assert (before, target) not in LEGAL_EDGES
                assert c.lifecycle is before
            else:
                assert (before, target) in LEGAL_EDGES
                if c.lifecycle is Lifecycle.DESTROYED:
                    c = ContainerInstance(desc, desc.variants[0])

    def test_no_variant_for_tier(self):
        # the kernel looks the variant up before it builds a container
        w = World(seed=0)
        w.add_host(HostDescriptor(id="h9", tier=HostTier.LIGHT_MIN,
                                  cpu_capacity=8, mem_capacity=8))
        r = kernel.apply_now(w, Add(descriptor(tiers=("Full",)), "h9"))
        assert r.reason == "no variant for LightMin"
        assert w.hosts["h9"].containers == {}


class TestProcessStep:
    def test_identity_forwarder(self):
        src = running(descriptor("s", out_ports=("o",), behavior="source"))
        fwd = running(descriptor("f", in_ports=("i",), out_ports=("o",)))
        sink = running(descriptor("z", in_ports=("i",), behavior="sink"))
        wire(src, fwd, conn_id="k1")
        wire(fwd, sink, conn_id="k2")
        start(src, fwd, sink)
        src.process_step(0)
        out = fwd.process_step(0)
        assert out == {"o": 1}
        sink.process_step(0)
        assert sink.state == 1

    def test_not_running_no_output(self):
        desc = descriptor("s", out_ports=("o",), behavior="source")
        c = ContainerInstance(desc, desc.variants[0])
        assert c.process_step(0) == {}
        assert c.state is None

    def test_counter_five_steps(self):
        # hand-run: one sample per step, count reaches 5 with 5 emissions
        src = running(descriptor("s", out_ports=("o",), behavior="source"))
        ctr = running(descriptor("c", in_ports=("i",), out_ports=("o",),
                                 behavior="counter"))
        sink = running(descriptor("z", in_ports=("i",), behavior="sink"))
        wire(src, ctr, conn_id="k1")
        wire(ctr, sink, conn_id="k2")
        start(src, ctr, sink)
        emitted = 0
        for t in range(5):
            src.process_step(t)
            if ctr.process_step(t):
                emitted += 1
            sink.process_step(t)
        assert ctr.state == 5
        assert emitted == 5

    def test_fault_containment(self):
        def boom(state, inputs, events, now, api):
            raise RuntimeError("kaput")
        behaviors.register("boom", boom)
        c = running(descriptor("b", behavior="boom"))
        start(c)
        with pytest.raises(ComponentFault):
            c.process_step(0)
        assert c.lifecycle is Lifecycle.STOPPED
        assert "kaput" in c.fault


class TestDeliverEvent:
    def evt(self, prio, kind=EventKind.QOS_ALERT):
        return PlatformEvent(kind=kind, payload=None, priority=prio)

    def test_non_listener_rejects(self):
        c = running(descriptor())
        assert c.deliver_event(self.evt(5)) is False

    def test_priority_order(self):
        c = running(descriptor(listener=True))
        start(c)
        assert c.deliver_event(self.evt(2))
        assert c.deliver_event(self.evt(9))
        assert [e.priority for e in c.pending_events()] == [9, 2]

    def test_fifo_within_priority(self):
        c = running(descriptor(listener=True))
        a = PlatformEvent(EventKind.QOS_ALERT, "first", 5)
        b = PlatformEvent(EventKind.QOS_ALERT, "second", 5)
        c.deliver_event(a)
        c.deliver_event(b)
        assert [e.payload for e in c.pending_events()] == ["first", "second"]

    def test_lifecycle_gate(self):
        c = running(descriptor(listener=True))
        start(c)
        c.transition(Lifecycle.STOPPED)
        assert c.deliver_event(self.evt(1)) is False

    def test_overflow_drops_lowest_priority_oldest(self):
        c = running(descriptor(listener=True))
        for i in range(32):
            c.deliver_event(PlatformEvent(EventKind.QOS_ALERT, i,
                                          priority=1 if i == 0 else 5))
        c.deliver_event(PlatformEvent(EventKind.QOS_ALERT, "new", 9))
        pend = c.pending_events()
        assert len(pend) == 32
        assert all(e.payload != 0 for e in pend)     # prio-1 victim gone
        assert pend[0].payload == "new"

    def test_events_consumed_at_next_step(self):
        seen = []

        def listener_fn(state, inputs, events, now, api):
            seen.extend(events)
            return state, {}
        behaviors.register("listener_fn", listener_fn)
        c = running(descriptor("l", behavior="listener_fn", listener=True))
        start(c)
        c.deliver_event(self.evt(3))
        c.process_step(0)
        assert len(seen) == 1
        c.process_step(1)
        assert len(seen) == 1       # queue drained, not redelivered


class TestSnapshotRestore:
    def test_round_trip_state(self):
        c = running(descriptor("c", behavior="counter"))
        start(c)
        c.state = 7
        c.transition(Lifecycle.STOPPED)
        snap = c.snapshot()
        desc = descriptor("c", behavior="counter")
        fresh = ContainerInstance(desc, desc.variants[0])
        fresh.restore(snap)
        assert fresh.state == 7

    def test_snapshot_while_running_rejected(self):
        c = running(descriptor())
        start(c)
        with pytest.raises(LifecycleError):
            c.snapshot()

    def test_restore_variant_polymorphism(self):
        desc = descriptor("c", behavior="counter",
                          tiers=("Full", "LightMin"))
        c = running(desc)
        start(c)
        c.state = 3
        c.transition(Lifecycle.STOPPED)
        snap = c.snapshot()
        other = ContainerInstance(desc, desc.variant_for("LightMin"))
        other.restore(snap)
        assert other.state == 3
        assert other.active_variant.tier == "LightMin"

    def test_run_after_restore_matches_uninterrupted(self):
        desc_s = descriptor("s", out_ports=("o",), behavior="source")
        desc_c = descriptor("c", in_ports=("i",), out_ports=("o",),
                            behavior="counter")
        desc_z = descriptor("z", in_ports=("i",), behavior="sink")

        def run_chain(interrupt_at=None, ticks=10):
            src, ctr, snk = (running(desc_s), running(desc_c),
                             running(desc_z))
            wire(src, ctr, conn_id="k1")
            wire(ctr, snk, conn_id="k2")
            start(src, ctr, snk)
            outputs = []
            for t in range(ticks):
                if interrupt_at == t:
                    ctr.transition(Lifecycle.STOPPED)
                    snap = ctr.snapshot()
                    new = ContainerInstance(desc_c, desc_c.variants[0])
                    new.input_bindings = ctr.input_bindings
                    new.output_bindings = ctr.output_bindings
                    new.restore(snap)
                    new.transition(Lifecycle.CONNECTED)
                    new.transition(Lifecycle.RUNNING)
                    ctr = new
                src.process_step(t)
                out = ctr.process_step(t)
                if out:
                    outputs.append(out["o"])
                snk.process_step(t)
            return outputs

        assert run_chain(interrupt_at=5) == run_chain(interrupt_at=None)

    def test_connector_has_no_event_entry_point(self):
        # events can never reach the transport layer
        assert not hasattr(ConnectorInstance, "deliver_event")


class TestOutputs:
    def two_out(self, policies):
        """A source with out ports declared z-first, each on its own
        connector to a sink, and a log of the pushes in order."""
        src = running(descriptor("src", out_ports=("z", "a"),
                                 behavior="source"))
        log = []
        for port in ("z", "a"):
            k = ConnectorInstance(
                f"k{port}", Endpoint("src", port),
                [Endpoint(f"snk{port}", "in")], policies[port],
                tracer=lambda k, now, op, sink, seq: log.append((k.id, op)))
            src.output_bindings[port] = k
        start(src)
        return src, log

    def test_pushes_go_out_in_sorted_port_order(self):
        src, log = self.two_out({"z": FlowPolicy(), "a": FlowPolicy()})
        assert src.process_step(0) == {"z": 1, "a": 1}
        assert log == [("ka", "push"), ("kz", "push")]

    @pytest.mark.parametrize("full", ["a", "z"])
    def test_any_blocking_synchronized_output_stalls_the_step(self, full):
        src, log = self.two_out({"z": FlowPolicy(capacity=1),
                                 "a": FlowPolicy(capacity=1)})
        other = "z" if full == "a" else "a"
        src.output_bindings[full].push("src", full, 0, now=0)
        log.clear()
        assert src.process_step(1) == {}
        assert log == [] and src.state is None
        # once the full output has room, the step runs and pushes both
        src.output_bindings[full].pull(f"snk{full}", "in", now=1)
        assert src.process_step(2) == {"z": 1, "a": 1}
        assert src.output_bindings[other].pushed_count == 1

    def test_an_unsynchronized_full_output_does_not_stall(self):
        src, log = self.two_out({
            "z": FlowPolicy(sync=FlowSync.UNSYNCHRONIZED, capacity=1),
            "a": FlowPolicy()})
        src.output_bindings["z"].push("src", "z", 0, now=0)
        log.clear()
        assert src.process_step(1) == {"z": 1, "a": 1}
        assert log == [("ka", "push")]


class TestHeartbeat:
    def test_heartbeat_object(self):
        # a Running container's host reports it alive on a reporting tick
        w = World(seed=0)
        w.add_host(HostDescriptor(id="h9", tier=HostTier.FULL,
                                  cpu_capacity=8, mem_capacity=8))
        assert kernel.apply_now(w, Add(descriptor("c"), "h9")).applied
        w.now = 10
        w.step()
        [obj] = w.hosts["h9"].store.history("component.alive")
        assert obj.info.key == "component.alive"
        assert obj.info.value == obj.info.producer == "c"
        assert obj.validity.timestamp == 10
        assert obj.validity.location.host == "h9"
