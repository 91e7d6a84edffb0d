"""Kernel behaviour: tiers, routing, services, commands, intrusion."""

import random
from collections import deque

import pytest

from adaptsim import adaptation, behaviors, kernel
from adaptsim.connector import Endpoint, FlowPolicy
from adaptsim.container import (ComponentDescriptor, EventKind, Lifecycle,
                                PlatformEvent, Variant)
from adaptsim.context import (ContextInformation, ContextNature, Location,
                              Quantity, stamp)
from adaptsim.errors import ServiceUnavailable, Unreachable
from adaptsim.kernel import (Add, Battery, Connect, Disconnect, HostDescriptor,
                             HostTier, IntrusionLevel, Move, PlatformConfig,
                             Remove, ReplaceBusiness, Service, Subscription,
                             reconstruct_model)
from adaptsim.simnet import PlatformApi, SimEventKind, World, sim_event
from adaptsim.store import ContextQuery


def desc(cid, in_ports=(), out_ports=(), behavior="identity",
         tiers=("Full", "LightStd"), listener=False):
    return ComponentDescriptor(
        id=cid, in_ports=tuple(in_ports), out_ports=tuple(out_ports),
        variants=tuple(Variant(t, 1.0, 1.0, behavior) for t in tiers),
        listener=listener)


def make_world(tiers=("Full", "Full", "LightStd"), links=((0, 1), (1, 2))):
    w = World(seed=1)
    ids = [f"h{i + 1}" for i in range(len(tiers))]
    for hid, tier in zip(ids, tiers):
        w.add_host(HostDescriptor(id=hid, tier=HostTier(tier),
                                  cpu_capacity=8.0, mem_capacity=8.0))
    for a, b in links:
        w.add_link(ids[a], ids[b])
    return w


def deploy_chain(w, src_host="h1", sink_host="h2"):
    """source -> sink over one lossless connector; returns the ids."""
    kernel.apply_now(w, Add(desc("src", out_ports=("out",),
                                 behavior="source"), src_host))
    kernel.apply_now(w, Add(desc("snk", in_ports=("in",),
                                 behavior="sink"), sink_host))
    kernel.apply_now(w, Connect("k1", Endpoint("src", "out"),
                                (Endpoint("snk", "in"),), FlowPolicy()))
    return "src", "snk", "k1"


class TestServiceMatrix:
    def test_light_min_offers_only_cheap_services(self):
        offered = kernel.SERVICE_MATRIX[HostTier.LIGHT_MIN]
        assert Service.PERSISTENCE not in offered
        assert Service.ROUTING not in offered
        assert Service.CONTEXT_ACCESS in offered
        assert Service.QOS_MEASURE in offered

    def test_full_and_light_std_offer_everything(self):
        assert kernel.SERVICE_MATRIX[HostTier.FULL] == frozenset(Service)
        assert kernel.SERVICE_MATRIX[HostTier.LIGHT_STD] == frozenset(Service)

    def test_persistence_on_sensor_host_names_a_delegate(self):
        w = make_world(tiers=("Full", "LightStd", "LightMin"))
        with pytest.raises(ServiceUnavailable) as err:
            kernel.service_call(w, "h3", Service.PERSISTENCE, None)
        assert err.value.delegate_hint == "h1"

    def test_down_host_is_unreachable(self):
        w = make_world()
        w.hosts["h2"].desc.up = False
        with pytest.raises(Unreachable):
            kernel.service_call(w, "h2", Service.CONTEXT_ACCESS, None)


def reading(hid, value, now=0):
    return stamp(ContextInformation(nature=ContextNature.ENVIRONMENT,
                                    key="temp", value=Quantity(value, "C"),
                                    producer="sensor"),
                 now, Location(host=hid), owner="app", base_confidence=1.0)


TEMP = ContextQuery(key_pattern="temp")


class TestServices:
    def test_context_access_queries_the_local_store(self):
        w = make_world()
        w.hosts["h2"].store.put(reading("h2", 21.0))
        w.hosts["h3"].store.put(reading("h3", 30.0))
        got = kernel.service_call(w, "h2", Service.CONTEXT_ACCESS, TEMP)
        assert [o.info.value.value for o in got] == [21.0]

    def test_context_distant_queries_a_reachable_store(self):
        w = make_world()
        w.hosts["h3"].store.put(reading("h3", 30.0))
        got = kernel.service_call(w, "h1", Service.CONTEXT_DISTANT,
                                  ("h3", TEMP))
        assert [o.info.value.value for o in got] == [30.0]
        assert ("h1", "NET", "host=h1 kind=NET op=query to=h3 what=context"
                ) == tuple(w._tick_buffer[-1][i] for i in (0, 1, 3))
        with pytest.raises(Unreachable):
            kernel.service_call(w, "h1", Service.CONTEXT_DISTANT,
                                ("h9", TEMP))
        w.links[frozenset(("h2", "h3"))].up = False
        with pytest.raises(Unreachable):
            kernel.service_call(w, "h1", Service.CONTEXT_DISTANT,
                                ("h3", TEMP))

    def test_persistence_appends_to_the_host_log(self):
        w = make_world()
        w.now = 4
        obj = reading("h2", 21.0, now=4)
        assert kernel.service_call(w, "h2", Service.PERSISTENCE, obj) is None
        assert w.hosts["h2"].persist_log == [f"tick=4 {obj.trace_repr()}"]
        assert w.hosts["h1"].persist_log == []

    def test_qos_measure_returns_the_last_report(self):
        w = make_world()
        assert kernel.service_call(w, "h3", Service.QOS_MEASURE) is None
        w.coordinator = adaptation.Coordinator("h1", "M1")
        w.coordinator.run_cycle(w, 0)
        assert kernel.service_call(w, "h3", Service.QOS_MEASURE) is w.last_qos
        assert w.last_qos.global_score == 1.0

    def test_reflexivity_shows_a_light_host_only_its_own_components(self):
        w = make_world(tiers=("Full", "LightStd", "LightMin"))
        kernel.apply_now(w, Add(desc("c1"), "h1"))
        kernel.apply_now(w, Add(desc("c2", tiers=("LightStd",)), "h2"))
        kernel.apply_now(w, Add(desc("c3", tiers=("LightMin",)), "h3"))
        assert kernel.service_call(w, "h1", Service.REFLEXIVITY) is w.model
        for hid, cid in (("h2", "c2"), ("h3", "c3")):
            local = kernel.service_call(w, hid, Service.REFLEXIVITY)
            assert local.components == {cid: w.model.components[cid]}
            assert local.connectors == {}
            assert local.version == w.model.version

    def test_platform_api_serves_its_own_host(self):
        w = make_world()
        w.hosts["h2"].store.put(reading("h2", 21.0))
        w.hosts["h3"].store.put(reading("h3", 30.0))
        api = PlatformApi(w, "h2", "c")
        assert api.service_call(Service.CONTEXT_ACCESS, TEMP) == \
            w.hosts["h2"].store.query(TEMP, 0)
        assert api.service_call(Service.CONTEXT_DISTANT, ("h3", TEMP)) == \
            w.hosts["h3"].store.query(TEMP, 0)

    def test_platform_api_commands_are_app_originated(self):
        w = make_world()
        w.hosts["h1"].config = PlatformConfig(intrusion=IntrusionLevel.LOCKED)
        w.coordinator = adaptation.Coordinator("h1", "M1")
        r = PlatformApi(w, "h2", "c").submit_command(Add(desc("c1"), "h3"))
        assert r.applied                     # the lock gates the platform only
        assert "c1" in w.hosts["h3"].containers
        assert w._tick_buffer[-1][3].endswith(
            "cmd=Add comp=c1 host=h3 result=Applied origin=app")

    def test_a_behavior_reads_context_and_reconfigures_itself(
            self, monkeypatch):
        def probe(state, inputs, events, now, api):
            if state is None:
                seen = api.service_call(Service.CONTEXT_ACCESS, TEMP)
                r = api.submit_command(Add(desc("helper"), "h3"))
                state = {"seen": [o.info.value.value for o in seen],
                         "result": r.status}
            return state, {}

        monkeypatch.setitem(behaviors._CATALOG, "probe", probe)
        w = make_world()
        w.hosts["h2"].store.put(reading("h2", 21.0))
        kernel.apply_now(w, Add(desc("p", behavior="probe"), "h2"))
        w.step()
        assert w.hosts["h2"].containers["p"].state == {
            "seen": [21.0], "result": "Applied"}
        assert w.model.components["helper"].host == "h3"
        assert any(l.endswith("cmd=Add comp=helper host=h3 result=Applied "
                              "origin=app") for l in w.trace_lines)
        assert w.model.canonical() == reconstruct_model(w).canonical()


def bfs_paths(adj, src, dst):
    """All fewest-hop paths src->dst; independent oracle for routing."""
    if src == dst:
        return [[src]]
    frontier, dist, best = deque([(src, (src,))]), {src: 0}, []
    while frontier:
        node, path = frontier.popleft()
        if best and len(path) > len(best[0]):
            break
        for nxt in sorted(adj.get(node, ())):
            if nxt in path:
                continue
            d = len(path)
            if nxt in dist and dist[nxt] < d:
                continue
            dist[nxt] = d
            if nxt == dst:
                best.append(list(path) + [nxt])
            else:
                frontier.append((nxt, path + (nxt,)))
    return best


class TestRouting:
    def test_matches_bfs_oracle_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 6)
            w = World(seed=0)
            ids = [f"h{i}" for i in range(n)]
            for hid in ids:
                w.add_host(HostDescriptor(id=hid, tier=HostTier.FULL,
                                          cpu_capacity=4, mem_capacity=4))
            adj = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        w.add_link(ids[i], ids[j])
                        adj.setdefault(ids[i], set()).add(ids[j])
                        adj.setdefault(ids[j], set()).add(ids[i])
            for src in ids:
                for dst in ids:
                    got = kernel.shortest_path(w, src, dst)
                    want = bfs_paths(adj, src, dst)
                    if not want:
                        assert got is None
                    else:
                        assert got == min(want)  # fewest hops, then lexical

    def test_down_links_and_hosts_are_avoided(self):
        w = make_world(tiers=("Full",) * 4,
                       links=((0, 1), (1, 3), (0, 2), (2, 3)))
        assert kernel.shortest_path(w, "h1", "h4") == ["h1", "h2", "h4"]
        w.links[frozenset(("h2", "h4"))].up = False
        assert kernel.shortest_path(w, "h1", "h4") == ["h1", "h3", "h4"]
        w.hosts["h3"].desc.up = False
        assert kernel.shortest_path(w, "h1", "h4") is None

    def test_sensor_host_delegates_distant_routes(self):
        w = make_world(tiers=("LightMin", "Full", "LightStd"))
        # neighbour: answered locally, no delegation trace
        assert kernel.route(w, "h1", "h2") == ["h1", "h2"]
        assert not any("delegate" in l for _, _, _, l in w._tick_buffer)
        assert kernel.route(w, "h1", "h3") == ["h1", "h2", "h3"]
        assert any("op=delegate to=h2" in l
                   for _, _, _, l in w._tick_buffer)

    def test_down_sensor_host_routes_nothing(self):
        w = make_world(tiers=("LightMin", "Full", "LightStd"))
        w.hosts["h1"].desc.up = False
        for dst in ("h2", "h3"):          # a neighbour, then beyond it
            assert kernel.shortest_path(w, "h1", dst) is None
            assert kernel.route(w, "h1", dst) is None

    def test_sensor_host_without_full_neighbour_fails(self):
        w = make_world(tiers=("LightMin", "LightStd", "LightStd"))
        with pytest.raises(ServiceUnavailable):
            kernel.route(w, "h1", "h3")


class TestCommands:
    def test_add_creates_connected_container(self):
        w = make_world()
        r = kernel.apply_now(w, Add(desc("c1"), "h1"))
        assert r.applied
        c = w.hosts["h1"].containers["c1"]
        assert c.lifecycle is Lifecycle.RUNNING   # no ports: starts at once
        assert w.model.components["c1"].host == "h1"

    @pytest.mark.parametrize("cmd,reason", [
        (Add(desc("c1"), "nowhere"), "unknown id"),
        (Remove("ghost"), "unknown id"),
        (Move("ghost", "h2"), "unknown id"),
        (Disconnect("ghost"), "unknown id"),
    ])
    def test_bad_targets_abort(self, cmd, reason):
        w = make_world()
        r = kernel.apply_now(w, cmd)
        assert r.status == "Aborted" and r.reason == reason

    def test_add_duplicate_aborts(self):
        w = make_world()
        kernel.apply_now(w, Add(desc("c1"), "h1"))
        assert kernel.apply_now(w, Add(desc("c1"), "h2")).reason == "duplicate"

    def test_add_without_matching_variant_aborts(self):
        w = make_world(tiers=("Full", "LightMin"), links=((0, 1),))
        r = kernel.apply_now(w, Add(desc("c1", tiers=("Full",)), "h2"))
        assert r.reason == "variant"

    def test_connect_starts_the_chain(self):
        w = make_world()
        deploy_chain(w)
        assert w.hosts["h1"].containers["src"].lifecycle is Lifecycle.RUNNING
        assert w.hosts["h2"].containers["snk"].lifecycle is Lifecycle.RUNNING
        assert "k1" in w.hosts["h1"].connector_sources

    def test_connect_rejects_bound_or_unknown_ports(self):
        w = make_world()
        deploy_chain(w)
        again = Connect("k2", Endpoint("src", "out"),
                        (Endpoint("snk", "in"),), FlowPolicy())
        assert kernel.apply_now(w, again).reason == "port in use"
        bad = Connect("k3", Endpoint("src", "oops"),
                      (Endpoint("snk", "in"),), FlowPolicy())
        assert "unknown port" in kernel.apply_now(w, bad).reason

    def test_remove_refuses_wired_component(self):
        w = make_world()
        deploy_chain(w)
        assert kernel.apply_now(w, Remove("src")).reason == "in use"

    def test_disconnect_stops_dependents_and_remove_succeeds(self):
        w = make_world()
        deploy_chain(w)
        assert kernel.apply_now(w, Disconnect("k1")).applied
        assert w.hosts["h1"].containers["src"].lifecycle is Lifecycle.STOPPED
        assert kernel.apply_now(w, Remove("src")).applied
        assert "src" not in w.hosts["h1"].containers
        assert "src" not in w.model.components

    def test_replace_behavior_resets_state(self):
        w = make_world()
        kernel.apply_now(w, Add(desc("c1", behavior="counter"), "h1"))
        w.hosts["h1"].containers["c1"].state = 42
        r = kernel.apply_now(w, ReplaceBusiness("c1", behavior="identity"))
        assert r.applied
        c = w.hosts["h1"].containers["c1"]
        assert c.active_variant.behavior == "identity"
        assert c.state is None

    def test_replace_unknown_behavior_aborts(self):
        w = make_world()
        kernel.apply_now(w, Add(desc("c1"), "h1"))
        r = kernel.apply_now(w, ReplaceBusiness("c1", behavior="nope"))
        assert r.reason == "unknown behavior"


class TestMove:
    def test_state_and_bindings_survive_migration(self):
        w = make_world()
        deploy_chain(w, "h1", "h1")
        w.hosts["h1"].containers["src"].state = {"emitted": 9}
        assert kernel.apply_now(w, Move("src", "h2")).applied
        moved = w.hosts["h2"].containers["src"]
        assert moved.state == {"emitted": 9}
        assert moved.lifecycle is Lifecycle.RUNNING
        assert moved.output_bindings["out"] is w.connectors["k1"]
        assert "k1" in w.hosts["h2"].connector_sources
        assert "k1" not in w.hosts["h1"].connector_sources
        assert w.model.components["src"].host == "h2"

    def test_in_flight_samples_survive_migration(self):
        w = make_world()
        deploy_chain(w, "h1", "h1")
        k = w.connectors["k1"]
        for i in range(3):
            k.push("src", "out", i, now=0)
        assert kernel.apply_now(w, Move("snk", "h2")).applied
        got = [k.pull("snk", "in", now=99) for _ in range(4)]
        assert got == [0, 1, 2, None]

    def test_move_to_unreachable_target_aborts_cleanly(self):
        w = make_world(tiers=("Full", "Full"), links=())
        kernel.apply_now(w, Add(desc("c1"), "h1"))
        before = w.model.canonical()
        r = kernel.apply_now(w, Move("c1", "h2"))
        assert r.reason == "unreachable"
        assert "c1" in w.hosts["h1"].containers
        assert w.model.canonical() == before

    def test_a_connected_listener_takes_its_pending_events_along(self):
        w = make_world()
        kernel.apply_now(w, Add(desc("l", in_ports=("in",), listener=True),
                                "h1"))
        e = PlatformEvent(EventKind.QOS_ALERT, None, priority=3)
        assert w.hosts["h1"].containers["l"].deliver_event(e)
        assert kernel.apply_now(w, Move("l", "h2")).applied
        moved = w.hosts["h2"].containers["l"]
        assert moved.lifecycle is Lifecycle.CONNECTED
        assert moved.pending_events() == [e]

    def test_forced_recovery_from_a_dead_host_loses_state(self):
        w = make_world()
        kernel.apply_now(w, Add(desc("c1", behavior="counter"), "h1"))
        w.hosts["h1"].containers["c1"].state = 5
        w.hosts["h1"].desc.up = False
        assert kernel.apply_now(w, Move("c1", "h2")).applied
        fresh = w.hosts["h2"].containers["c1"]
        assert fresh.state is None               # no snapshot was reachable
        assert fresh.lifecycle is Lifecycle.RUNNING


class TestCausalConnection:
    def test_model_matches_reconstruction_after_random_commands(self):
        rng = random.Random(11)
        w = make_world()
        pool = [Add(desc(f"c{i}"), rng.choice(["h1", "h2", "h3"]))
                for i in range(4)]
        cmds = pool + [Move(f"c{i}", rng.choice(["h1", "h2", "h3"]))
                       for i in range(4)]
        cmds += [Remove(f"c{i}") for i in range(2)]
        rng.shuffle(cmds)
        for cmd in cmds:
            kernel.apply_now(w, cmd)   # aborts allowed; model must track
            assert (w.model.canonical()
                    == reconstruct_model(w).canonical())

    def test_a_bound_sink_starts_when_its_host_rejoins(self):
        w = make_world(tiers=("Full", "Full"), links=((0, 1),))
        kernel.apply_now(w, Add(desc("src", out_ports=("out",),
                                     behavior="source"), "h1"))
        kernel.apply_now(w, Add(desc("snk", in_ports=("in",),
                                     behavior="sink"), "h2"))
        w.hosts["h2"].desc.up = False
        assert kernel.apply_now(w, Connect(
            "k1", Endpoint("src", "out"), (Endpoint("snk", "in"),),
            FlowPolicy())).applied
        w.schedule(sim_event(3, SimEventKind.HOST_JOIN, host="h2"))
        snk = w.hosts["h2"].containers["snk"]
        w.run(3)
        assert snk.lifecycle is Lifecycle.CONNECTED
        w.step()                                  # the join tick
        assert snk.lifecycle is Lifecycle.RUNNING
        assert w.model.components["snk"].lifecycle == "Running"
        assert w.model.canonical() == reconstruct_model(w).canonical()
        w.run(3)
        assert w.connectors["k1"].delivered_count > 0

    def test_the_model_version_moves_when_a_rejoin_starts_a_sink(self):
        w = make_world(tiers=("Full", "Full"), links=((0, 1),))
        kernel.apply_now(w, Add(desc("src", out_ports=("out",),
                                     behavior="source"), "h1"))
        kernel.apply_now(w, Add(desc("snk", in_ports=("in",),
                                     behavior="sink"), "h2"))
        w.hosts["h2"].desc.up = False
        kernel.apply_now(w, Connect("k1", Endpoint("src", "out"),
                                    (Endpoint("snk", "in"),), FlowPolicy()))
        w.schedule(sim_event(2, SimEventKind.HOST_JOIN, host="h2"))
        w.schedule(sim_event(4, SimEventKind.HOST_LEAVE, host="h2"))
        w.schedule(sim_event(6, SimEventKind.HOST_JOIN, host="h2"))
        w.run(2)
        before = w.model.version
        w.step()                                  # the sink starts
        assert w.model.components["snk"].lifecycle == "Running"
        assert w.model.version == before + 1
        w.run(4)                                  # leave, then rejoin
        assert w.model.components["snk"].lifecycle == "Running"
        assert w.model.version == before + 1      # nothing else changed

    def test_the_model_version_moves_when_a_fault_stops_a_component(self):
        def fail_at_2(state, inputs, events, now, api):
            if now == 2:
                raise RuntimeError("kaput")
            return state, {}
        behaviors.register("fail_at_2", fail_at_2)
        w = make_world()
        kernel.apply_now(w, Add(desc("c", behavior="fail_at_2"), "h1"))
        w.run(2)
        before = w.model.version
        assert w.step()["faults"] == 1
        assert w.model.components["c"].lifecycle == "Stopped"
        assert w.model.version == before + 1
        w.run(2)
        assert w.model.version == before + 1


class TestIntrusion:
    def cfg(self, level):
        return PlatformConfig(intrusion=level, defer_window=3)

    def test_guarded_defers_then_applies(self):
        w = make_world()
        w.hosts["h1"].config = self.cfg(IntrusionLevel.GUARDED)
        # platform config comes from the coordinator host; fake one
        class Co:            # minimal stand-in with a host attribute
            host = "h1"
        w.coordinator = Co()
        r = kernel.apply(w, Add(desc("c1"), "h2"))
        assert r.status == "Deferred"
        assert w._tick_buffer[-1][3] == (
            "host=h1 kind=CMD cmd=Add comp=c1 host=h2 result=Deferred due=3 "
            "origin=platform")
        assert "c1" not in w.hosts["h2"].containers
        w.now = 2
        kernel.process_deferred(w)
        assert "c1" not in w.hosts["h2"].containers
        w.now = 3
        kernel.process_deferred(w)
        assert "c1" in w.hosts["h2"].containers

    def test_locked_holds_until_unlocked(self):
        w = make_world()
        w.hosts["h1"].config = self.cfg(IntrusionLevel.LOCKED)
        class Co:
            host = "h1"
        w.coordinator = Co()
        assert kernel.apply(w, Add(desc("c1"), "h2")).status == "Deferred"
        assert w._tick_buffer[-1][3] == (
            "host=h1 kind=CMD cmd=Add comp=c1 host=h2 result=Deferred "
            "origin=platform")                 # no due tick while locked
        w.now = 50
        kernel.process_deferred(w)
        assert "c1" not in w.hosts["h2"].containers
        w.hosts["h1"].config = self.cfg(IntrusionLevel.OPEN)
        kernel.process_deferred(w)
        assert "c1" in w.hosts["h2"].containers

    def test_forced_recovery_overrides_a_lock(self):
        w = make_world()
        w.hosts["h1"].config = self.cfg(IntrusionLevel.LOCKED)
        class Co:
            host = "h1"
        w.coordinator = Co()
        kernel.apply_now(w, Add(desc("c1"), "h2"))
        w.hosts["h2"].desc.up = False
        r = kernel.apply(w, Move("c1", "h3"), forced=True)
        assert r.applied
        assert "c1" in w.hosts["h3"].containers

    def test_app_commands_ignore_intrusion(self):
        w = make_world()
        w.hosts["h1"].config = self.cfg(IntrusionLevel.LOCKED)
        class Co:
            host = "h1"
        w.coordinator = Co()
        assert kernel.apply(w, Add(desc("c1"), "h2"), origin="app").applied


class TestEvents:
    def listener_world(self, min_priority=0):
        w = make_world()
        w.hosts["h2"].config.subscriptions["ear"] = Subscription(
            min_priority=min_priority)
        kernel.apply_now(w, Add(desc("ear", listener=True), "h2"))
        return w

    def evt(self, prio=5):
        return PlatformEvent(kind=EventKind.QOS_ALERT, payload=None,
                             priority=prio)

    def test_silent_modes_deliver_nothing(self):
        w = self.listener_world()
        assert kernel.emit_event(w, self.evt(), "M1") == 0
        assert kernel.emit_event(w, self.evt(), "M3") == 0

    def test_event_modes_deliver_to_listeners(self):
        w = self.listener_world()
        assert kernel.emit_event(w, self.evt(), "M2") == 1
        assert kernel.emit_event(w, self.evt(), "M4") == 1

    def test_min_priority_filters(self):
        w = self.listener_world(min_priority=7)
        assert kernel.emit_event(w, self.evt(prio=5), "M2") == 0
        assert kernel.emit_event(w, self.evt(prio=7), "M2") == 1

    def test_unreachable_listener_is_skipped(self):
        w = self.listener_world()
        w.links[frozenset(("h1", "h2"))].up = False
        w.links[frozenset(("h2", "h3"))].up = False
        assert kernel.emit_event(w, self.evt(), "M2", from_host="h1") == 0
