"""Routing index and the topology version: oracle and invalidation."""

import dataclasses
import functools
import heapq
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from adaptsim import adaptation, behaviors, kernel
from adaptsim.adaptation import Coordinator
from adaptsim.connector import (ConnectorInstance, Endpoint, FlowPolicy,
                               FlowSync, LossKind)
from adaptsim.container import ComponentDescriptor, Variant
from adaptsim.kernel import (Add, Battery, Connect, Disconnect,
                             HostDescriptor, HostTier, Move, Remove,
                             ReplaceBusiness)
from adaptsim.simnet import SimEventKind, World, sim_event


# -- reference: a heap of (hops, path) tuples, popped in order ------------

def ref_neighbors(up, links, hid):
    out = []
    for pair, link_up in links.items():
        if hid in pair and link_up:
            other = next(iter(pair - {hid}))
            if up.get(other):
                out.append(other)
    return sorted(out)


def ref_search(up, links, src, dst):
    heap = [(0, (src,))]
    best = {}
    while heap:
        hops, path = heapq.heappop(heap)
        node = path[-1]
        if node == dst:
            return list(path)
        if node in best and best[node] < (hops, path):
            continue
        for nxt in ref_neighbors(up, links, node):
            if nxt in path:
                continue
            cand = (hops + 1, path + (nxt,))
            if nxt not in best or cand < best[nxt]:
                best[nxt] = cand
                heapq.heappush(heap, cand)
    return None


def ref_shortest_path(up, links, src, dst):
    if src == dst:
        return [src] if up[src] else None
    if not up[src] or not up[dst]:
        return None
    return ref_search(up, links, src, dst)


def ref_obs_path(up, links, src, dst):
    if src == dst:
        return [src]
    if not up.get(src):
        return None
    return ref_search(up, links, src, dst)


# -- reference: a BFS per pair that stops when it reaches dst -------------

def bfs_path(adj, src, dst):
    reached = {src: (src,)}
    queue = [src]
    for node in queue:
        for nxt in adj.get(node, ()):
            if nxt not in reached:
                reached[nxt] = reached[node] + (nxt,)
                if nxt == dst:
                    return reached[nxt]
                queue.append(nxt)
    return reached.get(dst)


# ids whose string order differs from their numeric order
NAMES = ["h0", "h1", "h10", "h2", "h3", "h11", "a", "z"]


@st.composite
def topologies(draw):
    ids = draw(st.lists(st.sampled_from(NAMES), min_size=2, max_size=7,
                        unique=True))
    host_up = {hid: draw(st.booleans()) for hid in ids}
    links = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if draw(st.booleans()):
                links[frozenset((a, b))] = draw(st.booleans())
    return host_up, links


def world_of(host_up, links):
    w = World(seed=0)
    for hid in sorted(host_up):
        w.add_host(HostDescriptor(id=hid, tier=HostTier.FULL,
                                  cpu_capacity=4, mem_capacity=4))
    for pair, link_up in links.items():
        a, b = sorted(pair)
        w.add_link(a, b, up=link_up)
    for hid, up in host_up.items():
        w.hosts[hid].desc.up = up
    return w


def comp(cid, behavior, ins=(), outs=()):
    return ComponentDescriptor(
        id=cid, in_ports=ins, out_ports=outs,
        variants=(Variant("Full", 1.0, 1.0, behavior),))


@st.composite
def partitioned_worlds(draw):
    """The coordinator's linked part, a linked group of two or more up hosts
    it cannot reach, and down hosts with up links into both; a chain of
    components runs inside the group, across it and anywhere."""
    ids = draw(st.permutations(NAMES))
    n_coord = draw(st.integers(1, 3))
    n_cut = draw(st.integers(2, 3))
    part = ids[:n_coord]
    cut_off = ids[n_coord:n_coord + n_cut]
    down = ids[n_coord + n_cut:]
    w = World(seed=0)
    for hid in sorted(ids):
        w.add_host(HostDescriptor(id=hid, tier=HostTier.FULL,
                                  cpu_capacity=4, mem_capacity=4))
    for group in (part, cut_off):
        for a, b in zip(group, group[1:]):      # keep the group linked
            w.add_link(a, b, bandwidth=draw(st.sampled_from([2.0, 10.0])))
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if frozenset((a, b)) in w.links or not draw(st.booleans()):
                continue
            same = {a, b} <= set(part) or {a, b} <= set(cut_off)
            # a link between the two groups is up only through a down host
            up = same or bool(down and {a, b} & set(down))
            w.add_link(a, b, up=up and draw(st.booleans()))
    for hid in down:
        w.hosts[hid].desc.up = False
    w.coordinator = Coordinator(draw(st.sampled_from(part)), mode="M1")
    up = part + cut_off
    hosts = [draw(st.sampled_from(cut_off)), draw(st.sampled_from(cut_off)),
             draw(st.sampled_from(part))]
    hosts += draw(st.lists(st.sampled_from(up), max_size=2))
    kinds = ["source"] + ["identity"] * (len(hosts) - 2) + ["sink"]
    for i, (hid, behavior) in enumerate(zip(hosts, kinds)):
        ins = ("in",) if i else ()
        outs = ("out",) if i < len(hosts) - 1 else ()
        assert kernel.apply_now(w, Add(comp(f"c{i}", behavior, ins, outs),
                                       hid)).applied
    for i in range(len(hosts) - 1):
        policy = FlowPolicy(bw_demand=draw(st.sampled_from([0.0, 1.0, 3.0])))
        assert kernel.apply_now(w, Connect(
            f"k{i}", Endpoint(f"c{i}", "out"), (Endpoint(f"c{i + 1}", "in"),),
            policy)).applied
    return w, cut_off


class TestOracle:
    @settings(max_examples=300, deadline=None)
    @given(topologies())
    def test_world_routing_matches_the_heap_search(self, topo):
        host_up, links = topo
        w = world_of(host_up, links)
        for src in host_up:
            assert (kernel.neighbors(w, src)
                    == ref_neighbors(host_up, links, src))
            for dst in host_up:
                assert (kernel.shortest_path(w, src, dst)
                        == ref_shortest_path(host_up, links, src, dst))

    @settings(max_examples=300, deadline=None)
    @given(topologies(), st.randoms(use_true_random=False))
    def test_source_trees_match_the_per_pair_bfs_and_the_heap_search(
            self, topo, rng):
        host_up, links = topo
        routes = kernel.Routes(host_up, {pair: SimpleNamespace(up=link_up)
                                         for pair, link_up in links.items()})
        pairs = [(src, dst) for src in host_up for dst in host_up]
        rng.shuffle(pairs)               # a tree must not depend on the
        for src, dst in pairs:           # order the pairs are asked in
            got = routes.path(src, dst)
            want = bfs_path(routes.adj, src, dst) if host_up[src] else None
            assert got == want
            assert (None if got is None else list(got)) \
                == ref_shortest_path(host_up, links, src, dst)

    @settings(max_examples=300, deadline=None)
    @given(topologies(), st.data())
    def test_observed_routing_matches_the_heap_search(self, topo, data):
        host_up, links = topo
        w = world_of(host_up, links)
        # an up host no link reaches: the coordinator cannot observe it
        w.add_host(HostDescriptor(id="zz", tier=HostTier.FULL,
                                  cpu_capacity=4, mem_capacity=4))
        coord = data.draw(st.sampled_from(sorted(host_up)))
        w.coordinator = Coordinator(coord, mode="M1")
        obs = adaptation.observe(w, 0)
        assert w.hosts["zz"].desc.up and not obs.hosts["zz"].up
        seen_up = {hid: ho.up for hid, ho in obs.hosts.items()}
        seen_links = {pair: lo.up for pair, lo in obs.links.items()}
        for src in seen_up:
            for dst in seen_up:
                assert (adaptation._obs_path(obs, src, dst)
                        == ref_obs_path(seen_up, seen_links, src, dst))

    @settings(max_examples=200, deadline=None)
    @given(partitioned_worlds())
    def test_a_partitioned_observation_scores_as_one_with_its_own_routes(
            self, made):
        w, cut_off = made
        obs = adaptation.observe(w, 0)
        assert not any(obs.hosts[hid].up for hid in cut_off)
        own = dataclasses.replace(obs, routes=None)
        got = adaptation.evaluate_qos(w.model, obs, w.descriptors)
        want = adaptation.evaluate_qos(w.model, own, w.descriptors)
        assert own.routes is not None and own.routes is not obs.routes
        assert got.resource == want.resource
        assert got.link == want.link
        assert got.battery == want.battery
        assert got.global_score == want.global_score


# -- invalidation ----------------------------------------------------------

def square(battery=None, world=World):
    """h1-h2-h4 and h1-h3-h4: h1 -> h4 goes over h2 while it can."""
    w = world(seed=0)
    for hid in ("h1", "h2", "h3", "h4"):
        w.add_host(HostDescriptor(id=hid, tier=HostTier.FULL,
                                  cpu_capacity=8, mem_capacity=8,
                                  power=battery if hid == "h2" else None))
    for a, b in (("h1", "h2"), ("h2", "h4"), ("h1", "h3"), ("h3", "h4")):
        w.add_link(a, b, latency=10)
    return w


def flow_square(battery=None):
    """square() with a lossless flow from src on h1 to snk on h4."""
    w = square(battery)
    kernel.apply_now(w, Add(comp("src", "source", outs=("out",)), "h1"))
    kernel.apply_now(w, Add(comp("snk", "sink", ins=("in",)), "h4"))
    kernel.apply_now(w, Connect("k1", Endpoint("src", "out"),
                                (Endpoint("snk", "in"),), FlowPolicy()))
    return w


def fresh_transit(w, src, dst):
    """(latency ticks, path) over routes built for the world as it is."""
    routes = kernel.Routes({hid: h.desc.up for hid, h in w.hosts.items()},
                           w.links)
    path = routes.path(src, dst)
    if path is None:
        return None
    return (sum(w.links[frozenset(hop)].latency
                for hop in zip(path, path[1:])), path)


class TestInvalidation:
    def test_direct_host_write(self):
        w = square()
        assert kernel.shortest_path(w, "h1", "h4") == ["h1", "h2", "h4"]
        w.hosts["h2"].desc.up = False
        assert kernel.shortest_path(w, "h1", "h4") == ["h1", "h3", "h4"]
        assert kernel.neighbors(w, "h1") == ["h3"]
        w.hosts["h2"].desc.up = True
        assert kernel.shortest_path(w, "h1", "h4") == ["h1", "h2", "h4"]

    def test_direct_link_write(self):
        w = square()
        assert kernel.shortest_path(w, "h1", "h4") == ["h1", "h2", "h4"]
        w.links[frozenset(("h2", "h4"))].up = False
        assert kernel.shortest_path(w, "h1", "h4") == ["h1", "h3", "h4"]

    def test_add_link(self):
        w = square()
        assert kernel.shortest_path(w, "h1", "h4") == ["h1", "h2", "h4"]
        w.add_link("h1", "h4")
        assert kernel.shortest_path(w, "h1", "h4") == ["h1", "h4"]

    def test_add_host(self):
        w = square()
        assert kernel.shortest_path(w, "h5", "h5") is None
        w.add_host(HostDescriptor(id="h5", tier=HostTier.FULL,
                                  cpu_capacity=8, mem_capacity=8))
        assert kernel.shortest_path(w, "h5", "h5") == ["h5"]

    def test_leave_and_join_events(self):
        w = square()
        assert kernel.shortest_path(w, "h1", "h4") == ["h1", "h2", "h4"]
        w.schedule(sim_event(0, SimEventKind.HOST_LEAVE, host="h2"))
        w.schedule(sim_event(1, SimEventKind.HOST_JOIN, host="h2"))
        w.step()
        assert kernel.shortest_path(w, "h1", "h4") == ["h1", "h3", "h4"]
        w.step()
        assert kernel.shortest_path(w, "h1", "h4") == ["h1", "h2", "h4"]

    def test_battery_leave_repaths_in_flight_sample_next_tick(self):
        # h2 drains to 0 in tick 0 and leaves in phase (3) of tick 1, after
        # that tick's re-route pass; the sample pushed over h2 in tick 0 must
        # be re-pathed by the pass of tick 2
        w = flow_square(battery=Battery(level=0.5, drain_per_tick=0.5))

        def queue():
            return w.connectors["k1"]._queues[Endpoint("snk", "in")]
        w.step()
        assert [e.path for e in queue()] == [("h1", "h2", "h4")]
        w.step()
        assert not w.hosts["h2"].desc.up
        assert queue()[0].path == ("h1", "h2", "h4")
        w.step()
        assert [e.seq for e in queue()] == [1, 2, 3]
        assert all(e.path == ("h1", "h3", "h4") for e in queue())

    def test_connector_transit_follows_every_topology_write(self):
        w = flow_square()
        sink = Endpoint("snk", "in")

        def transit():
            got = w.connector_transit("k1", sink)
            assert got == fresh_transit(w, "h1", "h4")
            return got
        assert transit() == (20, ("h1", "h2", "h4"))
        w.hosts["h2"].desc.up = False
        assert transit() == (20, ("h1", "h3", "h4"))
        w.links[frozenset(("h3", "h4"))].up = False
        assert transit() is None
        w.hosts["h2"].desc.up = True
        assert transit() == (20, ("h1", "h2", "h4"))
        w.add_link("h1", "h4", latency=3)
        assert transit() == (3, ("h1", "h4"))
        w.links[frozenset(("h1", "h4"))].up = False
        w.add_host(HostDescriptor(id="h0", tier=HostTier.FULL,
                                  cpu_capacity=8, mem_capacity=8))
        assert transit() == (20, ("h1", "h2", "h4"))
        w.add_link("h0", "h1", latency=1)
        w.add_link("h0", "h4", latency=1)
        assert transit() == (2, ("h1", "h0", "h4"))
        w.schedule(sim_event(0, SimEventKind.HOST_LEAVE, host="h0"))
        w.schedule(sim_event(1, SimEventKind.HOST_JOIN, host="h0"))
        w.step()
        assert transit() == (20, ("h1", "h2", "h4"))
        w.step()
        assert transit() == (2, ("h1", "h0", "h4"))

    def test_a_sample_pushed_after_a_link_down_takes_the_new_route(self):
        w = flow_square()
        w.add_link("h1", "h4", latency=1)
        w.schedule(sim_event(3, SimEventKind.LINK_DOWN,
                             endpoints=("h1", "h4")))
        w.run(3)
        assert w.connector_transit("k1", Endpoint("snk", "in")) \
            == (1, ("h1", "h4"))
        w.step()                        # tick 3 pushes sample 4
        [entry] = w.connectors["k1"]._queues[Endpoint("snk", "in")]
        assert entry.seq == 4
        assert (entry.available_at, entry.path) == (23, ("h1", "h2", "h4"))
        w.run(20)
        delivered = [int(line.split()[0][len("tick="):])
                     for line in w.trace_lines
                     if "op=deliver" in line and line.endswith(" seq=4")]
        assert delivered == [23]

    @staticmethod
    def two_flows():
        """flow_square() and a lossless flow k2 from h1 to h3, over h1-h3;
        k1 goes over h2."""
        w = flow_square()
        kernel.apply_now(w, Add(comp("src2", "source", outs=("out",)), "h1"))
        kernel.apply_now(w, Add(comp("snk2", "sink", ins=("in",)), "h3"))
        kernel.apply_now(w, Connect("k2", Endpoint("src2", "out"),
                                    (Endpoint("snk2", "in"),), FlowPolicy()))
        return w

    @staticmethod
    def count_checks(monkeypatch):
        """(tick, connector id) of each `reroute_check` call from now on."""
        checked = []
        check = ConnectorInstance.reroute_check

        def counted(k, now, broken):
            checked.append((now, k.id))
            return check(k, now, broken)
        monkeypatch.setattr(ConnectorInstance, "reroute_check", counted)
        return checked

    @pytest.mark.parametrize("down, back, checked", [
        (("leave", "h2"), ("join", "h2"), ["k1"]),
        (("leave", "h3"), ("join", "h3"), ["k2"]),
        (("linkdown", ("h2", "h4")), ("linkup", ("h2", "h4")), ["k1"]),
        (("linkdown", ("h1", "h3")), ("linkup", ("h1", "h3")), ["k2"])])
    def test_a_pass_checks_only_connectors_in_transit_over_what_went_down(
            self, monkeypatch, down, back, checked):
        w = self.two_flows()
        for at, (event, arg) in ((2, down), (3, back)):
            kind, key = HOP_EVENTS[event]
            w.schedule(sim_event(at, kind, **{key: arg}))
        calls = self.count_checks(monkeypatch)
        w.run(4)
        assert calls == [(2, kid) for kid in checked]

    def test_a_join_reuses_the_routes_of_the_state_before_the_leave(
            self, monkeypatch):
        w = self.two_flows()
        w.schedule(sim_event(2, SimEventKind.HOST_LEAVE, host="h2"))
        w.schedule(sim_event(3, SimEventKind.HOST_JOIN, host="h2"))
        w.run(2)
        before = w.routes()
        known = dict(before.known)
        assert set(known) == {("h1", "h4"), ("h1", "h3")}

        class CountingAdj(dict):
            gets = 0

            def get(self, *args):
                CountingAdj.gets += 1
                return super().get(*args)
        before.adj = CountingAdj(before.adj)
        searches = []
        search = kernel.shortest_path

        def counted(world, src, dst):
            searches.append((src, dst))
            return search(world, src, dst)
        monkeypatch.setattr(kernel, "shortest_path", counted)
        calls = self.count_checks(monkeypatch)
        w.step()                                # tick 2: h2 leaves
        assert w.routes() is not before
        assert calls == [(2, "k1")] and searches == [("h1", "h4")]
        w.step()                                # tick 3: h2 joins
        assert w.routes() is before
        assert calls == [(2, "k1")] and searches == [("h1", "h4")]
        for (src, dst), path in known.items():
            assert kernel.shortest_path(w, src, dst) == list(path)
        assert CountingAdj.gets == 0


# -- per-connector hop lists ------------------------------------------------

HOP_APP_COMMANDS: list = []      # what `hops_app` submits at its next firing


def _hops_app(state, inputs, events, now, api):
    """Submits the queued commands, then emits like a source."""
    while HOP_APP_COMMANDS:
        api.submit_command(HOP_APP_COMMANDS.pop(0))
    return (state or 0) + 1, {"__all__": (state or 0) + 1}


behaviors.register("hops_app", _hops_app)


def fresh_hops(w, kid, sinks):
    """Each sink's (latency, path) over routes built for the world as it
    is, with the hosts read from the containers."""
    at = {cid: hid for hid, h in w.hosts.items() for cid in h.containers}
    src = at.get(w.connectors[kid].source.component)
    hops = []
    for sink in sinks:
        dst = at.get(sink.component)
        if src is None or dst is None:
            hops.append(None)
        else:
            hops.append((0, ()) if src == dst else fresh_transit(w, src, dst))
    return hops


class HopOracleWorld(World):
    """Checks every hop list it hands out, to a push or to the test."""

    reads = 0

    def connector_hops(self, kid, sinks):
        hops = super().connector_hops(kid, sinks)
        assert hops == fresh_hops(self, kid, sinks), (self.now, kid)
        self.reads += 1
        return hops


HOP_HOSTS = ("h1", "h2", "h3", "h4")
SQUARE_LINKS = (("h1", "h2"), ("h2", "h4"), ("h1", "h3"), ("h3", "h4"))
HOP_COMPONENTS = ("src", "app", "snk", "tap", "mid")
HOP_EVENTS = {"linkdown": (SimEventKind.LINK_DOWN, "endpoints"),
              "linkup": (SimEventKind.LINK_UP, "endpoints"),
              "leave": (SimEventKind.HOST_LEAVE, "host"),
              "join": (SimEventKind.HOST_JOIN, "host")}


def hop_world():
    """square() with `src` (h1) feeding `snk` (h4) and `tap` (h2) over one
    connector, and an application `app` (h3) feeding `mid` (h1)."""
    w = square(world=HopOracleWorld)
    for cid, hid, ins, outs, behavior in (
            ("src", "h1", (), ("o",), "source"),
            ("app", "h3", (), ("o",), "hops_app"),
            ("snk", "h4", ("i",), (), "sink"),
            ("tap", "h2", ("i",), (), "sink"),
            ("mid", "h1", ("i",), (), "sink")):
        assert kernel.apply_now(w, Add(ComponentDescriptor(
            id=cid, in_ports=ins, out_ports=outs,
            variants=(Variant("Full", 1.0, 1.0, behavior),)), hid)).applied
    for kid, src, sinks in (("k1", "src", ("snk", "tap")),
                            ("k2", "app", ("mid",))):
        assert kernel.apply_now(w, Connect(
            kid, Endpoint(src, "o"), tuple(Endpoint(s, "i") for s in sinks),
            FlowPolicy())).applied
    return w


def run_hops(script):
    """Runs the script on a hop_world; after each step every connector's
    hop list must equal a fresh one.  Returns the world and the distinct
    hop lists of k1."""
    w = hop_world()
    HOP_APP_COMMANDS.clear()
    seen = set()
    for step in script:
        if step[0] == "tick":
            w.step()
        elif step[0] == "cmd":
            kernel.apply_now(w, step[1])
        elif step[0] == "app":
            HOP_APP_COMMANDS.append(step[1])
        else:
            kind, key = HOP_EVENTS[step[0]]
            w._fire(sim_event(w.now, kind, **{key: step[1]}))
        for kid, k in w.connectors.items():
            hops = w.connector_hops(kid, k.sinks)
            if kid == "k1":
                seen.add(tuple(hops))
    return w, seen


hop_moves = st.builds(Move, st.sampled_from(HOP_COMPONENTS),
                      st.sampled_from(HOP_HOSTS + ("h9",)))
hop_steps = st.lists(st.one_of(
    st.just(("tick",)),
    st.tuples(st.just("cmd"), hop_moves),
    st.tuples(st.just("app"), hop_moves),
    st.tuples(st.sampled_from(("linkdown", "linkup")),
              st.sampled_from(SQUARE_LINKS)),
    st.tuples(st.sampled_from(("leave", "join")), st.sampled_from(HOP_HOSTS)),
), max_size=30)


class TestHopLists:
    """A push reads its connector's hop list as kept on the routing of the
    topology state, so every write to `component_host` must drop the
    connector's list, and every write to an `up` flag must move the
    topology version, before the next push."""

    @settings(max_examples=150, deadline=None)
    @given(script=hop_steps)
    def test_every_hop_list_equals_a_fresh_transit(self, script):
        run_hops(script + [("tick",)])

    def test_the_oracle_sees_every_kind_of_write(self):
        """One fixed script: an application moves the sink it feeds while
        it fires and then pushes, a command moves a sink, one aborts, a
        link and a host go down and come back."""
        w, seen = run_hops([
            ("tick",), ("app", Move("mid", "h4")), ("tick",),
            ("cmd", Move("snk", "h3")), ("tick",),
            ("cmd", Move("snk", "h9")), ("tick",),
            ("linkdown", ("h1", "h3")), ("tick",),
            ("leave", "h2"), ("tick",), ("join", "h2"), ("tick",),
            ("linkup", ("h1", "h3")), ("tick",)])
        text = "\n".join(w.trace_lines)
        assert "cmd=Move comp=mid target=h4 result=Applied origin=app" \
            in text
        assert "cmd=Move comp=snk target=h9 result=Aborted" in text
        assert "tick=1 host=h3 kind=FLOW conn=k2 op=push seq=2" in text
        assert w.reads > 7 * 2
        tap = (10, ("h1", "h2"))
        assert seen == {
            ((20, ("h1", "h2", "h4")), tap),        # snk on h4
            ((10, ("h1", "h3")), tap),              # moved to h3
            ((30, ("h1", "h2", "h4", "h3")), tap),  # h1-h3 down
            (None, None)}                           # h2 left: h1 cut off

    def test_a_retry_and_a_reroute_read_the_hop_list(self, monkeypatch):
        """One fixed script.  h4 is cut off while k1 pushes samples 1 and
        2 to snk; h2-h4 comes back before tick 2, where snk's pull retries
        its unrouted head; h3-h4 comes back, and h2-h4 goes down again
        under samples 1 and 3-5, which the pass of tick 5 re-paths over
        h3.  Each retry and re-route reads through `connector_hops`."""
        w = hop_world()
        HOP_APP_COMMANDS.clear()
        reads = []                  # (tick, method, connector, hop reads)
        for name in ("pull", "reroute_check"):
            def counted(k, *args, _method=getattr(ConnectorInstance, name),
                        _name=name):
                before = w.reads
                out = _method(k, *args)
                if w.reads != before:
                    reads.append((w.now, _name, k.id, w.reads - before))
                return out
            monkeypatch.setattr(ConnectorInstance, name, counted)
        queues = {}                 # tick -> snk's queue after it

        def run_to(tick):
            while w.now <= tick:
                w.step()
                queues[w.now - 1] = [
                    (e.seq, e.available_at, e.path)
                    for e in w.connectors["k1"]._queues[Endpoint("snk", "i")]]

        def fire(event, arg):
            kind, key = HOP_EVENTS[event]
            w._fire(sim_event(w.now, kind, **{key: arg}))
        fire("linkdown", ("h2", "h4"))
        fire("linkdown", ("h3", "h4"))
        run_to(1)
        fire("linkup", ("h2", "h4"))
        run_to(3)
        fire("linkup", ("h3", "h4"))
        run_to(4)
        fire("linkdown", ("h2", "h4"))
        run_to(26)
        assert reads == [(0, "pull", "k1", 1), (1, "pull", "k1", 1),
                         (2, "pull", "k1", 1), (5, "reroute_check", "k1", 4),
                         (26, "pull", "k1", 1)]
        over_h2, over_h3 = ("h1", "h2", "h4"), ("h1", "h3", "h4")
        assert queues[1] == [(1, 0, None), (2, 1, None)]
        assert queues[2] == [(1, 22, over_h2), (2, 1, None), (3, 22, over_h2)]
        assert queues[5] == [(1, 25, over_h3), (2, 1, None)] + [
            (seq, 25, over_h3) for seq in range(3, 7)]
        assert [line for line in w.trace_lines
                if "op=deliver sink=snk.i" in line] == [
            "tick=25 host=h4 kind=FLOW conn=k1 op=deliver sink=snk.i seq=1"]
        assert queues[26][0] == (2, 46, over_h3)


# -- routing kept per topology state -----------------------------------------

def hop_broken(w, path):
    """The reference rule: a path is broken when one of its hops leaves a
    down host or crosses no up link into an up host, read from the routes
    of the world as it is."""
    adj = w.routes().adj
    return any(not w.hosts[a].desc.up or b not in adj.get(a, ())
               for a, b in zip(path, path[1:]))


class EveryVersionWorld(World):
    """The reference re-route pass: every connector is checked at every
    topology version change, under `hop_broken`.  The scripts fire their
    events between ticks, so phase (1) of a step is empty and the pass can
    run before it."""

    checked_at = None

    def step(self):
        if self.checked_at != self.topology_version:
            for kid in sorted(self.connectors):
                self.connectors[kid].reroute_check(
                    self.now, functools.partial(hop_broken, self))
            self.checked_at = self.topology_version
        self._passed = self._routed().down      # the world's own pass idles
        return super().step()


CHURN_HOSTS = ("h1", "h2", "h3", "h4", "h5")
CHURN_LINKS = SQUARE_LINKS + (("h2", "h5"), ("h4", "h5"))
KEEP_LATEST = FlowPolicy(sync=FlowSync.UNSYNCHRONIZED,
                         loss=LossKind.KEEP_LATEST, capacity=1)


def churn_world(world=World):
    """square() and h5, linked to h2 and h4 at latency 2, with flows in
    transit for up to 20 ticks: lossless from h1 to h4, keep-latest from h4
    to h1, and lossless from h3 to both h5 and h2.  h2's battery runs out
    in tick 6, and h2 leaves again one tick after each rejoin."""
    w = square(battery=Battery(level=0.5, drain_per_tick=0.1), world=world)
    w.add_host(HostDescriptor(id="h5", tier=HostTier.FULL,
                              cpu_capacity=8, mem_capacity=8))
    w.add_link("h2", "h5", latency=2)
    w.add_link("h4", "h5", latency=2)
    for cid, hid, behavior in (("s1", "h1", "source"), ("t1", "h4", "sink"),
                               ("s2", "h4", "source"), ("t2", "h1", "sink"),
                               ("s3", "h3", "source"), ("t3", "h5", "sink"),
                               ("t4", "h2", "sink")):
        ins, outs = ((), ("o",)) if behavior == "source" else (("i",), ())
        assert kernel.apply_now(w, Add(comp(cid, behavior, ins, outs),
                                       hid)).applied
    for kid, src, sinks, policy in (
            ("k1", "s1", ("t1",), FlowPolicy()),
            ("k2", "s2", ("t2",), KEEP_LATEST),
            ("k3", "s3", ("t3", "t4"),
             FlowPolicy(sync=FlowSync.UNSYNCHRONIZED))):
        assert kernel.apply_now(w, Connect(
            kid, Endpoint(src, "o"), tuple(Endpoint(t, "i") for t in sinks),
            policy)).applied
    return w


def queued(w):
    return {kid: {str(sink): [(e.seq, e.available_at, e.path)
                              for e in q] for sink, q in k._queues.items()}
            for kid, k in w.connectors.items()}


def check_kept_routing(w):
    """Every answer the world's routes hold equals one of routes built for
    the world as it is, and so does every hop list the current topology
    state keeps: `fresh_transit` of each sink, (0, ()) for a local one."""
    fresh = kernel.Routes({hid: h.desc.up for hid, h in w.hosts.items()},
                          w.links)
    for (src, dst), path in w.routes().known.items():
        assert path == fresh.path(src, dst), (src, dst)
    for kid, hops in w._routed().hops.items():
        k = w.connectors[kid]
        src = w.host_of(k.source.component)
        assert hops == [(0, ()) if dst == src else fresh_transit(w, src, dst)
                        for dst in (w.host_of(sink.component)
                                    for sink in k.sinks)], kid


def run_churn(script):
    """Runs the script on a churn_world and on an EveryVersionWorld in
    step.  Each sample a pass of the churn_world checks must be broken
    under its predicate exactly when it is under `hop_broken`; after each
    step the kept routing must be exact and the queues and traces equal.
    Returns the world."""
    w, ref = churn_world(), churn_world(EveryVersionWorld)
    check = ConnectorInstance.reroute_check

    def compared(k, now, broken):
        if w.connectors.get(k.id) is k:
            for e in (e for q in k._queues.values() for e in q):
                if e.available_at > now and e.path:
                    assert broken(e.path) == hop_broken(w, e.path), e
        return check(k, now, broken)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ConnectorInstance, "reroute_check", compared)
        for step in script:
            for world in (w, ref):
                if step[0] == "tick":
                    world.step()
                else:
                    kind, key = HOP_EVENTS[step[0]]
                    world._fire(sim_event(world.now, kind, **{key: step[1]}))
            check_kept_routing(w)
            assert queued(w) == queued(ref)
            assert w.trace_lines == ref.trace_lines
    return w


churn_steps = st.lists(st.one_of(
    st.just(("tick",)), st.just(("tick",)),
    st.tuples(st.sampled_from(("linkdown", "linkup")),
              st.sampled_from(CHURN_LINKS)),
    st.tuples(st.sampled_from(("leave", "join")),
              st.sampled_from(CHURN_HOSTS)),
), max_size=40)


class TestRoutingByState:
    """Routes and hop lists are kept per topology state and carried
    across a change that only takes hosts or links down; the re-route pass
    checks only connectors with a sample in transit over what went down,
    and its rule agrees with the per-hop one of `hop_broken`."""

    @settings(max_examples=150, deadline=None)
    @given(script=churn_steps)
    def test_kept_routing_and_the_pass_equal_fresh_routes_and_every_check(
            self, script):
        run_churn(script + [("tick",)])

    def test_a_battery_leave_is_rerouted_by_the_next_pass(self):
        """One fixed script.  k1's samples go h1-h2-h4, then h1-h3-h4 while
        h2-h4 is down.  h3 leaves before tick 6, so the pass re-paths them
        over h2 again; h2's battery runs out in phase (3) of that tick, so
        sample 7 finds no route, and tick 7's pass, where h3 is back,
        re-paths samples 1-6 away from h2."""
        w = run_churn([("tick",)] * 3 + [
            ("linkdown", ("h2", "h4")), ("tick",), ("tick",),
            ("linkup", ("h2", "h4")), ("tick",),
            ("leave", "h3"), ("tick",), ("join", "h3"), ("tick",)])
        assert "tick=6 host=h2 kind=NET op=leave" in w.trace_lines
        assert queued(w)["k1"]["t1.i"] == [
            (seq, 27, ("h1", "h3", "h4")) for seq in range(1, 7)] + [
            (7, 6, None), (8, 27, ("h1", "h3", "h4"))]


# -- component -> host index -----------------------------------------------

def scan(w):
    return {cid: hid for hid in sorted(w.hosts)
            for cid in w.hosts[hid].containers}


def random_command(rng, ids, hosts, conns):
    kind = rng.choice(["add", "add", "remove", "move", "move", "connect",
                       "disconnect", "replace"])
    cid = rng.choice(ids)
    if kind == "add":
        return Add(ComponentDescriptor(
            id=cid, in_ports=("in",), out_ports=("out",),
            variants=(Variant("Full", 1.0, 1.0, "identity"),)),
            rng.choice(hosts + ["nope"]))
    if kind == "remove":
        return Remove(cid)
    if kind == "move":
        return Move(cid, rng.choice(hosts + ["nope"]))
    if kind == "connect":
        return Connect(rng.choice(conns), Endpoint(cid, "out"),
                       (Endpoint(rng.choice(ids), "in"),), FlowPolicy())
    if kind == "disconnect":
        return Disconnect(rng.choice(conns))
    return ReplaceBusiness(cid, behavior=rng.choice(["identity", "nope"]))


class TestHostOf:
    def test_index_equals_a_scan_after_every_command(self):
        rng = random.Random(11)
        hosts = ["h1", "h2", "h3", "h4"]
        ids = [f"c{i}" for i in range(5)]
        conns = [f"k{i}" for i in range(3)]
        statuses = set()
        for _ in range(60):
            w = square()
            w.links[frozenset(("h1", "h2"))].up = False
            w.links[frozenset(("h1", "h3"))].up = False    # h1 cut off
            for _ in range(25):
                if rng.random() < 0.1:
                    hid = rng.choice(hosts)
                    w.hosts[hid].desc.up = not w.hosts[hid].desc.up
                cmd = random_command(rng, ids, hosts, conns)
                statuses.add(kernel.apply_now(w, cmd).status)
                assert w.component_host == scan(w)
                for cid in ids:
                    assert w.host_of(cid) == scan(w).get(cid)
        assert statuses == {"Applied", "Aborted"}

    def test_index_rolls_back_with_a_move_that_fails_late(self, monkeypatch):
        w = square()
        kernel.apply_now(w, Add(ComponentDescriptor(
            id="c", in_ports=(), out_ports=(),
            variants=(Variant("Full", 1.0, 1.0, "identity"),)), "h1"))

        def fail(*args):
            raise RuntimeError("injected")
        # the last step of a move, after the container changed hosts
        monkeypatch.setattr(kernel, "_start_if_ready", fail)
        result = kernel.apply_now(w, Move("c", "h4"))
        assert result.status == "Aborted"
        assert w.host_of("c") == "h1"
        assert w.component_host == scan(w) == {"c": "h1"}
