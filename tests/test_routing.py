"""Routing index and the topology version: oracle and invalidation."""

import dataclasses
import heapq
import random
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from adaptsim import adaptation, kernel
from adaptsim.adaptation import Coordinator
from adaptsim.connector import Endpoint, FlowPolicy
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

def square(battery=None):
    """h1-h2-h4 and h1-h3-h4: h1 -> h4 goes over h2 while it can."""
    w = World(seed=0)
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
        assert [e.sample.seq for e in queue()] == [1, 2, 3]
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
        assert entry.sample.seq == 4
        assert (entry.available_at, entry.path) == (23, ("h1", "h2", "h4"))
        w.run(20)
        delivered = [int(line.split()[0][len("tick="):])
                     for line in w.trace_lines
                     if "op=deliver" in line and line.endswith(" seq=4")]
        assert delivered == [23]


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
        monkeypatch.setattr(kernel, "_sync_model_component", fail)
        result = kernel.apply_now(w, Move("c", "h4"))
        assert result.status == "Aborted"
        assert w.host_of("c") == "h1"
        assert w.component_host == scan(w) == {"c": "h1"}
