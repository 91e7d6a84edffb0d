"""Seeded world generator for the benchmark workloads.

A workload seed fixes everything: the hosts (mixed Full and LightStd tiers,
batteries on the light ones), the links (a random spanning tree plus extra
links), the application (source -> identity -> sink chains of three
components) and the scenario script.  The result is written as the same
app/net/scenario descriptor JSON that `adaptsim run` reads, so the program
under test only ever sees generated inputs.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    hosts: int
    chains: int          # three components and two connectors each
    mode: str            # adaptation mode passed to build_world
    duration: int        # simulated ticks per run
    worlds: int          # worlds generated from one seed
    repeats: int         # runs of each world in a block of runs.py
    script: str          # "none" | "failover" | "link_churn"


# Why flows_steady and failover_replan exist, and the layer each stresses,
# is recorded in BENCHMARK.json.  link_churn (a link drops every tick and
# returns 3 ticks later) stresses routing beside topology writes and the
# connectors' re-routing.  It is left out of BENCHMARK.json so that the
# listed workloads' runs can be long enough to be steady within the
# benchmark's time budget; it runs by name or with --workload all.
# failover_replan stays near 20 hosts because each leave costs an
# exhaustive search of (hosts - 1)^2 placements, each a full evaluate_qos
# whose cost grows with the world too.  worlds x repeats sizes one block of
# runs (see run.py) to 25-50 s on a 2-core host.  Costs differ from world
# to world, re-placement most (one search costs 0.7-1.3 times another), so
# a seed takes as many worlds as a block holds; each runs at least twice,
# so that its trace digests can be compared.
WORKLOADS = {
    w.name: w for w in (
        Workload("flows_steady", hosts=80, chains=40, mode="M1",
                 duration=44, worlds=4, repeats=2,
                 script="none"),
        Workload("failover_replan", hosts=20, chains=10, mode="M3",
                 duration=20, worlds=12, repeats=2,
                 script="failover"),
        Workload("link_churn", hosts=40, chains=20, mode="M1",
                 duration=40, worlds=10, repeats=3,
                 script="link_churn"),
    )
}

FULL_SHARE = 0.4          # share of hosts on the Full tier
EXTRA_LINK_SHARE = 0.5    # extra links per host on top of the spanning tree
FAILOVER_PERIOD = 5       # one leave per adaptation interval
FAILOVER_DOWN = 3         # ticks a host stays away
CHURN_DOWN = 3            # ticks a link stays down


def _host_ids(n: int) -> list:
    width = len(str(n - 1))
    return [f"h{i:0{width}d}" for i in range(n)]


def _hosts(rng: random.Random, n: int) -> list:
    ids = _host_ids(n)
    # h0 is Full so the coordinator (first Full host by id) is fixed
    full = {ids[0]} | set(rng.sample(ids[1:], round(n * FULL_SHARE) - 1))
    out = []
    for hid in ids:
        loc = [round(rng.uniform(0, 100), 1), round(rng.uniform(0, 100), 1)]
        if hid in full:
            out.append({"id": hid, "tier": "Full",
                        "cpu_capacity": round(rng.uniform(12, 20), 1),
                        "mem_capacity": round(rng.uniform(12, 20), 1),
                        "power": "Mains", "location": loc})
        else:
            out.append({"id": hid, "tier": "LightStd",
                        "cpu_capacity": round(rng.uniform(6, 10), 1),
                        "mem_capacity": round(rng.uniform(6, 10), 1),
                        "power": {"level": round(rng.uniform(0.7, 1.0), 3),
                                  "drain_per_tick":
                                      round(rng.uniform(2e-4, 1e-3), 5)},
                        "location": loc})
    return out


def _link(rng: random.Random, a: str, b: str) -> dict:
    return {"endpoints": sorted((a, b)), "latency": rng.randint(1, 3),
            "bandwidth": round(rng.uniform(20, 40), 1)}


def _links(rng: random.Random, ids: list) -> list:
    order = list(ids)
    rng.shuffle(order)
    pairs = set()
    for i in range(1, len(order)):
        pairs.add(tuple(sorted((order[i], order[rng.randrange(i)]))))
    want = len(pairs) + round(len(ids) * EXTRA_LINK_SHARE)
    while len(pairs) < want:
        a, b = rng.sample(ids, 2)
        pairs.add(tuple(sorted((a, b))))
    return [_link(rng, a, b) for a, b in sorted(pairs)]


def _component(cid: str, behavior: str, in_ports, out_ports,
               host: str, rng: random.Random) -> dict:
    cpu = round(rng.uniform(0.5, 1.5), 2)
    mem = round(rng.uniform(0.5, 1.5), 2)
    return {"id": cid, "in_ports": in_ports, "out_ports": out_ports,
            "variants": [
                {"tier": "Full", "cpu_demand": cpu, "mem_demand": mem,
                 "behavior": behavior},
                {"tier": "LightStd", "cpu_demand": round(cpu / 2, 3),
                 "mem_demand": round(mem / 2, 3), "behavior": behavior}],
            "initial_host": host}


LOSSLESS_SYNC = {"sync": "Synchronized", "loss": "Lossless", "capacity": 16}


def _policy(i: int) -> dict:
    """Second-hop policy of chain i: a fixed mix, so every seed has the
    same share of each policy."""
    if i % 5 == 0:
        return {"sync": "Unsynchronized", "loss": "KeepLatest", "capacity": 1}
    if i % 5 == 1:
        return {"sync": "Unsynchronized", "loss": "Lossless", "capacity": 16}
    return LOSSLESS_SYNC


def _app(rng: random.Random, ids: list, chains: int,
         alone: tuple = ()) -> dict:
    """Chains placed at random.  The source of chain i sits by itself on
    host alone[i]; no other component starts on those hosts."""
    others = [h for h in ids if h not in alone]
    comps, conns = [], []
    for i in range(chains):
        src, mid, snk = f"src{i:02d}", f"mid{i:02d}", f"snk{i:02d}"
        src_host = alone[i] if i < len(alone) else rng.choice(others)
        comps += [_component(src, "source", [], ["out"], src_host, rng),
                  _component(mid, "identity", ["in"], ["out"],
                             rng.choice(others), rng),
                  _component(snk, "sink", ["in"], [], rng.choice(others),
                             rng)]
        base = {"mode": "Push", "bw_demand": 0.5}
        conns.append({"id": f"k{i:02d}a", "from": f"{src}.out",
                      "to": [f"{mid}.in"], **base, **LOSSLESS_SYNC})
        conns.append({"id": f"k{i:02d}b", "from": f"{mid}.out",
                      "to": [f"{snk}.in"], **base, **_policy(i)})
    return {"components": comps, "connectors": conns}


def _connected_without(ids: list, links: list, gone: str) -> bool:
    adj = {h: set() for h in ids if h != gone}
    for link in links:
        a, b = link["endpoints"]
        if gone not in (a, b):
            adj[a].add(b)
            adj[b].add(a)
    start = next(iter(adj))
    seen, todo = {start}, [start]
    while todo:
        for nxt in adj[todo.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return len(seen) == len(adj)


def _failover_events(rng, hosts, links, duration) -> tuple:
    """(events, leavers): a different Full host leaves one tick before each
    adaptation cycle and rejoins after it.  Only hosts whose absence keeps
    the network connected leave, and never the coordinator, so every cycle
    can re-place what was lost."""
    ids = [h["id"] for h in hosts]
    eligible = [h["id"] for h in hosts[1:] if h["tier"] == "Full"
                and _connected_without(ids, links, h["id"])]
    ticks = range(FAILOVER_PERIOD - 1, duration - FAILOVER_DOWN,
                  FAILOVER_PERIOD)
    if len(eligible) < len(ticks):
        raise ValueError(f"only {len(eligible)} Full hosts can leave, "
                         f"{len(ticks)} leaves scripted")
    leavers = tuple(rng.sample(eligible, len(ticks)))
    events = []
    for hid, at in zip(leavers, ticks):
        events.append({"at": at, "kind": "HostLeave", "host": hid})
        events.append({"at": at + FAILOVER_DOWN, "kind": "HostJoin",
                       "host": hid})
    return events, leavers


def _churn_events(rng, links, duration) -> list:
    """From tick 1 on, one up link goes down per tick and comes back
    CHURN_DOWN ticks later."""
    back_at = {}
    events = []
    for at in range(1, duration - CHURN_DOWN):
        up = [tuple(l["endpoints"]) for l in links
              if back_at.get(tuple(l["endpoints"]), -1) < at]
        pair = rng.choice(up)
        back_at[pair] = at + CHURN_DOWN
        events.append({"at": at, "kind": "LinkDown", "endpoints": list(pair)})
        events.append({"at": at + CHURN_DOWN, "kind": "LinkUp",
                       "endpoints": list(pair)})
    return events


def generate(workload: str, seed: int, index: int = 0) -> tuple:
    """(app, net, scenario) descriptor documents of world `index` of one
    workload seed."""
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}:{index}")
    hosts = _hosts(rng, w.hosts)
    ids = [h["id"] for h in hosts]
    links = _links(rng, ids)
    events, leavers = [], ()
    if w.script == "failover":
        events, leavers = _failover_events(rng, hosts, links, w.duration)
    elif w.script == "link_churn":
        events = _churn_events(rng, links, w.duration)
    # each leave strands exactly one source, whose peer is elsewhere: two
    # components to re-place, an exhaustive search of the same size per leave
    app = _app(rng, ids, w.chains, alone=leavers)
    events.sort(key=lambda e: e["at"])
    scenario = {"duration": w.duration, "seed": seed, "events": events}
    return app, {"hosts": hosts, "links": links}, scenario


def dumps(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write(workload: str, seed: int, index: int, outdir: str) -> dict:
    """Write app.json, net.json and scenario.json; returns their paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = {}
    for name, doc in zip(("app", "net", "scenario"),
                         generate(workload, seed, index)):
        paths[name] = os.path.join(outdir, f"{name}.json")
        with open(paths[name], "w") as fh:
            fh.write(dumps(doc))
    return paths
