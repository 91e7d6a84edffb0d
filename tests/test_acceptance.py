"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints `ACCEPTANCE <n> PASS|FAIL <summary>` on the live
terminal (bypassing capture) so a full run shows the per-criterion
verdicts regardless of pytest verbosity.
"""

import itertools
import math
import os
import random

import pytest

from adaptsim import adaptation, behaviors, cli, descriptors, kernel, trace
from adaptsim.adaptation import evaluate_qos, select_deployment
from adaptsim.connector import (ConnectorInstance, Endpoint, FlowPolicy,
                                LossKind, PushResult)
from adaptsim.container import ComponentDescriptor, Variant
from adaptsim.context import effective_confidence, stamp, ContextInformation, \
    ContextNature, Location
from adaptsim.errors import ServiceUnavailable
from adaptsim.kernel import (Add, ArchitectureModel, Connect, Disconnect,
                             HostDescriptor, HostTier, ModelComponent, Move,
                             Remove, Service, reconstruct_model)
from adaptsim.simnet import SimEventKind, World, sim_event
from test_adaptation import reference_score

DATA = os.path.join(os.path.dirname(__file__), "data")
APP = os.path.join(DATA, "app.json")
NET = os.path.join(DATA, "net.json")
SCENARIO = os.path.join(DATA, "scenario.json")
GOLDEN = os.path.join(DATA, "golden_m3.trace")


@pytest.fixture
def verdict(request, capsys):
    """Report PASS when the test body completed, FAIL when it raised."""
    state = {"summary": ""}
    yield state
    num = request.node.name.split("_")[1]
    failed = getattr(request.node, "rep_failed", False)
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {'FAIL' if failed else 'PASS'} "
              f"{state['summary']}")


def comp(cid, behavior="identity", in_ports=(), out_ports=(),
         tiers=("Full", "LightStd"), listener=False):
    return ComponentDescriptor(
        id=cid, in_ports=tuple(in_ports), out_ports=tuple(out_ports),
        variants=tuple(Variant(t, 1.0, 1.0, behavior) for t in tiers),
        listener=listener)


def full_host(hid, cpu=16.0):
    return HostDescriptor(id=hid, tier=HostTier.FULL, cpu_capacity=cpu,
                          mem_capacity=16.0)


def test_01_causal_connection(verdict):
    """Model == registry-walk reconstruction after every applied command."""
    rng = random.Random(2026)
    checked = applied = 0
    for trial in range(200):
        w = World(seed=trial)
        hosts = [f"h{i}" for i in range(rng.randint(2, 5))]
        for hid in hosts:
            w.add_host(full_host(hid))
        for a, b in itertools.combinations(hosts, 2):
            if rng.random() < 0.6:
                w.add_link(a, b)
        comps = [f"c{i}" for i in range(rng.randint(1, 8))]
        for _ in range(rng.randint(1, 20)):
            kind = rng.randrange(5)
            cid = rng.choice(comps)
            if kind == 0:
                cmd = Add(comp(cid, out_ports=("o",), behavior="source"),
                          rng.choice(hosts))
            elif kind == 1:
                cmd = Move(cid, rng.choice(hosts))
            elif kind == 2:
                cmd = Remove(cid)
            elif kind == 3:
                cmd = Connect(f"k{cid}", Endpoint(cid, "o"),
                              (Endpoint(rng.choice(comps), "i"),),
                              FlowPolicy())
            else:
                cmd = Disconnect(f"k{cid}")
            result = kernel.apply_now(w, cmd)
            applied += result.applied
            checked += 1
            assert (w.model.canonical()
                    == reconstruct_model(w).canonical())
    verdict["summary"] = (f"causal connection held over {checked} commands "
                          f"({applied} applied) in 200 sequences")


def _mode_run(mode):
    app, _ = descriptors.parse_app(descriptors.load_json(APP))
    net, _ = descriptors.parse_net(descriptors.load_json(NET))
    listener = comp("watch", behavior="sink", listener=True)
    app.components.append(descriptors.ComponentDescriptor(
        id="watch", in_ports=(), out_ports=(),
        variants=listener.variants, listener=True, initial_host="h1"))
    w = cli.build_world(app, net, seed=7, mode=mode)
    w.schedule(sim_event(4, SimEventKind.HOST_LEAVE, host="h2"))
    w.run(30)
    records = [trace.parse_line(l) for l in w.trace_lines]
    c_flow = sum(1 for r in records if r.kind == "EVT")
    d_flow = len(trace.app_targeted_commands(records))
    return c_flow, d_flow


def test_02_mode_matrix(verdict):
    """Events (C) and commands (D) per adaptation mode on one failure."""
    got = {m: _mode_run(m) for m in ("M1", "M2", "M3", "M4")}
    c1, d1 = got["M1"]
    c2, d2 = got["M2"]
    c3, d3 = got["M3"]
    c4, d4 = got["M4"]
    assert (c1, d1) == (0, 0)
    assert c2 > 0 and d2 == 0
    assert c3 == 0 and d3 > 0
    assert c4 > 0 and d4 > 0
    verdict["summary"] = ("mode matrix (C,D): "
                          + " ".join(f"{m}={got[m]}" for m in sorted(got)))


def test_03_lossless_across_migration(verdict):
    """1000 samples survive a mid-run consumer migration intact."""
    def emit_1000(state, inputs, events, now, api):
        n = state or 0
        if n >= 1000:
            return n, {}
        return n + 1, {"__all__": n + 1}

    def collect(state, inputs, events, now, api):
        got = list(state or [])
        for v in inputs.values():
            if v is not None:
                got.append(v)
        return got, {}

    behaviors.register("emit_1000", emit_1000)
    behaviors.register("collect", collect)
    w = World(seed=0)
    for hid in ("h1", "h2", "h3"):
        w.add_host(full_host(hid))
    w.add_link("h1", "h2")
    w.add_link("h1", "h3")
    w.add_link("h2", "h3")
    kernel.apply_now(w, Add(comp("prod", behavior="emit_1000",
                                 out_ports=("o",)), "h1"))
    kernel.apply_now(w, Add(comp("cons", behavior="collect",
                                 in_ports=("i",)), "h2"))
    kernel.apply_now(w, Connect("k", Endpoint("prod", "o"),
                                (Endpoint("cons", "i"),), FlowPolicy()))
    for tick in range(1100):
        if tick == 400:
            assert kernel.apply_now(w, Move("cons", "h3")).applied
        w.step()
    delivered = w.hosts["h3"].containers["cons"].state
    assert delivered == list(range(1, 1001))
    verdict["summary"] = (f"1000/1000 samples in order across migration "
                          f"(0 loss, 0 reorder, 0 dup)")


def test_04_keep_latest(verdict):
    """Slow consumer sees gaps but order and the final sample."""
    k = ConnectorInstance("k", Endpoint("p", "o"), [Endpoint("c", "i")],
                          FlowPolicy(loss=LossKind.KEEP_LATEST))
    produced = 200
    delivered = []
    for t in range(produced):
        assert k.push("p", "o", t + 1, now=t) in (PushResult.ACCEPTED,
                                                  PushResult.OVERWROTE)
        if t % 4 == 3:                       # consumer at quarter speed
            got = k.pull("c", "i", now=t)
            if got is not None:
                delivered.append(got)
    final = k.pull("c", "i", now=produced)
    if final is not None:
        delivered.append(final)
    assert len(delivered) < produced
    assert all(a < b for a, b in zip(delivered, delivered[1:]))
    assert delivered[-1] == produced
    verdict["summary"] = (f"keep-latest: {len(delivered)}/{produced} "
                          f"delivered, strictly increasing, final seen")


def test_05_confidence_decay(verdict):
    """Half-life halves confidence exactly; decay is monotone."""
    worst = 0.0
    for base, half_life in [(1.0, 32), (0.8, 32), (0.5, 7), (0.31, 100)]:
        info = ContextInformation(nature=ContextNature.ENVIRONMENT,
                                  key="x", value=1.0, producer="t")
        obj = stamp(info, 0, Location(host="h"), owner="t",
                    base_confidence=base)
        at_half = effective_confidence(obj, half_life, half_life)
        worst = max(worst, abs(at_half - 0.5 * base))
        assert abs(at_half - 0.5 * base) <= 1e-9
        grid = [effective_confidence(obj, age, half_life)
                for age in range(1000)]
        assert all(a >= b for a, b in zip(grid, grid[1:]))
    verdict["summary"] = (f"half-life decay exact to {worst:.2e} "
                          f"and monotone over 1000-point grids")


def _brute_force_plan(m, o, ds, tiers):
    report = evaluate_qos(m, o, ds)
    affected = adaptation.affected_components(m, report, o)
    ups = [h for h in sorted(o.hosts) if o.hosts[h].up]
    cands = {c: [h for h in ups
                 if ds[c].variant_for(tiers[h]) is not None]
             for c in affected}
    if not affected:
        return None
    if any(not v for v in cands.values()):
        return "infeasible"
    best = None
    for combo in itertools.product(*(cands[c] for c in affected)):
        a = dict(zip(affected, combo))
        s = reference_score(m, o, ds, affected, a,
                            {c: tiers[h] for c, h in a.items()})
        moves = sum(1 for c, h in a.items() if m.components[c].host != h)
        key = (-s, moves, tuple(sorted(a.items())))
        if best is None or key < best[0]:
            best = (key, a, s)
    return best


def test_06_placement_optimality(verdict):
    """Plans equal exhaustive optimum; repeated calls byte-identical."""
    rng = random.Random(99)
    optimal = 0
    for _ in range(50):
        hosts = {f"h{i}": (rng.random() > 0.35, rng.uniform(0.2, 6),
                           rng.uniform(0.2, 6),
                           rng.choice([None, rng.random()]))
                 for i in range(rng.randint(2, 4))}
        if not any(up for up, *_ in hosts.values()):
            hosts["h0"] = (True, 4.0, 4.0, None)
        hids = sorted(hosts)
        tiers = {h: "Full" for h in hids}
        comps = {f"c{i}": rng.choice(hids)
                 for i in range(rng.randint(1, 5))}
        ds = {c: comp(c, tiers=("Full",)) for c in comps}
        for c in ds:
            ds[c] = ComponentDescriptor(
                id=c, in_ports=(), out_ports=(),
                variants=(Variant("Full", rng.uniform(0.5, 3),
                                  rng.uniform(0.5, 3), "identity"),))
        m = ArchitectureModel()
        for cid, hid in comps.items():
            m.components[cid] = ModelComponent(hid, "Full", "identity",
                                               "Running")
        o = adaptation.Observation(at=0)
        for hid, (up, cpu, mem, batt) in hosts.items():
            o.hosts[hid] = adaptation.HostObs(up=up, cpu_free=cpu,
                                              mem_free=mem, battery=batt)
        plan = select_deployment(m, o, ds, tiers)
        want = _brute_force_plan(m, o, ds, tiers)
        if want is None:
            assert plan is None
        elif want == "infeasible":
            assert plan is adaptation.INFEASIBLE
        else:
            assert plan.assignment == want[1]
            assert plan.expected_qos == pytest.approx(want[2])
            optimal += 1
        again = select_deployment(m, o, ds, tiers)
        assert repr(again) == repr(plan)
    verdict["summary"] = (f"50/50 instances optimal ({optimal} with plans), "
                          f"re-runs byte-identical")


def test_07_failure_recovery(verdict):
    """Host death at tick 100; M3 restores QoS >= theta within 50 ticks."""
    app, _ = descriptors.parse_app(descriptors.load_json(APP))
    net, _ = descriptors.parse_net(descriptors.load_json(NET))
    w = cli.build_world(app, net, seed=1, mode="M3")
    w.schedule(sim_event(100, SimEventKind.HOST_LEAVE, host="h2"))
    recovered_at = None
    theta = adaptation.QOS_THRESHOLD
    for _ in range(151):
        w.step()
        if (w.now - 1 > 100 and w.last_qos is not None
                and w.last_qos.at > 100
                and w.last_qos.global_score >= theta):
            recovered_at = w.last_qos.at
            break
    assert recovered_at is not None and recovered_at <= 150
    assert w.model.components["relay"].host != "h2"
    verdict["summary"] = (f"relay relocated to "
                          f"{w.model.components['relay'].host}; QoS >= "
                          f"{theta} again at tick {recovered_at}")


def test_08_tier_delegation(verdict):
    """Sensor-tier routing equals the global oracle; heavy services refuse."""
    rng = random.Random(5)
    compared = 0
    for _ in range(20):
        n = rng.randint(3, 6)
        w = World(seed=0)
        ids = [f"h{i}" for i in range(n)]
        w.add_host(HostDescriptor(id=ids[0], tier=HostTier.LIGHT_MIN,
                                  cpu_capacity=1, mem_capacity=1))
        w.add_host(full_host(ids[1]))
        for hid in ids[2:]:
            w.add_host(HostDescriptor(
                id=hid, tier=rng.choice([HostTier.FULL, HostTier.LIGHT_STD]),
                cpu_capacity=4, mem_capacity=4))
        w.add_link(ids[0], ids[1])            # guaranteed full neighbour
        for a, b in itertools.combinations(ids, 2):
            if frozenset((a, b)) not in w.links and rng.random() < 0.5:
                w.add_link(a, b)
        for dst in ids:
            assert (kernel.route(w, ids[0], dst)
                    == kernel.shortest_path(w, ids[0], dst))
            compared += 1
        with pytest.raises(ServiceUnavailable):
            kernel.service_call(w, ids[0], Service.PERSISTENCE, None)
    verdict["summary"] = (f"{compared} delegated routes matched the oracle "
                          f"over 20 topologies; Persistence refused")


def _reference_trace(path, seed=None):
    argv = ["run", "--app", APP, "--net", NET, "--scenario", SCENARIO,
            "--mode", "M3", "--trace", path]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert cli.main(argv) == 0
    with open(path, "rb") as fh:
        return fh.read()


def test_09_determinism(verdict):
    """Same seed: identical bytes; new seed: only noisy readings move."""
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        a = _reference_trace(os.path.join(d, "a.trace"))
        b = _reference_trace(os.path.join(d, "b.trace"))
        assert a == b
        c = _reference_trace(os.path.join(d, "c.trace"), seed=1234)
        assert c != a
        diff = [(x, y) for x, y in zip(a.decode().splitlines(),
                                       c.decode().splitlines()) if x != y]
        assert diff and all("key=temp" in x for x, _ in diff)
    verdict["summary"] = (f"same-seed runs byte-identical; new seed moved "
                          f"{len(diff)} sensor-noise lines only")


def test_10_golden_trace(verdict):
    """The reference M3 run matches the pinned golden trace."""
    import tempfile
    with open(GOLDEN, "rb") as fh:
        golden = fh.read()
    with tempfile.TemporaryDirectory() as d:
        got = _reference_trace(os.path.join(d, "g.trace"))
    assert got == golden
    verdict["summary"] = (f"golden trace matched byte for byte "
                          f"({len(golden.splitlines())} lines)")
