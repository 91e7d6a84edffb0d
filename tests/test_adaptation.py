"""QoS scoring, placement search, and the adaptation control loop."""

import itertools
import random
from dataclasses import replace

import pytest

from adaptsim import adaptation, kernel
from adaptsim.adaptation import (Coordinator, HostObs, INFEASIBLE, LinkObs,
                                 Observation, affected_components,
                                 evaluate_qos, observe, select_deployment)
from adaptsim.connector import Endpoint, FlowPolicy
from adaptsim.container import ComponentDescriptor, Variant
from adaptsim.kernel import (Add, ArchitectureModel, Battery, Connect,
                             HostDescriptor, HostTier, ModelComponent,
                             ModelConnector, PlatformConfig)
from adaptsim.simnet import World


def desc(cid, cpu=1.0, mem=1.0, in_ports=(), out_ports=(),
         behavior="identity", tiers=("Full", "LightStd")):
    return ComponentDescriptor(
        id=cid, in_ports=tuple(in_ports), out_ports=tuple(out_ports),
        variants=tuple(Variant(t, cpu, mem, behavior) for t in tiers))


def model_of(components, connectors=()):
    m = ArchitectureModel()
    for cid, host in components.items():
        m.components[cid] = ModelComponent(host=host, tier="Full",
                                           behavior="identity",
                                           lifecycle="Running")
    for kid, (src, dst, bw) in dict(connectors).items():
        m.connectors[kid] = ModelConnector(
            source=Endpoint(src, "out"), sinks=(Endpoint(dst, "in"),),
            policy=FlowPolicy(bw_demand=bw))
    return m


def obs_of(hosts, links=()):
    """hosts: id -> (up, cpu_free, mem_free, battery)."""
    o = Observation(at=0)
    for hid, (up, cpu, mem, batt) in hosts.items():
        o.hosts[hid] = HostObs(up=up, cpu_free=cpu, mem_free=mem,
                               battery=batt)
    for (a, b, bw) in links:
        o.links[frozenset((a, b))] = LinkObs(up=True, bandwidth=bw,
                                             bw_free=bw)
    return o


class TestEvaluateQos:
    def test_empty_application_scores_one(self):
        r = evaluate_qos(ArchitectureModel(), obs_of({}), {})
        assert r.global_score == 1.0

    def test_all_slack_mains_scores_one(self):
        m = model_of({"a": "h1", "b": "h1"}, {"k": ("a", "b", 1.0)})
        o = obs_of({"h1": (True, 8, 8, None)})
        ds = {"a": desc("a"), "b": desc("b")}
        assert evaluate_qos(m, o, ds).global_score == 1.0

    def test_down_host_halves_resource_mean(self):
        # two components, one on a dead host, one fully-local connector,
        # mains power: 0.4 * 0.5 + 0.4 * 1 + 0.2 * 1 = 0.8
        m = model_of({"a": "h1", "b": "h2"}, {"k": ("a", "a", 1.0)})
        o = obs_of({"h1": (True, 8, 8, None), "h2": (False, 0, 0, None)})
        ds = {"a": desc("a"), "b": desc("b")}
        r = evaluate_qos(m, o, ds)
        assert r.resource == {"a": 1.0, "b": 0.0}
        assert r.global_score == pytest.approx(0.8)

    def test_half_battery_scores_point_nine(self):
        m = model_of({"a": "h1"})
        o = obs_of({"h1": (True, 8, 8, 0.5)})
        r = evaluate_qos(m, o, {"a": desc("a")})
        assert r.battery == 0.5
        assert r.global_score == pytest.approx(0.9)

    def test_resource_fit_is_min_ratio_capped(self):
        m = model_of({"a": "h1"})
        o = obs_of({"h1": (True, 1.0, 8.0, None)})
        r = evaluate_qos(m, o, {"a": desc("a", cpu=4.0)})
        assert r.resource["a"] == pytest.approx(0.25)

    def test_link_score_is_bottleneck_ratio(self):
        m = model_of({"a": "h1", "b": "h3"}, {"k": ("a", "b", 4.0)})
        o = obs_of({"h1": (True, 8, 8, None), "h2": (True, 8, 8, None),
                    "h3": (True, 8, 8, None)},
                   links=[("h1", "h2", 10.0), ("h2", "h3", 2.0)])
        r = evaluate_qos(m, o, {"a": desc("a"), "b": desc("b")})
        assert r.link["k"] == pytest.approx(0.5)    # 2 / 4 on the thin hop

    def test_broken_route_zeroes_link(self):
        m = model_of({"a": "h1", "b": "h2"}, {"k": ("a", "b", 1.0)})
        o = obs_of({"h1": (True, 8, 8, None), "h2": (True, 8, 8, None)})
        assert evaluate_qos(m, o, {"a": desc("a"),
                                   "b": desc("b")}).link["k"] == 0.0

    def test_matches_hand_formula_on_random_instances(self):
        rng = random.Random(3)
        for _ in range(50):
            hosts = {f"h{i}": (True, rng.uniform(0.5, 8),
                               rng.uniform(0.5, 8),
                               rng.choice([None, rng.random()]))
                     for i in range(rng.randint(1, 4))}
            hids = sorted(hosts)
            comps = {f"c{i}": rng.choice(hids)
                     for i in range(rng.randint(1, 5))}
            ds = {cid: desc(cid, cpu=rng.uniform(0.2, 4),
                            mem=rng.uniform(0.2, 4)) for cid in comps}
            m = model_of(comps)
            o = obs_of(hosts)
            got = evaluate_qos(m, o, ds)
            want_r = {}
            for cid, hid in comps.items():
                up, cpu, mem, _ = hosts[hid]
                v = ds[cid].variants[0]
                want_r[cid] = max(0.0, min(
                    1.0, cpu / v.cpu_demand, mem / v.mem_demand))
            levels = [hosts[h][3] for h in set(comps.values())
                      if hosts[h][3] is not None]
            want_b = min(levels) if levels else 1.0
            want_g = (0.4 * sum(want_r.values()) / len(want_r)
                      + 0.4 * 1.0 + 0.2 * want_b)
            assert got.global_score == pytest.approx(want_g)
            assert 0.0 <= got.global_score <= 1.0


class TestSelectDeployment:
    TIERS = {"h1": "Full", "h2": "Full", "h3": "Full"}

    def test_nothing_affected_returns_none(self):
        m = model_of({"a": "h1"})
        o = obs_of({"h1": (True, 8, 8, None)})
        assert select_deployment(m, o, {"a": desc("a")},
                                 {"h1": "Full"}) is None

    def test_single_candidate_host_takes_everything(self):
        m = model_of({"a": "h1", "b": "h1"})
        o = obs_of({"h1": (False, 0, 0, None), "h2": (True, 8, 8, None)})
        plan = select_deployment(m, o, {"a": desc("a"), "b": desc("b")},
                                 {"h1": "Full", "h2": "Full"})
        assert plan.assignment == {"a": "h2", "b": "h2"}
        assert len(plan.commands) == 2

    def test_infeasible_when_no_tier_fits(self):
        m = model_of({"a": "h1"})
        o = obs_of({"h1": (False, 0, 0, None), "h2": (True, 8, 8, None)})
        got = select_deployment(m, o, {"a": desc("a", tiers=("Full",))},
                                 {"h1": "Full", "h2": "LightMin"})
        assert got is INFEASIBLE

    def test_tie_breaks_to_fewest_moves(self):
        # both hosts have ample room; staying put scores the same as
        # swapping, so the plan must leave the unaffected-looking option
        m = model_of({"a": "h1"})
        m.components["a"] = ModelComponent("h1", "Full", "identity",
                                           "Running")
        o = obs_of({"h1": (True, 0.4, 8, None), "h2": (True, 0.4, 8, None)})
        ds = {"a": desc("a", cpu=1.0)}
        plan = select_deployment(m, o, ds, {"h1": "Full", "h2": "Full"})
        # equal score everywhere -> zero-move assignment wins
        assert plan.assignment == {"a": "h1"}
        assert plan.commands == []

    def brute_force(self, m, o, ds, tiers):
        report = evaluate_qos(m, o, ds)
        affected = affected_components(m, report, o)
        ups = [h for h in sorted(o.hosts) if o.hosts[h].up]
        cands = {c: [h for h in ups
                     if ds[c].variant_for(tiers[h]) is not None]
                 for c in affected}
        if any(not v for v in cands.values()):
            return "infeasible", None
        best = None
        for combo in itertools.product(*(cands[c] for c in affected)):
            a = dict(zip(affected, combo))
            s = adaptation._score_assignment(
                m, o, ds, affected, a,
                {c: tiers[h] for c, h in a.items()}, (0.4, 0.4, 0.2))
            moves = sum(1 for c, h in a.items()
                        if m.components[c].host != h)
            key = (-s, moves, tuple(sorted(a.items())))
            if best is None or key < best[0]:
                best = (key, a, s)
        return best[2], best[1]

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(17)
        for _ in range(40):
            nh, nc = rng.randint(2, 4), rng.randint(1, 5)
            hosts = {}
            for i in range(nh):
                hosts[f"h{i}"] = (rng.random() > 0.3,
                                  rng.uniform(0.2, 6), rng.uniform(0.2, 6),
                                  rng.choice([None, rng.random()]))
            if not any(up for up, *_ in hosts.values()):
                hosts["h0"] = (True, 4, 4, None)
            hids = sorted(hosts)
            tiers = {h: "Full" for h in hids}
            comps = {f"c{i}": rng.choice(hids) for i in range(nc)}
            ds = {c: desc(c, cpu=rng.uniform(0.5, 3),
                          mem=rng.uniform(0.5, 3)) for c in comps}
            m = model_of(comps)
            o = obs_of(hosts)
            plan = select_deployment(m, o, ds, tiers)
            want_score, want_assign = self.brute_force(m, o, ds, tiers)
            if plan is None:
                assert want_assign in (None, {})
            elif plan is INFEASIBLE:
                assert want_score == "infeasible"
            else:
                assert plan.assignment == want_assign
                assert plan.expected_qos == pytest.approx(want_score)

    def test_repeated_calls_are_identical(self):
        m = model_of({"a": "h1", "b": "h2"})
        o = obs_of({"h1": (False, 0, 0, None), "h2": (True, 3, 3, None),
                    "h3": (True, 3, 3, None)})
        ds = {"a": desc("a"), "b": desc("b")}
        first = select_deployment(m, o, ds, self.TIERS)
        for _ in range(5):
            again = select_deployment(m, o, ds, self.TIERS)
            assert repr(again) == repr(first)


    def test_greedy_climbs_from_its_start_when_the_space_is_too_large(
            self, monkeypatch):
        # five components stranded on a dead host, seven live candidates
        # each: 7**5 assignments, above the exhaustive limit
        hosts = {"dead": (False, 0, 0, None)}
        hosts.update({f"h{i}": (True, 1.0 + i, 4.0, None) for i in range(7)})
        comps = {f"c{i}": "dead" for i in range(5)}
        ds = {c: desc(c, cpu=1.5, mem=1.0) for c in comps}
        tiers = {h: "Full" for h in hosts}
        m, o = model_of(comps), obs_of(hosts)
        assert 7 ** 5 > adaptation.EXHAUSTIVE_LIMIT
        scored = []
        score = adaptation._score_assignment
        monkeypatch.setattr(adaptation, "_score_assignment",
                            lambda *a: scored.append(a) or score(*a))
        plan = select_deployment(m, o, ds, tiers)
        assert 0 < len(scored) < 7 ** 5              # climbed, not listed

        def rescore(assignment):
            return score(m, o, ds, sorted(comps), assignment,
                         {c: "Full" for c in comps}, adaptation.QOS_WEIGHTS)

        # the climb starts with every stranded component on the first
        # candidate host
        assert plan.expected_qos > rescore({c: "h0" for c in comps})
        assert plan.expected_qos == rescore(plan.assignment)
        # the climb stops at a local optimum: no single move scores higher
        for c in comps:
            for h in sorted(hosts):
                if hosts[h][0]:
                    assert rescore({**plan.assignment, c: h}) \
                        <= plan.expected_qos
        for _ in range(3):
            assert repr(select_deployment(m, o, ds, tiers)) == repr(plan)

    def greedy_and_exhaustive(self, monkeypatch, m, o, ds, tiers):
        monkeypatch.setattr(adaptation, "EXHAUSTIVE_LIMIT", 10_000)
        exhaustive = select_deployment(m, o, ds, tiers)
        monkeypatch.setattr(adaptation, "EXHAUSTIVE_LIMIT", 0)
        return select_deployment(m, o, ds, tiers), exhaustive

    def test_greedy_never_beats_exhaustive(self, monkeypatch):
        rng = random.Random(29)
        compared = 0
        for _ in range(60):
            hids = [f"h{i}" for i in range(rng.randint(2, 4))]
            hosts = {h: (h == "h0" or rng.random() > 0.3,
                         rng.uniform(0.5, 4), rng.uniform(0.5, 4),
                         rng.choice([None, rng.random()])) for h in hids}
            comps = {f"c{i}": rng.choice(hids)
                     for i in range(rng.randint(1, 4))}
            ds = {c: desc(c, cpu=rng.uniform(0.5, 2),
                          mem=rng.uniform(0.5, 2)) for c in comps}
            greedy, exhaustive = self.greedy_and_exhaustive(
                monkeypatch, model_of(comps), obs_of(hosts), ds,
                {h: "Full" for h in hids})
            if exhaustive is None:
                assert greedy is None
                continue
            compared += 1
            assert greedy.expected_qos <= exhaustive.expected_qos
        assert compared >= 20

    def test_greedy_ties_exhaustive_on_one_stranded_component(
            self, monkeypatch):
        rng = random.Random(31)
        for _ in range(20):
            hids = [f"h{i}" for i in range(rng.randint(2, 5))]
            hosts = {h: (True, rng.uniform(4, 8), rng.uniform(4, 8),
                         rng.choice([None, rng.random()])) for h in hids}
            hosts["dead"] = (False, 0, 0, None)
            comps = {"c0": "dead"}
            comps.update({f"c{i}": rng.choice(hids)
                          for i in range(1, rng.randint(1, 4))})
            ds = {c: desc(c, cpu=rng.uniform(0.5, 2),
                          mem=rng.uniform(0.5, 2)) for c in comps}
            greedy, exhaustive = self.greedy_and_exhaustive(
                monkeypatch, model_of(comps), obs_of(hosts), ds,
                {h: "Full" for h in hosts})
            assert list(exhaustive.assignment) == ["c0"]
            assert greedy.expected_qos == exhaustive.expected_qos

def seeded_world(mode="M3", battery=None):
    w = World(seed=5)
    w.add_host(HostDescriptor(id="h1", tier=HostTier.FULL,
                              cpu_capacity=8, mem_capacity=8,
                              power=Battery(battery) if battery else None))
    w.add_host(HostDescriptor(id="h2", tier=HostTier.FULL,
                              cpu_capacity=8, mem_capacity=8))
    w.add_link("h1", "h2")
    w.coordinator = Coordinator("h1", mode)
    kernel.apply_now(w, Add(desc("a", behavior="source",
                                 out_ports=("out",)), "h1"))
    kernel.apply_now(w, Add(desc("b", behavior="sink",
                                 in_ports=("in",)), "h2"))
    kernel.apply_now(w, Connect("k1", Endpoint("a", "out"),
                                (Endpoint("b", "in"),), FlowPolicy()))
    w._tick_buffer.clear()
    return w


class TestCoordinator:
    def test_healthy_deployment_takes_no_action(self):
        w = seeded_world("M3")
        out = w.coordinator.run_cycle(w, 0)
        assert out.kind == "NoAction"
        assert w.last_qos.global_score == 1.0

    def test_m1_observes_but_never_plans(self):
        w = seeded_world("M1")
        w.hosts["h2"].desc.up = False
        out = w.coordinator.run_cycle(w, 0)
        assert out.kind == "NoAction"
        assert w.model.components["b"].host == "h2"   # untouched

    def test_m3_relocates_off_a_dead_host(self):
        w = seeded_world("M3")
        w.hosts["h2"].desc.up = False
        out = w.coordinator.run_cycle(w, 0)
        assert out.kind == "PlanApplied"
        assert w.model.components["b"].host == "h1"
        follow = w.coordinator.run_cycle(w, 5)
        assert follow.kind == "NoAction"
        assert w.last_qos.global_score >= 0.7

    def test_m4_waits_out_the_grace_window(self):
        w = seeded_world("M4")
        w.hosts["h2"].desc.up = False
        first = w.coordinator.run_cycle(w, 0)
        assert first.kind == "EventsEmitted"
        assert w.model.components["b"].host == "h2"
        mid = w.coordinator.run_cycle(w, 5)
        assert mid.kind == "EventsEmitted"
        late = w.coordinator.run_cycle(w, 10)
        assert late.kind == "PlanApplied"
        assert w.model.components["b"].host == "h1"

    def test_infeasible_is_flagged_and_clears(self):
        w = seeded_world("M3")
        w.hosts["h2"].desc.up = False
        w.descriptors["b"] = desc("b", behavior="sink", in_ports=("in",),
                                  tiers=("LightMin",))
        out = w.coordinator.run_cycle(w, 0)
        assert out.kind == "NoAction"
        assert w.coordinator.infeasible_outstanding is True
        w.hosts["h2"].desc.up = True
        w.coordinator.run_cycle(w, 5)
        assert w.coordinator.infeasible_outstanding is False

    def test_qos_report_is_stored_as_context(self):
        w = seeded_world("M3")
        w.coordinator.run_cycle(w, 0)
        obj = w.hosts["h1"].store.latest("qos.global")
        assert obj is not None
        assert obj.info.value.value == 1.0


class TestObserve:
    def test_bandwidth_budget_subtracts_flow_demand(self):
        w = seeded_world("M3")
        o = observe(w, 0)
        pair = frozenset(("h1", "h2"))
        assert o.links[pair].bw_free == pytest.approx(
            o.links[pair].bandwidth - 1.0)
